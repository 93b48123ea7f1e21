"""Acceptance suite: one test per release criterion.

Each test prints a PASS line (visible with `pytest -s` or `-v` via the
test outcome) after all of its assertions hold. Tolerances are exact set
or byte equality throughout; nothing is approximate.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
from pathlib import Path

from randcat import random_catalog, random_dag, random_subset, refinement_catalog
from reqlattice.algebra import (
    jurisdiction_regulations,
    partition_general_specific,
    product_union,
    requirements_for,
    rl_min,
    shared_regulations,
)
from reqlattice.analysis import (
    ImpactScope,
    Overlap,
    change_impact,
    classify_overlap,
    consistency_diagnostics,
)
from reqlattice.cli import main
from reqlattice.io import ViewKind, build_view, loads, render_dot, save
from reqlattice.model import IMPLICATION_VIOLATED, Kind, validate
from reqlattice.refinement import (
    build_graph,
    is_weaker,
    optimize,
    oracle_maximal,
    witnesses,
)

DATA = Path(__file__).parent / "data"

SMALL_CORPUS_SEED = 106
LARGE_CORPUS_SEED = 9001
CATALOG_CORPUS_SEED = 31415

SMALL_GRAPHS = 200
LARGE_TRIALS = 1000


def small_corpus():
    rng = random.Random(SMALL_CORPUS_SEED)
    for _ in range(SMALL_GRAPHS):
        nodes, edges = random_dag(rng, max_nodes=6)
        yield build_graph(refinement_catalog(nodes, edges)), nodes


def large_trials():
    rng = random.Random(LARGE_CORPUS_SEED)
    for _ in range(LARGE_TRIALS):
        n = rng.randint(10, 100)
        nodes, edges = random_dag(rng, max_nodes=n, edge_prob=rng.uniform(0.0, 0.05))
        yield build_graph(refinement_catalog(nodes, edges)), random_subset(rng, nodes)


def all_subsets(nodes):
    for mask in range(1 << len(nodes)):
        yield [n for i, n in enumerate(nodes) if mask >> i & 1]


def test_criterion_1_optimize_equals_oracle():
    started = time.monotonic()
    exhaustive = 0
    for graph, nodes in small_corpus():
        for subset in all_subsets(nodes):
            assert optimize(graph, subset) == oracle_maximal(graph, subset)
            exhaustive += 1
    randomized = 0
    for graph, subset in large_trials():
        assert optimize(graph, subset) == oracle_maximal(graph, subset)
        randomized += 1
    elapsed = time.monotonic() - started
    assert randomized == LARGE_TRIALS
    print(
        f"PASS criterion 1: optimize == oracle on {exhaustive} exhaustive and "
        f"{randomized} randomized inputs ({elapsed:.1f}s)"
    )


def test_criterion_2_algorithm_laws():
    rng = random.Random(777)
    checked = 0

    def check_laws(graph, subset):
        nonlocal checked
        strongest = optimize(graph, subset)
        assert strongest.members <= set(subset)
        assert optimize(graph, strongest) == strongest
        for a in strongest:
            for b in strongest:
                if a != b:
                    assert not is_weaker(graph, a, b)
        for dropped in set(subset) - strongest.members:
            assert any(is_weaker(graph, dropped, kept) for kept in strongest)
        shuffled = list(subset)
        rng.shuffle(shuffled)
        assert optimize(graph, shuffled) == strongest
        checked += 1

    for graph, nodes in small_corpus():
        for subset in all_subsets(nodes):
            check_laws(graph, subset)
    for graph, subset in large_trials():
        check_laws(graph, subset)
    print(
        "PASS criterion 2: subset/idempotence/antichain/dominance/order-"
        f"insensitivity laws hold on {checked} inputs"
    )


def test_witnesses_equal_brute_force_minimum():
    checked = 0

    def check(graph, subset):
        nonlocal checked
        kept = optimize(graph, subset)
        witness = witnesses(graph, kept)
        for dropped in set(subset) - kept.members:
            assert witness[dropped] == min(q for q in kept if is_weaker(graph, dropped, q))
        checked += 1

    for graph, nodes in small_corpus():
        for subset in all_subsets(nodes):
            check(graph, subset)
    for graph, subset in large_trials():
        check(graph, subset)
    print(f"PASS witnesses: smallest dominating kept member on {checked} inputs")


def test_criterion_3_set_algebra_identities():
    rng = random.Random(CATALOG_CORPUS_SEED)
    for _ in range(60):
        catalog = random_catalog(
            rng, max_jurisdictions=5, max_products=5, max_requirements=40
        )
        jids = [j.id for j in catalog.jurisdictions]
        pids = [p.id for p in catalog.products]

        for jid in jids:
            minimum = rl_min(catalog, jid)
            for pid in pids:
                assert minimum.issubset(requirements_for(catalog, pid, jid, Kind.RL))

        for pid in pids:
            union = product_union(catalog, pid)
            double_loop = set()
            for jid in jids:
                for req in catalog.requirements:
                    projection = requirements_for(catalog, pid, jid)
                    if req.id in projection:
                        double_loop.add(req.id)
            assert set(union.members) == double_loop

            for kind in (Kind.RL, Kind.RFN):
                part = partition_general_specific(catalog, pid, kind)
                for jid in jids:
                    projection = requirements_for(catalog, pid, jid, kind)
                    assert part.general.isdisjoint(part.specific[jid])
                    assert (part.general | part.specific[jid]) == projection

        core, complements = shared_regulations(catalog)
        for jid in jids:
            regs = jurisdiction_regulations(catalog, jid)
            assert core <= regs
            assert complements[jid] == regs - core
    print("PASS criterion 3: set-algebra identities hold on 60 generated catalogs")


def test_criterion_4_overlap_case_reproduction():
    expectations = {
        "disjoint.reqcat.json": (Overlap.DISJOINT, "TRACE_SEPARATELY"),
        "partial.reqcat.json": (Overlap.PARTIAL, "COMPONENT_SPLIT"),
        "identical.reqcat.json": (Overlap.IDENTICAL, "SINGLE_COMPONENT"),
    }
    for name, (case, recommendation) in expectations.items():
        catalog = loads((DATA / name).read_bytes())
        assert validate(catalog).ok
        got = classify_overlap(catalog)
        assert got.case is case, name
        assert got.recommendation == recommendation, name
    print("PASS criterion 4: the three overlap cases reproduce with their recommendations")


def test_criterion_5_change_tracing():
    catalog = loads((DATA / "partial.reqcat.json").read_bytes())

    complement_report = change_impact(catalog, "s1")
    assert complement_report.scope is ImpactScope.COUNTRY_SPECIFIC
    assert complement_report.jurisdictions == ("C1",)
    by_id = {req.id: req for req in catalog.requirements}
    for rid in complement_report.affected_requirements:
        req = by_id[rid]
        assert req.applies_to_jurisdictions == frozenset({"C1"})
        for pid in complement_report.affected_products:
            part = partition_general_specific(catalog, pid, Kind.RL)
            assert rid in part.specific["C1"]
            assert rid not in part.general

    core_report = change_impact(catalog, "g")
    assert core_report.scope is ImpactScope.GLOBAL
    assert core_report.in_core

    # Core membership and global scope coincide for every regulation, in
    # the fixture and across generated catalogs.
    rng = random.Random(63)
    catalogs = [catalog] + [random_catalog(rng, max_requirements=15) for _ in range(20)]
    for cat in catalogs:
        core, _ = shared_regulations(cat)
        for regulation in cat.regulations:
            report = change_impact(cat, regulation.id)
            assert (report.scope is ImpactScope.GLOBAL) == (regulation.id in core)
    print("PASS criterion 5: complement changes stay country-specific, core changes are global")


def test_criterion_6_disjoint_implication_diagnostic():
    counterexample = loads((DATA / "counterexample.reqcat.json").read_bytes())
    assert validate(counterexample).ok
    issues = consistency_diagnostics(counterexample)
    assert [issue.code for issue in issues] == [IMPLICATION_VIOLATED]

    clean = loads((DATA / "disjoint.reqcat.json").read_bytes())
    assert consistency_diagnostics(clean) == []

    # Catalogs whose RL requirements are each scoped to a single
    # jurisdiction can never trigger the diagnostic.
    rng = random.Random(12)
    for _ in range(30):
        catalog = random_catalog(rng, max_requirements=20)
        jids = [j.id for j in catalog.jurisdictions]
        forced = dataclasses.replace(
            catalog,
            requirements=tuple(
                dataclasses.replace(
                    req, applies_to_jurisdictions=frozenset({rng.choice(jids)})
                )
                if req.kind is Kind.RL
                else req
                for req in catalog.requirements
            ),
        )
        assert consistency_diagnostics(forced) == []
    print("PASS criterion 6: the cross-cited counterexample warns, single-scoped catalogs do not")


def test_criterion_7_round_trip_and_determinism(capsys):
    rng = random.Random(2024)
    for _ in range(100):
        catalog = random_catalog(rng)
        blob = save(catalog)
        assert loads(blob) == catalog
        assert save(loads(blob)) == blob

    catalog = loads((DATA / "partial.reqcat.json").read_bytes())
    graph = build_graph(catalog)
    for kind, focus in (
        (ViewKind.COUNTRY_CENTRED, "C1"),
        (ViewKind.PRODUCT_CENTRED, "P1"),
        (ViewKind.GLOBAL, None),
    ):
        outputs = {render_dot(build_view(catalog, graph, kind, focus)) for _ in range(3)}
        assert len(outputs) == 1

    partial = str(DATA / "partial.reqcat.json")
    for argv in (
        ["validate", partial, "--json"],
        ["sets", partial, "--product", "P1", "--json"],
        ["optimize", partial, "--global", "--json"],
        ["classify", partial, "--json"],
        ["impact", partial, "--regulation", "g", "--json"],
    ):
        runs = []
        for _ in range(3):
            assert main(argv) == 0
            runs.append(capsys.readouterr().out)
        assert len(set(runs)) == 1
        json.loads(runs[0])
    print("PASS criterion 7: 100 round trips exact; exports and JSON outputs byte-identical x3")


def test_criterion_8_cli_exit_code_matrix(capsys, tmp_path):
    valid = str(DATA / "partial.reqcat.json")
    invalid = str(DATA / "cycle.reqcat.json")
    unparseable = str(DATA / "malformed.reqcat.json")
    missing = str(tmp_path / "absent.reqcat.json")
    out = str(tmp_path / "view.dot")

    matrix = [
        (["validate", valid], 0),
        (["sets", valid, "--product", "P1"], 0),
        (["optimize", valid, "--global"], 0),
        (["classify", valid], 0),
        (["impact", valid, "--regulation", "g"], 0),
        (["export", valid, "--view", "global", "--out", out], 0),
        (["validate", invalid], 1),
        (["sets", invalid, "--product", "P1"], 1),
        (["optimize", invalid, "--global"], 1),
        (["classify", invalid], 1),
        (["impact", invalid, "--regulation", "g"], 1),
        (["export", invalid, "--view", "global", "--out", out], 1),
        (["validate", unparseable], 2),
        (["classify", unparseable], 2),
        (["validate", missing], 2),
        (["sets", valid, "--product", "nope"], 2),
        (["sets", valid, "--rl"], 2),
        (["impact", valid, "--regulation", "nope"], 2),
        (["export", valid, "--view", "country", "--out", out], 2),
    ]
    for argv, expected in matrix:
        code = main(argv)
        capsys.readouterr()
        assert code == expected, argv
    print(f"PASS criterion 8: exit codes 0/1/2 correct across {len(matrix)} invocations")
