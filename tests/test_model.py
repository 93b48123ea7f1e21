from __future__ import annotations

import dataclasses
import gc
import random
import weakref
from collections import Counter
from pathlib import Path

import pytest

from randcat import random_catalog, random_digraph, with_duplicated_ids
from reqlattice.algebra import general_part, rl_min
from reqlattice.errors import CatalogInvalidError
from reqlattice.io import load
from reqlattice.model import (
    ALL,
    CYCLE,
    DUP_EDGE,
    DUP_ID,
    EMPTY_ID,
    EMPTY_SCOPE,
    KIND_FIELDS,
    RL_COVERAGE,
    SELF_EDGE,
    UNKNOWN_REF,
    AllScope,
    Catalog,
    Jurisdiction,
    Kind,
    Product,
    Issue,
    RefinementEdge,
    Regulation,
    Requirement,
    Severity,
    ValidationReport,
    _adjacency,
    _cycle_components,
    find_warnings,
    validate,
)
from reqlattice.refinement import build_graph

DATA = Path(__file__).parent / "data"


def rfn(rid: str, **kwargs) -> Requirement:
    return Requirement(rid, Kind.RFN, **kwargs)


def codes(issues) -> list[str]:
    return [issue.code for issue in issues]


def test_kind_reads_any_case_and_refuses_other_values():
    assert [Kind("rl"), Kind("Rfn"), Kind(Kind.RL)] == [Kind.RL, Kind.RFN, Kind.RL]
    assert Requirement("r1", "rfn").kind is Kind.RFN
    for value in ("x", "", 1, None):
        with pytest.raises(ValueError):
            Kind(value)


def test_empty_catalog_is_vacuously_valid():
    report = validate(Catalog())
    assert report.errors == ()
    assert find_warnings(Catalog()) == ()
    assert report.ok


def test_all_scope_is_a_singleton_and_expands_at_query_time():
    catalog = Catalog(
        products=[Product("anything"), Product("b")],
        requirements=[rfn("r_all"), rfn("r_a", applies_to_products={"a"})],
    )
    assert "r_all" in catalog.requirements_by_product["anything"]
    assert "r_a" not in catalog.requirements_by_product["b"]
    assert AllScope() is ALL and rfn("r").applies_to_products is ALL
    widened = dataclasses.replace(catalog, products=(*catalog.products, Product("new")))
    assert widened.requirements_by_product["new"] == {"r_all"}
    assert widened.requirements_on_every_product == {"r_all"}


def test_two_cycle_reports_one_cycle_error():
    catalog = Catalog(
        requirements=[rfn("r1"), rfn("r2")],
        refinements=[RefinementEdge("r1", "r2"), RefinementEdge("r2", "r1")],
    )
    report = validate(catalog)
    assert codes(report.errors) == [CYCLE]
    assert report.errors[0].ids == ("r1", "r2")


def test_rl_requirement_without_citation_is_kind_fields():
    catalog = Catalog(requirements=[Requirement("r1", Kind.RL)])
    report = validate(catalog)
    assert codes(report.errors) == [KIND_FIELDS]
    assert report.errors[0].ids == ("r1",)


def test_rl_with_human_factors_and_rfn_with_citation_are_kind_fields():
    catalog = Catalog(
        regulations=[Regulation("g", jurisdictions=ALL)],
        requirements=[
            Requirement("r1", Kind.RL, derived_from={"g"}, human_factors={"habit"}),
            Requirement("r2", Kind.RFN, derived_from={"g"}),
        ],
    )
    report = validate(catalog)
    assert codes(report.errors) == [KIND_FIELDS, KIND_FIELDS]
    assert [issue.ids for issue in report.errors] == [("r1",), ("r2",)]


def test_duplicate_ids_reported_once_per_id():
    catalog = Catalog(
        jurisdictions=[Jurisdiction("C1"), Jurisdiction("C1"), Jurisdiction("C1")],
        products=[Product("P1"), Product("P1")],
    )
    report = validate(catalog)
    assert codes(report.errors) == [DUP_ID, DUP_ID]
    assert {issue.ids for issue in report.errors} == {("C1",), ("P1",)}


def test_broken_references_reported():
    catalog = Catalog(
        jurisdictions=[Jurisdiction("C1")],
        regulations=[Regulation("g", jurisdictions={"C1", "C9"})],
        requirements=[
            Requirement(
                "r1",
                Kind.RL,
                derived_from={"g", "ghost"},
                applies_to_products={"P9"},
                applies_to_jurisdictions={"C1"},
            )
        ],
    )
    report = validate(catalog)
    assert codes(report.errors) == [UNKNOWN_REF, UNKNOWN_REF, UNKNOWN_REF]
    assert {issue.ids for issue in report.errors} == {
        ("g", "C9"),
        ("r1", "ghost"),
        ("r1", "P9"),
    }


def test_edge_problems_reported():
    catalog = Catalog(
        requirements=[rfn("r1"), rfn("r2")],
        refinements=[
            RefinementEdge("r1", "r1"),
            RefinementEdge("r1", "r2"),
            RefinementEdge("r1", "r2"),
            RefinementEdge("r2", "zz"),
        ],
    )
    report = validate(catalog)
    assert sorted(codes(report.errors)) == [DUP_EDGE, SELF_EDGE, UNKNOWN_REF]


def test_edge_index_keeps_distinct_known_edges_and_cycles_among_them_are_reported():
    catalog = Catalog(
        requirements=[rfn("r1"), rfn("r2"), rfn("r3")],
        refinements=[
            RefinementEdge("r1", "r2"),
            RefinementEdge("r1", "r2"),
            RefinementEdge("r2", "r1"),
            RefinementEdge("r3", "r3"),
            RefinementEdge("r3", "zz"),
        ],
    )
    assert catalog.refinement_children == {
        "r1": frozenset({"r2"}),
        "r2": frozenset({"r1"}),
        "r3": frozenset(),
    }
    report = validate(catalog)
    assert sorted(codes(report.errors)) == [CYCLE, DUP_EDGE, SELF_EDGE, UNKNOWN_REF]
    assert report.errors[0].ids == ("r1", "r2")


def test_empty_ids_and_empty_regulation_scope():
    catalog = Catalog(
        jurisdictions=[Jurisdiction("")],
        regulations=[Regulation("g", jurisdictions=frozenset())],
    )
    report = validate(catalog)
    assert sorted(codes(report.errors)) == [EMPTY_ID, EMPTY_SCOPE]
    # Each entity with an empty id is one EMPTY_ID, never a DUP_ID.
    twice = Catalog(jurisdictions=[Jurisdiction(""), Jurisdiction(""), Jurisdiction("C1")])
    assert codes(validate(twice).errors) == [EMPTY_ID, EMPTY_ID]


def test_empty_requirement_scope_is_an_empty_scope_warning():
    catalog = Catalog(
        jurisdictions=[Jurisdiction("C1")],
        products=[Product("P1")],
        requirements=[
            rfn("r1", applies_to_products=frozenset()),
            rfn("r2", applies_to_jurisdictions=frozenset()),
            rfn("r3", applies_to_products=frozenset(), applies_to_jurisdictions=frozenset()),
            rfn("r4", applies_to_products={"P1"}),
        ],
    )
    assert validate(catalog).ok
    warnings = find_warnings(catalog)
    assert [(issue.code, issue.ids) for issue in warnings] == [
        (EMPTY_SCOPE, ("r1",)),
        (EMPTY_SCOPE, ("r2",)),
        (EMPTY_SCOPE, ("r3",)),
    ]
    assert all(issue.severity is Severity.WARNING for issue in warnings)
    # An empty scope lands in no map.
    assert catalog.requirements_by_product["P1"] == {"r2", "r4"}
    assert catalog.requirements_by_jurisdiction["C1"] == {"r1", "r4"}


def test_rl_coverage_warning_names_uncovered_jurisdictions():
    catalog = Catalog(
        jurisdictions=[Jurisdiction("C1"), Jurisdiction("C2")],
        regulations=[Regulation("s1", jurisdictions={"C1"})],
        requirements=[
            Requirement("r1", Kind.RL, derived_from={"s1"}, applies_to_jurisdictions=ALL)
        ],
    )
    assert validate(catalog).errors == ()
    warnings = find_warnings(catalog)
    assert codes(warnings) == [RL_COVERAGE]
    assert warnings[0].ids == ("r1", "C2")
    assert warnings[0].severity is Severity.WARNING


def test_all_scoped_regulation_covers_every_jurisdiction():
    catalog = Catalog(
        jurisdictions=[Jurisdiction("C1"), Jurisdiction("C2")],
        regulations=[Regulation("g", jurisdictions=ALL)],
        requirements=[
            Requirement("r1", Kind.RL, derived_from={"g"}, applies_to_jurisdictions=ALL)
        ],
    )
    assert find_warnings(catalog) == ()


def test_duplicated_regulation_id_covers_the_union_of_its_scopes():
    catalog = Catalog(
        jurisdictions=[Jurisdiction("C1"), Jurisdiction("C2")],
        regulations=[
            Regulation("g", jurisdictions={"C1"}),
            Regulation("g", jurisdictions={"C2"}),
        ],
        requirements=[
            Requirement("r1", Kind.RL, derived_from={"g"}, applies_to_jurisdictions={"C1", "C2"})
        ],
    )
    report = validate(catalog)
    assert [(issue.code, issue.ids) for issue in report.errors] == [(DUP_ID, ("g",))]
    assert find_warnings(catalog) == ()
    assert catalog.regulations_by_jurisdiction == {"C1": {"g"}, "C2": {"g"}}


def test_a_report_is_its_errors_and_nothing_else():
    assert [f.name for f in dataclasses.fields(ValidationReport)] == ["errors"]
    assert ValidationReport().ok
    assert validate(Catalog()) == ValidationReport()
    # A warned-about catalog validates to the empty report; its warnings are
    # `find_warnings`' to find.
    warned = Catalog(
        jurisdictions=[Jurisdiction("C1"), Jurisdiction("C2")],
        regulations=[Regulation("s1", jurisdictions={"C1"})],
        requirements=[Requirement("r1", Kind.RL, derived_from={"s1"})],
    )
    assert validate(warned) == ValidationReport()
    assert codes(find_warnings(warned)) == [RL_COVERAGE]
    reports = [
        validate(Catalog()),
        validate(warned),
        validate(Catalog(products=[Product("P1"), Product("P1")])),
        validate(Catalog(products=[Product("P1"), Product("P1")])),
        validate(Catalog(products=[Product("P2"), Product("P2")])),
        ValidationReport((Issue(Severity.ERROR, DUP_ID, "duplicate product id: P2", ("P2",)),)),
    ]
    for a in reports:
        for b in reports:
            assert (a == b) is (a.errors == b.errors), (a, b)
            if a == b:
                assert hash(a) == hash(b)


def test_a_refused_catalog_is_not_kept_alive_by_its_error():
    catalog = Catalog(products=[Product("P1"), Product("P1")])
    alive = weakref.ref(catalog)
    with pytest.raises(CatalogInvalidError) as excinfo:
        build_graph(catalog)
    # The traceback's frames hold the catalog; the error itself must not.
    refused = excinfo.value.with_traceback(None)
    del catalog, excinfo
    gc.collect()
    assert alive() is None
    assert codes(refused.report.errors) == [DUP_ID]


def test_entities_hold_no_instance_dict():
    for entity in (
        Jurisdiction("C1"),
        Regulation("g"),
        Product("P1"),
        rfn("r1"),
        RefinementEdge("a", "b"),
    ):
        assert not hasattr(entity, "__dict__"), type(entity)
    assert dataclasses.replace(rfn("r1"), kind="rl").kind is Kind.RL


def test_report_ordering_is_sorted_by_code_then_ids():
    catalog = Catalog(
        requirements=[rfn("a"), rfn("b"), Requirement("c", Kind.RL), Requirement("d", Kind.RL)],
        refinements=[RefinementEdge("a", "b"), RefinementEdge("b", "a")],
    )
    report = validate(catalog)
    keys = [issue.sort_key() for issue in report.errors]
    assert keys == sorted(keys)
    assert validate(catalog) == report


def _has_back_edge(nodes: list[str], edges: list[tuple[str, str]]) -> bool:
    # Independent oracle: recursive three-colour DFS.
    adjacency: dict[str, list[str]] = {n: [] for n in nodes}
    for a, b in edges:
        adjacency[a].append(b)
    state: dict[str, int] = {}

    def visit(node: str) -> bool:
        state[node] = 1
        for child in adjacency[node]:
            if state.get(child, 0) == 1:
                return True
            if state.get(child, 0) == 0 and visit(child):
                return True
        state[node] = 2
        return False

    return any(state.get(n, 0) == 0 and visit(n) for n in nodes)


def test_cycle_error_iff_dfs_finds_back_edge():
    rng = random.Random(1701)
    for _ in range(200):
        nodes, edges = random_digraph(rng, max_nodes=7, edge_prob=rng.uniform(0.05, 0.4))
        catalog = Catalog(
            requirements=[rfn(n) for n in nodes],
            refinements=[RefinementEdge(a, b) for a, b in edges],
        )
        report = validate(catalog)
        found_cycle = CYCLE in codes(report.errors)
        assert found_cycle == _has_back_edge(nodes, edges), (nodes, edges)


def _brute_force_cycles(nodes, edges) -> list[list[str]]:
    # Independent oracle: two nodes share a component iff each reaches the other.
    reach = {}
    for start in nodes:
        seen, stack = set(), [start]
        while stack:
            node = stack.pop()
            for a, b in edges:
                if a == node and b not in seen:
                    seen.add(b)
                    stack.append(b)
        reach[start] = seen
    components = {
        frozenset([n, *(m for m in reach[n] if n in reach[m])]) for n in nodes
    }
    return sorted(sorted(c) for c in components if len(c) > 1)


def _graph_with_cycles(rng: random.Random) -> tuple[list[str], list[tuple[str, str]]]:
    """Disjoint cycles with chains running into and out of them, extra
    forward edges, and nodes on no edge at all."""
    nodes = [f"n{i:02d}" for i in range(rng.randint(2, 24))]
    order = nodes[:]
    rng.shuffle(order)
    edges = set()
    for i in range(len(order) - 1):  # forward chain edges: acyclic on their own
        if rng.random() < 0.5:
            edges.add((order[i], order[i + 1]))
        j = rng.randrange(i + 1, len(order))
        if rng.random() < 0.3:
            edges.add((order[i], order[j]))
    for _ in range(rng.randint(0, 3)):  # back edges close cycles
        i, j = sorted(rng.sample(range(len(order)), 2))
        for k in range(i, j):
            edges.add((order[k], order[k + 1]))
        edges.add((order[j], order[i]))
    return nodes, sorted(edges)


def test_cycle_components_match_brute_force_strong_components():
    rng = random.Random(4242)
    for trial in range(300):
        if trial % 2:
            nodes, edges = _graph_with_cycles(rng)
        else:
            nodes, edges = random_digraph(rng, max_nodes=9, edge_prob=rng.uniform(0.05, 0.3))
        want = _brute_force_cycles(nodes, edges)
        assert _cycle_components(_adjacency(nodes, edges)) == want, (nodes, edges)


def test_cycle_detector_walks_a_long_cycle_and_chain_without_recursion():
    nodes = [f"r{i:05d}" for i in range(20_000)]
    ring = list(zip(nodes, nodes[1:] + nodes[:1]))
    assert _cycle_components(_adjacency(nodes, ring)) == [nodes]
    assert _cycle_components(_adjacency(nodes, ring[:-1])) == []


def test_cycle_fixture_reports_the_same_cycle_issue():
    report = validate(load(DATA / "cycle.reqcat.json"))
    assert report.errors == (
        Issue(Severity.ERROR, CYCLE, "refinement cycle through: x, y", ("x", "y")),
    )
    assert find_warnings(load(DATA / "cycle.reqcat.json")) == ()


def test_catalog_collections_are_normalised_and_immutable():
    catalog = Catalog(
        products=[Product("P2"), Product("P1")],
        requirements=[rfn("b"), rfn("a")],
    )
    assert [p.id for p in catalog.products] == ["P1", "P2"]
    assert [r.id for r in catalog.requirements] == ["a", "b"]
    assert catalog == Catalog(
        products=[Product("P1"), Product("P2")],
        requirements=[rfn("a"), rfn("b")],
    )


# Independent oracle for the scope maps: one scan of every owner per entity.
def scan(owners, scope_of, universe) -> dict[str, frozenset[str]]:
    return {
        entity: frozenset(
            o.id for o in owners if scope_of(o) is ALL or entity in scope_of(o)
        )
        for entity in universe
    }


class RacingSets(dict):
    """A fresh scope map's made entry masks, where another reader makes the
    mask of the map's first miss between the map's two lookups of it."""

    def __init__(self, scope_map):
        super().__init__()
        self.scope_map = scope_map
        self.raced = False

    def __getitem__(self, key):
        if not self.raced and key not in self:
            self.raced = True
            self.scope_map[key]  # the other reader, which finds no race
            raise KeyError(key)
        return super().__getitem__(key)


def with_foreign_ids(rng: random.Random, catalog: Catalog) -> Catalog:
    """Add ids that name no catalog entity to some explicit scopes."""

    def widen(scope):
        if scope is ALL or rng.random() < 0.5:
            return scope
        return scope | {"ghost", "C99"}

    return dataclasses.replace(
        catalog,
        regulations=[
            dataclasses.replace(r, jurisdictions=widen(r.jurisdictions))
            for r in catalog.regulations
        ],
        requirements=[
            dataclasses.replace(
                r,
                applies_to_products=widen(r.applies_to_products),
                applies_to_jurisdictions=widen(r.applies_to_jurisdictions),
            )
            for r in catalog.requirements
        ],
    )


def uncovered_rl(catalog: Catalog) -> list[tuple[str, ...]]:
    """Independent oracle for the ids of the RL_COVERAGE warnings, in report
    order: each jurisdiction an RL requirement names, or each catalog
    jurisdiction for an ALL scope, that none of its cited regulations names
    (an ALL regulation names each catalog jurisdiction)."""
    jids = {j.id for j in catalog.jurisdictions}
    found = []
    for req in catalog.requirements:
        if req.kind is not Kind.RL:
            continue
        scope = jids if req.applies_to_jurisdictions is ALL else req.applies_to_jurisdictions
        uncovered = [
            jid
            for jid in sorted(scope)
            if not any(
                reg.id in req.derived_from
                and (jid in jids if reg.jurisdictions is ALL else jid in reg.jurisdictions)
                for reg in catalog.regulations
            )
        ]
        if uncovered:
            found.append((req.id, *uncovered))
    return sorted(found)


# One fault each that `validate` checks per entity; an empty requirement scope
# is a warning, not an error. Every `random_catalog` has reg01, P1 and C1.
REQUIREMENT_FAULTS = {
    "rl-cites-nothing": dict(kind=Kind.RL, derived_from=()),
    "rl-tagged": dict(kind=Kind.RL, human_factors={"locale"}),
    "rfn-cites": dict(kind=Kind.RFN, human_factors=(), derived_from={"reg01"}),
    "unknown-regulation": dict(kind=Kind.RL, human_factors=(), derived_from={"reg01", "ghost"}),
    "unknown-product": dict(applies_to_products={"P1", "ghost"}),
    "unknown-jurisdiction": dict(applies_to_jurisdictions={"ghost"}),
    "empty-requirement-scope": dict(applies_to_products=()),
}
REGULATION_FAULTS = {
    "empty-regulation-scope": dict(jurisdictions=()),
    "unknown-regulation-jurisdiction": dict(jurisdictions={"C1", "ghost"}),
}
FAULTS = [*REQUIREMENT_FAULTS, *REGULATION_FAULTS]


def with_fault(rng: random.Random, catalog: Catalog, fault: str) -> Catalog:
    """Give about a fifth of the requirements, or of the regulations, `fault`."""

    def spoil(entities, changes):
        return [dataclasses.replace(e, **changes) if rng.random() < 0.2 else e for e in entities]

    if fault in REGULATION_FAULTS:
        regulations = spoil(catalog.regulations, REGULATION_FAULTS[fault])
        return dataclasses.replace(catalog, regulations=regulations)
    requirements = spoil(catalog.requirements, REQUIREMENT_FAULTS[fault])
    return dataclasses.replace(catalog, requirements=requirements)


def reference_errors(catalog: Catalog) -> list[Issue]:
    """Independent oracle for `validate`'s errors on a catalog with non-empty
    ids and sound refinement edges: one loop per collection, every entity
    checked on its own, sorted as `validate` sorts them."""
    found = []

    def error(code, message, ids):
        found.append(Issue(Severity.ERROR, code, message, ids))

    for label, entities in (
        ("jurisdiction", catalog.jurisdictions),
        ("regulation", catalog.regulations),
        ("product", catalog.products),
        ("requirement", catalog.requirements),
    ):
        seen = set()
        for entity in entities:
            if entity.id in seen:
                error(DUP_ID, f"duplicate {label} id: {entity.id}", (entity.id,))
            seen.add(entity.id)
    found = list({issue: None for issue in found})  # one per duplicated id
    jids, pids = catalog.jurisdiction_ids, catalog.product_ids
    for reg in catalog.regulations:
        if reg.jurisdictions is ALL:
            continue
        if not reg.jurisdictions:
            error(EMPTY_SCOPE, f"regulation {reg.id} belongs to no jurisdiction", (reg.id,))
        for ref in sorted(reg.jurisdictions - jids):
            error(UNKNOWN_REF, f"{reg.id} references unknown jurisdiction: {ref}", (reg.id, ref))
    for req in catalog.requirements:
        problems = []
        if req.kind is Kind.RL and not req.derived_from:
            problems.append("RL requirement must cite at least one regulation")
        if req.kind is Kind.RL and req.human_factors:
            problems.append("RL requirement must not carry human-factor tags")
        if req.kind is Kind.RFN and req.derived_from:
            problems.append("RFN requirement must not cite regulations")
        if problems:
            error(KIND_FIELDS, f"{req.id}: " + "; ".join(problems), (req.id,))
        for what, refs, known in (
            ("regulation", req.derived_from, catalog.regulation_ids),
            ("product", req.applies_to_products, pids),
            ("jurisdiction", req.applies_to_jurisdictions, jids),
        ):
            for ref in [] if refs is ALL else sorted(refs - known):
                error(UNKNOWN_REF, f"{req.id} references unknown {what}: {ref}", (req.id, ref))
    return sorted(found, key=Issue.sort_key)


def test_validate_errors_match_a_per_entity_loop():
    rng = random.Random(1414)
    clean = 0
    faulty = Counter()
    for trial in range(360):
        catalog = random_catalog(rng)
        fault = FAULTS[trial // 2 % len(FAULTS)] if trial % 2 == 0 else None
        if trial % 5 == 1:
            catalog = with_foreign_ids(rng, catalog)
        if fault:
            catalog = with_fault(rng, catalog, fault)
        if trial % 4 == 0:
            catalog = with_duplicated_ids(rng, catalog)
        want = reference_errors(catalog)
        assert list(validate(catalog).errors) == want
        if all(issue.code == DUP_ID for issue in want):
            clean += 1
        elif trial % 5 != 1:
            faulty[fault] += 1  # this fault alone fails a field check
    assert clean >= 60
    assert all(faulty[fault] >= 5 for fault in FAULTS if fault != "empty-requirement-scope")


def every(by_entity: dict[str, frozenset[str]]) -> frozenset[str]:
    return frozenset.intersection(*by_entity.values()) if by_entity else frozenset()


def some(by_entity: dict[str, frozenset[str]]) -> frozenset[str]:
    return frozenset.union(*by_entity.values()) if by_entity else frozenset()


def test_scope_maps_match_a_per_entity_scan():
    rng = random.Random(2718)
    duplicated = uncovered = 0
    for trial in range(150):
        catalog = random_catalog(rng)
        if trial % 3 == 1:
            catalog = with_foreign_ids(rng, catalog)
        if trial % 4 == 0:
            catalog = with_duplicated_ids(rng, catalog)
        if trial % 5 == 2:
            catalog = dataclasses.replace(catalog, products=())
        if trial % 5 == 3:
            catalog = dataclasses.replace(catalog, jurisdictions=())
        pids = [p.id for p in catalog.products]
        jids = [j.id for j in catalog.jurisdictions]
        reqs = catalog.requirements
        by_product = scan(reqs, lambda r: r.applies_to_products, pids)
        by_jurisdiction = scan(reqs, lambda r: r.applies_to_jurisdictions, jids)
        by_regulation = scan(catalog.regulations, lambda r: r.jurisdictions, jids)
        by_kind = {kind: frozenset(r.id for r in reqs if r.kind is kind) for kind in Kind}
        # A fresh copy whose entries are each read by key, in a shuffled
        # order, before any map is read whole; each map's first read finds
        # its entry built by another reader since the map looked it up.
        by_key = dataclasses.replace(catalog)
        order = random.Random(trial)
        for name, want in [
            ("requirements_by_product", by_product),
            ("requirements_by_jurisdiction", by_jurisdiction),
            ("regulations_by_jurisdiction", by_regulation),
        ]:
            scope_map = getattr(by_key, name)
            scope_map._masks = RacingSets(scope_map)
            keys = list(want)
            order.shuffle(keys)
            for key in keys:
                assert scope_map[key] == want[key]
            assert scope_map._masks.raced == bool(keys)
            assert "ghost" not in scope_map
            with pytest.raises(KeyError):
                scope_map["ghost"]
            assert len(scope_map) == len(want) and list(scope_map) == list(want)
        assert catalog.requirements_by_product == by_product
        assert catalog.requirements_by_jurisdiction == by_jurisdiction
        assert catalog.regulations_by_jurisdiction == by_regulation
        assert catalog.requirements_by_kind == by_kind
        # A fresh copy, so each aggregate is computed before any map exists.
        fresh = dataclasses.replace(catalog)
        assert fresh.requirements_on_every_product == every(by_product)
        assert fresh.requirements_on_some_product == some(by_product)
        assert fresh.requirements_in_every_jurisdiction == every(by_jurisdiction)
        assert fresh.requirements_in_some_jurisdiction == some(by_jurisdiction)
        warned = [w.ids for w in find_warnings(catalog) if w.code == RL_COVERAGE]
        assert warned == uncovered_rl(catalog)
        uncovered += bool(warned)
        if len(catalog.requirement_ids) == len(reqs):
            continue
        # A duplicated id covers the union of its scopes.
        duplicated += 1
        for jid in jids if pids else ():
            assert rl_min(fresh, jid).members == (
                by_jurisdiction[jid] & by_kind[Kind.RL] & every(by_product)
            )
        for pid in pids if jids else ():
            for kind in Kind:
                assert general_part(fresh, pid, kind).members == (
                    by_product[pid] & by_kind[kind] & every(by_jurisdiction)
                )
    assert duplicated >= 30 and uncovered >= 30
