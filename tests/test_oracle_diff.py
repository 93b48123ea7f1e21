"""Differential test of the CLI's answers against the benchmark's oracle.

`bench/oracle.py` computes every answer by brute-force scope scans over
the plain JSON document and shares no code with `reqlattice`. Both it and
`bench/catgen.py` are imported from `bench/`, which the pytest
configuration puts on the import path. Each catalog is a
seeded `catgen.TINY` shape or a corner derived from one: one
jurisdiction, zero products, zero jurisdictions, every scope `"all"`,
each regulation in one jurisdiction (disjoint regulation sets, which
raise coverage and implication warnings), jurisdiction and product ids
that contain `_` and `__` (among them the pairs whose joined global-view
node ids once collided), or some requirements with an explicit empty
product or jurisdiction scope (which raise `EMPTY_SCOPE`). `hypothesis`
draws more corners of the same kinds from the transforms' parameters.
Every answer goes through `cli.main --json` in process, except the
partitions and the reuse report, which have no command and are checked
through the library.
"""

from __future__ import annotations

import dataclasses
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import catgen
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracle import Oracle, check_dot, check_optimize

from reqlattice.algebra import general_part, partition_general_specific
from reqlattice.analysis import reuse_candidates
from reqlattice.cli import main
from reqlattice.errors import EmptyCatalogError
from reqlattice.io import load, loads

def _restricted(doc, jids, pids):
    """`doc` over only the given jurisdictions and products; explicit scopes
    lose every id outside them, `"all"` scopes stay, and a regulation left
    with no jurisdiction (an error) becomes `"all"`."""

    def keep(scope, ids):
        return scope if scope == "all" else [i for i in scope if i in ids]

    requirements = {
        rid: {
            **req,
            "applies_to_jurisdictions": keep(req["applies_to_jurisdictions"], jids),
            "applies_to_products": keep(req["applies_to_products"], pids),
        }
        for rid, req in doc.requirements.items()
    }
    return dataclasses.replace(
        doc,
        jurisdictions=[j for j in doc.jurisdictions if j["id"] in jids],
        regulations=[
            {**r, "jurisdictions": keep(r["jurisdictions"], jids) or "all"} for r in doc.regulations
        ],
        products=[p for p in doc.products if p["id"] in pids],
        requirements=requirements,
    )


def _all_scoped(doc):
    scopes = {"applies_to_jurisdictions": "all", "applies_to_products": "all"}
    return dataclasses.replace(
        doc,
        regulations=[{**r, "jurisdictions": "all"} for r in doc.regulations],
        requirements={rid: {**req, **scopes} for rid, req in doc.requirements.items()},
    )


def _renamed(doc, names):
    """`doc` with its jurisdiction and product ids renamed through `names`."""

    def scope(value):
        return value if value == "all" else sorted(names[i] for i in value)

    scopes = ("applies_to_jurisdictions", "applies_to_products")
    return dataclasses.replace(
        doc,
        jurisdictions=[{**j, "id": names[j["id"]]} for j in doc.jurisdictions],
        regulations=[{**r, "jurisdictions": scope(r["jurisdictions"])} for r in doc.regulations],
        products=[{**p, "id": names[p["id"]]} for p in doc.products],
        requirements={
            rid: {**req, **{key: scope(req[key]) for key in scopes}}
            for rid, req in doc.requirements.items()
        },
    )


def _with_scopes(doc, scopes):
    """`doc` with the requirement scopes that `scopes` (requirement id ->
    {scope key: "all" or an id list}) names replaced."""
    requirements = {rid: {**req, **scopes.get(rid, {})} for rid, req in doc.requirements.items()}
    return dataclasses.replace(doc, requirements=requirements)


def _catalogs():
    out = {
        f"{shape}-{seed}": catgen.generate(catgen.TINY[shape], seed)
        for shape, seeds in (("wide", (11, 12)), ("deep", (11,)), ("edit", (11,)))
        for seed in seeds
    }
    base = catgen.generate(catgen.TINY["wide"], 13)
    jids = [j["id"] for j in base.jurisdictions]
    pids = [p["id"] for p in base.products]
    out["one-jurisdiction"] = _restricted(base, jids[1:2], pids)
    out["zero-products"] = _restricted(base, jids, [])
    out["zero-jurisdictions"] = _restricted(base, [], pids)
    out["all-scopes"] = _all_scoped(base)
    out["disjoint-regulations"] = dataclasses.replace(
        base,
        regulations=[
            {**r, "jurisdictions": [jids[i % len(jids)]]} for i, r in enumerate(base.regulations)
        ],
    )
    out["underscore-ids"] = _renamed(
        base,
        {
            **dict(zip(jids, ["C2", "C1__C2", "C_3", "_"])),
            **dict(zip(pids, ["x", "x__C1", "x_", "__"])),
        },
    )
    # Every 7th requirement gets an empty product scope, every 5th an empty
    # jurisdiction scope (every 35th both).
    empty = {}
    for i, rid in enumerate(sorted(base.requirements)):
        if i % 7 == 3:
            empty.setdefault(rid, {})["applies_to_products"] = []
        if i % 5 == 1:
            empty.setdefault(rid, {})["applies_to_jurisdictions"] = []
    out["empty-scopes"] = _with_scopes(base, empty)
    return out


CATALOGS = _catalogs()
KINDS = {None: [], "RL": ["--kind", "rl"], "RFN": ["--kind", "rfn"]}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, "--json"])
    return code, out.getvalue(), err.getvalue()


def _answer(argv):
    code, out, err = _run(argv)
    assert code == 0, (argv, err)
    return json.loads(out)


def _refused(argv):
    code, out, err = _run(argv)
    assert (code, out) == (2, ""), argv
    assert err.startswith("error: "), argv


def _ids(payload):
    assert payload["count"] == len(payload["ids"])
    return payload["ids"]


def _check_warnings(doc, oracle, warnings):
    """Every warning of `validate --json` is explained: `RL_COVERAGE` is the
    oracle's coverage list, `EMPTY_SCOPE` names each requirement with an
    empty scope, and `IMPLICATION_VIOLATED` names, when the regulation sets
    are disjoint, each product with a general RL part."""
    by_code = {}
    for warning in warnings:
        by_code.setdefault(warning["code"], []).append(warning["ids"])
    assert by_code.pop("RL_COVERAGE", []) == [ids for _, ids in oracle.coverage_warnings()]
    empty = [
        [rid]
        for rid, req in sorted(doc.requirements.items())
        if [] in (req["applies_to_products"], req["applies_to_jurisdictions"])
    ]
    assert by_code.pop("EMPTY_SCOPE", []) == empty
    implied = []
    if oracle.jids and oracle.classify()["case"] == "DISJOINT":
        general = {p: oracle.partition(p, "RL")[0] for p in oracle.pids}
        implied = [[p, *sorted(general[p])] for p in oracle.pids if general[p]]
    assert by_code.pop("IMPLICATION_VIOLATED", []) == implied
    assert by_code == {}


def _check_against_oracle(doc, tmp_path):
    """Every CLI answer on `doc` (and the library's partitions and reuse
    report) equals the oracle's."""
    path = tmp_path / "catalog.reqcat.json"
    path.write_text(doc.text(), encoding="utf-8")
    cat = str(path)
    oracle = Oracle(doc)
    jids, pids = oracle.jids, oracle.pids

    report = _answer(["validate", cat])
    assert report["ok"]
    _check_warnings(doc, oracle, report["warnings"])
    for j in jids:
        for p in pids:
            for kind, flag in KINDS.items():
                got = _ids(_answer(["sets", cat, "--product", p, "--jurisdiction", j, *flag]))
                assert got == sorted(oracle.projection(p, j, kind)), (p, j, kind)
        got = _ids(_answer(["sets", cat, "--jurisdiction", j, "--rl"]))
        assert got == sorted(oracle.jurisdiction_rl(j)), j
        if pids:
            got = _ids(_answer(["sets", cat, "--jurisdiction", j, "--min"]))
            assert got == sorted(oracle.rl_min(j)), j
        else:
            _refused(["sets", cat, "--jurisdiction", j, "--min"])
    for p in pids:
        for kind, flag in KINDS.items():
            want = frozenset().union(*(oracle.projection(p, j, kind) for j in jids))
            assert _ids(_answer(["sets", cat, "--product", p, *flag])) == sorted(want), (p, kind)

    for scope, base in [
        *((["--jurisdiction", j], oracle.jurisdiction_rl(j)) for j in jids),
        *((["--product", p], oracle.product_union(p)) for p in pids),
        (["--global"], oracle.global_union()),
    ]:
        assert check_optimize(oracle, base, _answer(["optimize", cat, *scope])) is None, scope

    if jids:
        assert _answer(["classify", cat]) == oracle.classify()
        for reg in oracle.regulations:
            assert _answer(["impact", cat, "--regulation", reg]) == oracle.impact(reg), reg
    else:
        _refused(["classify", cat])

    out = str(tmp_path / "view.dot")
    views = [
        *(("country", j) for j in jids),
        *(("product", p) for p in pids),
        ("global", None),
    ]
    for view, focus in views:
        focus_flag = [] if focus is None else ["--focus", focus]
        _answer(["export", cat, "--view", view, *focus_flag, "--out", out])
        text = Path(out).read_text(encoding="utf-8")
        if view == "global" and not (jids and pids):
            # The global view of a catalog with an empty axis has no nodes.
            assert text == "digraph global {\n  rankdir=LR;\n  node [shape=box];\n}\n"
        else:
            assert check_dot(oracle, view, focus, text) is None, (view, focus)

    catalog = load(path)
    for p in pids:
        for kind in ("RL", "RFN"):
            if not jids:
                with pytest.raises(EmptyCatalogError):
                    general_part(catalog, p, kind)
                continue
            want_general, want_specific = oracle.partition(p, kind)
            part = partition_general_specific(catalog, p, kind)
            assert part.general.members == want_general == general_part(catalog, p, kind).members
            assert {j: s.members for j, s in part.specific.items()} == want_specific

    if jids and pids:
        report = reuse_candidates(catalog)
        minima, shared, clusters = oracle.reuse()
        assert {j: m.members for j, m in report.rl_min.items()} == minima
        assert report.shared_across_all.members == shared
        assert {c.members.members for c in report.clusters} == clusters
    else:
        with pytest.raises(EmptyCatalogError):
            reuse_candidates(catalog)


@pytest.mark.parametrize("name", sorted(CATALOGS))
def test_cli_answers_match_the_oracle(name, tmp_path):
    _check_against_oracle(CATALOGS[name], tmp_path)


def _scope(ids):
    """`"all"` or an explicit, possibly empty, id list over `ids`."""
    explicit = st.lists(st.sampled_from(ids), unique=True).map(sorted) if ids else st.just([])
    return st.just("all") | explicit


@st.composite
def corner_documents(draw):
    """A `catgen.TINY` document restricted to drawn jurisdictions and
    products (possibly one or none), with drawn scopes on some
    requirements, every scope `"all"`, or neither, and its jurisdiction and
    product ids possibly renamed to short strings of `_`, `x` and `C1`."""
    shape = draw(st.sampled_from(sorted(catgen.TINY)))
    doc = catgen.generate(catgen.TINY[shape], draw(st.integers(0, 99)))
    jids = draw(st.permutations([j["id"] for j in doc.jurisdictions]))
    pids = draw(st.permutations([p["id"] for p in doc.products]))
    jids = jids[: draw(st.integers(0, len(jids)))]
    pids = pids[: draw(st.integers(0, len(pids)))]
    doc = _restricted(doc, jids, pids)
    scoping = draw(st.sampled_from(["as generated", "drawn", "all"]))
    if scoping == "drawn":
        scopes = st.fixed_dictionaries(
            {"applies_to_products": _scope(pids), "applies_to_jurisdictions": _scope(jids)}
        )
        rids = st.sampled_from(sorted(doc.requirements))
        doc = _with_scopes(doc, draw(st.dictionaries(rids, scopes)))
    elif scoping == "all":
        doc = _all_scoped(doc)
    if draw(st.booleans()):
        names = st.text(alphabet="_xC1", min_size=1, max_size=4)
        new_jids = draw(st.lists(names, min_size=len(jids), max_size=len(jids), unique=True))
        new_pids = draw(st.lists(names, min_size=len(pids), max_size=len(pids), unique=True))
        doc = _renamed(doc, {**dict(zip(jids, new_jids)), **dict(zip(pids, new_pids))})
    return doc


@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=corner_documents())
def test_cli_answers_match_the_oracle_on_drawn_corners(doc, tmp_path):
    _check_against_oracle(doc, tmp_path)


@pytest.mark.parametrize("name", sorted(CATALOGS))
def test_per_axis_aggregates_match_a_scope_scan(name):
    """The four aggregates against a scan of the document; an axis with no
    entities has empty aggregates."""
    doc = CATALOGS[name]
    catalog = loads(doc.text())
    for entities, scope_key, every, some in (
        (
            [p["id"] for p in doc.products],
            "applies_to_products",
            catalog.requirements_on_every_product,
            catalog.requirements_on_some_product,
        ),
        (
            [j["id"] for j in doc.jurisdictions],
            "applies_to_jurisdictions",
            catalog.requirements_in_every_jurisdiction,
            catalog.requirements_in_some_jurisdiction,
        ),
    ):
        covering = {
            rid: set(entities) if req[scope_key] == "all" else set(req[scope_key]) & set(entities)
            for rid, req in doc.requirements.items()
        }
        if entities:
            assert every == {rid for rid, ids in covering.items() if ids == set(entities)}
        else:
            assert every == frozenset()
        assert some == {rid for rid, ids in covering.items() if ids}
