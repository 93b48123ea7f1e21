"""The three workloads: their CLI op mixes, library query mixes, the
subprocess command, and the edit stream of ``edit``.

Why each workload exists:

* ``wide`` (16 x 16): scope scans grow with jurisdictions x products, so
  the work sits in ``algebra``, ``io.build_view`` and
  ``refinement.optimize``; the refinement DAG is shallow.
* ``deep`` (4 x 4, half of the requirements on one chain): the work sits in
  ``refinement.build_graph`` (the materialised closure), ``validate``'s
  cycle check and the CLI witness search; ``algebra`` does little.
* ``edit`` (10 x 10): each op edits, saves and re-queries the catalog, so
  parse, validate, graph build and ``io.dumps`` dominate; a per-catalog
  index or cache is paid for and used only a few times.

Op and query mixes are fixed per round (an exact count of each kind) and
shuffled from the seed; the counts are picked so that the medians and the
90th percentiles fall well inside one kind's latency band on the seed
code, not on the boundary between two.  Ids are drawn from every
jurisdiction, product and regulation, so a run averages over all of them
rather than over the few a seed happens to pick.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass, field
from typing import Callable

import catgen
from catgen import Doc
from oracle import Oracle, check_dot, check_optimize

WEAKER_SOURCES = 32
WEAKER_PAIRS = 2000


@dataclass
class Context:
    """What a workload needs to build and check its operations."""

    doc: Doc
    path: str
    out: str
    pids: list[str]
    jids: list[str]
    regs: list[str]
    seed: int
    oracle: Oracle = field(init=False)
    # (all ids, sources, {source: ids below it}) for sampling is_weaker pairs.
    weaker_pool: tuple | None = None

    def __post_init__(self) -> None:
        self.refresh()

    def refresh(self) -> None:
        self.oracle = Oracle(self.doc)
        self.weaker_pool = None


def new_context(doc: Doc, path: str, out: str, seed: int) -> Context:
    return Context(
        doc,
        path,
        out,
        [p["id"] for p in doc.products],
        [j["id"] for j in doc.jurisdictions],
        [r["id"] for r in doc.regulations],
        seed,
    )


class Deck(random.Random):
    """A Random whose choice() deals every id of a list equally often: the
    list is dealt from a shuffled copy that is refilled when it runs out.
    A run then asks about every jurisdiction, product or regulation about
    as often as any other, whatever the seed."""

    def __init__(self, seed) -> None:
        self.piles: dict[int, tuple] = {}
        super().__init__(seed)

    def choice(self, items):
        # Holding `items` keeps its id from being reused by another list.
        held, pile = self.piles.get(id(items), (items, []))
        if not pile:
            pile = list(items)
            self.shuffle(pile)
            self.piles[id(items)] = (held, pile)
        return pile.pop()


KINDS = ("RL", "RFN")


# -- CLI ops --------------------------------------------------------------
#
# A CLI op kind builds argv from (rng, ctx) and checks (ctx, argv, stdout)
# against the oracle; the checker returns None or the reason it failed.


def _ids(payload: dict, want) -> str | None:
    if payload.get("ids") != sorted(want) or payload.get("count") != len(want):
        return "requirement set differs"
    return None


def _dot_file(ctx: Context, kind: str, focus, payload: dict | None) -> str | None:
    with open(ctx.out, encoding="utf-8") as handle:
        text = handle.read()
    reason = check_dot(ctx.oracle, kind, focus, text)
    if reason is None and payload is not None:
        nodes, edges = ctx.oracle.view(kind, focus)
        if payload.get("nodes") != len(nodes) or payload.get("edges") != len(edges):
            reason = "node or edge count differs"
    return reason


def check_validate(ctx: Context, payload: dict) -> str | None:
    want = [[code, ids] for code, ids in ctx.oracle.coverage_warnings()]
    if ctx.oracle.classify()["case"] == "DISJOINT":
        return "unexpected disjoint catalog"
    got = [[w["code"], w["ids"]] for w in payload.get("warnings", [])]
    if payload.get("ok") is not True or payload.get("errors") != [] or got != want:
        return "validation report differs"
    return None


@dataclass(frozen=True)
class OpKind:
    name: str
    argv: Callable[[random.Random, Context], list[str]]
    check: Callable[[Context, list[str], dict], str | None]


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


OP_KINDS = {
    op.name: op
    for op in [
        OpKind(
            "sets.projection",
            lambda r, c: ["sets", c.path, "--product", r.choice(c.pids), "--jurisdiction", r.choice(c.jids), "--json"],
            lambda c, a, p: _ids(p, c.oracle.projection(_flag(a, "--product"), _flag(a, "--jurisdiction"))),
        ),
        OpKind(
            "sets.product",
            lambda r, c: ["sets", c.path, "--product", r.choice(c.pids), "--json"],
            lambda c, a, p: _ids(p, c.oracle.product_union(_flag(a, "--product"))),
        ),
        OpKind(
            "sets.rl",
            lambda r, c: ["sets", c.path, "--jurisdiction", r.choice(c.jids), "--rl", "--json"],
            lambda c, a, p: _ids(p, c.oracle.jurisdiction_rl(_flag(a, "--jurisdiction"))),
        ),
        OpKind(
            "sets.min",
            lambda r, c: ["sets", c.path, "--jurisdiction", r.choice(c.jids), "--min", "--json"],
            lambda c, a, p: _ids(p, c.oracle.rl_min(_flag(a, "--jurisdiction"))),
        ),
        OpKind(
            "optimize.jurisdiction",
            lambda r, c: ["optimize", c.path, "--jurisdiction", r.choice(c.jids), "--json"],
            lambda c, a, p: check_optimize(c.oracle, c.oracle.jurisdiction_rl(_flag(a, "--jurisdiction")), p),
        ),
        OpKind(
            "optimize.product",
            lambda r, c: ["optimize", c.path, "--product", r.choice(c.pids), "--json"],
            lambda c, a, p: check_optimize(c.oracle, c.oracle.product_union(_flag(a, "--product")), p),
        ),
        OpKind(
            "optimize.global",
            lambda r, c: ["optimize", c.path, "--global", "--json"],
            lambda c, a, p: check_optimize(c.oracle, c.oracle.global_union(), p),
        ),
        OpKind(
            "impact",
            lambda r, c: ["impact", c.path, "--regulation", r.choice(c.regs), "--json"],
            lambda c, a, p: None if p == c.oracle.impact(_flag(a, "--regulation")) else "impact report differs",
        ),
        OpKind(
            "classify",
            lambda r, c: ["classify", c.path, "--json"],
            lambda c, a, p: None if p == c.oracle.classify() else "overlap case differs",
        ),
        OpKind(
            "export.country",
            lambda r, c: ["export", c.path, "--view", "country", "--focus", r.choice(c.jids), "--out", c.out, "--json"],
            lambda c, a, p: _dot_file(c, "country", _flag(a, "--focus"), p),
        ),
        OpKind(
            "export.product",
            lambda r, c: ["export", c.path, "--view", "product", "--focus", r.choice(c.pids), "--out", c.out, "--json"],
            lambda c, a, p: _dot_file(c, "product", _flag(a, "--focus"), p),
        ),
        OpKind(
            "validate",
            lambda r, c: ["validate", c.path, "--json"],
            lambda c, a, p: check_validate(c, p),
        ),
    ]
}


# -- library queries ------------------------------------------------------
#
# A query kind picks its parameters from (rng, ctx) and returns a pair of
# callables: `run(lib, catalog, graph)`, the timed library call, and
# `check(result)`, the comparison with the oracle.


def _same_set(want):
    return lambda got: None if set(got) == set(want) else "requirement set differs"


def _impact_check(want: dict):
    def check(report) -> str | None:
        got = {
            "regulation": report.regulation,
            "in_core": report.in_core,
            "scope": report.scope.value,
            "jurisdictions": list(report.jurisdictions),
            "affected_requirements": list(report.affected_requirements),
            "affected_products": list(report.affected_products),
        }
        return None if got == want else "impact report differs"

    return check


def _classify_check(want: dict):
    def check(case) -> str | None:
        got = {
            "case": case.case.value,
            "core_size": case.core_size,
            "per_jurisdiction_sizes": dict(case.per_jurisdiction_sizes),
            "recommendation": case.recommendation,
        }
        return None if got == want else "overlap case differs"

    return check


def _partition_check(want):
    general, specific = want

    def check(partition) -> str | None:
        ok = set(partition.general) == general and {
            j: set(s) for j, s in partition.specific.items()
        } == {j: set(s) for j, s in specific.items()}
        return None if ok else "partition differs"

    return check


def _reuse_check(want):
    minima, shared, clusters = want

    def check(report) -> str | None:
        ok = (
            {j: set(s) for j, s in report.rl_min.items()} == {j: set(s) for j, s in minima.items()}
            and set(report.shared_across_all) == shared
            and {frozenset(c.members) for c in report.clusters} == clusters
        )
        return None if ok else "reuse report differs"

    return check


def _diagnostics_check(o: Oracle):
    want = []
    if o.classify()["case"] == "DISJOINT":
        want = [p for p in o.pids if o.partition(p, "RL")[0]]

    def check(issues) -> str | None:
        return None if [i.ids[0] for i in issues] == want else "diagnostics differ"

    return check


def _view(kind: str, focus):
    def run(lib, catalog, graph):
        return lib.io.render_dot(lib.io.build_view(catalog, graph, kind, focus))

    return run


QUERY_KINDS: dict[str, Callable] = {}


def query(name: str):
    def register(fn):
        QUERY_KINDS[name] = fn
        return fn

    return register


@query("requirements_for")
def _q_projection(r, c):
    p, j = r.choice(c.pids), r.choice(c.jids)
    return lambda lib, cat, g: lib.algebra.requirements_for(cat, p, j), _same_set(c.oracle.projection(p, j))


@query("product_union")
def _q_union(r, c):
    p = r.choice(c.pids)
    return lambda lib, cat, g: lib.algebra.product_union(cat, p), _same_set(c.oracle.product_union(p))


@query("jurisdiction_rl")
def _q_rl(r, c):
    j = r.choice(c.jids)
    return lambda lib, cat, g: lib.algebra.jurisdiction_rl(cat, j), _same_set(c.oracle.jurisdiction_rl(j))


@query("rl_min")
def _q_min(r, c):
    j = r.choice(c.jids)
    return lambda lib, cat, g: lib.algebra.rl_min(cat, j), _same_set(c.oracle.rl_min(j))


@query("strongest_rl")
def _q_strongest_rl(r, c, j=None):
    j = j or r.choice(c.jids)
    want = c.oracle.strongest(c.oracle.jurisdiction_rl(j))
    return lambda lib, cat, g: lib.refinement.strongest_rl(cat, g, j), _same_set(want)


@query("strongest_product")
def _q_strongest_product(r, c):
    p = r.choice(c.pids)
    want = c.oracle.strongest(c.oracle.product_union(p))
    return lambda lib, cat, g: lib.refinement.strongest_product(cat, g, p), _same_set(want)


@query("is_weaker")
def _q_is_weaker(r, c):
    """A batch of sampled pairs: half reachable, half random."""
    if c.weaker_pool is None:
        sources = sorted({a for a, _ in c.doc.edges})
        chosen = random.Random(f"{c.seed}-sources").sample(sources, min(WEAKER_SOURCES, len(sources)))
        c.weaker_pool = (sorted(c.doc.requirements), chosen, {b: sorted(c.oracle.below(b)) for b in chosen})
    ids, chosen, below = c.weaker_pool
    pairs = []
    for i in range(WEAKER_PAIRS):
        b = r.choice(chosen)
        pairs.append((r.choice(below[b]) if i % 2 == 0 and below[b] else r.choice(ids), b))
    want = [a in c.oracle.below(b) for a, b in pairs]

    def run(lib, cat, g):
        is_weaker = lib.refinement.is_weaker
        return [is_weaker(g, a, b) for a, b in pairs]

    return run, lambda got: None if got == want else "is_weaker answers differ"


@query("strongest_global")
def _q_strongest_global(r, c):
    want = c.oracle.strongest(c.oracle.global_union())
    return lambda lib, cat, g: lib.refinement.strongest_global(cat, g), _same_set(want)


@query("change_impact")
def _q_impact(r, c, reg=None):
    reg = reg or r.choice(c.regs)
    return lambda lib, cat, g: lib.analysis.change_impact(cat, reg), _impact_check(c.oracle.impact(reg))


@query("classify_overlap")
def _q_classify(r, c):
    return lambda lib, cat, g: lib.analysis.classify_overlap(cat), _classify_check(c.oracle.classify())


@query("view.country")
def _q_view_country(r, c):
    j = r.choice(c.jids)
    return _view("country", j), lambda text: check_dot(c.oracle, "country", j, text)


@query("view.product")
def _q_view_product(r, c):
    p = r.choice(c.pids)
    return _view("product", p), lambda text: check_dot(c.oracle, "product", p, text)


@query("partition_general_specific")
def _q_partition(r, c):
    p, k = r.choice(c.pids), r.choice(KINDS)
    return (
        lambda lib, cat, g: lib.algebra.partition_general_specific(cat, p, k),
        _partition_check(c.oracle.partition(p, k)),
    )


@query("reuse_candidates")
def _q_reuse(r, c):
    return lambda lib, cat, g: lib.analysis.reuse_candidates(cat), _reuse_check(c.oracle.reuse())


@query("consistency_diagnostics")
def _q_diagnostics(r, c):
    return lambda lib, cat, g: lib.analysis.consistency_diagnostics(cat), _diagnostics_check(c.oracle)


# -- edits ----------------------------------------------------------------

EDIT_KINDS = ("move_regulation", "add_requirement", "drop_requirement", "add_edge", "drop_edge")


@dataclass(frozen=True)
class Edit:
    """One seeded change, plus the regulation and jurisdiction it touches."""

    kind: str
    data: tuple
    regulation: str
    jurisdiction: str


def _touched(rng: random.Random, doc: Doc, rid: str | None) -> tuple[str, str]:
    req = doc.requirements.get(rid) if rid else None
    if req and req["derived_from"]:
        reg = req["derived_from"][0]
    else:
        reg = rng.choice(doc.regulations)["id"]
    jids = [j["id"] for j in doc.jurisdictions]
    if req and req["applies_to_jurisdictions"] != "all":
        jid = req["applies_to_jurisdictions"][0]
    else:
        jid = rng.choice(jids)
    return reg, jid


def next_edit(rng: random.Random, doc: Doc, kind: str) -> Edit:
    """Pick one edit of `kind` on `doc` and apply it to `doc` in place."""
    jids = [j["id"] for j in doc.jurisdictions]
    pids = [p["id"] for p in doc.products]
    if kind == "move_regulation":
        movable = [r for r in doc.regulations if r["jurisdictions"] != "all" and len(r["jurisdictions"]) < len(jids)]
        reg = rng.choice(movable)
        old = rng.choice(reg["jurisdictions"])
        new = rng.choice([j for j in jids if j not in reg["jurisdictions"]])
        reg["jurisdictions"] = sorted(set(reg["jurisdictions"]) - {old} | {new})
        return Edit(kind, (reg["id"], tuple(reg["jurisdictions"])), reg["id"], new)
    if kind == "add_requirement":
        rid = doc.new_requirement_id()
        req = catgen.random_requirement(rng, doc, rid, jids, pids)
        doc.requirements[rid] = req
        doc.rank[rid] = rng.random() * len(doc.rank)
        return Edit(kind, (json.dumps(req),), *_touched(rng, doc, rid))
    if kind == "drop_requirement":
        rid = rng.choice(sorted(doc.requirements))
        reg, jid = _touched(rng, doc, rid)
        del doc.requirements[rid]
        doc.edges = {e for e in doc.edges if rid not in e}
        return Edit(kind, (rid,), reg, jid)
    if kind == "add_edge":
        edge = None
        while edge is None:
            edge = catgen.random_edge(rng, doc, sorted(doc.requirements))
        doc.edges.add(edge)
        return Edit(kind, edge, *_touched(rng, doc, edge[0]))
    if kind == "drop_edge":
        edge = rng.choice(sorted(doc.edges))
        doc.edges.discard(edge)
        return Edit(kind, edge, *_touched(rng, doc, edge[0]))
    raise ValueError(f"unknown edit kind {kind!r}")


def _requirement(model, req: dict):
    def scope(value):
        return model.ALL if value == "all" else frozenset(value)

    return model.Requirement(
        id=req["id"],
        kind=model.Kind(req["kind"]),
        title=req["title"],
        derived_from=frozenset(req["derived_from"]),
        human_factors=frozenset(req["human_factors"]),
        applies_to_products=scope(req["applies_to_products"]),
        applies_to_jurisdictions=scope(req["applies_to_jurisdictions"]),
    )


def apply_edit(model, catalog, edit: Edit):
    """The same edit, made to the program's immutable Catalog."""
    replace = dataclasses.replace
    if edit.kind == "move_regulation":
        reg_id, scope = edit.data
        regulations = tuple(
            replace(r, jurisdictions=frozenset(scope)) if r.id == reg_id else r for r in catalog.regulations
        )
        return replace(catalog, regulations=regulations)
    if edit.kind == "add_requirement":
        req = _requirement(model, json.loads(edit.data[0]))
        return replace(catalog, requirements=catalog.requirements + (req,))
    if edit.kind == "drop_requirement":
        (rid,) = edit.data
        return replace(
            catalog,
            requirements=tuple(r for r in catalog.requirements if r.id != rid),
            refinements=tuple(e for e in catalog.refinements if rid not in (e.stronger, e.weaker)),
        )
    stronger, weaker = edit.data
    if edit.kind == "add_edge":
        return replace(catalog, refinements=catalog.refinements + (model.RefinementEdge(stronger, weaker),))
    return replace(
        catalog,
        refinements=tuple(e for e in catalog.refinements if (e.stronger, e.weaker) != (stronger, weaker)),
    )


def edit_argvs(ctx: Context, edit: Edit) -> list[list[str]]:
    """The questions re-asked after an edit."""
    return [
        ["impact", ctx.path, "--regulation", edit.regulation, "--json"],
        ["classify", ctx.path, "--json"],
        ["optimize", ctx.path, "--jurisdiction", edit.jurisdiction, "--json"],
    ]


EDIT_CHECKS = {"impact": "impact", "classify": "classify", "optimize": "optimize.jurisdiction"}


def edit_queries(rng: random.Random, ctx: Context, edit: Edit) -> list[tuple[str, tuple]]:
    """The same questions as the edit op, asked through the library."""
    return [
        ("change_impact", _q_impact(rng, ctx, edit.regulation)),
        ("classify_overlap", _q_classify(rng, ctx)),
        ("strongest_rl", _q_strongest_rl(rng, ctx, edit.jurisdiction)),
        ("reuse_candidates", _q_reuse(rng, ctx)),
        ("consistency_diagnostics", _q_diagnostics(rng, ctx)),
    ]


# -- the workloads ----------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    ops: dict[str, int]
    queries: dict[str, int]
    proc: Callable[[Context], list[str]]
    proc_check: Callable[[Context, list[str], str], str | None]


def _proc_export_global(ctx: Context) -> list[str]:
    return ["export", ctx.path, "--view", "global", "--out", ctx.out]


def _check_export_global(ctx: Context, argv: list[str], stdout: str) -> str | None:
    nodes, edges = ctx.oracle.view("global", None)
    if stdout != f"nodes: {len(nodes)}\nedges: {len(edges)}\n":
        return "node or edge count differs"
    return _dot_file(ctx, "global", None, None)


WORKLOADS = {
    "wide": Workload(
        "wide",
        # op p50 in the sets --min/--rl/--product band (35-65%), p90 in the
        # export country band (80-95%).
        ops={
            "classify": 2,
            "impact": 2,
            "sets.projection": 3,
            "sets.min": 2,
            "sets.rl": 2,
            "sets.product": 2,
            "export.product": 1,
            "optimize.jurisdiction": 2,
            "export.country": 3,
            "optimize.product": 1,
        },
        # query p50 in the jurisdiction_rl / rl_min band (35-65%), p90 in
        # the strongest_product band (80-95%).
        queries={
            "classify_overlap": 2,
            "requirements_for": 6,
            "change_impact": 4,
            "partition_general_specific": 2,
            "jurisdiction_rl": 6,
            "rl_min": 6,
            "product_union": 2,
            "view.product": 2,
            "strongest_rl": 2,
            "strongest_product": 6,
            "reuse_candidates": 1,
            "view.country": 1,
        },
        proc=_proc_export_global,
        proc_check=_check_export_global,
    ),
    "deep": Workload(
        "deep",
        # op p50 in the band of commands that build the graph (15-75%), p90
        # in the optimize --product band (85-95%).
        ops={
            "validate": 3,
            "sets.projection": 2,
            "sets.product": 2,
            "sets.rl": 2,
            "sets.min": 1,
            "impact": 2,
            "classify": 1,
            "export.product": 1,
            "export.country": 1,
            "optimize.jurisdiction": 2,
            "optimize.product": 2,
            "optimize.global": 1,
        },
        # query p50 in the middle of the jurisdiction_rl band (41-59%), as
        # many queries cheaper than it as dearer; p90 in the
        # strongest_product band (84-95%).
        queries={
            "classify_overlap": 4,
            "change_impact": 4,
            "requirements_for": 4,
            "is_weaker": 4,
            "partition_general_specific": 2,
            "rl_min": 2,
            "jurisdiction_rl": 8,
            "product_union": 2,
            "view.product": 2,
            "reuse_candidates": 2,
            "view.country": 1,
            "strongest_rl": 1,
            "strongest_product": 6,
            "strongest_global": 2,
        },
        proc=lambda ctx: ["optimize", ctx.path, "--global", "--json"],
        proc_check=lambda ctx, argv, stdout: check_optimize(ctx.oracle, ctx.oracle.global_union(), json.loads(stdout)),
    ),
    "edit": Workload(
        "edit",
        # A round is one edit of each kind.  Each edit gives five ops (edit,
        # save, impact, classify, optimize): op p50 in the impact/classify
        # band (40-80%), p90 in the optimize band (80-100%).  Each edit also
        # gives five queries: p50 is change_impact (40-60%), p90 is
        # reuse_candidates (80-100%).
        ops={kind: 1 for kind in EDIT_KINDS},
        queries={kind: 1 for kind in EDIT_KINDS},
        proc=lambda ctx: ["validate", ctx.path, "--json"],
        proc_check=lambda ctx, argv, stdout: check_validate(ctx, json.loads(stdout)),
    ),
}
