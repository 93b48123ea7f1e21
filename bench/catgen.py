"""Deterministic scaled catalog generator for the benchmark.

Three shapes, each fixed in size so that catalogs from different seeds
cost the same to process; the seed only decides which ids go where.

* ``wide``: many jurisdictions and products, a shallow refinement DAG.
* ``deep``: few jurisdictions and products, half of the requirements on
  one refinement chain.
* ``edit``: a middle shape that the ``edit`` workload mutates in place.

The generator writes the catalog document as plain JSON itself and never
goes through ``reqlattice.io``, so the program under test only ever sees
the generated file.  Every requirement carries a hidden topological rank
(``Doc.rank``); refinement edges always run from a lower to a higher
rank, which keeps the edge set acyclic under any sequence of edits.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Shape:
    jurisdictions: int
    products: int
    requirements: int
    regulations: int
    edges_per_requirement: float
    chain_share: float = 0.0


SHAPES = {
    "wide": Shape(16, 16, 3000, 80, 0.5),
    "deep": Shape(4, 4, 2000, 24, 0.5, chain_share=0.5),
    "edit": Shape(10, 10, 3000, 50, 1.0),
}

# A tiny version of each shape, for the smoke test.
TINY = {
    name: Shape(
        max(2, s.jurisdictions // 4),
        max(2, s.products // 4),
        60,
        max(4, s.regulations // 8),
        s.edges_per_requirement,
        s.chain_share,
    )
    for name, s in SHAPES.items()
}

RL_SHARE = 0.7
ALL_SCOPE_SHARE = 0.2
CORE_REGULATION_SHARE = 0.1
HF_TAGS = ("locale", "culture", "work-habits", "training")


@dataclass
class Doc:
    """A catalog document as plain JSON data, plus the hidden ranks."""

    jurisdictions: list[dict]
    regulations: list[dict]
    products: list[dict]
    requirements: dict[str, dict]
    edges: set[tuple[str, str]]
    rank: dict[str, float] = field(default_factory=dict)
    next_id: int = 0

    def to_json(self) -> dict:
        return {
            "version": 1,
            "jurisdictions": self.jurisdictions,
            "regulations": self.regulations,
            "products": self.products,
            "requirements": [self.requirements[k] for k in sorted(self.requirements)],
            "refinements": [{"stronger": a, "weaker": b} for a, b in sorted(self.edges)],
        }

    def text(self) -> str:
        return json.dumps(self.to_json(), indent=2, ensure_ascii=False) + "\n"

    def new_requirement_id(self) -> str:
        self.next_id += 1
        return f"q{self.next_id:05d}"


def jurisdiction_ids(count: int) -> list[str]:
    return [f"C{i + 1:02d}" for i in range(count)]


def product_ids(count: int) -> list[str]:
    return [f"P{i + 1:02d}" for i in range(count)]


def _scope(rng: random.Random, ids: list[str], share_all: float, max_size: int):
    if rng.random() < share_all:
        return "all"
    return sorted(rng.sample(ids, rng.randint(1, max(1, max_size))))


def random_requirement(
    rng: random.Random, doc: Doc, requirement_id: str, jids: list[str], pids: list[str]
) -> dict:
    """One requirement whose references all resolve in `doc`."""
    req = {"id": requirement_id, "title": f"Requirement {requirement_id}"}
    if rng.random() < RL_SHARE:
        cited = rng.sample(doc.regulations, rng.randint(1, 3))
        covered: set[str] = set()
        for reg in cited:
            covered |= set(jids if reg["jurisdictions"] == "all" else reg["jurisdictions"])
        req["kind"] = "RL"
        req["derived_from"] = sorted(reg["id"] for reg in cited)
        req["human_factors"] = []
        if covered == set(jids) and rng.random() < 0.5:
            req["applies_to_jurisdictions"] = "all"
        else:
            pool = sorted(covered)
            req["applies_to_jurisdictions"] = sorted(rng.sample(pool, rng.randint(1, len(pool))))
    else:
        req["kind"] = "RFN"
        req["derived_from"] = []
        req["human_factors"] = sorted(rng.sample(HF_TAGS, rng.randint(0, 2)))
        req["applies_to_jurisdictions"] = _scope(rng, jids, ALL_SCOPE_SHARE, len(jids) // 2)
    req["applies_to_products"] = _scope(rng, pids, ALL_SCOPE_SHARE, len(pids) // 2)
    return req


def random_edge(rng: random.Random, doc: Doc, ids: list[str]) -> tuple[str, str] | None:
    """A new stronger -> weaker pair between two of `ids`, rank-ordered."""
    for _ in range(20):
        a, b = rng.sample(ids, 2)
        if doc.rank[a] > doc.rank[b]:
            a, b = b, a
        if (a, b) not in doc.edges:
            return a, b
    return None


def generate(shape: Shape, seed: int) -> Doc:
    rng = random.Random(seed)
    jids = jurisdiction_ids(shape.jurisdictions)
    pids = product_ids(shape.products)
    core = max(1, round(shape.regulations * CORE_REGULATION_SHARE))
    regulations = []
    for i in range(shape.regulations):
        scope = "all" if i < core else sorted(rng.sample(jids, rng.randint(1, min(3, len(jids)))))
        regulations.append({"id": f"reg{i + 1:03d}", "title": f"Regulation {i + 1}", "jurisdictions": scope})
    doc = Doc(
        jurisdictions=[{"id": j, "name": f"Country {j}"} for j in jids],
        regulations=regulations,
        products=[{"id": p, "name": f"Product {p}"} for p in pids],
        requirements={},
        edges=set(),
    )
    ids = [doc.new_requirement_id() for _ in range(shape.requirements)]
    for rid in ids:
        doc.requirements[rid] = random_requirement(rng, doc, rid, jids, pids)
    order = ids[:]
    rng.shuffle(order)
    doc.rank = {rid: float(pos) for pos, rid in enumerate(order)}

    chain = sorted(rng.sample(ids, round(shape.requirements * shape.chain_share)), key=doc.rank.get)
    doc.edges.update(zip(chain, chain[1:]))
    target = len(doc.edges) + round(shape.requirements * shape.edges_per_requirement)
    while len(doc.edges) < target:
        edge = random_edge(rng, doc, ids)
        if edge is not None:
            doc.edges.add(edge)
    return doc
