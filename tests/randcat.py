"""Seeded random generators shared by the test modules.

Everything here is driven by an explicit random.Random instance so test
corpora are reproducible run to run.
"""

from __future__ import annotations

import dataclasses
import random

from reqlattice.model import (
    ALL,
    Catalog,
    Jurisdiction,
    Kind,
    Product,
    RefinementEdge,
    Regulation,
    Requirement,
)

HF_TAGS = ["locale", "culture", "work-habits", "training"]


def node_names(count: int) -> list[str]:
    return [f"n{i:03d}" for i in range(count)]


def random_dag(
    rng: random.Random, max_nodes: int = 6, edge_prob: float | None = None
) -> tuple[list[str], list[tuple[str, str]]]:
    """A random DAG with node labels decoupled from topological position.

    Labels are shuffled over positions so that processing nodes in id order
    does not coincide with a topological order.
    """
    n = rng.randint(0, max_nodes)
    labels = node_names(n)
    rng.shuffle(labels)
    if edge_prob is None:
        edge_prob = rng.uniform(0.0, 0.6)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                edges.append((labels[i], labels[j]))
    return sorted(labels), edges


def random_digraph(
    rng: random.Random, max_nodes: int = 7, edge_prob: float = 0.25
) -> tuple[list[str], list[tuple[str, str]]]:
    """A random directed graph that may contain cycles (never self-loops)."""
    n = rng.randint(1, max_nodes)
    nodes = node_names(n)
    edges = []
    for a in nodes:
        for b in nodes:
            if a != b and rng.random() < edge_prob:
                edges.append((a, b))
    return nodes, edges


def random_subset(rng: random.Random, nodes: list[str]) -> list[str]:
    return [n for n in nodes if rng.random() < 0.5]


def refinement_catalog(nodes: list[str], edges: list[tuple[str, str]]) -> Catalog:
    """A catalog of RFN requirements `nodes` with the refinement `edges`;
    `refinement.build_graph` makes its graph."""
    return Catalog(
        requirements=[Requirement(node, Kind.RFN) for node in nodes],
        refinements=[RefinementEdge(stronger, weaker) for stronger, weaker in edges],
    )


def random_catalog(
    rng: random.Random,
    max_jurisdictions: int = 5,
    max_products: int = 5,
    max_requirements: int = 40,
) -> Catalog:
    """A random catalog that validates with zero errors (warnings allowed)."""
    jids = [f"C{i + 1}" for i in range(rng.randint(1, max_jurisdictions))]
    pids = [f"P{i + 1}" for i in range(rng.randint(1, max_products))]

    regulations = []
    for i in range(rng.randint(1, 6)):
        if rng.random() < 0.3:
            scope = ALL
        else:
            scope = frozenset(rng.sample(jids, rng.randint(1, len(jids))))
        regulations.append(
            Regulation(f"reg{i + 1:02d}", title=f"Regulation {i + 1}", jurisdictions=scope)
        )
    reg_ids = [r.id for r in regulations]

    requirements = []
    for i in range(rng.randint(0, max_requirements)):
        kind = Kind.RL if rng.random() < 0.65 else Kind.RFN
        pscope = (
            ALL
            if rng.random() < 0.25
            else frozenset(rng.sample(pids, rng.randint(1, len(pids))))
        )
        jscope = (
            ALL
            if rng.random() < 0.25
            else frozenset(rng.sample(jids, rng.randint(1, len(jids))))
        )
        if kind is Kind.RL:
            derived = frozenset(rng.sample(reg_ids, rng.randint(1, min(3, len(reg_ids)))))
            tags = frozenset()
        else:
            derived = frozenset()
            tags = frozenset(rng.sample(HF_TAGS, rng.randint(0, 2)))
        requirements.append(
            Requirement(
                f"r{i + 1:03d}",
                kind,
                title=f"Requirement {i + 1}",
                derived_from=derived,
                human_factors=tags,
                applies_to_products=pscope,
                applies_to_jurisdictions=jscope,
            )
        )

    labels = [q.id for q in requirements]
    rng.shuffle(labels)
    refinements = []
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            if rng.random() < 0.06:
                refinements.append(RefinementEdge(labels[i], labels[j]))

    return Catalog(
        jurisdictions=[Jurisdiction(j, name=f"Country {j}") for j in jids],
        regulations=regulations,
        products=[Product(p, name=f"Product {p}") for p in pids],
        requirements=requirements,
        refinements=refinements,
    )


def with_duplicated_ids(rng: random.Random, catalog: Catalog) -> Catalog:
    """Repeat some requirements under the same id with another scope: mostly
    the complement of the original, so that only the union of the two covers
    a whole axis."""
    pids = frozenset(p.id for p in catalog.products)
    jids = frozenset(j.id for j in catalog.jurisdictions)

    def other(scope, universe):
        if scope is ALL or rng.random() < 0.3:
            return frozenset(rng.sample(sorted(universe), rng.randint(0, len(universe))))
        return universe - scope

    repeats = [
        dataclasses.replace(
            r,
            applies_to_products=other(r.applies_to_products, pids),
            applies_to_jurisdictions=other(r.applies_to_jurisdictions, jids),
        )
        for r in catalog.requirements
        if rng.random() < 0.4
    ]
    return dataclasses.replace(catalog, requirements=catalog.requirements + tuple(repeats))
