from __future__ import annotations

import dataclasses
import random

import pytest

from randcat import random_catalog, random_dag, random_subset, refinement_catalog
from reqlattice.algebra import RequirementSet, jurisdiction_rl, product_union
from reqlattice.errors import CatalogInvalidError, UnknownIdError
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
from reqlattice.refinement import (
    RefinementGraph,
    build_graph,
    is_weaker,
    optimize,
    oracle_maximal,
    strongest_global,
    strongest_product,
    strongest_rl,
    witnesses,
)


def graph_of(nodes, edges) -> RefinementGraph:
    return build_graph(refinement_catalog(nodes, edges))


CHAIN = graph_of(["a", "b", "c"], [("a", "b"), ("b", "c")])
DIAMOND = graph_of(
    ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
)


def dfs_reachable(edges, start) -> set[str]:
    # Reachability oracle: plain recursive DFS over an edge list.
    out: set[str] = set()

    def go(node):
        for a, b in edges:
            if a == node and b not in out:
                out.add(b)
                go(b)

    go(start)
    return out


def weaker_than(graph, node) -> set[str]:
    return {other for other in graph.direct if is_weaker(graph, other, node)}


def test_empty_graph_has_empty_closure():
    graph = graph_of(["a", "b"], [])
    assert weaker_than(graph, "a") == set()
    assert weaker_than(graph, "b") == set()


def test_chain_closure_is_transitive():
    assert weaker_than(CHAIN, "a") == {"b", "c"}
    assert weaker_than(CHAIN, "b") == {"c"}
    assert weaker_than(CHAIN, "c") == set()


def test_random_dag_closure_matches_dfs_reachability():
    rng = random.Random(808)
    for _ in range(50):
        nodes, edges = random_dag(rng, max_nodes=8)
        graph = graph_of(nodes, edges)
        for node in nodes:
            assert weaker_than(graph, node) == dfs_reachable(edges, node), (nodes, edges)
            assert graph.descendants(node) == dfs_reachable(edges, node), (nodes, edges)


def test_build_graph_rejects_cycles_and_foreign_endpoints():
    for nodes, edges, code in (
        (["a", "b"], [("a", "b"), ("b", "a")], "CYCLE"),
        (["a"], [("a", "z")], "UNKNOWN_REF"),
        (["a"], [("a", "a")], "SELF_EDGE"),
        (["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")], "CYCLE"),
        # a 2-cycle with a chain above and below it
        (["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "b"), ("c", "d")], "CYCLE"),
    ):
        with pytest.raises(CatalogInvalidError) as excinfo:
            graph_of(nodes, edges)
        assert [issue.code for issue in excinfo.value.report.errors] == [code], edges


def test_graph_holds_direct_edges_only():
    assert [f.name for f in dataclasses.fields(RefinementGraph)] == ["direct"]
    assert DIAMOND.direct["a"] == {"b", "c"}
    assert DIAMOND.direct["d"] == frozenset()


def test_build_graph_refuses_invalid_catalog():
    catalog = Catalog(
        requirements=[Requirement("r1", Kind.RFN), Requirement("r2", Kind.RFN)],
        refinements=[RefinementEdge("r1", "r2"), RefinementEdge("r2", "r1")],
    )
    with pytest.raises(CatalogInvalidError) as excinfo:
        build_graph(catalog)
    assert [issue.code for issue in excinfo.value.report.errors] == ["CYCLE"]


def test_build_graph_covers_isolated_requirements():
    catalog = Catalog(
        requirements=[Requirement("r1", Kind.RFN), Requirement("r2", Kind.RFN)],
        refinements=[],
    )
    graph = build_graph(catalog)
    assert graph.direct.keys() == {"r1", "r2"}
    assert not is_weaker(graph, "r1", "r2")
    assert not is_weaker(graph, "r2", "r1")


def test_build_graph_reads_the_catalogs_one_edge_index():
    catalog = Catalog(
        requirements=[Requirement(r, Kind.RFN) for r in ("r1", "r2", "r3")],
        refinements=[RefinementEdge("r1", "r2"), RefinementEdge("r1", "r3")],
    )
    graph = build_graph(catalog)
    assert graph.direct is catalog.refinement_children
    assert graph.direct == {"r1": {"r2", "r3"}, "r2": frozenset(), "r3": frozenset()}


def test_is_weaker_is_irreflexive_transitive_and_checks_ids():
    assert not is_weaker(CHAIN, "a", "a")
    assert is_weaker(CHAIN, "c", "a")
    assert is_weaker(CHAIN, "b", "a")
    assert not is_weaker(CHAIN, "a", "c")
    assert not is_weaker(DIAMOND, "b", "c")
    with pytest.raises(UnknownIdError):
        is_weaker(CHAIN, "a", "zz")


def test_optimize_trivial_cases():
    assert optimize(CHAIN, []) == RequirementSet()
    assert list(optimize(CHAIN, ["a", "b", "c"])) == ["a"]
    antichain = graph_of(["a", "b"], [])
    assert list(optimize(antichain, ["a", "b"])) == ["a", "b"]


def test_optimize_diamond_subset():
    # b and c are incomparable, both dominate d.
    got = optimize(DIAMOND, ["b", "c", "d"])
    assert list(got) == ["b", "c"]
    assert got == oracle_maximal(DIAMOND, ["b", "c", "d"])


def test_optimize_skips_requirements_weaker_than_existing_members():
    # The input order of a set function cannot matter: strongest first,
    # weakest first and mixed all give the same answer.
    assert list(optimize(CHAIN, ["a", "b", "c"])) == ["a"]
    assert list(optimize(CHAIN, ["c", "b", "a"])) == ["a"]
    assert list(optimize(CHAIN, ["b", "c", "a"])) == ["a"]


def test_optimize_rejects_unknown_ids():
    with pytest.raises(UnknownIdError):
        optimize(CHAIN, ["a", "zz"])


def test_witnesses_pick_the_smallest_dominating_member():
    assert witnesses(CHAIN, ["a"]) == {"b": "a", "c": "a"}
    assert witnesses(DIAMOND, ["b", "c"]) == {"d": "b"}
    assert witnesses(DIAMOND, RequirementSet(["c"])) == {"d": "c"}
    assert witnesses(CHAIN, []) == {}
    with pytest.raises(UnknownIdError):
        witnesses(CHAIN, ["a", "zz"])


def test_oracle_trivial_cases():
    assert oracle_maximal(CHAIN, []) == RequirementSet()
    assert list(oracle_maximal(CHAIN, ["a", "b", "c"])) == ["a"]
    with pytest.raises(UnknownIdError):
        oracle_maximal(CHAIN, ["zz"])


def all_subsets(nodes):
    for mask in range(1 << len(nodes)):
        yield [n for i, n in enumerate(nodes) if mask >> i & 1]


def test_optimize_equals_oracle_on_small_dags_exhaustively():
    rng = random.Random(31337)
    for _ in range(40):
        nodes, edges = random_dag(rng, max_nodes=5)
        graph = graph_of(nodes, edges)
        for subset in all_subsets(nodes):
            assert optimize(graph, subset) == oracle_maximal(graph, subset), (edges, subset)


def test_optimize_laws_on_random_corpus():
    rng = random.Random(99)
    for _ in range(60):
        nodes, edges = random_dag(rng, max_nodes=12)
        graph = graph_of(nodes, edges)
        subset = random_subset(rng, nodes)
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


def test_optimize_membership_monotone_under_edge_removal():
    rng = random.Random(4242)
    for _ in range(40):
        nodes, edges = random_dag(rng, max_nodes=10, edge_prob=0.4)
        if not edges:
            continue
        graph = graph_of(nodes, edges)
        subset = random_subset(rng, nodes)
        before = optimize(graph, subset)
        pruned = list(edges)
        pruned.remove(rng.choice(edges))
        smaller = graph_of(nodes, pruned)
        after = optimize(smaller, subset)
        # Removing an edge can only free dominated members, never demote
        # previously maximal ones.
        assert before.members <= after.members
        assert after == oracle_maximal(smaller, subset)


STRONGEST_CATALOG = Catalog(
    jurisdictions=[Jurisdiction("C1"), Jurisdiction("C2")],
    regulations=[
        Regulation("g", jurisdictions=ALL),
        Regulation("s1", jurisdictions={"C1"}),
    ],
    products=[Product("P1"), Product("P2")],
    requirements=[
        Requirement("k1", Kind.RL, derived_from={"g"}),
        Requirement("k2", Kind.RL, derived_from={"g"}),
        Requirement(
            "k3",
            Kind.RL,
            derived_from={"s1"},
            applies_to_products={"P1"},
            applies_to_jurisdictions={"C1"},
        ),
        Requirement("k4", Kind.RL, derived_from={"g"}, applies_to_jurisdictions={"C2"}),
        Requirement("k5", Kind.RL, derived_from={"g"}, applies_to_products={"P2"}),
        Requirement("k6", Kind.RFN, applies_to_jurisdictions={"C1"}),
        Requirement("k7", Kind.RFN, applies_to_products={"P1"}),
        Requirement("k8", Kind.RL, derived_from={"g"}, applies_to_jurisdictions={"C1"}),
    ],
    refinements=[
        RefinementEdge("k1", "k2"),
        RefinementEdge("k2", "k8"),
        RefinementEdge("k3", "k8"),
        RefinementEdge("k5", "k4"),
        RefinementEdge("k6", "k7"),
    ],
)


def test_strongest_rl_cases():
    chain_catalog = Catalog(
        jurisdictions=[Jurisdiction("C1")],
        regulations=[Regulation("g", jurisdictions=ALL)],
        products=[Product("P1")],
        requirements=[
            Requirement("a", Kind.RL, derived_from={"g"}),
            Requirement("b", Kind.RL, derived_from={"g"}),
            Requirement("c", Kind.RL, derived_from={"g"}),
        ],
        refinements=[RefinementEdge("a", "b"), RefinementEdge("b", "c")],
    )
    graph = build_graph(chain_catalog)
    assert list(strongest_rl(chain_catalog, graph, "C1")) == ["a"]

    antichain_catalog = Catalog(
        jurisdictions=[Jurisdiction("C1")],
        regulations=[Regulation("g", jurisdictions=ALL)],
        products=[Product("P1")],
        requirements=[
            Requirement("a", Kind.RL, derived_from={"g"}),
            Requirement("b", Kind.RL, derived_from={"g"}),
        ],
    )
    graph = build_graph(antichain_catalog)
    assert strongest_rl(antichain_catalog, graph, "C1") == RequirementSet(["a", "b"])

    graph = build_graph(STRONGEST_CATALOG)
    base = jurisdiction_rl(STRONGEST_CATALOG, "C1")
    assert strongest_rl(STRONGEST_CATALOG, graph, "C1") == oracle_maximal(graph, base)


def test_strongest_product_cases():
    empty = Catalog(products=[Product("P1")])
    graph = build_graph(empty)
    assert strongest_product(empty, graph, "P1") == RequirementSet()

    graph = build_graph(STRONGEST_CATALOG)
    for pid in ("P1", "P2"):
        base = product_union(STRONGEST_CATALOG, pid)
        assert strongest_product(STRONGEST_CATALOG, graph, pid) == oracle_maximal(graph, base)


def test_strongest_global_cases():
    empty = Catalog()
    assert strongest_global(empty, build_graph(empty)) == RequirementSet()

    all_all_chain = Catalog(
        jurisdictions=[Jurisdiction("C1")],
        products=[Product("P1")],
        requirements=[Requirement("a", Kind.RFN), Requirement("b", Kind.RFN)],
        refinements=[RefinementEdge("a", "b")],
    )
    graph = build_graph(all_all_chain)
    assert list(strongest_global(all_all_chain, graph)) == ["a"]

    graph = build_graph(STRONGEST_CATALOG)
    base = set()
    for pid in ("P1", "P2"):
        base |= product_union(STRONGEST_CATALOG, pid).members
    assert strongest_global(STRONGEST_CATALOG, graph) == oracle_maximal(graph, base)


def test_strongest_sets_on_random_catalogs_match_oracle():
    rng = random.Random(555)
    for _ in range(15):
        catalog = random_catalog(rng, max_requirements=25)
        graph = build_graph(catalog)
        for jurisdiction in catalog.jurisdictions:
            base = jurisdiction_rl(catalog, jurisdiction.id)
            assert strongest_rl(catalog, graph, jurisdiction.id) == oracle_maximal(graph, base)
        for product in catalog.products:
            base = product_union(catalog, product.id)
            assert strongest_product(catalog, graph, product.id) == oracle_maximal(graph, base)
