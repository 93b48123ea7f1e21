from __future__ import annotations

import dataclasses
import random
from pathlib import Path

import pytest

from randcat import random_catalog
from reqlattice.algebra import (
    global_union,
    jurisdiction_rl,
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
    reuse_candidates,
)
from reqlattice.errors import EmptyCatalogError, UnknownIdError
from reqlattice.io import load
from reqlattice.model import (
    ALL,
    IMPLICATION_VIOLATED,
    Catalog,
    Jurisdiction,
    Kind,
    Product,
    Regulation,
    Requirement,
)
from reqlattice.refinement import (
    build_graph,
    strongest_global,
    strongest_product,
    strongest_rl,
)

DATA = Path(__file__).parent / "data"

DISJOINT_CATALOG = Catalog(
    jurisdictions=[Jurisdiction("C1"), Jurisdiction("C2")],
    regulations=[
        Regulation("s1", jurisdictions={"C1"}),
        Regulation("s2", jurisdictions={"C2"}),
    ],
    products=[Product("P1")],
    requirements=[
        Requirement(
            "r1",
            Kind.RL,
            derived_from={"s1"},
            applies_to_jurisdictions={"C1"},
        ),
        Requirement(
            "r2",
            Kind.RL,
            derived_from={"s2"},
            applies_to_jurisdictions={"C2"},
        ),
    ],
)

PARTIAL_CATALOG = Catalog(
    jurisdictions=[Jurisdiction("C1"), Jurisdiction("C2")],
    regulations=[
        Regulation("g", jurisdictions=ALL),
        Regulation("s1", jurisdictions={"C1"}),
        Regulation("s2", jurisdictions={"C2"}),
    ],
    products=[Product("P1"), Product("P2")],
    requirements=[
        Requirement("r1", Kind.RL, derived_from={"g"}),
        Requirement(
            "r2",
            Kind.RL,
            derived_from={"s1"},
            applies_to_jurisdictions={"C1"},
        ),
        Requirement(
            "r3",
            Kind.RL,
            derived_from={"s2"},
            applies_to_products={"P2"},
            applies_to_jurisdictions={"C2"},
        ),
    ],
)


def test_disjoint_regulations_recommend_separate_tracing():
    case = classify_overlap(DISJOINT_CATALOG)
    assert case.case is Overlap.DISJOINT
    assert case.core_size == 0
    assert case.per_jurisdiction_sizes == {"C1": 1, "C2": 1}
    assert case.recommendation == "TRACE_SEPARATELY"


def test_identical_regulations_recommend_single_component():
    catalog = Catalog(
        jurisdictions=[Jurisdiction("C1"), Jurisdiction("C2")],
        regulations=[Regulation("a", jurisdictions=ALL), Regulation("b", jurisdictions=ALL)],
    )
    case = classify_overlap(catalog)
    assert case.case is Overlap.IDENTICAL
    assert case.core_size == 2
    assert case.per_jurisdiction_sizes == {"C1": 0, "C2": 0}
    assert case.recommendation == "SINGLE_COMPONENT"


def test_partial_overlap_recommends_component_split():
    case = classify_overlap(PARTIAL_CATALOG)
    assert case.case is Overlap.PARTIAL
    assert case.core_size == 1
    assert case.per_jurisdiction_sizes == {"C1": 1, "C2": 1}
    assert case.recommendation == "COMPONENT_SPLIT"


def test_single_jurisdiction_is_identical():
    catalog = Catalog(
        jurisdictions=[Jurisdiction("C1")],
        regulations=[Regulation("s1", jurisdictions={"C1"})],
    )
    case = classify_overlap(catalog)
    assert case.case is Overlap.IDENTICAL
    assert case.core_size == 1


def test_no_regulations_at_all_is_identical():
    catalog = Catalog(jurisdictions=[Jurisdiction("C1"), Jurisdiction("C2")])
    assert classify_overlap(catalog).case is Overlap.IDENTICAL


def test_classify_requires_a_jurisdiction():
    with pytest.raises(EmptyCatalogError):
        classify_overlap(Catalog())


def test_classification_is_a_function_of_shared_regulations():
    rng = random.Random(17)
    for _ in range(25):
        catalog = random_catalog(rng, max_requirements=10)
        case = classify_overlap(catalog)
        core, complements = shared_regulations(catalog)
        assert case.core_size == len(core)
        assert case.per_jurisdiction_sizes == {jid: len(c) for jid, c in complements.items()}
        if case.case is Overlap.IDENTICAL:
            assert all(not c for c in complements.values())
        elif case.case is Overlap.DISJOINT:
            assert not core and len(complements) >= 2
        else:
            assert core and any(c for c in complements.values())


def test_impact_of_uncited_regulation_is_empty_but_scoped():
    catalog = Catalog(
        jurisdictions=[Jurisdiction("C1"), Jurisdiction("C2")],
        regulations=[Regulation("s1", jurisdictions={"C1"})],
        products=[Product("P1")],
    )
    report = change_impact(catalog, "s1")
    assert not report.affected_requirements
    assert report.affected_products == ()
    assert report.scope is ImpactScope.COUNTRY_SPECIFIC
    assert report.jurisdictions == ("C1",)


def test_impact_of_core_regulation_is_global():
    report = change_impact(PARTIAL_CATALOG, "g")
    assert report.in_core
    assert report.scope is ImpactScope.GLOBAL
    assert report.jurisdictions == ()
    assert list(report.affected_requirements) == ["r1"]
    assert report.affected_products == ("P1", "P2")


def test_impact_of_complement_regulation_stays_country_specific():
    report = change_impact(PARTIAL_CATALOG, "s2")
    assert not report.in_core
    assert report.scope is ImpactScope.COUNTRY_SPECIFIC
    assert report.jurisdictions == ("C2",)
    assert list(report.affected_requirements) == ["r3"]
    assert report.affected_products == ("P2",)
    # Brute-force confinement check: every affected requirement scoped only
    # to C2 must land in the C2-specific partition of each of its products.
    by_id = {req.id: req for req in PARTIAL_CATALOG.requirements}
    for rid in report.affected_requirements:
        req = by_id[rid]
        assert req.applies_to_jurisdictions == frozenset({"C2"})
        for pid in report.affected_products:
            part = partition_general_specific(PARTIAL_CATALOG, pid, Kind.RL)
            assert rid in part.specific["C2"]
            assert rid not in part.general


def test_impact_reports_the_products_of_the_citing_requirements():
    # Two requirements share the id X (a catalog `validate` refuses): the
    # one on P2 cites g, the one on P1 cites s1.  A change to s1 reaches
    # only the X that cites it, whichever X comes first.
    catalog = dataclasses.replace(
        PARTIAL_CATALOG,
        requirements=[
            Requirement("X", Kind.RL, derived_from={"g"}, applies_to_products={"P2"}),
            Requirement("X", Kind.RL, derived_from={"s1"}, applies_to_products={"P1"}),
        ],
    )
    assert change_impact(catalog, "s1").affected_products == ("P1",)
    assert change_impact(catalog, "g").affected_products == ("P2",)
    assert list(change_impact(catalog, "s1").affected_requirements) == ["X"]
    # A product id the catalog lacks (`validate` refuses it too) is no product.
    unknown = dataclasses.replace(
        PARTIAL_CATALOG,
        requirements=[
            Requirement("Y", Kind.RL, derived_from={"s1"}, applies_to_products={"P1", "P9"})
        ],
    )
    assert change_impact(unknown, "s1").affected_products == ("P1",)


def test_impact_of_unknown_regulation():
    with pytest.raises(UnknownIdError):
        change_impact(PARTIAL_CATALOG, "nope")


def test_impact_scope_matches_core_membership_on_random_catalogs():
    rng = random.Random(23)
    for _ in range(20):
        catalog = random_catalog(rng, max_requirements=15)
        core, _ = shared_regulations(catalog)
        for regulation in catalog.regulations:
            report = change_impact(catalog, regulation.id)
            assert report.in_core == (regulation.id in core)
            assert (report.scope is ImpactScope.GLOBAL) == report.in_core


def test_reuse_single_product_minimum_is_the_full_projection():
    catalog = Catalog(
        jurisdictions=[Jurisdiction("C1")],
        regulations=[Regulation("g", jurisdictions=ALL)],
        products=[Product("P1")],
        requirements=[
            Requirement("r1", Kind.RL, derived_from={"g"}),
            Requirement("r2", Kind.RL, derived_from={"g"}, applies_to_products={"P1"}),
        ],
    )
    report = reuse_candidates(catalog)
    assert report.rl_min["C1"] == requirements_for(catalog, "P1", "C1", Kind.RL)


def test_reuse_all_all_requirement_is_shared_everywhere():
    catalog = Catalog(
        jurisdictions=[Jurisdiction("C1"), Jurisdiction("C2")],
        regulations=[Regulation("g", jurisdictions=ALL)],
        products=[Product("P1"), Product("P2")],
        requirements=[Requirement("r1", Kind.RL, derived_from={"g"})],
    )
    report = reuse_candidates(catalog)
    assert list(report.shared_across_all) == ["r1"]
    assert len(report.clusters) == 1
    assert report.clusters[0].applies_to_products is ALL
    assert list(report.clusters[0].members) == ["r1"]
    # An "all" scope sorts before any explicit one, even one that names
    # every product and holds a smaller id.
    explicit = Requirement("r0", Kind.RL, derived_from={"g"}, applies_to_products={"P1", "P2"})
    report = reuse_candidates(
        dataclasses.replace(catalog, requirements=[*catalog.requirements, explicit])
    )
    assert [list(cluster.members) for cluster in report.clusters] == [["r1"], ["r0"]]
    # A duplicated id (`validate` refuses it) has the union of its rows'
    # scopes, as in `rl_min`: here every product, and ALL jurisdictions.
    rows = [
        Requirement(
            "r1", Kind.RL, derived_from={"g"}, applies_to_products=products,
            applies_to_jurisdictions=jurisdictions,
        )
        for products, jurisdictions in [({"P1"}, {"C1"}), ({"P2"}, ALL), ({"P1"}, {"C2"})]
    ]
    report = reuse_candidates(dataclasses.replace(catalog, requirements=rows))
    assert list(report.shared_across_all) == ["r1"]
    assert [
        (cluster.applies_to_products, cluster.applies_to_jurisdictions, list(cluster.members))
        for cluster in report.clusters
    ] == [(frozenset({"P1", "P2"}), ALL, ["r1"])]


def test_reuse_shared_set_equals_double_intersection():
    rng = random.Random(4711)
    for _ in range(20):
        catalog = random_catalog(rng, max_requirements=25)
        report = reuse_candidates(catalog)
        brute = None
        for product in catalog.products:
            for jurisdiction in catalog.jurisdictions:
                projection = set(
                    requirements_for(catalog, product.id, jurisdiction.id, Kind.RL).members
                )
                brute = projection if brute is None else brute & projection
        assert set(report.shared_across_all.members) == brute
        for jid, minimum in report.rl_min.items():
            assert report.shared_across_all.issubset(minimum)
        # Clusters partition the union of the per-jurisdiction minima.
        pool = set()
        for minimum in report.rl_min.values():
            pool |= minimum.members
        clustered = [rid for cluster in report.clusters for rid in cluster.members]
        assert sorted(clustered) == sorted(pool)


def test_reuse_requires_products_and_jurisdictions():
    with pytest.raises(EmptyCatalogError):
        reuse_candidates(Catalog(jurisdictions=[Jurisdiction("C1")]))
    with pytest.raises(EmptyCatalogError):
        reuse_candidates(Catalog(products=[Product("P1")]))


def test_single_jurisdiction_scoped_catalog_has_no_diagnostics():
    assert consistency_diagnostics(DISJOINT_CATALOG) == []


def test_cross_cited_requirement_triggers_implication_violated():
    # s1 and s2 are disjoint across C1/C2, but rX cites one regulation per
    # jurisdiction and applies everywhere, so its projection is identical
    # in both jurisdictions and the general part is {rX}.
    catalog = Catalog(
        jurisdictions=[Jurisdiction("C1"), Jurisdiction("C2")],
        regulations=[
            Regulation("s1", jurisdictions={"C1"}),
            Regulation("s2", jurisdictions={"C2"}),
        ],
        products=[Product("P1")],
        requirements=[Requirement("rX", Kind.RL, derived_from={"s1", "s2"})],
    )
    assert classify_overlap(catalog).case is Overlap.DISJOINT
    assert list(partition_general_specific(catalog, "P1", Kind.RL).general) == ["rX"]

    issues = consistency_diagnostics(catalog)
    assert [issue.code for issue in issues] == [IMPLICATION_VIOLATED]
    assert issues[0].ids == ("P1", "rX")


def test_identical_case_never_warns():
    catalog = Catalog(
        jurisdictions=[Jurisdiction("C1"), Jurisdiction("C2")],
        regulations=[Regulation("g", jurisdictions=ALL)],
        products=[Product("P1")],
        requirements=[Requirement("r1", Kind.RL, derived_from={"g"})],
    )
    assert consistency_diagnostics(catalog) == []


BY_PRODUCT, BY_JURISDICTION = "requirements_by_product", "requirements_by_jurisdiction"
BOTH_MAPS = {BY_PRODUCT, BY_JURISDICTION}
SCOPE_MAPS = (BY_PRODUCT, BY_JURISDICTION, "regulations_by_jurisdiction")


def built_entries(catalog: Catalog) -> dict[str, set[str]]:
    """For each scope map the catalog has made, the ids whose entry mask it has made."""
    return {name: set(vars(catalog)[name]._masks) for name in SCOPE_MAPS if name in vars(catalog)}


@pytest.mark.parametrize(
    "call, unbuilt, entries",
    [
        pytest.param(
            lambda c, g: jurisdiction_rl(c, "C1"),
            {BY_PRODUCT},
            {BY_JURISDICTION: {"C1"}},
            id="jurisdiction_rl",
        ),
        pytest.param(
            lambda c, g: rl_min(c, "C1"), {BY_PRODUCT}, {BY_JURISDICTION: {"C1"}}, id="rl_min"
        ),
        pytest.param(
            lambda c, g: strongest_rl(c, g, "C1"),
            {BY_PRODUCT},
            {BY_JURISDICTION: {"C1"}},
            id="strongest_rl",
        ),
        pytest.param(
            lambda c, g: product_union(c, "P1"),
            {BY_JURISDICTION},
            {BY_PRODUCT: {"P1"}},
            id="product_union",
        ),
        pytest.param(
            lambda c, g: strongest_product(c, g, "P1"),
            {BY_JURISDICTION},
            {BY_PRODUCT: {"P1"}},
            id="strongest_product",
        ),
        pytest.param(
            lambda c, g: requirements_for(c, "P2", "C2"),
            set(),
            {BY_PRODUCT: {"P2"}, BY_JURISDICTION: {"C2"}},
            id="requirements_for",
        ),
        pytest.param(lambda c, g: global_union(c), BOTH_MAPS, {}, id="global_union"),
        pytest.param(lambda c, g: strongest_global(c, g), BOTH_MAPS, {}, id="strongest_global"),
        # `build_graph` reads no warnings, so no requirement scope is resolved.
        pytest.param(
            lambda c, g: change_impact(c, "s1"),
            BOTH_MAPS | {"_product_scopes", "_jurisdiction_scopes"},
            {"regulations_by_jurisdiction": {"C1", "C2"}},
            id="change_impact",
        ),
    ],
)
def test_first_question_on_a_fresh_catalog_builds_only_what_it_reads(call, unbuilt, entries):
    # A `cached_property` stores its value in the instance's __dict__.
    catalog = load(DATA / "partial.reqcat.json")
    graph = build_graph(catalog)
    call(catalog, graph)
    assert unbuilt.isdisjoint(vars(catalog))
    assert built_entries(catalog) == entries
