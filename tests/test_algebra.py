from __future__ import annotations

import dataclasses
import random

import pytest

from randcat import random_catalog, with_duplicated_ids
from reqlattice.algebra import (
    RequirementSet,
    general_part,
    global_union,
    jurisdiction_regulations,
    jurisdiction_rl,
    partition_general_specific,
    product_union,
    requirements_for,
    rl_min,
    shared_regulations,
)
from reqlattice.errors import EmptyCatalogError, UnknownIdError
from reqlattice.model import (
    ALL,
    Catalog,
    Jurisdiction,
    Kind,
    Product,
    Regulation,
    Requirement,
)


def ids(requirement_set: RequirementSet) -> list[str]:
    return list(requirement_set)


# Independent oracle: re-derives a projection with explicit loops and its
# own inline scope logic, sharing nothing with the algebra module.
def brute_projection(catalog: Catalog, pid: str, jid: str, kind=None) -> set[str]:
    out = set()
    for req in catalog.requirements:
        if kind is not None and req.kind != kind:
            continue
        in_products = req.applies_to_products is ALL or pid in req.applies_to_products
        in_jurisdictions = (
            req.applies_to_jurisdictions is ALL or jid in req.applies_to_jurisdictions
        )
        if in_products and in_jurisdictions:
            out.add(req.id)
    return out


MIXED = Catalog(
    jurisdictions=[Jurisdiction("C1"), Jurisdiction("C2")],
    regulations=[Regulation("g", jurisdictions=ALL), Regulation("s1", jurisdictions={"C1"})],
    products=[Product("P1"), Product("P2")],
    requirements=[
        Requirement("r1", Kind.RL, derived_from={"g"}),
        Requirement(
            "r2",
            Kind.RL,
            derived_from={"s1"},
            applies_to_products={"P1"},
            applies_to_jurisdictions={"C1"},
        ),
        Requirement(
            "r3", Kind.RFN, human_factors={"locale"}, applies_to_products={"P2"}
        ),
        Requirement(
            "r4",
            Kind.RL,
            derived_from={"g"},
            applies_to_products={"P1", "P2"},
            applies_to_jurisdictions={"C2"},
        ),
    ],
)


def test_projection_on_empty_catalog_is_empty():
    catalog = Catalog(jurisdictions=[Jurisdiction("C1")], products=[Product("P1")])
    assert ids(requirements_for(catalog, "P1", "C1")) == []


def test_all_scoped_requirement_appears_for_every_pair():
    catalog = Catalog(
        jurisdictions=[Jurisdiction("C1"), Jurisdiction("C2")],
        products=[Product("P1"), Product("P2")],
        requirements=[Requirement("r", Kind.RFN)],
    )
    for product in catalog.products:
        for jurisdiction in catalog.jurisdictions:
            assert ids(requirements_for(catalog, product.id, jurisdiction.id)) == ["r"]


def test_mixed_catalog_projection_matches_hand_enumeration():
    # Hand-enumerated: r1 is ALL/ALL, r2 is P1@C1 only, r3 is RFN on P2
    # everywhere, r4 is P1+P2 at C2 only.
    assert ids(requirements_for(MIXED, "P1", "C1")) == ["r1", "r2"]
    assert ids(requirements_for(MIXED, "P2", "C1")) == ["r1", "r3"]
    assert ids(requirements_for(MIXED, "P1", "C2")) == ["r1", "r4"]
    assert ids(requirements_for(MIXED, "P2", "C2")) == ["r1", "r3", "r4"]
    assert ids(requirements_for(MIXED, "P2", "C2", Kind.RL)) == ["r1", "r4"]
    assert ids(requirements_for(MIXED, "P2", "C2", Kind.RFN)) == ["r3"]
    assert ids(requirements_for(MIXED, "P2", "C2", "rl")) == ["r1", "r4"]
    for pid in ("P1", "P2"):
        for jid in ("C1", "C2"):
            for kind in (None, Kind.RL, Kind.RFN):
                got = set(requirements_for(MIXED, pid, jid, kind).members)
                assert got == brute_projection(MIXED, pid, jid, kind)


def test_replaced_catalog_expands_all_scopes_against_its_own_entities():
    catalog = MIXED
    assert ids(product_union(catalog, "P1")) == ["r1", "r2", "r4"]
    wider = dataclasses.replace(
        catalog, jurisdictions=catalog.jurisdictions + (Jurisdiction("C3"),)
    )
    assert ids(requirements_for(wider, "P1", "C3")) == ["r1"]
    assert ids(requirements_for(wider, "P2", "C3")) == ["r1", "r3"]
    assert jurisdiction_regulations(wider, "C3") == {"g"}
    assert set(wider.requirements_by_jurisdiction) == {"C1", "C2", "C3"}
    # The original keeps its own maps.
    assert set(catalog.requirements_by_jurisdiction) == {"C1", "C2"}
    with pytest.raises(UnknownIdError):
        requirements_for(catalog, "P1", "C3")


def test_projection_unknown_ids():
    with pytest.raises(UnknownIdError):
        requirements_for(MIXED, "P9", "C1")
    with pytest.raises(UnknownIdError):
        requirements_for(MIXED, "P1", "C9")


def test_product_union_single_jurisdiction_equals_projection():
    catalog = Catalog(
        jurisdictions=[Jurisdiction("C1")],
        products=[Product("P1")],
        requirements=[Requirement("r", Kind.RFN)],
    )
    assert product_union(catalog, "P1") == requirements_for(catalog, "P1", "C1")


def test_product_union_disjoint_and_overlapping():
    catalog = Catalog(
        jurisdictions=[Jurisdiction("C1"), Jurisdiction("C2")],
        products=[Product("P1")],
        requirements=[
            Requirement("a", Kind.RFN, applies_to_jurisdictions={"C1"}),
            Requirement("b", Kind.RFN, applies_to_jurisdictions={"C2"}),
        ],
    )
    assert ids(product_union(catalog, "P1")) == ["a", "b"]

    overlapping = Catalog(
        jurisdictions=[Jurisdiction("C1"), Jurisdiction("C2")],
        products=[Product("P1")],
        requirements=[
            Requirement("a", Kind.RFN, applies_to_jurisdictions={"C1"}),
            Requirement("b", Kind.RFN, applies_to_jurisdictions={"C1", "C2"}),
            Requirement("c", Kind.RFN, applies_to_jurisdictions={"C2"}),
        ],
    )
    assert ids(product_union(overlapping, "P1")) == ["a", "b", "c"]


def test_jurisdiction_rl_trivial_cases():
    no_products = Catalog(jurisdictions=[Jurisdiction("C1")])
    assert ids(jurisdiction_rl(no_products, "C1")) == []

    one_product = Catalog(
        jurisdictions=[Jurisdiction("C1")],
        regulations=[Regulation("g", jurisdictions=ALL)],
        products=[Product("P1")],
        requirements=[Requirement("r", Kind.RL, derived_from={"g"})],
    )
    assert jurisdiction_rl(one_product, "C1") == requirements_for(
        one_product, "P1", "C1", Kind.RL
    )


def test_jurisdiction_rl_three_products_matches_brute_force():
    catalog = Catalog(
        jurisdictions=[Jurisdiction("C1"), Jurisdiction("C2")],
        regulations=[Regulation("g", jurisdictions=ALL)],
        products=[Product("P1"), Product("P2"), Product("P3")],
        requirements=[
            Requirement("a", Kind.RL, derived_from={"g"}, applies_to_products={"P1"}),
            Requirement(
                "b",
                Kind.RL,
                derived_from={"g"},
                applies_to_products={"P2", "P3"},
                applies_to_jurisdictions={"C1"},
            ),
            Requirement("c", Kind.RFN),
            Requirement(
                "d", Kind.RL, derived_from={"g"}, applies_to_jurisdictions={"C2"}
            ),
        ],
    )
    # Hand-enumerated over (requirement, product) applicability.
    assert ids(jurisdiction_rl(catalog, "C1")) == ["a", "b"]
    assert ids(jurisdiction_rl(catalog, "C2")) == ["a", "d"]
    for jid in ("C1", "C2"):
        brute = set()
        for product in catalog.products:
            brute |= brute_projection(catalog, product.id, jid, Kind.RL)
        assert set(jurisdiction_rl(catalog, jid).members) == brute


def test_shared_regulations_definition_cases():
    catalog = Catalog(
        jurisdictions=[Jurisdiction("C1"), Jurisdiction("C2")],
        regulations=[
            Regulation("g", jurisdictions={"C1", "C2"}),
            Regulation("s1", jurisdictions={"C1"}),
            Regulation("s2", jurisdictions={"C2"}),
        ],
    )
    core, complements = shared_regulations(catalog)
    assert core == {"g"}
    assert complements == {"C1": {"s1"}, "C2": {"s2"}}

    all_shared = Catalog(
        jurisdictions=[Jurisdiction("C1"), Jurisdiction("C2")],
        regulations=[Regulation("a", jurisdictions=ALL), Regulation("b", jurisdictions=ALL)],
    )
    core, complements = shared_regulations(all_shared)
    assert core == {"a", "b"}
    assert complements == {"C1": frozenset(), "C2": frozenset()}


def test_shared_regulations_pairwise_overlap_without_common_core():
    catalog = Catalog(
        jurisdictions=[Jurisdiction("C1"), Jurisdiction("C2"), Jurisdiction("C3")],
        regulations=[
            Regulation("r12", jurisdictions={"C1", "C2"}),
            Regulation("r13", jurisdictions={"C1", "C3"}),
            Regulation("r23", jurisdictions={"C2", "C3"}),
        ],
    )
    core, complements = shared_regulations(catalog)
    # Each regulation fails membership in exactly one of the three sets.
    assert core == frozenset()
    assert complements == {
        "C1": {"r12", "r13"},
        "C2": {"r12", "r23"},
        "C3": {"r13", "r23"},
    }


def test_shared_regulations_requires_a_jurisdiction():
    with pytest.raises(EmptyCatalogError):
        shared_regulations(Catalog())


def test_rl_min_trivial_cases():
    one_product = Catalog(
        jurisdictions=[Jurisdiction("C1")],
        regulations=[Regulation("g", jurisdictions=ALL)],
        products=[Product("P1")],
        requirements=[Requirement("r", Kind.RL, derived_from={"g"})],
    )
    assert rl_min(one_product, "C1") == requirements_for(one_product, "P1", "C1", Kind.RL)

    two_products = Catalog(
        jurisdictions=[Jurisdiction("C1")],
        regulations=[Regulation("g", jurisdictions=ALL)],
        products=[Product("P1"), Product("P2")],
        requirements=[
            Requirement("everywhere", Kind.RL, derived_from={"g"}),
            Requirement(
                "only_p1", Kind.RL, derived_from={"g"}, applies_to_products={"P1"}
            ),
        ],
    )
    assert ids(rl_min(two_products, "C1")) == ["everywhere"]


def test_rl_min_membership_table():
    catalog = Catalog(
        jurisdictions=[Jurisdiction("C1"), Jurisdiction("C2")],
        regulations=[Regulation("g", jurisdictions=ALL)],
        products=[Product("P1"), Product("P2"), Product("P3")],
        requirements=[
            Requirement("q1", Kind.RL, derived_from={"g"}),
            Requirement(
                "q2",
                Kind.RL,
                derived_from={"g"},
                applies_to_products={"P1", "P2", "P3"},
                applies_to_jurisdictions={"C1"},
            ),
            Requirement(
                "q3", Kind.RL, derived_from={"g"}, applies_to_products={"P1", "P2"}
            ),
            Requirement(
                "q4",
                Kind.RL,
                derived_from={"g"},
                applies_to_products={"P1"},
                applies_to_jurisdictions={"C1"},
            ),
            Requirement("q5", Kind.RFN),
            Requirement(
                "q6", Kind.RL, derived_from={"g"}, applies_to_jurisdictions={"C2"}
            ),
        ],
    )
    # Membership table over products x requirements, intersected by hand:
    #   C1: q1 (all), q2 (all), q3 (P1,P2 only), q4 (P1 only), q5 (RFN), q6 (C2)
    #   C2: q1, q3 (P1,P2 only), q6
    assert ids(rl_min(catalog, "C1")) == ["q1", "q2"]
    assert ids(rl_min(catalog, "C2")) == ["q1", "q6"]
    for jid in ("C1", "C2"):
        brute = None
        for product in catalog.products:
            projection = brute_projection(catalog, product.id, jid, Kind.RL)
            brute = projection if brute is None else brute & projection
        assert set(rl_min(catalog, jid).members) == brute


def test_rl_min_requires_a_product():
    with pytest.raises(EmptyCatalogError):
        rl_min(Catalog(jurisdictions=[Jurisdiction("C1")]), "C1")


PARTITION_CATALOG = Catalog(
    jurisdictions=[Jurisdiction("C1"), Jurisdiction("C2"), Jurisdiction("C3")],
    regulations=[
        Regulation("g", jurisdictions=ALL),
        Regulation("s1", jurisdictions={"C1"}),
        Regulation("s2", jurisdictions={"C2"}),
    ],
    products=[Product("P1"), Product("P2")],
    requirements=[
        Requirement("m1", Kind.RL, derived_from={"g"}),
        Requirement(
            "m2",
            Kind.RL,
            derived_from={"s1"},
            applies_to_products={"P1"},
            applies_to_jurisdictions={"C1"},
        ),
        Requirement(
            "m3",
            Kind.RL,
            derived_from={"g"},
            applies_to_jurisdictions={"C1", "C2", "C3"},
        ),
        Requirement(
            "m4",
            Kind.RL,
            derived_from={"s2"},
            applies_to_products={"P1", "P2"},
            applies_to_jurisdictions={"C2"},
        ),
        Requirement("m5", Kind.RFN, human_factors={"locale"}, applies_to_products={"P2"}),
        Requirement(
            "m6",
            Kind.RFN,
            applies_to_products={"P2"},
            applies_to_jurisdictions={"C3"},
        ),
    ],
)


def brute_partition(catalog: Catalog, pid: str, kind) -> tuple[set[str], dict[str, set[str]]]:
    projections = {
        j.id: brute_projection(catalog, pid, j.id, kind) for j in catalog.jurisdictions
    }
    general = set.intersection(*projections.values())
    return general, {jid: proj - general for jid, proj in projections.items()}


def test_partition_trivial_cases():
    all_general = Catalog(
        jurisdictions=[Jurisdiction("C1"), Jurisdiction("C2")],
        products=[Product("P1")],
        requirements=[Requirement("r", Kind.RFN)],
    )
    part = partition_general_specific(all_general, "P1", Kind.RFN)
    assert ids(part.general) == ["r"]
    assert all(not specific for specific in part.specific.values())

    single_country = Catalog(
        jurisdictions=[Jurisdiction("C1"), Jurisdiction("C2")],
        products=[Product("P1")],
        requirements=[Requirement("r", Kind.RFN, applies_to_jurisdictions={"C1"})],
    )
    part = partition_general_specific(single_country, "P1", Kind.RFN)
    assert ids(part.general) == []
    assert ids(part.specific["C1"]) == ["r"]
    assert ids(part.specific["C2"]) == []


def test_partition_matches_brute_force_decomposition():
    # Frozen expectations from the brute-force decomposition below.
    part = partition_general_specific(PARTITION_CATALOG, "P1", Kind.RL)
    assert ids(part.general) == ["m1", "m3"]
    assert ids(part.specific["C1"]) == ["m2"]
    assert ids(part.specific["C2"]) == ["m4"]
    assert ids(part.specific["C3"]) == []

    part = partition_general_specific(PARTITION_CATALOG, "P2", Kind.RFN)
    assert ids(part.general) == ["m5"]
    assert ids(part.specific["C3"]) == ["m6"]

    for pid in ("P1", "P2"):
        for kind in (Kind.RL, Kind.RFN):
            got = partition_general_specific(PARTITION_CATALOG, pid, kind)
            general, specific = brute_partition(PARTITION_CATALOG, pid, kind)
            assert set(got.general.members) == general
            assert {jid: set(s.members) for jid, s in got.specific.items()} == specific


def test_partition_requires_a_jurisdiction():
    with pytest.raises(EmptyCatalogError):
        partition_general_specific(Catalog(products=[Product("P1")]), "P1", Kind.RL)


def test_requirement_set_behaviour():
    s = RequirementSet(["b", "a", "b"])
    assert list(s) == ["a", "b"]
    assert len(s) == 2
    assert "a" in s and "z" not in s
    assert s.ids == ("a", "b")
    t = RequirementSet(["b", "c"])
    assert list(s | t) == ["a", "b", "c"]
    assert list(s & t) == ["b"]
    assert list(s - t) == ["a"]
    assert RequirementSet(["a"]).issubset(s)
    assert not RequirementSet()


def _join(a, b):
    return ALL if a is ALL or b is ALL else a | b


def merged(catalog: Catalog) -> Catalog:
    """The catalog with the rows of each repeated id folded into one, whose
    scopes are the union of theirs: a repeated id covers that union."""
    rows: dict[str, Requirement] = {}
    for r in catalog.requirements:
        first = rows.setdefault(r.id, r)
        rows[r.id] = dataclasses.replace(
            first,
            applies_to_products=_join(first.applies_to_products, r.applies_to_products),
            applies_to_jurisdictions=_join(
                first.applies_to_jurisdictions, r.applies_to_jurisdictions
            ),
        )
    return dataclasses.replace(catalog, requirements=list(rows.values()))


def constructed_sets(catalog: Catalog) -> list[tuple[RequirementSet, set[str]]]:
    """Sets the constructs return, each with its ids by brute force."""
    jids = [j.id for j in catalog.jurisdictions]
    pids = [p.id for p in catalog.products]
    one_row = merged(catalog)
    sets, everything = [], set()
    for pid in pids:
        union = set().union(*(brute_projection(one_row, pid, jid) for jid in jids))
        everything |= union
        sets.append((product_union(catalog, pid), union))
        every = set.intersection(*(brute_projection(one_row, pid, jid, Kind.RL) for jid in jids))
        sets.append((general_part(catalog, pid, Kind.RL), every))
        for jid in jids:
            sets.append((requirements_for(catalog, pid, jid), brute_projection(one_row, pid, jid)))
    for jid in jids:
        rl = [brute_projection(one_row, pid, jid, Kind.RL) for pid in pids]
        sets.append((jurisdiction_rl(catalog, jid), set().union(*rl)))
        sets.append((rl_min(catalog, jid), set.intersection(*rl)))
    return [(global_union(catalog), everything), *sets]


def test_constructed_sets_behave_as_the_sets_of_their_ids():
    # A construct's set holds a mask over the catalog's ids; `RequirementSet(ids)`
    # holds the ids. Whatever each holds, the two are one value.
    rng = random.Random(4242)
    ghost = "r999"
    for trial in range(40):
        catalog = random_catalog(rng, max_requirements=120 if trial % 5 == 0 else 40)
        if trial % 2:
            catalog = with_duplicated_ids(rng, catalog)
        every_id = [r.id for r in catalog.requirements] + [ghost]
        sets = constructed_sets(catalog)
        pairs = [(got, RequirementSet(want)) for got, want in sets]
        for (got, plain), (_, want) in zip(pairs, sets):
            assert got == plain and plain == got and not got != plain
            assert hash(got) == hash(plain) and {plain: 1}[got] == 1 and {got: 1}[plain] == 1
            assert list(got) == list(plain) == sorted(want)
            assert len(got) == len(plain) == len(want) and bool(got) == bool(want)
            assert [i in got for i in every_id] == [i in plain for i in every_id]
            assert got.members == plain.members == want
            assert got.ids == plain.ids == tuple(sorted(want))
        for (a, a_plain), (b, b_plain) in zip(pairs, rng.sample(pairs, len(pairs))):
            for left, right in [(a, b), (a_plain, b), (a, b_plain), (b, a), (b_plain, a)]:
                lw, rw = set(left), set(right)
                assert list(left | right) == sorted(lw | rw)
                assert list(left & right) == sorted(lw & rw)
                assert list(left - right) == sorted(lw - rw)
                assert left - right == RequirementSet(lw - rw)
                assert left.issubset(right) == (lw <= rw)
                assert left.isdisjoint(right) == lw.isdisjoint(rw)


def test_product_union_restricted_to_one_kind_matches_brute_force():
    rng = random.Random(5151)
    for trial in range(40):
        catalog = random_catalog(rng)
        if trial % 2:
            catalog = with_duplicated_ids(rng, catalog)
        jids = [j.id for j in catalog.jurisdictions]
        one_row = merged(catalog)
        for pid in (p.id for p in catalog.products):
            for kind in (Kind.RL, Kind.RFN, "rl", "RFN"):
                brute = set().union(
                    *(brute_projection(one_row, pid, jid, Kind(kind)) for jid in jids)
                )
                assert list(product_union(catalog, pid, kind)) == sorted(brute)
            assert product_union(catalog, pid, None) == product_union(catalog, pid)
    with pytest.raises(UnknownIdError):
        product_union(MIXED, "nope", Kind.RL)
    with pytest.raises(ValueError):
        product_union(MIXED, "P1", "bogus")


def test_algebra_laws_on_random_catalogs():
    rng = random.Random(2207)
    for _ in range(30):
        catalog = random_catalog(rng)
        jids = [j.id for j in catalog.jurisdictions]
        pids = [p.id for p in catalog.products]

        core, complements = shared_regulations(catalog)
        for jid in jids:
            regs = jurisdiction_regulations(catalog, jid)
            assert core <= regs
            assert complements[jid] == regs - core
            assert complements[jid].isdisjoint(core)
            assert complements[jid] | core == regs

        for jid in jids:
            minimum = rl_min(catalog, jid)
            for pid in pids:
                assert minimum.issubset(requirements_for(catalog, pid, jid, Kind.RL))

        everything = set()
        for pid in pids:
            union = product_union(catalog, pid)
            brute = set()
            for jid in jids:
                brute |= brute_projection(catalog, pid, jid)
            assert set(union.members) == brute
            everything |= brute

            for kind in (Kind.RL, Kind.RFN):
                part = partition_general_specific(catalog, pid, kind)
                for jid in jids:
                    projection = requirements_for(catalog, pid, jid, kind)
                    assert part.general.isdisjoint(part.specific[jid])
                    assert (part.general | part.specific[jid]) == projection
        assert set(global_union(catalog).members) == everything

        # Purity: identical results on repeated calls.
        assert shared_regulations(catalog) == (core, complements)
