"""Catalog-level analyses: regulation-overlap classification, regulation
change impact, and reuse candidates.

The overlap classification drives a development-strategy recommendation:
completely disjoint regulation sets are traced separately per
jurisdiction, a partial overlap suggests splitting shared and specific
requirements into separate components, and fully identical regulation
sets allow one single component for every jurisdiction.

Change impact is traced from regulations, not from requirements: a change
to a regulation in the shared core can touch every jurisdiction (global
scope), while a change to a jurisdiction's private regulation stays
confined to that jurisdiction's specific partitions.
"""

from __future__ import annotations

from enum import Enum
from functools import reduce
from operator import and_, or_
from typing import Mapping, NamedTuple

from .algebra import (
    RequirementSet,
    general_part,
    rl_min,
    shared_regulations,
)
from .errors import EmptyCatalogError, UnknownIdError
from .model import (
    ALL,
    IMPLICATION_VIOLATED,
    Catalog,
    Issue,
    Kind,
    Scope,
    Severity,
)


class Overlap(str, Enum):
    DISJOINT = "DISJOINT"
    PARTIAL = "PARTIAL"
    IDENTICAL = "IDENTICAL"


RECOMMENDATION = {
    Overlap.DISJOINT: "TRACE_SEPARATELY",
    Overlap.PARTIAL: "COMPONENT_SPLIT",
    Overlap.IDENTICAL: "SINGLE_COMPONENT",
}


class ImpactScope(str, Enum):
    GLOBAL = "GLOBAL"
    COUNTRY_SPECIFIC = "COUNTRY_SPECIFIC"


class OverlapCase(NamedTuple):
    case: Overlap
    core_size: int
    per_jurisdiction_sizes: Mapping[str, int]
    recommendation: str


class ImpactReport(NamedTuple):
    regulation: str
    in_core: bool
    affected_requirements: RequirementSet
    affected_products: tuple[str, ...]
    scope: ImpactScope
    jurisdictions: tuple[str, ...]


class ReuseCluster(NamedTuple):
    """Requirements sharing one applicability signature; a candidate for a
    single reusable component."""

    applies_to_products: Scope
    applies_to_jurisdictions: Scope
    members: RequirementSet


class ReuseReport(NamedTuple):
    rl_min: Mapping[str, RequirementSet]
    shared_across_all: RequirementSet
    clusters: tuple[ReuseCluster, ...]


def classify_overlap(catalog: Catalog) -> OverlapCase:
    """Classify how the jurisdictions' regulation sets relate.

    IDENTICAL when the shared core equals every jurisdiction's set (this
    covers the single-jurisdiction case and the fully empty one), DISJOINT
    when the core is empty yet some jurisdiction has regulations of its
    own, PARTIAL otherwise.
    """
    core, complements = shared_regulations(catalog)
    if all(not extra for extra in complements.values()):
        case = Overlap.IDENTICAL
    elif not core:
        case = Overlap.DISJOINT
    else:
        case = Overlap.PARTIAL
    return OverlapCase(
        case=case,
        core_size=len(core),
        per_jurisdiction_sizes={jid: len(extra) for jid, extra in sorted(complements.items())},
        recommendation=RECOMMENDATION[case],
    )


def change_impact(catalog: Catalog, regulation_id: str) -> ImpactReport:
    """Trace a regulation change to the requirements and products it touches.

    Affected requirements are the regulation-derived ones citing the
    regulation; affected products are every product those requirements
    apply to. Scope is global exactly when the regulation sits in the
    shared core, otherwise it is confined to the jurisdictions that hold it
    (those whose complements contain it).
    """
    if regulation_id not in catalog.regulation_ids:
        raise UnknownIdError(f"unknown regulation: {regulation_id!r}")
    if not catalog.jurisdictions:
        raise EmptyCatalogError("shared regulations need at least one jurisdiction")
    by_jurisdiction = catalog.regulations_by_jurisdiction
    holding = tuple(sorted(jid for jid, regs in by_jurisdiction.items() if regulation_id in regs))
    in_core = len(holding) == len(by_jurisdiction)

    citing = [
        req
        for req in catalog.requirements
        if req.kind is Kind.RL and regulation_id in req.derived_from
    ]
    affected = RequirementSet(req.id for req in citing)
    # Resolve only the citing requirements' own product scopes: on a freshly
    # loaded catalog the per-product map, the resolved scope list of every
    # requirement, or an index by id would cost more than the whole query.
    products = catalog.product_ids
    reached = frozenset().union(
        *(products if r.applies_to_products is ALL else r.applies_to_products for r in citing)
    )
    affected_products = tuple(sorted(reached & products))
    return ImpactReport(
        regulation=regulation_id,
        in_core=in_core,
        affected_requirements=affected,
        affected_products=affected_products,
        scope=ImpactScope.GLOBAL if in_core else ImpactScope.COUNTRY_SPECIFIC,
        jurisdictions=() if in_core else holding,
    )


def _scope_sort_key(scope: Scope) -> tuple[str, ...]:
    if scope is ALL:
        return ("",)
    return tuple(sorted(scope))


def _join(a: Scope, b: Scope) -> Scope:
    return ALL if a is ALL or b is ALL else a | b


def reuse_candidates(catalog: Catalog) -> ReuseReport:
    """Identify what can be built once and reused for the whole product set.

    Per jurisdiction the minimum set (requirements demanded of every
    product); across jurisdictions their intersection; and the union of
    all minimum sets grouped by applicability signature into candidate
    component clusters.
    """
    if not catalog.products or not catalog.jurisdictions:
        raise EmptyCatalogError("reuse analysis needs at least one product and one jurisdiction")
    minima = {j.id: rl_min(catalog, j.id) for j in catalog.jurisdictions}

    shared = reduce(and_, minima.values())
    pool = reduce(or_, minima.values())
    # Each pool id's product and jurisdiction scopes, joined over its rows.
    scopes: dict[str, tuple[Scope, Scope]] = {}
    for req in catalog.requirements:
        if req.id in pool:
            pair = req.applies_to_products, req.applies_to_jurisdictions
            scopes[req.id] = tuple(map(_join, scopes[req.id], pair)) if req.id in scopes else pair
    by_signature: dict[tuple[tuple[str, ...], tuple[str, ...]], set[str]] = {}
    for rid, (products, jurisdictions) in scopes.items():
        key = (_scope_sort_key(products), _scope_sort_key(jurisdictions))
        by_signature.setdefault(key, set()).add(rid)
    clusters = tuple(
        ReuseCluster(*scopes[min(members)], RequirementSet(members))
        for _, members in sorted(by_signature.items())
    )
    return ReuseReport(
        rl_min=minima,
        shared_across_all=shared,
        clusters=clusters,
    )


def consistency_diagnostics(catalog: Catalog) -> list[Issue]:
    """Surface catalogs that break the disjoint-implies-no-general-part rule.

    With completely disjoint regulation sets, no product should have a
    general regulation-derived part; a requirement citing a different
    regulation per jurisdiction while applying everywhere violates that,
    which is legal data but worth flagging.
    """
    if not catalog.jurisdictions:
        return []
    if classify_overlap(catalog).case is not Overlap.DISJOINT:
        return []
    issues: list[Issue] = []
    for product in catalog.products:
        general = general_part(catalog, product.id, Kind.RL)
        if general:
            issues.append(
                Issue(
                    Severity.WARNING,
                    IMPLICATION_VIOLATED,
                    f"regulation sets are disjoint but {product.id} has a "
                    "general regulation-derived part: " + ", ".join(general),
                    (product.id, *general),
                )
            )
    return issues
