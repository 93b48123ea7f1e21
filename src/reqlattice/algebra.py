"""Set constructions over a validated catalog.

Every construction is set algebra over the catalog's scope maps
(`Catalog.requirements_by_product` and its siblings) and per-axis
aggregates (`Catalog.requirements_on_some_product` and its siblings),
which the catalog fills in on first use from its scopes, with `"all"`
resolved once per axis; nothing here looks at a scope. A scope map
builds each entity's entry on its first read, so a construct about one
product or one jurisdiction pays for that entry, not for the whole map.
All functions are pure and filling in a map, an entry or an aggregate is
idempotent, so repeated calls give identical results and concurrent
readers need no locking.

The constructions:

* projection -- the requirements of one (product, jurisdiction) pair,
  optionally restricted to one kind;
* product union -- everything a product must satisfy across all
  jurisdictions;
* jurisdiction union -- all regulation-derived requirements a jurisdiction
  imposes across all products;
* shared regulations -- the regulations common to every jurisdiction (the
  core) and each jurisdiction's private complement;
* per-jurisdiction minimum -- the regulation-derived requirements demanded
  of every product in a jurisdiction (intersection over products);
* general/specific partition -- the split of one product's requirements
  into the part identical across jurisdictions and each jurisdiction's
  remainder.

The general part of a partition is computed as the product's kind-set
intersected with the requirements in every jurisdiction
(`Catalog.requirements_in_every_jurisdiction`), which makes "the general
part is the same in every jurisdiction" a construction guarantee rather
than an input assumption.

RFN requirements reuse the same applicability machinery as RL ones;
human-factor tags never affect set membership, only reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple

from .errors import EmptyCatalogError, UnknownIdError
from .model import Catalog, Kind


@dataclass(frozen=True)
class RequirementSet:
    """A duplicate-free set of requirement ids iterated in ascending order."""

    members: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(self.members))

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, requirement_id: object) -> bool:
        return requirement_id in self.members

    def __or__(self, other: RequirementSet) -> RequirementSet:
        return RequirementSet(self.members | other.members)

    def __and__(self, other: RequirementSet) -> RequirementSet:
        return RequirementSet(self.members & other.members)

    def __sub__(self, other: RequirementSet) -> RequirementSet:
        return RequirementSet(self.members - other.members)

    def issubset(self, other: RequirementSet) -> bool:
        return self.members <= other.members

    def isdisjoint(self, other: RequirementSet) -> bool:
        return self.members.isdisjoint(other.members)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.members))


@dataclass(frozen=True)
class Partition:
    """General part plus per-jurisdiction specific parts of one projection.

    For every jurisdiction j present: general and specific[j] are disjoint,
    and their union is exactly the j-projection of the partitioned set.
    """

    general: RequirementSet
    specific: Mapping[str, RequirementSet]


class SharedRegulations(NamedTuple):
    core: frozenset[str]
    complements: dict[str, frozenset[str]]


def _require(entity_id: str, known: frozenset[str], what: str) -> None:
    if entity_id not in known:
        raise UnknownIdError(f"unknown {what}: {entity_id!r}")


def requirements_for(
    catalog: Catalog,
    product_id: str,
    jurisdiction_id: str,
    kind_filter: Kind | str | None = None,
) -> RequirementSet:
    """Project the catalog onto one (product, jurisdiction) pair.

    A requirement is included when its product scope covers the product and
    its jurisdiction scope covers the jurisdiction; ALL scopes cover
    everything. `kind_filter` restricts to one requirement kind.
    """
    _require(product_id, catalog.product_ids, "product")
    _require(jurisdiction_id, catalog.jurisdiction_ids, "jurisdiction")
    members = (
        catalog.requirements_by_product[product_id]
        & catalog.requirements_by_jurisdiction[jurisdiction_id]
    )
    if kind_filter is not None:
        members &= catalog.requirements_by_kind[Kind(kind_filter)]
    return RequirementSet(members)


def product_union(catalog: Catalog, product_id: str) -> RequirementSet:
    """Everything the product must satisfy: the union of its projections
    over all jurisdictions."""
    _require(product_id, catalog.product_ids, "product")
    return RequirementSet(
        catalog.requirements_by_product[product_id] & catalog.requirements_in_some_jurisdiction
    )


def global_union(catalog: Catalog) -> RequirementSet:
    """Every requirement applicable to at least one (product, jurisdiction)
    pair: the union of the product unions."""
    return RequirementSet(
        catalog.requirements_on_some_product & catalog.requirements_in_some_jurisdiction
    )


def jurisdiction_rl(catalog: Catalog, jurisdiction_id: str) -> RequirementSet:
    """All regulation-derived requirements the jurisdiction imposes on any
    product: the union of its RL projections over all products."""
    _require(jurisdiction_id, catalog.jurisdiction_ids, "jurisdiction")
    return RequirementSet(
        catalog.requirements_by_jurisdiction[jurisdiction_id]
        & catalog.requirements_by_kind[Kind.RL]
        & catalog.requirements_on_some_product
    )


def jurisdiction_regulations(catalog: Catalog, jurisdiction_id: str) -> frozenset[str]:
    """The regulation ids belonging to one jurisdiction."""
    _require(jurisdiction_id, catalog.jurisdiction_ids, "jurisdiction")
    return catalog.regulations_by_jurisdiction[jurisdiction_id]


def shared_regulations(catalog: Catalog) -> SharedRegulations:
    """Split the regulations into the core common to every jurisdiction and
    each jurisdiction's private complement.

    For every jurisdiction j: core and complements[j] are disjoint and
    their union is exactly j's regulation set. Intersecting over zero
    jurisdictions is undefined, so an empty catalog is an error rather
    than a silently fabricated universe.
    """
    if not catalog.jurisdictions:
        raise EmptyCatalogError("shared regulations need at least one jurisdiction")
    per_jurisdiction = catalog.regulations_by_jurisdiction
    core = frozenset.intersection(*per_jurisdiction.values())
    complements = {jid: regs - core for jid, regs in per_jurisdiction.items()}
    return SharedRegulations(core, complements)


def rl_min(catalog: Catalog, jurisdiction_id: str) -> RequirementSet:
    """The regulation-derived requirements demanded of every product in the
    jurisdiction: the intersection of the RL projections over all products."""
    if not catalog.products:
        raise EmptyCatalogError("the per-jurisdiction minimum needs at least one product")
    _require(jurisdiction_id, catalog.jurisdiction_ids, "jurisdiction")
    return RequirementSet(
        catalog.requirements_by_jurisdiction[jurisdiction_id]
        & catalog.requirements_by_kind[Kind.RL]
        & catalog.requirements_on_every_product
    )


def general_part(catalog: Catalog, product_id: str, kind: Kind | str) -> RequirementSet:
    """The product's requirements of one kind that every jurisdiction
    demands: the general part of `partition_general_specific`, without
    building the specific parts."""
    if not catalog.jurisdictions:
        raise EmptyCatalogError("partitioning needs at least one jurisdiction")
    _require(product_id, catalog.product_ids, "product")
    return RequirementSet(
        catalog.requirements_by_product[product_id]
        & catalog.requirements_by_kind[Kind(kind)]
        & catalog.requirements_in_every_jurisdiction
    )


def partition_general_specific(
    catalog: Catalog, product_id: str, kind: Kind | str
) -> Partition:
    """Split one product's requirements of one kind into the part shared by
    every jurisdiction and each jurisdiction's specific remainder.

    The general part is `general_part`, which equals the intersection of
    the per-jurisdiction projections; specific[j] is the j-projection minus
    the general part.
    """
    general = general_part(catalog, product_id, kind)
    return Partition(
        general=general,
        specific={
            j.id: requirements_for(catalog, product_id, j.id, kind) - general
            for j in catalog.jurisdictions
        },
    )
