"""Set constructions over a validated catalog.

Every construction is AND/OR of int masks over the catalog's one dense
index of its requirement ids in sorted order (`Catalog.requirement_index`):
the masks of its scope maps (`Catalog.requirements_by_product` and its
siblings), of its kind sets (`Catalog.masks_by_kind`) and of its per-axis
aggregates (`Catalog.mask_on_some_product` and its siblings), which the
catalog fills in on first use from its scopes, with `"all"` resolved once
per axis; nothing here looks at a scope. A scope map makes each entity's
mask on its first read, so a construct about one product or one
jurisdiction pays for that entry, not for the whole map. A construct
returns a `RequirementSet` holding its mask and the index's ids, which
decodes the mask only when the set is iterated or asked for `members` or
`ids`, and lists the ids in sorted order without sorting them. All
functions are pure and filling in a map, an entry or an aggregate is
idempotent, so repeated calls give identical results and concurrent
readers need no locking.

The constructions:

* projection -- the requirements of one (product, jurisdiction) pair,
  optionally restricted to one kind;
* product union -- everything a product must satisfy across all
  jurisdictions, optionally restricted to one kind;
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
(`Catalog.mask_in_every_jurisdiction`), which makes "the general part is
the same in every jurisdiction" a construction guarantee rather than an
input assumption.

RFN requirements reuse the same applicability machinery as RL ones;
human-factor tags never affect set membership, only reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple

from .bitmap import decode
from .errors import EmptyCatalogError, UnknownIdError
from .model import Catalog, Kind


class RequirementSet:
    """A duplicate-free set of requirement ids iterated in ascending order.

    `RequirementSet(ids)` holds the ids. A set that a construct returns
    holds a mask over its catalog's sorted ids instead, and decodes it only
    when it is iterated or asked for `members` (decoded once, then kept)
    or `ids`. Two sets over the same ids combine and compare as masks; any
    other pair as id sets. Equal sets hash alike, whatever they hold.
    """

    __slots__ = ("_members", "_mask", "_ids")

    def __init__(self, members: Iterable[str] = frozenset()) -> None:
        self._members: frozenset[str] | None = frozenset(members)
        self._mask: int | None = None
        self._ids: tuple[str, ...] | None = None

    @property
    def members(self) -> frozenset[str]:
        if self._members is None:
            self._members = frozenset(decode(self._mask, self._ids))
        return self._members

    def _shares_ids(self, other: RequirementSet) -> bool:
        return self._ids is not None and other._ids is self._ids

    def __iter__(self) -> Iterator[str]:
        if self._ids is None:
            return iter(sorted(self._members))
        return decode(self._mask, self._ids)

    def __len__(self) -> int:
        return len(self._members) if self._ids is None else self._mask.bit_count()

    def __contains__(self, requirement_id: object) -> bool:
        return requirement_id in self.members

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._shares_ids(other):
            return self._mask == other._mask
        return self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        return f"RequirementSet(members={self.members!r})"

    def __or__(self, other: RequirementSet) -> RequirementSet:
        if self._shares_ids(other):
            return _masked(self._mask | other._mask, self._ids)
        return RequirementSet(self.members | other.members)

    def __and__(self, other: RequirementSet) -> RequirementSet:
        if self._shares_ids(other):
            return _masked(self._mask & other._mask, self._ids)
        return RequirementSet(self.members & other.members)

    def __sub__(self, other: RequirementSet) -> RequirementSet:
        if self._shares_ids(other):
            return _masked(self._mask & ~other._mask, self._ids)
        return RequirementSet(self.members - other.members)

    def issubset(self, other: RequirementSet) -> bool:
        if self._shares_ids(other):
            return not self._mask & ~other._mask
        return self.members <= other.members

    def isdisjoint(self, other: RequirementSet) -> bool:
        if self._shares_ids(other):
            return not self._mask & other._mask
        return self.members.isdisjoint(other.members)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(self)


def _masked(mask: int, ids: tuple[str, ...]) -> RequirementSet:
    """The set of the ids whose bits `mask` sets."""
    result = RequirementSet.__new__(RequirementSet)
    result._members, result._mask, result._ids = None, mask, ids
    return result


def _result(catalog: Catalog, mask: int, kind: Kind | str | None = None) -> RequirementSet:
    """The set of the catalog's requirements in `mask`, restricted to one
    kind unless `kind` is None."""
    if kind is not None:
        mask &= catalog.masks_by_kind[Kind(kind)]
    return _masked(mask, catalog.requirement_index.ids)


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
    mask = catalog.requirements_by_product.mask(product_id)
    mask &= catalog.requirements_by_jurisdiction.mask(jurisdiction_id)
    return _result(catalog, mask, kind_filter)


def product_union(
    catalog: Catalog, product_id: str, kind_filter: Kind | str | None = None
) -> RequirementSet:
    """Everything the product must satisfy: the union of its projections
    over all jurisdictions. `kind_filter` restricts to one requirement
    kind, as in `requirements_for`."""
    _require(product_id, catalog.product_ids, "product")
    mask = catalog.requirements_by_product.mask(product_id)
    return _result(catalog, mask & catalog.mask_in_some_jurisdiction, kind_filter)


def global_union(catalog: Catalog) -> RequirementSet:
    """Every requirement applicable to at least one (product, jurisdiction)
    pair: the union of the product unions."""
    return _result(catalog, catalog.mask_on_some_product & catalog.mask_in_some_jurisdiction)


def jurisdiction_rl(catalog: Catalog, jurisdiction_id: str) -> RequirementSet:
    """All regulation-derived requirements the jurisdiction imposes on any
    product: the union of its RL projections over all products."""
    _require(jurisdiction_id, catalog.jurisdiction_ids, "jurisdiction")
    mask = catalog.requirements_by_jurisdiction.mask(jurisdiction_id)
    return _result(catalog, mask & catalog.mask_on_some_product, Kind.RL)


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
    per_jurisdiction = dict(catalog.regulations_by_jurisdiction)  # each entry decoded once
    core = frozenset.intersection(*per_jurisdiction.values())
    complements = {jid: regs - core for jid, regs in per_jurisdiction.items()}
    return SharedRegulations(core, complements)


def rl_min(catalog: Catalog, jurisdiction_id: str) -> RequirementSet:
    """The regulation-derived requirements demanded of every product in the
    jurisdiction: the intersection of the RL projections over all products."""
    if not catalog.products:
        raise EmptyCatalogError("the per-jurisdiction minimum needs at least one product")
    _require(jurisdiction_id, catalog.jurisdiction_ids, "jurisdiction")
    mask = catalog.requirements_by_jurisdiction.mask(jurisdiction_id)
    return _result(catalog, mask & catalog.mask_on_every_product, Kind.RL)


def general_part(catalog: Catalog, product_id: str, kind: Kind | str) -> RequirementSet:
    """The product's requirements of one kind that every jurisdiction
    demands: the general part of `partition_general_specific`, without
    building the specific parts."""
    if not catalog.jurisdictions:
        raise EmptyCatalogError("partitioning needs at least one jurisdiction")
    _require(product_id, catalog.product_ids, "product")
    mask = catalog.requirements_by_product.mask(product_id)
    return _result(catalog, mask & catalog.mask_in_every_jurisdiction, Kind(kind))


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
