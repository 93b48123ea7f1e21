"""Masks over a dense, sorted numbering of ids: the bitmap index beneath a
catalog's scope maps, kind sets and aggregates, and beneath
`algebra.RequirementSet`.

A `DenseIndex` numbers the distinct ids of a collection that is kept
sorted by id, so bit i of a mask stands for the i-th id and every row of
a repeated id sets the same bit. Set algebra over one index is then `&`,
`|` and `& ~` of ints, and `decode` lists a mask's ids in sorted order
without sorting them.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


class DenseIndex(NamedTuple):
    """The distinct ids of a collection sorted by id (`ids`), and each
    row's bit (`rows`), the position of its id in `ids`."""

    ids: tuple[str, ...]
    rows: Sequence[int]

    @classmethod
    def of(cls, owners: Sequence) -> DenseIndex:
        """The index of `owners`, a collection sorted by `id`."""
        ids = tuple(dict.fromkeys(owner.id for owner in owners))
        if len(ids) == len(owners):
            return cls(ids, range(len(ids)))
        bit = {owner_id: position for position, owner_id in enumerate(ids)}
        return cls(ids, [bit[owner.id] for owner in owners])


def mask_of(positions: Iterable[int], size: int) -> int:
    """The mask whose set bits are `positions`, each below `size`."""
    flags = bytearray(size)
    for position in positions:
        flags[position] = 1
    return int(b"0" + flags[::-1].translate(_DIGITS), 2)


def decode(mask: int, ids: tuple[str, ...]) -> Iterator[str]:
    """The ids whose bits `mask` sets, in the order of `ids`.

    Walking the set bits costs about 0.5 us per bit, and one `compress`
    over every bit about 10 us per 1,000 ids, whatever the mask holds; so
    a mask with fewer set bits than one in 50 is walked.
    """
    if mask.bit_count() * 50 < len(ids):
        return _set_bits(mask, ids)
    return compress(ids, format(mask, "b")[::-1].encode().translate(_FLAGS))


def _set_bits(mask: int, ids: tuple[str, ...]) -> Iterator[str]:
    while mask:
        lowest = mask & -mask
        yield ids[lowest.bit_length() - 1]
        mask ^= lowest


class ScopeMap(Mapping[str, frozenset[str]]):
    """A read-only map from each entity id of one axis to the ids of the
    owners (requirements or regulations) whose resolved scope holds it,
    kept as one mask per entity over the owners' `DenseIndex`.

    Making the map is one pass over the owners' resolved scopes (`scopes`
    holds one per row of the index, in order) that groups bit positions by
    entity: an owner whose scope is the axis's own id set, a resolved ALL,
    goes into one mask that every entry shares, and any other owner into
    the list of each catalog entity its scope names. An entry's mask is
    made on its first `mask` read, which drops its list, so reading one
    entry costs the pass and that entry, not the whole map. Reading an
    entry by key decodes its mask into a new frozenset, which the map does
    not keep. Unknown ids raise `KeyError`; iteration gives the entity ids
    in catalog order.
    """

    __slots__ = ("_masks", "_lists", "_everywhere", "_ids")

    def __init__(
        self,
        index: DenseIndex,
        scopes: list[frozenset[str]],
        entities: Iterable,
        universe: frozenset[str],
    ) -> None:
        lists: dict[str, list[int] | None] = {entity.id: [] for entity in entities}
        everywhere: list[int] = []
        for row, scope in zip(index.rows, scopes):
            if scope is universe:
                everywhere.append(row)
                continue
            for entity_id in scope:
                members = lists.get(entity_id)
                if members is not None:  # not an id outside the catalog
                    members.append(row)
        # A made mask is read from `_masks` by one dict lookup; `_lists`
        # keeps every entity id, in order, with None once its mask is made.
        self._masks: dict[str, int] = {}
        self._lists = lists
        self._everywhere = mask_of(everywhere, len(index.ids))
        self._ids = index.ids

    def mask(self, entity_id: str) -> int:
        """The mask of the owners whose scope holds `entity_id`."""
        try:
            return self._masks[entity_id]
        except KeyError:
            pass
        members = self._lists[entity_id]
        if members is None:  # another thread made it since the lookup above
            return self._masks[entity_id]
        made = self._masks[entity_id] = self._everywhere | mask_of(members, len(self._ids))
        self._lists[entity_id] = None
        return made

    def __getitem__(self, entity_id: str) -> frozenset[str]:
        return frozenset(decode(self.mask(entity_id), self._ids))

    def __contains__(self, entity_id: object) -> bool:
        return entity_id in self._lists

    def __iter__(self) -> Iterator[str]:
        return iter(self._lists)

    def __len__(self) -> int:
        return len(self._lists)
