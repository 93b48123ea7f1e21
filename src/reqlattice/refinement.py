"""The stronger/weaker relation between requirements and the strongest-set
optimisation built on it.

A refinement edge `a -> b` declares b a weaker version of a: whoever
satisfies a automatically satisfies b. "Weaker version" means reachability
over declared edges, not just a direct edge. The edge set is acyclic
(validation rejects cycles), so reachability is a strict partial order and
"strongest" is well defined.

The graph reads the catalog's one index of the declared edges
(`Catalog.refinement_children`); reachability is never materialised for
the whole graph. Each question walks the edges it needs:

* `optimize` walks once from the direct children of every input member.
  Everything reached is dominated, and the strongest set is the input
  minus that. The result is the set of maximal elements of the input,
  i.e. an antichain; as a set function it has no processing order.
* `witnesses` walks from the kept members in ascending id order and gives
  every newly reached node the current member. A node reached from an
  earlier member is not entered again, so each node gets the smallest
  member above it, in one pass over the edges.
* `is_weaker` answers from the descendant set of its second argument,
  which the graph computes on first use and keeps.

`oracle_maximal` recomputes the strongest set by brute force over pairwise
reachability and exists purely as an independent correctness check.
"""

from __future__ import annotations

from typing import Collection, Iterable, Mapping

from . import algebra
from .algebra import RequirementSet
from .errors import CatalogInvalidError, UnknownIdError
from .model import Catalog, validate


def _descend(
    direct: Mapping[str, frozenset[str]], starts: Iterable[str], seen: set[str]
) -> list[str]:
    """Add to `seen` every node reachable from `starts` (inclusive) and
    return the nodes added, in visiting order.

    A node already in `seen` is not entered. Callers keep `seen` closed
    under descendants, so nothing below such a node is missed.
    """
    reached: list[str] = []
    for start in starts:
        if start in seen:
            continue
        seen.add(start)
        reached.append(start)
        stack = [start]
        while stack:
            for child in direct[stack.pop()]:
                if child not in seen:
                    seen.add(child)
                    reached.append(child)
                    stack.append(child)
    return reached


class RefinementGraph:
    """The declared stronger->weaker edges of a validated catalog.

    `direct` maps every requirement id to its direct weaker versions, so its
    keys are the nodes. Only `build_graph` makes a graph. Descendant sets are
    filled in per source on first use by `descendants`. They depend only on
    the immutable edges, so concurrent readers computing the same set store
    equal values and need no locking. Two graphs are equal when their edges
    are; a graph is unhashable, as its `direct` dict is.
    """

    __slots__ = ("direct", "_below")
    __match_args__ = ("direct",)

    def __init__(self, direct: Mapping[str, frozenset[str]]) -> None:
        self.direct = direct
        self._below: dict[str, frozenset[str]] = {}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.direct == other.direct

    def __repr__(self) -> str:
        return f"RefinementGraph(direct={self.direct!r})"

    def descendants(self, requirement_id: str) -> frozenset[str]:
        """Every requirement weaker than `requirement_id` (reachable from it)."""
        below = self._below.get(requirement_id)
        if below is None:
            self._check_known(requirement_id)
            seen: set[str] = set()
            _descend(self.direct, self.direct[requirement_id], seen)
            below = self._below[requirement_id] = frozenset(seen)
        return below

    def _check_known(self, requirement_id: str) -> None:
        if requirement_id not in self.direct:
            raise UnknownIdError(f"unknown requirement: {requirement_id!r}")

    def _check_all_known(self, ids: Collection[str]) -> None:
        # One lookup per id; the smallest unknown one is looked for on failure only.
        if not all(map(self.direct.__contains__, ids)):
            unknown = min(i for i in ids if i not in self.direct)
            raise UnknownIdError(f"unknown requirement: {unknown!r}")


def build_graph(catalog: Catalog) -> RefinementGraph:
    """Validate a catalog and return its refinement graph.

    This is the one place analyses validate: on validation errors it
    raises CatalogInvalidError carrying the ValidationReport, because
    reachability over broken or cyclic edges is undefined. It never looks
    for warnings (`model.find_warnings`). The graph's direct edges are the
    catalog's own edge index, which `validate` has already built; nothing
    else is precomputed.
    """
    report = validate(catalog)
    if not report.ok:
        raise CatalogInvalidError(
            "catalog has validation errors: "
            + "; ".join(issue.code for issue in report.errors),
            report,
        )
    return RefinementGraph(catalog.refinement_children)


def is_weaker(graph: RefinementGraph, a: str, b: str) -> bool:
    """True when `a` is a weaker version of `b` (b reaches a). Irreflexive."""
    graph._check_known(a)
    return a in graph.descendants(b)


def optimize(
    graph: RefinementGraph, members: RequirementSet | Iterable[str]
) -> RequirementSet:
    """Drop every requirement that has a stronger version in the input.

    One walk from the direct children of all members marks everything
    they dominate; the result is the input minus the marked nodes.
    """
    ids = members.members if isinstance(members, RequirementSet) else frozenset(members)
    graph._check_all_known(ids)
    direct = graph.direct
    dominated: set[str] = set()
    _descend(direct, (child for member in ids for child in direct[member]), dominated)
    return RequirementSet(ids - dominated)


def witnesses(
    graph: RefinementGraph, kept: RequirementSet | Iterable[str]
) -> dict[str, str]:
    """Map every requirement below some member of `kept` to the smallest
    (by id) such member.

    For a strongest set `kept` of a base set, every dropped requirement of
    the base is a key, and its value is the dominating witness the CLI
    reports.
    """
    ids = sorted(kept.members if isinstance(kept, RequirementSet) else set(kept))
    graph._check_all_known(ids)
    direct = graph.direct
    seen: set[str] = set()
    witness: dict[str, str] = {}
    for member in ids:
        for node in _descend(direct, direct[member], seen):
            witness[node] = member
    return witness


def oracle_maximal(
    graph: RefinementGraph, members: RequirementSet | Iterable[str]
) -> RequirementSet:
    """Brute-force strongest set: keep r iff no other input member reaches r.

    Correctness oracle only. Deliberately quadratic and deliberately
    independent of the traversal helpers: reachability is recomputed here
    with a plain stack walk over the declared edges.
    """
    ids = sorted(members if isinstance(members, RequirementSet) else set(members))
    graph._check_all_known(ids)

    def walk(start: str) -> set[str]:
        seen: set[str] = set()
        stack = [start]
        while stack:
            node = stack.pop()
            for child in graph.direct[node]:
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return seen

    reach = {requirement_id: walk(requirement_id) for requirement_id in ids}
    return RequirementSet(r for r in ids if not any(r in reach[q] for q in ids if q != r))


def strongest_rl(catalog: Catalog, graph: RefinementGraph, jurisdiction_id: str) -> RequirementSet:
    """The jurisdiction's regulation-derived requirements with every weaker
    version removed."""
    return optimize(graph, algebra.jurisdiction_rl(catalog, jurisdiction_id))


def strongest_product(catalog: Catalog, graph: RefinementGraph, product_id: str) -> RequirementSet:
    """The product's complete requirement set with every weaker version removed."""
    return optimize(graph, algebra.product_union(catalog, product_id))


def strongest_global(catalog: Catalog, graph: RefinementGraph) -> RequirementSet:
    """The strongest set over every requirement applicable to at least one
    (product, jurisdiction) pair."""
    return optimize(graph, algebra.global_union(catalog))
