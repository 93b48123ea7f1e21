"""Domain types for multi-jurisdiction requirement catalogs, plus catalog validation.

A catalog holds jurisdictions (countries, states, organisations), the
regulations belonging to them, the products under development, the
requirements with their applicability scopes, and the refinement edges
declaring that one requirement is a stronger version of another.

Validation never raises: every violation becomes an entry in the returned
report, and a catalog is usable by the other modules only when the report
carries zero errors. The advisory warnings are a separate pass,
`find_warnings`, so `refinement.build_graph`, which needs only the errors,
never pays for them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, compress
from operator import attrgetter, not_
from typing import Iterable, Iterator, Mapping, Union

from .bitmap import DenseIndex, ScopeMap, decode, mask_of


class AllScope:
    """Singleton marker: a scope covering every entity of the referenced type.

    A `Catalog` resolves the marker to its own entity ids on first use,
    once per axis (see its resolved scope lists), so a catalog with an added
    jurisdiction or product widens existing ALL scopes.
    """

    _instance: AllScope | None = None

    def __new__(cls) -> AllScope:
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ALL"


ALL = AllScope()

Scope = Union[AllScope, frozenset[str]]


def _resolve(scopes: Iterable[Scope], universe: frozenset[str]) -> list[frozenset[str]]:
    """The scopes as id sets, in order: each ALL is `universe` itself, never a copy."""
    return [universe if scope is ALL else scope for scope in scopes]


def _union_by_id(
    owners: Iterable[Requirement | Regulation], scopes: list[frozenset[str]]
) -> dict[str, frozenset[str]]:
    """Each owner id mapped to the union of its owners' resolved scopes
    (`scopes` holds one per owner, in order)."""
    union: dict[str, frozenset[str]] = {}
    for owner, scope in zip(owners, scopes):
        union[owner.id] = union[owner.id] | scope if owner.id in union else scope
    return union


_NO_IDS: frozenset[str] = frozenset()


def _adjacency(
    nodes: Iterable[str], edges: Iterable[tuple[str, str]]
) -> dict[str, frozenset[str]]:
    """Map each node to its direct weaker versions. Only the distinct edges
    between two different members of `nodes` are kept, and every node with
    none maps to one shared empty set."""
    children: dict[str, frozenset[str]] = dict.fromkeys(nodes, _NO_IDS)
    below: dict[str, set[str]] = {}
    for stronger, weaker in edges:
        if stronger != weaker and stronger in children and weaker in children:
            below.setdefault(stronger, set()).add(weaker)
    for node, weaker in below.items():
        children[node] = frozenset(weaker)
    return children


def _is_scope(value) -> bool:
    return value is ALL or type(value) is frozenset


class Kind(str, Enum):
    """Requirement kind: regulation-derived (RL) or regulation-independent (RFN)."""

    RL = "RL"
    RFN = "RFN"

    @classmethod
    def _missing_(cls, value) -> Kind | None:
        """Read a kind name in any case; catalog files stay strict (`io`)."""
        if isinstance(value, str):
            return next((kind for kind in cls if kind.value == value.upper()), None)
        return None


@dataclass(frozen=True, slots=True)
class Jurisdiction:
    """A country, state, or organisation with its own regulation set."""

    id: str
    name: str = ""


@dataclass(frozen=True, slots=True)
class Regulation:
    """A law or standard belonging to one or more jurisdictions."""

    id: str
    title: str = ""
    jurisdictions: Scope = ALL

    def __post_init__(self) -> None:
        if not _is_scope(self.jurisdictions):
            object.__setattr__(self, "jurisdictions", frozenset(self.jurisdictions))


@dataclass(frozen=True, slots=True)
class Product:
    """A software component or system under development."""

    id: str
    name: str = ""


@dataclass(frozen=True, slots=True)
class Requirement:
    """One requirement with provenance and applicability scopes.

    RL requirements cite the regulations they derive from and carry no
    human-factor tags; RFN requirements cite no regulations and may carry
    free-form human-factor tags.
    """

    id: str
    kind: Kind
    title: str = ""
    derived_from: frozenset[str] = frozenset()
    human_factors: frozenset[str] = frozenset()
    applies_to_products: Scope = ALL
    applies_to_jurisdictions: Scope = ALL

    def __post_init__(self) -> None:
        # A kind name and any iterable of ids are coerced; `Kind(x)` and
        # `frozenset(x)` return `x` itself when it already has that type.
        # (`io` fills the slots directly and never calls this.)
        object.__setattr__(self, "kind", Kind(self.kind))
        object.__setattr__(self, "derived_from", frozenset(self.derived_from))
        object.__setattr__(self, "human_factors", frozenset(self.human_factors))
        if not _is_scope(self.applies_to_products):
            object.__setattr__(self, "applies_to_products", frozenset(self.applies_to_products))
        if not _is_scope(self.applies_to_jurisdictions):
            object.__setattr__(
                self, "applies_to_jurisdictions", frozenset(self.applies_to_jurisdictions)
            )


@dataclass(frozen=True, slots=True)
class RefinementEdge:
    """Declares that `stronger` subsumes `weaker` (weaker is a weaker version)."""

    stronger: str
    weaker: str


@dataclass(frozen=True)
class Catalog:
    """The complete model. Immutable; collections are kept sorted by id."""

    jurisdictions: tuple[Jurisdiction, ...] = ()
    regulations: tuple[Regulation, ...] = ()
    products: tuple[Product, ...] = ()
    requirements: tuple[Requirement, ...] = ()
    refinements: tuple[RefinementEdge, ...] = ()

    def __post_init__(self) -> None:
        by_id = attrgetter("id")
        object.__setattr__(self, "jurisdictions", tuple(sorted(self.jurisdictions, key=by_id)))
        object.__setattr__(self, "regulations", tuple(sorted(self.regulations, key=by_id)))
        object.__setattr__(self, "products", tuple(sorted(self.products, key=by_id)))
        object.__setattr__(self, "requirements", tuple(sorted(self.requirements, key=by_id)))
        edges = sorted(self.refinements, key=attrgetter("stronger", "weaker"))
        object.__setattr__(self, "refinements", tuple(edges))

    @cached_property
    def jurisdiction_ids(self) -> frozenset[str]:
        return frozenset(j.id for j in self.jurisdictions)

    @cached_property
    def regulation_ids(self) -> frozenset[str]:
        return frozenset(r.id for r in self.regulations)

    @cached_property
    def product_ids(self) -> frozenset[str]:
        return frozenset(p.id for p in self.products)

    @cached_property
    def requirement_ids(self) -> frozenset[str]:
        return frozenset(r.id for r in self.requirements)

    @cached_property
    def refinement_children(self) -> dict[str, frozenset[str]]:
        """The one index of the refinement edges: every requirement id mapped
        to its direct weaker versions.  `validate` checks it for cycles and
        `refinement.build_graph` hands it to the graph as it is."""
        pairs = ((e.stronger, e.weaker) for e in self.refinements)
        return _adjacency(self.requirement_ids, pairs)

    # Every scope is resolved here, once per axis: three lists hold, in
    # collection order, each requirement's product scope, each requirement's
    # jurisdiction scope and each regulation's jurisdiction scope, with ALL
    # replaced by the axis's own id set (the same object, never a copy).
    # The requirement sets are int masks over one dense index of the
    # distinct requirement ids in sorted order (`requirement_index`, made on
    # the first map, kind-set or aggregate read, never by `validate`): bit i
    # stands for the i-th id, so every row of a duplicated id sets the same
    # bit and its scopes unite with no special case.  The scope maps, the
    # kind masks and four per-axis aggregate masks (the requirements on
    # every product, on some product, in every jurisdiction and in some
    # jurisdiction) are each a pass over a list, so a construct that reads
    # only aggregates on an axis never makes that axis's map.  A map's pass
    # groups bit positions by entity, with every ALL-scoped owner in one
    # mask all entries share, and makes each entry's mask on its first read
    # (`bitmap.ScopeMap`), so a construct that reads one entity's entry
    # makes that entry alone.  An "every" aggregate tests each id's scope,
    # so on a catalog with a duplicated id (`validate` refuses it) its pass
    # first folds each id's scopes into their union (`_union_by_id`, which
    # `find_warnings` uses for the regulations); a catalog without one
    # skips the fold, which would double the aggregates' time.  An axis
    # with no entities has empty aggregates ("every" is not the vacuous
    # universe; the constructs that need an "every" refuse an empty axis
    # first).  The public id-set forms of the kind sets and aggregates, and
    # a map's entry read by key, decode a mask anew on every read.
    # Filling in a list, an index, a map, a mask or an aggregate is
    # idempotent.

    @cached_property
    def _product_scopes(self) -> list[frozenset[str]]:
        return _resolve((r.applies_to_products for r in self.requirements), self.product_ids)

    @cached_property
    def _jurisdiction_scopes(self) -> list[frozenset[str]]:
        scopes = (r.applies_to_jurisdictions for r in self.requirements)
        return _resolve(scopes, self.jurisdiction_ids)

    @cached_property
    def _regulation_scopes(self) -> list[frozenset[str]]:
        return _resolve((r.jurisdictions for r in self.regulations), self.jurisdiction_ids)

    @cached_property
    def requirement_index(self) -> DenseIndex:
        """The distinct requirement ids in sorted order; every requirement
        mask of the catalog is over it."""
        return DenseIndex.of(self.requirements)

    def _ids_of(self, mask: int) -> frozenset[str]:
        return frozenset(decode(mask, self.requirement_index.ids))

    @cached_property
    def requirements_by_product(self) -> ScopeMap:
        """Each product id mapped to the ids of the requirements that apply
        to it; an entry's mask is made on its first read."""
        index, scopes = self.requirement_index, self._product_scopes
        return ScopeMap(index, scopes, self.products, self.product_ids)

    @cached_property
    def requirements_by_jurisdiction(self) -> ScopeMap:
        """Each jurisdiction id mapped to the ids of the requirements that
        apply in it; an entry's mask is made on its first read."""
        index, scopes = self.requirement_index, self._jurisdiction_scopes
        return ScopeMap(index, scopes, self.jurisdictions, self.jurisdiction_ids)

    @cached_property
    def regulations_by_jurisdiction(self) -> ScopeMap:
        """Each jurisdiction id mapped to the ids of the regulations that
        belong to it, over an index of the regulation ids."""
        index, scopes = DenseIndex.of(self.regulations), self._regulation_scopes
        return ScopeMap(index, scopes, self.jurisdictions, self.jurisdiction_ids)

    @cached_property
    def masks_by_kind(self) -> dict[Kind, int]:
        """Each kind mapped to the mask of the requirements of that kind."""
        ids, rows = self.requirement_index
        return {
            kind: mask_of(compress(rows, [r.kind is kind for r in self.requirements]), len(ids))
            for kind in Kind
        }

    @property
    def requirements_by_kind(self) -> dict[Kind, frozenset[str]]:
        return {kind: self._ids_of(mask) for kind, mask in self.masks_by_kind.items()}

    def _covering(self, scopes: list[frozenset[str]], universe: frozenset[str], every: bool) -> int:
        """The mask of the requirements whose resolved scope (`scopes` holds
        one per requirement, in order) covers every, or some, entity of
        `universe`."""
        if not universe:
            return 0
        ids, rows = self.requirement_index
        if len(ids) != len(rows):
            scopes, rows = _union_by_id(self.requirements, scopes).values(), range(len(ids))
        if every:
            hits = map(universe.issubset, scopes)
        else:
            hits = map(not_, map(universe.isdisjoint, scopes))
        return mask_of(compress(rows, hits), len(ids))

    @cached_property
    def mask_on_every_product(self) -> int:
        return self._covering(self._product_scopes, self.product_ids, every=True)

    @cached_property
    def mask_on_some_product(self) -> int:
        return self._covering(self._product_scopes, self.product_ids, every=False)

    @cached_property
    def mask_in_every_jurisdiction(self) -> int:
        return self._covering(self._jurisdiction_scopes, self.jurisdiction_ids, every=True)

    @cached_property
    def mask_in_some_jurisdiction(self) -> int:
        return self._covering(self._jurisdiction_scopes, self.jurisdiction_ids, every=False)

    @property
    def requirements_on_every_product(self) -> frozenset[str]:
        return self._ids_of(self.mask_on_every_product)

    @property
    def requirements_on_some_product(self) -> frozenset[str]:
        return self._ids_of(self.mask_on_some_product)

    @property
    def requirements_in_every_jurisdiction(self) -> frozenset[str]:
        return self._ids_of(self.mask_in_every_jurisdiction)

    @property
    def requirements_in_some_jurisdiction(self) -> frozenset[str]:
        return self._ids_of(self.mask_in_some_jurisdiction)


class Severity(str, Enum):
    ERROR = "ERROR"
    WARNING = "WARNING"


# Issue codes emitted by validate() and find_warnings().
DUP_ID = "DUP_ID"
DUP_EDGE = "DUP_EDGE"
EMPTY_ID = "EMPTY_ID"
EMPTY_SCOPE = "EMPTY_SCOPE"
KIND_FIELDS = "KIND_FIELDS"
SELF_EDGE = "SELF_EDGE"
UNKNOWN_REF = "UNKNOWN_REF"
CYCLE = "CYCLE"
RL_COVERAGE = "RL_COVERAGE"
# Emitted by analysis.consistency_diagnostics, merged into reports by the CLI.
IMPLICATION_VIOLATED = "IMPLICATION_VIOLATED"


@dataclass(frozen=True)
class Issue:
    """One violation: a code, a human-readable message, and the offending ids."""

    severity: Severity
    code: str
    message: str
    ids: tuple[str, ...] = ()

    def sort_key(self) -> tuple[str, tuple[str, ...]]:
        return (self.code, self.ids)


@dataclass(frozen=True)
class ValidationReport:
    """The errors `validate` found, sorted by `Issue.sort_key`; `find_warnings`
    finds the warnings."""

    errors: tuple[Issue, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors


def _error(code: str, message: str, ids: tuple[str, ...]) -> Issue:
    return Issue(Severity.ERROR, code, message, ids)


def _warning(code: str, message: str, ids: tuple[str, ...]) -> Issue:
    return Issue(Severity.WARNING, code, message, ids)


def _check_ids(entities, ids: frozenset[str], label: str, issues: list[Issue]) -> None:
    if len(ids) == len(entities) and all(ids):
        return
    for entity_id, count in Counter(entity.id for entity in entities).items():
        if not entity_id:
            issues.extend([_error(EMPTY_ID, f"{label} with empty id", (entity_id,))] * count)
        elif count > 1:
            issues.append(_error(DUP_ID, f"duplicate {label} id: {entity_id}", (entity_id,)))


def _check_refs(
    owner_id: str, refs: Iterable[str], known: frozenset[str], what: str, issues: list[Issue]
) -> None:
    if known.issuperset(refs):
        return
    for ref in refs:
        if ref not in known:
            issues.append(
                _error(
                    UNKNOWN_REF,
                    f"{owner_id} references unknown {what}: {ref}",
                    (owner_id, ref),
                )
            )


def _kind_problems(req: Requirement) -> list[str]:
    problems = []
    if req.kind is Kind.RL:
        if not req.derived_from:
            problems.append("RL requirement must cite at least one regulation")
        if req.human_factors:
            problems.append("RL requirement must not carry human-factor tags")
    else:
        if req.derived_from:
            problems.append("RFN requirement must not cite regulations")
    return problems


def _cycle_components(children: Mapping[str, frozenset[str]]) -> list[list[str]]:
    """Strongly connected components of size >= 2, each sorted, in sorted order.

    The package's one cycle detector, over an index that maps every node to
    its children (as `_adjacency` builds it): `validate` reports its
    components, so `refinement.build_graph` refuses a catalog that has
    any. Kahn's peel first drops, over and over, every node with no
    incoming edge left, since no cycle passes through it; iterative Tarjan
    then runs on what remains, which is nothing for an acyclic edge set.
    A node left with an incoming edge has only such nodes as children.
    """
    indegree = Counter(chain.from_iterable(children.values()))
    ready = [node for node in children if node not in indegree]
    while ready:
        for child in children[ready.pop()]:
            indegree[child] -= 1
            if not indegree[child]:
                ready.append(child)

    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    work: list[tuple[str, Iterator[str]]] = []  # (node, its children not yet tried)

    def enter(node: str) -> None:
        index[node] = lowlink[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        work.append((node, iter(children[node])))

    for root, count in indegree.items():
        if count and root not in index:
            enter(root)
        while work:
            node, pending = work[-1]
            for child in pending:
                if child not in index:
                    enter(child)
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        components.append(sorted(component))
    return sorted(components)


def _check_edges(
    edges: tuple[RefinementEdge, ...], requirement_ids: frozenset[str], issues: list[Issue]
) -> None:
    """Report every duplicated, self-looped or dangling edge."""
    for pair, count in Counter((edge.stronger, edge.weaker) for edge in edges).items():
        if count > 1:
            issues.append(
                _error(DUP_EDGE, f"duplicate refinement edge {pair[0]} -> {pair[1]}", pair)
            )
        if pair[0] == pair[1]:
            issues.append(_error(SELF_EDGE, f"refinement self-edge on {pair[0]}", (pair[0],)))
            continue
        for endpoint in pair:
            if endpoint not in requirement_ids:
                issues.append(
                    _error(
                        UNKNOWN_REF,
                        f"refinement edge {pair[0]} -> {pair[1]} "
                        f"references unknown requirement: {endpoint}",
                        (endpoint, pair[0], pair[1]),
                    )
                )


def validate(catalog: Catalog) -> ValidationReport:
    """Check every catalog invariant and report all violations.

    Violations are data, not exceptions. The report ordering is
    deterministic: issues sorted by code, then by offending ids.
    """
    errors: list[Issue] = []

    jurisdiction_ids = catalog.jurisdiction_ids
    regulation_ids = catalog.regulation_ids
    product_ids = catalog.product_ids
    requirement_ids = catalog.requirement_ids

    _check_ids(catalog.jurisdictions, jurisdiction_ids, "jurisdiction", errors)
    _check_ids(catalog.regulations, regulation_ids, "regulation", errors)
    _check_ids(catalog.products, product_ids, "product", errors)
    _check_ids(catalog.requirements, requirement_ids, "requirement", errors)

    for reg in catalog.regulations:
        if reg.jurisdictions is not ALL:
            if not reg.jurisdictions:
                errors.append(
                    _error(
                        EMPTY_SCOPE,
                        f"regulation {reg.id} belongs to no jurisdiction",
                        (reg.id,),
                    )
                )
            _check_refs(reg.id, reg.jurisdictions, jurisdiction_ids, "jurisdiction", errors)

    for req in catalog.requirements:
        problems = _kind_problems(req)
        if problems:
            errors.append(
                _error(KIND_FIELDS, f"{req.id}: " + "; ".join(problems), (req.id,))
            )
        _check_refs(req.id, req.derived_from, regulation_ids, "regulation", errors)
        if req.applies_to_products is not ALL:
            _check_refs(req.id, req.applies_to_products, product_ids, "product", errors)
        if req.applies_to_jurisdictions is not ALL:
            _check_refs(
                req.id, req.applies_to_jurisdictions, jurisdiction_ids, "jurisdiction", errors
            )

    children = catalog.refinement_children
    # The index keeps every edge only if none is duplicated, self-looped or dangling.
    if sum(map(len, children.values())) != len(catalog.refinements):
        _check_edges(catalog.refinements, requirement_ids, errors)

    for component in _cycle_components(children):
        errors.append(
            _error(
                CYCLE,
                "refinement cycle through: " + ", ".join(component),
                tuple(component),
            )
        )

    return ValidationReport(tuple(sorted(errors, key=Issue.sort_key)))


def find_warnings(catalog: Catalog) -> tuple[Issue, ...]:
    """The EMPTY_SCOPE and RL_COVERAGE warnings, sorted by `Issue.sort_key`,
    in one pass over the requirements. A regulation id that occurs twice
    covers the union of its scopes (`_union_by_id`, the fold of the "every"
    aggregates), as in `Catalog.regulations_by_jurisdiction`."""
    covers = _union_by_id(catalog.regulations, catalog._regulation_scopes)
    warnings: list[Issue] = []
    for req, applicable in zip(catalog.requirements, catalog._jurisdiction_scopes):
        if not req.applies_to_products or not req.applies_to_jurisdictions:
            warnings.append(
                _warning(EMPTY_SCOPE, f"requirement {req.id} has an empty scope", (req.id,))
            )
        if req.kind is not Kind.RL:
            continue
        uncovered = applicable.difference(*(covers[r] for r in req.derived_from if r in covers))
        if uncovered:
            uncovered = sorted(uncovered)
            warnings.append(
                _warning(
                    RL_COVERAGE,
                    f"{req.id} applies to jurisdictions not covered by its "
                    "cited regulations: " + ", ".join(uncovered),
                    (req.id, *uncovered),
                )
            )
    return tuple(sorted(warnings, key=Issue.sort_key))
