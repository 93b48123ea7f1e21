"""Catalog file format and graph-view export.

Catalog files are single UTF-8 JSON documents (extension `.reqcat.json`)
with exactly the top-level keys version, jurisdictions, regulations,
products, requirements, refinements. The schema is strict: unknown keys,
a key repeated within one object, wrong types, and a version other than 1
are rejected, because compliance data should fail loudly rather than
silently drop fields. An ALL scope is written as the literal string "all"
in place of an id array.

`save` is canonical: fixed key order, arrays sorted by id, inner id lists
sorted, 2-space indentation, trailing newline. Loading a saved catalog
returns an equal catalog, and saving a loaded document canonicalises it.
The text is written directly and equals `json.dumps(document, indent=2,
ensure_ascii=False) + "\n"` of the catalog's plain-dict form; a field of a
type the schema rejects raises TypeError instead of writing a bad file.

Graph views (extension `.dot`, UTF-8, LF) render the architectural
dependencies as digraph text:

* country-centred: the focus jurisdiction's regulations split into the
  shared core and the jurisdiction-only complement, feeding the
  general/specific partitions of each product, with the RFN partitions
  alongside;
* product-centred: the focus product's complete requirement set decomposed
  into its per-jurisdiction RL/RFN projections;
* global: every (product, jurisdiction) RL projection feeding the
  per-jurisdiction minimum and strongest sets, which feed the overall
  strongest set.

Loading keeps one copy of each fact and does its per-item work in
C-level passes. `load` and `loads` decode the text, parse it with
`json.loads` and drop it before any entity is built. Each collection is
then checked and converted one field (column) at a time and taken out of
the document. Its entities are made with `object.__new__` and each field
is set through its slot, because every column already holds the field's
final type. Equal id arrays become one shared frozenset, through a dict
that lives only for the call. A text with no backslash is parsed without
an object hook, and a repeated key is found by counting colons (see
`_load`). When the count is off, or the document fails a check, the text
is decoded again, by `loads` from its argument and by `load` from the
file, and parsed with `_object`, which names the repeated key; a text
with a backslash is parsed that way at once.

`write_dot` streams a view to a file line by line; `render_dot` joins the
same lines into one string.

Load/save/export are pure with respect to the catalog; output is
byte-identical across runs.
"""

from __future__ import annotations

import gc
import json
from collections import deque
from enum import Enum
from itertools import chain, repeat
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import algebra
from .errors import (
    FocusForbiddenError,
    FocusRequiredError,
    ParseError,
    SchemaError,
    UnknownIdError,
)
from .model import (
    ALL,
    Catalog,
    Jurisdiction,
    Kind,
    Product,
    RefinementEdge,
    Regulation,
    Requirement,
    Scope,
)

if TYPE_CHECKING:
    from .refinement import RefinementGraph

CATALOG_VERSION = 1

_TOP_KEYS = ("version", "jurisdictions", "regulations", "products", "requirements", "refinements")
_KINDS = {kind.value: kind for kind in Kind}


class _Shape:
    """The schema of one entity collection, read by the converting path
    and by the explaining path.

    `fields` lists (key, type) in the order a wrong value is reported and
    `required` lists keys in the order a missing one is reported. Types:
    "str" (required string), "text" (optional string, default ""), "kind",
    "ids" (optional id array, default []) and "scope" ("all" or an id array).
    Every required key has a type that refuses the None a missing key
    reads as, so the fast path tests only for unknown keys. Each key names
    a field of `entity`, and `setters` holds each field's slot setter.
    """

    def __init__(
        self, entity: type, fields: tuple[tuple[str, str], ...], required: tuple[str, ...]
    ) -> None:
        self.entity = entity
        self.fields = fields
        self.required = required
        self.allowed_keys = frozenset(key for key, _ in fields)
        self.setters = {key: entity.__dict__[key].__set__ for key, _ in fields}


_SHAPES = {
    "jurisdictions": _Shape(Jurisdiction, (("id", "str"), ("name", "text")), ("id",)),
    "regulations": _Shape(
        Regulation,
        (("id", "str"), ("title", "text"), ("jurisdictions", "scope")),
        ("id", "jurisdictions"),
    ),
    "products": _Shape(Product, (("id", "str"), ("name", "text")), ("id",)),
    "requirements": _Shape(
        Requirement,
        (
            ("kind", "kind"),
            ("id", "str"),
            ("title", "text"),
            ("derived_from", "ids"),
            ("human_factors", "ids"),
            ("applies_to_products", "scope"),
            ("applies_to_jurisdictions", "scope"),
        ),
        ("id", "kind", "applies_to_products", "applies_to_jurisdictions"),
    ),
    "refinements": _Shape(
        RefinementEdge, (("stronger", "str"), ("weaker", "str")), ("stronger", "weaker")
    ),
}
_DEFAULTS = {"text": "", "ids": []}


# The fast path checks and converts a whole collection one field (column)
# at a time in C-level passes, builds no message, and raises _Mismatch on
# anything amiss; _explain then walks the collection again to name the
# first bad entry. Each converter takes the column and the one _Shared of
# a load, and returns the converted column and the number of colons in the
# column's strings, which `_load` needs to find repeated keys.


class _Mismatch(Exception):
    """A collection does not fit its shape; _explain says where."""


class _Shared(dict):
    """The id sets of one load: `shared[ids]` is the first set equal to
    `ids`, so equal id arrays become one frozenset."""

    def __missing__(self, ids: frozenset[str]) -> frozenset[str]:
        self[ids] = ids
        return ids


_DICT = frozenset({dict})
_LIST = frozenset({list})


def _strs(column: list, shared) -> tuple[list[str], int]:
    try:
        # One pass in C: TypeError unless every item is a string.
        return column, "".join(column).count(":")
    except TypeError:
        raise _Mismatch from None


def _kinds(column: list, shared) -> tuple[list[Kind], int]:
    try:
        return list(map(_KINDS.__getitem__, column)), 0
    except (KeyError, TypeError):
        raise _Mismatch from None


def _ids(column: list, shared: _Shared) -> tuple[list[frozenset[str]], int]:
    if not _LIST.issuperset(map(type, column)):
        raise _Mismatch
    try:
        colons = "".join(chain.from_iterable(column)).count(":")
    except TypeError:
        raise _Mismatch from None
    # Each set is shared as soon as it is built: a copy of a set already
    # seen is freed at once, so the sets that stay sit together in memory.
    sets = list(map(shared.__getitem__, map(frozenset, column)))
    # No set is longer than its array, so equal totals mean no repeated id.
    if sum(map(len, sets)) != sum(map(len, column)):
        raise _Mismatch
    return sets, colons


_EMPTY_IF_STR = {str: []}.get  # (type, value) -> [] for a string, else value
_ALL_IF_STR = {str: ALL}.get  # (type, value) -> ALL for a string, else value


def _scopes(column: list, shared: _Shared) -> tuple[list[Scope], int]:
    types = list(map(type, column))
    if column.count("all") != types.count(str):
        raise _Mismatch
    # Each "all" goes through _ids as an empty array and comes out as ALL.
    sets, colons = _ids(list(map(_EMPTY_IF_STR, types, column)), shared)
    return list(map(_ALL_IF_STR, types, sets)), colons


_CONVERT = {"str": _strs, "text": _strs, "kind": _kinds, "ids": _ids, "scope": _scopes}


def _entities(value, label: str, shared: _Shared) -> tuple[list, int]:
    """Build the entities of one top-level collection, or raise the
    SchemaError of its first bad entry in document order. Also return the
    number of keys in its objects plus the colons in its strings."""
    shape = _SHAPES[label]
    try:
        if not (
            type(value) is list
            and _DICT.issuperset(map(type, value))
            and all(map(shape.allowed_keys.issuperset, value))
        ):
            raise _Mismatch
        found = sum(map(len, value))
        columns = []
        for key, kind in shape.fields:
            column = list(map(dict.get, value, repeat(key), repeat(_DEFAULTS.get(kind))))
            column, colons = _CONVERT[kind](column, shared)
            columns.append((shape.setters[key], column))
            found += colons
    except _Mismatch:
        _explain(value, label)
        raise
    # `_collections` popped the collection, so its entries go before the entities are built.
    count = len(value)
    del value, column
    # Every column already holds its field's final type, so each field is
    # set through its slot, and the frozen dataclass `__init__` (one
    # `object.__setattr__` per field) is skipped.
    entities = list(map(object.__new__, repeat(shape.entity, count)))
    for setter, column in columns:
        deque(map(setter, entities, column), 0)
    return entities, found


# The explaining path: the same checks in report order, with messages.


def _check_keys(obj: dict, allowed, required: tuple[str, ...], where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{where}: missing key {key!r}")


def _check_ids(value, where: str) -> None:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected array of strings, got {type(value).__name__}")
    seen: set[str] = set()
    for item in value:
        if not isinstance(item, str):
            raise SchemaError(f"{where}: expected array of strings")
        if item in seen:
            raise SchemaError(f"{where}: duplicate entry {item!r}")
        seen.add(item)


def _check_value(value, kind: str, where: str) -> None:
    if kind in ("str", "text", "kind") and not isinstance(value, str):
        raise SchemaError(f"{where}: expected string, got {type(value).__name__}")
    if kind == "kind" and value not in _KINDS:
        raise SchemaError(f"{where}: expected \"RL\" or \"RFN\", got {value!r}")
    if kind == "ids" or (kind == "scope" and value != "all"):
        _check_ids(value, where)


def _explain(value, label: str) -> None:
    """Raise the SchemaError of the first bad entry of collection `label`."""
    if not isinstance(value, list):
        raise SchemaError(f"{label}: expected array, got {type(value).__name__}")
    for i, item in enumerate(value):
        if not isinstance(item, dict):
            raise SchemaError(f"{label}[{i}]: expected object, got {type(item).__name__}")
    shape = _SHAPES[label]
    for i, obj in enumerate(value):
        where = f"{label}[{i}]"
        _check_keys(obj, shape.allowed_keys, shape.required, where)
        for key, kind in shape.fields:
            _check_value(obj.get(key, _DEFAULTS.get(kind)), kind, f"{where}.{key}")


def _object(pairs: list[tuple[str, object]]) -> dict:
    """One decoded JSON object. `json` would keep only the last value of a
    repeated key, so a repeated key is refused instead."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                # Not a ValueError, so `_parse` lets it through as it is.
                raise SchemaError(f"repeated key {key!r} in a JSON object")
            seen.add(key)
    return obj


def _check_encodable(text: str) -> None:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise SchemaError("catalog strings must not hold lone UTF-16 surrogates") from exc


def _text(source: str | bytes | bytearray) -> str:
    """The catalog text of `loads`' argument."""
    if isinstance(source, (bytes, bytearray)):
        try:
            return source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"catalog is not valid UTF-8: {exc}") from exc
    _check_encodable(source)
    return source


_TOO_DEEP = "malformed catalog document: arrays or objects nested too deeply"


def _parse(text: str, hook=None):
    """The decoded JSON document of `text`, objects made by `hook`."""
    try:
        return json.loads(text, object_pairs_hook=hook)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"malformed catalog document at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ParseError("malformed catalog document: integer literal too long") from exc
    except RecursionError as exc:
        raise ParseError(_TOO_DEEP) from exc


def _check_strings(document) -> None:
    """Refuse a lone surrogate in the strings of a decoded document."""
    try:
        text = json.dumps(document, ensure_ascii=False)
    except RecursionError as exc:
        raise ParseError(_TOO_DEEP) from exc
    _check_encodable(text)


def _collections(document) -> tuple[dict[str, list], int]:
    """Schema-check a parsed document and build its entities, taking each
    collection out of it as it goes. Return the entity lists by label and
    the number of keys in the document plus the colons in its strings."""
    if not isinstance(document, dict):
        raise SchemaError(f"top level: expected object, got {type(document).__name__}")
    _check_keys(document, _TOP_KEYS, _TOP_KEYS, "top level")
    version = document["version"]
    if not isinstance(version, int) or isinstance(version, bool) or version != CATALOG_VERSION:
        raise SchemaError(f"version: expected {CATALOG_VERSION}, got {version!r}")
    # Collections are built in schema order, so the first bad one is
    # reported. The id sets are shared only within this call.
    shared = _Shared()
    found = len(document)
    collections = {}
    for label in _SHAPES:
        collections[label], count = _entities(document.pop(label), label, shared)
        found += count
    return collections, found


def _load(text: str, again) -> Catalog:
    """The catalog of `text`; `again()` returns the same text anew.

    A text with no backslash is parsed without an object hook. Every `:`
    in it either separates a key or sits in a string, and a repeated key
    drops a key from the decoded document and adds none. So once the
    schema checks pass, no object repeats a key exactly when the text's
    colons are as many as the document's keys plus the colons in its
    strings. On any other outcome the text is parsed again with `_object`,
    as a text with a backslash is at once, so the first error reported is
    the one the hook finds. Neither path keeps the text while the entities
    are built.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        if "\\" not in text:
            colons = text.count(":")
            try:
                document = _parse(text)
                del text
                collections, found = _collections(document)
                if found == colons:
                    return Catalog(**collections)
            except (ParseError, SchemaError):
                pass
            document = collections = None  # freed before the second parse
            text = again()
        # Only a `\u` escape can put a lone surrogate into a string.
        escaped = "\\u" in text
        document = _parse(text, _object)
        del text
        if escaped:
            _check_strings(document)
        return Catalog(**_collections(document)[0])
    finally:
        if enabled:
            gc.enable()


def loads(text: str | bytes) -> Catalog:
    """Parse and schema-check a catalog document.

    Semantic validation is separate: model.validate reports it, and
    refinement.build_graph refuses catalogs that have errors. The document
    holds no reference cycles, so the call pauses the process-wide cyclic
    collector and restores the state it found (enabled or disabled).
    Equal id arrays of the document become one shared frozenset. An object
    that repeats a key is a SchemaError that names the key; finding one
    decodes `text` a second time.
    """
    return _load(_text(text), lambda: _text(text))


def load(path: str | Path) -> Catalog:
    """Read and parse the catalog file at `path`; `loads` parses text or bytes."""
    # No name here holds the file's bytes or text, so they are freed once
    # parsed; a second parse reads the file again.
    return _load(_text(_read(path)), lambda: _text(_read(path)))


def _read(path: str | Path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


_str = json.encoder.encode_basestring  # the C encoder json.dumps uses per string


def _ids_text(ids) -> str:
    ids = sorted(ids)
    return "[\n        " + ",\n        ".join(map(_str, ids)) + "\n      ]" if ids else "[]"


def _scope_text(scope: Scope) -> str:
    return '"all"' if scope is ALL else _ids_text(scope)


def _array_text(entries: list[str]) -> str:
    return "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"


def dumps(catalog: Catalog) -> str:
    """The canonical text of a catalog: `save` before UTF-8 encoding."""
    jurisdictions, products = (
        [f'    {{\n      "id": {_str(e.id)},\n      "name": {_str(e.name)}\n    }}' for e in entities]
        for entities in (catalog.jurisdictions, catalog.products)
    )
    regulations = [
        f'    {{\n      "id": {_str(r.id)},\n      "title": {_str(r.title)},\n'
        f'      "jurisdictions": {_scope_text(r.jurisdictions)}\n    }}'
        for r in catalog.regulations
    ]
    requirements = [
        f'    {{\n      "id": {_str(q.id)},\n      "kind": {_str(q.kind.value)},\n'
        f'      "title": {_str(q.title)},\n      "derived_from": {_ids_text(q.derived_from)},\n'
        f'      "human_factors": {_ids_text(q.human_factors)},\n'
        f'      "applies_to_products": {_scope_text(q.applies_to_products)},\n'
        f'      "applies_to_jurisdictions": {_scope_text(q.applies_to_jurisdictions)}\n    }}'
        for q in catalog.requirements
    ]
    refinements = [
        f'    {{\n      "stronger": {_str(e.stronger)},\n      "weaker": {_str(e.weaker)}\n    }}'
        for e in catalog.refinements
    ]
    return (
        f'{{\n  "version": {CATALOG_VERSION},\n'
        f'  "jurisdictions": {_array_text(jurisdictions)},\n'
        f'  "regulations": {_array_text(regulations)},\n'
        f'  "products": {_array_text(products)},\n'
        f'  "requirements": {_array_text(requirements)},\n'
        f'  "refinements": {_array_text(refinements)}\n}}\n'
    )


def save(catalog: Catalog) -> bytes:
    """Canonical byte serialisation; load(save(c)) == c."""
    return dumps(catalog).encode("utf-8")


def save_file(catalog: Catalog, path) -> None:
    Path(path).write_bytes(save(catalog))


class ViewKind(str, Enum):
    COUNTRY_CENTRED = "country"
    PRODUCT_CENTRED = "product"
    GLOBAL = "global"


class _View(NamedTuple):
    kind: ViewKind
    nodes: tuple[tuple[str, str], ...]
    edges: tuple[tuple[str, str], ...]


class GraphView(_View):
    """A renderable dependency view: labelled nodes and directed edges.
    Making one checks that the node ids are distinct and that every edge
    joins two of them."""

    __slots__ = ()

    def __new__(
        cls, kind: ViewKind, nodes: tuple[tuple[str, str], ...], edges: tuple[tuple[str, str], ...]
    ) -> GraphView:
        node_ids = [node_id for node_id, _ in nodes]
        if len(node_ids) != len(set(node_ids)):
            raise ValueError("duplicate node ids in graph view")
        known = set(node_ids)
        for src, dst in edges:
            if src not in known or dst not in known:
                raise ValueError(f"edge endpoint missing from view: {src} -> {dst}")
        return super().__new__(cls, kind, nodes, edges)


def _node_id(prefix: str, *ids: str) -> str:
    """`prefix__id1__id2...` with every `_` inside an id written as `_u`.

    An escaped id never contains `__`, so the separators are unambiguous
    and distinct id tuples give distinct node ids. Ids without `_` appear
    verbatim.
    """
    return "__".join((prefix, *(i.replace("_", "_u") for i in ids)))


def _label_ids(ids) -> str:
    """The label text of `ids`, a sorted list or a `RequirementSet`, which
    iterates in sorted order."""
    return ", ".join(ids) if ids else "(none)"


def _country_view(catalog: Catalog, jurisdiction_id: str) -> GraphView:
    core, complements = algebra.shared_regulations(catalog)
    nodes = [
        ("complement", f"Jurisdiction-only regulations [{jurisdiction_id}]: "
                       + _label_ids(sorted(complements[jurisdiction_id]))),
        ("core", "Shared regulations: " + _label_ids(sorted(core))),
    ]
    edges = []
    for product in catalog.products:
        pid = product.id
        # Only the focus jurisdiction's specific parts are rendered, so the
        # partition is built for that one jurisdiction.
        for kind in Kind:
            general = algebra.general_part(catalog, pid, kind)
            specific = algebra.requirements_for(catalog, pid, jurisdiction_id, kind) - general
            prefix = kind.value.lower()
            general_node = _node_id(f"{prefix}_general", pid)
            specific_node = _node_id(f"{prefix}_specific", pid)
            nodes.append((general_node, f"{kind.value} general [{pid}]: " + _label_ids(general)))
            label = f"{kind.value} specific [{pid}, {jurisdiction_id}]: "
            nodes.append((specific_node, label + _label_ids(specific)))
            if kind is Kind.RL:
                edges.append(("core", general_node))
                edges.append(("complement", specific_node))
    return GraphView(ViewKind.COUNTRY_CENTRED, tuple(sorted(nodes)), tuple(sorted(edges)))


def _product_view(catalog: Catalog, product_id: str) -> GraphView:
    union = algebra.product_union(catalog, product_id)
    nodes = [("union", f"All requirements [{product_id}]: " + _label_ids(union))]
    edges = []
    for jurisdiction in catalog.jurisdictions:
        jid = jurisdiction.id
        for kind in Kind:
            projection = algebra.requirements_for(catalog, product_id, jid, kind)
            node = _node_id(kind.value.lower(), jid)
            nodes.append((node, f"{kind.value} [{product_id}, {jid}]: " + _label_ids(projection)))
            edges.append((node, "union"))
    return GraphView(ViewKind.PRODUCT_CENTRED, tuple(sorted(nodes)), tuple(sorted(edges)))


def _global_view(catalog: Catalog, graph: RefinementGraph) -> GraphView:
    from .refinement import strongest_global, strongest_rl

    nodes: list[tuple[str, str]] = []
    edges: list[tuple[str, str]] = []
    if catalog.products and catalog.jurisdictions:
        for jurisdiction in catalog.jurisdictions:
            jid = jurisdiction.id
            minimum = algebra.rl_min(catalog, jid)
            strongest = strongest_rl(catalog, graph, jid)
            min_node, star_node = _node_id("rl_min", jid), _node_id("rl_star", jid)
            nodes.append((min_node, f"RL minimum [{jid}]: " + _label_ids(minimum)))
            nodes.append((star_node, f"RL strongest [{jid}]: " + _label_ids(strongest)))
            edges.append((star_node, "star"))
            for product in catalog.products:
                pid = product.id
                projection = algebra.requirements_for(catalog, pid, jid, Kind.RL)
                proj_node = _node_id("proj", pid, jid)
                nodes.append((proj_node, f"RL [{pid}, {jid}]: " + _label_ids(projection)))
                edges.append((proj_node, min_node))
                edges.append((proj_node, star_node))
        overall = strongest_global(catalog, graph)
        nodes.append(("star", "Strongest overall: " + _label_ids(overall)))
    return GraphView(ViewKind.GLOBAL, tuple(sorted(nodes)), tuple(sorted(edges)))


def build_view(
    catalog: Catalog,
    graph: RefinementGraph,
    kind: ViewKind | str,
    focus: str | None = None,
) -> GraphView:
    """Assemble one of the three dependency views over a validated catalog."""
    kind = ViewKind(kind)
    if kind is ViewKind.COUNTRY_CENTRED:
        if focus is None:
            raise FocusRequiredError("country-centred view needs a jurisdiction focus")
        if focus not in catalog.jurisdiction_ids:
            raise UnknownIdError(f"unknown jurisdiction: {focus!r}")
        return _country_view(catalog, focus)
    if kind is ViewKind.PRODUCT_CENTRED:
        if focus is None:
            raise FocusRequiredError("product-centred view needs a product focus")
        return _product_view(catalog, focus)
    if focus is not None:
        raise FocusForbiddenError("global view takes no focus")
    return _global_view(catalog, graph)


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_lines(view: GraphView):
    yield f"digraph {view.kind.name.lower()} {{"
    yield "  rankdir=LR;"
    yield "  node [shape=box];"
    for node_id, label in view.nodes:
        yield f"  {_dot_quote(node_id)} [label={_dot_quote(label)}];"
    for src, dst in view.edges:
        yield f"  {_dot_quote(src)} -> {_dot_quote(dst)};"
    yield "}"


def render_dot(view: GraphView) -> str:
    """Render a view as digraph text with deterministic node ordering."""
    return "\n".join(_dot_lines(view)) + "\n"


def write_dot(view: GraphView, path) -> None:
    """Write `render_dot(view)` to `path` as UTF-8, one line at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.writelines(line + "\n" for line in _dot_lines(view))
