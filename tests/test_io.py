from __future__ import annotations

import dataclasses
import gc
import json
import random
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catgen  # bench/catgen.py
from randcat import random_catalog
from reqlattice import io as catalog_io
from reqlattice.errors import (
    FocusForbiddenError,
    FocusRequiredError,
    ParseError,
    SchemaError,
    UnknownIdError,
)
from reqlattice.io import (
    GraphView,
    ViewKind,
    build_view,
    dumps,
    load,
    loads,
    render_dot,
    save,
    save_file,
    write_dot,
)
from reqlattice.model import (
    ALL,
    Catalog,
    Jurisdiction,
    Kind,
    Product,
    RefinementEdge,
    Regulation,
    Requirement,
    find_warnings,
    validate,
)
from reqlattice.refinement import build_graph

DATA = Path(__file__).parent / "data"
LOADABLE = sorted(set(DATA.glob("*.reqcat.json")) - {DATA / "malformed.reqcat.json"})

MINIMAL = (
    '{"version": 1, "jurisdictions": [], "regulations": [], "products": [],'
    ' "requirements": [], "refinements": []}'
)

SMALL = Catalog(
    jurisdictions=[Jurisdiction("C1", name="Utopia")],
    regulations=[Regulation("g", title="General act", jurisdictions={"C1"})],
    products=[Product("P1", name="App")],
    requirements=[Requirement("r1", Kind.RL, title="Keep logs", derived_from={"g"})],
)


def test_load_minimal_document_gives_empty_catalog():
    catalog = loads(MINIMAL)
    assert catalog == Catalog()


def test_version_mismatch_names_the_key():
    doc = json.loads(MINIMAL)
    doc["version"] = 2
    with pytest.raises(SchemaError, match="version"):
        loads(json.dumps(doc))
    doc["version"] = "1"
    with pytest.raises(SchemaError, match="version"):
        loads(json.dumps(doc))
    doc["version"] = True
    with pytest.raises(SchemaError, match="version"):
        loads(json.dumps(doc))


def test_the_version_is_a_constant_of_the_file_format():
    # A catalog has no version of its own, so `save` cannot write one that
    # `load` refuses.
    for version in (2, True, "1"):
        with pytest.raises(TypeError):
            Catalog(version=version)
    assert json.loads(save(SMALL))["version"] == 1


def test_unknown_and_missing_keys_are_schema_errors():
    doc = json.loads(MINIMAL)
    doc["extra"] = []
    with pytest.raises(SchemaError, match="extra"):
        loads(json.dumps(doc))

    doc = json.loads(MINIMAL)
    del doc["products"]
    with pytest.raises(SchemaError, match="products"):
        loads(json.dumps(doc))

    doc = json.loads(MINIMAL)
    doc["jurisdictions"] = [{"id": "C1", "nickname": "x"}]
    with pytest.raises(SchemaError, match="nickname"):
        loads(json.dumps(doc))


def test_wrong_types_are_schema_errors():
    doc = json.loads(MINIMAL)
    doc["products"] = [{"id": 7}]
    with pytest.raises(SchemaError, match=r"products\[0\].id"):
        loads(json.dumps(doc))

    doc = json.loads(MINIMAL)
    doc["requirements"] = "nope"
    with pytest.raises(SchemaError, match="requirements"):
        loads(json.dumps(doc))

    for text, name in (("[]", "list"), ("5", "int"), ('"x"', "str"), ("null", "NoneType")):
        with pytest.raises(SchemaError) as excinfo:
            loads(text)
        assert str(excinfo.value) == f"top level: expected object, got {name}"

    doc = json.loads(MINIMAL)
    doc["requirements"] = [
        {
            "id": "r1",
            "kind": "LEGAL",
            "applies_to_products": "all",
            "applies_to_jurisdictions": "all",
        }
    ]
    with pytest.raises(SchemaError, match="kind"):
        loads(json.dumps(doc))


def test_duplicate_array_entries_are_schema_errors():
    doc = json.loads(MINIMAL)
    doc["regulations"] = [{"id": "g", "jurisdictions": ["C1", "C1"]}]
    with pytest.raises(SchemaError, match="duplicate"):
        loads(json.dumps(doc))


def test_duplicate_entry_message_names_the_first_duplicate():
    doc = json.loads(MINIMAL)
    doc["regulations"] = [{"id": "g", "jurisdictions": ["C1", "C2", "C2", "C1"]}]
    with pytest.raises(SchemaError) as excinfo:
        loads(json.dumps(doc))
    assert str(excinfo.value) == "regulations[0].jurisdictions: duplicate entry 'C2'"


# Every schema message, pinned: (collection, key, value, message). The
# value replaces the key in one valid entry; MISSING deletes it, and a
# message of None means the entry still loads.
MISSING = ...
VALID_ENTRY = {
    "jurisdictions": {"id": "C1", "name": "Utopia"},
    "regulations": {"id": "g", "title": "General act", "jurisdictions": ["C1"]},
    "products": {"id": "P1", "name": "App"},
    "requirements": {
        "id": "r1",
        "kind": "RL",
        "title": "Keep logs",
        "derived_from": ["g"],
        "human_factors": [],
        "applies_to_products": "all",
        "applies_to_jurisdictions": ["C1"],
    },
    "refinements": {"stronger": "r1", "weaker": "r2"},
}
SCHEMA_MESSAGES = [
    ('jurisdictions', 'id', MISSING, "jurisdictions[0]: missing key 'id'"),
    ('jurisdictions', 'id', 7, 'jurisdictions[0].id: expected string, got int'),
    ('jurisdictions', 'id', True, 'jurisdictions[0].id: expected string, got bool'),
    ('jurisdictions', 'id', None, 'jurisdictions[0].id: expected string, got NoneType'),
    ('jurisdictions', 'id', {}, 'jurisdictions[0].id: expected string, got dict'),
    ('jurisdictions', 'id', [], 'jurisdictions[0].id: expected string, got list'),
    ('jurisdictions', 'id', ['x'], 'jurisdictions[0].id: expected string, got list'),
    ('jurisdictions', 'name', MISSING, None),
    ('jurisdictions', 'name', 7, 'jurisdictions[0].name: expected string, got int'),
    ('jurisdictions', 'name', True, 'jurisdictions[0].name: expected string, got bool'),
    ('jurisdictions', 'name', None, 'jurisdictions[0].name: expected string, got NoneType'),
    ('jurisdictions', 'name', {}, 'jurisdictions[0].name: expected string, got dict'),
    ('jurisdictions', 'name', [], 'jurisdictions[0].name: expected string, got list'),
    ('jurisdictions', 'name', ['x'], 'jurisdictions[0].name: expected string, got list'),
    ('jurisdictions', 'nickname', 'x', "jurisdictions[0]: unknown key 'nickname'"),
    ('regulations', 'id', MISSING, "regulations[0]: missing key 'id'"),
    ('regulations', 'id', 7, 'regulations[0].id: expected string, got int'),
    ('regulations', 'id', True, 'regulations[0].id: expected string, got bool'),
    ('regulations', 'id', None, 'regulations[0].id: expected string, got NoneType'),
    ('regulations', 'id', {}, 'regulations[0].id: expected string, got dict'),
    ('regulations', 'id', [], 'regulations[0].id: expected string, got list'),
    ('regulations', 'id', ['x'], 'regulations[0].id: expected string, got list'),
    ('regulations', 'title', MISSING, None),
    ('regulations', 'title', 7, 'regulations[0].title: expected string, got int'),
    ('regulations', 'title', True, 'regulations[0].title: expected string, got bool'),
    ('regulations', 'title', None, 'regulations[0].title: expected string, got NoneType'),
    ('regulations', 'title', {}, 'regulations[0].title: expected string, got dict'),
    ('regulations', 'title', [], 'regulations[0].title: expected string, got list'),
    ('regulations', 'title', ['x'], 'regulations[0].title: expected string, got list'),
    ('regulations', 'jurisdictions', MISSING, "regulations[0]: missing key 'jurisdictions'"),
    ('regulations', 'jurisdictions', 7, 'regulations[0].jurisdictions: expected array of strings, got int'),
    ('regulations', 'jurisdictions', True, 'regulations[0].jurisdictions: expected array of strings, got bool'),
    ('regulations', 'jurisdictions', None, 'regulations[0].jurisdictions: expected array of strings, got NoneType'),
    ('regulations', 'jurisdictions', {}, 'regulations[0].jurisdictions: expected array of strings, got dict'),
    ('regulations', 'jurisdictions', 'x', 'regulations[0].jurisdictions: expected array of strings, got str'),
    ('regulations', 'jurisdictions', [7], 'regulations[0].jurisdictions: expected array of strings'),
    ('regulations', 'jurisdictions', [['a']], 'regulations[0].jurisdictions: expected array of strings'),
    ('regulations', 'jurisdictions', ['a', 'a'], "regulations[0].jurisdictions: duplicate entry 'a'"),
    ('regulations', 'jurisdictions', 'ALL', 'regulations[0].jurisdictions: expected array of strings, got str'),
    ('regulations', 'jurisdictions', [], None),
    ('regulations', 'jurisdictions', ['a', 7, 'a'], 'regulations[0].jurisdictions: expected array of strings'),
    ('regulations', 'jurisdictions', ['a', 'a', 7], "regulations[0].jurisdictions: duplicate entry 'a'"),
    ('regulations', 'nickname', 'x', "regulations[0]: unknown key 'nickname'"),
    ('products', 'id', MISSING, "products[0]: missing key 'id'"),
    ('products', 'id', 7, 'products[0].id: expected string, got int'),
    ('products', 'id', True, 'products[0].id: expected string, got bool'),
    ('products', 'id', None, 'products[0].id: expected string, got NoneType'),
    ('products', 'id', {}, 'products[0].id: expected string, got dict'),
    ('products', 'id', [], 'products[0].id: expected string, got list'),
    ('products', 'id', ['x'], 'products[0].id: expected string, got list'),
    ('products', 'name', MISSING, None),
    ('products', 'name', 7, 'products[0].name: expected string, got int'),
    ('products', 'name', True, 'products[0].name: expected string, got bool'),
    ('products', 'name', None, 'products[0].name: expected string, got NoneType'),
    ('products', 'name', {}, 'products[0].name: expected string, got dict'),
    ('products', 'name', [], 'products[0].name: expected string, got list'),
    ('products', 'name', ['x'], 'products[0].name: expected string, got list'),
    ('products', 'nickname', 'x', "products[0]: unknown key 'nickname'"),
    ('requirements', 'id', MISSING, "requirements[0]: missing key 'id'"),
    ('requirements', 'id', 7, 'requirements[0].id: expected string, got int'),
    ('requirements', 'id', True, 'requirements[0].id: expected string, got bool'),
    ('requirements', 'id', None, 'requirements[0].id: expected string, got NoneType'),
    ('requirements', 'id', {}, 'requirements[0].id: expected string, got dict'),
    ('requirements', 'id', [], 'requirements[0].id: expected string, got list'),
    ('requirements', 'id', ['x'], 'requirements[0].id: expected string, got list'),
    ('requirements', 'kind', MISSING, "requirements[0]: missing key 'kind'"),
    ('requirements', 'kind', 7, 'requirements[0].kind: expected string, got int'),
    ('requirements', 'kind', True, 'requirements[0].kind: expected string, got bool'),
    ('requirements', 'kind', None, 'requirements[0].kind: expected string, got NoneType'),
    ('requirements', 'kind', {}, 'requirements[0].kind: expected string, got dict'),
    ('requirements', 'kind', [], 'requirements[0].kind: expected string, got list'),
    ('requirements', 'kind', ['x'], 'requirements[0].kind: expected string, got list'),
    ('requirements', 'kind', 'rl', 'requirements[0].kind: expected "RL" or "RFN", got \'rl\''),
    ('requirements', 'kind', 'ALL', 'requirements[0].kind: expected "RL" or "RFN", got \'ALL\''),
    ('requirements', 'kind', '', 'requirements[0].kind: expected "RL" or "RFN", got \'\''),
    ('requirements', 'title', MISSING, None),
    ('requirements', 'title', 7, 'requirements[0].title: expected string, got int'),
    ('requirements', 'title', True, 'requirements[0].title: expected string, got bool'),
    ('requirements', 'title', None, 'requirements[0].title: expected string, got NoneType'),
    ('requirements', 'title', {}, 'requirements[0].title: expected string, got dict'),
    ('requirements', 'title', [], 'requirements[0].title: expected string, got list'),
    ('requirements', 'title', ['x'], 'requirements[0].title: expected string, got list'),
    ('requirements', 'derived_from', MISSING, None),
    ('requirements', 'derived_from', 7, 'requirements[0].derived_from: expected array of strings, got int'),
    ('requirements', 'derived_from', True, 'requirements[0].derived_from: expected array of strings, got bool'),
    ('requirements', 'derived_from', None, 'requirements[0].derived_from: expected array of strings, got NoneType'),
    ('requirements', 'derived_from', {}, 'requirements[0].derived_from: expected array of strings, got dict'),
    ('requirements', 'derived_from', 'x', 'requirements[0].derived_from: expected array of strings, got str'),
    ('requirements', 'derived_from', [7], 'requirements[0].derived_from: expected array of strings'),
    ('requirements', 'derived_from', [['a']], 'requirements[0].derived_from: expected array of strings'),
    ('requirements', 'derived_from', ['a', 'a'], "requirements[0].derived_from: duplicate entry 'a'"),
    ('requirements', 'derived_from', 'ALL', 'requirements[0].derived_from: expected array of strings, got str'),
    ('requirements', 'derived_from', [], None),
    ('requirements', 'derived_from', ['a', 7, 'a'], 'requirements[0].derived_from: expected array of strings'),
    ('requirements', 'derived_from', ['a', 'a', 7], "requirements[0].derived_from: duplicate entry 'a'"),
    ('requirements', 'human_factors', MISSING, None),
    ('requirements', 'human_factors', 7, 'requirements[0].human_factors: expected array of strings, got int'),
    ('requirements', 'human_factors', True, 'requirements[0].human_factors: expected array of strings, got bool'),
    ('requirements', 'human_factors', None, 'requirements[0].human_factors: expected array of strings, got NoneType'),
    ('requirements', 'human_factors', {}, 'requirements[0].human_factors: expected array of strings, got dict'),
    ('requirements', 'human_factors', 'x', 'requirements[0].human_factors: expected array of strings, got str'),
    ('requirements', 'human_factors', [7], 'requirements[0].human_factors: expected array of strings'),
    ('requirements', 'human_factors', [['a']], 'requirements[0].human_factors: expected array of strings'),
    ('requirements', 'human_factors', ['a', 'a'], "requirements[0].human_factors: duplicate entry 'a'"),
    ('requirements', 'human_factors', 'ALL', 'requirements[0].human_factors: expected array of strings, got str'),
    ('requirements', 'human_factors', [], None),
    ('requirements', 'human_factors', ['a', 7, 'a'], 'requirements[0].human_factors: expected array of strings'),
    ('requirements', 'human_factors', ['a', 'a', 7], "requirements[0].human_factors: duplicate entry 'a'"),
    ('requirements', 'applies_to_products', MISSING, "requirements[0]: missing key 'applies_to_products'"),
    ('requirements', 'applies_to_products', 7, 'requirements[0].applies_to_products: expected array of strings, got int'),
    ('requirements', 'applies_to_products', True, 'requirements[0].applies_to_products: expected array of strings, got bool'),
    ('requirements', 'applies_to_products', None, 'requirements[0].applies_to_products: expected array of strings, got NoneType'),
    ('requirements', 'applies_to_products', {}, 'requirements[0].applies_to_products: expected array of strings, got dict'),
    ('requirements', 'applies_to_products', 'x', 'requirements[0].applies_to_products: expected array of strings, got str'),
    ('requirements', 'applies_to_products', [7], 'requirements[0].applies_to_products: expected array of strings'),
    ('requirements', 'applies_to_products', [['a']], 'requirements[0].applies_to_products: expected array of strings'),
    ('requirements', 'applies_to_products', ['a', 'a'], "requirements[0].applies_to_products: duplicate entry 'a'"),
    ('requirements', 'applies_to_products', 'ALL', 'requirements[0].applies_to_products: expected array of strings, got str'),
    ('requirements', 'applies_to_products', [], None),
    ('requirements', 'applies_to_products', ['a', 7, 'a'], 'requirements[0].applies_to_products: expected array of strings'),
    ('requirements', 'applies_to_products', ['a', 'a', 7], "requirements[0].applies_to_products: duplicate entry 'a'"),
    ('requirements', 'applies_to_jurisdictions', MISSING, "requirements[0]: missing key 'applies_to_jurisdictions'"),
    ('requirements', 'applies_to_jurisdictions', 7, 'requirements[0].applies_to_jurisdictions: expected array of strings, got int'),
    ('requirements', 'applies_to_jurisdictions', True, 'requirements[0].applies_to_jurisdictions: expected array of strings, got bool'),
    ('requirements', 'applies_to_jurisdictions', None, 'requirements[0].applies_to_jurisdictions: expected array of strings, got NoneType'),
    ('requirements', 'applies_to_jurisdictions', {}, 'requirements[0].applies_to_jurisdictions: expected array of strings, got dict'),
    ('requirements', 'applies_to_jurisdictions', 'x', 'requirements[0].applies_to_jurisdictions: expected array of strings, got str'),
    ('requirements', 'applies_to_jurisdictions', [7], 'requirements[0].applies_to_jurisdictions: expected array of strings'),
    ('requirements', 'applies_to_jurisdictions', [['a']], 'requirements[0].applies_to_jurisdictions: expected array of strings'),
    ('requirements', 'applies_to_jurisdictions', ['a', 'a'], "requirements[0].applies_to_jurisdictions: duplicate entry 'a'"),
    ('requirements', 'applies_to_jurisdictions', 'ALL', 'requirements[0].applies_to_jurisdictions: expected array of strings, got str'),
    ('requirements', 'applies_to_jurisdictions', [], None),
    ('requirements', 'applies_to_jurisdictions', ['a', 7, 'a'], 'requirements[0].applies_to_jurisdictions: expected array of strings'),
    ('requirements', 'applies_to_jurisdictions', ['a', 'a', 7], "requirements[0].applies_to_jurisdictions: duplicate entry 'a'"),
    ('requirements', 'nickname', 'x', "requirements[0]: unknown key 'nickname'"),
    ('refinements', 'stronger', MISSING, "refinements[0]: missing key 'stronger'"),
    ('refinements', 'stronger', 7, 'refinements[0].stronger: expected string, got int'),
    ('refinements', 'stronger', True, 'refinements[0].stronger: expected string, got bool'),
    ('refinements', 'stronger', None, 'refinements[0].stronger: expected string, got NoneType'),
    ('refinements', 'stronger', {}, 'refinements[0].stronger: expected string, got dict'),
    ('refinements', 'stronger', [], 'refinements[0].stronger: expected string, got list'),
    ('refinements', 'stronger', ['x'], 'refinements[0].stronger: expected string, got list'),
    ('refinements', 'weaker', MISSING, "refinements[0]: missing key 'weaker'"),
    ('refinements', 'weaker', 7, 'refinements[0].weaker: expected string, got int'),
    ('refinements', 'weaker', True, 'refinements[0].weaker: expected string, got bool'),
    ('refinements', 'weaker', None, 'refinements[0].weaker: expected string, got NoneType'),
    ('refinements', 'weaker', {}, 'refinements[0].weaker: expected string, got dict'),
    ('refinements', 'weaker', [], 'refinements[0].weaker: expected string, got list'),
    ('refinements', 'weaker', ['x'], 'refinements[0].weaker: expected string, got list'),
    ('refinements', 'nickname', 'x', "refinements[0]: unknown key 'nickname'"),
]


def _document(**collections) -> str:
    doc = json.loads(MINIMAL)
    doc.update(collections)
    return json.dumps(doc)


def _schema_message(text: str) -> str | None:
    try:
        loads(text)
    except SchemaError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("collection, key, value, message", SCHEMA_MESSAGES)
def test_schema_messages_are_pinned(collection, key, value, message):
    entry = dict(VALID_ENTRY[collection])
    if value is MISSING:
        del entry[key]
    else:
        entry[key] = value
    assert _schema_message(_document(**{collection: [entry]})) == message


def _requirement(**changes) -> dict:
    entry = dict(VALID_ENTRY["requirements"], **changes)
    return {key: value for key, value in entry.items() if value is not MISSING}


# Two bad places at once: the first in document order is reported. Within
# one requirement `kind` is checked before `id`, and every entry of a
# collection must be an object before any entry's keys are checked.
FIRST_ERROR_WINS = [
    ({"requirements": [_requirement(derived_from=7), _requirement(id=7)]}, 'requirements[0].derived_from: expected array of strings, got int'),
    ({"requirements": [_requirement(id=7, kind=5)]}, 'requirements[0].kind: expected string, got int'),
    ({"requirements": [_requirement(id=MISSING, kind=MISSING)]}, "requirements[0]: missing key 'id'"),
    (
        {"requirements": [_requirement(human_factors=["a", "a"], applies_to_products=7)]},
        "requirements[0].human_factors: duplicate entry 'a'",
    ),
    ({"requirements": [_requirement(title=None, zz=1)]}, "requirements[0]: unknown key 'zz'"),
    ({"requirements": [_requirement(zz=1, applies_to_products=MISSING)]}, "requirements[0]: unknown key 'zz'"),
    (
        {
            "jurisdictions": [{"id": "C1"}, {"id": "C2", "name": 7}],
            "requirements": [_requirement(kind="x")],
        },
        'jurisdictions[1].name: expected string, got int',
    ),
    ({"products": [{"id": "P1", "x": 1}, 5]}, 'products[1]: expected object, got int'),
    ({"regulations": [{"id": 7, "zz": 1, "jurisdictions": "all"}]}, "regulations[0]: unknown key 'zz'"),
    ({"requirements": [_requirement(kind="x")], "refinements": "x"}, 'requirements[0].kind: expected "RL" or "RFN", got \'x\''),
    ({"jurisdictions": "x", "requirements": [_requirement(kind="x")]}, 'jurisdictions: expected array, got str'),
    ({"refinements": [{"stronger": 1, "weaker": 2}]}, 'refinements[0].stronger: expected string, got int'),
]


@pytest.mark.parametrize("collections, message", FIRST_ERROR_WINS)
def test_first_schema_error_in_document_order_wins(collections, message):
    assert _schema_message(_document(**collections)) == message


def test_deeply_nested_document_is_a_parse_error(monkeypatch):
    depth = 100_000
    with pytest.raises(ParseError, match="nested too deeply"):
        loads("[" * depth + "]" * depth)
    # A `\u` escape sends the text through `_check_strings`, whose
    # `json.dumps` meets the recursion limit a little sooner than the
    # parse: near the limit some depth parses and then overflows there.
    # Which depth does shifts with the caller's stack, so every depth up
    # to the limit is loaded.
    check = catalog_io._check_strings
    overflowed = []

    def check_strings(document):
        try:
            check(document)
        except ParseError:
            overflowed.append(depth)
            raise

    monkeypatch.setattr(catalog_io, "_check_strings", check_strings)
    for depth in range(1, sys.getrecursionlimit()):
        nested = "[" * depth + '"\\u00e9"' + "]" * depth
        with pytest.raises((ParseError, SchemaError)):
            loads('{"version": 1, "x": ' + nested + "}")
    assert overflowed


def test_overlong_integer_literal_is_a_parse_error():
    # Past the interpreter's limit on digits in an int-from-string conversion.
    doc = json.loads(MINIMAL)
    doc["jurisdictions"] = [{"id": "C1", "name": 0}]
    text = json.dumps(doc).replace('"name": 0', '"name": ' + "9" * 5000)
    with pytest.raises(ParseError, match="integer literal too long") as excinfo:
        loads(text)
    assert "set_int_max_str_digits" not in str(excinfo.value)


def test_a_repeated_key_is_a_schema_error_that_names_it():
    # `json` alone keeps the last value: one jurisdiction, or no refinements.
    entity = MINIMAL.replace('"jurisdictions": []', '"jurisdictions": [{"id": "C1", "id": "C2"}]')
    assert _schema_message(entity) == "repeated key 'id' in a JSON object"
    edge = '"refinements": [{"stronger": "a", "weaker": "b"}]'
    top = MINIMAL.replace('"refinements": []', edge + ', "refinements": []')
    assert _schema_message(top) == "repeated key 'refinements' in a JSON object"
    # Keys that differ only by an escape are the same key once decoded.
    escaped = MINIMAL.replace('"version": 1', '"version": 1, "versio\\u006e": 1')
    assert _schema_message(escaped) == "repeated key 'version' in a JSON object"
    # A kept value whose colon is an escape: the text holds one colon fewer
    # than the decoded document, which balances the repeat's own colon.
    colon = MINIMAL.replace(
        '"jurisdictions": []', '"jurisdictions": [{"id": "C1", "name": "y", "name": "x\\u003a"}]'
    )
    assert _schema_message(colon) == "repeated key 'name' in a JSON object"


def test_a_repeat_is_reported_before_any_later_error(tmp_path):
    repeat = '"jurisdictions": [{"id": "C1", "id": "C2"}]'
    # A repeat before a later schema error, and after an earlier one: the
    # repeat is found while parsing, before any schema check.
    later = MINIMAL.replace('"jurisdictions": []', repeat).replace(
        '"refinements": []', '"refinements": 7'
    )
    earlier = MINIMAL.replace('"jurisdictions": []', '"jurisdictions": 7').replace(
        '"refinements": []', '"refinements": [{"stronger": "a", "weaker": "b", "weaker": "c"}]'
    )
    assert _schema_message(later) == "repeated key 'id' in a JSON object"
    assert _schema_message(earlier) == "repeated key 'weaker' in a JSON object"
    # A repeat before a later JSON syntax error, once its object is closed.
    cut = MINIMAL.replace('"jurisdictions": []', repeat)[:-20]
    assert _schema_message(cut) == "repeated key 'id' in a JSON object"
    # A top-level repeat is found only when the top-level object closes.
    with pytest.raises(ParseError, match="line 1 column"):
        loads(MINIMAL.replace('"version": 1', '"version": 1, "version": 1')[:-1])
    path = tmp_path / "repeat.reqcat.json"
    path.write_text(later, encoding="utf-8")
    with pytest.raises(SchemaError) as excinfo:
        load(path)
    assert str(excinfo.value) == "repeated key 'id' in a JSON object"


_COLLECTIONS = ("jurisdictions", "regulations", "products", "requirements", "refinements")

# Strings with colons and non-ASCII text: without an escape in the text,
# `loads` finds repeats by counting colons.
COLON_TEXT = st.text(st.sampled_from([":", "a", "b", "é"]), max_size=4)
COLON_IDS = st.frozensets(COLON_TEXT, max_size=3)
COLON_SCOPES = st.one_of(st.just(ALL), COLON_IDS)
COLON_CATALOGS = st.builds(
    Catalog,
    jurisdictions=st.lists(st.builds(Jurisdiction, COLON_TEXT, COLON_TEXT), max_size=2),
    regulations=st.lists(st.builds(Regulation, COLON_TEXT, COLON_TEXT, COLON_SCOPES), max_size=2),
    products=st.lists(st.builds(Product, COLON_TEXT, COLON_TEXT), max_size=2),
    requirements=st.lists(
        st.builds(
            Requirement,
            COLON_TEXT,
            st.sampled_from(Kind),
            COLON_TEXT,
            COLON_IDS,
            COLON_IDS,
            COLON_SCOPES,
            COLON_SCOPES,
        ),
        max_size=3,
    ),
    refinements=st.lists(st.builds(RefinementEdge, COLON_TEXT, COLON_TEXT), max_size=2),
)


def _text_with_repeat(document: dict, target: int, key_index: int, value, first: bool,
                      escaped_key: bool, escaped_colon: bool, ensure_ascii: bool) -> str:
    """`document` as JSON text in which the `target`-th object (in text
    order) holds one of its keys twice: once with `value`, placed before or
    after the original pair, its name spelled with a unicode escape if asked,
    and each colon in the text of `value` spelled `\\u003a` if asked."""
    objects = iter(range(target + 1))

    def write(node) -> str:
        if isinstance(node, dict):
            repeats = next(objects, None) == target
            pairs = [(json.dumps(key), write(child)) for key, child in node.items()]
            if repeats:
                key = list(node)[key_index % len(node)]
                spelled = f'"\\u{ord(key[0]):04x}{key[1:]}"' if escaped_key else json.dumps(key)
                text = write(value)
                if escaped_colon:
                    text = text.replace(":", "\\u003a")
                pairs.insert(0 if first else len(pairs), (spelled, text))
            return "{" + ", ".join(f"{key}: {text}" for key, text in pairs) + "}"
        if isinstance(node, list):
            return "[" + ", ".join(map(write, node)) + "]"
        return json.dumps(node, ensure_ascii=ensure_ascii)

    return write(document)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    catalog=COLON_CATALOGS,
    target=st.integers(0, 20),
    key_index=st.integers(0, 6),
    value=st.sampled_from(["x:y", ":", "", "all", 7, ["a:b"], [], None]),
    first=st.booleans(),
    escaped_key=st.booleans(),
    escaped_colon=st.booleans(),
    ensure_ascii=st.booleans(),
)
def test_a_repeated_key_is_found_as_the_hook_finds_it(
    catalog, target, key_index, value, first, escaped_key, escaped_colon, ensure_ascii
):
    document = _plain_dict(catalog)
    objects = 1 + sum(len(document[label]) for label in _COLLECTIONS)
    text = _text_with_repeat(
        document, target % objects, key_index, value, first, escaped_key, escaped_colon,
        ensure_ascii,
    )
    with pytest.raises(SchemaError) as expected:
        json.loads(text, object_pairs_hook=catalog_io._object)
    for source in (text, text.encode("utf-8"), bytearray(text, "utf-8")):
        with pytest.raises(SchemaError) as excinfo:
            loads(source)
        assert str(excinfo.value) == str(expected.value)
    # The same text without the repeat loads to the catalog.
    plain = _text_with_repeat(document, -1, 0, None, first, False, False, ensure_ascii)
    assert loads(plain) == catalog


def _constructed(text: str | bytes) -> Catalog:
    """The catalog of a valid document, built through the public
    constructors, which coerce kind names and id lists."""
    doc = json.loads(text)

    def entry(fields: dict) -> dict:
        scopes = ("jurisdictions", "applies_to_products", "applies_to_jurisdictions")
        return {k: ALL if k in scopes and v == "all" else v for k, v in fields.items()}

    types = (Jurisdiction, Regulation, Product, Requirement, RefinementEdge)
    return Catalog(
        **{
            label: [entity(**entry(fields)) for fields in doc[label]]
            for label, entity in zip(_COLLECTIONS, types)
        }
    )


ENTITY_TEXTS = [path.read_bytes() for path in LOADABLE] + [
    catgen.generate(shape, seed).text() for shape in catgen.TINY.values() for seed in (11, 12)
]


@pytest.mark.parametrize("text", ENTITY_TEXTS, ids=range(len(ENTITY_TEXTS)))
def test_loaded_entities_are_the_entities_the_constructors_build(text):
    loaded, built = loads(text), _constructed(text)
    assert loaded == built
    for label in _COLLECTIONS:
        for ours, theirs in zip(getattr(loaded, label), getattr(built, label), strict=True):
            assert type(ours) is type(theirs)
            assert ours == theirs and hash(ours) == hash(theirs) and repr(ours) == repr(theirs)
            assert dataclasses.replace(ours) == ours
            for field in dataclasses.fields(ours):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(ours, field.name, getattr(ours, field.name))


def test_the_public_constructors_still_coerce_their_arguments():
    requirement = Requirement("R1", "rl", derived_from=["a"], applies_to_products=["P1"])
    assert requirement.kind is Kind.RL
    assert type(requirement.derived_from) is frozenset and requirement.derived_from == {"a"}
    assert requirement.applies_to_products == frozenset({"P1"})
    assert Regulation("g", jurisdictions=["C1"]).jurisdictions == frozenset({"C1"})


def test_lone_surrogates_are_schema_errors_and_escaped_pairs_load():
    doc = json.loads(MINIMAL)
    doc["products"] = [{"id": "\ud800"}]
    escaped = json.dumps(doc)  # ensure_ascii writes the id as the escape \ud800
    assert "\\ud800" in escaped
    for text in (escaped, escaped.encode("utf-8")):
        with pytest.raises(SchemaError, match="surrogate"):
            loads(text)
    # A str holding the raw surrogate never reaches the JSON parser.
    with pytest.raises(SchemaError, match="surrogate"):
        loads(json.dumps(doc, ensure_ascii=False))

    doc["products"] = [{"id": "\ud83d\ude00", "name": "\u00e9"}]
    for text in (json.dumps(doc), json.dumps(doc).encode("utf-8")):
        assert [(p.id, p.name) for p in loads(text).products] == [("\U0001F600", "\u00e9")]


def test_malformed_document_reports_line_and_column():
    with pytest.raises(ParseError, match=r"line 2 column"):
        loads('{\n  "version": }')
    with pytest.raises(ParseError, match="UTF-8"):
        loads(b"\xff\xfe{}")


def test_all_marker_round_trips():
    doc = json.loads(MINIMAL)
    doc["regulations"] = [{"id": "g", "title": "", "jurisdictions": "all"}]
    catalog = loads(json.dumps(doc))
    assert catalog.regulations[0].jurisdictions is ALL
    assert json.loads(dumps(catalog))["regulations"][0]["jurisdictions"] == "all"


def test_save_empty_catalog_is_the_minimal_canonical_document():
    assert save(Catalog()) == (
        b'{\n  "version": 1,\n  "jurisdictions": [],\n  "regulations": [],'
        b'\n  "products": [],\n  "requirements": [],\n  "refinements": []\n}\n'
    )


def test_load_reads_a_path_or_a_path_string(tmp_path):
    path = tmp_path / "c.reqcat.json"
    save_file(SMALL, path)
    assert load(path) == SMALL
    assert load(str(path)) == SMALL


def test_load_missing_file_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load(tmp_path / "absent.reqcat.json")


def test_round_trip_identity_and_canonicalisation():
    assert loads(save(SMALL)) == SMALL
    assert loads(bytearray(save(SMALL))) == SMALL
    assert save(loads(save(SMALL))) == save(SMALL)

    # A document with unsorted arrays canonicalises to the same bytes as
    # the sorted one.
    permuted = Catalog(
        jurisdictions=[Jurisdiction("C2"), Jurisdiction("C1")],
        products=[Product("P2"), Product("P1")],
    )
    sorted_catalog = Catalog(
        jurisdictions=[Jurisdiction("C1"), Jurisdiction("C2")],
        products=[Product("P1"), Product("P2")],
    )
    assert save(permuted) == save(sorted_catalog)


def test_round_trip_on_random_catalogs_preserves_validation():
    rng = random.Random(1234)
    for _ in range(25):
        catalog = random_catalog(rng)
        loaded = loads(save(catalog))
        assert loaded == catalog
        assert validate(loaded) == validate(catalog)
        assert find_warnings(loaded) == find_warnings(catalog)


def _plain_dict(catalog: Catalog) -> dict:
    """The canonical plain-dict form of a catalog, which `dumps` must write
    byte for byte as `json.dumps(..., indent=2, ensure_ascii=False)` does."""

    def scope(value):
        return "all" if value is ALL else sorted(value)

    return {
        "version": 1,
        "jurisdictions": [{"id": j.id, "name": j.name} for j in catalog.jurisdictions],
        "regulations": [
            {"id": r.id, "title": r.title, "jurisdictions": scope(r.jurisdictions)}
            for r in catalog.regulations
        ],
        "products": [{"id": p.id, "name": p.name} for p in catalog.products],
        "requirements": [
            {
                "id": q.id,
                "kind": q.kind.value,
                "title": q.title,
                "derived_from": sorted(q.derived_from),
                "human_factors": sorted(q.human_factors),
                "applies_to_products": scope(q.applies_to_products),
                "applies_to_jurisdictions": scope(q.applies_to_jurisdictions),
            }
            for q in catalog.requirements
        ],
        "refinements": [{"stronger": e.stronger, "weaker": e.weaker} for e in catalog.refinements],
    }


def _assert_canonical(catalog: Catalog) -> None:
    assert dumps(catalog) == json.dumps(_plain_dict(catalog), indent=2, ensure_ascii=False) + "\n"


# Strings the encoder must escape (quote, backslash, C0 controls) or pass
# through (DEL, U+2028, non-ASCII, non-BMP), plus `_` and "all" as ids.
HOSTILE = st.lists(
    st.sampled_from(['"', "\\", *map(chr, range(0x20)), "\x7f", "\u2028", "\u00e9", "\U0001F600", "_", "a", "all"]),
    max_size=4,
).map("".join)
HOSTILE_IDS = st.frozensets(HOSTILE, max_size=3)
HOSTILE_SCOPES = st.one_of(st.just(ALL), HOSTILE_IDS)
HOSTILE_CATALOGS = st.builds(
    Catalog,
    jurisdictions=st.lists(st.builds(Jurisdiction, HOSTILE, HOSTILE), max_size=3),
    regulations=st.lists(st.builds(Regulation, HOSTILE, HOSTILE, HOSTILE_SCOPES), max_size=3),
    products=st.lists(st.builds(Product, HOSTILE, HOSTILE), max_size=3),
    requirements=st.lists(
        st.builds(
            Requirement,
            HOSTILE,
            st.sampled_from(Kind),
            HOSTILE,
            HOSTILE_IDS,
            HOSTILE_IDS,
            HOSTILE_SCOPES,
            HOSTILE_SCOPES,
        ),
        max_size=3,
    ),
    refinements=st.lists(st.builds(RefinementEdge, HOSTILE, HOSTILE), max_size=3),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(catalog=HOSTILE_CATALOGS)
def test_dumps_is_json_dumps_of_the_plain_dict_form(catalog):
    _assert_canonical(catalog)


def test_dumps_is_json_dumps_on_fixtures_and_generated_catalogs():
    texts = [path.read_bytes() for path in sorted(DATA.glob("*.reqcat.json"))]
    texts.remove((DATA / "malformed.reqcat.json").read_bytes())
    texts += [
        catgen.generate(shape, seed).text()
        for shape in catgen.TINY.values()
        for seed in (11, 12)
    ]
    for text in texts:
        _assert_canonical(loads(text))


@pytest.mark.parametrize(
    "catalog",
    [
        Catalog(jurisdictions=[Jurisdiction(1)]),
        Catalog(regulations=[Regulation("g", title=None)]),
        Catalog(requirements=[Requirement("r", Kind.RFN, human_factors={1})]),
        Catalog(refinements=[RefinementEdge("a", ("b",))]),
    ],
)
def test_dumps_refuses_values_the_schema_rejects(catalog):
    with pytest.raises(TypeError):
        dumps(catalog)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "text, error",
    [(MINIMAL, None), ('{"version": ', ParseError), ('{"version": 2}', SchemaError)],
    ids=["ok", "parse-error", "schema-error"],
)
def test_loads_restores_the_collector_state_it_found(text, error, enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(error) if error else nullcontext():
            loads(text)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("path", LOADABLE, ids=lambda path: path.name)
def test_loads_leaves_no_cyclic_garbage(path):
    """`loads` pauses the collector on the premise that neither the parsed
    document nor the catalog holds a reference cycle: once the catalog is
    dropped, a collection finds nothing left to free."""
    data = path.read_bytes()
    gc.collect()
    loads(data)
    assert gc.collect() == 0


def _id_arrays(catalog: Catalog) -> list[frozenset[str]]:
    arrays = [r.jurisdictions for r in catalog.regulations]
    for r in catalog.requirements:
        arrays += [r.derived_from, r.human_factors, r.applies_to_products, r.applies_to_jurisdictions]
    return [ids for ids in arrays if ids is not ALL]


def test_equal_id_arrays_of_a_loaded_catalog_are_one_object():
    for text in (
        catgen.generate(catgen.TINY["edit"], 11).text(),
        (DATA / "partial.reqcat.json").read_bytes(),
    ):
        arrays = _id_arrays(loads(text))
        shared = {ids: ids for ids in arrays}
        assert all(ids is shared[ids] for ids in arrays)
        assert len(set(map(id, arrays))) == len(shared) < len(arrays)


def _views(catalog: Catalog):
    graph = build_graph(catalog)
    yield build_view(catalog, graph, ViewKind.GLOBAL)
    for jurisdiction in catalog.jurisdictions:
        yield build_view(catalog, graph, ViewKind.COUNTRY_CENTRED, jurisdiction.id)
    for product in catalog.products:
        yield build_view(catalog, graph, ViewKind.PRODUCT_CENTRED, product.id)


def test_write_dot_writes_the_utf8_of_render_dot(tmp_path):
    catalogs = [loads(path.read_bytes()) for path in LOADABLE]
    catalogs += [
        loads(catgen.generate(shape, seed).text())
        for shape in catgen.TINY.values()
        for seed in (11, 12)
    ]
    odd = 'Zürich "\\ \u2028 \U0001f600'
    catalogs.append(
        Catalog(
            jurisdictions=[Jurisdiction(odd)],
            regulations=[Regulation("g")],
            products=[Product(odd)],
            requirements=[Requirement(odd, Kind.RL, derived_from={"g"})],
        )
    )
    path = tmp_path / "view.dot"
    views = 0
    for catalog in catalogs:
        if not validate(catalog).ok:
            continue
        for view in _views(catalog):
            write_dot(view, path)
            assert path.read_bytes() == render_dot(view).encode("utf-8")
            views += 1
    assert views > 30


def test_country_view_matches_hand_authored_golden_file():
    graph = build_graph(SMALL)
    got = render_dot(build_view(SMALL, graph, ViewKind.COUNTRY_CENTRED, focus="C1"))
    assert got == (DATA / "country_view_small.dot").read_text()


def test_country_view_node_count_formula():
    rng = random.Random(77)
    for _ in range(10):
        catalog = random_catalog(rng, max_requirements=12)
        graph = build_graph(catalog)
        jid = catalog.jurisdictions[0].id
        view = build_view(catalog, graph, ViewKind.COUNTRY_CENTRED, focus=jid)
        assert len(view.nodes) == 2 + 4 * len(catalog.products)


def test_each_in_scope_requirement_lands_in_exactly_one_partition_label():
    rng = random.Random(78)
    catalog = random_catalog(rng, max_requirements=20)
    graph = build_graph(catalog)
    jid = catalog.jurisdictions[0].id
    view = build_view(catalog, graph, ViewKind.COUNTRY_CENTRED, focus=jid)
    labelled: dict[str, list[str]] = {}
    for node_id, label in view.nodes:
        if node_id in ("core", "complement"):
            continue
        body = label.split(": ", 1)[1]
        labelled[node_id] = [] if body == "(none)" else body.split(", ")
    from reqlattice.algebra import requirements_for

    for product in catalog.products:
        in_scope = set(requirements_for(catalog, product.id, jid).members)
        product_nodes = [nid for nid in labelled if nid.endswith(f"__{product.id}")]
        for rid in in_scope:
            hits = [nid for nid in product_nodes if rid in labelled[nid]]
            assert len(hits) == 1, (rid, hits)


def test_product_view_structure():
    graph = build_graph(SMALL)
    view = build_view(SMALL, graph, ViewKind.PRODUCT_CENTRED, focus="P1")
    assert [nid for nid, _ in view.nodes] == ["rfn__C1", "rl__C1", "union"]
    assert view.edges == (("rfn__C1", "union"), ("rl__C1", "union"))
    union_label = dict(view.nodes)["union"]
    assert union_label == "All requirements [P1]: r1"


def test_global_view_structure_and_empty_case():
    graph = build_graph(SMALL)
    view = build_view(SMALL, graph, ViewKind.GLOBAL)
    assert [nid for nid, _ in view.nodes] == [
        "proj__P1__C1",
        "rl_min__C1",
        "rl_star__C1",
        "star",
    ]
    assert set(view.edges) == {
        ("proj__P1__C1", "rl_min__C1"),
        ("proj__P1__C1", "rl_star__C1"),
        ("rl_star__C1", "star"),
    }

    empty = Catalog()
    dot = render_dot(build_view(empty, build_graph(empty), ViewKind.GLOBAL))
    assert dot == "digraph global {\n  rankdir=LR;\n  node [shape=box];\n}\n"


def test_global_view_reflects_strongest_sets():
    catalog = Catalog(
        jurisdictions=[Jurisdiction("C1")],
        regulations=[Regulation("g", jurisdictions=ALL)],
        products=[Product("P1")],
        requirements=[
            Requirement("a", Kind.RL, derived_from={"g"}),
            Requirement("b", Kind.RL, derived_from={"g"}),
        ],
        refinements=[RefinementEdge("a", "b")],
    )
    view = build_view(catalog, build_graph(catalog), ViewKind.GLOBAL)
    labels = dict(view.nodes)
    assert labels["rl_star__C1"] == "RL strongest [C1]: a"
    assert labels["rl_min__C1"] == "RL minimum [C1]: a, b"
    assert labels["star"] == "Strongest overall: a"


def test_focus_rules():
    graph = build_graph(SMALL)
    with pytest.raises(FocusRequiredError):
        build_view(SMALL, graph, ViewKind.COUNTRY_CENTRED)
    with pytest.raises(FocusRequiredError):
        build_view(SMALL, graph, ViewKind.PRODUCT_CENTRED)
    with pytest.raises(FocusForbiddenError):
        build_view(SMALL, graph, ViewKind.GLOBAL, focus="C1")
    with pytest.raises(UnknownIdError):
        build_view(SMALL, graph, ViewKind.COUNTRY_CENTRED, focus="C9")
    with pytest.raises(UnknownIdError):
        build_view(SMALL, graph, ViewKind.PRODUCT_CENTRED, focus="P9")


def test_export_is_deterministic_across_repeated_runs():
    rng = random.Random(5150)
    catalog = random_catalog(rng)
    graph = build_graph(catalog)
    jid = catalog.jurisdictions[0].id
    pid = catalog.products[0].id
    for kind, focus in (
        (ViewKind.COUNTRY_CENTRED, jid),
        (ViewKind.PRODUCT_CENTRED, pid),
        (ViewKind.GLOBAL, None),
    ):
        outputs = {render_dot(build_view(catalog, graph, kind, focus)) for _ in range(3)}
        assert len(outputs) == 1


def test_graph_view_rejects_duplicate_nodes_and_dangling_edges():
    with pytest.raises(ValueError):
        GraphView(ViewKind.GLOBAL, (("a", "x"), ("a", "y")), ())
    with pytest.raises(ValueError):
        GraphView(ViewKind.GLOBAL, (("a", "x"),), (("a", "b"),))


UNDERSCORE_IDS = Catalog(
    jurisdictions=[Jurisdiction("C2"), Jurisdiction("C1__C2"), Jurisdiction("C1_")],
    regulations=[Regulation("g", jurisdictions=ALL)],
    products=[Product("x"), Product("x__C1"), Product("x_")],
    requirements=[Requirement("r1", Kind.RL, derived_from={"g"})],
)


def test_view_node_ids_are_collision_free():
    graph = build_graph(UNDERSCORE_IDS)
    jids = [j.id for j in UNDERSCORE_IDS.jurisdictions]
    pids = [p.id for p in UNDERSCORE_IDS.products]
    expected_nodes = {
        ViewKind.GLOBAL: 2 * len(jids) + len(jids) * len(pids) + 1,
        ViewKind.PRODUCT_CENTRED: 2 * len(jids) + 1,
        ViewKind.COUNTRY_CENTRED: 4 * len(pids) + 2,
    }
    for kind, focus in (
        (ViewKind.GLOBAL, None),
        (ViewKind.PRODUCT_CENTRED, "x__C1"),
        (ViewKind.COUNTRY_CENTRED, "C1__C2"),
    ):
        view = build_view(UNDERSCORE_IDS, graph, kind, focus)
        node_ids = [node_id for node_id, _ in view.nodes]
        assert len(set(node_ids)) == len(node_ids) == expected_nodes[kind]
    view = build_view(UNDERSCORE_IDS, graph, ViewKind.GLOBAL)
    labels = dict(view.nodes)
    assert labels["proj__x__C1_u_uC2"] == "RL [x, C1__C2]: r1"
    assert labels["proj__x_u_uC1__C2"] == "RL [x__C1, C2]: r1"


def test_view_node_ids_keep_ids_without_underscores_verbatim():
    view = build_view(SMALL, build_graph(SMALL), ViewKind.GLOBAL)
    assert [node_id for node_id, _ in view.nodes] == [
        "proj__P1__C1",
        "rl_min__C1",
        "rl_star__C1",
        "star",
    ]


def test_render_dot_escapes_quotes():
    view = GraphView(ViewKind.GLOBAL, (('we"ird', 'label "x"'),), ())
    dot = render_dot(view)
    assert '"we\\"ird" [label="label \\"x\\""];' in dot
