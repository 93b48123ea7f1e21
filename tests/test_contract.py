"""Property test of the CLI exit-code contract on hostile inputs.

Fixture catalogs are mutated at the JSON level (strings replaced, values
retyped, keys added or dropped, entries duplicated, text truncated) and
run through every command with random flags; most `export`, `sets`,
`optimize` and `impact` calls are well formed, on catalogs that keep
their shape, so their success paths are fuzzed too. Whatever the
input, the exit code is 0, 1 or 2, no exception escapes, exit 1 means
the catalog has validation errors, and `--json` output is one UTF-8 JSON
document.
"""

from __future__ import annotations

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from reqlattice.cli import main
from reqlattice.errors import ParseError, SchemaError
from reqlattice.io import loads
from reqlattice.model import validate

DATA = Path(__file__).parent / "data"
DOCUMENTS = [
    json.loads(path.read_text(encoding="utf-8"))
    for path in sorted(DATA.glob("*.reqcat.json"))
    if path.name != "malformed.reqcat.json"
]

# Lone surrogates arrive through `\uD800`-style escapes in the JSON text;
# the default text strategy never draws them.
SURROGATES = st.sampled_from(["\ud800", "\udbff", "\udc00", "\udfff"])
ID_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from(list("aCP1_ \"\\é")), SURROGATES), max_size=4
)
SAFE_ID = st.text(alphabet=st.sampled_from(list("aCP1_ \"\\é")), min_size=1, max_size=4)
# `--out` file names: argv bytes that are not UTF-8 reach Python as
# surrogate escapes (U+DC80..U+DCFF).
OUT_NAMES = st.text(alphabet=st.sampled_from(["v", "é", "\udc80", "\udcff"]), min_size=1, max_size=3)
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.just("all"),
    ID_TEXT,
    st.lists(ID_TEXT, max_size=3),
    st.just({}),
)


def _slots(value, out):
    """Every (container, key) pair in a JSON tree."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in list(items):
        out.append((value, key))
        if isinstance(child, (dict, list)):
            _slots(child, out)
    return out


def _ids(value, out):
    if isinstance(value, dict):
        for key, child in value.items():
            if key in ("id", "stronger", "weaker") and isinstance(child, str):
                out.add(child)
            else:
                _ids(child, out)
    elif isinstance(value, list):
        for child in value:
            _ids(child, out)
    return out


def _entity_ids(doc, key):
    """The ids of one entity list of a document that kept its shape, or
    ["x"] when the list is empty."""
    return sorted(e["id"] for e in doc[key]) or ["x"]


# Renames keep the document's shape, so they often reach the analyses.
ACTIONS = ["rename", "rename", "retype", "delete", "duplicate", "add"]


def _replace_strings(value, old, new):
    if isinstance(value, dict):
        return {k: _replace_strings(v, old, new) for k, v in value.items()}
    if isinstance(value, list):
        return [_replace_strings(v, old, new) for v in value]
    return new if value == old else value


@st.composite
def mutated_documents(draw, keep_shape=False):
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    if keep_shape:
        # Rename ids consistently, so the catalog keeps loading and its
        # views meet ids with `_`, quotes, backslashes and non-ASCII text.
        for _ in range(draw(st.integers(0, 3))):
            old = draw(st.sampled_from(sorted(_ids(doc, set()))))
            doc = _replace_strings(doc, old, draw(SAFE_ID))
        return doc, json.dumps(doc)
    for _ in range(draw(st.integers(0, 3))):
        slots = _slots(doc, [])
        strings = [(c, k) for c, k in slots if isinstance(c[k], str)]
        action = draw(st.sampled_from(ACTIONS))
        if action == "rename" and strings:
            container, key = draw(st.sampled_from(strings))
            container[key] = draw(ID_TEXT)
            continue
        container, key = draw(st.sampled_from(slots))
        if action == "retype":
            container[key] = draw(JSON_VALUES)
        elif action == "delete":
            del container[key]
        elif action == "duplicate" and isinstance(container, list):
            container.append(copy.deepcopy(container[key]))
        elif action == "add" and isinstance(container, dict):
            container[draw(ID_TEXT)] = draw(JSON_VALUES)
    text = json.dumps(doc)  # ensure_ascii: surrogates become \uXXXX escapes
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return doc, text


# The commands that take selectors, which a call can get wrong.
WELL_FORMED = ("export", "sets", "optimize", "impact")


@st.composite
def invocations(draw):
    # Hypothesis draws the first choice most often; export, the command with
    # the most flags to get right, goes first.
    command = draw(
        st.sampled_from(["export", "validate", "sets", "optimize", "classify", "impact"])
    )
    # Most calls of the commands that take selectors are well formed, with
    # ids from the catalog's own entity lists, and run on a catalog that
    # keeps its shape, so their success path is fuzzed too.
    well_formed = command in WELL_FORMED and draw(st.integers(0, 4)) > 0
    doc, text = draw(mutated_documents(keep_shape=well_formed))
    known = sorted(_ids(doc, set())) or ["x"]
    some_id = st.one_of(st.sampled_from(known), ID_TEXT)

    def maybe(*flag):
        return list(flag) if draw(st.booleans()) else []

    def entity(key):
        return draw(st.sampled_from(_entity_ids(doc, key)))

    if well_formed and command == "sets":
        p, j, kind = entity("products"), entity("jurisdictions"), draw(st.sampled_from(["rl", "rfn"]))
        flags = draw(
            st.sampled_from(
                [
                    ["--product", p, "--jurisdiction", j],
                    ["--product", p, "--jurisdiction", j, "--kind", kind],
                    ["--product", p, "--kind", kind],
                    ["--jurisdiction", j, "--rl"],
                    ["--jurisdiction", j, "--min"],
                ]
            )
        )
    elif well_formed and command == "optimize":
        flags = draw(
            st.sampled_from(
                [
                    ["--jurisdiction", entity("jurisdictions")],
                    ["--product", entity("products")],
                    ["--global"],
                ]
            )
        )
    elif well_formed and command == "impact":
        flags = ["--regulation", entity("regulations")]
    elif command == "sets":
        flags = (
            maybe("--product", draw(some_id))
            + maybe("--jurisdiction", draw(some_id))
            + maybe("--kind", draw(st.sampled_from(["rl", "rfn", "xx"])))
            + maybe("--rl")
            + maybe("--min")
        )
    elif command == "optimize":
        flags = maybe("--jurisdiction", draw(some_id)) + maybe("--product", draw(some_id))
        flags += maybe("--global")
    elif command == "impact":
        flags = maybe("--regulation", draw(some_id))
    elif well_formed:
        view = draw(st.sampled_from(["country", "product", "global"]))
        focus = {"country": "jurisdictions", "product": "products"}.get(view)
        flags = ["--view", view, "--out", "OUT"]
        if focus:
            flags += ["--focus", entity(focus)]
    elif command == "export":
        flags = maybe("--view", draw(st.sampled_from(["country", "product", "global", "xx"])))
        flags += maybe("--focus", draw(some_id)) + maybe("--out", "OUT")
    else:
        flags = []
    json_at = draw(st.sampled_from([None, "before", "after"]))
    return command, flags, json_at, text, draw(OUT_NAMES)


def _run(argv):
    out, err = io.BytesIO(), io.BytesIO()
    # Strict UTF-8 on stdout, as a UTF-8 terminal or pipe gets; stderr
    # escapes what it cannot encode, as Python's own stderr does.
    stdout = io.TextIOWrapper(out, encoding="utf-8", write_through=True)
    stderr = io.TextIOWrapper(err, encoding="utf-8", errors="backslashreplace", write_through=True)
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue().decode("utf-8"), err.getvalue().decode("utf-8")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(invocation=invocations())
# One export that writes its view and reports the surrogate-escaped path in
# JSON is always run.
@example(
    invocation=(
        "export",
        ["--view", "global", "--out", "OUT"],
        "after",
        (DATA / "partial.reqcat.json").read_text(encoding="utf-8"),
        "\udcff",
    )
)
def test_exit_code_contract_holds_for_mutated_catalogs(invocation, tmp_path_factory):
    command, flags, json_at, text, out_name = invocation
    work = tmp_path_factory.getbasetemp() / "contract"
    work.mkdir(exist_ok=True)
    path = work / "catalog.reqcat.json"
    path.write_bytes(text.encode("utf-8"))
    flags = [str(work / f"{out_name}.dot") if flag == "OUT" else flag for flag in flags]
    argv = [command, str(path), *flags]
    if json_at == "before":
        argv.insert(0, "--json")
    elif json_at == "after":
        argv.append("--json")

    try:
        invalid = not validate(loads(text)).ok
        loaded = True
    except (ParseError, SchemaError):
        invalid = loaded = False

    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    if code == 1:
        assert invalid, (argv, err)
    if invalid:
        assert code != 0, argv
    if not loaded:
        assert code == 2, argv
    if command == "validate":
        assert code == (2 if not loaded else 1 if invalid else 0), (argv, err)
    if json_at is not None and (code == 0 or command == "validate" and loaded):
        json.loads(out)
    if code == 2:
        assert out == "", argv
