"""What a `reqlattice` process pays besides its answer.

A CLI call imports `reqlattice.analysis` only for the commands that call
it, runs its command with the cyclic collector paused, writes `--json`
text through one writer with C-encoded leaves, and exits 2 with one
`error:` line when the reader of its stdout has gone. When the reader of
its stderr has gone, an error exit keeps its code.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catgen  # bench/catgen.py
import reqlattice
from reqlattice import cli

DATA = Path(__file__).parent / "data"
PARTIAL = str(DATA / "partial.reqcat.json")
CHAIN = str(DATA / "chain.reqcat.json")
CYCLE = str(DATA / "cycle.reqcat.json")
SRC = str(Path(reqlattice.__file__).resolve().parent.parent)

# Every public name the package root served when it imported every
# module eagerly.
PUBLIC = (
    "ALL AllScope Catalog CatalogInvalidError EmptyCatalogError FocusForbiddenError "
    "FocusRequiredError GraphView ImpactReport ImpactScope Issue Jurisdiction Kind Overlap "
    "OverlapCase ParseError Partition Product RefinementEdge RefinementGraph Regulation "
    "ReqlatticeError Requirement RequirementSet ReuseCluster ReuseReport SchemaError Severity "
    "SharedRegulations UnknownIdError ValidationReport ViewKind build_graph build_view "
    "change_impact classify_overlap consistency_diagnostics dumps find_warnings general_part "
    "global_union is_weaker jurisdiction_regulations jurisdiction_rl load loads optimize "
    "oracle_maximal partition_general_specific product_union render_dot requirements_for "
    "reuse_candidates rl_min save save_file shared_regulations strongest_global "
    "strongest_product strongest_rl validate witnesses write_dot "
    "algebra analysis errors io model refinement"
).split()


def _python(
    *args: str, stdout=subprocess.PIPE, stderr=subprocess.PIPE
) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on the package under test, stdout buffered."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=stderr, env=env, timeout=60
    )


# -- imports ------------------------------------------------------------------

COMMANDS_SCRIPT = """
import contextlib, io, json, sys
from reqlattice import cli
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    seen.append([code, "reqlattice.analysis" in sys.modules, out.getvalue()])
print(json.dumps(seen))
"""


@pytest.mark.parametrize(
    "analytical",
    [
        ["validate", PARTIAL, "--json"],
        ["classify", PARTIAL, "--json"],
        ["impact", PARTIAL, "--regulation", "g", "--json"],
    ],
    ids=lambda argv: argv[0],
)
def test_only_the_analytical_commands_import_analysis(analytical, tmp_path, capsys):
    lean = [
        ["sets", PARTIAL, "--product", "P1", "--json"],
        ["optimize", PARTIAL, "--global", "--json"],
        ["export", PARTIAL, "--view", "global", "--out", str(tmp_path / "g.dot"), "--json"],
    ]
    done = _python("-c", COMMANDS_SCRIPT, json.dumps(lean + [analytical]))
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert [(code, loaded) for code, loaded, _ in seen] == [(0, False)] * 3 + [(0, True)]
    assert cli.main(analytical) == 0
    assert seen[-1][2] == capsys.readouterr().out


def test_importing_the_cli_leaves_analysis_unloaded():
    done = _python("-c", "import sys, reqlattice.cli; print('reqlattice.analysis' in sys.modules)")
    assert done.stdout == b"False\n", done.stderr


def test_every_public_name_resolves_from_the_package_root():
    from reqlattice import analysis

    listed = dir(reqlattice)
    for name in PUBLIC:
        assert getattr(reqlattice, name) is not None, name
        assert name in listed, name
    assert reqlattice.classify_overlap is analysis.classify_overlap
    assert reqlattice.Overlap is analysis.Overlap
    with pytest.raises(AttributeError, match="no_such_name"):
        reqlattice.no_such_name


# -- the collector --------------------------------------------------------------


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector_state_it_found(enabled, capsys):
    was = gc.isenabled()
    try:
        for argv, expected in (
            (["classify", PARTIAL, "--json"], 0),
            (["validate", CYCLE], 1),
            (["optimize", CYCLE, "--global"], 1),
            (["validate", str(DATA / "absent.reqcat.json")], 2),
            (["sets", PARTIAL, "--product", "nope"], 2),
        ):
            gc.enable() if enabled else gc.disable()
            assert cli.main(argv) == expected, argv
            assert gc.isenabled() is enabled, argv
    finally:
        gc.enable() if was else gc.disable()
    capsys.readouterr()


def test_no_collection_starts_inside_a_command(tmp_path, capsys):
    path = tmp_path / "deep.reqcat.json"
    path.write_text(catgen.generate(catgen.SHAPES["deep"], 11).text(), encoding="utf-8")
    starts = []

    def seen(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    assert gc.isenabled()
    for argv in (
        ["optimize", str(path), "--global", "--json"],
        ["validate", str(path), "--json"],
        ["export", str(path), "--view", "global", "--out", str(tmp_path / "g.dot")],
    ):
        gc.collect()
        gc.callbacks.append(seen)
        try:
            assert cli.main(argv) == 0, argv
        finally:
            gc.callbacks.remove(seen)
        assert starts == [], argv
    capsys.readouterr()


# -- the --json writer ----------------------------------------------------------

TEXT = st.text(
    st.characters(
        blacklist_categories=("Cs",),
        whitelist_characters='"\\/\b\f\n\r\t\x00\x1f\x7f é\U0001f600',
    )
)
LONE_SURROGATE = st.characters(whitelist_categories=("Cs",))
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    TEXT,
)
PAYLOADS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(TEXT, max_size=5),
        st.dictionaries(TEXT, inner, max_size=5),
        # Records: dicts that share their keys in one order.
        st.lists(TEXT, min_size=1, max_size=3, unique=True).flatmap(
            lambda keys: st.lists(st.fixed_dictionaries(dict.fromkeys(keys, inner)), max_size=4)
        ),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(PAYLOADS)
def test_writer_equals_indented_json_dumps(payload):
    assert cli._json_text(payload) == json.dumps(payload, indent=2, ensure_ascii=False)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(TEXT, PAYLOADS, max_size=4), TEXT, LONE_SURROGATE)
def test_a_lone_surrogate_takes_the_ascii_fallback(payload, text, surrogate):
    payload["out"] = text + surrogate
    assert cli._json_text(payload) == json.dumps(payload, indent=2, ensure_ascii=False)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._emit_json(payload)
    assert out.getvalue() == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize(
    "payload",
    [
        [{"a": "x", "b": 1}, {"b": 2, "a": "y"}],  # the same keys in another order
        [{"a": "x"}, {"a": "y", "b": "z"}],
        [{"a": "x"}, "y"],
        [{}, {}],
        [{"%s": "%", "{}": ["}"]}, {"%s": "", "{}": []}],
        {"removed": [{"id": "q1", "dominated_by": "q2"}], "kept": ["q2"]},
    ],
)
def test_writer_lays_out_lists_of_dicts_as_json_dumps_does(payload):
    assert cli._json_text(payload) == json.dumps(payload, indent=2, ensure_ascii=False)


def test_writer_refuses_values_outside_the_cli_payloads():
    for value in (1.5, {1: "a"}, object()):
        with pytest.raises(TypeError):
            cli._json_text({"x": value})


# -- a closed stdout --------------------------------------------------------------


@pytest.mark.parametrize("size", ["small", "large"])
def test_a_closed_stdout_exits_two_with_one_error_line(size, tmp_path):
    if size == "small":
        argv = ["classify", CHAIN, "--json"]
    else:
        path = tmp_path / "deep.reqcat.json"
        path.write_text(catgen.generate(catgen.SHAPES["deep"], 11).text(), encoding="utf-8")
        argv = ["optimize", str(path), "--global", "--json"]
        whole = _python("-m", "reqlattice.cli", *argv)
        # More than stdout's buffer holds, so a write inside the command fails.
        assert whole.returncode == 0 and len(whole.stdout) > 8 * io.DEFAULT_BUFFER_SIZE
    read, write = os.pipe()
    os.close(read)
    try:
        done = _python("-m", "reqlattice.cli", *argv, stdout=write)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (2, b"error: [Errno 32] Broken pipe\n")


# -- a closed stderr --------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, code",
    [
        pytest.param(["optimize", CYCLE, "--global"], 1, id="invalid-catalog"),
        pytest.param(["sets", PARTIAL, "--product", "nope"], 2, id="unknown-id"),
        pytest.param(["sets", PARTIAL], 2, id="no-construct"),
    ],
)
def test_a_closed_stderr_keeps_the_exit_code(argv, code):
    read, write = os.pipe()
    os.close(read)
    try:
        done = _python("-m", "reqlattice.cli", *argv, stderr=write)
        # `main` returns the code rather than raising, and the interpreter
        # exits cleanly after it.
        returned = _python(
            "-c", "import sys; from reqlattice import cli; print(cli.main(sys.argv[1:]))", *argv,
            stderr=write,
        )
    finally:
        os.close(write)
    assert done.returncode == code
    assert (returned.returncode, returned.stdout) == (0, f"{code}\n".encode())
