"""What a `reqlattice` process pays besides its answer.

A CLI call imports `reqlattice.analysis` only for the commands that call
it and `reqlattice.refinement` only for those that build a graph, runs
its command with the cyclic collector paused, writes `--json` text
through one writer with C-encoded leaves, and exits 2 with one `error:`
line when its stdout cannot take its text (the reader has gone, or the
device is full), argparse's help text included. When its stderr
cannot take its text, the exit code stays as it is.
"""

from __future__ import annotations

import contextlib
import errno
import gc
import io
import itertools
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
    *args: str, stdout=subprocess.PIPE, stderr=subprocess.PIPE, unbuffered=False
) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on the package under test, stdout buffered
    unless `unbuffered`."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=stderr, env=env, timeout=60
    )


# -- imports ------------------------------------------------------------------

MODULES_SCRIPT = """
import contextlib, io, json, sys
from reqlattice import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(json.loads(sys.argv[1]))
loaded = sorted(m.removeprefix("reqlattice.") for m in sys.modules if m.startswith("reqlattice."))
print(json.dumps([code, loaded, out.getvalue()]))
"""
# The modules every command loads: the CLI, the loader and the set algebra.
CORE = ["algebra", "bitmap", "cli", "errors", "io", "model"]


# Each command and the modules it loads besides CORE: `validate` builds no
# graph, and only the analytical commands call `analysis`.
COMMAND_MODULES = [
    (["validate", PARTIAL, "--json"], ["analysis"]),
    (["classify", PARTIAL, "--json"], ["analysis", "refinement"]),
    (["impact", PARTIAL, "--regulation", "g", "--json"], ["analysis", "refinement"]),
    (["sets", PARTIAL, "--product", "P1", "--json"], ["refinement"]),
    (["optimize", PARTIAL, "--global", "--json"], ["refinement"]),
    (["export", PARTIAL, "--view", "global", "--out", "{out}", "--json"], ["refinement"]),
]


@pytest.mark.parametrize(
    "argv, extra", COMMAND_MODULES, ids=[argv[0] for argv, _ in COMMAND_MODULES]
)
def test_each_command_loads_only_the_modules_it_runs(argv, extra, tmp_path, capsys):
    argv = [part.format(out=tmp_path / "view.dot") for part in argv]
    done = _python("-c", MODULES_SCRIPT, json.dumps(argv))
    assert done.returncode == 0, done.stderr
    code, loaded, out = json.loads(done.stdout)
    assert (code, loaded) == (0, sorted(CORE + extra))
    assert cli.main(argv) == 0
    assert out == capsys.readouterr().out


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


# -- a stdout or stderr that cannot take its text -------------------------------


@contextlib.contextmanager
def _dead(target: str):
    """A file descriptor whose writes fail: a pipe whose reader has closed,
    or the full device."""
    if target == "closed-pipe":
        read, write = os.pipe()
        os.close(read)
    else:
        write = os.open("/dev/full", os.O_WRONLY)
    try:
        yield write
    finally:
        os.close(write)


def _dead_cases(*cases):
    """Each case against a closed pipe and the full device, with the
    streams buffered and unbuffered; the closed, buffered run keeps the
    case's id."""
    no_device = pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="no /dev/full on this platform"
    )
    for case in cases:
        for target, unbuffered in itertools.product(("closed-pipe", "full-device"), (False, True)):
            suffix = ("-full-device" if target == "full-device" else "") + (
                "-unbuffered" if unbuffered else ""
            )
            marks = [no_device] if target == "full-device" else []
            yield pytest.param(*case.values, target, unbuffered, id=case.id + suffix, marks=marks)


DEEP = "<deep>"


@pytest.fixture(scope="module")
def deep(tmp_path_factory) -> str:
    """The `deep` bench catalog, whose `optimize --global` output, as text
    and as JSON, is more than stdout's buffer holds, so a write inside the
    command fails."""
    path = tmp_path_factory.mktemp("deep") / "deep.reqcat.json"
    path.write_text(catgen.generate(catgen.SHAPES["deep"], 11).text(), encoding="utf-8")
    for json_flag in (["--json"], []):
        whole = _python("-m", "reqlattice.cli", "optimize", str(path), "--global", *json_flag)
        assert whole.returncode == 0 and len(whole.stdout) > 4 * io.DEFAULT_BUFFER_SIZE
    return str(path)


@pytest.mark.parametrize(
    "argv, target, unbuffered",
    _dead_cases(
        pytest.param(["classify", CHAIN, "--json"], id="small"),
        pytest.param(["optimize", DEEP, "--global", "--json"], id="large"),
        pytest.param(["optimize", DEEP, "--global"], id="large-text"),
        pytest.param(["--help"], id="help"),
        pytest.param(["sets", "--help"], id="sets-help"),
    ),
)
def test_a_closed_stdout_exits_two_with_one_error_line(argv, target, unbuffered, deep):
    # Buffered, a write fails when the buffer fills or is flushed;
    # unbuffered, it fails at once (argparse drops such a failure itself).
    argv = [deep if arg == DEEP else arg for arg in argv]
    with _dead(target) as write:
        done = _python("-m", "reqlattice.cli", *argv, stdout=write, unbuffered=unbuffered)
    code = errno.EPIPE if target == "closed-pipe" else errno.ENOSPC
    error = f"error: [Errno {code}] {os.strerror(code)}\n".encode()
    assert (done.returncode, done.stderr) == (2, error)


class _FullDevice(io.RawIOBase):
    """Raw output on the file descriptor `fd` that fails as a full device
    does, until `fd` is pointed at another file."""

    def __init__(self, fd: int):
        self.fd = fd
        self.file = os.fstat(fd)[1:3]  # (inode, device)

    def writable(self) -> bool:
        return True

    def fileno(self) -> int:
        return self.fd

    def write(self, data) -> int:
        if os.fstat(self.fd)[1:3] == self.file:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return len(data)


def test_text_left_in_stdout_by_a_failed_write_is_dropped(monkeypatch, capsys):
    # A write that fails inside a command leaves the buffer's text in place;
    # the interpreter's flush at exit would fail on it and exit 120.
    read, write = os.pipe()
    stdout = io.TextIOWrapper(
        io.BufferedWriter(_FullDevice(write), buffer_size=4), encoding="utf-8", write_through=True
    )
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        assert cli.main(["sets", PARTIAL, "--product", "P1"]) == 2
        stdout.flush()
    finally:
        os.close(read)
        os.close(write)
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize(
    "argv, code, target, unbuffered",
    _dead_cases(
        pytest.param(["optimize", CYCLE, "--global"], 1, id="invalid-catalog"),
        pytest.param(["sets", PARTIAL, "--product", "nope"], 2, id="unknown-id"),
        pytest.param(["sets", PARTIAL], 2, id="no-construct"),
        pytest.param(["optimize", PARTIAL], 2, id="usage-error"),
    ),
)
def test_a_closed_stderr_keeps_the_exit_code(argv, code, target, unbuffered):
    # `main` ends with the code (argparse's usage error raises it) rather
    # than an exception, and the interpreter exits cleanly after it.
    run_main = (
        "import sys\nfrom reqlattice import cli\n"
        "try:\n    code = cli.main(sys.argv[1:])\n"
        "except SystemExit as exit:\n    code = exit.code\n"
        "print(code)"
    )
    with _dead(target) as write:
        done = _python("-m", "reqlattice.cli", *argv, stderr=write, unbuffered=unbuffered)
        returned = _python("-c", run_main, *argv, stderr=write, unbuffered=unbuffered)
    assert done.returncode == code
    assert (returned.returncode, returned.stdout) == (0, f"{code}\n".encode())
