"""The reqlattice benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload wide --seed 1 --seconds 30 --trace 0

Closed loop, one caller, one process: every CLI op runs in-process
through ``reqlattice.cli.main`` and the next starts when it returns;
subprocess calls run one at a time while this process waits.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are the human report.
With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones from a separate traced run.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import functools
import gc
import hashlib
import io as std_io
import itertools
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))

import catgen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import OP_KINDS, QUERY_KINDS, WORKLOADS  # noqa: E402

# Shares of --seconds given to each stream of units; see Bench.interleave.
SETUP_SHARE = 0.07
PROC_SHARE = 0.2
OPS_SHARE = 0.48
QUERY_SHARE = 0.25
# No round starts after HARD_LIMIT x --seconds, unless a stream still
# lacks its minimum of samples.
HARD_LIMIT = 1.2
SETUP_RUNS = 7
PROC_MIN_RUNS = 5
PROC_TIMEOUT_S = 60
# A subprocess call runs `python -c PROC_MAIN PEAK_FILE ARGS...`: it runs
# reqlattice.cli as `python -m` does, then writes its own peak RSS in kB
# (VmHWM) to PEAK_FILE.  getrusage(RUSAGE_CHILDREN) cannot give that peak:
# the kernel carries the parent's peak into the child at exec, so it reads
# the benchmark's own peak whenever that is the larger.
PROC_MAIN = """
import atexit, runpy, sys
peak_file = sys.argv.pop(1)
def report():
    with open("/proc/self/status") as status, open(peak_file, "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")).split()[1])
atexit.register(report)
runpy.run_module("reqlattice.cli", run_name="__main__", alter_sys=True)
"""
# A unit is run again (once) when the probes before and after it differ
# by more than this factor: the host changed speed while it ran.
STEADY_FACTOR = 1.5
MAX_TRIES = 2
# Size of the host-speed probe; see Host.
PROBE_LOOPS = 7_500
PROBE_ROWS = 1_500
PROBE_TABLE = 200_000
# End-to-end times are reported at the host speed where one probe takes
# this long; see Host and Tally.
PROBE_REF_S = 0.001

# (name, unit, predicted effect) of each per-layer metric; BENCHMARK.json
# lists the same names and units.
PER_LAYER = [
    ("io.loads.ms", "ms", "setup_s, op_p50_ms on edit; small on wide"),
    ("io.loads.peak_mb", "MB", "setup_s, op_p50_ms on edit"),
    ("io.dumps.ms", "ms", "op_p50_ms on edit only"),
    ("io.build_view.ms", "ms", "proc_s, op_p90_ms on wide"),
    ("io.render_dot.ms", "ms", "proc_s, op_p90_ms on wide"),
    ("model.Catalog.ms", "ms", "setup_s, op_p50_ms on edit (sorting in the constructor)"),
    ("model.validate.ms", "ms", "setup_s, op_p50_ms on edit and deep"),
    ("model.validate.calls", "count", "setup_s, op_p50_ms on edit and deep; 2 per CLI op"),
    ("refinement.build_graph.ms", "ms", "setup_s, op_p50_ms, proc_peak_rss_mb on deep; ~0 on wide"),
    ("refinement.build_graph.peak_mb", "MB", "setup_s, op_p50_ms, proc_peak_rss_mb on deep"),
    ("refinement.optimize.ms", "ms", "query_p50_ms, proc_s on wide; proc_s on deep"),
    ("refinement.optimize.calls", "count", "query_p50_ms, proc_s on wide; proc_s on deep"),
    ("refinement.optimize.kept_ratio", "ratio", "kept over input ids; base is .input"),
    ("refinement.optimize.input", "count", "mean input ids per optimize call"),
    ("refinement.is_weaker.ms", "ms", "proc_s, query_p50_ms on deep"),
    ("refinement.is_weaker.calls", "count", "proc_s, query_p50_ms on deep"),
    ("algebra.requirements_for.ms", "ms", "query_p50_ms, op_p90_ms on wide; ~0 on deep"),
    ("algebra.requirements_for.calls", "count", "query_p50_ms, op_p90_ms on wide; far lower on deep"),
    ("algebra.product_union.ms", "ms", "query_p50_ms, op_p90_ms on wide"),
    ("algebra.rl_min.ms", "ms", "query_p50_ms, op_p90_ms on wide"),
    ("algebra.partition_general_specific.ms", "ms", "query_p50_ms, op_p90_ms on wide"),
    ("algebra.shared_regulations.calls", "count", "query_p50_ms, op_p90_ms on wide"),
    ("analysis.change_impact.ms", "ms", "query_p50_ms on edit"),
    ("analysis.classify_overlap.ms", "ms", "query_p50_ms on edit"),
    ("analysis.reuse_candidates.ms", "ms", "query_p50_ms on edit and wide"),
    ("analysis.consistency_diagnostics.ms", "ms", "query_p50_ms on edit"),
    ("cli.main.ms", "ms", "op_p50_ms on deep (argument handling, witness loop, JSON emit)"),
    ("trace.overhead_pct", "%", "traced against untraced time of the same mix"),
]


Sample = tuple[str, float, "str | None"]  # (kind, seconds, failure reason)


@dataclass
class Tally:
    """Outcomes of one stream of units.  Every sample counts toward
    attempted and failed; samples of a unit that is run again do not count
    toward latency.

    Each latency is scaled to the reference host speed by the probes read
    right before and right after its unit: times PROBE_REF_S over their
    mean.  `raw` keeps the latencies as timed."""

    latencies: list[float] = field(default_factory=list)
    raw: list[float] = field(default_factory=list)
    by_kind: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    retried: int = 0
    reasons: dict[str, int] = field(default_factory=dict)
    # Mean of the probes around each kept unit.
    probes: list[float] = field(default_factory=list)

    def add(self, samples: list[Sample], probe: float | None) -> None:
        """Count `samples`; keep their latencies unless `probe` is None."""
        for kind, seconds, reason in samples:
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                key = f"{kind}: {reason}"
                self.reasons[key] = self.reasons.get(key, 0) + 1
            if probe is None:
                self.retried += 1
                continue
            scaled = seconds * PROBE_REF_S / probe
            self.latencies.append(scaled)
            self.raw.append(seconds)
            self.by_kind.setdefault(kind, []).append(scaled)
        if probe is not None:
            self.probes.append(probe)


@dataclass
class Stream:
    """Endless rounds of units feeding one tally, with its share of the run."""

    name: str
    rounds: Iterator[list[Callable[[], list[Sample]]]]
    share: float
    minimum: int = 1
    warm_up: bool = True
    tally: Tally = field(default_factory=Tally)
    seconds: float = 0.0


class Host:
    """Measures how fast a shared machine runs this process right now, and
    moves the process to the faster core.

    On the reference machine other tenants change the speed of this
    process by 30% and more from second to second, often on one core while
    the other stays quiet, and the program's timings move with it.  A probe
    is fixed pure-Python work of about a millisecond that moves the same
    way: an arithmetic loop, then a scan that filters objects by an
    attribute and by membership in a large set and sorts what it kept,
    much as the program's scope scans do.  Before each unit the process
    runs the probe on every core and stays on the fastest; Tally scales
    the unit's time by the probes before and after it.
    """

    def __init__(self) -> None:
        self.cores = sorted(os.sched_getaffinity(0))
        rng = random.Random(0)
        ids = [f"R{i:06d}" for i in range(PROBE_TABLE)]
        self.members = frozenset(rng.sample(ids, PROBE_TABLE // 4))
        self.rows = [argparse.Namespace(id=i, scope=rng.randrange(16)) for i in rng.sample(ids, PROBE_ROWS)]
        self.scopes = frozenset(range(0, 16, 3))

    def scan(self) -> list[str]:
        kept = [row.id for row in self.rows if row.scope in self.scopes and row.id in self.members]
        kept.sort()
        return kept

    def probe(self) -> float:
        # A unit leaves the caches full of its own data, which would slow
        # the first scan after it by half; an untimed scan refills them.
        self.scan()
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        self.scan()
        return time.perf_counter() - start

    def settle(self) -> float:
        """Move to the core with the fastest probe; return that probe."""
        readings = []
        for core in self.cores:
            os.sched_setaffinity(0, {core})
            readings.append((self.probe(), core))
        fastest, core = min(readings)
        os.sched_setaffinity(0, {core})
        return fastest


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, scale: str, lib) -> None:
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.lib = lib
        self.dir = WORK / f"{workload}-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        shape = (catgen.TINY if scale == "tiny" else catgen.SHAPES)[workload]
        doc = catgen.generate(shape, seed)
        self.text = doc.text()
        self.base = self.dir / "generated.reqcat.json"
        self.base.write_text(self.text, encoding="utf-8")
        path = self.dir / "catalog.reqcat.json"
        path.write_text(self.text, encoding="utf-8")
        self.ctx = workloads.new_context(doc, str(path), str(self.dir / "view.dot"), seed)
        self.base_ctx = workloads.new_context(copy.deepcopy(doc), str(self.base), self.ctx.out, seed)
        self.query_ctx = self.ctx
        if workload == "edit":
            # The query stream edits a copy of its own, so that neither
            # stream's edits depend on how the two interleave.
            path = self.dir / "queries.reqcat.json"
            path.write_text(self.text, encoding="utf-8")
            self.query_ctx = workloads.new_context(copy.deepcopy(doc), str(path), self.ctx.out, seed)
        self.digests: dict[str, str] = {}
        self.edits = 0
        self.proc_peak_kb = 0
        self.host = Host()
        report = lib.model.validate(lib.io.loads(self.text))
        if report.errors:
            raise SystemExit(
                "generated catalog does not validate: " + "; ".join(i.code for i in report.errors)
            )

    # -- primitives -----------------------------------------------------------

    def cli(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = std_io.StringIO(), std_io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.lib.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc()
                code = -1
        return code, out.getvalue(), err.getvalue()

    def record(self, key: str, *outputs: str) -> None:
        digest = hashlib.sha256()
        for output in outputs:
            digest.update(output.encode("utf-8"))
            digest.update(b"\0")
        self.digests[key] = digest.hexdigest()

    def check_cli(self, ctx, kind: str, argv: list[str], code: int, out: str, err: str) -> str | None:
        """The op contract: exit 0, no traceback, parseable JSON, right answer."""
        self.record(" ".join(a for a in argv if a not in (ctx.path, ctx.out)) + self._edit_tag(), out, _view_file(ctx, argv))
        if code != 0:
            return f"exit code {code}"
        if "Traceback" in err:
            return "traceback on stderr"
        try:
            payload = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        return _checked(OP_KINDS[kind].check, ctx, argv, payload)

    def _edit_tag(self) -> str:
        return f" @edit{self.edits}" if self.workload.name == "edit" else ""

    # -- units: one timed step each, returning its samples ---------------------

    def setup_unit(self, data: bytes) -> list[Sample]:
        lib = self.lib
        start = time.perf_counter()
        catalog = lib.io.loads(data)
        lib.model.validate(catalog)
        lib.refinement.build_graph(catalog)
        return [("setup", time.perf_counter() - start, None)]

    def proc_unit(self, argv: list[str]) -> list[Sample]:
        ctx = self.base_ctx
        Path(ctx.out).unlink(missing_ok=True)
        peak = self.dir / "proc_peak_kb"
        peak.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-c", PROC_MAIN, str(peak), *argv],
                cwd=ROOT,
                env=dict(os.environ, PYTHONPATH=str(SRC)),
                capture_output=True,
                text=True,
                timeout=PROC_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            return [("proc", time.perf_counter() - start, f"no exit within {PROC_TIMEOUT_S} s")]
        elapsed = time.perf_counter() - start
        if peak.exists():
            self.proc_peak_kb = max(self.proc_peak_kb, int(peak.read_text()))
        reason = None
        if done.returncode != 0:
            reason = f"exit code {done.returncode}"
        elif "Traceback" in done.stderr:
            reason = "traceback on stderr"
        else:
            reason = _checked(self.workload.proc_check, ctx, argv, done.stdout)
        self.record("proc " + " ".join(a for a in argv if a not in (ctx.path, ctx.out)), done.stdout, _view_file(ctx, argv))
        return [("proc", elapsed, reason)]

    def op_unit(self, kind: str, rng: random.Random) -> list[Sample]:
        """One CLI op, or on `edit` one edit cycle of five ops."""
        if self.workload.name == "edit":
            return self.edit_unit(kind, rng)
        ctx = self.ctx
        argv = OP_KINDS[kind].argv(rng, ctx)
        Path(ctx.out).unlink(missing_ok=True)
        start = time.perf_counter()
        code, out, err = self.cli(argv)
        elapsed = time.perf_counter() - start
        return [(kind, elapsed, self.check_cli(ctx, kind, argv, code, out, err))]

    def edit_unit(self, kind: str, rng: random.Random) -> list[Sample]:
        """Load and edit the catalog, save it, then re-ask impact, classify
        and optimize; each of the five steps is one timed op."""
        ctx, lib = self.ctx, self.lib
        edit = workloads.next_edit(rng, ctx.doc, kind)
        self.edits += 1
        reason = None
        start = time.perf_counter()
        try:
            catalog = workloads.apply_edit(lib.model, lib.io.load(ctx.path), edit)
            edited = time.perf_counter()
            lib.io.save_file(catalog, ctx.path)
        except Exception as exc:  # a failed edit is a failed op, not a crash
            reason = f"edit raised {exc!r}"
            edited = time.perf_counter()
        saved = time.perf_counter()
        ctx.refresh()
        if reason is None:
            text = Path(ctx.path).read_text(encoding="utf-8")
            self.record(f"save{self._edit_tag()}", text)
            if json.loads(text) != ctx.doc.to_json():
                reason = "saved catalog differs from the edited document"
        samples = [(f"edit.{kind}", edited - start, reason), ("save", saved - edited, reason)]
        if reason is not None:
            return samples
        for argv in workloads.edit_argvs(ctx, edit):
            start = time.perf_counter()
            code, out, err = self.cli(argv)
            elapsed = time.perf_counter() - start
            op_kind = workloads.EDIT_CHECKS[argv[0]]
            samples.append((op_kind, elapsed, self.check_cli(ctx, op_kind, argv, code, out, err)))
        return samples

    def query_unit(self, item) -> list[Sample]:
        kind, run, check, catalog, graph = item
        start = time.perf_counter()
        try:
            result = run(self.lib, catalog, graph)
            reason = None
        except Exception as exc:
            result, reason = None, f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        return [(kind, elapsed, reason or _checked(check, result))]

    # -- scheduling -------------------------------------------------------------

    def measure(self, tally: Tally, unit) -> list[Sample]:
        """Run `unit` on the faster core, between two probes.  When the
        probes differ by more than STEADY_FACTOR, count the outcome but run
        the unit again, up to MAX_TRIES times."""
        for attempt in range(MAX_TRIES):
            before = self.host.settle()
            gc.collect()  # each unit starts from a clean heap, as a new process would
            samples = unit()
            after = self.host.probe()
            if max(before, after) <= STEADY_FACTOR * min(before, after) or attempt == MAX_TRIES - 1:
                tally.add(samples, (before + after) / 2)
                return samples
            tally.add(samples, None)
        raise AssertionError("unreachable")

    def interleave(self, streams: list[Stream]) -> None:
        """Run whole rounds of the streams, each time of the stream that has
        used the least of its share of --seconds, until every stream has
        used its share and has its minimum of samples.

        Interleaving spreads every stream over the whole run, so a slow
        spell of the host touches all of them a little rather than one of
        them entirely; whole rounds keep each kind's share of a stream's
        samples exact.  No round starts after HARD_LIMIT x --seconds unless
        a stream still lacks its minimum.
        """
        for stream in streams:
            if stream.warm_up:
                next(stream.rounds)[0]()
        gc.collect()
        gc.freeze()  # the benchmark's own heap stays out of the program's collections
        start = time.perf_counter()
        while True:
            short = [s for s in streams if len(s.tally.latencies) < s.minimum]
            due = short or [s for s in streams if s.seconds < s.share * self.seconds]
            if not due or (not short and time.perf_counter() - start >= HARD_LIMIT * self.seconds):
                break
            stream = min(due, key=lambda s: s.seconds / s.share)
            round_start = time.perf_counter()
            for unit in next(stream.rounds):
                self.measure(stream.tally, unit)
            stream.seconds += time.perf_counter() - round_start
        gc.unfreeze()

    def setup_units(self):
        data = self.base.read_bytes()
        return itertools.repeat([lambda: self.setup_unit(data)])

    def proc_units(self):
        return itertools.repeat([functools.partial(self.proc_unit, self.workload.proc(self.base_ctx))])

    def op_rounds(self, rng: random.Random):
        """Endless rounds of op kinds; each round holds the exact mix."""
        kinds = [k for k, n in self.workload.ops.items() for _ in range(n)]
        while True:
            rng.shuffle(kinds)
            yield list(kinds)

    def op_units(self, rng: random.Random):
        # Edits draw from changing lists, so they use the plain generator.
        edit = self.workload.name == "edit"
        decks = {kind: rng if edit else workloads.Deck(rng.random()) for kind in self.workload.ops}
        for kinds in self.op_rounds(rng):
            yield [functools.partial(self.op_unit, kind, decks[kind]) for kind in kinds]

    def query_setup(self, path: str):
        lib = self.lib
        catalog = lib.io.load(path)
        lib.model.validate(catalog)
        return catalog, lib.refinement.build_graph(catalog)

    def query_rounds(self, rng: random.Random):
        """Endless batches of (kind, run, check, catalog, graph).

        On `wide` and `deep` a batch is one round of the mix against one
        set-up catalog.  On `edit` a batch is the questions about one new
        edit, asked after an untimed reload and set-up.
        """
        ctx = self.query_ctx
        if self.workload.name != "edit":
            catalog, graph = self.query_setup(ctx.path)
            decks = {k: workloads.Deck(rng.random()) for k in self.workload.queries}
            kinds = [k for k, n in self.workload.queries.items() for _ in range(n)]
            while True:
                rng.shuffle(kinds)
                yield [(k, *QUERY_KINDS[k](decks[k], ctx), catalog, graph) for k in kinds]
        kinds = list(workloads.EDIT_KINDS)
        while True:
            rng.shuffle(kinds)
            for kind in kinds:
                # next_edit applies the edit to the benchmark's own document,
                # which is written out directly, as the generator does.
                edit = workloads.next_edit(rng, ctx.doc, kind)
                Path(ctx.path).write_text(ctx.doc.text(), encoding="utf-8")
                ctx.refresh()
                loaded, graph = self.query_setup(ctx.path)
                yield [(k, run, check, loaded, graph) for k, (run, check) in workloads.edit_queries(rng, ctx, edit)]

    def query_units(self, rng: random.Random):
        for batch in self.query_rounds(rng):
            yield [functools.partial(self.query_unit, item) for item in batch]

    def write_digests(self) -> str:
        combined = hashlib.sha256(json.dumps(self.digests, sort_keys=True).encode()).hexdigest()
        path = self.dir / "digests.json"
        path.write_text(json.dumps({"combined": combined, "outputs": self.digests}, indent=1, sort_keys=True) + "\n")
        return combined


def _view_file(ctx, argv: list[str]) -> str:
    """The .dot file an export wrote, or "" when there is none."""
    try:
        return Path(ctx.out).read_text(encoding="utf-8") if argv[0] == "export" else ""
    except OSError:
        return ""


def _checked(check, *args) -> str | None:
    """Run a checker; output too malformed to inspect is a failure too."""
    try:
        return check(*args)
    except (OSError, LookupError, TypeError, ValueError, AttributeError) as exc:
        return f"malformed output: {exc!r}"


# -- reporting ----------------------------------------------------------------


def tail(values: list[float], q: float = 0.9) -> float:
    """Nearest-rank percentile: the value with ceil(q*n) - 1 values below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "proc_s": "s",
}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(bench: Bench) -> tuple[dict, list[str], int, int]:
    streams = [
        Stream("setup", bench.setup_units(), SETUP_SHARE, SETUP_RUNS),
        Stream("proc", bench.proc_units(), PROC_SHARE, PROC_MIN_RUNS, warm_up=False),
        Stream("ops", bench.op_units(random.Random(f"{bench.seed}-ops")), OPS_SHARE),
        Stream("queries", bench.query_units(random.Random(f"{bench.seed}-queries")), QUERY_SHARE),
    ]
    bench.interleave(streams)
    setups, procs, ops, queries = (s.tally for s in streams)

    tallies = (setups, procs, ops, queries)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    # A subprocess runs for up to seconds, longer than the host keeps one
    # speed, so the probes at its two ends say little about it.  Its time
    # is scaled by the median probe of the whole run instead.
    run_probe = statistics.median(p for s in streams for p in s.tally.probes)

    def times(pick, proc_scale: float) -> dict[str, float]:
        return {
            "setup_s": statistics.median(pick(setups)),
            "op_p50_ms": statistics.median(pick(ops)) * 1e3,
            "op_p90_ms": tail(pick(ops)) * 1e3,
            "ops_per_s": len(pick(ops)) / sum(pick(ops)),
            "query_p50_ms": statistics.median(pick(queries)) * 1e3,
            "query_p90_ms": tail(pick(queries)) * 1e3,
            "proc_s": statistics.median(procs.raw) * proc_scale,
        }

    raw = times(lambda t: t.raw, 1.0)
    metrics = {
        name: metric(value, UNITS[name]) for name, value in times(lambda t: t.latencies, PROBE_REF_S / run_probe).items()
    }
    metrics["proc_peak_rss_mb"] = metric(bench.proc_peak_kb / 1024, "MB")
    metrics["ok_ratio"] = metric(1 - failed / attempted, "ratio")
    lines = [
        "samples kept (and re-run because the host changed speed): "
        + ", ".join(f"{s.name}={len(s.tally.latencies)} ({s.tally.retried})" for s in streams)
        + f"; failed_ratio={failed}/{attempted}",
        "seconds per stream: " + ", ".join(f"{s.name}={s.seconds:.1f}" for s in streams),
        "median probe ms around kept units, per stream (reference 1.000): "
        + ", ".join(f"{statistics.median(s.tally.probes) * 1e3:.3f}" for s in streams),
        "as timed, before scaling to the reference speed: "
        + ", ".join(f"{name}={value:.6g}" for name, value in raw.items()),
    ]
    for title, tally in (("op", ops), ("query", queries)):
        for kind, values in sorted(tally.by_kind.items(), key=lambda kv: statistics.median(kv[1])):
            lines.append(f"  {title} {kind:28s} n={len(values):4d} p50={statistics.median(values) * 1e3:9.2f} ms")
    for tally in tallies:
        for reason, count in sorted(tally.reasons.items()):
            lines.append(f"FAILED x{count}: {reason}")
    return metrics, lines, attempted, failed


def traced(bench: Bench) -> tuple[dict, list[str], int, int]:
    """Per-layer numbers: alternate untraced and traced passes over the same
    rounds, then one set-up under tracemalloc for the peak figures."""
    lib = bench.lib
    lines = []
    plain, traced_tally = Tally(), Tally()
    recorder = spans.Recorder()
    op_rng, query_rng = random.Random(f"{bench.seed}-ops"), random.Random(f"{bench.seed}-queries")
    op_rounds, query_rounds = bench.op_rounds(op_rng), bench.query_rounds(query_rng)
    bench.op_unit(next(op_rounds)[0], op_rng)  # warm-up, untimed
    ops = rounds = 0
    gc.collect()
    gc.freeze()
    start, round_s = time.perf_counter(), 0.0
    # Whole rounds only, and none expected to end past 80% of --seconds.
    while rounds == 0 or time.perf_counter() - start + round_s <= bench.seconds * 0.8:
        round_start = time.perf_counter()
        op_round, query_round = next(op_rounds), next(query_rounds)
        for tally in (plain, traced_tally):
            tracing = tally is traced_tally
            undo = spans.install(recorder, lib.package) if tracing else []
            root = recorder.root if tracing else (lambda name: contextlib.nullcontext())
            # Both passes draw the same op arguments.
            rng = (random.Random if bench.workload.name == "edit" else workloads.Deck)(f"{bench.seed}-{rounds}")
            try:
                first = tally.attempted
                for kind in op_round:
                    bench.measure(tally, _rooted(root, "bench.op", functools.partial(bench.op_unit, kind, rng)))
                ops += (tally.attempted - first) if tracing else 0
                for item in query_round:
                    bench.measure(tally, _rooted(root, "bench.query", functools.partial(bench.query_unit, item)))
            finally:
                spans.uninstall(undo)
        rounds += 1
        round_s = time.perf_counter() - round_start
    gc.unfreeze()
    queries = traced_tally.attempted - ops

    memory = spans.Recorder(memory=True)
    data = bench.base.read_bytes()
    undo = spans.install(memory, lib.package)
    tracemalloc.start()
    try:
        with memory.root("bench.setup"):
            catalog = lib.io.loads(data)
            lib.model.validate(catalog)
            lib.refinement.build_graph(catalog)
    finally:
        tracemalloc.stop()
        spans.uninstall(undo)

    operations = ops + queries
    stats = spans.self_times(recorder.spans)
    peaks = spans.self_times(memory.spans)
    values: dict[str, float] = {}
    for name, unit, _ in PER_LAYER:
        function, stat = name.rsplit(".", 1)
        entry = stats.get(function, {"self": 0.0, "calls": 0, "extras": []})
        if stat == "ms":
            values[name] = entry["self"] * 1e3 / operations
        elif stat == "calls":
            values[name] = entry["calls"] / operations
        elif stat == "peak_mb":
            extras = peaks.get(function, {"extras": []})["extras"]
            values[name] = max((e["peak_bytes"] for e in extras), default=0) / 2**20
        elif stat == "kept_ratio":
            kept = sum(e["out"] for e in entry["extras"])
            values[name] = kept / max(1, sum(e["in"] for e in entry["extras"]))
        elif stat == "input":
            values[name] = sum(e["in"] for e in entry["extras"]) / max(1, entry["calls"])
    values["trace.overhead_pct"] = (sum(traced_tally.latencies) / sum(plain.latencies) - 1) * 100

    main_calls = stats.get("cli.main", {"calls": 0})["calls"]
    validate_per_call = _calls_inside(recorder, "model.validate", "cli.main") / max(1, main_calls)
    lines.append(
        f"traced pass: {ops} CLI ops + {queries} queries, re-runs included; "
        f"per-layer .ms and .calls are per operation (CLI op or query)"
    )
    lines.append(f"{'metric':40s} {'value':>12s} unit   predicted to move")
    for name, unit, moves in PER_LAYER:
        lines.append(f"{name:40s} {values[name]:12.4f} {unit:6s} {moves}")
    lines.append(f"check: model.validate calls per cli.main call = {validate_per_call:.2f} (predicted 2, and 1 for validate)")
    spans_path = bench.dir / "spans.json"
    spans_path.write_text(json.dumps(recorder.dump()))
    lines.append(f"spans: {len(recorder.spans)} written to {spans_path.relative_to(ROOT)}")
    for tally in (plain, traced_tally):
        for reason, count in sorted(tally.reasons.items()):
            lines.append(f"FAILED x{count}: {reason}")
    metrics = {name: metric(values[name], unit) for name, unit, _ in PER_LAYER}
    return metrics, lines, plain.attempted + traced_tally.attempted, plain.failed + traced_tally.failed


def _rooted(root, name: str, unit):
    def run():
        with root(name):
            return unit()

    return run


def _calls_inside(recorder: spans.Recorder, name: str, outer: str) -> int:
    """Calls of `name` made, at any depth, inside a span named `outer`."""
    inside: list[bool] = []
    total = 0
    for span in recorder.spans:
        parent = recorder.spans[span.parent] if span.parent >= 0 else None
        inside.append(parent is not None and (inside[span.parent] or parent.name == outer))
        if inside[-1] and span.name == name:
            total += span.calls
    return total


def load_library():
    """Import reqlattice from the checkout's src/, or exit with code 2."""
    if not (SRC / "reqlattice" / "__init__.py").is_file():
        print(f"error: no reqlattice sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import reqlattice
    from reqlattice import algebra, analysis, cli, io, model, refinement

    return argparse.Namespace(
        package=reqlattice, algebra=algebra, analysis=analysis, cli=cli, io=io, model=model, refinement=refinement
    )


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> tuple[dict, list[str]]:
    lib = load_library()
    bench = Bench(workload, seed, seconds, scale, lib)
    metrics, lines, attempted, failed = (traced if trace else end_to_end)(bench)
    combined = bench.write_digests()
    lines.insert(0, f"workload={workload} seed={seed} seconds={seconds} trace={int(trace)} scale={scale}")
    lines.append(f"output digest {combined} over {len(bench.digests)} outputs "
                 f"({(bench.dir / 'digests.json').relative_to(ROOT)})")
    for name, m in metrics.items():
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full", help="tiny is for the smoke test")
    args = parser.parse_args(argv)
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
