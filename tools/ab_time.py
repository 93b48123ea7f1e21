"""Time the library layers of two reqlattice source trees side by side, in
one process.

Usage: python tools/ab_time.py SRC_A SRC_B CATALOG... [--pairs N]

Each SRC is a `src` directory holding the `reqlattice` package, for example
the checkout of a parent commit and the working tree. The package uses only
relative imports, so each tree is imported under its own name
(`reqlattice_a`, `reqlattice_b`) and both live in this process.

For every catalog file the script runs N pairs (default 40). In each pair
both sides run, and the side that goes first switches every pair. A side
times, each step on a fresh parse of the file's bytes and right after
`gc.collect()`:

* `io.loads` of the bytes;
* `io.load` of the catalog file, the path every CLI call takes;
* `model.validate` of a freshly loaded catalog;
* `refinement.build_graph` of a freshly loaded catalog;
* six `cli.main` calls, each with stdout and stderr captured and each
  reading the file itself: `classify CATALOG --json` (step `classify`),
  which reads no requirement scope map; `impact CATALOG --regulation R
  --json` (step `impact`), one regulation's change impact, which reads
  the regulation scope map and no requirement scope map; `sets CATALOG
  --product P --jurisdiction J --json` (step `sets`), one projection;
  `optimize CATALOG --jurisdiction J --json` (step `optimize`), one
  jurisdiction's strongest RL set; `optimize CATALOG --global --json`
  (step `global`), whose `--json` payload, a list of kept ids and a list
  of records, is the largest of the five; and `export CATALOG --view
  global --out FILE` (step `view`), the benchmark's `wide` subprocess
  command, which reads every entry of both requirement scope maps and
  writes one label per (product, jurisdiction) pair to FILE, a file in a
  temporary directory. FILE is deleted before each timed call, as
  `bench/run.py` deletes its out file before each call: truncating the
  file a previous call wrote (625 KB on `wide`) costs more than the
  call's own work.
  P, J and R are the first product, jurisdiction and regulation ids of
  the loaded catalog.

It prints, per catalog and step, each side's median and quartiles in ms,
the change of B against A in percent, and in how many pairs B was faster.
Interleaving in one process keeps both sides under the same host load;
timing subprocesses in turn lets a slow phase of the host land on one side.

The benchmark catalogs can be written with `bench/catgen.py`, for example:

    python -c "import sys; sys.path.insert(0, 'bench'); import catgen; \\
        open('edit-11.reqcat.json', 'w').write(catgen.generate(catgen.SHAPES['edit'], 11).text())"
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

STEPS = (
    "loads", "load", "validate", "build_graph", "classify", "impact", "sets", "optimize",
    "global", "view",
)


def _import(src: str, name: str):
    """Import the `reqlattice` package under `src` as the top-level package `name`."""
    init = Path(src, "reqlattice", "__init__.py")
    if not init.is_file():
        sys.exit(f"{src} holds no reqlattice package")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("io", "model", "refinement", "cli"):
        importlib.import_module(f"{name}.{module}")
    return package


def _timed(call) -> float:
    gc.collect()
    start = time.perf_counter_ns()
    call()
    return (time.perf_counter_ns() - start) / 1e6


def _calls(lib, path: str, out: str) -> dict[str, list[str]]:
    """The `cli.main` argument list of each CLI step; `view` writes to `out`."""
    catalog = lib.io.load(path)
    product, jurisdiction = catalog.products[0].id, catalog.jurisdictions[0].id
    regulation = catalog.regulations[0].id
    return {
        "classify": ["classify", path, "--json"],
        "impact": ["impact", path, "--regulation", regulation, "--json"],
        "sets": ["sets", path, "--product", product, "--jurisdiction", jurisdiction, "--json"],
        "optimize": ["optimize", path, "--jurisdiction", jurisdiction, "--json"],
        "global": ["optimize", path, "--global", "--json"],
        "view": ["export", path, "--view", "global", "--out", out],
    }


def _side(lib, path: str, data: bytes, calls: dict[str, list[str]], out: str) -> dict[str, float]:
    """One run of every step; the milliseconds per step. `out` is the
    file the `view` step writes."""
    times = {"loads": _timed(lambda: lib.io.loads(data))}
    times["load"] = _timed(lambda: lib.io.load(path))
    catalog = lib.io.loads(data)
    times["validate"] = _timed(lambda: lib.model.validate(catalog))
    catalog = lib.io.loads(data)
    times["build_graph"] = _timed(lambda: lib.refinement.build_graph(catalog))
    del catalog
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for step, argv in calls.items():
            Path(out).unlink(missing_ok=True)
            times[step] = _timed(lambda: lib.cli.main(argv))
    return times


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", help="src directory of tree A (the baseline)")
    parser.add_argument("src_b", help="src directory of tree B")
    parser.add_argument("catalogs", nargs="+", help="catalog files")
    parser.add_argument("--pairs", type=int, default=40, help="pairs of runs per catalog")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    sides = {"A": _import(args.src_a, "reqlattice_a"), "B": _import(args.src_b, "reqlattice_b")}

    print(f"{args.pairs} pairs per catalog; ms as median [q1, q3]; wins = pairs where B was faster")
    with tempfile.TemporaryDirectory(prefix="ab-time-") as work:
        out = str(Path(work, "view.dot"))
        for path in args.catalogs:
            data = Path(path).read_bytes()
            calls = _calls(sides["A"], path, out)
            times = {(side, step): [] for side in sides for step in STEPS}
            for pair in range(args.pairs):
                for side in (("A", "B") if pair % 2 == 0 else ("B", "A")):
                    for step, ms in _side(sides[side], path, data, calls, out).items():
                        times[side, step].append(ms)
            print(f"\n{path}")
            for step, argv in calls.items():
                print(f"  {step}: {' '.join(argv[:1] + argv[2:])}")
            print(f"{'step':12s} {'A':>24s} {'B':>24s} {'change':>8s} {'wins':>7s}")
            for step in STEPS:
                a, b = times["A", step], times["B", step]
                (a1, am, a3), (b1, bm, b3) = _quartiles(a), _quartiles(b)
                wins = sum(y < x for x, y in zip(a, b))
                print(
                    f"{step:12s} {am:8.2f} [{a1:6.2f}, {a3:6.2f}] {bm:8.2f} [{b1:6.2f}, {b3:6.2f}]"
                    f" {(bm / am - 1) * 100:+7.1f}% {wins:3d}/{args.pairs}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
