"""Compare the peak resident memory of the benchmark's subprocess commands
between two reqlattice source trees.

Usage: python tools/peak_rss.py PARENT_SRC CHANGE_SRC [--rounds N]

Each argument is a `src` directory holding the `reqlattice` package, for
example the checkout of a parent commit and the working tree. The script
writes the seed-11 and seed-12 `wide`, `deep` and `edit` catalogs of
`bench/catgen.py` (only read, never changed) into a temporary directory.
For each catalog it runs that workload's subprocess command, as
`bench/workloads.py` names it, the way `bench/run.py` does: `python -c
PROC_MAIN`, which runs `reqlattice.cli` through `runpy` and writes the
process's own peak resident set (VmHWM, Linux only) to a file.

The two trees alternate for N rounds (default 5), and the tree that goes
first switches every round. The script prints the median peak in MB per
command and tree, with the change in percent. A command that exits
non-zero stops the script with exit code 1.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import catgen  # noqa: E402
from run import PROC_MAIN  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (11, 12)
TIMEOUT_S = 120


def _commands(work: Path) -> dict[str, list[str]]:
    """Write each catalog under `work`; map a label to its command's argv."""
    commands = {}
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            path = work / f"{name}-{seed}.reqcat.json"
            path.write_text(catgen.generate(catgen.SHAPES[name], seed).text(), encoding="utf-8")
            argv = workload.proc(SimpleNamespace(path=str(path), out=str(work / "view.dot")))
            commands[f"{name}-{seed} {argv[0]}"] = argv
    return commands


def _peak_kb(src: str, argv: list[str], work: Path) -> int:
    peak = work / "peak"
    peak.unlink(missing_ok=True)
    done = subprocess.run(
        [sys.executable, "-c", PROC_MAIN, str(peak), *argv],
        cwd=work,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    if done.returncode != 0 or not peak.exists():
        sys.exit(f"{src}: {' '.join(argv)} exited {done.returncode}\n{done.stderr}")
    return int(peak.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="src directory of the parent tree")
    parser.add_argument("change", help="src directory of the changed tree")
    parser.add_argument("--rounds", type=int, default=5, help="runs per command and tree")
    args = parser.parse_args(argv)
    trees = {"parent": str(Path(args.parent).resolve()), "change": str(Path(args.change).resolve())}
    for src in trees.values():
        if not Path(src, "reqlattice", "__init__.py").is_file():
            parser.error(f"{src} holds no reqlattice package")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        commands = _commands(work)
        peaks = {(label, side): [] for label in commands for side in trees}
        for round_ in range(args.rounds):
            order = list(trees) if round_ % 2 == 0 else list(trees)[::-1]
            for label, command in commands.items():
                for side in order:
                    peaks[label, side].append(_peak_kb(trees[side], command, work))
    print(f"median VmHWM over {args.rounds} runs, MB")
    print(f"{'command':24s} {'parent':>8s} {'change':>8s} {'delta':>8s}")
    for label in commands:
        parent, change = (statistics.median(peaks[label, side]) / 1024 for side in trees)
        print(f"{label:24s} {parent:8.2f} {change:8.2f} {(change / parent - 1) * 100:+7.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
