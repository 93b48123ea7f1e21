"""One tiny traced run of the benchmark, so that a change which breaks the
benchmark's wrappers around the library, or its oracle, fails here.

The run works on a copy of `bench/` and `src/`, so it leaves nothing in the
checkout. `python -m pytest bench -q` runs every workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tiny_traced_edit_run_of_the_benchmark_is_correct(tmp_path):
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    argv = ["--workload", "edit", "--seed", "7", "--seconds", "0.2", "--trace", "1", "--scale", "tiny"]
    done = subprocess.run(
        [sys.executable, "bench/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
