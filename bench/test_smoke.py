"""Smoke test of the benchmark at tiny size, so the harness cannot rot.

Run with: python -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import catgen
from oracle import Oracle, check_dot, check_optimize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "wide", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_generator_is_deterministic_per_seed():
    shape = catgen.TINY["deep"]
    assert catgen.generate(shape, 3).text() == catgen.generate(shape, 3).text()
    assert catgen.generate(shape, 3).text() != catgen.generate(shape, 4).text()


def test_checkers_reject_wrong_outputs():
    doc = catgen.generate(catgen.TINY["deep"], 5)
    oracle = Oracle(doc)
    base = oracle.global_union()
    kept = oracle.strongest(base)
    removed = sorted(base - kept)
    witness = {r: min(k for k in kept if r in oracle.below(k)) for r in removed}
    good = {"kept": sorted(kept), "removed": [{"id": r, "dominated_by": witness[r]} for r in removed]}
    assert check_optimize(oracle, base, good) is None
    assert check_optimize(oracle, base, dict(good, kept=sorted(kept)[1:])) is not None
    bad_witness = [dict(e, dominated_by=e["id"]) for e in good["removed"]]
    assert check_optimize(oracle, base, dict(good, removed=bad_witness)) is not None

    labels, edges = oracle.view("product", oracle.pids[0])
    ids = {label: f"n{i}" for i, label in enumerate(labels)}
    lines = ["digraph product_centred {"]
    lines += [f'  "{ids[label]}" [label="{label}"];' for label in labels]
    lines += [f'  "{ids[a]}" -> "{ids[b]}";' for a, b in sorted(edges)]
    text = "\n".join(lines + ["}", ""])
    assert check_dot(oracle, "product", oracle.pids[0], text) is None
    assert check_dot(oracle, "product", oracle.pids[0], text.replace('label="', 'label="X', 1)) is not None
