"""Memory bounds on the benchmark's catalogs, as multiples of the file size.

Each bound is traced Python allocation (`tracemalloc`) during one call,
with at least 20% headroom over what the package needs. A loaded catalog
shares one frozenset per distinct id array and keeps no decoded text, and
`export` streams its `.dot` file; a change that gives up any of these
crosses a bound.
"""

from __future__ import annotations

import functools
import gc
import tracemalloc

import catgen  # bench/catgen.py
from reqlattice import cli
from reqlattice.io import loads


@functools.cache
def _catalog_bytes(shape: str, seed: int) -> bytes:
    return catgen.generate(catgen.SHAPES[shape], seed).text().encode("utf-8")


def _traced(run) -> tuple[int, int]:
    """The peak and the retained bytes that `run()` allocates; what its
    result holds counts as retained."""
    gc.collect()
    tracemalloc.start()
    try:
        result = run()  # noqa: F841 (kept alive for the measurement)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, retained


def test_loading_a_catalog_holds_few_copies_of_its_file():
    data = _catalog_bytes("edit", 11)
    peak, retained = _traced(lambda: loads(data))
    assert peak <= 6 * len(data), f"peak {peak / len(data):.2f}x the file size"
    assert retained <= 3 * len(data), f"retained {retained / len(data):.2f}x the file size"


def test_global_export_peak_stays_near_the_file_size(tmp_path, capsys):
    data = _catalog_bytes("wide", 11)
    path = tmp_path / "wide.reqcat.json"
    path.write_bytes(data)
    argv = ["export", str(path), "--view", "global", "--out", str(tmp_path / "global.dot")]
    peak, _ = _traced(lambda: cli.main(argv))
    assert capsys.readouterr().out.startswith("nodes: ")
    assert peak <= 8.5 * len(data), f"peak {peak / len(data):.2f}x the file size"
