"""Memory bounds on the benchmark's catalogs, as multiples of the file size,
and on resolving and reading the scopes of a catalog scoped `"all"`
throughout.

Each bound is traced Python allocation (`tracemalloc`) during one call,
with at least 20% headroom over what the package needs. A loaded catalog
shares one frozenset per distinct id array and keeps no decoded text,
`export` streams its `.dot` file, a resolved `"all"` scope is the
axis's own id set, a scope map makes only the entries that are read, and
its entries, kind sets and aggregates are int masks over one dense index
of the requirement ids, not frozensets; a change that gives up any of
these crosses a bound.
"""

from __future__ import annotations

import functools
import gc
import tracemalloc

import catgen  # bench/catgen.py
from reqlattice import cli
from reqlattice.algebra import general_part, partition_general_specific, requirements_for, rl_min
from reqlattice.analysis import reuse_candidates
from reqlattice.io import build_view, load, loads, write_dot
from reqlattice.refinement import build_graph
from reqlattice.model import Catalog, Jurisdiction, Kind, Product, Regulation, Requirement


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


def test_loading_a_catalog_file_holds_no_decoded_text_while_it_builds(tmp_path):
    # `load` may have to parse a file twice to name a repeated key; it
    # reads the file again for that rather than keep the text alive through
    # the entity build, which would take the peak to about 5.9x.
    data = _catalog_bytes("edit", 11)
    path = tmp_path / "edit.reqcat.json"
    path.write_bytes(data)
    peak, _ = _traced(lambda: load(path))
    assert peak <= 5.2 * len(data), f"peak {peak / len(data):.2f}x the file size"


def test_global_export_peak_stays_near_the_file_size(tmp_path, capsys):
    data = _catalog_bytes("wide", 11)
    path = tmp_path / "wide.reqcat.json"
    path.write_bytes(data)
    argv = ["export", str(path), "--view", "global", "--out", str(tmp_path / "global.dot")]
    peak, _ = _traced(lambda: cli.main(argv))
    assert capsys.readouterr().out.startswith("nodes: ")
    # The load peaks here, at 5.4x the file size (5.6x on a process's first
    # call); building and writing the view stays below it.
    assert peak <= 6.7 * len(data), f"peak {peak / len(data):.2f}x the file size"
    # The view alone, on a loaded catalog, peaks at 0.95x: its labels and
    # masks. Frozenset map entries, kind sets and aggregates take it to 2.8x.
    catalog = load(path)
    graph = build_graph(catalog)
    peak, _ = _traced(lambda: write_dot(build_view(catalog, graph, "global"), argv[-1]))
    assert peak <= 1.15 * len(data), f"view peak {peak / len(data):.2f}x the file size"


def _scoped_all_throughout(*extra: Requirement) -> Catalog:
    """300 jurisdictions, 300 products and 5,000 RL requirements citing one
    regulation, every scope `"all"`, plus the `extra` requirements."""
    requirements = [Requirement(f"r{i:04d}", Kind.RL, derived_from={"g"}) for i in range(5000)]
    return Catalog(
        jurisdictions=[Jurisdiction(f"C{i:03d}") for i in range(300)],
        regulations=[Regulation("g")],
        products=[Product(f"P{i:03d}") for i in range(300)],
        requirements=[*requirements, *extra],
    )


def test_resolving_all_scopes_copies_no_axis():
    catalog = _scoped_all_throughout()
    peak, _ = _traced(
        lambda: (catalog._product_scopes, catalog._jurisdiction_scopes, catalog._regulation_scopes)
    )
    # A copy of one axis per requirement would take about 80 MB.
    assert peak <= 500_000, f"peak {peak / 1e6:.2f} MB"
    assert all(scope is catalog.product_ids for scope in catalog._product_scopes)


def test_one_projection_builds_one_entry_per_axis():
    catalog = _scoped_all_throughout()
    peak, retained = _traced(lambda: requirements_for(catalog, "P007", "C123"))
    assert len(requirements_for(catalog, "P007", "C123")) == 5000
    # Both whole maps hold about 157 MB; one entry per axis and the result
    # about 1.3 MB.
    assert retained <= 5_000_000, f"retained {retained / 1e6:.2f} MB"
    assert peak <= 5_000_000, f"peak {peak / 1e6:.2f} MB"


def test_a_repeated_id_builds_no_whole_map_for_an_every_aggregate():
    # `validate` refuses the repeated id, yet the aggregates answer for it
    # by folding its two scopes; intersecting the entries of a whole scope
    # map instead peaks at about 82 MB.
    repeated = Requirement("r0000", Kind.RL, derived_from={"g"}, applies_to_products={"P001"})
    for run in (
        lambda catalog: rl_min(catalog, "C123"),
        lambda catalog: general_part(catalog, "P007", Kind.RL),
    ):
        catalog = _scoped_all_throughout(repeated)
        peak, _ = _traced(lambda: run(catalog))
        assert len(run(catalog)) == 5000
        assert peak <= 5_000_000, f"peak {peak / 1e6:.2f} MB"


def test_whole_axis_constructs_keep_their_sets_as_masks():
    # Each reads all 300 entries of one axis; with frozenset entries and
    # minima, the partition peaks at 82.6 MB and the reuse analysis at
    # 240 MB. Here they peak at 0.4 MB and 2.3 MB.
    for run in (
        lambda catalog: partition_general_specific(catalog, "P007", Kind.RL),
        reuse_candidates,
    ):
        catalog = _scoped_all_throughout()
        peak, _ = _traced(lambda: run(catalog))
        assert peak <= 5_000_000, f"peak {peak / 1e6:.2f} MB"
    report = reuse_candidates(catalog)
    assert len(report.shared_across_all) == 5000 and len(report.rl_min) == 300
