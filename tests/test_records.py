"""The records the library returns compare, hash and print by their fields.

`Issue`, `ValidationReport`, `Partition`, `RefinementGraph`, `GraphView`
and the four report records of `analysis` are plain records: two of one
type are equal exactly when their fields are, equal hashable records hash
alike, a record that holds a dict is unhashable as the dict is, and the
repr names the type and every field. Only the catalog and its entities
are dataclasses, so `model` is the one module that imports `dataclasses`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from reqlattice.algebra import Partition, RequirementSet
from reqlattice.analysis import (
    ImpactReport,
    ImpactScope,
    Overlap,
    OverlapCase,
    ReuseCluster,
    ReuseReport,
)
from reqlattice.io import GraphView, ViewKind
from reqlattice.model import ALL, Issue, Severity, ValidationReport
from reqlattice.refinement import RefinementGraph

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "reqlattice"

ISSUE = Issue(Severity.ERROR, "DUP_ID", "duplicate product id: P1", ("P1",))
CLUSTER = ReuseCluster(ALL, frozenset({"C1"}), RequirementSet({"r1"}))

# (type, one record's fields, fields that differ from them in every field)
RECORDS = [
    (
        Issue,
        {"severity": Severity.ERROR, "code": "DUP_ID", "message": "m", "ids": ("x",)},
        {"severity": Severity.WARNING, "code": "CYCLE", "message": "n", "ids": ()},
    ),
    (ValidationReport, {"errors": (ISSUE,)}, {"errors": ()}),
    (
        Partition,
        {"general": RequirementSet({"r1"}), "specific": {"C1": RequirementSet({"r2"})}},
        {"general": RequirementSet(), "specific": {}},
    ),
    (
        RefinementGraph,
        {"direct": {"a": frozenset({"b"}), "b": frozenset()}},
        {"direct": {"a": frozenset(), "b": frozenset()}},
    ),
    (
        GraphView,
        {"kind": ViewKind.GLOBAL, "nodes": (("a", "x"), ("b", "y")), "edges": (("a", "b"),)},
        {"kind": ViewKind.PRODUCT_CENTRED, "nodes": (("a", "x"), ("b", "z")), "edges": ()},
    ),
    (
        OverlapCase,
        {
            "case": Overlap.PARTIAL,
            "core_size": 1,
            "per_jurisdiction_sizes": {"C1": 2},
            "recommendation": "COMPONENT_SPLIT",
        },
        {
            "case": Overlap.DISJOINT,
            "core_size": 0,
            "per_jurisdiction_sizes": {},
            "recommendation": "TRACE_SEPARATELY",
        },
    ),
    (
        ImpactReport,
        {
            "regulation": "g",
            "in_core": True,
            "affected_requirements": RequirementSet({"r1"}),
            "affected_products": ("P1",),
            "scope": ImpactScope.GLOBAL,
            "jurisdictions": (),
        },
        {
            "regulation": "h",
            "in_core": False,
            "affected_requirements": RequirementSet(),
            "affected_products": (),
            "scope": ImpactScope.COUNTRY_SPECIFIC,
            "jurisdictions": ("C1",),
        },
    ),
    (
        ReuseCluster,
        {
            "applies_to_products": ALL,
            "applies_to_jurisdictions": frozenset({"C1"}),
            "members": RequirementSet({"r1"}),
        },
        {
            "applies_to_products": frozenset(),
            "applies_to_jurisdictions": ALL,
            "members": RequirementSet(),
        },
    ),
    (
        ReuseReport,
        {
            "rl_min": {"C1": RequirementSet({"r1"})},
            "shared_across_all": RequirementSet({"r1"}),
            "clusters": (CLUSTER,),
        },
        {"rl_min": {}, "shared_across_all": RequirementSet(), "clusters": ()},
    ),
]


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize(
    "record_type, fields, other", RECORDS, ids=[entry[0].__name__ for entry in RECORDS]
)
def test_a_record_is_its_fields(record_type, fields, other):
    record = record_type(**fields)
    assert record_type.__match_args__ == tuple(fields)
    assert record == record_type(*fields.values())
    assert not record != record_type(**fields)
    for name in fields:
        changed = record_type(**{**fields, name: other[name]})
        assert record != changed, name
        assert not record == changed, name
    assert repr(record) == (
        f"{record_type.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
    )
    if all(map(_hashable, fields.values())):
        assert hash(record) == hash(record_type(**fields))
    else:
        with pytest.raises(TypeError):
            hash(record)


def test_the_optional_fields_keep_their_defaults():
    assert Issue(Severity.WARNING, "EMPTY_SCOPE", "m").ids == ()
    assert ValidationReport().errors == ()
    assert ValidationReport().ok and not ValidationReport((ISSUE,)).ok


def test_only_model_imports_dataclasses():
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if "dataclasses" in names:
                importers.append(path.stem)
    assert importers == ["model"]
