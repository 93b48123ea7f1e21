"""The package's modules reach each other only through public names.

A module that imports another's underscore name, or reads one off a
sibling module it imported, depends on a detail its owner may change at
will, and usually repeats a job the owner's public entry point already
does.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "reqlattice"


def _trees() -> list[tuple[str, ast.Module]]:
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, PACKAGE
    return [
        (path.stem, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for path in modules
    ]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_relative_import_brings_in_a_private_name():
    private = [
        f"{stem}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for stem, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_no_module_reads_a_private_name_off_a_sibling_module():
    trees = _trees()
    siblings = {stem for stem, _ in trees}
    private = []
    for stem, tree in trees:
        # The names `from . import io as catalog_io` and the like bind.
        bound = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for alias in node.names
            if alias.name in siblings
        }
        private += [
            f"{stem}: {node.value.id}.{node.attr} ({bound[node.value.id]})"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
            and _is_private(node.attr)
        ]
    assert private == []
