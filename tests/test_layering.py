"""The package's modules reach each other only through public names.

A module that imports another's underscore name depends on a detail its
owner may change at will, and usually repeats a job the owner's public
entry point already does.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "reqlattice"


def test_no_relative_import_brings_in_a_private_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, PACKAGE
    private = [
        f"{path.stem}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
