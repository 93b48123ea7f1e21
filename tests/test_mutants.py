"""The mutant list of `tools/mutants.py` names lines that still exist.

Running the mutants takes minutes, so tier-1 only checks that each entry's
snippet occurs exactly once in the package source, in the module the entry
names. A change to a listed line then has to update the list.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import reqlattice

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
SOURCE = Path(reqlattice.__file__).resolve().parent


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_listed_snippet_occurs_exactly_once_in_the_source():
    mutants = _mutants()
    texts = {path.stem: path.read_text(encoding="utf-8") for path in SOURCE.glob("*.py")}
    entries = mutants.MUTANTS + mutants.EQUIVALENT
    assert len(entries) == len({(module, snippet) for module, snippet, _, _ in entries})
    for module, snippet, replacement, reason in entries:
        counts = {name: text.count(snippet) for name, text in texts.items() if snippet in text}
        assert counts == {module: 1}, snippet
        assert replacement != snippet and reason, snippet
