"""Run a fixed list of hand-written mutants of `src/` against tier-1.

Usage: python tools/mutants.py

Each entry of MUTANTS and EQUIVALENT is (module, snippet, replacement,
reason): `snippet` occurs exactly once in `src/reqlattice/<module>.py`,
and the mutant is that file with `snippet` replaced by `replacement`. A
mutant of MUTANTS changes what some input gives, and `reason` names the
input. A mutant of EQUIVALENT gives the same answers on every input, and
`reason` says what the original line pays for, with its measurement.

For each mutant the script copies `src/`, `tests/`, `bench/` (which the
tests import), `tools/` and `pyproject.toml` into a new temporary
directory, applies the one replacement there and runs `python -m pytest
-x -q` in it, leaving out `tests/test_mutants.py`, which checks this list
against the unmutated source. It prints whether the tests killed the
mutant, the first failing test and the time taken, and exits 1 if a
mutant of MUTANTS survives. The working tree is only read. One mutant
can be re-checked from a Python prompt with `run(entry)`.

A mutant takes 3 to 40 s on a 2-core host, and the whole list about 11
minutes, so this stays outside tier-1. A tier-1 test
(`tests/test_mutants.py`) checks that every snippet still occurs exactly
once, so a change to a listed line must update this list.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300

MUTANTS = [
    # io: the checks of the converting path and the choice of parse.
    ("io", "if sum(map(len, sets)) != sum(map(len, column)):", "if False:",
     "a repeated id in an id array is a SchemaError"),
    ("io", 'if column.count("all") != types.count(str):', "if False:",
     'a string other than "all" in a scope is a SchemaError'),
    ("io", "if not _LIST.issuperset(map(type, column)):", "if False:",
     "a string where an id array belongs is a SchemaError"),
    ("io", "and all(map(shape.allowed_keys.issuperset, value))", "and True",
     "an unknown key is a SchemaError"),
    ("io", "return list(map(_KINDS.__getitem__, column)), 0", "return list(map(Kind, column)), 0",
     "a kind name in another case is a SchemaError in a file"),
    ("io", "if len(obj) != len(pairs):", "if False:",
     "the hook refuses a repeated key"),
    ("io", "if found == colons:", "if True:",
     "the colon count finds a repeated key in a text with no backslash"),
    ("io", r'if "\\" not in text:', "if True:",
     "a repeated key whose kept value spells a colon `\\u003a` is found"),
    ("io", "if escaped:", "if False:",
     "a lone surrogate escape is a SchemaError"),
    ("io", "_check_encodable(source)", "None",
     "a str holding a lone surrogate is a SchemaError"),
    ("io", "(bytes, bytearray)", "bytes",
     "loads(bytearray) reads the bytes"),
    ("io", "if not isinstance(document, dict):", "if False:",
     "a top level that is not an object is a SchemaError that says so"),
    ("io", "    except RecursionError as exc:\n        raise ParseError(_TOO_DEEP) from exc\n"
     "    _check_encodable(text)",
     "    finally:\n        pass\n    _check_encodable(text)",
     "an escaped text that parses but nests too deeply for `json.dumps` is a ParseError"),
    # model: validation, the aggregates and the scope maps.
    ("model", "elif count > 1:", "elif count > 2:",
     "an id twice is a DUP_ID"),
    ("model", ")] * count)", ")])",
     "each entity with an empty id is one EMPTY_ID"),
    ("model", "if count > 1:\n            issues.append(\n", "if count > 2:\n            issues.append(\n",
     "an edge twice is a DUP_EDGE"),
    ("model", "if sum(map(len, children.values())) != len(catalog.refinements):", "if False:",
     "duplicated, self and dangling edges are errors"),
    ("model", "if not req.applies_to_products or not req.applies_to_jurisdictions:",
     "if not req.applies_to_products:",
     "an empty jurisdiction scope is an EMPTY_SCOPE warning"),
    ("model", "union[owner.id] = union[owner.id] | scope if owner.id in union else scope",
     "union[owner.id] = scope",
     "a regulation id twice covers the union of its scopes in RL_COVERAGE, and a requirement "
     "id twice is on every product when its scopes together cover them"),
    ("model", "if len(ids) != len(rows):", "if False:",
     "a duplicated id is on every product, or in every jurisdiction, when its scopes "
     "together cover them"),
    ("model", "        if not universe:\n            return 0\n", "",
     "an axis with no entities has empty aggregates"),
    # bitmap: the dense index, the shared "all" mask and the entries.
    ("bitmap", "if len(ids) == len(owners):", "if True:",
     "each row of a duplicated id sets its id's bit"),
    ("bitmap", "                everywhere[row] = 1\n", "",
     'an "all"-scoped owner is in every entry of a scope map'),
    ("bitmap", "if scope is universe:", "if False:",
     'an "all"-scoped owner goes once into the mask every entry shares, and its scope, '
     "the axis's id set, is not walked entity by entity"),
    ("model", "return next((kind for kind in cls if kind.value == value.upper()), None)",
     "return next((kind for kind in cls if kind.value == value), None)",
     "the constructors read a kind name in any case"),
    # algebra, refinement, analysis.
    ("algebra", "if kind is not None:\n        mask &=",
     "if False:\n        mask &=",
     "a projection, or a product union, restricted to one kind"),
    ("algebra", "regulations.ids_of(mask & ~core)", "regulations.ids_of(mask)",
     "a jurisdiction's complement leaves out the shared core"),
    ("refinement", "ids = sorted(kept.members if isinstance(kept, RequirementSet) else set(kept))",
     "ids = list(kept.members if isinstance(kept, RequirementSet) else set(kept))",
     "a dropped requirement's witness is its smallest dominating member"),
    ("analysis", "    if not catalog.jurisdictions:\n"
     '        raise EmptyCatalogError("shared regulations need at least one jurisdiction")\n'
     "    by_jurisdiction",
     "    by_jurisdiction",
     "change_impact on a catalog with no jurisdictions is an EmptyCatalogError"),
    ("analysis", "affected_products = tuple(sorted(reached & products))",
     "affected_products = tuple(sorted(reached))",
     "change_impact skips a product id the catalog lacks"),
    ("analysis", 'return ("",)', 'return ("\\uffff",)',
     'reuse_candidates lists an "all"-scoped cluster first'),
    ("analysis",
     "scopes[req.id] = tuple(map(_join, scopes[req.id], pair)) if req.id in scopes else pair",
     "scopes[req.id] = pair",
     "a duplicated id's reuse cluster has the union of its rows' scopes"),
    # cli: the --json writer and the exit-code contract.
    ("cli", "if len(keys) == 1 and (keys := keys.pop()):",
     "if len(keys) >= 1 and (keys := keys.pop()):",
     "a list of dicts whose keys differ is laid out as json.dumps does"),
    ("cli", 'text.encode("utf-8")\n    except UnicodeEncodeError:\n',
     'text.encode("utf-8", "surrogatepass")\n    except UnicodeEncodeError:\n',
     "a lone surrogate in --json output takes the ASCII fallback"),
    ("cli", "        _to_null(sys.stdout)\n", "",
     "a stdout that cannot take its text exits 2, not 120 after the flush at exit fails again"),
    ("cli", '        code, lines = EXIT_USAGE, (f"error: {exc}",)\n', "",
     "--help on a stdout that cannot take it exits 2"),
    ("cli", "    except OSError:\n        _to_null(sys.stderr)",
     "    except BrokenPipeError:\n        _to_null(sys.stderr)",
     "an error exit keeps its code when stderr is the full device"),
]

EQUIVALENT = [
    ("model", "ready = [node for node in children if node not in indegree]", "ready = []",
     "Kahn's peel: Tarjan then starts from every node with an incoming edge and finds "
     "the same components; `_cycle_components` on the seed-11 `deep` catalog takes "
     "1.20 ms with the peel and 1.98 ms without (min of 9 x 50 calls)"),
    ("io", "    del value, column\n", "",
     "frees the collection's dicts before the entities are built; `io.load` of the "
     "seed-11 `wide` catalog peaks at 6.43 MB with the line and 6.64 MB without (tracemalloc)"),
    ("model", "len(ids) != len(rows)", "True",
     "skips the fold of each id's scopes on a catalog with no repeated requirement id, where "
     "every id has one scope; the four aggregate masks on a fresh copy of the seed-11 "
     "catalogs take 1.16 ms with it and 2.23 without on `wide`, 0.58 and 1.22 on `deep`, "
     "0.94 and 1.97 on `edit` (median of 3 processes, each the min of 40 calls)"),
    ("bitmap", "bit = {owner_id: position for position, owner_id in enumerate(ids)}\n"
     "        return cls(ids, [bit[owner.id] for owner in owners])",
     "return cls(ids, list(range(len(ids))))",
     "numbers the rows through a dict only when an id repeats; `requirement_index` of the "
     "seed-11 `wide` catalog keeps 24.7 kB and takes 0.63 ms with the `range` of a catalog "
     "without repeats, and keeps 127.5 kB and takes 0.92 ms with a list (tracemalloc; "
     "min of 40 calls)"),
    ("bitmap", "if mask.bit_count() * 50 < len(ids):", "if False:",
     "walks the set bits of a sparse mask instead of one `compress` over every bit: "
     "a 10-bit mask over 3,000 ids decodes in 2.8 us walked and 21.7 us compressed, and "
     "the seed-11 `wide` global view builds in 22-24 ms with the choice and 30-36 ms "
     "without (min of 15 builds on a fresh copy, three processes)"),
    ("bitmap", 'return compress(ids, format(mask, "b")[::-1].encode().translate(_FLAGS))',
     "return _set_bits(mask, ids)",
     "decodes a dense mask with one `compress` over every bit: a 3,000-bit mask over 3,000 "
     "ids decodes in 38 us compressed and 844 us walked, and the seed-11 `wide` global view "
     "builds in 22-24 ms with it and 36-40 ms walking every mask (min of 15 builds on a "
     "fresh copy, three processes)"),
    ("model", "if len(ids) == len(entities) and all(ids):", "if False:",
     "skips the id walk on a catalog with no empty or repeated id, where it finds nothing; "
     "`validate` on the seed-11 catalogs takes 3.72 ms with it and 3.97 without on `wide`, "
     "2.30 and 2.44 on `deep`, 4.17 and 4.24 on `edit` (median of 10 processes, "
     "each the min of 40 calls)"),
    ("model", "if known.issuperset(refs):", "if False:",
     "skips the per-reference loop when every reference is known, where it finds nothing; "
     "`validate` on the seed-11 catalogs takes 3.72 ms with it and 4.50 without on `wide`, "
     "2.30 and 2.56 on `deep`, 4.17 and 4.79 on `edit` (median of 10 processes, "
     "each the min of 40 calls)"),
    ("io", 'escaped = "\\\\u" in text', "escaped = True",
     "only a `\\u` escape can hold a lone surrogate, so a text without one skips the "
     "check of every decoded string"),
    ("cli", "if set(map(type, values)) == {dict}:", "if False:",
     "lays out records one column at a time; the seed-11 `deep` `optimize --global --json` "
     "payload is written in 0.84 ms with it and 2.33 ms without (min of 7 x 20 calls)"),
]


def mutate(src: Path, entry: tuple[str, str, str, str]) -> None:
    """Apply one entry to the package under `src`, a copy of `src/`."""
    module, snippet, replacement, _ = entry
    path = src / "reqlattice" / f"{module}.py"
    text = path.read_text(encoding="utf-8")
    if text.count(snippet) != 1:
        raise SystemExit(f"{module}: snippet occurs {text.count(snippet)} times: {snippet!r}")
    path.write_text(text.replace(snippet, replacement), encoding="utf-8")


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return output.strip().splitlines()[-1] if output.strip() else "(no output)"


def run(entry: tuple[str, str, str, str]) -> tuple[bool, str, float]:
    """Whether the tests kill the mutant, the first failing test and the seconds taken."""
    with tempfile.TemporaryDirectory(prefix="reqlattice-mutant-") as work:
        work = Path(work)
        for name in ("src", "tests", "bench", "tools"):
            shutil.copytree(ROOT / name, work / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        mutate(work / "src", entry)
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 "--ignore=tests/test_mutants.py"],
                cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return True, f"(timed out after {TIMEOUT_S} s)", time.perf_counter() - start
        seconds = time.perf_counter() - start
    if done.returncode == 0:
        return False, "", seconds
    return True, _first_failure(done.stdout + done.stderr), seconds


def main() -> int:
    entries = [(entry, False) for entry in MUTANTS] + [(entry, True) for entry in EQUIVALENT]
    unmarked = 0
    for (module, snippet, replacement, reason), equivalent in entries:
        label = f"{module}: {' '.join(snippet.split())[:70]}"
        killed, failure, seconds = run((module, snippet, replacement, reason))
        if killed:
            verdict = "killed"
        elif equivalent:
            verdict = "survived (equivalent)"
        else:
            verdict, unmarked = "SURVIVED", unmarked + 1
        print(f"{verdict:22s} {seconds:6.1f} s  {label}")
        print(f"{'':31s} {failure or reason}", flush=True)
    print(f"{len(entries)} mutants run; {unmarked} survived without an equivalence mark")
    return 1 if unmarked else 0


if __name__ == "__main__":
    sys.exit(main())
