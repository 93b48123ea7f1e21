"""Check that two reqlattice source trees give byte-identical CLI outputs.

Usage: python tools/same_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a `src` directory holding the `reqlattice` package, for
example the checkout of a parent commit and the working tree. The script
writes two sets of catalogs into a temporary directory:

* the benchmark's `wide`, `deep` and `edit` catalogs for seeds 11 and 12,
  made by importing `bench/catgen.py` (only read, never changed);
* a few hundred hostile catalogs: the `tests/data` fixtures mutated with
  a seeded RNG (strings renamed, values retyped, keys dropped or added,
  entries duplicated, ids reused, text truncated, lone surrogates).
* repeated-key catalogs, written as text because `json.dumps` can never
  write a key twice: a fixture with one `"key": value` pair repeated in a
  random object, in five kinds: the repeat alone; the dropped or the kept
  value holding a `:`; a backslash escape elsewhere in the text; a later
  schema error; and the text cut off after the repeating object.
* six edge-hostile variants of each generated catalog, one per way the
  refinement edges can go wrong: a duplicated edge, a self-edge, an edge
  to an unknown id, a reversed edge (a 2-cycle), an edge that closes the
  longest refinement path (on `deep`, the chain) into one long cycle,
  and a dangling edge together with a 2-cycle. Each gets `validate`,
  `validate --json` and `optimize --global`.

It then runs one fixed list of argv through `reqlattice.cli.main`, once
per source tree, each side in its own subprocess. The list covers every
command kind in text and `--json` form, every country and product view
focus and every regulation's `impact` of the generated catalogs,
unknown-id and empty-id errors, and usage errors. For every call it
compares the exit code, stdout, stderr and the bytes of any `.dot` file
written, with each side's output directory replaced by a placeholder.

It also compares saved bytes: `io.save(io.loads(text))` of every
generated catalog, fixture and hostile catalog that loads, and the save
of one in-memory edit per generated catalog, a requirement added with
`dataclasses.replace` whose title and ids hold quotes, backslashes,
control characters, U+2028, non-ASCII and non-BMP text.

It prints the number of calls and saves compared and every difference,
and exits 1 if there is any.
"""

from __future__ import annotations

import copy
import json
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (11, 12)
SHAPES = ("wide", "deep", "edit")
HOSTILE = 300
OUT = "{out}"  # stands for the side's own output directory


def _with_json(argvs: list[list[str]]) -> list[list[str]]:
    return [variant for argv in argvs for variant in (argv, [*argv, "--json"])]


def _valid_calls(path: str, products: list[str], jurisdictions: list[str], regulations: list[str]):
    p0, p1 = products[0], products[-1]
    j0, j1 = jurisdictions[0], jurisdictions[-1]
    kinds = ([], ["--kind", "rl"], ["--kind", "rfn"])
    argvs = [["validate", path], ["classify", path]]
    for p, j in ((p0, j0), (p1, j1)):
        argvs += [["sets", path, "--product", p, "--jurisdiction", j, *kind] for kind in kinds]
    argvs += [["sets", path, "--product", p0, *kind] for kind in kinds]
    for j in (j0, j1):
        argvs += [["sets", path, "--jurisdiction", j, flag] for flag in ("--rl", "--min")]
    argvs += [
        ["optimize", path, "--jurisdiction", j0],
        ["optimize", path, "--product", p0],
        ["optimize", path, "--global"],
    ]
    argvs += [["impact", path, "--regulation", r] for r in regulations]
    argvs += [["export", path, "--view", "country", "--focus", j] for j in jurisdictions]
    argvs += [["export", path, "--view", "product", "--focus", p] for p in products]
    argvs += [["export", path, "--view", "global"]]
    # Unknown ids and flag misuse.
    argvs += [
        ["sets", path, "--product", "NOPE"],
        ["sets", path, "--product", p0, "--jurisdiction", "NOPE"],
        ["sets", path, "--jurisdiction", "NOPE", "--min"],
        ["sets", path],
        ["optimize", path, "--jurisdiction", "NOPE"],
        ["impact", path, "--regulation", "NOPE"],
        ["export", path, "--view", "country", "--focus", "NOPE"],
        ["export", path, "--view", "global", "--focus", j0],
    ]
    # Empty-string selectors name no entity.
    argvs += [
        ["sets", path, "--product", ""],
        ["sets", path, "--product", p0, "--jurisdiction", ""],
        ["sets", path, "--jurisdiction", "", "--rl"],
        ["sets", path, "--product", "", "--jurisdiction", j0, "--min"],
        ["optimize", path, "--jurisdiction", ""],
        ["optimize", path, "--product", ""],
        ["export", path, "--view", "product", "--focus", ""],
    ]
    return _with_json(argvs)


def _ids(document, collection: str) -> list[str]:
    entries = document.get(collection) if isinstance(document, dict) else None
    if not isinstance(entries, list):
        return []
    return [e["id"] for e in entries if isinstance(e, dict) and isinstance(e.get("id"), str)]


def _hostile_calls(path: str, document) -> list[list[str]]:
    p = (_ids(document, "products") or ["x"])[0]
    j = (_ids(document, "jurisdictions") or ["x"])[0]
    r = (_ids(document, "regulations") or ["x"])[0]
    return [
        ["validate", path],
        ["validate", path, "--json"],
        ["sets", path, "--product", p],
        ["sets", path, "--jurisdiction", j, "--min", "--json"],
        ["optimize", path, "--global"],
        ["optimize", path, "--product", p, "--json"],
        ["classify", path, "--json"],
        ["impact", path, "--regulation", r],
        ["export", path, "--view", "global"],
        ["export", path, "--view", "country", "--focus", j, "--json"],
    ]


def _longest_path(doc) -> list[str]:
    """The longest refinement path of a generated catalog, whose edges
    all run from a lower to a higher rank."""
    depth = dict.fromkeys(doc.requirements, 0)
    above: dict[str, str] = {}
    for stronger, weaker in sorted(doc.edges, key=lambda edge: doc.rank[edge[0]]):
        if depth[stronger] + 1 > depth[weaker]:
            depth[weaker], above[weaker] = depth[stronger] + 1, stronger
    path = [max(depth, key=depth.get)]
    while path[-1] in above:
        path.append(above[path[-1]])
    return path[::-1]


def _edge_variants(doc) -> dict[str, list[tuple[str, str]]]:
    """The extra edges of each edge-hostile variant of `doc`."""
    a, b = min(doc.edges)
    path = _longest_path(doc)
    return {
        "duplicate": [(a, b)],
        "self": [(a, a)],
        "unknown": [(a, "NOPE")],
        "reversed": [(b, a)],
        "long-cycle": [(path[-1], path[0])],
        "dangling-and-cycle": [("NOPE", b), (b, a)],
    }


VALUES = [None, True, 0, 7, "", "all", "ALL", "x", "\ud800"]
VALUES += [[], ["x"], ["x", "x"], [1], [["x"]], {}]


def _slots(value, out: list) -> list:
    """Every (container, key) pair in a JSON tree."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in list(items):
        out.append((value, key))
        if isinstance(child, (dict, list)):
            _slots(child, out)
    return out


def _mutate(rng: random.Random, document) -> tuple[object, str]:
    doc = copy.deepcopy(document)
    strings = sorted({c[k] for c, k in _slots(doc, []) if isinstance(c[k], str)})
    for _ in range(rng.randint(1, 3)):
        slots = _slots(doc, [])
        if not slots:
            break
        container, key = rng.choice(slots)
        action = rng.choice(["reuse", "reuse", "retype", "delete", "duplicate", "add"])
        if action == "reuse" and isinstance(container[key], str) and strings:
            container[key] = rng.choice(strings)  # duplicate ids, self-edges, cycles
        elif action == "retype":
            container[key] = copy.deepcopy(rng.choice(VALUES))
        elif action == "delete":
            del container[key]
        elif action == "duplicate" and isinstance(container, list):
            container.append(copy.deepcopy(container[key]))
        elif action == "add" and isinstance(container, dict):
            container[rng.choice(["zz", "name", "id", "title"])] = copy.deepcopy(rng.choice(VALUES))
    text = json.dumps(doc, indent=rng.choice([None, 2]))  # lone surrogates become \u escapes
    if rng.random() < 0.05:
        text = text[: rng.randrange(len(text) + 1)]
    return doc, text


REPEATS = 12  # repeated-key catalogs of each kind
REPEAT_KINDS = ("repeat", "colon", "escape", "schema", "cut")


def _objects(node, out: list) -> list:
    """Every JSON object in a tree, in text order."""
    if isinstance(node, dict):
        out.append(node)
    for child in node.values() if isinstance(node, dict) else node if isinstance(node, list) else ():
        _objects(child, out)
    return out


def _with_repeat(document, target: dict, key: str, value, first: bool) -> tuple[str, int]:
    """`document` as JSON text in which the object `target` holds `key`
    twice, `value` going before or after the original pair; and the offset
    just past `target`'s text."""
    out: list[str] = []
    end = 0

    def write(node) -> None:
        nonlocal end
        if isinstance(node, dict):
            pairs = list(node.items())
            if node is target:
                pairs.insert(0 if first else len(pairs), (key, value))
            out.append("{")
            for i, (name, child) in enumerate(pairs):
                out.append(("" if i == 0 else ", ") + json.dumps(name) + ": ")
                write(child)
            out.append("}")
            if node is target:
                end = sum(map(len, out))
        elif isinstance(node, list):
            out.append("[")
            for i, child in enumerate(node):
                out.append("" if i == 0 else ", ")
                write(child)
            out.append("]")
        else:
            out.append(json.dumps(node))  # lone surrogates become \u escapes

    write(document)
    return "".join(out), end


def _repeat_key(rng: random.Random, document, kind: str) -> tuple[object, str]:
    """A catalog text in which one object repeats a key, of the given kind."""
    doc = copy.deepcopy(document)
    nested = [obj for obj in _objects(doc, [])[1:] if obj]
    if kind == "schema":
        # The repeat sits in an earlier collection than the schema error.
        nested = [obj for obj in nested if obj not in doc["refinements"]]
        doc["refinements"] = 7
    target = rng.choice(nested) if nested else doc
    key = rng.choice(sorted(target))
    value = copy.deepcopy(rng.choice([target[key], *VALUES]))
    if kind == "colon":
        value = rng.choice(["x:y", ":", ["a:b", "c"]])
    elif kind == "escape":
        strings = [(c, k) for c, k in _slots(doc, []) if isinstance(c[k], str)]
        container, slot = rng.choice(strings)
        container[slot] += rng.choice(['"', "\\", "\n", "\u00e9"])
    text, end = _with_repeat(doc, target, key, value, rng.random() < 0.5)
    if kind == "cut" and end < len(text):
        text = text[: rng.randrange(end, len(text))]
    return doc, text


def _write_catalogs(work: Path) -> tuple[list[list[str]], list[list], int, int]:
    """Write every catalog under `work`; return the argv list, the
    [path, edit] pairs to save, `edit` true for the generated catalogs,
    the number of edge-hostile catalogs and the number of `impact` calls
    on the generated catalogs."""
    sys.path.insert(0, str(ROOT / "bench"))
    import catgen

    calls: list[list[str]] = []
    saves: list[list] = []
    edge_hostile = impacts = 0
    for shape in SHAPES:
        for seed in SEEDS:
            doc = catgen.generate(catgen.SHAPES[shape], seed)
            path = work / f"{shape}-{seed}.reqcat.json"
            path.write_text(doc.text(), encoding="utf-8")
            saves.append([str(path), True])
            calls += _valid_calls(
                str(path),
                [p["id"] for p in doc.products],
                [j["id"] for j in doc.jurisdictions],
                [r["id"] for r in doc.regulations],
            )
            impacts += 2 * len(doc.regulations)  # text and --json
            for name, extra in _edge_variants(doc).items():
                document = doc.to_json()
                document["refinements"] += [{"stronger": a, "weaker": b} for a, b in extra]
                path = work / f"{shape}-{seed}-{name}.reqcat.json"
                path.write_text(json.dumps(document, indent=2), encoding="utf-8")
                calls += [
                    ["validate", str(path)],
                    ["validate", str(path), "--json"],
                    ["optimize", str(path), "--global"],
                ]
                edge_hostile += 1
    fixtures = sorted((ROOT / "tests" / "data").glob("*.reqcat.json"))
    documents = []
    for fixture in fixtures:
        try:
            document = json.loads(fixture.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            document = None  # the malformed fixture joins only as it is
        else:
            documents.append(document)
            saves.append([str(fixture), False])
        calls += _hostile_calls(str(fixture), document)
    rng = random.Random(20151)
    for i in range(HOSTILE):
        doc, text = _mutate(rng, rng.choice(documents))
        path = work / f"hostile-{i:03d}.reqcat.json"
        path.write_text(text, encoding="utf-8")
        saves.append([str(path), False])
        calls += _hostile_calls(str(path), doc)
    rng = random.Random(20152)
    for kind in REPEAT_KINDS:
        for i in range(REPEATS):
            doc, text = _repeat_key(rng, rng.choice(documents), kind)
            path = work / f"repeat-{kind}-{i:02d}.reqcat.json"
            path.write_text(text, encoding="utf-8")
            saves.append([str(path), False])
            calls += _hostile_calls(str(path), doc)
    for i, argv in enumerate(calls):
        if argv[0] == "export":
            argv += ["--out", f"{OUT}/view-{i}.dot"]
    return calls, saves, edge_hostile, impacts


HOSTILE_TEXT = 'q"\\\x00\x1f\x7f\u2028\u00e9\U0001F600_'


def _saved(path: str, edit: bool) -> list[str]:
    """The saved text of the catalog at `path`, and of its edit, or the
    error that refused it."""
    import dataclasses

    from reqlattice import io as catalog_io
    from reqlattice import model
    from reqlattice.errors import ParseError, SchemaError

    try:
        catalog = catalog_io.loads(Path(path).read_bytes())
    except (ParseError, SchemaError) as exc:
        return [f"refused {type(exc).__name__}: {exc}"]
    out = [catalog_io.save(catalog).decode("utf-8")]
    if edit:
        added = model.Requirement(
            "r" + HOSTILE_TEXT,
            model.Kind.RL,
            title=HOSTILE_TEXT,
            derived_from={catalog.regulations[0].id, HOSTILE_TEXT},
            applies_to_products={HOSTILE_TEXT, "\u2028"},
        )
        edited = dataclasses.replace(catalog, requirements=(*catalog.requirements, added))
        out.append(catalog_io.save(edited).decode("utf-8"))
    return out


def _worker(src: str, out_dir: str, calls_path: str, results_path: str) -> None:
    """Run every call through `cli.main` in this process, save every
    catalog listed for it, and write the results."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    sys.path.insert(0, src)
    from reqlattice.cli import main

    results = []
    calls, saves = json.loads(Path(calls_path).read_text(encoding="utf-8"))
    for argv in calls:
        argv = [arg.replace(OUT, out_dir) for arg in argv]
        out, err = io.BytesIO(), io.BytesIO()
        # Strict UTF-8 stdout, as a UTF-8 locale gives; stderr escapes.
        stdout = io.TextIOWrapper(out, encoding="utf-8", write_through=True)
        stderr = io.TextIOWrapper(
            err, encoding="utf-8", errors="backslashreplace", write_through=True
        )
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is a result to compare too
                code = f"raised {type(exc).__name__}: {exc}"
        dot = b""
        if argv[0] == "export":
            view = Path(argv[-1])
            if view.exists():
                dot = view.read_bytes()
                view.unlink()
        results.append(
            [
                code,
                *(
                    data.decode("utf-8", "surrogateescape").replace(out_dir, OUT)
                    for data in (out.getvalue(), err.getvalue(), dot)
                ),
            ]
        )
    saved = [_saved(path, edit) for path, edit in saves]
    Path(results_path).write_text(json.dumps([results, saved]), encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(src, "reqlattice", "__init__.py").is_file() for src in argv):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        print("each path must be a src directory holding the reqlattice package", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        work = Path(tmp)
        calls, saves, edge_hostile, impacts = _write_catalogs(work)
        calls_path = work / "calls.json"
        calls_path.write_text(json.dumps([calls, saves]), encoding="utf-8")
        sides = []
        for name, src in zip(("parent", "change"), argv):
            out_dir = work / name
            out_dir.mkdir()
            results = work / f"{name}.json"
            code = (
                f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
                "import same_outputs; same_outputs._worker(*sys.argv[1:])"
            )
            paths = [Path(src).resolve(), out_dir, calls_path, results]
            command = [sys.executable, "-c", code, *map(str, paths)]
            sides.append((subprocess.Popen(command, cwd=work), results))
        for process, _ in sides:
            if process.wait() != 0:
                print(f"error: a worker exited with {process.returncode}", file=sys.stderr)
                return 2
        (parent, parent_saved), (change, change_saved) = (
            json.loads(results.read_text(encoding="utf-8")) for _, results in sides
        )
    differences = 0
    for argv, a, b in zip(calls, parent, change):
        for field, x, y in zip(("exit code", "stdout", "stderr", ".dot"), a, b):
            if x != y:
                differences += 1
                print(f"DIFFERENT {field}: {argv!a}")
                print(f"  parent: {str(x)[:300]!a}\n  change: {str(y)[:300]!a}")
    for (path, _), a, b in zip(saves, parent_saved, change_saved):
        for field, x, y in zip(("saved bytes", "saved edit"), a, b):
            if x != y:
                differences += 1
                at = next((i for i, (c, d) in enumerate(zip(x, y)) if c != d), min(len(x), len(y)))
                print(f"DIFFERENT {field}: {Path(path).name}, from character {at}")
                print(f"  parent: {x[at:at + 300]!a}\n  change: {y[at:at + 300]!a}")
    exits = Counter(str(result[0]) for result in parent)
    tally = ", ".join(f"exit {code}: {n}" for code, n in sorted(exits.items()))
    loaded = sum(not result[0].startswith("refused ") for result in parent_saved)
    edits = sum(len(result) == 2 for result in parent_saved)
    print(
        f"compared {len(calls)} calls ({tally} at the parent; "
        f"{3 * edge_hostile} on {edge_hostile} edge-hostile catalogs, "
        f"{impacts} impact calls on every regulation of the generated catalogs) and "
        f"{loaded + edits} saves ({loaded} loaded catalogs, {edits} edits): "
        f"{differences} difference(s)"
    )
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
