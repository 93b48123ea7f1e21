"""What importing the reqlattice package costs a CLI process, per module.

Usage: python tools/import_cost.py SRC [SRC_B] [--runs N] [--catalog PATH]

Each SRC is a `src` directory holding the `reqlattice` package, for example
the checkout of a parent commit and the working tree. The script prints three
tables.

* Import time. It runs `python -X importtime -c "import reqlattice.cli"`
  N times per tree (default 15), each in a fresh interpreter, the trees
  taking turns. For every `reqlattice*` module it prints the minimum self
  time over the runs in ms, `-` where the tree's `import reqlattice.cli`
  does not load the module, and the sum of the minima. The interpreters
  inherit this environment, so with `PYTHONDONTWRITEBYTECODE=1` and no
  `__pycache__` under SRC every run compiles the package from source.
* Modules per command. For each CLI command, one fresh interpreter imports
  `reqlattice.cli`, runs `cli.main` on CATALOG (default
  `tests/data/partial.reqcat.json`) and lists the `reqlattice.*` modules
  it then holds. `sets` names the catalog's first product id and `impact`
  its first regulation id, in id order as a loaded catalog keeps them.
* Parser tokens. For every module of each tree, the tokens that CPython's
  parser reads: `tokenize`'s tokens without COMMENT, NL and ENCODING. A
  module past 4,096 tokens is marked `*`: CPython 3.11's parser grows its
  token array by doubling, so compiling such a module from source costs
  about 0.25 MB more memory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = (
    ["validate", "{catalog}"],
    ["sets", "{catalog}", "--product", "{product}", "--json"],
    ["optimize", "{catalog}", "--global", "--json"],
    ["classify", "{catalog}", "--json"],
    ["impact", "{catalog}", "--regulation", "{regulation}", "--json"],
    ["export", "{catalog}", "--view", "global", "--out", "{out}", "--json"],
)
TOKEN_THRESHOLD = 4096
UNPARSED = frozenset({tokenize.COMMENT, tokenize.NL, tokenize.ENCODING})
# Runs one command and writes the package modules it loaded to stderr.
COMMAND_SCRIPT = """
import contextlib, io, sys
from reqlattice import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
loaded = sorted(m.removeprefix("reqlattice.") for m in sys.modules if m.startswith("reqlattice."))
sys.stderr.write(f"{code} {' '.join(loaded)}\\n")
"""


def _python(src: str, *args: str) -> str:
    """Stderr of a fresh interpreter that runs `args` on the tree `src`."""
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, *args],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
        timeout=60,
        check=True,
    )
    return done.stderr


def _self_times(src: str) -> dict[str, float]:
    """Self time in ms of each `reqlattice*` module in one fresh import."""
    times = {}
    for line in _python(src, "-X", "importtime", "-c", "import reqlattice.cli").splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, _, name = line.removeprefix("import time:").split("|")
        name = name.strip()
        if name.split(".")[0] == "reqlattice":
            times[name] = int(self_us) / 1000
    return times


def _parser_tokens(src: str) -> dict[str, int]:
    """The parser's token count of each module of the tree `src`."""
    counts = {}
    for path in sorted(Path(src, "reqlattice").glob("*.py")):
        name = "reqlattice" if path.stem == "__init__" else f"reqlattice.{path.stem}"
        with path.open("rb") as source:
            tokens = tokenize.tokenize(source.readline)
            counts[name] = sum(token.type not in UNPARSED for token in tokens)
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("srcs", nargs="+", metavar="SRC", help="src directory of a tree (one or two)")
    parser.add_argument("--runs", type=int, default=15, help="fresh interpreters per tree")
    parser.add_argument(
        "--catalog", default=str(ROOT / "tests" / "data" / "partial.reqcat.json"), help="catalog file"
    )
    args = parser.parse_args(argv)
    if len(args.srcs) > 2:
        parser.error("give one or two src directories")
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    for src in args.srcs:
        if not Path(src, "reqlattice", "__init__.py").is_file():
            parser.error(f"{src} holds no reqlattice package")

    best: list[dict[str, float]] = [{} for _ in args.srcs]
    for run in range(args.runs):
        order = range(len(args.srcs)) if run % 2 == 0 else reversed(range(len(args.srcs)))
        for side in order:
            for name, ms in _self_times(args.srcs[side]).items():
                best[side][name] = min(ms, best[side].get(name, ms))

    labels = [chr(ord("A") + side) for side in range(len(args.srcs))]
    for label, src in zip(labels, args.srcs):
        print(f"{label}: {src}")
    print(f"\n`import reqlattice.cli`: minimum self time of {args.runs} runs, ms")
    print(f"{'module':24s}" + "".join(f"{label:>9s}" for label in labels))
    for name in sorted(set().union(*best)):
        cells = (f"{side[name]:9.2f}" if name in side else f"{'-':>9s}" for side in best)
        print(f"{name:24s}" + "".join(cells))
    print(f"{'total':24s}" + "".join(f"{sum(side.values()):9.2f}" for side in best))

    document = json.loads(Path(args.catalog).read_bytes())
    names = {
        "catalog": args.catalog,
        "product": min(product["id"] for product in document["products"]),
        "regulation": min(regulation["id"] for regulation in document["regulations"]),
    }
    print(f"\nmodules each command loads, on {args.catalog}")
    with tempfile.TemporaryDirectory() as scratch:
        out = str(Path(scratch, "view.dot"))
        for command in COMMANDS:
            argv_ = [part.format(out=out, **names) for part in command]
            for label, src in zip(labels, args.srcs):
                code, _, loaded = _python(src, "-c", COMMAND_SCRIPT, *argv_).strip().partition(" ")
                print(f"{label} {command[0]:9s} exit {code}: {loaded}")

    tokens = [_parser_tokens(src) for src in args.srcs]
    print(f"\nparser tokens per module, * past {TOKEN_THRESHOLD}")
    print(f"{'module':24s}" + "".join(f"{label:>9s}" for label in labels))
    for name in sorted(set().union(*tokens)):
        cells = []
        for side in tokens:
            count = side.get(name)
            mark = "*" if count is not None and count > TOKEN_THRESHOLD else " "
            cells.append(f"{'-' if count is None else count:>8}{mark}")
        print(f"{name:24s}" + "".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
