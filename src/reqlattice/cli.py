"""Command-line surface: validate, sets, optimize, classify, impact, export.

Exit codes: 0 success, 1 validation errors found, 2 usage/IO/parse error,
including a stdout that cannot take the output (its reader has gone or
its device is full); a stderr that cannot take its lines changes no exit
code. Reports go to stdout, diagnostics to stderr. With --json every
command emits exactly one JSON document on stdout and nothing else there.
Analytical commands refuse to run on catalogs with validation errors. Set
REQLATTICE_NO_COLOR to disable ANSI styling.

A call does only the work its command needs: `analysis` is imported by
the three commands that call it (validate, classify, impact) and
`refinement` by the five that build a graph (all but validate), the cyclic
collector is paused while the command runs, and --json text is laid out
by one writer whose strings go through json's C encoder.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import os
import sys
from io import StringIO
from itertools import chain, repeat
from typing import TYPE_CHECKING

from . import io as catalog_io
from .algebra import (
    global_union,
    jurisdiction_rl,
    product_union,
    requirements_for,
    rl_min,
)
from .errors import CatalogInvalidError, ReqlatticeError
from .model import Catalog, Issue, Severity, find_warnings, validate

if TYPE_CHECKING:
    from .refinement import RefinementGraph

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2


class UnknownFlagCombo(ReqlatticeError):
    """Selector flags do not pick exactly one construct."""


def _style(text: str, sgr: str, stream) -> str:
    """`text` in colour when `stream`, the stream it goes to, is a terminal."""
    if os.environ.get("REQLATTICE_NO_COLOR") or not stream.isatty():
        return text
    return f"\x1b[{sgr}m{text}\x1b[0m"


def _issue_line(issue: Issue, stream) -> str:
    sgr = "31" if issue.severity is Severity.ERROR else "33"
    severity = _style(issue.severity.value, sgr, stream)
    ids = " [" + ", ".join(issue.ids) + "]" if issue.ids else ""
    return f"{severity} {issue.code}: {issue.message}{ids}"


def _issue_json(issue: Issue) -> dict:
    return {"code": issue.code, "message": issue.message, "ids": list(issue.ids)}


_str = json.encoder.encode_basestring  # the C encoder json.dumps uses per string


def _items_text(values, newline: str) -> list[str]:
    """The text of each item of `values`, all at the level `newline` gives."""
    try:
        return list(map(_str, values))
    except TypeError:  # not strings only
        pass
    if set(map(type, values)) == {dict}:
        keys = set(map(tuple, values))
        if len(keys) == 1 and (keys := keys.pop()):
            # Dicts that share their keys in one order, laid out one key's
            # column at a time: a record's text is each key's text followed
            # by its value's, then the close.
            inner = newline + "  "
            parts = []
            for index, (key, column) in enumerate(zip(keys, zip(*map(dict.values, values)))):
                parts += [repeat(("," if index else "{") + inner + _str(key) + ": "),
                          _items_text(column, inner)]
            parts.append(repeat(newline + "}"))
            return list(map("".join, zip(*parts)))
    return [_json_text(value, newline) for value in values]


def _json_text(value, newline: str = "\n") -> str:
    """`json.dumps(value, indent=2, ensure_ascii=False)` of a CLI payload.

    Payloads hold dicts with string keys, lists, strings, ints, bools and
    None. The containers are laid out here and every string goes through
    json's C encoder: a list's items go through `_items_text`, which
    encodes a list of strings in one `map` and lays out a list of dicts
    with the same keys one key's column at a time. (With `indent`,
    `json.dumps` takes its pure-Python encoder for every value.)
    `newline` is the line break and indent of the level `value` sits at.
    """
    if isinstance(value, str):
        return _str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join(_items_text(value, inner)) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ("," + inner).join(
            [_str(key) + ": " + _json_text(item, inner) for key, item in value.items()]
        )
        return "{" + inner + items + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit_json(payload: dict) -> None:
    text = _json_text(payload)
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        # A lone surrogate, as an `--out` path with non-UTF-8 bytes brings:
        # strict UTF-8 stdout cannot write it, but its JSON escape can.
        text = json.dumps(payload, indent=2)
    print(text)


def _load_validated(path: str) -> tuple[Catalog, RefinementGraph]:
    from .refinement import build_graph

    catalog = catalog_io.load(path)
    return catalog, build_graph(catalog)


def cmd_validate(args: argparse.Namespace) -> int:
    from .analysis import consistency_diagnostics

    catalog = catalog_io.load(args.catalog)
    report = validate(catalog)
    warnings = list(find_warnings(catalog))
    if report.ok:
        warnings.extend(consistency_diagnostics(catalog))
    if args.json:
        _emit_json(
            {
                "ok": report.ok,
                "errors": [_issue_json(i) for i in report.errors],
                "warnings": [_issue_json(i) for i in warnings],
            }
        )
    else:
        for issue in chain(report.errors, warnings):
            print(_issue_line(issue, sys.stdout))
        print(f"{len(report.errors)} error(s), {len(warnings)} warning(s)")
    return EXIT_OK if report.ok else EXIT_INVALID


def cmd_sets(args: argparse.Namespace) -> int:
    if args.rl and args.min:
        raise UnknownFlagCombo("--rl and --min are mutually exclusive")
    if args.rl or args.min:
        if args.product is not None or args.kind is not None:
            raise UnknownFlagCombo("--rl/--min combine only with --jurisdiction")
        if args.jurisdiction is None:
            raise UnknownFlagCombo("--rl/--min need --jurisdiction")
    elif args.product is None:
        raise UnknownFlagCombo(
            "choose a construct: --product [...] or --jurisdiction with --rl/--min"
        )

    catalog, _ = _load_validated(args.catalog)
    if args.rl:
        result = jurisdiction_rl(catalog, args.jurisdiction)
    elif args.min:
        result = rl_min(catalog, args.jurisdiction)
    elif args.jurisdiction is not None:
        result = requirements_for(catalog, args.product, args.jurisdiction, args.kind)
    else:
        result = product_union(catalog, args.product, args.kind)
    if args.json:
        _emit_json({"count": len(result), "ids": list(result)})
    else:
        for requirement_id in result:
            print(requirement_id)
    return EXIT_OK


def cmd_optimize(args: argparse.Namespace) -> int:
    from .refinement import optimize, witnesses

    catalog, graph = _load_validated(args.catalog)
    if args.jurisdiction is not None:
        base = jurisdiction_rl(catalog, args.jurisdiction)
    elif args.product is not None:
        base = product_union(catalog, args.product)
    else:
        base = global_union(catalog)
    kept = optimize(graph, base)
    witness = witnesses(graph, kept)
    removed = [(dropped, witness[dropped]) for dropped in base - kept]
    if args.json:
        _emit_json(
            {
                "kept": list(kept),
                "removed": [{"id": rid, "dominated_by": witness} for rid, witness in removed],
            }
        )
    else:
        for requirement_id in kept:
            print(requirement_id)
        print("removed:")
        for rid, witness in removed:
            print(f"  {rid} (dominated by {witness})")
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    from .analysis import classify_overlap

    catalog, _ = _load_validated(args.catalog)
    case = classify_overlap(catalog)
    if args.json:
        _emit_json(
            {
                "case": case.case.value,
                "core_size": case.core_size,
                "per_jurisdiction_sizes": dict(case.per_jurisdiction_sizes),
                "recommendation": case.recommendation,
            }
        )
    else:
        print(f"case: {case.case.value}")
        print(f"core_size: {case.core_size}")
        for jid, size in case.per_jurisdiction_sizes.items():
            print(f"complement[{jid}]: {size}")
        print(f"recommendation: {case.recommendation}")
    return EXIT_OK


def cmd_impact(args: argparse.Namespace) -> int:
    from .analysis import change_impact

    catalog, _ = _load_validated(args.catalog)
    report = change_impact(catalog, args.regulation)
    if args.json:
        _emit_json(
            {
                "regulation": report.regulation,
                "in_core": report.in_core,
                "scope": report.scope.value,
                "jurisdictions": list(report.jurisdictions),
                "affected_requirements": list(report.affected_requirements),
                "affected_products": list(report.affected_products),
            }
        )
    else:
        print(f"regulation: {report.regulation}")
        print(f"in_core: {'yes' if report.in_core else 'no'}")
        scope = report.scope.value
        if report.jurisdictions:
            scope += " (" + ", ".join(report.jurisdictions) + ")"
        print(f"scope: {scope}")
        requirements = ", ".join(report.affected_requirements) or "(none)"
        products = ", ".join(report.affected_products) or "(none)"
        print(f"affected_requirements: {requirements}")
        print(f"affected_products: {products}")
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    catalog, graph = _load_validated(args.catalog)
    view = catalog_io.build_view(catalog, graph, args.view, args.focus)
    catalog_io.write_dot(view, args.out)
    if args.json:
        _emit_json({"out": args.out, "nodes": len(view.nodes), "edges": len(view.edges)})
    else:
        print(f"nodes: {len(view.nodes)}")
        print(f"edges: {len(view.edges)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reqlattice",
        description="Set algebra and analysis over multi-jurisdiction requirement catalogs.",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a single JSON document on stdout"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("catalog", help="path to a .reqcat.json catalog file")
    # SUPPRESS keeps a pre-subcommand --json from being clobbered by the
    # subparser's default.
    common.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="emit a single JSON document on stdout",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check catalog invariants")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sets", parents=[common], help="list one requirement-set construct")
    p.add_argument("--product", metavar="ID", help="projection or per-product union")
    p.add_argument("--jurisdiction", metavar="ID")
    p.add_argument("--kind", choices=["rl", "rfn"], help="restrict projection by kind")
    p.add_argument("--rl", action="store_true", help="the jurisdiction's requirements over all products")
    p.add_argument("--min", action="store_true", help="requirements demanded of every product")
    p.set_defaults(func=cmd_sets)

    p = sub.add_parser("optimize", parents=[common], help="strongest set for a scope")
    scope = p.add_mutually_exclusive_group(required=True)
    scope.add_argument("--jurisdiction", metavar="ID")
    scope.add_argument("--product", metavar="ID")
    scope.add_argument("--global", dest="global_scope", action="store_true")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("classify", parents=[common], help="regulation-overlap case")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("impact", parents=[common], help="trace a regulation change")
    p.add_argument("--regulation", metavar="ID", required=True)
    p.set_defaults(func=cmd_impact)

    p = sub.add_parser("export", parents=[common], help="write a dependency view as .dot")
    p.add_argument("--view", choices=[k.value for k in catalog_io.ViewKind], required=True)
    p.add_argument("--focus", metavar="ID")
    p.add_argument("--out", metavar="PATH", required=True)
    p.set_defaults(func=cmd_export)
    return parser


_parser = functools.cache(build_parser)  # one per process; it holds no catalog data


def _to_null(stream) -> None:
    """Point `stream`'s file descriptor at the null device, so that the
    interpreter's flush at exit does not fail on a stream that cannot take
    its text: its reader has gone or its device is full."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _finish(code: int, *lines: str) -> int:
    """Flush stdout, write `lines` to stderr and return `code`: every way
    out of `main` ends here once.

    A stream that cannot take its text is pointed at the null device. On
    stdout that is an IO error: the call exits 2 with its one `error:` line
    in place of `lines`. (A command writes to stdout only after its last
    check, so `lines` then report nothing or this same failure.) On stderr
    it changes no exit code.
    """
    try:
        sys.stdout.flush()
    except OSError as exc:
        _to_null(sys.stdout)
        code, lines = EXIT_USAGE, (f"error: {exc}",)
    try:
        for line in lines:
            print(line, file=sys.stderr)
        sys.stderr.flush()
    except OSError:
        _to_null(sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    # A command builds only acyclic structures, which reference counting
    # frees, so the cyclic collector is paused while it runs; the state
    # found (enabled or disabled) is restored.
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            with contextlib.redirect_stdout(StringIO()) as text:
                args = _parser().parse_args(argv)
        except SystemExit as done:
            # argparse exits after its help (stdout) or usage text (stderr),
            # and drops a failed write, so the help text is written here.
            sys.stdout.write(text.getvalue())
            raise SystemExit(_finish(done.code))
        return _finish(args.func(args))
    except CatalogInvalidError as refused:
        lines = [_issue_line(issue, sys.stderr) for issue in refused.report.errors]
        return _finish(EXIT_INVALID, *lines, "refusing to analyse a catalog with validation errors")
    except (ReqlatticeError, OSError) as exc:
        return _finish(EXIT_USAGE, f"error: {exc}")
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
