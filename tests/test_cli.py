from __future__ import annotations

import io
import json
import random
import sys
from pathlib import Path

import pytest

from randcat import random_catalog
from reqlattice import cli, model
from reqlattice.algebra import requirements_for
from reqlattice.cli import main
from reqlattice.errors import ReqlatticeError
from reqlattice.io import load, save_file
from reqlattice.refinement import build_graph

DATA = Path(__file__).parent / "data"

PARTIAL = str(DATA / "partial.reqcat.json")
CHAIN = str(DATA / "chain.reqcat.json")
DISJOINT = str(DATA / "disjoint.reqcat.json")
IDENTICAL = str(DATA / "identical.reqcat.json")
COUNTEREXAMPLE = str(DATA / "counterexample.reqcat.json")
CYCLE = str(DATA / "cycle.reqcat.json")
MALFORMED = str(DATA / "malformed.reqcat.json")


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv) -> tuple[int, dict]:
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


def test_validate_clean_catalog_exits_zero(capsys):
    code, out, err = run(capsys, "validate", PARTIAL)
    assert code == 0
    assert "0 error(s), 0 warning(s)" in out
    assert err == ""


def test_validate_cycle_exits_one_and_reports(capsys):
    code, out, _ = run(capsys, "validate", CYCLE)
    assert code == 1
    assert "CYCLE" in out


def test_validate_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "validate", str(DATA / "absent.reqcat.json"))
    assert code == 2
    assert "error:" in err


def test_validate_malformed_file_exits_two(capsys):
    code, _, err = run(capsys, "validate", MALFORMED)
    assert code == 2
    assert "line" in err


def test_validate_refuses_a_repeated_key_with_exit_two(capsys, tmp_path):
    path = tmp_path / "repeated.reqcat.json"
    path.write_text(
        '{"version": 1, "jurisdictions": [{"id": "C1", "id": "C2"}], "regulations": [],'
        ' "products": [], "requirements": [], "refinements": []}'
    )
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert "repeated key 'id'" in err


def test_validate_json_reports_diagnostic_warnings(capsys):
    code, payload = run_json(capsys, "validate", COUNTEREXAMPLE, "--json")
    assert code == 0
    assert payload["ok"] is True
    assert payload["errors"] == []
    assert [w["code"] for w in payload["warnings"]] == ["IMPLICATION_VIOLATED"]
    assert payload["warnings"][0]["ids"] == ["P1", "rX"]


def test_sets_projection_lists_sorted_ids(capsys):
    code, out, _ = run(
        capsys, "sets", PARTIAL, "--product", "P1", "--jurisdiction", "C1", "--kind", "rl"
    )
    assert code == 0
    assert out.splitlines() == ["ra", "rb", "rc"]


def test_sets_product_union_and_kind_union(capsys):
    code, out, _ = run(capsys, "sets", PARTIAL, "--product", "P1")
    assert code == 0
    assert out.splitlines() == ["ra", "rb", "rc", "re"]

    code, out, _ = run(capsys, "sets", PARTIAL, "--product", "P1", "--kind", "rfn")
    assert code == 0
    assert out.splitlines() == ["re"]


def test_sets_product_kind_is_the_union_of_kind_projections(capsys, tmp_path):
    rng = random.Random(4242)
    path = tmp_path / "random.reqcat.json"
    for _ in range(8):
        catalog = random_catalog(rng)
        save_file(catalog, path)
        for product in catalog.products:
            for kind in ("rl", "rfn"):
                want = set()
                for jurisdiction in catalog.jurisdictions:
                    want |= requirements_for(catalog, product.id, jurisdiction.id, kind).members
                code, payload = run_json(
                    capsys, "sets", str(path), "--product", product.id, "--kind", kind, "--json"
                )
                assert code == 0
                assert payload["ids"] == sorted(want)


def test_sets_jurisdiction_rl_and_min(capsys):
    code, out, _ = run(capsys, "sets", PARTIAL, "--jurisdiction", "C1", "--rl")
    assert code == 0
    assert out.splitlines() == ["ra", "rb", "rc"]

    # Single product: the minimum equals the full RL projection.
    code, out, _ = run(capsys, "sets", CHAIN, "--jurisdiction", "C1", "--min")
    assert code == 0
    assert out.splitlines() == ["a", "b", "c"]

    code, out, _ = run(capsys, "sets", PARTIAL, "--jurisdiction", "C1", "--min")
    assert code == 0
    assert out.splitlines() == ["ra", "rb"]


def test_sets_unknown_id_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "sets", PARTIAL, "--product", "P9")
    assert code == 2
    assert "P9" in err

    # Also when there is no jurisdiction to project onto.
    path = tmp_path / "no-jurisdictions.reqcat.json"
    catalog = json.loads(Path(PARTIAL).read_text())
    empty = {"jurisdictions": [], "regulations": [], "requirements": [], "refinements": []}
    path.write_text(json.dumps({**catalog, **empty}))
    for kind in ([], ["--kind", "rl"]):
        code, out, err = run(capsys, "sets", str(path), "--product", "P9", *kind)
        assert (code, out) == (2, "")
        assert "P9" in err


def test_sets_flag_conflicts_exit_two(capsys):
    bad_combos = [
        ("--jurisdiction", "C1", "--rl", "--min"),
        ("--product", "P1", "--rl"),
        ("--rl",),
        (),
        ("--jurisdiction", "C1"),
    ]
    for combo in bad_combos:
        code, out, err = run(capsys, "sets", PARTIAL, *combo)
        assert code == 2, combo
        assert out == ""
        assert "error:" in err


def test_empty_string_selectors_are_unknown_ids(capsys):
    """An empty selector names no entity; it never falls through to
    another construct."""
    cases = [
        (("optimize", PARTIAL, "--jurisdiction", ""), "unknown jurisdiction: ''"),
        (("optimize", PARTIAL, "--product", ""), "unknown product: ''"),
        (("sets", PARTIAL, "--product", "P1", "--jurisdiction", ""), "unknown jurisdiction: ''"),
        (("sets", PARTIAL, "--product", ""), "unknown product: ''"),
        (("sets", PARTIAL, "--jurisdiction", "", "--rl"), "unknown jurisdiction: ''"),
        (("sets", PARTIAL, "--jurisdiction", "", "--min"), "unknown jurisdiction: ''"),
        (
            ("sets", PARTIAL, "--product", "", "--jurisdiction", "C1", "--rl"),
            "--rl/--min combine only with --jurisdiction",
        ),
    ]
    for argv, message in cases:
        for json_flag in ([], ["--json"]):
            code, out, err = run(capsys, *argv, *json_flag)
            assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_optimize_chain_reports_witnesses(capsys):
    code, out, _ = run(capsys, "optimize", CHAIN, "--global")
    assert code == 0
    assert out.splitlines() == ["a", "removed:", "  b (dominated by a)", "  c (dominated by a)"]


def test_optimize_antichain_has_empty_removed_section(capsys):
    code, out, _ = run(capsys, "optimize", DISJOINT, "--global")
    assert code == 0
    assert out.splitlines() == ["d1", "d2", "removed:"]


def test_optimize_scopes(capsys):
    code, out, _ = run(capsys, "optimize", PARTIAL, "--jurisdiction", "C2")
    assert code == 0
    assert out.splitlines() == ["ra", "rd", "removed:", "  rb (dominated by ra)"]

    code, payload = run_json(capsys, "optimize", PARTIAL, "--product", "P1", "--json")
    assert code == 0
    assert payload == {
        "kept": ["ra", "rc", "re"],
        "removed": [{"id": "rb", "dominated_by": "ra"}],
    }


def test_optimize_refuses_invalid_catalog(capsys):
    code, out, err = run(capsys, "optimize", CYCLE, "--global")
    assert code == 1
    assert out == ""
    assert "CYCLE" in err


def test_classify_three_cases(capsys):
    expectations = {
        DISJOINT: ("DISJOINT", "TRACE_SEPARATELY"),
        PARTIAL: ("PARTIAL", "COMPONENT_SPLIT"),
        IDENTICAL: ("IDENTICAL", "SINGLE_COMPONENT"),
    }
    for path, (case, recommendation) in expectations.items():
        code, payload = run_json(capsys, "classify", path, "--json")
        assert code == 0
        assert payload["case"] == case
        assert payload["recommendation"] == recommendation

    code, out, _ = run(capsys, "classify", PARTIAL)
    assert code == 0
    assert out.splitlines() == [
        "case: PARTIAL",
        "core_size: 1",
        "complement[C1]: 1",
        "complement[C2]: 1",
        "recommendation: COMPONENT_SPLIT",
    ]


def test_impact_core_and_complement(capsys):
    code, payload = run_json(capsys, "impact", PARTIAL, "--regulation", "g", "--json")
    assert code == 0
    assert payload == {
        "regulation": "g",
        "in_core": True,
        "scope": "GLOBAL",
        "jurisdictions": [],
        "affected_requirements": ["ra", "rb"],
        "affected_products": ["P1", "P2"],
    }

    code, out, _ = run(capsys, "impact", PARTIAL, "--regulation", "s1")
    assert code == 0
    assert out.splitlines() == [
        "regulation: s1",
        "in_core: no",
        "scope: COUNTRY_SPECIFIC (C1)",
        "affected_requirements: rc",
        "affected_products: P1",
    ]


def test_impact_unknown_regulation_exits_two(capsys):
    code, _, err = run(capsys, "impact", PARTIAL, "--regulation", "zz")
    assert code == 2
    assert "zz" in err


def test_export_writes_dot_file_and_counts(capsys, tmp_path):
    out_path = tmp_path / "view.dot"
    code, out, _ = run(
        capsys, "export", PARTIAL, "--view", "country", "--focus", "C1", "--out", str(out_path)
    )
    assert code == 0
    assert out.splitlines() == ["nodes: 10", "edges: 4"]
    text = out_path.read_text(encoding="utf-8")
    assert text.startswith("digraph country_centred {")
    assert text.endswith("}\n")
    assert "\r" not in text


def test_export_focus_errors_exit_two(capsys, tmp_path):
    out_path = str(tmp_path / "view.dot")
    code, _, err = run(capsys, "export", PARTIAL, "--view", "country", "--out", out_path)
    assert code == 2
    assert "focus" in err

    code, _, err = run(
        capsys, "export", PARTIAL, "--view", "global", "--focus", "C1", "--out", out_path
    )
    assert code == 2

    code, _, err = run(
        capsys, "export", PARTIAL, "--view", "product", "--focus", "nope", "--out", out_path
    )
    assert code == 2


def test_json_flag_works_before_and_after_the_subcommand(capsys):
    code_before, before = run_json(capsys, "--json", "classify", PARTIAL)
    code_after, after = run_json(capsys, "classify", PARTIAL, "--json")
    assert code_before == code_after == 0
    assert before == after


def test_color_styling_respects_tty_and_env(monkeypatch):
    from reqlattice.cli import _style

    class FakeTty(io.StringIO):
        def isatty(self):
            return True

    monkeypatch.setattr("sys.stdout", FakeTty())
    monkeypatch.delenv("REQLATTICE_NO_COLOR", raising=False)
    assert _style("ERROR", "31", sys.stdout) == "\x1b[31mERROR\x1b[0m"

    # The refused catalog's issue lines go to stderr, so stderr decides.
    for stdout, stderr in ((FakeTty(), io.StringIO()), (io.StringIO(), FakeTty())):
        monkeypatch.setattr("sys.stdout", stdout)
        monkeypatch.setattr("sys.stderr", stderr)
        assert main(["optimize", CYCLE, "--global"]) == 1
        assert stdout.getvalue() == ""
        err = stderr.getvalue()
        assert err.startswith("\x1b[31mERROR\x1b[0m CYCLE: " if stderr.isatty() else "ERROR CYCLE: ")
        assert ("\x1b[" in err) == stderr.isatty()

    monkeypatch.setenv("REQLATTICE_NO_COLOR", "1")
    assert _style("ERROR", "31", FakeTty()) == "ERROR"


def test_every_library_error_exits_two(capsys, monkeypatch):
    class NewLibraryError(ReqlatticeError):
        """An error class that `cli.main` does not name."""

    def failing(catalog):
        raise NewLibraryError("no overlap today")

    monkeypatch.setattr("reqlattice.analysis.classify_overlap", failing)
    assert run(capsys, "classify", PARTIAL) == (2, "", "error: no overlap today\n")


def test_export_json_reports_counts(capsys, tmp_path):
    out_path = str(tmp_path / "view.dot")
    code, payload = run_json(
        capsys, "export", PARTIAL, "--view", "product", "--focus", "P2", "--out", out_path, "--json"
    )
    assert code == 0
    assert payload == {"out": out_path, "nodes": 5, "edges": 4}
    assert Path(out_path).exists()


def test_usage_errors_from_argparse_exit_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["optimize", PARTIAL])
    assert excinfo.value.code == 2

    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2


def test_one_parser_answers_a_sequence_of_calls_as_fresh_parsers_do(capsys, monkeypatch):
    sequence = [
        ["sets", PARTIAL, "--product", "P1"],
        ["optimize", PARTIAL],  # argparse usage error: no scope
        ["--json", "classify", PARTIAL],
        ["impact", PARTIAL, "--regulation", "g"],
        ["sets", PARTIAL, "--product", "P1", "--kind", "rl", "--json"],
    ]

    def outcomes():
        results = []
        for argv in sequence:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            results.append((code, *capsys.readouterr()))
        return results

    shared = outcomes()
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert outcomes() == shared
    assert [code for code, _, _ in shared] == [0, 2, 0, 0, 0]


def test_json_outputs_are_single_documents_and_deterministic(capsys):
    commands = [
        ("validate", PARTIAL, "--json"),
        ("sets", PARTIAL, "--product", "P1", "--json"),
        ("optimize", PARTIAL, "--global", "--json"),
        ("classify", PARTIAL, "--json"),
        ("impact", PARTIAL, "--regulation", "g", "--json"),
    ]
    for argv in commands:
        outputs = []
        for _ in range(3):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            json.loads(out)
            outputs.append(out)
        assert len(set(outputs)) == 1, argv


def test_every_command_validates_exactly_once(capsys, monkeypatch, tmp_path):
    calls = []
    original = model.validate

    def counting_validate(catalog):
        calls.append(catalog)
        return original(catalog)

    for name, module in list(sys.modules.items()):
        if name == "reqlattice" or name.startswith("reqlattice."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting_validate)

    out = str(tmp_path / "view.dot")
    for argv in (
        ["validate", PARTIAL],
        ["validate", PARTIAL, "--json"],
        ["sets", PARTIAL, "--product", "P1"],
        ["sets", PARTIAL, "--jurisdiction", "C1", "--min"],
        ["optimize", PARTIAL, "--global", "--json"],
        ["optimize", PARTIAL, "--product", "P1"],
        ["classify", PARTIAL],
        ["impact", PARTIAL, "--regulation", "g"],
        ["export", PARTIAL, "--view", "global", "--out", out],
        ["export", PARTIAL, "--view", "country", "--focus", "C1", "--out", out],
        ["optimize", CYCLE, "--global"],
        ["validate", CYCLE],
    ):
        calls.clear()
        main(argv)
        capsys.readouterr()
        assert len(calls) == 1, argv


def test_every_command_indexes_the_refinement_edges_exactly_once(capsys, monkeypatch, tmp_path):
    calls = []
    original = model._adjacency

    def counting_adjacency(nodes, edges):
        calls.append(nodes)
        return original(nodes, edges)

    monkeypatch.setattr(model, "_adjacency", counting_adjacency)
    out = str(tmp_path / "view.dot")
    for catalog in (PARTIAL, CYCLE):
        for argv in (
            ["validate", catalog],
            ["sets", catalog, "--product", "P1", "--json"],
            ["optimize", catalog, "--global"],
            ["classify", catalog],
            ["impact", catalog, "--regulation", "g"],
            ["export", catalog, "--view", "global", "--out", out],
        ):
            calls.clear()
            code = main(argv)
            capsys.readouterr()
            assert code == (0 if catalog == PARTIAL else 1), argv
            assert len(calls) == 1, argv


def test_only_validate_looks_for_warnings(capsys, monkeypatch, tmp_path):
    calls = []
    original = model.find_warnings

    def counting_find_warnings(catalog):
        calls.append(catalog)
        return original(catalog)

    bindings = 0
    for name, module in list(sys.modules.items()):
        if name == "reqlattice" or name.startswith("reqlattice."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting_find_warnings)
                    bindings += 1
    assert bindings >= 3  # model, the package root and cli
    build_graph(load(PARTIAL))
    assert calls == []
    out = str(tmp_path / "view.dot")
    for catalog in (PARTIAL, CYCLE):
        for argv, expected in (
            (["validate", catalog], 1),
            (["validate", catalog, "--json"], 1),
            (["sets", catalog, "--product", "P1", "--json"], 0),
            (["sets", catalog, "--jurisdiction", "C1", "--min"], 0),
            (["optimize", catalog, "--global"], 0),
            (["classify", catalog], 0),
            (["impact", catalog, "--regulation", "g"], 0),
            (["export", catalog, "--view", "global", "--out", out], 0),
            (["export", catalog, "--view", "country", "--focus", "C1", "--out", out], 0),
        ):
            calls.clear()
            code = main(argv)
            capsys.readouterr()
            assert code == (0 if catalog == PARTIAL else 1), argv
            assert len(calls) == expected, argv


def test_export_global_view_with_colliding_joined_ids_exits_zero(capsys, tmp_path):
    catalog = {
        "version": 1,
        "jurisdictions": [{"id": "C2"}, {"id": "C1__C2"}],
        "regulations": [{"id": "g", "jurisdictions": "all"}],
        "products": [{"id": "x"}, {"id": "x__C1"}],
        "requirements": [
            {
                "id": "r1",
                "kind": "RL",
                "derived_from": ["g"],
                "applies_to_products": "all",
                "applies_to_jurisdictions": "all",
            }
        ],
        "refinements": [],
    }
    path = tmp_path / "underscores.reqcat.json"
    path.write_text(json.dumps(catalog))
    out_path = tmp_path / "view.dot"
    code, out, err = run(
        capsys, "export", str(path), "--view", "global", "--out", str(out_path), "--json"
    )
    assert code == 0, err
    assert json.loads(out)["nodes"] == 9
    dot = out_path.read_text()
    assert '"proj__x__C1_u_uC2" [label="RL [x, C1__C2]: r1"];' in dot
    assert '"proj__x_u_uC1__C2" [label="RL [x__C1, C2]: r1"];' in dot


def test_validate_deeply_nested_document_exits_two(capsys, tmp_path):
    path = tmp_path / "nested.reqcat.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_validate_overlong_integer_literal_exits_two(capsys, tmp_path):
    catalog = json.loads(Path(PARTIAL).read_text())
    catalog["jurisdictions"][0]["name"] = 0
    path = tmp_path / "overlong.reqcat.json"
    path.write_text(json.dumps(catalog).replace('"name": 0', '"name": ' + "9" * 5000, 1))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_lone_surrogate_id_exits_two_without_traceback(capsys, tmp_path):
    catalog = json.loads(Path(PARTIAL).read_text())
    catalog["products"].append({"id": "\ud800"})
    path = tmp_path / "surrogate.reqcat.json"
    path.write_text(json.dumps(catalog))  # the id is written as the escape \ud800
    out_path = tmp_path / "view.dot"
    for argv in (
        ["export", str(path), "--view", "product", "--focus", "P1", "--out", str(out_path)],
        ["validate", str(path), "--json"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err
    assert not out_path.exists()
