"""Tests for the command-line layer: report shape, exit codes, guards,
determinism, and the file round-trips."""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from apolarium.cli import MINIMAL_RANK_FAMILIES, run
from apolarium.papersuite import BIG_CUBIC
from oracles import spy_cells_built, spy_rows_read

REPORT_KEYS = {"command", "inputs", "outputs", "provenance", "seed"}
SRC = Path(__file__).resolve().parents[1] / "src"


def _python(*args):
    """Run the interpreter on args in a child that imports the package
    from src/, as the tests do, whether or not PYTHONPATH is set."""
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))


def report(capsys, argv, expect=0):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == expect, out
    doc = json.loads(out)
    assert set(doc) == REPORT_KEYS
    assert isinstance(doc["provenance"], list) and doc["provenance"]
    return doc


# -- polynomial commands ---------------------------------------------------------


def test_apolar_dim(capsys):
    doc = report(capsys, ["apolar-dim",
                          "x1*x2*x3*x4*x5*x6*x7*x8*x9"])
    assert doc["outputs"]["dim"] == 512
    assert doc["seed"] == 0


def test_hilbert(capsys):
    doc = report(capsys, ["hilbert", "(x1^2 + x2)^2"])
    assert doc["outputs"]["hilbert_function"] == [1, 2, 1, 1, 1]
    assert doc["outputs"]["dim"] == 6


def test_annihilator(capsys):
    doc = report(capsys, ["annihilator", "x1*x2", "--degree", "2"])
    assert doc["outputs"]["generators"] == ["x1^2", "x2^2"]


def test_cat_rank_single_and_max(capsys):
    doc = report(capsys, ["cat-rank", "--k", "3", "(x0^3 + x1^3)^2"])
    assert doc["outputs"]["rank"] == 4
    doc = report(capsys, ["cat-rank", "--max", "(x0^3 + x1^3)^2"])
    assert doc["outputs"] == {"at_k": 3, "border_rank_lower_bound": 4,
                              "max_rank": 4}


def test_cat_rank_needs_k_or_max(capsys):
    assert run(["cat-rank", "x1^2"]) == 2


def test_twist(capsys):
    doc = report(capsys, ["twist", "x0^2*x1 + x0*x2^2", "--var", "x0"])
    assert doc["outputs"]["twisted"] == "1/2*x0^2*x1 + x0*x2^2"


def test_encompass_check(capsys):
    doc = report(capsys, ["encompass-check", "x1^2 + x2^2"])
    assert doc["outputs"] == {"almost_encompassing": True,
                              "encompassing": False,
                              "gradient_generic_rank": 2,
                              "partials_dim": 4}


def test_growth(capsys):
    doc = report(capsys, ["growth", "--dmax", "3", "x1^2 + x2"])
    assert doc["outputs"]["dims"] == [3, 6, 10]
    assert doc["outputs"]["maximal_throughout"] is True


@pytest.mark.parametrize("argv", [
    ["growth", "--dmax", "0", "x1^2"], ["growth", "--dmax", "-3", "x1^2"],
    ["growth", "5"]])  # a constant's default dmax is its degree, 0
def test_growth_needs_a_positive_dmax(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "dmax" in captured.err


def test_extend(capsys):
    doc = report(capsys, ["extend", "x1^3 + x2^3"])
    assert doc["outputs"]["g"] == "y3 + x1*y1 + x2*y2 + x1^3 + x2^3"
    assert doc["outputs"]["G"] == ("x0^2*y3 + x0*x1*y1 + x0*x2*y2 "
                                   "+ x1^3 + x2^3")
    assert doc["outputs"]["encompassing"] is True


def test_extend_a_form_in_x0(capsys):
    # x0 is taken, so G is homogenized with t0
    doc = report(capsys, ["extend", "x0^2 + x1^2"])
    assert doc["outputs"]["g"] == "y1 + x0^2 + x1^2"
    assert doc["outputs"]["G"] == "t0*y1 + x0^2 + x1^2"
    assert doc["outputs"]["encompassing"] is True


def test_extend_with_sigma_override(capsys):
    doc = report(capsys, ["extend", "x1^3 + x2^3",
                          "--sigma", "x1^2 + x2^2",
                          "--sigma", "x1*x2 + x2^2",
                          "--sigma", "x1^3"])
    assert doc["outputs"]["encompassing"] is True
    assert doc["outputs"]["sigmas"] == [
        "1/6*x1^2 + 1/6*x2^2", "1/6*x1*x2 + 1/6*x2^2", "1/6*x1^3"]


# -- verification commands and their exit codes ---------------------------------------


def test_verify_taut_passes(capsys):
    doc = report(capsys, ["verify-taut", "x0*x1^2 + x0^2*x2"])
    assert doc["outputs"]["all_pass"] is True


def test_verify_taut_untwisted_control_exits_one(capsys):
    doc = report(capsys, ["verify-taut", "--untwisted",
                          "x0*x1^2 + x0^2*x2"], expect=1)
    assert doc["outputs"]["all_pass"] is False
    assert doc["outputs"]["kills"][0] is False


def test_verify_main_thm_passes(capsys):
    doc = report(capsys, ["verify-main-thm", "--d", "2", "x0*x1*x2"])
    assert doc["outputs"]["rank"] == doc["outputs"]["expected"] == 6
    assert doc["outputs"]["equal"] is True
    assert doc["outputs"]["out_of_scope"]


def test_verify_main_thm_failure_exits_one(capsys):
    # a non-concise form misses the saturated value
    doc = report(capsys, ["verify-main-thm", "--d", "2",
                          "x0^2 + x1^2 + 0*x2"], expect=1)
    assert doc["outputs"]["rank"] == 3
    assert doc["outputs"]["expected"] == 6
    assert doc["outputs"]["assumptions"]["concise"] is False


# -- tensors ---------------------------------------------------------------------


def test_tensor_make_cw(capsys):
    doc = report(capsys, ["tensor", "make", "cw", "--n", "4"])
    assert doc["outputs"]["dims"] == [4, 4, 4]
    assert doc["outputs"]["nnz"] == 9


def test_tensor_make_group(capsys):
    doc = report(capsys, ["tensor", "make", "group", "--orders", "2x2"])
    assert doc["outputs"]["dims"] == [4, 4, 4]
    assert doc["outputs"]["nnz"] == 16


def test_tensor_make_algebra(capsys):
    doc = report(capsys, ["tensor", "make", "algebra", "--form",
                          "x1^2 + x2^2"])
    assert doc["outputs"]["basis"] == ["1", "x1", "x2", "x1^2"]
    assert doc["outputs"]["nnz"] == 9


def test_tensor_make_onegen(capsys):
    doc = report(capsys, ["tensor", "make", "onegen", "--tensor", "cw:3",
                          "--k", "1"])
    assert doc["outputs"]["dims"] == [4, 4, 4]
    assert doc["outputs"]["nnz"] == 10


def test_tensor_kron(capsys):
    doc = report(capsys, ["tensor", "kron", "--tensor", "tb",
                          "--power", "2"])
    assert doc["outputs"]["dims"] == [4, 4, 4]
    assert doc["outputs"]["nnz"] == 9


def test_tensor_kron_serializes_the_power_only_for_out(tmp_path, capsys,
                                                       monkeypatch):
    # without --out the report's input document is the only one built, and
    # no command makes JSON text through to_json: the report holds doc()
    from apolarium.tensor3 import Tensor3, kronecker_power, tb
    documents, texts = [], []
    doc, to_json = Tensor3.doc, Tensor3.to_json
    monkeypatch.setattr(Tensor3, "doc",
                        lambda T: documents.append(T.dims) or doc(T))
    monkeypatch.setattr(Tensor3, "to_json",
                        lambda T: texts.append(T.dims) or to_json(T))
    report(capsys, ["tensor", "kron", "--tensor", "tb", "--power", "2"])
    assert documents == [(2, 2, 2)] and texts == []
    out = tmp_path / "p.json"
    report(capsys, ["tensor", "kron", "--tensor", "tb", "--power", "2",
                    "--out", str(out)])
    assert documents == [(2, 2, 2), (4, 4, 4), (2, 2, 2)] and texts == []
    assert out.read_text(encoding="utf-8") == (
        to_json(kronecker_power(tb(), 2)) + "\n")


@pytest.mark.parametrize("argv", [
    ["tensor", "kron", "--tensor", "cw:3", "--power", "2", "--full"],
    ["tensor", "make", "ts", "--tensor", "tb"],
    ["sweet", "extract", "--tensor", "cw:3", "--blocking", "cw",
     "--dist", "large", "--power", "3"],
    ["sweet", "marginals", "--tensor", "cw:3", "--blocking", "cw",
     "--dist", "uniform"],
], ids=lambda argv: "-".join(argv[:2]))
def test_a_report_parses_no_json_without_a_file(capsys, monkeypatch, argv):
    # documents go into the report as built, not dumped and parsed back
    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called")
    with monkeypatch.context() as m:
        m.setattr(json, "loads", refuse)
        code = run(argv)
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == REPORT_KEYS


def test_tensor_file_round_trip(tmp_path, capsys):
    out = tmp_path / "t.json"
    report(capsys, ["tensor", "make", "cw", "--n", "3",
                    "--out", str(out)])
    doc = report(capsys, ["sweet", "tight", "--tensor", f"@{out}",
                          "--blocking", "cw"])
    assert doc["outputs"]["tight"] is True


# -- sweet commands -----------------------------------------------------------------


def test_sweet_support(capsys):
    doc = report(capsys, ["sweet", "support", "--tensor", "cw:4",
                          "--blocking", "cw"])
    assert doc["outputs"]["count"] == 6
    fmts = [b["format"] for b in doc["outputs"]["blocks"]
            if b["format"] != [1, 1, 1]]
    assert fmts == [[1, 2, 2], [2, 1, 2], [2, 2, 1]]


def test_sweet_tight_group_is_false(capsys):
    doc = report(capsys, ["sweet", "tight", "--tensor", "group:3",
                          "--blocking", "cw"])
    assert doc["outputs"]["tight"] is False


def test_sweet_extract(capsys):
    doc = report(capsys, ["sweet", "extract", "--tensor", "tb",
                          "--blocking", "weights:0,1", "--dist", "uniform",
                          "--power", "3"])
    assert doc["outputs"]["dims"] == [3, 3, 3]
    assert doc["outputs"]["nnz"] == 6
    assert doc["outputs"]["p_T"] == 3
    assert doc["outputs"]["validation"]["marginals_uniform"] is True


def test_sweet_extract_nontight_needs_flag(capsys):
    argv = ["sweet", "extract", "--tensor", "group:3", "--blocking", "cw",
            "--dist", "large", "--power", "3"]
    assert run(argv) == 2
    capsys.readouterr()
    doc = report(capsys, argv + ["--allow-nontight"])
    assert doc["inputs"]["tightness_check_skipped"] is True
    assert doc["outputs"]["dims"] == [3, 3, 3]


def test_sweet_chimney(capsys):
    doc = report(capsys, ["sweet", "chimney", "--tensor", "cw:3",
                          "--blocking", "cw", "--dist", "large",
                          "--power", "3"])
    assert doc["outputs"]["dims"] == [3, 3, 27]
    assert doc["outputs"]["zero_layers"] == 21
    assert doc["outputs"]["free_axis"] == 3  # 1-based in reports


@pytest.mark.parametrize("fixed", ["0,1", "1,2,3", "1,4"])
def test_chimney_fixed_axes_are_checked_one_based(capsys, fixed):
    assert run(["sweet", "chimney", "--tensor", "cw:3", "--blocking", "cw",
                "--dist", "large", "--power", "3", "--fixed", fixed]) == 2
    assert capsys.readouterr().err == (
        "error: --fixed is two distinct 1-based axes among 1, 2 and 3, "
        f"got {fixed}\n")


def test_sweet_degenerate(capsys):
    doc = report(capsys, ["sweet", "degenerate", "--tensor", "group:3",
                          "--blocking", "cw", "--weights", "cwdeg"])
    assert doc["outputs"]["nnz"] == 6
    assert doc["outputs"]["tight_after"] is True


def test_sweet_degenerate_inline_weights(capsys):
    # three ;-separated axes give the weights that cwdeg names
    weights = [[0, 1, 2], [0, 1, 2], [0, -1, -2]]
    argv = ["sweet", "degenerate", "--tensor", "group:3", "--blocking", "cw",
            "--weights"]
    doc = report(capsys, argv + ["0,1,2;0,1,2;0,-1,-2"])
    assert doc["inputs"]["weights"] == weights
    assert doc["outputs"] == report(capsys, argv + ["cwdeg"])["outputs"]


def test_sweet_marginals_of_a_point_distribution(capsys):
    # point:I charges the I-th support block, in sorted label order
    doc = report(capsys, ["sweet", "marginals", "--tensor", "cw:3",
                          "--blocking", "cw", "--dist", "point:2"])
    assert doc["inputs"]["dist"] == {"probs": ["1"],
                                     "support": [[[0], [2], [-2]]]}
    assert doc["outputs"] == {
        "marginals": [{"[0]": "1"}, {"[2]": "1"}, {"[-2]": "1"}],
        "uniqueness": "unique"}


@pytest.mark.parametrize("argv, err", [
    (["sweet", "degenerate", "--tensor", "group:3", "--blocking", "cw",
      "--weights", "0,1,2;0,1,2"],
     "inline weights need three ;-separated axes"),
    (["sweet", "tight", "--tensor", "cw:3", "--blocking", "foo"],
     "unknown blocking spec 'foo' (want cw, weights:a,b,... or @file)"),
    (["sweet", "tight", "--tensor", "cw:3", "--blocking", "weights:0,1"],
     "weight blocking must match the tensor dims"),
    (["sweet", "extract", "--tensor", "tb", "--blocking", "weights:0,1",
      "--dist", "large", "--power", "2"],
     "'large' needs the three standard large blocks in the support"),
    (["tensor", "make", "group"], "group mode needs --orders like 2x2"),
])
def test_a_malformed_spec_exits_two(capsys, argv, err):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


def test_the_cw_blocking_of_a_tensor_that_is_not_a_cube_exits_two(
        tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"dims": [2, 2, 3],
                                "entries": [[0, 0, 0, "1"]]}))
    assert run(["sweet", "tight", "--tensor", f"@{path}",
                "--blocking", "cw"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cw blocking needs a cube-shaped tensor\n"


def test_sweet_zero_layers(capsys):
    doc = report(capsys, ["sweet", "zero-layers", "--tensor", "cw:4",
                          "--axis", "3"])
    assert doc["outputs"]["zero_layers"] == 0


def test_sweet_bound_requires_family(capsys):
    assert run(["sweet", "bound", "--ambient-dim", "8",
                "--zero-layers", "4"]) == 2
    capsys.readouterr()
    doc = report(capsys, ["sweet", "bound", "--ambient-dim", "8",
                          "--zero-layers", "4", "--family", "binary-power"])
    assert doc["outputs"]["rank_bound"] == 4
    doc = report(capsys, ["sweet", "bound", "--ambient-dim", "8",
                          "--zero-layers", "4", "--assert-minimal-rank"])
    assert doc["inputs"]["minimal_rank_asserted_by_caller"] is True


def test_minimal_rank_families_whitelist():
    assert MINIMAL_RANK_FAMILIES == ("group-power", "binary-power")


def test_sweet_pratt(capsys):
    doc = report(capsys, ["sweet", "pratt", "--k", "2"])
    assert doc["outputs"]["bound"] == 31
    assert doc["outputs"]["even_symdiff_count"] == 31
    assert doc["outputs"]["agree"] is True


def test_sweet_omega(capsys):
    doc = report(capsys, ["sweet", "omega", "--a", "2", "--r", "8",
                          "--p", "1"])
    assert doc["outputs"]["omega_bound"] == 3.0


def test_sweet_veronese(capsys):
    doc = report(capsys, ["sweet", "veronese", "--dims",
                          "1,9,36,84,126,126,84,36,9,1", "--k", "3"])
    assert doc["outputs"]["veronese_dims"] == [1, 84, 84, 1]


# -- the reference suite ----------------------------------------------------------


def test_paper_suite_filtered(capsys):
    doc = report(capsys, ["paper-suite", "--only", "cw-support-size"])
    assert doc["outputs"]["summary"]["failed"] == 0
    assert doc["outputs"]["summary"]["total"] == 1
    assert doc["provenance"] == ["*"]


def test_paper_suite_unknown_id(capsys):
    assert run(["paper-suite", "--only", "not-a-real-entry"]) == 2


def _only_these_run(monkeypatch, keep):
    """Replace every suite entry outside keep by one that fails the test
    if it is ever called."""
    import apolarium.papersuite as papersuite

    def never():
        raise AssertionError("an entry outside --only ran")

    monkeypatch.setattr(papersuite, "ENTRIES", [
        e if e.id in keep else papersuite.SuiteEntry(e.id, e.description,
                                                     e.kind, never)
        for e in papersuite.ENTRIES])


def test_paper_suite_only_runs_the_chosen_entries(capsys, monkeypatch):
    _only_these_run(monkeypatch, {"cw-support-size", "sweet-rank-formulas"})
    doc = report(capsys, ["paper-suite", "--only", "sweet-rank-formulas",
                          "--only", "cw-support-size"])
    out = doc["outputs"]
    assert [e["id"] for e in out["entries"]] == ["cw-support-size",
                                                 "sweet-rank-formulas"]
    assert [out["summary"][k] for k in ("total", "passed", "failed",
                                        "informational")] == [2, 2, 0, 0]
    assert doc["inputs"]["only"] == ["sweet-rank-formulas", "cw-support-size"]


def test_paper_suite_unknown_id_refused_before_any_entry(capsys, monkeypatch):
    _only_these_run(monkeypatch, set())
    assert run(["paper-suite", "--only", "cw-support-size",
                "--only", "not-a-real-entry"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not-a-real-entry" in captured.err


def test_paper_suite_only_matches_filtered_full_report():
    from apolarium.papersuite import run_suite
    full = run_suite()
    keep = {"cw-support-size", "growth-chain-experiment"}
    entries = [e for e in full["entries"] if e["id"] in keep]
    summary = dict(full["summary"], total=2, informational=1,
                   passed=1, failed=0)
    assert run_suite(keep) == {"entries": entries, "summary": summary}


# -- exit codes, guards, determinism --------------------------------------------------


def test_parse_error_exits_two(capsys):
    assert run(["apolar-dim", "x1 +"]) == 2
    assert run(["twist", "x1^2 + x2", "--var", "zz"]) == 2
    assert run(["tensor", "make", "cw"]) == 2  # missing --n


@pytest.mark.parametrize("argv", [
    ["twist", "3"], ["verify-taut", "3"], ["verify-main-thm", "3", "--d", "1"],
    ["twist", "1/2", "--human"]])
def test_a_form_with_no_variables_needs_var_and_exits_two(capsys, argv):
    # exit 1 would claim a violated theorem; this is a usage error
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the form has no variables\n"


def test_cat_rank_max_of_the_zero_form_exits_two(capsys):
    assert run(["cat-rank", "x1 - x1", "--max"]) == 2
    assert capsys.readouterr().err == (
        "error: the zero polynomial has no partials space\n")


@pytest.mark.parametrize("mode", ["ts", "onegen"])
def test_tensor_make_without_a_tensor_exits_two(capsys, mode):
    assert run(["tensor", "make", mode]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {mode} mode needs --tensor\n"


@pytest.mark.parametrize("doc, argv", [
    ({"labels": 5}, ["sweet", "tight", "--tensor", "cw:3", "--blocking"]),
    ({"dims": [2, 2, 2], "entries": 5},
     ["sweet", "zero-layers", "--axis", "1", "--tensor"]),
    ({"weights": 3}, ["sweet", "degenerate", "--tensor", "cw:3",
                      "--blocking", "cw", "--weights"]),
    ({"dims": [2, 2, 2]}, ["sweet", "zero-layers", "--axis", "1",
                           "--tensor"]),
    ({"support": [[[0], [1], [-1]]]},
     ["sweet", "marginals", "--tensor", "cw:3", "--blocking", "cw",
      "--dist"]),
])
def test_a_file_of_the_wrong_json_types_exits_two(tmp_path, capsys, doc,
                                                  argv):
    # exit 1 would claim a violated theorem; this is a malformed input
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(argv + [f"@{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: malformed document {path}: ")


def test_a_distribution_file_with_a_short_support_element_exits_two(
        tmp_path, capsys):
    # marginals read an axis past the end of the element: an IndexError
    # traceback and exit 1, the code of a violated claim
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"support": [[[0], [1]]], "probs": ["1"]}))
    assert run(["sweet", "marginals", "--tensor", "cw:3", "--blocking", "cw",
                "--dist", f"@{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: support element [[0], [1]] is not three labels\n")


@pytest.mark.parametrize("text, detail", [
    ('{"dims": [2, 2, 2], "entries": [[0, 0, 0, "1', "Unterminated string "),
    ('{"dims": [2, 2, 2], "entries": [[0, 0, 0]]}',
     "entry [0, 0, 0] is not [i, j, k, value]"),
    ('{"dims": [2, 2, 2], "entries": [[0, 0, 0, "1", "2"]]}',
     "entry [0, 0, 0, '1', '2'] is not [i, j, k, value]"),
])
def test_a_file_that_does_not_parse_or_unpack_names_the_file(tmp_path, capsys,
                                                           text, detail):
    path = tmp_path / "t.json"
    path.write_text(text)
    assert run(["tensor", "kron", "--tensor", f"@{path}", "--power", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: malformed document {path}: {detail}")


@pytest.mark.parametrize("doc, key, argv", [
    ({"entries": []}, "dims",
     ["sweet", "zero-layers", "--axis", "1", "--tensor"]),
    ({}, "labels", ["sweet", "tight", "--tensor", "cw:3", "--blocking"]),
    ({"m": 1, "n": 2}, "slices", ["tensor", "make", "atk", "--slices"]),
    ({}, "weights", ["sweet", "degenerate", "--tensor", "cw:3",
                     "--blocking", "cw", "--weights"]),
])
def test_a_file_without_a_key_names_the_file_and_the_key(tmp_path, capsys,
                                                         doc, key, argv):
    # the tensor and distribution loaders are in the wrong-types test above
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(argv + [f"@{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: malformed document {path}: "
                            f"missing key '{key}'\n")


@pytest.mark.parametrize("entries, err", [
    ([[0.9, 1, 1, "1"]], "error: index (0.9, 1, 1) is not a triple of ints\n"),
    ([[0, 0, 0, "1"], [0, 0, 0, "5"]], "error: index [0, 0, 0] repeated\n"),
])
def test_a_tensor_file_with_a_bad_index_exits_two(tmp_path, capsys, entries,
                                                  err):
    # int() would store 0.9 at index 0, and a repeated triple would keep
    # only its last value
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"dims": [2, 2, 2], "entries": entries}))
    assert run(["tensor", "kron", "--tensor", f"@{path}", "--power", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_a_uniform_distribution_over_no_blocks_exits_two(tmp_path, capsys):
    # a tensor without entries has no support blocks to spread over
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"dims": [2, 2, 2], "entries": []}))
    assert run(["sweet", "extract", "--tensor", f"@{path}", "--blocking",
                "weights:0,1", "--dist", "uniform", "--power", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: a uniform distribution needs a nonempty "
                            "support\n")


def test_a_tensor_file_with_two_label_axes_exits_two(tmp_path, capsys):
    # the power's report would carry a two-axis label table
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"dims": [2, 2, 2], "entries": [[0, 0, 0, "1"]],
                                "labels": [["a", "b"], ["c", "d"]]}))
    assert run(["tensor", "kron", "--tensor", f"@{path}", "--power", "2",
                "--full"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: label table sizes do not match dims\n"


@pytest.mark.parametrize("doc, argv, err", [
    ({"dims": [2.5, 2, 2], "entries": []},
     ["sweet", "zero-layers", "--axis", "1", "--tensor"],
     "error: bad dims [2.5, 2, 2]\n"),
    ({"labels": [[[0.7], [1.2]], [[0], [1]], [[True], [0]]]},
     ["sweet", "tight", "--tensor", "tb", "--blocking"],
     "error: label [0.7] is not an int or a vector of ints\n"),
])
def test_a_file_with_non_int_dims_or_labels_exits_two(tmp_path, capsys, doc,
                                                      argv, err):
    # int() would read 2.5 as 2, 0.7 as 0 and true as 1, and the command
    # would report on a tensor or blocking the file does not describe
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(argv + [f"@{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


@pytest.mark.parametrize("weights, err", [
    ([[0.5, 1.9, 2], [0, 1, 2], [0, -1, -2]], "error: weight 0.5 is not an int\n"),
    ([[0, 1, 2], [0, True, 2], [0, -1, -2]], "error: weight True is not an int\n"),
])
def test_a_weights_file_with_non_int_weights_exits_two(tmp_path, capsys,
                                                       weights, err):
    # int() would read 0.5 as 0, 1.9 as 1 and true as 1, and degenerate
    # the tensor with weights the file does not give
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"weights": weights}))
    assert run(["sweet", "degenerate", "--tensor", "group:3", "--blocking",
                "cw", "--weights", f"@{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_a_tensor_file_with_a_float_entry_exits_two(tmp_path, capsys):
    # Fraction(0.1) would report 3602879701896397/36028797018963968
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"dims": [2, 2, 2],
                                "entries": [[0, 0, 0, 0.1]]}))
    assert run(["sweet", "zero-layers", "--axis", "1",
                "--tensor", f"@{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: malformed document {path}: "
                                   "floats are not allowed")


@pytest.mark.parametrize("argv, doc", [
    (["sweet", "omega", "--a", "2", "--r", "1/0", "--p", "1"], None),
    (["sweet", "omega", "--a", "2", "--r", "1", "--p", "0/0"], None),
    (["sweet", "extract", "--tensor", "tb", "--blocking", "weights:0,1",
      "--power", "1", "--dist"],
     {"support": [[[0], [1], [1]]], "probs": ["1/0"]}),
    (["sweet", "tight", "--blocking", "cw", "--tensor"],
     {"dims": [3, 3, 3], "entries": [[0, 0, 0, "1/0"]]}),
])
def test_a_zero_denominator_exits_two(tmp_path, capsys, argv, doc):
    # a rational the user wrote with denominator 0 is a malformed input,
    # not a violated claim (exit 1)
    if doc is not None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = argv + [f"@{path}"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: Fraction\([01], 0\)\n", captured.err)


def test_importing_the_cli_loads_no_library_module():
    # every CLI child compiles what it imports; each runner imports the
    # modules it calls
    code = ("import sys, apolarium.cli; print(' '.join(sorted(m for m in "
            "sys.modules if m.startswith('apolarium.'))))")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["apolarium.cli", "apolarium.guards"]


def _modules_loaded_by(argv):
    """The names in sys.modules of a child that has run one command."""
    code = ("import sys; from apolarium import cli; "
            "code = cli.run(sys.argv[1:]); "
            "sys.stderr.write(' '.join(sorted(sys.modules))); sys.exit(code)")
    proc = _python("-c", code, *argv)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


# every module of the package but the entry points; cli and guards load with
# every command
MODULES = {path.stem for path in (SRC / "apolarium").glob("*.py")} - {
    "__init__", "__main__"}


@pytest.mark.parametrize("argv, unloaded", [
    (["sweet", "chimney", "--tensor", "cw:3", "--blocking", "cw",
      "--dist", "large", "--power", "3"],
     {"poly", "apolar", "encompass", "exact", "papersuite", "cli_poly"}),
    (["verify-main-thm", "x0^3 + x1^3", "--d", "2"],
     {"sweet", "tensor3", "papersuite", "cli_tensor"}),
    (["apolar-dim", "x1*x2*x3"],
     {"sweet", "tensor3", "encompass", "papersuite", "cli_tensor"}),
    (["paper-suite", "--only", "cw-support-size"],
     {"poly", "apolar", "encompass", "exact", "sweet", "cli_poly",
      "cli_tensor"}),
    (["paper-suite"], {"cli_poly", "cli_tensor"}),
])
def test_a_command_loads_only_the_modules_it_runs(argv, unloaded):
    assert unloaded <= MODULES
    loaded = _modules_loaded_by(argv)
    assert "dataclasses" not in loaded
    assert {m for m in MODULES if f"apolarium.{m}" in loaded} == (
        MODULES - unloaded)


def test_every_command_has_one_runner_and_every_runner_a_command():
    # a row's group table is imported only when the command runs, so a
    # missing runner would otherwise show first when a user types it
    from apolarium.cli import COMMANDS
    tables = {command.runners: command.runners() for command in COMMANDS}
    for command in COMMANDS:
        holders = [table for table in tables.values() if command.path in table]
        assert holders == [command.runners()], command.path
        assert callable(command.runner()), command.path
    assert sorted(path for table in tables.values() for path in table) == (
        sorted(command.path for command in COMMANDS))


def test_unknown_tensor_spec_exits_two(capsys):
    assert run(["sweet", "tight", "--tensor", "wat:9",
                "--blocking", "cw"]) == 2


def test_entry_guard_exits_three(capsys):
    code = run(["tensor", "kron", "--tensor", "cw:4", "--power", "9",
                "--max-entries", "1000"])
    assert code == 3
    err = capsys.readouterr().err
    assert "exceeds" in err


def test_group_tensors_are_refused_before_they_are_built(capsys):
    # |G|^2 = 1600 entries; the sweet commands read group:N through the
    # same constructor
    assert refused(capsys, ["tensor", "make", "group", "--orders", "40",
                            "--max-entries", "1000"])
    assert refused(capsys, ["sweet", "tight", "--tensor", "group:40",
                            "--blocking", "cw", "--max-entries", "1000"])


def test_algebras_are_refused_before_they_are_built(capsys, monkeypatch,
                                                   tmp_path):
    # about 2 * 10^6 unit entries, which took seconds to build
    from apolarium import tensor3
    built = []
    monkeypatch.setattr(tensor3, "Tensor3", lambda *a: built.append(a))
    slices = tmp_path / "s.json"
    slices.write_text(json.dumps({"slices": [[["1", "0"], ["0", "1"]]]}))
    assert refused(capsys, ["tensor", "make", "atk", "--slices", f"@{slices}",
                            "--k", "1000000", "--max-entries", "1000"])
    assert built == []


@pytest.mark.parametrize("argv", [
    # the first ran 16.8 s and exited 0 with a report of 95 MB; the others
    # built for seconds, or to the end, before any refusal
    ["sweet", "zero-layers", "--tensor", "cw:300000", "--axis", "1",
     "--max-entries", "1000"],
    ["tensor", "make", "cw", "--n", "300000", "--max-entries", "1000"],
    ["tensor", "make", "onegen", "--tensor", "cw:3", "--k", "300000",
     "--max-entries", "1000"],
    ["tensor", "make", "ts", "--tensor", "cw:120", "--max-entries", "1000"],
    ["apolar-dim", "(x1+x2+x3+x4+x5+x6)^30", "--max-degree", "10"],
])
def test_constructions_are_refused_before_they_are_built(capsys, argv):
    assert refused(capsys, argv)


def test_degree_guard_exits_three(capsys):
    assert run(["apolar-dim", "(x1 + x2)^40", "--max-degree", "10"]) == 3


def refused(capsys, argv):
    """A guard refusal: exit 3, nothing on stdout, the reason on stderr."""
    code = run(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, ""), captured.err
    return "exceeds" in captured.err


@pytest.mark.parametrize("argv", [
    ["tensor", "make", "algebra", "--form", "x1^2+x2", "--max-entries", "2"],
    ["sweet", "zero-layers", "--tensor", "apolar:x1^2+x2", "--axis", "1",
     "--max-entries", "2"],
])
def test_apolar_algebras_are_refused_before_they_are_solved(capsys,
                                                            monkeypatch, argv):
    # the algebra of x1^2 + x2 has dimension 3, charged by the library
    # whichever way the command reaches it, before the gram matrix is solved
    from apolarium import apolar
    solved = []
    monkeypatch.setattr(apolar, "solve_many",
                        lambda *a: solved.append(a))
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "resource guard: entry count 3 exceeds limit 2\n")
    assert solved == []


def test_main_thm_degree_guard_exits_three(capsys):
    # the twisted cube has degree 6 > 3
    assert refused(capsys, ["verify-main-thm", "--d", "3", "--max-degree", "3",
                            "x0*x1*x2"])


def test_growth_degree_guard_exits_three(capsys):
    # dmax defaults to the degree 2, and the square has degree 4 > 2
    assert refused(capsys, ["growth", "--max-degree", "2", "x1^2 + x2"])


def test_growth_ceiling_guard_refuses_before_the_power_is_built(
        capsys, partials_builds):
    # binom(3 + 3 - 1, 3) = 10 > 9: x1^2 and x1^4 are ranked, x1^6 is not
    assert refused(capsys, ["growth", "x1^2", "--dmax", "3",
                            "--max-terms", "9"])
    assert partials_builds == [(0, 1), (0, 2)]


def test_encompass_check_builds_the_partials_once(capsys, partials_builds):
    # the flags, the dimension, conciseness and the gradient probe all read
    # one greedy basis
    report(capsys, ["encompass-check", "x1^3 + x2^3"])
    assert partials_builds == [(0, 3)]


def test_main_thm_guards_run_before_assumptions(capsys, monkeypatch):
    import apolarium.encompass as encompass

    def boom(f):
        raise AssertionError("assumption checked before the guards")
    monkeypatch.setattr(encompass, "is_concise", boom)
    monkeypatch.setattr(encompass, "is_encompassing", boom)
    assert refused(capsys, ["verify-main-thm", "--d", "4", "--max-degree", "8",
                            "x0*x1*x2"])
    assert refused(capsys, ["verify-main-thm", "--d", "4", "--max-terms", "10",
                            "x0*x1*x2"])


def test_zero_limits_are_honoured(capsys):
    assert refused(capsys, ["tensor", "kron", "--tensor", "cw:3", "--power",
                            "2", "--max-entries", "0"])
    assert refused(capsys, ["apolar-dim", "x1 + x2", "--max-terms", "0"])
    assert refused(capsys, ["apolar-dim", "x1", "--max-degree", "0"])


# The small cases come first: without the guard they reach the spies at
# once, where the large ones would first build their whole space.
def test_partials_size_guard_refuses_before_computing(capsys,
                                                      no_library_work):
    assert refused(capsys, ["hilbert", "x1*x2*x3", "--max-terms", "7"])
    assert refused(capsys, ["tensor", "make", "algebra", "--form",
                            "*".join(f"x{i}" for i in range(1, 10)),
                            "--max-terms", "7"])
    product24 = "*".join(f"x{i}" for i in range(1, 25))  # bound 2^24
    assert refused(capsys, ["apolar-dim", product24])
    assert refused(capsys, ["hilbert", product24])


@pytest.mark.parametrize("argv, count", [
    (["hilbert", "x1*x2*x3", "--max-terms", "7"], 8),
    (["apolar-dim", "x1*x2*x3", "--max-terms", "7"], 8),
    (["encompass-check", "x1^3 + x2^3", "--max-terms", "7"], 8),
    (["extend", "x1^3 + x2^3", "--max-terms", "7"], 8),
    # 3 operators of degree <= 1, the whole ladder of 4 + 4 cells
    (["annihilator", "x1^3 + x2^3", "--degree", "1", "--max-terms", "7"], 8),
    (["tensor", "make", "algebra", "--form", "x1*x2*x3", "--max-terms",
      "7"], 8),
])
def test_whole_ladder_builds_are_charged_before_any_work(
        capsys, no_library_work, argv, count):
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", (
        f"resource guard: partials dimension bound {count} exceeds limit "
        f"{argv[-1]}\n"))


def test_one_order_is_charged_its_cells_before_they_are_built(
        capsys, monkeypatch):
    # Cat_1 of x1*x2*x3 has 3 cells: x2 and x3 in the slab b_0 = 1, which
    # fits the cap and is read, and x1 in the slab b_0 = 0, refused before
    # it is built
    charges = spy_cells_built(monkeypatch)
    counts = spy_rows_read(monkeypatch)
    assert run(["cat-rank", "x1*x2*x3", "--k", "1", "--max-terms", "2"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "resource guard: partials dimension bound 3 exceeds limit 2\n")
    assert (charges, counts) == ([2], [2])


def test_a_term_past_the_default_cap_is_refused_unbuilt(capsys, monkeypatch):
    # the one term of x1*...*x24 has binom(23, 12) = 1,352,078 cells of
    # order 12 with x1 in b, the first call of its stream: refused before
    # any is built
    charges = spy_cells_built(monkeypatch)
    product24 = "*".join(f"x{i}" for i in range(1, 25))
    assert run(["cat-rank", product24, "--k", "12"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", (
        "resource guard: partials dimension bound 1352078 exceeds limit "
        "1000000\n"))
    assert charges == []


def test_the_main_theorem_runs_under_a_cap_below_its_whole_order(capsys):
    # Cat_4 of twist(BIG_CUBIC^4, x0) has 1,611 cells; its rank certifies
    # on the 444 of its first 126 columns
    doc = report(capsys, ["verify-main-thm", BIG_CUBIC, "--var", "x0",
                          "--d", "4", "--max-terms", "1000"])
    assert (doc["outputs"]["rank"], doc["outputs"]["equal"]) == (126, True)


def test_encompass_and_extend_refuse_large_partials_spaces(capsys,
                                                           no_library_work):
    for command in ("encompass-check", "extend"):  # bound 8
        assert refused(capsys, [command, "x1^3 + x2^3", "--max-terms", "7"])
    product22 = "*".join(f"x{i}" for i in range(1, 23))  # bound 2^22
    assert refused(capsys, ["encompass-check", product22])
    assert refused(capsys, ["extend", product22])


def test_annihilator_operator_space_guard_refuses_before_computing(
        capsys, no_library_work):
    # binom(3 + 4, 4) = 35 operators of degree <= 4
    assert refused(capsys, ["annihilator", "x1*x2*x3", "--max-terms", "34"])
    assert refused(capsys, ["verify-taut", "x0*x1*x2*x3", "--max-terms", "34"])
    assert refused(capsys, ["annihilator", "x1*x2*x3", "--degree", "5",
                            "--max-terms", "35"])
    assert refused(capsys, ["verify-taut", "x0*x1*x2", "--bound", "5",
                            "--max-degree", "4"])
    # binom(12 + 13, 13) = 5,200,300 operators of degree <= 13
    assert refused(capsys, ["annihilator",
                            "*".join(f"x{i}" for i in range(1, 13))])
    assert refused(capsys, ["verify-taut",
                            "*".join(f"x{i}" for i in range(0, 13))])


def test_annihilator_operator_space_guard_admits_small_spaces(capsys):
    doc = report(capsys, ["annihilator", "x1*x2*x3", "--max-terms", "35"])
    assert doc["outputs"]["count"] == 35 - 8
    doc = report(capsys, ["verify-taut", "x0*x1*x2*x3", "--max-terms", "35"])
    assert doc["outputs"]["all_pass"] is True


def test_partials_size_guard_admits_small_spaces(capsys):
    product9 = "*".join(f"x{i}" for i in range(1, 10))  # bound 512
    doc = report(capsys, ["apolar-dim", product9, "--max-terms", "512"])
    assert doc["outputs"]["dim"] == 512
    doc = report(capsys, ["hilbert", "x1*x2*x3", "--max-terms", "8"])
    assert doc["outputs"]["hilbert_function"] == [1, 3, 3, 1]
    doc = report(capsys, ["cat-rank", "x1*x2*x3", "--k", "1",
                          "--max-terms", "3"])
    assert doc["outputs"]["rank"] == 3


def test_paper_suite_entries_honour_the_guard_flags(capsys):
    # sp_extract inside the entry charges 2^3 index sequences per axis and
    # 3^3 entry combinations
    argv = ["paper-suite", "--only", "sp-disjointness-tensor"]
    assert refused(capsys, argv + ["--max-entries", "5"])
    assert report(capsys, argv + ["--max-entries", "27"])["outputs"][
        "summary"]["passed"] == 1


def test_paper_suite_honours_the_partials_guard(capsys):
    argv = ["paper-suite", "--only", "apolar-dim-product-of-linears"]
    assert refused(capsys, argv + ["--max-terms", "511"])
    assert report(capsys, argv + ["--max-terms", "512"])["outputs"][
        "summary"]["passed"] == 1


def test_entry_guard_env_var(capsys, monkeypatch):
    monkeypatch.setenv("APOLARIUM_MAX_ENTRIES", "100")
    assert run(["tensor", "kron", "--tensor", "cw:4", "--power", "9"]) == 3
    # the explicit flag wins over the environment
    monkeypatch.setenv("APOLARIUM_MAX_ENTRIES", "1")
    assert run(["tensor", "kron", "--tensor", "cw:3", "--power", "2",
                "--max-entries", "100000"]) == 0


def test_reports_are_deterministic(capsys):
    argv = ["sweet", "extract", "--tensor", "tb", "--blocking",
            "weights:0,1", "--dist", "uniform", "--power", "3"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_human_mode(capsys):
    assert run(["apolar-dim", "--human", "x1^2 + x2^2"]) == 0
    out = capsys.readouterr().out
    assert "dim" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_seed_recorded(capsys):
    doc = report(capsys, ["encompass-check", "--seed", "7", "x1^2 + x2"])
    assert doc["seed"] == 7


def test_module_entry_point():
    proc = _python("-m", "apolarium", "sweet", "pratt", "--k", "1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["outputs"]["bound"] == 4
