"""Golden reports of the command line.

Each case runs ``cli.run`` in process and compares its exit code, its whole
stdout and the first line of its stderr with ``golden/cli.json``.  Every
non-help case runs twice, as JSON and with ``--human``; every parser level
is also asked for its ``-h`` text at ``COLUMNS=80``.

Regenerate the data from a checkout with

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""
from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from apolarium import cli

GOLDEN = Path(__file__).with_name("golden") / "cli.json"
DATA = str(GOLDEN.parent)

QUADRIC = "x0*x3 + x1^2 + x2^2"
CUBIC5 = ("x3^3 + x1*x2*x4 + x3*x4^2 + x2^2*x5 + x2*x3*x5 + x1*x5^2"
          " + x5^3")
CHIMNEY = ["sweet", "chimney", "--tensor", "cw:3", "--blocking", "cw",
           "--dist", "large", "--power"]

# (argv, environment); {data} stands for the directory of the golden data
CASES = [
    # polynomial commands: the README's list, then exit 1, 2 and 3
    (["apolar-dim", "x1*x2*x3*x4*x5*x6*x7*x8*x9"], {}),
    (["hilbert", CUBIC5], {}),
    (["hilbert", "(x1^2 + x2)^2"], {}),
    (["annihilator", "x1^2 + x2", "--degree", "2"], {}),
    (["annihilator", "x1*x2*x3"], {}),
    (["cat-rank", QUADRIC, "--k", "1"], {}),
    (["cat-rank", f"({QUADRIC})^2", "--max"], {}),
    (["cat-rank", "(x0^3 + x1^3)^2", "--max"], {}),
    (["cat-rank", "x1*x2*x3", "--max", "--k", "1"], {}),
    (["twist", "x0^2*x1 + x0*x2^2", "--var", "x0"], {}),
    (["twist", "x0^2*x1 + x0*x2^2"], {}),
    (["encompass-check", "x1^3 + x2^3"], {}),
    (["encompass-check", "x1^2 + x2", "--seed", "7"], {}),
    (["growth", "x1^2 + x2", "--dmax", "3"], {}),
    (["extend", "x1^3 + x2^3"], {}),
    (["extend", "x1^3 + x2^3", "--sigma", "x1^2 + x2^2",
      "--sigma", "x1*x2 + x2^2", "--sigma", "x1^3"], {}),
    (["verify-taut", QUADRIC, "--var", "x0"], {}),
    (["verify-taut", "x0*x1^2 + x0^2*x2", "--untwisted"], {}),
    (["verify-main-thm", QUADRIC, "--var", "x0", "--d", "3"], {}),
    (["verify-main-thm", "x0^2 + x1^2 + 0*x2", "--d", "2"], {}),
    (["apolar-dim", "x1 +"], {}),
    (["apolar-dim"], {}),
    (["cat-rank", "x1^2"], {}),
    (["cat-rank", "x1^2 + x2", "--max"], {}),
    (["twist", "x1^2 + x2", "--var", "zz"], {}),
    (["verify-main-thm", "x0*x1"], {}),
    (["no-such-command"], {}),
    (["apolar-dim", "(x1 + x2)^40", "--max-degree", "10"], {}),
    (["apolar-dim", "x1 + x2", "--max-terms", "0"], {}),
    (["hilbert", "x1*x2*x3", "--max-terms", "7"], {}),
    (["annihilator", "x1*x2*x3", "--max-terms", "34"], {}),
    (["annihilator", "x1*x2*x3", "--degree", "5", "--max-terms", "35"], {}),
    (["cat-rank", "x1*x2", "--k", "1", "--max-terms", "0"], {}),
    (["twist", "x1^3", "--max-degree", "2"], {}),
    (["encompass-check", "x1^3 + x2^3", "--max-terms", "7"], {}),
    (["growth", "x1^2 + x2", "--max-degree", "2"], {}),
    (["extend", "x1^3 + x2^3", "--max-terms", "7"], {}),
    (["verify-taut", "x0*x1*x2*x3", "--max-terms", "34"], {}),
    (["verify-main-thm", "x0*x1*x2", "--d", "3", "--max-degree", "3"], {}),
    (["verify-main-thm", "x0*x1*x2", "--d", "4", "--max-terms", "10"], {}),
    # tensor commands
    (["tensor", "make", "cw", "--n", "5"], {}),
    (["tensor", "make", "group", "--orders", "2x2"], {}),
    (["tensor", "make", "algebra", "--form", "x1^2 + x2"], {}),
    (["tensor", "make", "ts", "--tensor", "tb"], {}),
    (["tensor", "make", "atk", "--slices", "@{data}/slices.json",
      "--k", "2"], {}),
    (["tensor", "make", "onegen", "--tensor", "cw:3", "--k", "1"], {}),
    (["tensor", "make", "onegen", "--tensor", "apolar:x1^2 + x2^2"], {}),
    (["tensor", "kron", "--tensor", "tb", "--power", "2"], {}),
    (["tensor", "kron", "--tensor", "tb", "-N", "2", "--full"], {}),
    (["tensor", "make", "cw"], {}),
    (["tensor", "make", "atk", "--slices", "@missing.json"], {}),
    (["tensor", "make", "onegen", "--tensor", "wat:3"], {}),
    (["tensor", "kron", "--tensor", "cw:4", "--power", "9",
      "--max-entries", "1000"], {}),
    (["tensor", "make", "cw", "--n", "5", "--max-entries", "4"], {}),
    (["tensor", "make", "algebra", "--form", "x1^30", "--max-degree",
      "20"], {}),
    (["tensor", "kron", "--tensor", "cw:4", "--power", "9"],
     {"APOLARIUM_MAX_ENTRIES": "100"}),
    (["tensor", "kron", "--tensor", "cw:3", "--power", "2",
      "--max-entries", "100000"], {"APOLARIUM_MAX_ENTRIES": "1"}),
    # sweet commands
    (["sweet", "support", "--tensor", "cw:4", "--blocking", "cw"], {}),
    (["sweet", "tight", "--tensor", "cw:4", "--blocking", "cw"], {}),
    (["sweet", "tight", "--tensor", "group:3", "--blocking", "cw"], {}),
    (["sweet", "marginals", "--tensor", "cw:3", "--blocking", "cw",
      "--dist", "large"], {}),
    (["sweet", "extract", "--tensor", "tb", "--blocking", "weights:0,1",
      "--dist", "uniform", "--power", "3"], {}),
    (["sweet", "extract", "--tensor", "group:3", "--blocking", "cw",
      "--dist", "large", "--power", "3", "--allow-nontight"], {}),
    (CHIMNEY + ["3", "--fixed", "1,2"], {}),
    (CHIMNEY + ["3", "--fixed", "1,3"], {}),
    (["sweet", "degenerate", "--tensor", "group:3",
      "--blocking", "weights:0,1,2", "--weights", "cwdeg"], {}),
    (["sweet", "zero-layers", "--tensor", "cw:3", "--axis", "3"], {}),
    (["sweet", "bound", "--ambient-dim", "27", "--zero-layers", "23",
      "--family", "group-power"], {}),
    (["sweet", "bound", "--ambient-dim", "8", "--zero-layers", "4",
      "--assert-minimal-rank"], {}),
    (["sweet", "pratt", "--k", "2"], {}),
    (["sweet", "pratt", "--k", "5"], {}),
    (["sweet", "omega", "--a", "2", "--r", "8", "--p", "1"], {}),
    (["sweet", "veronese", "--dims", "1,9,36,84,126,126,84,36,9,1",
      "--k", "3"], {}),
    (["sweet", "tight", "--tensor", "wat:9", "--blocking", "cw"], {}),
    (["sweet", "bound", "--ambient-dim", "8", "--zero-layers", "4"], {}),
    (["sweet", "extract", "--tensor", "group:3", "--blocking", "cw",
      "--dist", "large", "--power", "3"], {}),
    (["sweet", "zero-layers", "--tensor", "cw:3", "--axis", "4"], {}),
    (["sweet", "marginals", "--tensor", "cw:3", "--blocking", "cw",
      "--dist", "point:99"], {}),
    (["sweet", "pratt"], {}),
    (CHIMNEY + ["9"], {}),
    (["sweet", "extract", "--tensor", "tb", "--blocking", "weights:0,1",
      "--dist", "uniform", "--power", "3", "--max-entries", "5"], {}),
    (["sweet", "support", "--tensor", "apolar:x1^30", "--blocking", "cw",
      "--max-degree", "20"], {}),
    # the reference suite
    (["paper-suite"], {}),
    (["paper-suite", "--only", "main-theorem-rank-equalities"], {}),
    (["paper-suite", "--only", "not-a-real-entry"], {}),
    (["paper-suite", "--only", "sp-disjointness-tensor"],
     {"APOLARIUM_MAX_ENTRIES": "5"}),
]

HELP = [[], ["tensor"], ["sweet"],
        ["apolar-dim"], ["hilbert"], ["annihilator"], ["cat-rank"],
        ["twist"], ["encompass-check"], ["growth"], ["extend"],
        ["verify-taut"], ["verify-main-thm"],
        ["tensor", "make"], ["tensor", "kron"],
        ["sweet", "support"], ["sweet", "tight"], ["sweet", "marginals"],
        ["sweet", "extract"], ["sweet", "chimney"], ["sweet", "degenerate"],
        ["sweet", "zero-layers"], ["sweet", "bound"], ["sweet", "pratt"],
        ["sweet", "omega"], ["sweet", "veronese"], ["paper-suite"]]


def _runs():
    """(key, argv, environment) of every golden run."""
    for argv, env in CASES:
        for extra in ([], ["--human"]):
            run = argv + extra
            yield " ".join(run), run, env
    for path in HELP:
        run = path + ["-h"]
        yield " ".join(run), run, {}


def _record(argv, env) -> dict:
    """Exit code, stdout and the first stderr line of one in-process run,
    with only env's apolarium settings in the environment."""
    saved = {k: os.environ.get(k) for k in ("APOLARIUM_MAX_ENTRIES",
                                            "COLUMNS")}
    os.environ.pop("APOLARIUM_MAX_ENTRIES", None)
    os.environ.update(env, COLUMNS="80")
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.run([a.replace("{data}", DATA) for a in argv])
            except SystemExit as exc:
                code = exc.code
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return {"code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue().partition("\n")[0]}


RUNS = list(_runs())


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_data_covers_every_run(golden):
    assert sorted(golden) == sorted(key for key, _, _ in RUNS)


@pytest.mark.parametrize("key,argv,env", RUNS, ids=[k for k, _, _ in RUNS])
def test_cli_matches_golden(golden, key, argv, env):
    assert _record(argv, env) == golden[key]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({key: _record(argv, env)
                                  for key, argv, env in RUNS},
                                 indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
