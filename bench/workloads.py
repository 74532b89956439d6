"""Seeded certification workloads and their reference answers.

Every task returns a small dict of plain values extracted from the library's
result; the task's ``expected`` dict is written down from closed forms and
hand-derived counts, never from an earlier run of this library.  A task
passes when the two dicts are equal.

The seed only moves inputs along symmetries that leave every reference answer
unchanged:

* polynomial tasks get a unimodular change of coordinates (a signed
  permutation and one elementary shear); for the twisted tasks the
  change fixes ``x0``, so twisting and dehomogenizing commute with it;
* tensor tasks get a permutation of each axis's indices, carried into the
  blocking, and a nonzero rational rescaling of every entry.

The untouched reference inputs run in every pass as well, so each pass
certifies the published numbers and one seeded variant of them.
"""

from __future__ import annotations

import io
import json
import math
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional

import apolarium.cli as cli
from apolarium import apolar, encompass, papersuite, sweet, tensor3
from apolarium.poly import Poly, format_poly, parse

CW_LARGE = [((0,), (1,), (-1,)), ((1,), (0,), (-1,)), ((1,), (1,), (-2,))]


@dataclass
class Task:
    """One call into the library with its reference answer.

    ``run`` returns the answer dict.  ``run_inprocess``, set when ``run``
    starts a child process (the CLI tasks), gives the same answer from
    inside this process; the traced run uses it.
    ``inputs`` describes the generated input, so that two seeds can be
    compared.
    """
    name: str
    run: Callable[[], dict]
    expected: dict
    inputs: str
    run_inprocess: Optional[Callable[[], dict]] = None


def check(task: Task, answer: dict) -> bool:
    return answer == task.expected


# -- seeded transformations ----------------------------------------------------


def unimodular(n: int, rng: random.Random) -> List[List[int]]:
    """A signed permutation matrix with one row sheared by +-1 times another:
    an integer matrix of determinant +-1.  Larger shears make the cost of the
    seeded tasks vary more from seed to seed."""
    perm = list(range(n))
    rng.shuffle(perm)
    g = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        g[i][j] = rng.choice((-1, 1))
    c = rng.choice((-1, 1))
    g[0] = [a + c * b for a, b in zip(g[0], g[1])]
    return g


def _linear_forms(vars: tuple, names: List[str], g: List[List[int]]) -> List[Poly]:
    out = []
    for row in g:
        terms = {}
        for name, a in zip(names, row):
            if a:
                e = [0] * len(vars)
                e[vars.index(name)] = 1
                terms[tuple(e)] = a
        out.append(Poly(vars, terms))
    return out


def change_coordinates(F: Poly, names: List[str], g: List[List[int]]) -> Poly:
    """Substitute names[i] -> sum_j g[i][j] * names[j]; other variables stay."""
    forms = dict(zip((F.vars.index(v) for v in names),
                     _linear_forms(F.vars, names, g)))
    out = Poly.zero(F.vars)
    for e, c in F.terms.items():
        term = Poly.const(F.vars, c)
        for k, x in enumerate(e):
            if x:
                base = forms.get(k)
                if base is None:
                    base = Poly.monomial(F.vars, [int(q == k) for q in range(len(e))])
                term = term * base ** x
        out = out + term
    return out


def _random_scale(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 4))


# -- catalecticant -------------------------------------------------------------


def _main_theorem_answer(F: Poly, d: int) -> dict:
    rep = encompass.verify_main_theorem(F, "x0", d)
    return {"rank": rep.rank, "expected": rep.expected, "equal": rep.equal,
            "assumptions": dict(rep.assumptions)}


def _main_theorem_reference(nvars: int, d: int) -> dict:
    target = math.comb(nvars - 1 + d, d)
    return {"rank": target, "expected": target, "equal": True,
            "assumptions": {"homogeneous": True,
                            "dehomogenization_nonzero": True,
                            "concise": True,
                            "encompassing_dehomogenization": True}}


def catalecticant_tasks(seed: int) -> List[Task]:
    rng = random.Random(seed)
    F = parse(papersuite.BIG_CUBIC)
    others = [v for v in F.vars if v != "x0"]
    G = change_coordinates(F, others, unimodular(len(others), rng))
    tasks = [Task(f"main-thm d={d}", lambda d=d: _main_theorem_answer(F, d),
                  _main_theorem_reference(len(F.vars), d), format_poly(F))
             for d in (2, 3, 4)]
    tasks.append(Task("main-thm d=3 seeded", lambda: _main_theorem_answer(G, 3),
                      _main_theorem_reference(len(G.vars), 3), format_poly(G)))
    return tasks


# -- partials ------------------------------------------------------------------


def _hilbert(f: Poly) -> dict:
    return {"hilbert": list(apolar.hilbert_function(f).values)}


def _structure_answer(f: Poly) -> dict:
    T, basis = apolar.structure_tensor_of_apolar(f)
    ell = len(basis)
    E = T.entries
    commutative = all(E.get((i, j, k)) == E.get((j, i, k)) for (i, j, k) in E)
    # The basis starts with the constant operator, which must act as the unit.
    unit = all(E.get((0, j, k), 0) == (j == k)
               for j in range(ell) for k in range(ell))
    return {"dims": list(T.dims), "commutative": commutative, "unit": unit}


def partials_tasks(seed: int) -> List[Task]:
    rng = random.Random(seed)
    prod9 = parse("*".join(f"x{i}" for i in range(1, 10)))
    names8 = [f"x{i}" for i in range(1, 9)]
    forms = _linear_forms(tuple(names8), names8, unimodular(8, rng))
    prod8 = Poly.const(tuple(names8), 1)
    for L in forms:
        prod8 = prod8 * L
    E = parse(papersuite.EX49_CUBIC)
    ell = 12  # apolar dimension of EX49_CUBIC, a form in 5 variables
    return [
        Task("hilbert x1*...*x9", lambda: _hilbert(prod9),
             {"hilbert": [math.comb(9, i) for i in range(10)]}, format_poly(prod9)),
        Task("apolar_dim x1*...*x9", lambda: {"dim": apolar.apolar_dim(prod9)},
             {"dim": 2 ** 9}, format_poly(prod9)),
        Task("hilbert product of 8 linear forms seeded", lambda: _hilbert(prod8),
             {"hilbert": [math.comb(8, i) for i in range(9)]}, format_poly(prod8)),
        Task("apolar_dim EX49^3", lambda: {"dim": apolar.apolar_dim(E ** 3)},
             {"dim": 242}, format_poly(E)),
        Task("hilbert EX49^2", lambda: _hilbert(E ** 2),
             {"hilbert": [1, 5, 15, 25, 15, 5, 1]}, format_poly(E)),
        Task("annihilator_upto EX49",
             lambda: {"count": len(apolar.annihilator_upto(E))},
             {"count": math.comb(5 + 4, 4) - ell}, format_poly(E)),
        Task("structure_tensor EX49", lambda: _structure_answer(E),
             {"dims": [ell] * 3, "commutative": True, "unit": True},
             format_poly(E)),
    ]


# -- sweet ---------------------------------------------------------------------


def permuted_rescaled_cw(n: int, rng: random.Random):
    """cw(n) with each axis's indices permuted and every entry rescaled;
    returns the tensor, the matching blocking and the scale of each entry of
    cw(n) (keyed by its unpermuted index)."""
    T = tensor3.cw(n)
    B = sweet.cw_blocking(n)
    perms = []
    for _ in range(3):
        p = list(range(n))
        rng.shuffle(p)
        perms.append(p)
    scales = {idx: _random_scale(rng) for idx in sorted(T.entries)}
    entries = {tuple(perms[a][idx[a]] for a in range(3)): c * scales[idx]
               for idx, c in T.entries.items()}
    labels = []
    for a in range(3):
        ax = [None] * n
        for i in range(n):
            ax[perms[a][i]] = B.label(a, i)
        labels.append(ax)
    return tensor3.Tensor3(T.dims, entries), sweet.Blocking(labels), scales


def _cw_large_block_sums(n: int, scales: Dict[tuple, Fraction]) -> Fraction:
    """Product over the three large blocks of cw(n) of the sum of the
    absolute scales of their entries."""
    mid = range(1, n - 1)
    blocks = ([(0, i, i) for i in mid], [(i, 0, i) for i in mid],
              [(i, i, n - 1) for i in mid])
    return math.prod(sum(abs(scales[idx]) for idx in block) for block in blocks)


def _sweet_answer(T, B, P, N: int, block_sums: Fraction) -> dict:
    sp = sweet.sp_extract(T, B, P, N)
    total = sum(map(abs, sp.tensor.entries.values()), Fraction(0))
    return {"dims": list(sp.tensor.dims), "nnz": len(sp.tensor.entries),
            "p_T": sp.p_T, "abs_sum_over_blocks": total / block_sums ** 2}


def _sweet_reference(n: int, N: int) -> dict:
    # Only the three large blocks survive, each used N/3 times; the middle
    # label class has n-2 indices on every axis.  Each kept word of entries
    # gives its own entry, so the absolute values sum to the number of block
    # arrangements times the squared block sums.
    third = N // 3
    arrangements = math.factorial(N) // math.factorial(third) ** 3
    kept = math.comb(N, third) * (n - 2) ** (N - third)
    return {"dims": [kept] * 3, "nnz": arrangements * (n - 2) ** N,
            "p_T": math.comb(N, third), "abs_sum_over_blocks": arrangements}


def _chimney_answer(T, B, P, N: int) -> dict:
    C = sweet.chimney(T, B, P, N)
    return {"dims": list(C.dims), "nnz": len(C.entries),
            "zero_layers": sweet.zero_layers(C, 2)}


def _kron_answer(T, N: int) -> dict:
    K = tensor3.kronecker_power(T, N)
    return {"dims": list(K.dims), "nnz": len(K.entries),
            "all_ones": all(v == 1 for v in K.entries.values())}


def sweet_tasks(seed: int) -> List[Task]:
    rng = random.Random(seed)
    N = 6
    P = sweet.BlockDistribution(CW_LARGE, [Fraction(1, 3)] * 3)
    cw4, cw3 = tensor3.cw(4), tensor3.cw(3)
    B4, B3 = sweet.cw_blocking(4), sweet.cw_blocking(3)
    unit_sums = _cw_large_block_sums(4, {idx: Fraction(1) for idx in cw4.entries})
    T4s, B4s, scales = permuted_rescaled_cw(4, rng)
    seeded_sums = _cw_large_block_sums(4, scales)
    return [
        Task("sp_extract cw(4) N=6",
             lambda: _sweet_answer(cw4, B4, P, N, unit_sums),
             _sweet_reference(4, N), cw4.to_json()),
        # cw(3), N=6: kept sequences on the fixed axes are the C(6,2) = 15
        # arrangements of two 0-labels; entries are the words in the blocks
        # (0,0), (0,1), (1,0), (1,1) with two 0s on each fixed axis:
        # 6!/(2!2!2!) + 6!/(1!1!1!3!) + 6!/(2!4!) = 90 + 120 + 15.  Only 90
        # distinct free-axis sequences are hit, out of 3^6.
        Task("chimney cw(3) N=6", lambda: _chimney_answer(cw3, B3, P, N),
             {"dims": [15, 15, 3 ** 6], "nnz": 225, "zero_layers": 3 ** 6 - 90},
             cw3.to_json()),
        Task("kronecker_power cw(3) N=6", lambda: _kron_answer(cw3, N),
             {"dims": [3 ** 6] * 3, "nnz": 6 ** 6, "all_ones": True},
             cw3.to_json()),
        Task("sp_extract cw(4) N=6 seeded",
             lambda: _sweet_answer(T4s, B4s, P, N, seeded_sums),
             _sweet_reference(4, N), T4s.to_json() + B4s.to_json()),
    ]


# -- cli -----------------------------------------------------------------------


def run_cli_child(argv: List[str], env: dict) -> tuple:
    """Run ``python -m apolarium ARGV``; returns (exit code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "apolarium", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_inprocess(argv: List[str]) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _suite_answer(code: int, stdout: str, stderr: str) -> dict:
    doc = json.loads(stdout)["outputs"]
    s = doc["summary"]
    return {"exit": code, "reported_entries": len(doc["entries"]),
            "summary": [s["total"], s["passed"], s["failed"], s["informational"]],
            "values": {e["id"]: e["values"] for e in doc["entries"]
                       if e["id"] == "cw-support-size"}}


def _outputs_answer(keys: List[str]) -> Callable[[int, str, str], dict]:
    def extract(code: int, stdout: str, stderr: str) -> dict:
        out = json.loads(stdout)["outputs"]
        return {"exit": code, **{k: out[k] for k in keys}}
    return extract


def _refusal_answer(code: int, stdout: str, stderr: str) -> dict:
    return {"exit": code, "stdout": stdout,
            "guard": stderr.startswith("resource guard:")}


def cli_tasks(env: dict) -> List[Task]:
    # The CLI tasks have no seeded form: they certify the published commands
    # exactly as a user types them.
    cw_sizes = {"ok": True, "support_sizes": {"n=3": 6, "n=4": 9, "n=5": 12}}
    chimney = ["sweet", "chimney", "--tensor", "cw:3", "--blocking", "cw",
               "--dist", "large", "--power"]
    specs = [
        ("paper-suite", ["paper-suite"], _suite_answer,
         {"exit": 0, "reported_entries": 31, "summary": [31, 27, 0, 4],
          "values": {"cw-support-size": cw_sizes}}),
        ("paper-suite --only", ["paper-suite", "--only", "cw-support-size"],
         _suite_answer,
         {"exit": 0, "reported_entries": 1, "summary": [1, 1, 0, 0],
          "values": {"cw-support-size": cw_sizes}}),
        ("verify-main-thm d=3",
         ["verify-main-thm", papersuite.BIG_CUBIC, "--var", "x0", "--d", "3"],
         _outputs_answer(["rank", "expected", "equal"]),
         {"exit": 0, "rank": 56, "expected": 56, "equal": True}),
        ("apolar-dim x1*x2*x3", ["apolar-dim", "x1*x2*x3"],
         _outputs_answer(["dim", "concise"]),
         {"exit": 0, "dim": 8, "concise": True}),
        ("sweet chimney N=6", chimney + ["6"],
         _outputs_answer(["dims", "nnz", "zero_layers"]),
         {"exit": 0, "dims": [15, 15, 729], "nnz": 225, "zero_layers": 639}),
        # 6^9 entry combinations exceed the default 10^7 entry guard.
        ("sweet chimney N=9 refused", chimney + ["9"], _refusal_answer,
         {"exit": 3, "stdout": "", "guard": True}),
    ]
    return [Task(name,
                 lambda argv=argv, ex=ex: ex(*run_cli_child(argv, env)),
                 expected, " ".join(argv),
                 run_inprocess=lambda argv=argv, ex=ex: ex(*run_cli_inprocess(argv)))
            for name, argv, ex, expected in specs]


def build(workload: str, seed: int, env: dict) -> List[Task]:
    """The workload's tasks for this seed; env is the environment of the
    child processes the CLI tasks start."""
    if workload == "catalecticant":
        return catalecticant_tasks(seed)
    if workload == "partials":
        return partials_tasks(seed)
    if workload == "sweet":
        return sweet_tasks(seed)
    if workload == "cli":
        return cli_tasks(env)
    raise ValueError(f"unknown workload {workload!r}")
