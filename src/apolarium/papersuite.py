"""Built-in reference suite: the worked examples behind the package.

Each entry recomputes one telling example from scratch and either asserts the
expected value (kind "assert") or reports two computations side by side
without taking sides (kind "info").  Entry ids double as the provenance
strings the command-line reports carry.

run_suite() executes every entry, or only the chosen ids, and assembles an
order-stable summary of what ran (entries sorted by id).  Entries are
independent and pure: the growth entries of one run_suite() call read one
table of growth rows, built per polynomial as they first ask for it, which
does not change what any of them returns.

The module imports no library module when it is loaded: each entry, and the
growth rows of ``run_suite``, import the names they call, so
``paper-suite --only cw-support-size`` loads ``tensor3`` and none of
``poly``, ``apolar``, ``encompass``, ``exact`` and ``sweet``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Collection, Dict, List, Optional, Tuple

# Forms used by the property-style entries.  All are exercised elsewhere in
# the test suite as well; the suite keeps them small enough to run in seconds.

TAUT_CORPUS: List[str] = [
    "x0^2*x2 + x0*x1^2",
    "x0*x1 + x1^2",
    "x0^3 + x1^3",
    "(x0^2 + x1*x2)^2",
    "x0*x1*x2",
    "x0^2*x1 + x1^2*x2",
    "x0*x3 + x1^2 + x2^2",
    "x0^4 + x0*x1^3",
    "x1^3 + x0*x1*x2",
    "x0^2*x2^2 + x1^4",
    "(x0^3 + x1^3)^2",
]

ENCOMPASS_CORPUS: List[str] = [
    "x1^2",
    "x1^2 + x2",
    "x1*x2",
    "x1^3",
    "x1^3 + x2",
    "x1^2 + x2^2",
    "x1^2 + x1*x2 + x2^3",
    "x1*x2 + x1^3",
    "x1^2*x2",
    "x1^3 + x2^3",
    "x1^2 + x2^3",
    "x1*x2*x3",
    "x1^2 + x2^2 + x3^2",
    "x1^3 + x2^2 + x3",
    "x1*x2 + x3^2",
    "x1^4 + x2^2",
    "x1^2*x2 + x3^2",
    "x1^3 + x1*x2 + x3",
    "x1^2 + x2*x3",
    "x1^4 + x2^4 + (x1 + x2)^4",
    "x1^2 + x1*x2",
    "x1^3 + 3*x1*x2",
]

SMALL_CORPUS: List[str] = [
    "x1^2",
    "x1^2 + x2",
    "x1*x2",
    "x1^3 + x2",
    "x1^2 + x2^2",
]

BIG_CUBIC = "x1^3 + x2^3 + x0*x1*y1 + x0*x2*y2 + x0^2*y0"
EX49_CUBIC = ("x3^3 + x1*x2*x4 + x3*x4^2 + x2^2*x5 + x2*x3*x5 + x1*x5^2"
              " + x5^3")

OUT_OF_SCOPE = [
    "smoothability and cleavability statements (only their computable "
    "consequences are checked)",
    "actual border, Waring, cactus and smoothable ranks beyond the computed "
    "catalecticant and substitution bounds",
    "matrix multiplication exponent bounds below 2.38",
    "the probabilistic restriction of a power to a matrix-multiplication "
    "direct sum",
    "rank-|G| decompositions of group tensors (need roots of unity)",
]


GrowthRows = Tuple[Tuple[int, int, bool], ...]


class SuiteEntry:
    """One recorded computation; ``run`` stays assignable, so a profiler can
    wrap an entry in place.  A growth entry's ``run`` takes the growth rows
    of a corpus text, growth_table(f, deg f), from ``run_suite``."""
    __slots__ = ("id", "description", "kind", "run", "growth")

    def __init__(self, id: str, description: str, kind: str,
                 run: Callable[..., dict], growth: bool = False):
        self.id = id
        self.description = description
        self.kind = kind  # "assert" | "info"
        self.run = run
        self.growth = growth


def _entry_product_of_linears() -> dict:
    from .apolar import hilbert_function
    from .poly import parse
    f = parse("x1*x2*x3*x4*x5*x6*x7*x8*x9")
    hf = tuple(hilbert_function(f))
    return {"ok": hf == (1, 9, 36, 84, 126, 126, 84, 36, 9, 1),
            "dim": sum(hf), "hilbert_function": list(hf)}


def _entry_power_dims() -> dict:
    from .apolar import apolar_dim
    from .poly import parse
    vals = {
        "x1^2": apolar_dim(parse("x1^2")),
        "(x1^2)^2": apolar_dim(parse("x1^4")),
        "(x1^2+x2)^2": apolar_dim(parse("(x1^2 + x2)^2")),
        "five-variable cubic": apolar_dim(parse(EX49_CUBIC)),
        "its square": apolar_dim(parse(EX49_CUBIC) ** 2),
    }
    want = {"x1^2": 3, "(x1^2)^2": 5, "(x1^2+x2)^2": 6,
            "five-variable cubic": 12, "its square": 67}
    return {"ok": vals == want, "dims": vals,
            "square_below_binom": vals["its square"] < math.comb(13, 2)}


def _entry_middle_cat_ranks() -> dict:
    from .apolar import catalecticant_rank
    from .poly import parse
    vals = {
        "(x0^3+x1^3)^2": catalecticant_rank(parse("(x0^3 + x1^3)^2"), 3),
        "(x1^2+x2^2+x3^2)^2":
            catalecticant_rank(parse("(x1^2 + x2^2 + x3^2)^2"), 2),
        "big-cubic-square": catalecticant_rank(parse(BIG_CUBIC) ** 2, 3),
    }
    want = {"(x0^3+x1^3)^2": 4, "(x1^2+x2^2+x3^2)^2": 6,
            "big-cubic-square": 25}
    return {"ok": vals == want, "ranks": vals}


def _entry_twisted_power_cats() -> dict:
    from .apolar import catalecticant_rank
    from .poly import parse, twist
    Q = parse("x0*x3 + x1^2 + x2^2")
    ranks = {}
    ok = True
    for d in (1, 2, 3):
        r = catalecticant_rank(twist(Q ** d, "x0"), d)
        ranks[f"d={d}"] = r
        ok = ok and r == math.comb(3 + d, d)
    return {"ok": ok, "ranks": ranks}


def _entry_twist_necessity() -> dict:
    from .apolar import catalecticant_rank
    from .poly import parse, twist
    F = parse(BIG_CUBIC) ** 2
    twisted = catalecticant_rank(twist(F, "x0"), 3)
    untwisted = catalecticant_rank(F, 3)
    return {"ok": twisted == 21 and untwisted == 25,
            "twisted_rank": twisted, "untwisted_rank": untwisted,
            "note": "rank drops to the binomial ceiling only after twisting"}


def _entry_taut_corpus() -> dict:
    from .apolar import verify_tautological_apolarity
    from .poly import parse
    failures = []
    for text in TAUT_CORPUS:
        F = parse(text)
        rep = verify_tautological_apolarity(F, F.vars[0])
        if not rep.all_pass:
            failures.append(text)
    return {"ok": not failures, "forms": len(TAUT_CORPUS),
            "failures": failures}


def _entry_untwisted_univariate_control() -> dict:
    from .apolar import verify_tautological_apolarity
    from .poly import parse
    F = parse("(x0^3 + x1^3)^2")
    rep = verify_tautological_apolarity(F, "x0", twisted=False)
    return {"generators_tested": len(rep.generators),
            "all_pass": rep.all_pass,
            "note": "the dehomogenization has no low-degree annihilator, so "
                    "this control is vacuous; the meaningful untwisted "
                    "failure appears in the twist-necessity entry"}


def _entry_untwisted_control_fails() -> dict:
    from .apolar import verify_tautological_apolarity
    from .poly import parse
    F = parse("x0^2*x2 + x0*x1^2")
    plain = verify_tautological_apolarity(F, "x0", twisted=False)
    twistd = verify_tautological_apolarity(F, "x0", twisted=True)
    return {"ok": (not plain.all_pass) and twistd.all_pass,
            "untwisted_kills": plain.kills, "twisted_kills": twistd.kills}


def _entry_encompassing_equivalences(growth: Callable[[str], GrowthRows]
                                     ) -> dict:
    from .encompass import encompassing_report
    from .poly import parse
    mismatches = []
    for text in ENCOMPASS_CORPUS:
        rep = encompassing_report(parse(text), seed=0)
        enc, jac, ell = rep.encompassing, rep.gradient_rank, rep.dim
        growth_all = all(maximal for _, _, maximal in growth(text))
        if enc != growth_all or enc != (jac == ell - 1):
            mismatches.append({"f": text, "encompassing": enc,
                               "growth": growth_all, "jacobian_rank": jac})
    return {"ok": not mismatches, "polynomials": len(ENCOMPASS_CORPUS),
            "mismatches": mismatches}


def _entry_growth_inequality(growth: Callable[[str], GrowthRows]) -> dict:
    violations = []
    for text in ENCOMPASS_CORPUS:
        for d, (lhs, rhs, _) in enumerate(growth(text), start=1):
            if lhs > rhs:
                violations.append({"f": text, "d": d, "lhs": lhs, "rhs": rhs})
    return {"ok": not violations, "violations": violations}


def _entry_boxtimes_square() -> dict:
    from .apolar import apolar_dim, boxtimes_apolar_dim
    from .poly import parse
    rows = {}
    ok = True
    for text in SMALL_CORPUS:
        f = parse(text)
        ell = apolar_dim(f)
        val = boxtimes_apolar_dim(f, 2)
        rows[text] = {"ell": ell, "boxtimes_square_dim": val}
        ok = ok and val == ell * ell
    return {"ok": ok, "values": rows}


def _entry_extension_literal() -> dict:
    from .encompass import encompassing_extension
    from .poly import format_poly, parse
    ext2 = encompassing_extension(parse("x1^2 + x2^2"))
    ext3 = encompassing_extension(parse("x1^3 + x2^3"))
    quadric_ok = ext2.g == parse("x1^2 + x2^2 + y1")
    cubic_ok = ext3.g == parse("x1^3 + x2^3 + x1*y1 + x2*y2 + y3")
    return {"ok": quadric_ok and cubic_ok,
            "quadric_g": format_poly(ext2.g), "cubic_g": format_poly(ext3.g)}


def _entry_extension_invariants() -> dict:
    from .apolar import hilbert_function
    from .encompass import _truncations, encompassing_extension
    from .exact import sparse_rank
    from .poly import parse, restrict_zero
    bad = []
    for text in SMALL_CORPUS + ["x1^2 + x2^3", "x1*x2"]:
        f = parse(text)
        ext = encompassing_extension(f)
        g = ext.g
        back = restrict_zero(g, ext.y_vars) if ext.y_vars else g
        hf_g, hf_f = hilbert_function(g), hilbert_function(f)
        # g is encompassing when its truncations have rank sum(hf_g), its
        # partials dimension (see ``is_encompassing``)
        checks = (back == f, g.degree() == f.degree(),
                  sum(hf_g) == sum(hf_f), hf_g == hf_f,
                  sparse_rank(_truncations(g)) == sum(hf_g))
        if not all(checks):
            bad.append({"f": text, "checks": list(checks)})
    return {"ok": not bad, "failures": bad}


def _entry_main_theorem_examples() -> dict:
    from .encompass import OUT_OF_SCOPE_NOTES, verify_main_theorem
    from .poly import parse
    reports = []
    ok = True
    for text, v, ds in (("x0*x3 + x1^2 + x2^2", "x0", (1, 2)),
                        (BIG_CUBIC, "x0", (2,))):
        F = parse(text)
        for d in ds:
            rep = verify_main_theorem(F, v, d)
            reports.append({"form": text, "d": d, "rank": rep.rank,
                            "expected": rep.expected, "equal": rep.equal})
            ok = ok and rep.equal and all(rep.assumptions.values())
    return {"ok": ok, "cases": reports,
            "out_of_scope": list(OUT_OF_SCOPE_NOTES)}


def _entry_square_quadric_tensors() -> dict:
    from .apolar import structure_tensor_of_apolar
    from .poly import parse
    from .tensor3 import cw
    oks = []
    for n in (4, 5):
        nm2 = n - 2
        f = parse(" + ".join(f"x{i}^2" for i in range(1, nm2 + 1)))
        T, _basis = structure_tensor_of_apolar(f)
        oks.append(T == cw(n))
    return {"ok": all(oks), "matches": {"n=4": oks[0], "n=5": oks[1]}}


def _entry_algebra_pattern() -> dict:
    from .tensor3 import PartiallySymmetricTensor, algebra_A_Tk
    slices = [[[Fraction(2), Fraction(0)], [Fraction(0), Fraction(0)]],
              [[Fraction(1), Fraction(3)], [Fraction(3), Fraction(0)]]]
    T = PartiallySymmetricTensor(slices)
    A = algebra_A_Tk(T, 1)
    want = {
        (0, 0, 0), (0, 1, 1), (0, 2, 2), (0, 3, 3), (0, 4, 4), (0, 5, 5),
        (1, 0, 1), (2, 0, 2), (3, 0, 3), (4, 0, 4), (5, 0, 5),
        (1, 1, 4), (1, 2, 5), (2, 1, 5),
    }
    vals_ok = (A.entries.get((1, 1, 4)) == 2 and A.entries.get((1, 1, 5)) == 1
               and A.entries.get((1, 2, 5)) == 3
               and A.entries.get((2, 1, 5)) == 3)
    support_ok = set(A.entries) == want | {(1, 1, 5)}
    return {"ok": A.dims == (6, 6, 6) and A.nnz() == 15 and vals_ok
                  and support_ok,
            "dims": list(A.dims), "nnz": A.nnz()}


def _entry_onegen_identity_slice() -> dict:
    from .tensor3 import cw, one_generic_extension
    T = cw(3)
    E = one_generic_extension(T, 1)
    s0 = E.slice(0, 0)
    ident = all(s0[i][j] == (1 if i == j else 0)
                for i in range(E.dims[1]) for j in range(E.dims[2]))
    return {"ok": ident and E.dims == (4, 4, 4), "dims": list(E.dims)}


def _entry_cw_support() -> dict:
    from .tensor3 import cw
    rows = {}
    ok = True
    for n in (3, 4, 5):
        T = cw(n)
        rows[f"n={n}"] = T.nnz()
        ok = ok and T.nnz() == 3 * n - 3
    return {"ok": ok, "support_sizes": rows}


def _entry_group_degeneration() -> dict:
    from .tensor3 import AbelianGroup, cw, group_tensor
    from .sweet import cw_blocking, cw_weights, is_tight, toric_degenerate
    B3 = cw_blocking(3)
    TZ3 = group_tensor(AbelianGroup((3,)))
    D3 = toric_degenerate(TZ3, B3, cw_weights(3))
    z3_ok = D3 == cw(3)
    T22 = group_tensor(AbelianGroup((2, 2)))
    B4 = cw_blocking(4)
    D22 = toric_degenerate(T22, B4, cw_weights(4))
    mid = {(i, j) for (i, j, k) in D22.entries
           if i in (1, 2) and j in (1, 2) and k == 3}
    pattern_ok = (D22.nnz() == 9 and is_tight(D22, B4)
                  and mid == {(1, 2), (2, 1)}
                  and all((0, i, i) in D22.entries for i in range(4))
                  and all((i, 0, i) in D22.entries for i in range(1, 4)))
    return {"ok": z3_ok and pattern_ok,
            "z3_equals_cw3": z3_ok, "z2xz2_pattern": pattern_ok,
            "note": "over the rationals the 2x2 middle block is the "
                    "off-diagonal matching, a different symmetric bilinear "
                    "form than the diagonal one; only the support pattern "
                    "is asserted"}


def _entry_tight_flags() -> dict:
    from .tensor3 import AbelianGroup, cw, group_tensor, kronecker_power
    from .sweet import (blocking_power, cw_blocking, cw_weights, is_tight,
                        toric_degenerate)
    B3 = cw_blocking(3)
    TZ3 = group_tensor(AbelianGroup((3,)))
    D3 = toric_degenerate(TZ3, B3, cw_weights(3))
    full = is_tight(TZ3, B3)
    deg = is_tight(D3, B3)
    pow_ok = all(is_tight(kronecker_power(cw(3), N), blocking_power(B3, N))
                 for N in (2, 3))
    return {"ok": (not full) and deg and pow_ok,
            "full_group_tensor_tight": full, "degeneration_tight": deg,
            "powers_stay_tight": pow_ok}


def _entry_sp_disjointness() -> dict:
    from .tensor3 import tb
    from .sweet import (BlockDistribution, sp_extract, support_blocks,
                        sweet_piece_report, weight_blocking)
    TB = tb()
    B = weight_blocking([0, 1])
    P = BlockDistribution.uniform([b.labels for b in support_blocks(TB, B)])
    sp = sp_extract(TB, B, P, 3)
    one_positions = {}
    for a in range(3):
        one_positions[a] = [tuple(t for t, v in enumerate(seq) if v == 1)
                            for seq in sp.kept[a]]
    expected = {(i, j, k) for i in range(3) for j in range(3)
                for k in range(3)
                if set(one_positions[0][i]).isdisjoint(one_positions[1][j])
                and set(one_positions[0][i]) | set(one_positions[1][j])
                == set(one_positions[2][k])}
    rep = sweet_piece_report(sp, B)
    return {"ok": (sp.tensor.dims == (3, 3, 3) and sp.tensor.nnz() == 6
                   and set(sp.tensor.entries) == expected
                   and all(v == 1 for v in sp.tensor.entries.values())
                   and sp.p_T == 3 and rep["marginals_uniform"]
                   and rep["formats_equal"]),
            "dims": list(sp.tensor.dims), "nnz": sp.tensor.nnz(),
            "p_T": sp.p_T}


def _entry_sp_degeneration_equality() -> dict:
    from .tensor3 import AbelianGroup, group_tensor
    from .sweet import (BlockDistribution, CW_LARGE, cw_blocking, cw_weights,
                        sp_extract, toric_degenerate)
    B3 = cw_blocking(3)
    P = BlockDistribution(CW_LARGE, [Fraction(1, 3)] * 3)
    TZ3 = group_tensor(AbelianGroup((3,)))
    D3 = toric_degenerate(TZ3, B3, cw_weights(3))
    a = sp_extract(TZ3, B3, P, 3, check_tight=False)
    b = sp_extract(D3, B3, P, 3)
    z3_ok = a.tensor == b.tensor and a.tensor.nnz() == 6
    B4 = cw_blocking(4)
    T22 = group_tensor(AbelianGroup((2, 2)))
    D22 = toric_degenerate(T22, B4, cw_weights(4))
    point = BlockDistribution([((1,), (1,), (-2,))], [Fraction(1)])
    c = sp_extract(T22, B4, point, 2, check_tight=False)
    d = sp_extract(D22, B4, point, 2)
    e = sp_extract(T22, B4, P, 3, check_tight=False)
    g = sp_extract(D22, B4, P, 3)
    z22_ok = c.tensor == d.tensor and e.tensor == g.tensor
    return {"ok": z3_ok and z22_ok, "z3_N3": z3_ok,
            "z2xz2_N2_and_N3": z22_ok,
            "tight_override": "full group tensors are not tight under this "
                              "blocking; projected with check_tight=False"}


def _entry_chimney_zero_layers() -> dict:
    from .tensor3 import AbelianGroup, cw, group_tensor
    from .sweet import (BlockDistribution, CW_LARGE, chimney, cw_blocking,
                        substitution_bound, weight_blocking, zero_layers)
    rows = {}
    B3 = cw_blocking(3)
    P = BlockDistribution(CW_LARGE, [Fraction(1, 3)] * 3)
    ch33 = chimney(cw(3), B3, P, 3)
    rows["(3,3)"] = {"zero_layers": zero_layers(ch33, 2), "formula_term": 1}
    ch43 = chimney(cw(4), cw_blocking(4), P, 3)
    rows["(4,3)"] = {"zero_layers": zero_layers(ch43, 2), "formula_term": 1}
    ch36 = chimney(cw(3), B3, P, 6)
    rows["(3,6)"] = {"zero_layers": zero_layers(ch36, 2),
                     "formula_term": math.comb(6, 5) * 2}
    TZ2 = group_tensor(AbelianGroup((2,)))
    B2 = weight_blocking([0, 1])
    P2 = BlockDistribution([((0,), (0,), (0,)), ((0,), (1,), (-1,)),
                            ((1,), (0,), (-1,))], [Fraction(1, 3)] * 3)
    chp = chimney(TZ2, B2, P2, 3, check_tight=False)
    rows["pratt k=1"] = {"dims": list(chp.dims),
                         "zero_layers": zero_layers(chp, 2),
                         "bound": substitution_bound(8, zero_layers(chp, 2))}
    ok = (all(r["zero_layers"] >= r["formula_term"]
              for key, r in rows.items() if "formula_term" in r)
          and rows["(3,3)"]["zero_layers"] == 21
          and rows["pratt k=1"]["zero_layers"] == 4
          and rows["pratt k=1"]["bound"] == 4)
    return {"ok": ok, "cases": rows}


def _entry_pratt_formula() -> dict:
    from .sweet import even_symdiff_count, formula_pratt
    vals = {k: formula_pratt(k) for k in (1, 2, 3, 4)}
    agree = all(formula_pratt(k) == even_symdiff_count(k) for k in (1, 2, 3))
    return {"ok": vals[1] == 4 and vals[2] == 31 and agree,
            "bounds": {str(k): v for k, v in vals.items()},
            "enumeration_agrees": agree}


def _entry_sweet_rank_formulas() -> dict:
    from .sweet import formula_sweet_rank
    vals = {
        "(3,3)": formula_sweet_rank(3, 3, Fraction(1, 3), 0),
        "(4,3)": formula_sweet_rank(4, 3, Fraction(1, 3)),
        "(3,6)": formula_sweet_rank(3, 6, Fraction(1, 3)),
    }
    return {"ok": vals == {"(3,3)": 26, "(4,3)": 63, "(3,6)": 717},
            "bounds": vals}


def _entry_omega_examples() -> dict:
    from .sweet import omega_bound
    vals = {"r=p*a^2": omega_bound(4, 16, 1), "a=2,r=8,p=1": omega_bound(2, 8, 1),
            "a=2,r=7,p=1": omega_bound(2, 7, 1)}
    ok = (vals["r=p*a^2"] == 2.0 and vals["a=2,r=8,p=1"] == 3.0
          and abs(vals["a=2,r=7,p=1"] - math.log2(7)) < 1e-9)
    return {"ok": ok, "values": vals}


def _entry_veronese_slice() -> dict:
    from .sweet import veronese_dims
    row = [math.comb(9, i) for i in range(10)]
    got = veronese_dims(row, 3)
    return {"ok": got == [1, 84, 84, 1], "dims": got}


def _entry_disjointness_is_veronese_multiplication() -> dict:
    # degree-one multiplication of the cube of K[x]/(x^2): x_i * x_j lands on
    # the squarefree degree-two monomial x_i x_j when i != j, else dies
    from .tensor3 import tb
    from .sweet import (BlockDistribution, sp_extract, support_blocks,
                        weight_blocking)
    TB = tb()
    B = weight_blocking([0, 1])
    P = BlockDistribution.uniform([b.labels for b in support_blocks(TB, B)])
    sp = sp_extract(TB, B, P, 3)
    var_of = {i: seq.index(1) for i, seq in enumerate(sp.kept[0])}
    pair_of = {k: frozenset(t for t, v in enumerate(seq) if v == 1)
               for k, seq in enumerate(sp.kept[2])}
    mult = {(i, j, k) for i in range(3) for j in range(3)
            for k in range(3)
            if var_of[i] != var_of[j]
            and frozenset({var_of[i], var_of[j]}) == pair_of[k]}
    return {"ok": set(sp.tensor.entries) == mult
                  and all(v == 1 for v in sp.tensor.entries.values()),
            "entries": sp.tensor.nnz()}


def _entry_local_quadric_smoothing() -> dict:
    from .apolar import hilbert_function
    from .encompass import growth_table
    from .poly import parse
    f = parse("x1^2 + x2^2")
    hf = list(hilbert_function(f))
    return {"hilbert_function": hf, "apolar_dim": sum(hf),
            "smoothing_points": sum(hf) + 1,
            "growth_at_2": list(growth_table(f, 2)[-1][:2]),
            "note": "reported side by side with the ambient smoothing count; "
                    "nothing asserted"}


def _entry_veronese_subalgebra_dim() -> dict:
    # the unital subalgebra of (K[x,y]/(x^2,y^2))^{tensor 3} generated by its
    # degree-one part is the whole cube, whose dimension is the sum of its
    # graded dims, the coefficients of ((1+t)^2)^3; compared against the
    # closed-form display, which gives a different value at k = 1
    cube = sum(math.comb(6, i) for i in range(7))
    k = 1
    formula = 2 + 2 * sum(math.comb(3 * k, a) * math.comb(3 * k - a, 2 * k - a)
                          for a in range(k + 1))
    return {"brute_force_dim": cube, "formula_value": formula,
            "note": "the degree-one part regenerates the whole 64-dimensional "
                    "cube, while the displayed closed form gives 20; both "
                    "values reported, neither asserted"}


def _entry_growth_chain_experiment(growth: Callable[[str], GrowthRows]
                                   ) -> dict:
    rows = []
    monotone = True
    for text in ENCOMPASS_CORPUS:
        flags = [maximal for _, _, maximal in growth(text)]
        # once growth drops below maximal, does it ever recover?
        recovers = any(flags[i] and not flags[i - 1]
                       for i in range(1, len(flags)))
        monotone = monotone and not recovers
        rows.append({"f": text, "maximal_at": flags})
    return {"never_recovers_after_drop": monotone, "observations": rows,
            "note": "experiment only: maximal growth at every degree vs a "
                    "drop-and-recover pattern; no assertion made"}


ENTRIES: List[SuiteEntry] = sorted([
    SuiteEntry("algebra-from-symmetric-slices",
               "the 6x6 graded algebra built from two symmetric 2x2 slices "
               "has the expected 15-entry structure tensor",
               "assert", _entry_algebra_pattern),
    SuiteEntry("apolar-dim-product-of-linears",
               "the product of nine variables has apolar dimension 512 with "
               "the binomial Hilbert function",
               "assert", _entry_product_of_linears),
    SuiteEntry("apolar-dims-of-powers",
               "apolar dimensions of small powers, including the "
               "five-variable cubic whose square drops to 67",
               "assert", _entry_power_dims),
    SuiteEntry("boxtimes-square-dimension",
               "the disjoint-variable square multiplies the apolar dimension",
               "assert", _entry_boxtimes_square),
    SuiteEntry("chimney-zero-layers",
               "chimney zero-layer counts dominate the closed-form term",
               "assert", _entry_chimney_zero_layers),
    SuiteEntry("cw-support-size",
               "the three-sum tensors have 3n-3 unit entries",
               "assert", _entry_cw_support),
    SuiteEntry("disjointness-veronese-multiplication",
               "the projected cube of the dual-numbers tensor is the "
               "degree-one multiplication of its cube algebra",
               "assert", _entry_disjointness_is_veronese_multiplication),
    SuiteEntry("encompassing-equivalences",
               "degree-one injectivity, maximal growth, and generic gradient "
               "rank agree on the corpus",
               "assert", _entry_encompassing_equivalences, growth=True),
    SuiteEntry("extension-invariants",
               "default extensions restrict back, preserve dimension and "
               "Hilbert function, and are encompassing",
               "assert", _entry_extension_invariants),
    SuiteEntry("extension-literal-outputs",
               "the quadric and cubic extensions come out letter-for-letter",
               "assert", _entry_extension_literal),
    SuiteEntry("group-toric-degeneration",
               "weight degenerations of group tensors land on the three-sum "
               "support",
               "assert", _entry_group_degeneration),
    SuiteEntry("growth-chain-experiment",
               "where maximal growth holds along the degree ladder",
               "info", _entry_growth_chain_experiment, growth=True),
    SuiteEntry("growth-never-exceeds-binomial",
               "power dimensions never exceed the binomial ceiling",
               "assert", _entry_growth_inequality, growth=True),
    SuiteEntry("local-quadric-smoothing",
               "Hilbert function and smoothing point count of the plane "
               "quadric, reported side by side",
               "info", _entry_local_quadric_smoothing),
    SuiteEntry("main-theorem-rank-equalities",
               "twisted power catalecticants hit the binomial rank with all "
               "assumptions verified",
               "assert", _entry_main_theorem_examples),
    SuiteEntry("omega-logarithm-examples",
               "the exponent bound evaluates to the expected logarithms",
               "assert", _entry_omega_examples),
    SuiteEntry("onegen-identity-slice",
               "the one-generic extension carries an identity slice",
               "assert", _entry_onegen_identity_slice),
    SuiteEntry("pratt-bound-enumeration",
               "the binary rank bound agrees with symmetric-difference "
               "enumeration",
               "assert", _entry_pratt_formula),
    SuiteEntry("sp-degeneration-equality",
               "sweet pieces of group tensors equal those of their "
               "degenerations",
               "assert", _entry_sp_degeneration_equality),
    SuiteEntry("sp-disjointness-tensor",
               "the triple projection of the dual-numbers tensor is the "
               "3x3x3 disjointness tensor",
               "assert", _entry_sp_disjointness),
    SuiteEntry("square-quadric-structure-tensor",
               "apolar algebras of square quadrics multiply by the "
               "three-sum tensors",
               "assert", _entry_square_quadric_tensors),
    SuiteEntry("sweet-rank-formulas",
               "closed-form sweet rank bounds at the three desk-scale sizes",
               "assert", _entry_sweet_rank_formulas),
    SuiteEntry("taut-apolarity-corpus",
               "homogenized annihilators of the dehomogenization kill the "
               "twisted powers",
               "assert", _entry_taut_corpus),
    SuiteEntry("tightness-flags",
               "full group tensors are not tight, their degenerations are, "
               "and tightness survives Kronecker powers",
               "assert", _entry_tight_flags),
    SuiteEntry("twist-necessity-control",
               "the sextic square needs the twist: 25 untwisted vs 21 "
               "twisted",
               "assert", _entry_twist_necessity),
    SuiteEntry("twisted-cubic-catalecticant",
               "middle and twisted catalecticant ranks of the named forms",
               "assert", _entry_middle_cat_ranks),
    SuiteEntry("twisted-power-catalecticants",
               "twisted powers of the four-variable quadric realize the "
               "full binomial rank",
               "assert", _entry_twisted_power_cats),
    SuiteEntry("untwisted-univariate-control",
               "the binary sextic's untwisted control is vacuous at this "
               "degree bound",
               "info", _entry_untwisted_univariate_control),
    SuiteEntry("untwisted-control-fails",
               "an inhomogeneous-annihilator form where the untwisted check "
               "genuinely fails",
               "assert", _entry_untwisted_control_fails),
    SuiteEntry("veronese-dimension-slice",
               "every third binomial dimension of the degree-nine row",
               "assert", _entry_veronese_slice),
    SuiteEntry("veronese-subalgebra-dim",
               "brute-force subalgebra dimension vs the closed-form display",
               "info", _entry_veronese_subalgebra_dim),
], key=lambda e: e.id)


def run_suite(only: Optional[Collection[str]] = None) -> dict:
    """Run the entries (only those whose ids are in only, when given) and
    summarize what ran.  Unknown ids are refused before any entry runs.
    The growth entries share the growth rows of this call: each text's
    rows are built once, when an entry first asks for them."""
    chosen = ENTRIES
    if only is not None:
        missing = set(only) - {e.id for e in ENTRIES}
        if missing:
            raise ValueError(f"unknown suite entries: {sorted(missing)}")
        chosen = [e for e in ENTRIES if e.id in only]
    tables: Dict[str, GrowthRows] = {}

    def growth(text: str) -> GrowthRows:
        if text not in tables:
            from .encompass import growth_table
            from .poly import parse
            f = parse(text)
            tables[text] = tuple(growth_table(f, f.degree()))
        return tables[text]
    results = []
    passed = failed = info = 0
    for entry in chosen:
        out = entry.run(growth) if entry.growth else entry.run()
        rec = {"id": entry.id, "kind": entry.kind,
               "description": entry.description, "values": out}
        if entry.kind == "assert":
            ok = bool(out.get("ok"))
            rec["ok"] = ok
            passed += ok
            failed += not ok
        else:
            info += 1
        results.append(rec)
    return {
        "entries": results,
        "summary": {
            "total": len(chosen),
            "passed": passed,
            "failed": failed,
            "informational": info,
            "out_of_scope": OUT_OF_SCOPE,
        },
    }
