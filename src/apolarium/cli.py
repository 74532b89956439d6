"""Command-line surface.

Every subcommand prints a single JSON report:

    {"command": ..., "inputs": ..., "outputs": ..., "provenance": [...],
     "seed": ...}

where inputs echo the parsed arguments in canonical form, provenance lists
the ids of the built-in reference-suite entries that exercise the same
computation, and the report is byte-identical across reruns with the same
arguments and seed.  ``--human`` renders the outputs as an indented key/value
table instead.

Exit codes: 0 success; 1 a verification subcommand found a violated claim;
2 usage or parse error; 3 a resource guard tripped.

Inline argument mini-languages (all also accept ``@file.json``):

    tensor    cw:N | group:2x2x... | tb | apolar:FORM
    blocking  cw | weights:w0,w1,... (negated on the third axis)
    dist      uniform | large | point:I
    weights   cwdeg | w;w;w with each w a comma list
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from . import guards
from .guards import LimitExceeded, Limits
from .apolar import (annihilator_upto, apolar_dim, catalecticant_rank,
                     hilbert_function, is_concise, structure_tensor_of_apolar,
                     verify_tautological_apolarity)
from .encompass import (encompassing_extension, gradient_generic_rank,
                        growth_table, is_almost_encompassing, is_encompassing,
                        verify_main_theorem)
from .papersuite import run_suite
from .poly import (ParseError, Poly, VarMismatchError, dehomogenize,
                   format_poly, parse, twist)
from .sweet import (BlockDistribution, Blocking, MINIMAL_RANK_FAMILIES,
                    chimney, cw_blocking, even_symdiff_count, formula_pratt,
                    is_tight, marginal_uniqueness, marginals, omega_bound,
                    sp_extract, substitution_bound, support_blocks,
                    sweet_piece_report, toric_degenerate, veronese_dims,
                    weight_blocking, zero_layers)
from .tensor3 import (AbelianGroup, PartiallySymmetricTensor, Tensor3,
                      algebra_A_Tk, cw, group_tensor, kronecker_power,
                      one_generic_extension, symmetrize_TS)

PROVENANCE = {
    "apolar-dim": ["apolar-dim-product-of-linears", "apolar-dims-of-powers"],
    "hilbert": ["apolar-dim-product-of-linears", "local-quadric-smoothing"],
    "annihilator": ["taut-apolarity-corpus"],
    "cat-rank": ["twisted-cubic-catalecticant", "twist-necessity-control"],
    "twist": ["twisted-power-catalecticants"],
    "encompass-check": ["encompassing-equivalences"],
    "growth": ["growth-never-exceeds-binomial", "growth-chain-experiment"],
    "extend": ["extension-literal-outputs", "extension-invariants"],
    "verify-taut": ["taut-apolarity-corpus", "untwisted-control-fails",
                    "untwisted-univariate-control"],
    "verify-main-thm": ["main-theorem-rank-equalities",
                        "twist-necessity-control"],
    "tensor-make": ["cw-support-size", "square-quadric-structure-tensor",
                    "algebra-from-symmetric-slices", "onegen-identity-slice"],
    "tensor-kron": ["tightness-flags", "boxtimes-square-dimension"],
    "sweet-support": ["group-toric-degeneration", "sp-disjointness-tensor"],
    "sweet-tight": ["tightness-flags"],
    "sweet-marginals": ["sp-disjointness-tensor"],
    "sweet-extract": ["sp-disjointness-tensor", "sp-degeneration-equality",
                      "disjointness-veronese-multiplication"],
    "sweet-chimney": ["chimney-zero-layers"],
    "sweet-degenerate": ["group-toric-degeneration"],
    "sweet-zero-layers": ["chimney-zero-layers"],
    "sweet-bound": ["chimney-zero-layers", "pratt-bound-enumeration"],
    "sweet-pratt": ["pratt-bound-enumeration"],
    "sweet-omega": ["omega-logarithm-examples"],
    "sweet-veronese": ["veronese-dimension-slice", "veronese-subalgebra-dim"],
    "paper-suite": ["*"],
}


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Poly):
        return format_poly(x)
    if isinstance(x, float):
        return x
    if isinstance(x, dict):
        return {str(_jsonable(k)): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _print_human(doc, indent: int = 0, out=None):
    out = out if out is not None else sys.stdout
    pad = "  " * indent
    if isinstance(doc, dict):
        for k, v in doc.items():
            if isinstance(v, (dict, list)):
                out.write(f"{pad}{k}:\n")
                _print_human(v, indent + 1, out)
            else:
                out.write(f"{pad}{k}: {v}\n")
    elif isinstance(doc, list):
        if all(not isinstance(v, (dict, list)) for v in doc):
            out.write(pad + "  ".join(str(v) for v in doc) + "\n")
        else:
            for v in doc:
                _print_human(v, indent, out)
                if isinstance(v, dict):
                    out.write(pad + "-\n")
    else:
        out.write(f"{pad}{doc}\n")


def _emit(args, command: str, inputs: dict, outputs: dict) -> None:
    doc = {"command": command, "inputs": _jsonable(inputs),
           "outputs": _jsonable(outputs),
           "provenance": PROVENANCE.get(command, []),
           "seed": args.seed}
    if args.human:
        _print_human(doc)
    else:
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _limits(args) -> Limits:
    base = Limits.from_env()
    return Limits(
        max_terms=(args.max_terms if args.max_terms is not None
                   else base.max_terms),
        max_entries=(args.max_entries if args.max_entries is not None
                     else base.max_entries),
        max_degree=(args.max_degree if args.max_degree is not None
                    else base.max_degree),
    )


def _parse_form(text: str, limits: Limits) -> Poly:
    f = parse(text)
    guards.check_degree(max(f.degree(), 0), limits.max_degree)
    guards.check_terms(len(f.terms), limits.max_terms)
    return f


def _check_partials_size(f: Poly, limits: Limits) -> None:
    """Refuse a partials space whose predicted size is past --max-terms.

    Each term x^e has prod(e_i + 1) divisor exponents, so the sum over the
    terms bounds the dimension of the partials space.
    """
    bound = sum(math.prod(x + 1 for x in e) for e in f.terms)
    if bound > limits.max_terms:
        raise LimitExceeded(f"partials dimension bound {bound} exceeds "
                            f"limit {limits.max_terms}")


def _check_operator_space(nvars: int, bound: int, limits: Limits) -> None:
    """Refuse an annihilator whose operator space, the binom(nvars + bound,
    bound) monomials of degree <= bound, is past --max-terms."""
    size = math.comb(nvars + bound, bound) if bound >= 0 else 0
    if size > limits.max_terms:
        raise LimitExceeded(f"operator space size {size} exceeds "
                            f"limit {limits.max_terms}")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_tensor(spec: str, limits: Limits) -> Tensor3:
    if spec.startswith("@"):
        return Tensor3.from_json(_read(spec[1:]))
    if spec.startswith("cw:"):
        return cw(int(spec[3:]))
    if spec.startswith("group:"):
        orders = [int(t) for t in spec[6:].split("x")]
        return group_tensor(AbelianGroup(orders))
    if spec == "tb":
        return Tensor3((2, 2, 2), {(0, 0, 0): Fraction(1),
                                   (0, 1, 1): Fraction(1),
                                   (1, 0, 1): Fraction(1)},
                       labels=(("1", "x"),) * 3)
    if spec.startswith("apolar:"):
        T, _ = structure_tensor_of_apolar(_parse_form(spec[7:], limits))
        return T
    raise ValueError(f"unknown tensor spec {spec!r} "
                     "(want cw:N, group:AxB, tb, apolar:FORM or @file)")


def _load_blocking(spec: str, T: Tensor3) -> Blocking:
    if spec.startswith("@"):
        return Blocking.from_json(_read(spec[1:]))
    if spec == "cw":
        if len(set(T.dims)) != 1:
            raise ValueError("cw blocking needs a cube-shaped tensor")
        return cw_blocking(T.dims[0])
    if spec.startswith("weights:"):
        w = [int(t) for t in spec[8:].split(",")]
        if len(w) != T.dims[0] or len(set(T.dims)) != 1:
            raise ValueError("weight blocking must match the tensor dims")
        return weight_blocking(w)
    raise ValueError(f"unknown blocking spec {spec!r} "
                     "(want cw, weights:a,b,... or @file)")


_CW_LARGE = [((0,), (1,), (-1,)), ((1,), (0,), (-1,)), ((1,), (1,), (-2,))]


def _load_dist(spec: str, T: Tensor3, B: Blocking) -> BlockDistribution:
    if spec.startswith("@"):
        return BlockDistribution.from_json(_read(spec[1:]))
    blocks = [b.labels for b in support_blocks(T, B)]
    if spec == "uniform":
        return BlockDistribution.uniform(blocks)
    if spec == "large":
        chosen = [lab for lab in blocks if lab in _CW_LARGE]
        if len(chosen) != 3:
            raise ValueError("'large' needs the three standard large blocks "
                             "in the support")
        return BlockDistribution.uniform(chosen)
    if spec.startswith("point:"):
        i = int(spec[6:])
        if not 0 <= i < len(blocks):
            raise ValueError(f"point index {i} out of range "
                             f"(support has {len(blocks)} blocks)")
        return BlockDistribution([blocks[i]], [Fraction(1)])
    raise ValueError(f"unknown distribution spec {spec!r} "
                     "(want uniform, large, point:I or @file)")


def _load_weights(spec: str, T: Tensor3) -> List[List[int]]:
    if spec.startswith("@"):
        return [list(map(int, ax)) for ax in json.loads(_read(spec[1:]))["weights"]]
    if spec == "cwdeg":
        if len(set(T.dims)) != 1 or T.dims[0] < 3:
            raise ValueError("cwdeg weights need a cube of side >= 3")
        n = T.dims[0]
        fwd = [0] + [1] * (n - 2) + [2]
        return [fwd, fwd, [-w for w in fwd]]
    axes = spec.split(";")
    if len(axes) != 3:
        raise ValueError("inline weights need three ;-separated axes")
    return [[int(t) for t in ax.split(",")] for ax in axes]


def _tensor_doc(T: Tensor3) -> dict:
    return json.loads(T.to_json())


def _maybe_write(path: Optional[str], text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


# -- subcommand bodies ---------------------------------------------------------


def _cmd_apolar_dim(args, limits) -> int:
    f = _parse_form(args.form, limits)
    _check_partials_size(f, limits)
    _emit(args, "apolar-dim", {"form": f},
          {"dim": apolar_dim(f), "concise": is_concise(f)})
    return 0


def _cmd_hilbert(args, limits) -> int:
    f = _parse_form(args.form, limits)
    _check_partials_size(f, limits)
    hf = list(hilbert_function(f))
    _emit(args, "hilbert", {"form": f},
          {"hilbert_function": hf, "dim": sum(hf)})
    return 0


def _cmd_annihilator(args, limits) -> int:
    f = _parse_form(args.form, limits)
    bound = args.degree if args.degree is not None else f.degree() + 1
    guards.check_degree(bound, limits.max_degree)
    _check_operator_space(len(f.vars), bound, limits)
    gens = annihilator_upto(f, bound)
    _emit(args, "annihilator", {"form": f, "degree_bound": bound},
          {"generators": gens, "count": len(gens)})
    return 0


def _cmd_cat_rank(args, limits) -> int:
    F = _parse_form(args.form, limits)
    if not F.is_homogeneous():
        raise ValueError("catalecticants are defined for homogeneous forms")
    if args.max:
        d = F.degree()
        by_k = {k: catalecticant_rank(F, k) for k in range(d + 1)}
        rank = max(by_k.values())
        out = {"max_rank": rank,
               "at_k": min(k for k, r in by_k.items() if r == rank),
               "border_rank_lower_bound": rank}
    else:
        if args.k is None:
            raise ValueError("pass --k or --max")
        out = {"k": args.k, "rank": catalecticant_rank(F, args.k)}
    _emit(args, "cat-rank", {"form": F, "k": args.k, "max": args.max}, out)
    return 0


def _cmd_twist(args, limits) -> int:
    F = _parse_form(args.form, limits)
    v = args.var or F.vars[0]
    _emit(args, "twist", {"form": F, "var": v},
          {"twisted": twist(F, v)})
    return 0


def _cmd_encompass_check(args, limits) -> int:
    f = _parse_form(args.form, limits)
    _check_partials_size(f, limits)
    ell = apolar_dim(f)
    out = {
        "encompassing": is_encompassing(f),
        "almost_encompassing": is_almost_encompassing(f),
        "partials_dim": ell,
        "gradient_generic_rank": gradient_generic_rank(f, seed=args.seed)
        if is_concise(f) else None,
    }
    _emit(args, "encompass-check", {"form": f}, out)
    return 0


def _cmd_growth(args, limits) -> int:
    f = _parse_form(args.form, limits)
    dmax = args.dmax if args.dmax is not None else f.degree()
    rows = growth_table(f, dmax, max_terms=limits.max_terms,
                        max_degree=limits.max_degree)
    # The ceilings of check_maximal_growth, from the dims already computed:
    # rows[0] is the apolar dimension of f itself.
    table = []
    maximal = True
    for d, lhs in enumerate(rows, start=1):
        rhs = math.comb(rows[0] + d - 1, d)
        guards.check_terms(rhs, limits.max_terms)
        table.append({"d": d, "dim": lhs, "ceiling": rhs, "maximal": lhs == rhs})
        maximal = maximal and lhs == rhs
    _emit(args, "growth", {"form": f, "dmax": dmax},
          {"dims": rows, "table": table, "maximal_throughout": maximal})
    return 0


def _cmd_extend(args, limits) -> int:
    f = _parse_form(args.form, limits)
    _check_partials_size(f, limits)
    override = [parse(s, f.vars) for s in args.sigma] if args.sigma else None
    ext = encompassing_extension(f, sigma_override=override)
    _emit(args, "extend",
          {"form": f, "sigma_override": override or []},
          {"g": ext.g, "G": ext.G, "sigmas": ext.sigma_list,
           "y_vars": list(ext.y_vars),
           "encompassing": is_encompassing(ext.g)})
    return 0


def _cmd_verify_taut(args, limits) -> int:
    F = _parse_form(args.form, limits)
    v = args.var or F.vars[0]
    if v in F.vars and F.is_homogeneous():  # else the library says why not
        f = dehomogenize(F, v)
        bound = args.bound if args.bound is not None else f.degree() + 1
        _check_operator_space(len(f.vars), bound, limits)
    rep = verify_tautological_apolarity(F, v, bound=args.bound,
                                        twisted=not args.untwisted)
    _emit(args, "verify-taut",
          {"form": F, "var": v, "bound": rep.bound,
           "twisted": not args.untwisted},
          {"generators": rep.generators, "kills": rep.kills,
           "all_pass": rep.all_pass})
    return 0 if rep.all_pass else 1


def _cmd_verify_main_thm(args, limits) -> int:
    F = _parse_form(args.form, limits)
    v = args.var or F.vars[0]
    rep = verify_main_theorem(F, v, args.d, max_terms=limits.max_terms,
                              max_degree=limits.max_degree)
    _emit(args, "verify-main-thm",
          {"form": F, "var": v, "d": args.d},
          {"rank": rep.rank, "expected": rep.expected, "equal": rep.equal,
           "assumptions": rep.assumptions,
           "out_of_scope": list(rep.out_of_scope)})
    return 0 if rep.equal else 1


def _cmd_tensor_make(args, limits) -> int:
    mode = args.mode
    inputs: dict = {"mode": mode}
    if mode == "cw":
        if args.n is None:
            raise ValueError("cw mode needs --n")
        T = cw(args.n)
        inputs["n"] = args.n
        extra = {}
    elif mode == "group":
        if not args.orders:
            raise ValueError("group mode needs --orders like 2x2")
        orders = [int(t) for t in args.orders.split("x")]
        T = group_tensor(AbelianGroup(orders))
        inputs["orders"] = orders
        extra = {}
    elif mode == "algebra":
        if not args.form:
            raise ValueError("algebra mode needs --form")
        f = _parse_form(args.form, limits)
        T, basis = structure_tensor_of_apolar(f)
        inputs["form"] = f
        extra = {"basis": basis}
    elif mode == "atk":
        if not args.slices:
            raise ValueError("atk mode needs --slices @file")
        S = PartiallySymmetricTensor.from_json(_read(args.slices.lstrip("@")))
        T = algebra_A_Tk(S, args.k)
        inputs["k"] = args.k
        inputs["slices"] = json.loads(S.to_json())
        extra = {}
    elif mode == "ts":
        base = _load_tensor(args.tensor, limits)
        S = symmetrize_TS(base)
        inputs["tensor"] = _tensor_doc(base)
        doc = json.loads(S.to_json())
        _maybe_write(args.out, S.to_json())
        _emit(args, "tensor-make", inputs, {"partially_symmetric": doc})
        return 0
    elif mode == "onegen":
        base = _load_tensor(args.tensor, limits)
        T = one_generic_extension(base, args.k)
        inputs["tensor"] = _tensor_doc(base)
        inputs["k"] = args.k
        extra = {}
    else:
        raise ValueError(f"unknown tensor make mode {mode!r}")
    guards.check_entries(max(T.dims), limits.max_entries)
    _maybe_write(args.out, T.to_json())
    out = {"tensor": _tensor_doc(T), "nnz": T.nnz(), "dims": list(T.dims)}
    out.update(extra)
    _emit(args, "tensor-make", inputs, out)
    return 0


def _cmd_tensor_kron(args, limits) -> int:
    T = _load_tensor(args.tensor, limits)
    P = kronecker_power(T, args.power, max_entries=limits.max_entries)
    _maybe_write(args.out, P.to_json())
    _emit(args, "tensor-kron",
          {"tensor": _tensor_doc(T), "power": args.power},
          {"dims": list(P.dims), "nnz": P.nnz(),
           "tensor": _tensor_doc(P) if args.full else None})
    return 0


def _cmd_sweet_support(args, limits) -> int:
    T = _load_tensor(args.tensor, limits)
    B = _load_blocking(args.blocking, T)
    blocks = support_blocks(T, B)
    _emit(args, "sweet-support",
          {"tensor": _tensor_doc(T), "blocking": json.loads(B.to_json())},
          {"blocks": [{"labels": [list(l) for l in b.labels],
                       "format": list(b.format),
                       "nnz": b.tensor.nnz()} for b in blocks],
           "count": len(blocks)})
    return 0


def _cmd_sweet_tight(args, limits) -> int:
    T = _load_tensor(args.tensor, limits)
    B = _load_blocking(args.blocking, T)
    _emit(args, "sweet-tight",
          {"tensor": _tensor_doc(T), "blocking": json.loads(B.to_json())},
          {"tight": is_tight(T, B)})
    return 0


def _cmd_sweet_marginals(args, limits) -> int:
    T = _load_tensor(args.tensor, limits)
    B = _load_blocking(args.blocking, T)
    P = _load_dist(args.dist, T, B)
    marg = marginals(P)
    _emit(args, "sweet-marginals",
          {"dist": json.loads(P.to_json())},
          {"marginals": [{str(list(k)): v for k, v in sorted(m.items())}
                         for m in marg],
           "uniqueness": marginal_uniqueness(P)})
    return 0


def _cmd_sweet_extract(args, limits) -> int:
    T = _load_tensor(args.tensor, limits)
    B = _load_blocking(args.blocking, T)
    P = _load_dist(args.dist, T, B)
    sp = sp_extract(T, B, P, args.power, check_tight=not args.allow_nontight,
                    max_entries=limits.max_entries)
    _maybe_write(args.out, sp.tensor.to_json())
    _emit(args, "sweet-extract",
          {"tensor": _tensor_doc(T), "blocking": json.loads(B.to_json()),
           "dist": json.loads(P.to_json()), "power": args.power,
           "tightness_check_skipped": bool(args.allow_nontight)},
          {"tensor": _tensor_doc(sp.tensor), "dims": list(sp.tensor.dims),
           "nnz": sp.tensor.nnz(), "p_T": sp.p_T,
           "kept_counts": [len(k) for k in sp.kept],
           "validation": sweet_piece_report(sp)})
    return 0


def _cmd_sweet_chimney(args, limits) -> int:
    T = _load_tensor(args.tensor, limits)
    B = _load_blocking(args.blocking, T)
    P = _load_dist(args.dist, T, B)
    fixed = tuple(int(t) - 1 for t in args.fixed.split(","))
    C = chimney(T, B, P, args.power, fixed_pair=fixed,  # type: ignore[arg-type]
                check_tight=not args.allow_nontight,
                max_entries=limits.max_entries)
    free_axis = ({0, 1, 2} - set(fixed)).pop()
    _maybe_write(args.out, C.to_json())
    _emit(args, "sweet-chimney",
          {"tensor": _tensor_doc(T), "dist": json.loads(P.to_json()),
           "power": args.power, "fixed": [f + 1 for f in fixed],
           "tightness_check_skipped": bool(args.allow_nontight)},
          {"dims": list(C.dims), "nnz": C.nnz(),
           "free_axis": free_axis + 1,
           "zero_layers": zero_layers(C, free_axis)})
    return 0


def _cmd_sweet_degenerate(args, limits) -> int:
    T = _load_tensor(args.tensor, limits)
    B = _load_blocking(args.blocking, T)
    w = _load_weights(args.weights, T)
    D = toric_degenerate(T, B, w)
    _maybe_write(args.out, D.to_json())
    _emit(args, "sweet-degenerate",
          {"tensor": _tensor_doc(T), "weights": w},
          {"tensor": _tensor_doc(D), "nnz": D.nnz(),
           "tight_after": is_tight(D, B)})
    return 0


def _cmd_sweet_zero_layers(args, limits) -> int:
    T = _load_tensor(args.tensor, limits)
    if not 1 <= args.axis <= 3:
        raise ValueError("--axis is 1-based: 1, 2 or 3")
    _emit(args, "sweet-zero-layers",
          {"tensor": _tensor_doc(T), "axis": args.axis},
          {"zero_layers": zero_layers(T, args.axis - 1)})
    return 0


def _cmd_sweet_bound(args, limits) -> int:
    if args.family is None and not args.assert_minimal_rank:
        raise ValueError(
            "the substitution bound needs a minimal-rank ambient tensor: "
            f"pass --family {{{','.join(MINIMAL_RANK_FAMILIES)}}} or "
            "--assert-minimal-rank to take responsibility")
    if args.family is not None and args.family not in MINIMAL_RANK_FAMILIES:
        raise ValueError(f"unknown family {args.family!r}; known: "
                         f"{', '.join(MINIMAL_RANK_FAMILIES)}")
    bound = substitution_bound(args.ambient_dim, args.zero_layers)
    _emit(args, "sweet-bound",
          {"ambient_dim": args.ambient_dim, "zero_layers": args.zero_layers,
           "family": args.family,
           "minimal_rank_asserted_by_caller": bool(args.assert_minimal_rank)},
          {"rank_bound": bound})
    return 0


def _cmd_sweet_pratt(args, limits) -> int:
    bound = formula_pratt(args.k)
    out = {"k": args.k, "bound": bound}
    if args.k <= 4:
        enum = even_symdiff_count(args.k)
        out["even_symdiff_count"] = enum
        out["agree"] = enum == bound
    _emit(args, "sweet-pratt", {"k": args.k}, out)
    return 0


def _cmd_sweet_omega(args, limits) -> int:
    val = omega_bound(args.a, Fraction(args.r), Fraction(args.p))
    _emit(args, "sweet-omega",
          {"a": args.a, "r": args.r, "p": args.p},
          {"omega_bound": val,
           "note": "binary float; every other output in this package is "
                   "exact"})
    return 0


def _cmd_sweet_veronese(args, limits) -> int:
    dims = [int(t) for t in args.dims.split(",")]
    _emit(args, "sweet-veronese", {"dims": dims, "k": args.k},
          {"veronese_dims": veronese_dims(dims, args.k)})
    return 0


def _cmd_paper_suite(args, limits) -> int:
    rep = run_suite(args.only)
    _emit(args, "paper-suite", {"only": args.only or []}, rep)
    return 0 if rep["summary"]["failed"] == 0 else 1


# -- parser --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for the probabilistic arms (default 0)")
    common.add_argument("--human", action="store_true",
                        help="key/value table instead of JSON")
    common.add_argument("--max-terms", type=int, default=None,
                        help=f"term guard (default {guards.DEFAULT_MAX_TERMS})")
    common.add_argument("--max-entries", type=int, default=None,
                        help="entry guard (default "
                             f"{guards.DEFAULT_MAX_ENTRIES}; env "
                             "APOLARIUM_MAX_ENTRIES overrides)")
    common.add_argument("--max-degree", type=int, default=None,
                        help=f"degree guard (default {guards.DEFAULT_MAX_DEGREE})")

    ap = argparse.ArgumentParser(
        prog="apolarium",
        description="exact apolarity, twisted powers, catalecticant bounds, "
                    "and sweet pieces of Kronecker powers")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("apolar-dim", parents=[common],
                       help="dimension of the space of iterated derivatives")
    p.add_argument("form")
    p.set_defaults(fn=_cmd_apolar_dim)

    p = sub.add_parser("hilbert", parents=[common],
                       help="Hilbert function of the apolar algebra")
    p.add_argument("form")
    p.set_defaults(fn=_cmd_hilbert)

    p = sub.add_parser("annihilator", parents=[common],
                       help="echelonized annihilator elements up to a degree")
    p.add_argument("form")
    p.add_argument("--degree", type=int, default=None,
                   help="degree bound (default deg f + 1)")
    p.set_defaults(fn=_cmd_annihilator)

    p = sub.add_parser("cat-rank", parents=[common],
                       help="catalecticant rank of a homogeneous form")
    p.add_argument("form")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--max", action="store_true",
                   help="maximize over k (border-rank lower bound)")
    p.set_defaults(fn=_cmd_cat_rank)

    p = sub.add_parser("twist", parents=[common],
                       help="divide each term by the factorial of one "
                            "variable's exponent")
    p.add_argument("form")
    p.add_argument("--var", default=None,
                   help="twisting variable (default: first)")
    p.set_defaults(fn=_cmd_twist)

    p = sub.add_parser("encompass-check", parents=[common],
                       help="degree-one injectivity of the partials space")
    p.add_argument("form")
    p.set_defaults(fn=_cmd_encompass_check)

    p = sub.add_parser("growth", parents=[common],
                       help="apolar dimensions of powers vs the binomial "
                            "ceiling")
    p.add_argument("form")
    p.add_argument("--dmax", type=int, default=None)
    p.set_defaults(fn=_cmd_growth)

    p = sub.add_parser("extend", parents=[common],
                       help="embed into an encompassing polynomial with "
                            "fresh variables")
    p.add_argument("form")
    p.add_argument("--sigma", action="append", default=None,
                   help="override dual elements (repeatable)")
    p.set_defaults(fn=_cmd_extend)

    p = sub.add_parser("verify-taut", parents=[common],
                       help="homogenized annihilators of the "
                            "dehomogenization against the twisted form")
    p.add_argument("form")
    p.add_argument("--var", default=None)
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--untwisted", action="store_true",
                   help="negative control: skip the twist")
    p.set_defaults(fn=_cmd_verify_taut)

    p = sub.add_parser("verify-main-thm", parents=[common],
                       help="rank of the degree-d catalecticant of the "
                            "twisted d-th power vs the binomial value")
    p.add_argument("form")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--var", default=None)
    p.set_defaults(fn=_cmd_verify_main_thm)

    pt = sub.add_parser("tensor", help="tensor constructions")
    tsub = pt.add_subparsers(dest="tensor_cmd", required=True)

    p = tsub.add_parser("make", parents=[common],
                        help="build one of the named tensors")
    p.add_argument("mode",
                   choices=["cw", "group", "algebra", "atk", "ts", "onegen"])
    p.add_argument("--n", type=int, default=None, help="cw: side length")
    p.add_argument("--orders", default=None, help="group: e.g. 2x2 or 3")
    p.add_argument("--form", default=None, help="algebra: the polynomial")
    p.add_argument("--slices", default=None,
                   help="atk: @file with a partially symmetric tensor")
    p.add_argument("--tensor", default=None, help="ts/onegen: tensor spec")
    p.add_argument("--k", type=int, default=0, help="atk/onegen parameter")
    p.add_argument("--out", default=None, help="also write tensor JSON here")
    p.set_defaults(fn=_cmd_tensor_make)

    p = tsub.add_parser("kron", parents=[common],
                        help="Kronecker power with flat row-major indexing")
    p.add_argument("--tensor", required=True)
    p.add_argument("--power", "-N", type=int, required=True)
    p.add_argument("--full", action="store_true",
                   help="inline the full entry list in the report")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_tensor_kron)

    ps = sub.add_parser("sweet", help="blockings and sweet pieces")
    ssub = ps.add_subparsers(dest="sweet_cmd", required=True)

    p = ssub.add_parser("support", parents=[common],
                        help="support blocks of a blocked tensor")
    p.add_argument("--tensor", required=True)
    p.add_argument("--blocking", required=True)
    p.set_defaults(fn=_cmd_sweet_support)

    p = ssub.add_parser("tight", parents=[common],
                        help="do all support labels sum to zero?")
    p.add_argument("--tensor", required=True)
    p.add_argument("--blocking", required=True)
    p.set_defaults(fn=_cmd_sweet_tight)

    p = ssub.add_parser("marginals", parents=[common],
                        help="axis marginals and uniqueness of a block "
                             "distribution")
    p.add_argument("--tensor", required=True)
    p.add_argument("--blocking", required=True)
    p.add_argument("--dist", required=True)
    p.set_defaults(fn=_cmd_sweet_marginals)

    p = ssub.add_parser("extract", parents=[common],
                        help="sweet piece of a Kronecker power")
    p.add_argument("--tensor", required=True)
    p.add_argument("--blocking", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--power", "-N", type=int, required=True)
    p.add_argument("--allow-nontight", action="store_true",
                   help="skip the tightness precondition (recorded)")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sweet_extract)

    p = ssub.add_parser("chimney", parents=[common],
                        help="fix two axes to marginal-matching sequences")
    p.add_argument("--tensor", required=True)
    p.add_argument("--blocking", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--power", "-N", type=int, required=True)
    p.add_argument("--fixed", default="1,2",
                   help="1-based pair of fixed axes (default 1,2)")
    p.add_argument("--allow-nontight", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sweet_chimney)

    p = ssub.add_parser("degenerate", parents=[common],
                        help="kill positive-weight entries")
    p.add_argument("--tensor", required=True)
    p.add_argument("--blocking", required=True)
    p.add_argument("--weights", required=True,
                   help="cwdeg, inline a,b,..;..;.. or @file")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sweet_degenerate)

    p = ssub.add_parser("zero-layers", parents=[common],
                        help="count empty slices along an axis")
    p.add_argument("--tensor", required=True)
    p.add_argument("--axis", type=int, required=True, help="1-based")
    p.set_defaults(fn=_cmd_sweet_zero_layers)

    p = ssub.add_parser("bound", parents=[common],
                        help="substitution rank bound from zero layers")
    p.add_argument("--ambient-dim", type=int, required=True)
    p.add_argument("--zero-layers", type=int, required=True)
    p.add_argument("--family", default=None,
                   choices=list(MINIMAL_RANK_FAMILIES),
                   help="whitelisted minimal-rank ambient family")
    p.add_argument("--assert-minimal-rank", action="store_true",
                   help="caller vouches for the minimal-rank precondition")
    p.set_defaults(fn=_cmd_sweet_bound)

    p = ssub.add_parser("pratt", parents=[common],
                        help="binary chimney rank bound with enumeration "
                             "cross-check")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_sweet_pratt)

    p = ssub.add_parser("omega", parents=[common],
                        help="exponent bound log_a(r/p)")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--r", required=True)
    p.add_argument("--p", required=True)
    p.set_defaults(fn=_cmd_sweet_omega)

    p = ssub.add_parser("veronese", parents=[common],
                        help="every k-th graded dimension")
    p.add_argument("--dims", required=True, help="comma-separated")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_sweet_veronese)

    p = sub.add_parser("paper-suite", parents=[common],
                       help="run the built-in reference suite")
    p.add_argument("--only", action="append", default=None,
                   help="restrict to these entry ids (repeatable)")
    p.set_defaults(fn=_cmd_paper_suite)

    return ap


def run(argv: Sequence[str]) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    limits = _limits(args)
    try:
        return args.fn(args, limits)
    except LimitExceeded as exc:
        sys.stderr.write(f"resource guard: {exc}\n")
        return 3
    except (ParseError, VarMismatchError, ValueError, KeyError,
            json.JSONDecodeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
