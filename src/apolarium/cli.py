"""Command-line surface.

Every subcommand prints a single JSON report:

    {"command": ..., "inputs": ..., "outputs": ..., "provenance": [...],
     "seed": ...}

where inputs echo the parsed arguments in canonical form, provenance lists
the ids of the built-in reference-suite entries that exercise the same
computation, and the report is byte-identical across reruns with the same
arguments and seed.  ``--human`` renders the outputs as an indented key/value
table instead.

Each command is one row of ``COMMANDS``; ``run`` builds the parser from the
rows, sets the resource limits once and prints the runner's report.  Each
runner imports the library modules it calls, so a command compiles and loads
only what it runs: ``sweet chimney`` never loads ``poly`` or ``apolar``, and
``verify-main-thm`` never loads ``tensor3`` or ``sweet``.

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
import sys
from fractions import Fraction
from typing import (TYPE_CHECKING, Callable, List, NamedTuple, Optional,
                    Sequence, Tuple)

from . import guards

if TYPE_CHECKING:
    from .poly import Poly
    from .sweet import BlockDistribution, Blocking
    from .tensor3 import Tensor3

# the ambient families `sweet bound --family` accepts as minimal-rank
MINIMAL_RANK_FAMILIES = ("group-power", "binary-power")


def _jsonable(x):
    """Reports hold JSON values, Fractions and Polys; the last two print as
    their str."""
    if isinstance(x, dict):
        return {str(_jsonable(k)): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if x is None or isinstance(x, (str, int, float, bool)):
        return x
    return str(x)


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


def _emit(args, inputs: dict, outputs: dict) -> None:
    doc = {"command": args.command.path.replace(" ", "-"),
           "inputs": _jsonable(inputs), "outputs": _jsonable(outputs),
           "provenance": list(args.command.provenance), "seed": args.seed}
    if args.human:
        _print_human(doc)
    else:
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _parse_form(text: str) -> Poly:
    from .poly import parse
    f = parse(text)
    guards.check_degree(max(f.degree(), 0))
    guards.check_terms(len(f.terms))
    return f


def _var(F: Poly, var: Optional[str]) -> str:
    """The --var given, or else the first variable of F."""
    if var:
        return var
    if not F.vars:
        raise ValueError("the form has no variables")
    return F.vars[0]


def _load_file(path: str, load: Callable):
    """load(text of the file); JSON of the wrong types is a usage error."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return load(text)
    except TypeError as exc:
        raise ValueError(f"malformed document {path}: {exc}") from None


def _load_tensor(spec: str) -> Tensor3:
    from .tensor3 import AbelianGroup, Tensor3, cw, group_tensor, tb
    if spec.startswith("@"):
        return _load_file(spec[1:], Tensor3.from_json)
    if spec.startswith("cw:"):
        return cw(int(spec[3:]))
    if spec.startswith("group:"):
        orders = [int(t) for t in spec[6:].split("x")]
        return group_tensor(AbelianGroup(orders))
    if spec == "tb":
        return tb()
    if spec.startswith("apolar:"):
        from .apolar import structure_tensor_of_apolar
        T, _ = structure_tensor_of_apolar(_parse_form(spec[7:]))
        return T
    raise ValueError(f"unknown tensor spec {spec!r} "
                     "(want cw:N, group:AxB, tb, apolar:FORM or @file)")


def _load_blocking(spec: str, T: Tensor3) -> Blocking:
    from .sweet import Blocking, cw_blocking, weight_blocking
    if spec.startswith("@"):
        return _load_file(spec[1:], Blocking.from_json)
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


def _load_dist(spec: str, T: Tensor3, B: Blocking) -> BlockDistribution:
    from .sweet import BlockDistribution, CW_LARGE, support_blocks
    if spec.startswith("@"):
        return _load_file(spec[1:], BlockDistribution.from_json)
    blocks = [b.labels for b in support_blocks(T, B)]
    if spec == "uniform":
        return BlockDistribution.uniform(blocks)
    if spec == "large":
        chosen = [lab for lab in blocks if lab in CW_LARGE]
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
    from .sweet import cw_weights
    if spec.startswith("@"):
        return _load_file(spec[1:], lambda text: [
            list(ax) for ax in json.loads(text)["weights"]])
    if spec == "cwdeg":
        if len(set(T.dims)) != 1 or T.dims[0] < 3:
            raise ValueError("cwdeg weights need a cube of side >= 3")
        return cw_weights(T.dims[0])
    axes = spec.split(";")
    if len(axes) != 3:
        raise ValueError("inline weights need three ;-separated axes")
    return [[int(t) for t in ax.split(",")] for ax in axes]


def _blocked(args) -> Tuple[Tensor3, Blocking]:
    T = _load_tensor(args.tensor)
    return T, _load_blocking(args.blocking, T)


def _tensor_doc(T: Tensor3) -> dict:
    return json.loads(T.to_json())


def _maybe_write(path: Optional[str], text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


# -- runners: each returns (inputs, outputs) or (inputs, outputs, exit code) --


def _apolar_dim(args):
    from .apolar import apolar_dim, is_concise
    f = _parse_form(args.form)
    return {"form": f}, {"dim": apolar_dim(f), "concise": is_concise(f)}


def _hilbert(args):
    from .apolar import hilbert_function
    f = _parse_form(args.form)
    hf = list(hilbert_function(f))
    return {"form": f}, {"hilbert_function": hf, "dim": sum(hf)}


def _annihilator(args):
    from .apolar import annihilator_upto
    f = _parse_form(args.form)
    bound = args.degree if args.degree is not None else f.degree() + 1
    gens = annihilator_upto(f, bound)
    return ({"form": f, "degree_bound": bound},
            {"generators": gens, "count": len(gens)})


def _cat_rank(args):
    from .apolar import catalecticant_rank, hilbert_function
    F = _parse_form(args.form)
    if not F.is_homogeneous():
        raise ValueError("catalecticants are defined for homogeneous forms")
    if args.max:
        ranks = list(hilbert_function(F))  # rank Cat_k(F) for k = 0..deg F
        rank = max(ranks)
        out = {"max_rank": rank, "at_k": ranks.index(rank),
               "border_rank_lower_bound": rank}
    else:
        if args.k is None:
            raise ValueError("pass --k or --max")
        out = {"k": args.k, "rank": catalecticant_rank(F, args.k)}
    return {"form": F, "k": args.k, "max": args.max}, out


def _twist(args):
    from .poly import twist
    F = _parse_form(args.form)
    v = _var(F, args.var)
    return {"form": F, "var": v}, {"twisted": twist(F, v)}


def _encompass_check(args):
    from .encompass import encompassing_report
    f = _parse_form(args.form)
    rep = encompassing_report(f, seed=args.seed)
    return {"form": f}, {"encompassing": rep.encompassing,
                         "almost_encompassing": rep.almost_encompassing,
                         "partials_dim": rep.dim,
                         "gradient_generic_rank": rep.gradient_rank}


def _growth(args):
    from .encompass import growth_table
    f = _parse_form(args.form)
    dmax = args.dmax if args.dmax is not None else f.degree()
    if dmax < 1:
        raise ValueError(f"growth needs dmax >= 1, not {dmax}")
    rows = growth_table(f, dmax)
    table = [{"d": d, "dim": dim, "ceiling": ceiling, "maximal": maximal}
             for d, (dim, ceiling, maximal) in enumerate(rows, start=1)]
    return ({"form": f, "dmax": dmax},
            {"dims": [dim for dim, _, _ in rows], "table": table,
             "maximal_throughout": all(maximal for _, _, maximal in rows)})


def _extend(args):
    from .encompass import encompassing_extension, is_encompassing
    from .poly import parse
    f = _parse_form(args.form)
    override = [parse(s, f.vars) for s in args.sigma] if args.sigma else None
    ext = encompassing_extension(f, sigma_override=override)
    return ({"form": f, "sigma_override": override or []},
            {"g": ext.g, "G": ext.G, "sigmas": ext.sigma_list,
             "y_vars": list(ext.y_vars),
             "encompassing": is_encompassing(ext.g)})


def _verify_taut(args):
    from .apolar import verify_tautological_apolarity
    F = _parse_form(args.form)
    v = _var(F, args.var)
    rep = verify_tautological_apolarity(F, v, bound=args.bound,
                                        twisted=not args.untwisted)
    return ({"form": F, "var": v, "bound": rep.bound,
             "twisted": not args.untwisted},
            {"generators": rep.generators, "kills": rep.kills,
             "all_pass": rep.all_pass},
            0 if rep.all_pass else 1)


def _verify_main_thm(args):
    from .encompass import verify_main_theorem
    F = _parse_form(args.form)
    v = _var(F, args.var)
    rep = verify_main_theorem(F, v, args.d)
    return ({"form": F, "var": v, "d": args.d},
            {"rank": rep.rank, "expected": rep.expected, "equal": rep.equal,
             "assumptions": rep.assumptions,
             "out_of_scope": list(rep.out_of_scope)},
            0 if rep.equal else 1)


def _tensor_make(args):
    from .tensor3 import (AbelianGroup, PartiallySymmetricTensor, algebra_A_Tk,
                          cw, group_tensor, one_generic_extension,
                          symmetrize_TS)
    mode = args.mode
    inputs: dict = {"mode": mode}
    extra = {}
    if mode == "cw":
        if args.n is None:
            raise ValueError("cw mode needs --n")
        T = cw(args.n)
        inputs["n"] = args.n
    elif mode == "group":
        if not args.orders:
            raise ValueError("group mode needs --orders like 2x2")
        orders = [int(t) for t in args.orders.split("x")]
        T = group_tensor(AbelianGroup(orders))
        inputs["orders"] = orders
    elif mode == "algebra":
        if not args.form:
            raise ValueError("algebra mode needs --form")
        from .apolar import structure_tensor_of_apolar
        f = _parse_form(args.form)
        T, basis = structure_tensor_of_apolar(f)
        inputs["form"] = f
        extra = {"basis": basis}
    elif mode == "atk":
        if not args.slices:
            raise ValueError("atk mode needs --slices @file")
        S = _load_file(args.slices.lstrip("@"),
                       PartiallySymmetricTensor.from_json)
        T = algebra_A_Tk(S, args.k)
        inputs["k"] = args.k
        inputs["slices"] = json.loads(S.to_json())
    else:  # ts or onegen; argparse admits no other mode
        if not args.tensor:
            raise ValueError(f"{mode} mode needs --tensor")
        base = _load_tensor(args.tensor)
        inputs["tensor"] = _tensor_doc(base)
        if mode == "ts":
            S = symmetrize_TS(base)
            _maybe_write(args.out, S.to_json())
            return inputs, {"partially_symmetric": json.loads(S.to_json())}
        T = one_generic_extension(base, args.k)
        inputs["k"] = args.k
    _maybe_write(args.out, T.to_json())
    out = {"tensor": _tensor_doc(T), "nnz": T.nnz(), "dims": list(T.dims)}
    out.update(extra)
    return inputs, out


def _tensor_kron(args):
    from .tensor3 import kronecker_power
    T = _load_tensor(args.tensor)
    P = kronecker_power(T, args.power)
    _maybe_write(args.out, P.to_json())
    return ({"tensor": _tensor_doc(T), "power": args.power},
            {"dims": list(P.dims), "nnz": P.nnz(),
             "tensor": _tensor_doc(P) if args.full else None})


def _sweet_support(args):
    from .sweet import support_blocks
    T, B = _blocked(args)
    blocks = support_blocks(T, B)
    return ({"tensor": _tensor_doc(T), "blocking": json.loads(B.to_json())},
            {"blocks": [{"labels": [list(l) for l in b.labels],
                         "format": list(b.format),
                         "nnz": b.tensor.nnz()} for b in blocks],
             "count": len(blocks)})


def _sweet_tight(args):
    from .sweet import is_tight
    T, B = _blocked(args)
    return ({"tensor": _tensor_doc(T), "blocking": json.loads(B.to_json())},
            {"tight": is_tight(T, B)})


def _sweet_marginals(args):
    from .sweet import marginal_uniqueness, marginals
    T, B = _blocked(args)
    P = _load_dist(args.dist, T, B)
    return ({"dist": json.loads(P.to_json())},
            {"marginals": [{str(list(k)): v for k, v in sorted(m.items())}
                           for m in marginals(P)],
             "uniqueness": marginal_uniqueness(P)})


def _sweet_extract(args):
    from .sweet import sp_extract, sweet_piece_report
    T, B = _blocked(args)
    P = _load_dist(args.dist, T, B)
    sp = sp_extract(T, B, P, args.power, check_tight=not args.allow_nontight)
    _maybe_write(args.out, sp.tensor.to_json())
    return ({"tensor": _tensor_doc(T), "blocking": json.loads(B.to_json()),
             "dist": json.loads(P.to_json()), "power": args.power,
             "tightness_check_skipped": bool(args.allow_nontight)},
            {"tensor": _tensor_doc(sp.tensor), "dims": list(sp.tensor.dims),
             "nnz": sp.tensor.nnz(), "p_T": sp.p_T,
             "kept_counts": [len(k) for k in sp.kept],
             "validation": sweet_piece_report(sp)})


def _sweet_chimney(args):
    from .sweet import chimney, zero_layers
    T, B = _blocked(args)
    P = _load_dist(args.dist, T, B)
    fixed = [int(t) for t in args.fixed.split(",")]
    if len(fixed) != 2 or len({1, 2, 3} & set(fixed)) != 2:
        raise ValueError("--fixed is two distinct 1-based axes among 1, 2 and 3, "
                         f"got {args.fixed}")
    C = chimney(T, B, P, args.power, fixed_pair=(fixed[0] - 1, fixed[1] - 1),
                check_tight=not args.allow_nontight)
    free_axis = ({1, 2, 3} - set(fixed)).pop()
    _maybe_write(args.out, C.to_json())
    return ({"tensor": _tensor_doc(T), "dist": json.loads(P.to_json()),
             "power": args.power, "fixed": fixed,
             "tightness_check_skipped": bool(args.allow_nontight)},
            {"dims": list(C.dims), "nnz": C.nnz(), "free_axis": free_axis,
             "zero_layers": zero_layers(C, free_axis - 1)})


def _sweet_degenerate(args):
    from .sweet import is_tight, toric_degenerate
    T, B = _blocked(args)
    w = _load_weights(args.weights, T)
    D = toric_degenerate(T, B, w)
    _maybe_write(args.out, D.to_json())
    return ({"tensor": _tensor_doc(T), "weights": w},
            {"tensor": _tensor_doc(D), "nnz": D.nnz(),
             "tight_after": is_tight(D, B)})


def _sweet_zero_layers(args):
    from .sweet import zero_layers
    T = _load_tensor(args.tensor)
    if not 1 <= args.axis <= 3:
        raise ValueError("--axis is 1-based: 1, 2 or 3")
    return ({"tensor": _tensor_doc(T), "axis": args.axis},
            {"zero_layers": zero_layers(T, args.axis - 1)})


def _sweet_bound(args):
    from .sweet import substitution_bound
    if args.family is None and not args.assert_minimal_rank:
        raise ValueError(
            "the substitution bound needs a minimal-rank ambient tensor: "
            f"pass --family {{{','.join(MINIMAL_RANK_FAMILIES)}}} or "
            "--assert-minimal-rank to take responsibility")
    return ({"ambient_dim": args.ambient_dim, "zero_layers": args.zero_layers,
             "family": args.family,
             "minimal_rank_asserted_by_caller": bool(args.assert_minimal_rank)},
            {"rank_bound": substitution_bound(args.ambient_dim,
                                              args.zero_layers)})


def _sweet_pratt(args):
    from .sweet import even_symdiff_count, formula_pratt
    bound = formula_pratt(args.k)
    out = {"k": args.k, "bound": bound}
    if args.k <= 4:
        enum = even_symdiff_count(args.k)
        out["even_symdiff_count"] = enum
        out["agree"] = enum == bound
    return {"k": args.k}, out


def _sweet_omega(args):
    from .sweet import omega_bound
    return ({"a": args.a, "r": args.r, "p": args.p},
            {"omega_bound": omega_bound(args.a, Fraction(args.r),
                                        Fraction(args.p)),
             "note": "binary float; every other output in this package is "
                     "exact"})


def _sweet_veronese(args):
    from .sweet import veronese_dims
    dims = [int(t) for t in args.dims.split(",")]
    return {"dims": dims, "k": args.k}, {"veronese_dims": veronese_dims(dims, args.k)}


def _paper_suite(args):
    from .papersuite import run_suite
    rep = run_suite(args.only)
    return {"only": args.only or []}, rep, 0 if rep["summary"]["failed"] == 0 else 1


# -- the command table ----------------------------------------------------------


class Command(NamedTuple):
    path: str              # "tensor make"; its report says "tensor-make"
    help: str
    args: tuple            # (flags, keywords) for add_argument, in order
    run: Callable          # args -> (inputs, outputs[, exit code])
    provenance: Tuple[str, ...]


def _a(*flags: str, **kw):
    return flags, kw


FORM = _a("form")
VAR = _a("--var", default=None)
K = _a("--k", type=int, required=True)
TENSOR = _a("--tensor", required=True)
BLOCKING = _a("--blocking", required=True)
DIST = _a("--dist", required=True)
POWER = _a("--power", "-N", type=int, required=True)
OUT = _a("--out", default=None)

GROUPS = {"tensor": "tensor constructions",
          "sweet": "blockings and sweet pieces"}

COMMANDS = [
    Command("apolar-dim", "dimension of the space of iterated derivatives",
            (FORM,), _apolar_dim,
            ("apolar-dim-product-of-linears", "apolar-dims-of-powers")),
    Command("hilbert", "Hilbert function of the apolar algebra", (FORM,),
            _hilbert,
            ("apolar-dim-product-of-linears", "local-quadric-smoothing")),
    Command("annihilator", "echelonized annihilator elements up to a degree",
            (FORM, _a("--degree", type=int, default=None,
                      help="degree bound (default deg f + 1)")),
            _annihilator, ("taut-apolarity-corpus",)),
    Command("cat-rank", "catalecticant rank of a homogeneous form",
            (FORM, _a("--k", type=int, default=None),
             _a("--max", action="store_true",
                help="maximize over k (border-rank lower bound)")),
            _cat_rank,
            ("twisted-cubic-catalecticant", "twist-necessity-control")),
    Command("twist",
            "divide each term by the factorial of one variable's exponent",
            (FORM, _a("--var", default=None,
                      help="twisting variable (default: first)")),
            _twist, ("twisted-power-catalecticants",)),
    Command("encompass-check", "degree-one injectivity of the partials space",
            (FORM,), _encompass_check, ("encompassing-equivalences",)),
    Command("growth", "apolar dimensions of powers vs the binomial ceiling",
            (FORM, _a("--dmax", type=int, default=None)), _growth,
            ("growth-never-exceeds-binomial", "growth-chain-experiment")),
    Command("extend",
            "embed into an encompassing polynomial with fresh variables",
            (FORM, _a("--sigma", action="append", default=None,
                      help="override dual elements (repeatable)")),
            _extend, ("extension-literal-outputs", "extension-invariants")),
    Command("verify-taut", "homogenized annihilators of the "
            "dehomogenization against the twisted form",
            (FORM, VAR, _a("--bound", type=int, default=None),
             _a("--untwisted", action="store_true",
                help="negative control: skip the twist")),
            _verify_taut, ("taut-apolarity-corpus", "untwisted-control-fails",
                           "untwisted-univariate-control")),
    Command("verify-main-thm", "rank of the degree-d catalecticant of the "
            "twisted d-th power vs the binomial value",
            (FORM, _a("--d", type=int, required=True), VAR), _verify_main_thm,
            ("main-theorem-rank-equalities", "twist-necessity-control")),
    Command("tensor make", "build one of the named tensors",
            (_a("mode", choices=["cw", "group", "algebra", "atk", "ts",
                                 "onegen"]),
             _a("--n", type=int, default=None, help="cw: side length"),
             _a("--orders", default=None, help="group: e.g. 2x2 or 3"),
             _a("--form", default=None, help="algebra: the polynomial"),
             _a("--slices", default=None,
                help="atk: @file with a partially symmetric tensor"),
             _a("--tensor", default=None, help="ts/onegen: tensor spec"),
             _a("--k", type=int, default=0, help="atk/onegen parameter"),
             _a("--out", default=None, help="also write tensor JSON here")),
            _tensor_make, ("cw-support-size", "square-quadric-structure-tensor",
                           "algebra-from-symmetric-slices",
                           "onegen-identity-slice")),
    Command("tensor kron", "Kronecker power with flat row-major indexing",
            (TENSOR, POWER, _a("--full", action="store_true",
                               help="inline the full entry list in the report"),
             OUT), _tensor_kron,
            ("tightness-flags", "boxtimes-square-dimension")),
    Command("sweet support", "support blocks of a blocked tensor",
            (TENSOR, BLOCKING), _sweet_support,
            ("group-toric-degeneration", "sp-disjointness-tensor")),
    Command("sweet tight", "do all support labels sum to zero?",
            (TENSOR, BLOCKING), _sweet_tight, ("tightness-flags",)),
    Command("sweet marginals",
            "axis marginals and uniqueness of a block distribution",
            (TENSOR, BLOCKING, DIST), _sweet_marginals,
            ("sp-disjointness-tensor",)),
    Command("sweet extract", "sweet piece of a Kronecker power",
            (TENSOR, BLOCKING, DIST, POWER,
             _a("--allow-nontight", action="store_true",
                help="skip the tightness precondition (recorded)"), OUT),
            _sweet_extract, ("sp-disjointness-tensor",
                             "sp-degeneration-equality",
                             "disjointness-veronese-multiplication")),
    Command("sweet chimney", "fix two axes to marginal-matching sequences",
            (TENSOR, BLOCKING, DIST, POWER,
             _a("--fixed", default="1,2",
                help="1-based pair of fixed axes (default 1,2)"),
             _a("--allow-nontight", action="store_true"), OUT),
            _sweet_chimney, ("chimney-zero-layers",)),
    Command("sweet degenerate", "kill positive-weight entries",
            (TENSOR, BLOCKING, _a("--weights", required=True,
                                  help="cwdeg, inline a,b,..;..;.. or @file"),
             OUT), _sweet_degenerate, ("group-toric-degeneration",)),
    Command("sweet zero-layers", "count empty slices along an axis",
            (TENSOR, _a("--axis", type=int, required=True, help="1-based")),
            _sweet_zero_layers, ("chimney-zero-layers",)),
    Command("sweet bound", "substitution rank bound from zero layers",
            (_a("--ambient-dim", type=int, required=True),
             _a("--zero-layers", type=int, required=True),
             _a("--family", default=None, choices=list(MINIMAL_RANK_FAMILIES),
                help="whitelisted minimal-rank ambient family"),
             _a("--assert-minimal-rank", action="store_true",
                help="caller vouches for the minimal-rank precondition")),
            _sweet_bound, ("chimney-zero-layers", "pratt-bound-enumeration")),
    Command("sweet pratt",
            "binary chimney rank bound with enumeration cross-check",
            (K,), _sweet_pratt, ("pratt-bound-enumeration",)),
    Command("sweet omega", "exponent bound log_a(r/p)",
            (_a("--a", type=int, required=True), _a("--r", required=True),
             _a("--p", required=True)), _sweet_omega,
            ("omega-logarithm-examples",)),
    Command("sweet veronese", "every k-th graded dimension",
            (_a("--dims", required=True, help="comma-separated"), K),
            _sweet_veronese,
            ("veronese-dimension-slice", "veronese-subalgebra-dim")),
    Command("paper-suite", "run the built-in reference suite",
            (_a("--only", action="append", default=None,
                help="restrict to these entry ids (repeatable)"),),
            _paper_suite, ("*",)),
]


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
    subs = {"": ap.add_subparsers(dest="cmd", required=True)}
    for cmd in COMMANDS:
        group, _, name = cmd.path.rpartition(" ")
        if group not in subs:
            pg = subs[""].add_parser(group, help=GROUPS[group])
            subs[group] = pg.add_subparsers(dest=f"{group}_cmd", required=True)
        p = subs[group].add_parser(name, parents=[common], help=cmd.help)
        for flags, kw in cmd.args:
            p.add_argument(*flags, **kw)
        p.set_defaults(command=cmd)
    return ap


def run(argv: Sequence[str]) -> int:
    args = _build_parser().parse_args(argv)
    given = {k: getattr(args, k) for k in ("max_terms", "max_entries",
                                           "max_degree")
             if getattr(args, k) is not None}
    try:
        with guards.limits(**given):
            inputs, outputs, *code = args.command.run(args)
        _emit(args, inputs, outputs)
    except guards.LimitExceeded as exc:
        sys.stderr.write(f"resource guard: {exc}\n")
        return 3
    except (ValueError, KeyError, ZeroDivisionError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return code[0] if code else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
