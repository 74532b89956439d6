"""Runners of the tensor and sweet commands, ``tensor make`` to
``sweet veronese``, with the loaders of their inline mini-languages.

``RUNNERS`` maps each command path to its runner; ``cli.run`` imports this
module only when one of these commands runs.  Each runner and loader
imports the library modules it calls; a runner returns (inputs, outputs),
which hold the ``doc()`` dicts of the tensors, blockings and
distributions it reports, as built.  JSON text is made here only by
``_load_file``, which parses an ``@file`` once, and ``_maybe_write``,
which writes ``--out``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

if TYPE_CHECKING:
    from .sweet import BlockDistribution, Blocking
    from .tensor3 import Tensor3


def _load_file(path: str, load: Callable):
    """load(the JSON document of the file), parsed once; a file that is not
    JSON, or a document of the wrong types or without a key that load
    reads, is a usage error that names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed document {path}: {exc}") from None
    try:
        return load(doc)
    except TypeError as exc:
        raise ValueError(f"malformed document {path}: {exc}") from None
    except KeyError as exc:
        raise ValueError(f"malformed document {path}: "
                         f"missing key {exc}") from None


def _load_tensor(spec: str) -> Tensor3:
    from .tensor3 import AbelianGroup, Tensor3, cw, group_tensor, tb
    if spec.startswith("@"):
        return _load_file(spec[1:], Tensor3.from_doc)
    if spec.startswith("cw:"):
        return cw(int(spec[3:]))
    if spec.startswith("group:"):
        orders = [int(t) for t in spec[6:].split("x")]
        return group_tensor(AbelianGroup(orders))
    if spec == "tb":
        return tb()
    if spec.startswith("apolar:"):
        from .apolar import structure_tensor_of_apolar
        from .cli_poly import _parse_form
        T, _ = structure_tensor_of_apolar(_parse_form(spec[7:]))
        return T
    raise ValueError(f"unknown tensor spec {spec!r} "
                     "(want cw:N, group:AxB, tb, apolar:FORM or @file)")


def _load_blocking(spec: str, T: Tensor3) -> Blocking:
    from .sweet import Blocking, cw_blocking, weight_blocking
    if spec.startswith("@"):
        return _load_file(spec[1:], Blocking.from_doc)
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
        return _load_file(spec[1:], BlockDistribution.from_doc)
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
        return _load_file(spec[1:], lambda doc: [
            list(ax) for ax in doc["weights"]])
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


def _maybe_write(path: Optional[str], obj) -> None:
    """Write obj's document as JSON and a newline to path, when a path is
    given; the document is built only then."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(obj.doc(), sort_keys=True) + "\n")


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
        from .cli_poly import _parse_form
        f = _parse_form(args.form)
        T, basis = structure_tensor_of_apolar(f)
        inputs["form"] = f
        extra = {"basis": basis}
    elif mode == "atk":
        if not args.slices:
            raise ValueError("atk mode needs --slices @file")
        S = _load_file(args.slices.lstrip("@"),
                       PartiallySymmetricTensor.from_doc)
        T = algebra_A_Tk(S, args.k)
        inputs["k"] = args.k
        inputs["slices"] = S.doc()
    else:  # ts or onegen; argparse admits no other mode
        if not args.tensor:
            raise ValueError(f"{mode} mode needs --tensor")
        base = _load_tensor(args.tensor)
        inputs["tensor"] = base.doc()
        if mode == "ts":
            S = symmetrize_TS(base)
            _maybe_write(args.out, S)
            return inputs, {"partially_symmetric": S.doc()}
        T = one_generic_extension(base, args.k)
        inputs["k"] = args.k
    _maybe_write(args.out, T)
    out = {"tensor": T.doc(), "nnz": T.nnz(), "dims": list(T.dims)}
    out.update(extra)
    return inputs, out


def _tensor_kron(args):
    from .tensor3 import kronecker_power
    T = _load_tensor(args.tensor)
    P = kronecker_power(T, args.power)
    _maybe_write(args.out, P)
    return ({"tensor": T.doc(), "power": args.power},
            {"dims": list(P.dims), "nnz": P.nnz(),
             "tensor": P.doc() if args.full else None})


def _sweet_support(args):
    from .sweet import support_blocks
    T, B = _blocked(args)
    blocks = support_blocks(T, B)
    return ({"tensor": T.doc(), "blocking": B.doc()},
            {"blocks": [{"labels": [list(l) for l in b.labels],
                         "format": list(b.format),
                         "nnz": b.tensor.nnz()} for b in blocks],
             "count": len(blocks)})


def _sweet_tight(args):
    from .sweet import is_tight
    T, B = _blocked(args)
    return ({"tensor": T.doc(), "blocking": B.doc()},
            {"tight": is_tight(T, B)})


def _sweet_marginals(args):
    from .sweet import marginal_uniqueness, marginals
    T, B = _blocked(args)
    P = _load_dist(args.dist, T, B)
    return ({"dist": P.doc()},
            {"marginals": [{str(list(k)): v for k, v in sorted(m.items())}
                           for m in marginals(P)],
             "uniqueness": marginal_uniqueness(P)})


def _sweet_extract(args):
    from .sweet import sp_extract, sweet_piece_report
    T, B = _blocked(args)
    P = _load_dist(args.dist, T, B)
    sp = sp_extract(T, B, P, args.power, check_tight=not args.allow_nontight)
    _maybe_write(args.out, sp.tensor)
    return ({"tensor": T.doc(), "blocking": B.doc(), "dist": P.doc(),
             "power": args.power,
             "tightness_check_skipped": bool(args.allow_nontight)},
            {"tensor": sp.tensor.doc(), "dims": list(sp.tensor.dims),
             "nnz": sp.tensor.nnz(), "p_T": sp.p_T,
             "kept_counts": [len(k) for k in sp.kept],
             "validation": sweet_piece_report(sp, B)})


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
    _maybe_write(args.out, C)
    return ({"tensor": T.doc(), "dist": P.doc(), "power": args.power,
             "fixed": fixed,
             "tightness_check_skipped": bool(args.allow_nontight)},
            {"dims": list(C.dims), "nnz": C.nnz(), "free_axis": free_axis,
             "zero_layers": zero_layers(C, free_axis - 1)})


def _sweet_degenerate(args):
    from .sweet import is_tight, toric_degenerate
    T, B = _blocked(args)
    w = _load_weights(args.weights, T)
    D = toric_degenerate(T, B, w)
    _maybe_write(args.out, D)
    return ({"tensor": T.doc(), "weights": w},
            {"tensor": D.doc(), "nnz": D.nnz(),
             "tight_after": is_tight(D, B)})


def _sweet_zero_layers(args):
    from .sweet import zero_layers
    T = _load_tensor(args.tensor)
    if not 1 <= args.axis <= 3:
        raise ValueError("--axis is 1-based: 1, 2 or 3")
    return ({"tensor": T.doc(), "axis": args.axis},
            {"zero_layers": zero_layers(T, args.axis - 1)})


def _sweet_bound(args):
    from .cli import MINIMAL_RANK_FAMILIES
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


RUNNERS = {
    "tensor make": _tensor_make,
    "tensor kron": _tensor_kron,
    "sweet support": _sweet_support,
    "sweet tight": _sweet_tight,
    "sweet marginals": _sweet_marginals,
    "sweet extract": _sweet_extract,
    "sweet chimney": _sweet_chimney,
    "sweet degenerate": _sweet_degenerate,
    "sweet zero-layers": _sweet_zero_layers,
    "sweet bound": _sweet_bound,
    "sweet pratt": _sweet_pratt,
    "sweet omega": _sweet_omega,
    "sweet veronese": _sweet_veronese,
}
