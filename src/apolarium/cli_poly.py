"""Runners of the polynomial commands, ``apolar-dim`` to ``verify-main-thm``.

``RUNNERS`` maps each command path to its runner; ``cli.run`` imports this
module only when one of these commands runs.  Each runner imports the
library modules it calls and returns (inputs, outputs) or (inputs,
outputs, exit code).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from . import guards

if TYPE_CHECKING:
    from .poly import Poly


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


RUNNERS = {
    "apolar-dim": _apolar_dim,
    "hilbert": _hilbert,
    "annihilator": _annihilator,
    "cat-rank": _cat_rank,
    "twist": _twist,
    "encompass-check": _encompass_check,
    "growth": _growth,
    "extend": _extend,
    "verify-taut": _verify_taut,
    "verify-main-thm": _verify_main_thm,
}
