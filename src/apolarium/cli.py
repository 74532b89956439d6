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
rows, sets the resource limits once and prints the runner's report.  The
runners live by command group: the polynomial commands in ``cli_poly``, the
tensor and sweet commands, with the loaders of the mini-languages below, in
``cli_tensor``, and ``paper-suite``'s here.  A row names its group's
``{path: runner}`` table, which ``run`` imports only for the chosen command,
and each runner imports the library modules it calls, so a command compiles
and loads only what it runs: ``sweet chimney`` never loads ``poly``,
``apolar``, ``exact`` or the polynomial runners, ``verify-main-thm`` never
loads ``tensor3``, ``sweet`` or the tensor runners, and ``paper-suite``
loads neither runner module.

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
from typing import Callable, Dict, NamedTuple, Sequence, Tuple

from . import guards

# the ambient families `sweet bound --family` accepts as minimal-rank
MINIMAL_RANK_FAMILIES = ("group-power", "binary-power")


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
    """Print the report as the runner built it.  Its inputs and outputs
    hold JSON values, str-keyed dicts, Fractions and Polys; the last two
    print as their str, in the JSON and in the table alike."""
    doc = {"command": args.command.path.replace(" ", "-"),
           "inputs": inputs, "outputs": outputs,
           "provenance": list(args.command.provenance), "seed": args.seed}
    if args.human:
        _print_human(doc)
    else:
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2,
                                    default=str) + "\n")


# -- runners: each returns (inputs, outputs) or (inputs, outputs, exit code) --
#
# A row of COMMANDS names the {path: runner} table of its group, which is
# imported only when one of the group's commands runs: a command compiles
# its own group's runners and no others.


def _poly_runners() -> Dict[str, Callable]:
    from .cli_poly import RUNNERS
    return RUNNERS


def _tensor_runners() -> Dict[str, Callable]:
    from .cli_tensor import RUNNERS
    return RUNNERS


def _suite_runners() -> Dict[str, Callable]:
    return {"paper-suite": _paper_suite}


def _paper_suite(args):
    from .papersuite import run_suite
    rep = run_suite(args.only)
    return {"only": args.only or []}, rep, 0 if rep["summary"]["failed"] == 0 else 1


# -- the command table ----------------------------------------------------------


class Command(NamedTuple):
    path: str              # "tensor make"; its report says "tensor-make"
    help: str
    args: tuple            # (flags, keywords) for add_argument, in order
    runners: Callable      # () -> the {path: runner} table of its group
    provenance: Tuple[str, ...]

    def runner(self) -> Callable:
        """The command's runner, from its group's table."""
        return self.runners()[self.path]


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
            (FORM,), _poly_runners,
            ("apolar-dim-product-of-linears", "apolar-dims-of-powers")),
    Command("hilbert", "Hilbert function of the apolar algebra", (FORM,),
            _poly_runners,
            ("apolar-dim-product-of-linears", "local-quadric-smoothing")),
    Command("annihilator", "echelonized annihilator elements up to a degree",
            (FORM, _a("--degree", type=int, default=None,
                      help="degree bound (default deg f + 1)")),
            _poly_runners, ("taut-apolarity-corpus",)),
    Command("cat-rank", "catalecticant rank of a homogeneous form",
            (FORM, _a("--k", type=int, default=None),
             _a("--max", action="store_true",
                help="maximize over k (border-rank lower bound)")),
            _poly_runners,
            ("twisted-cubic-catalecticant", "twist-necessity-control")),
    Command("twist",
            "divide each term by the factorial of one variable's exponent",
            (FORM, _a("--var", default=None,
                      help="twisting variable (default: first)")),
            _poly_runners, ("twisted-power-catalecticants",)),
    Command("encompass-check", "degree-one injectivity of the partials space",
            (FORM,), _poly_runners, ("encompassing-equivalences",)),
    Command("growth", "apolar dimensions of powers vs the binomial ceiling",
            (FORM, _a("--dmax", type=int, default=None)), _poly_runners,
            ("growth-never-exceeds-binomial", "growth-chain-experiment")),
    Command("extend",
            "embed into an encompassing polynomial with fresh variables",
            (FORM, _a("--sigma", action="append", default=None,
                      help="override dual elements (repeatable)")),
            _poly_runners,
            ("extension-literal-outputs", "extension-invariants")),
    Command("verify-taut", "homogenized annihilators of the "
            "dehomogenization against the twisted form",
            (FORM, VAR, _a("--bound", type=int, default=None),
             _a("--untwisted", action="store_true",
                help="negative control: skip the twist")),
            _poly_runners, ("taut-apolarity-corpus", "untwisted-control-fails",
                            "untwisted-univariate-control")),
    Command("verify-main-thm", "rank of the degree-d catalecticant of the "
            "twisted d-th power vs the binomial value",
            (FORM, _a("--d", type=int, required=True), VAR), _poly_runners,
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
            _tensor_runners,
            ("cw-support-size", "square-quadric-structure-tensor",
             "algebra-from-symmetric-slices", "onegen-identity-slice")),
    Command("tensor kron", "Kronecker power with flat row-major indexing",
            (TENSOR, POWER, _a("--full", action="store_true",
                               help="inline the full entry list in the report"),
             OUT), _tensor_runners,
            ("tightness-flags", "boxtimes-square-dimension")),
    Command("sweet support", "support blocks of a blocked tensor",
            (TENSOR, BLOCKING), _tensor_runners,
            ("group-toric-degeneration", "sp-disjointness-tensor")),
    Command("sweet tight", "do all support labels sum to zero?",
            (TENSOR, BLOCKING), _tensor_runners, ("tightness-flags",)),
    Command("sweet marginals",
            "axis marginals and uniqueness of a block distribution",
            (TENSOR, BLOCKING, DIST), _tensor_runners,
            ("sp-disjointness-tensor",)),
    Command("sweet extract", "sweet piece of a Kronecker power",
            (TENSOR, BLOCKING, DIST, POWER,
             _a("--allow-nontight", action="store_true",
                help="skip the tightness precondition (recorded)"), OUT),
            _tensor_runners, ("sp-disjointness-tensor",
                              "sp-degeneration-equality",
                              "disjointness-veronese-multiplication")),
    Command("sweet chimney", "fix two axes to marginal-matching sequences",
            (TENSOR, BLOCKING, DIST, POWER,
             _a("--fixed", default="1,2",
                help="1-based pair of fixed axes (default 1,2)"),
             _a("--allow-nontight", action="store_true"), OUT),
            _tensor_runners, ("chimney-zero-layers",)),
    Command("sweet degenerate", "kill positive-weight entries",
            (TENSOR, BLOCKING, _a("--weights", required=True,
                                  help="cwdeg, inline a,b,..;..;.. or @file"),
             OUT), _tensor_runners, ("group-toric-degeneration",)),
    Command("sweet zero-layers", "count empty slices along an axis",
            (TENSOR, _a("--axis", type=int, required=True, help="1-based")),
            _tensor_runners, ("chimney-zero-layers",)),
    Command("sweet bound", "substitution rank bound from zero layers",
            (_a("--ambient-dim", type=int, required=True),
             _a("--zero-layers", type=int, required=True),
             _a("--family", default=None, choices=list(MINIMAL_RANK_FAMILIES),
                help="whitelisted minimal-rank ambient family"),
             _a("--assert-minimal-rank", action="store_true",
                help="caller vouches for the minimal-rank precondition")),
            _tensor_runners,
            ("chimney-zero-layers", "pratt-bound-enumeration")),
    Command("sweet pratt",
            "binary chimney rank bound with enumeration cross-check",
            (K,), _tensor_runners, ("pratt-bound-enumeration",)),
    Command("sweet omega", "exponent bound log_a(r/p)",
            (_a("--a", type=int, required=True), _a("--r", required=True),
             _a("--p", required=True)), _tensor_runners,
            ("omega-logarithm-examples",)),
    Command("sweet veronese", "every k-th graded dimension",
            (_a("--dims", required=True, help="comma-separated"), K),
            _tensor_runners,
            ("veronese-dimension-slice", "veronese-subalgebra-dim")),
    Command("paper-suite", "run the built-in reference suite",
            (_a("--only", action="append", default=None,
                help="restrict to these entry ids (repeatable)"),),
            _suite_runners, ("*",)),
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
            inputs, outputs, *code = args.command.runner()(args)
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
