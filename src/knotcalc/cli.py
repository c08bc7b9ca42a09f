"""Command-line interface.

Subcommands:

    validate FILE
    reduce FILE [-o OUT]
    tensor A B [-o OUT]
    dual FILE [-o OUT]
    std PARAMS [-o OUT]
    rep FILE | rep --expr EXPR
    inv FILE [--json] | inv --expr EXPR [--json]
    cmp A B
    shift M PARAMS [--u | --v]
    alex torus P Q
    alex cable P Q POLY
    lspace POLY

Exit status: 0 on success, 1 on domain errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from typing import Optional, Sequence

from . import algebra, alexander, localequiv, parsing, standard
from .errors import KnotCalcError, RecipeTooLargeError


def _load(path: str) -> algebra.Complex:
    with open(path, "r", encoding="utf-8") as fh:
        return parsing.parse_complex_file(fh.read())


def _refuse_over_limit(what: str, size: int) -> None:
    if size > alexander.MAX_RECIPE_GENS:
        raise RecipeTooLargeError(
            f"{what} has {size} generators, over the limit of {alexander.MAX_RECIPE_GENS}"
        )


def _load_bounded(path: str) -> algebra.Complex:
    """Load a complex file that reduce or the solver will run on, refusing
    one with more than alexander.MAX_RECIPE_GENS generators first."""
    c = _load(path)
    _refuse_over_limit(f"complex file {path}", len(c.gens))
    return c


def _emit(c: algebra.Complex, out: Optional[str]) -> None:
    text = parsing.serialize_complex(c)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _half(n: int):
    return n // 2 if n % 2 == 0 else n / 2


def _invariants(params: standard.Params) -> dict:
    ph = standard.phi(params)
    n = standard.N_of(params)
    return {
        "rep": list(params),
        "phi": {str(j): v for j, v in ph.items()},
        "tau": standard.tau_of(params),
        "P": standard.P_of(params),
        "N": n,
        "gc_lower": _half(n),
        "uc_lower": n,
        "symmetric": standard.is_symmetric(params),
    }


def _print_invariants(inv: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(inv))
        return
    print(f"rep: {standard.format_params(inv['rep'])}")
    phi_body = ", ".join(f"{j}: {v}" for j, v in inv["phi"].items())
    print(f"phi: {{{phi_body}}}")
    for key in ("tau", "P", "N", "gc_lower", "uc_lower"):
        print(f"{key}: {inv[key]}")
    print(f"symmetric: {'true' if inv['symmetric'] else 'false'}")


def _rep_params(args) -> standard.Params:
    if args.expr is not None:
        return alexander.eval_recipe(args.expr).params
    return localequiv.standard_rep(_load_bounded(args.file)).params


@functools.cache  # parse_args keeps no state in the parser, so one serves every run
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="knotcalc", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a complex file")
    p.add_argument("file")

    for name in ("reduce", "dual"):
        p = sub.add_parser(name, help=f"{name} a complex file")
        p.add_argument("file")
        p.add_argument("-o", "--output")

    p = sub.add_parser("tensor", help="tensor product of two complex files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("-o", "--output")

    p = sub.add_parser("std", help="write the standard complex of a parameter list")
    p.add_argument("params")
    p.add_argument("-o", "--output")

    for name in ("rep", "inv"):
        p = sub.add_parser(name, help="standard representative" if name == "rep" else "invariants")
        p.add_argument("file", nargs="?")
        p.add_argument("--expr")
        if name == "inv":
            p.add_argument("--json", action="store_true")

    p = sub.add_parser("cmp", help="compare two complex files in the local order")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("shift", help="apply the arrow-lengthening shift to parameters")
    p.add_argument("m", type=int)
    p.add_argument("params")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--u", action="store_true", help="shift U-arrows (odd positions) only")
    g.add_argument("--v", action="store_true", help="shift V-arrows (even positions) only")

    p = sub.add_parser("alex", help="Alexander polynomials")
    asub = p.add_subparsers(dest="alex_command", required=True)
    pt = asub.add_parser("torus")
    pt.add_argument("p", type=int)
    pt.add_argument("q", type=int)
    pc = asub.add_parser("cable")
    pc.add_argument("p", type=int)
    pc.add_argument("q", type=int)
    pc.add_argument("poly")

    p = sub.add_parser("lspace", help="staircase data of an L-space Alexander polynomial")
    p.add_argument("poly")

    return top


def run(argv: Sequence[str]) -> int:
    """Run one command; returns the exit status.

    The cyclic GC is paused for the command: a command builds no cycles, so
    reference counting frees all it allocates, and each collection would
    only walk every live complex again."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2

    try:
        if args.command in ("rep", "inv"):
            if (args.file is None) == (args.expr is None):
                print("error: give exactly one of FILE or --expr", file=sys.stderr)
                return 2

        if args.command == "validate":
            c = _load(args.file)
            print(f"ok: {len(c.gens)} generators, {sum(1 for _ in c.edges())} arrows, "
                  f"reduced={'true' if c.is_reduced else 'false'}")
        elif args.command == "reduce":
            _emit(algebra.reduce(_load_bounded(args.file)), args.output)
        elif args.command == "dual":
            _emit(algebra.dual(_load(args.file)), args.output)
        elif args.command == "tensor":
            a, b = _load(args.a), _load(args.b)
            _refuse_over_limit("tensor product", len(a.gens) * len(b.gens))
            _emit(algebra.tensor(a, b), args.output)
        elif args.command == "std":
            params = standard.parse_params(args.params)
            _emit(standard.build_standard(params), args.output)
        elif args.command == "rep":
            print(standard.format_params(_rep_params(args)))
        elif args.command == "inv":
            _print_invariants(_invariants(_rep_params(args)), args.json)
        elif args.command == "cmp":
            order = localequiv.compare(_load_bounded(args.a), _load_bounded(args.b))
            print({-1: "<", 0: "~", 1: ">"}[order])
        elif args.command == "shift":
            params = standard.parse_params(args.params)
            mode = "u" if args.u else "v" if args.v else "both"
            print(standard.format_params(standard.shift(params, args.m, mode)))
        elif args.command == "alex":
            if args.alex_command == "torus":
                print(alexander.torus_delta(args.p, args.q))
            else:
                inner = alexander.parse_poly(args.poly)
                print(alexander.cable_delta(args.p, args.q, inner))
        elif args.command == "lspace":
            delta = alexander.parse_poly(args.poly)
            data = alexander.staircase_data(delta)
            params = alexander.staircase_params(delta)
            print(f"c: {standard.format_params(data.c)}")
            print(f"rep: {standard.format_params(params)}")
    except (KnotCalcError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
