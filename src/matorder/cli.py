"""Command line front end.

Matrices travel as JSON files (see matrix_to_dict for the wire format).
Exit codes: 0 for success (for ``check``: the relation holds), 1 for a
false verdict or failed fuzz property, 2 for any usage or input error.
Each command imports the modules it runs, so that a process loads (and,
without cached bytecode, compiles) no other part of the package.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from pathlib import Path

import numpy as np

from .errors import MatOrderError
from .matrix import EQ_TOL, EXACT, FLOAT, matrix_from_json, matrix_to_dict
from .orders import DIAMOND_ROUTES, RELATIONS
from .pinv import moore_penrose


def _inputs(args, paths, need_float: bool = False) -> list:
    """The matrices in the JSON files ``paths``, with --backend applied
    (exact can cast up to float only); an error that reading or parsing a
    file raises names it."""
    mats = []
    for path in paths:
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise MatOrderError("cannot read %s: %s" % (path, exc)) from exc
        try:
            mats.append(matrix_from_json(data))
        except MatOrderError as exc:
            raise type(exc)("%s: %s" % (path, exc)) from exc
    choice = args.backend
    if choice == FLOAT:
        mats = [m.to_float() for m in mats]
    elif choice == EXACT:
        if any(m.backend != EXACT for m in mats):
            raise MatOrderError("cannot cast float input to the exact backend")
    else:
        backends = {m.backend for m in mats}
        if len(backends) > 1:
            raise MatOrderError("inputs mix backends; pass --backend float to cast")
    if need_float and any(m.backend != FLOAT for m in mats):
        raise MatOrderError("this command needs float matrices; pass --backend float")
    return mats


def _emit(obj):
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:
        raise MatOrderError("result holds a non-finite number") from exc
    print(text)


def cmd_check(args) -> int:
    a, b = _inputs(args, [args.a, args.b])
    if args.via != "definition" and args.order != "diamond":
        raise MatOrderError("--via only applies to --order diamond")
    if args.order == "diamond":
        fn = DIAMOND_ROUTES[args.via]
    else:
        fn = RELATIONS[args.order]
    # check's space report also cross-checks five inner inverses, sampled
    # from --seed
    extra = ({"inner_samples": 5, "rng": random.Random(args.seed)}
             if args.order == "space" else {})
    report = fn(a, b, args.tol, **extra)
    out = report.to_dict()
    # under --tol 0 a residual of pure roundoff has an infinite margin,
    # which JSON cannot spell; any other non-finite value is still refused
    if out["witnesses"].get("margin") == math.inf:
        out["witnesses"] = dict(out["witnesses"], margin=None)
    _emit(out)
    return 0 if report.verdict else 1


def cmd_pinv(args) -> int:
    (a,) = _inputs(args, [args.matrix])
    _emit(matrix_to_dict(moore_penrose(a)))
    return 0


def cmd_decompose(args) -> int:
    from .decomp import hartwig_spindelbock, svd
    (b,) = _inputs(args, [args.matrix], need_float=True)
    form = (svd if args.kind == "svd" else hartwig_spindelbock)(b)
    rest = ({"v": matrix_to_dict(form.v)} if args.kind == "svd" else
            {"k": matrix_to_dict(form.k), "l": matrix_to_dict(form.l),
             "rank": form.r})
    _emit({"u": matrix_to_dict(form.u), "sigma": list(form.sigma), **rest})
    return 0


def _base_and_idempotent(args):
    """The float base matrix and its r x r idempotent parameter: the --t
    file, or one drawn from --seed, of rank --rank (default random)."""
    from .decomp import hartwig_spindelbock
    from .predecessors import random_idempotent
    (b,) = _inputs(args, [args.matrix], need_float=True)
    if args.t is not None:
        (t,) = _inputs(args, [args.t], need_float=True)
        return b, t
    hs = hartwig_spindelbock(b)
    rng = random.Random(args.seed)
    k = args.rank if args.rank is not None else rng.randint(0, hs.r)
    return b, random_idempotent(hs.r, k, rng)


def cmd_predecessor(args) -> int:
    from .predecessors import build_predecessor
    b, t = _base_and_idempotent(args)
    bundle = build_predecessor(b, t, args.tol)
    _emit({"idempotent": matrix_to_dict(t),
           "predecessor": matrix_to_dict(bundle.predecessor),
           "pinv": matrix_to_dict(bundle.predecessor_pinv)})
    return 0


def cmd_criteria(args) -> int:
    from .predecessors import (dagger_isotone, diamond_predecessor,
                               is_bidagger, reverse_order_law)
    b, t = _base_and_idempotent(args)
    a = diamond_predecessor(b, t, args.tol)
    rol = reverse_order_law(a, b, args.tol)
    bid = is_bidagger(b, args.tol)
    iso = dagger_isotone(b, t, args.tol)
    _emit({
        "idempotent": matrix_to_dict(t),
        "reverse_order_law": {"direct": rol[0], "criterion": rol[1]},
        "bidagger": {"direct": bid[0], "criterion": bid[1]},
        "dagger_isotone": {"direct": iso[0], "criterion": iso[1]},
    })
    return 0


def cmd_fuzz(args) -> int:
    from .fuzz import RunConfig, run_all
    cfg = RunConfig(backend=args.backend or EXACT, tol=args.tol,
                    seed=args.seed, trials=args.trials,
                    dim_min=args.dim_min, dim_max=args.dim_max)
    summary = run_all(cfg)
    _emit(summary)
    return 0 if summary["failures"] == 0 else 1


def cmd_poset(args) -> int:
    from .poset import build_poset, to_dot
    root = Path(args.directory)
    if not root.is_dir():
        raise MatOrderError("%s is not a directory" % args.directory)
    files = sorted(p for p in root.iterdir() if p.suffix == ".json")
    if not files:
        raise MatOrderError("no .json matrices under %s" % args.directory)
    mats = _inputs(args, files)
    items = list(zip([p.stem for p in files], mats))
    graph = build_poset(items, args.order, args.tol)
    sys.stdout.write(to_dot(graph))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matorder",
        description="Generalized inverses and matrix partial orders.")
    parser.add_argument("--backend", choices=[EXACT, FLOAT], default=None,
                        help="force a scalar backend (exact inputs can be "
                             "cast to float, never the reverse)")
    parser.add_argument("--tol", type=float, default=EQ_TOL,
                        help="relative comparison tolerance for the float "
                             "backend (default %g)" % EQ_TOL)
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for anything randomized")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    p = sub.add_parser("check", help="decide an order relation for a pair")
    p.add_argument("--order", required=True, choices=sorted(RELATIONS))
    p.add_argument("--via", default="definition",
                   choices=sorted(DIAMOND_ROUTES),
                   help="alternative diamond characterization")
    p.add_argument("a", help="JSON file with the candidate lower matrix")
    p.add_argument("b", help="JSON file with the candidate upper matrix")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("pinv", help="print the pseudoinverse")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_pinv)

    p = sub.add_parser("decompose", help="print a decomposition as JSON")
    p.add_argument("kind", choices=["svd", "hs"],
                   help="svd, or the unitary block form hs")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_decompose)

    for name, func, text in (
            ("predecessor", cmd_predecessor,
             "build a diamond-order lower neighbor"),
            ("criteria", cmd_criteria,
             "reverse order law, square/pinv exchange, and pinv "
             "monotonicity for a constructed pair")):
        p = sub.add_parser(name, help=text)
        p.add_argument("matrix", help="square base matrix (float)")
        p.add_argument("--t", default=None,
                       help="JSON file with an r x r idempotent parameter")
        p.add_argument("--rank", type=int, default=None,
                       help="rank of a randomly drawn idempotent "
                            "(default random)")
        p.set_defaults(func=func)

    p = sub.add_parser("fuzz", help="run the randomized property suites")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--dim-min", type=int, default=1)
    p.add_argument("--dim-max", type=int, default=5)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("poset",
                       help="DOT cover diagram of a directory of matrices")
    p.add_argument("directory")
    p.add_argument("--order", default="diamond", choices=sorted(RELATIONS))
    p.set_defaults(func=cmd_poset)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Matrix turns an overflow into a DomainError, so numpy's warning
        # about the same overflow would only be noise on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except MatOrderError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
