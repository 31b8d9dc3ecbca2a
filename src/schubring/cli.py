"""Command-line interface: compute, expand, and verify.

Exit codes: 0 success, 1 failed verification, 2 argument/parse error,
3 precondition violation, 4 internal consistency mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from .weyl import SignedPermutation, TypedPartition, is_n_strict
from . import schubert as sch
from . import raising
# Unused here, but bench/tracer.py wraps only the modules this import loads,
# so without it traced verify runs would miss exact_rank and to_vector.
from . import invariants  # noqa: F401
from .serialize import (
    document_to_gamma,
    gamma_to_document,
    gamma_to_latex,
    parse_document,
    render_document,
)


# the keys of verify.SUITES, so that a compute or expand request need not import it
SUITE_NAMES = ("all", "alternants", "anchors", "braid", "hilbert", "invariance", "kernel",
               "oracle", "orthogonality", "pfaffian-props", "shapes", "straightening",
               "transitions-vs-divdiff")


class PreconditionError(Exception):
    pass


class ParseError(Exception):
    pass


def _parse_partition(text: str) -> tuple[int, ...]:
    text = text.strip().strip("()[]")
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as e:
        raise ParseError(str(e))


def cmd_compute(args) -> int:
    if (args.theta or args.eta or (0,))[0] < 0:
        raise PreconditionError("the level n must be nonnegative")
    if args.restrict is not None and args.restrict < 0:
        raise PreconditionError("--restrict must be nonnegative")
    if args.eta is not None and args.eta[0] < 1:
        raise PreconditionError(f"--eta needs a level n >= 1, not {args.eta[0]}")
    if args.w is not None and args.lie_type == "A" and args.method == "both":
        raise PreconditionError("type A has only the divided-difference route; --method both checks nothing")
    # types B and D, eta polynomials and hatted Pfaffians are written in the b basis
    family = "c"
    meta = {}
    if args.w is not None:
        flavor = {"A": "A", "B": "BC", "C": "BC", "D": "D"}[args.lie_type]
        try:
            window = tuple(int(p) for p in args.w.strip().strip("[]").split(",") if p.strip())
        except ValueError as e:
            raise ParseError(str(e))
        try:
            w = SignedPermutation(window, flavor)
        except ValueError as e:
            raise PreconditionError(str(e))
        if args.lie_type in "BD":
            family = "b"
        if args.lie_type == "B":
            val = sch.schubert_b(w, double=args.double, method=args.method)
        else:
            val = sch.schubert_poly(w, flavor, double=args.double, method=args.method)
        if args.method == "both":
            meta["methods_agree"] = True
        if args.restrict is not None:
            val = val.restrict_vars(args.restrict)
        meta["provenance"] = args.method
        meta["key"] = {
            "lie_type": args.lie_type,
            "w": list(w.window),
            "double": args.double,
            "restrict": args.restrict,
        }
    elif args.theta is not None:
        n = args.theta[0]
        lam = _parse_partition(args.theta[1])
        if not is_n_strict(lam, n):
            raise PreconditionError(f"{lam} is not {n}-strict")
        val = raising.theta(n, lam, double=args.double)
        if args.restrict is not None:
            val = val.restrict_vars(args.restrict)
        meta["key"] = {"theta": [n, list(lam)], "double": args.double, "restrict": args.restrict}
    elif args.eta is not None:
        n = args.eta[0]
        lam = _parse_partition(args.eta[1])
        ptype = args.eta[2]
        try:
            typed = TypedPartition(lam, n, ptype)
        except ValueError as e:
            raise PreconditionError(str(e))
        val = raising.eta(n, typed, double=args.double)
        family = "b"
        if args.restrict is not None:
            val = val.restrict_vars(args.restrict)
        meta["key"] = {"eta": [n, list(lam), ptype], "double": args.double, "restrict": args.restrict}
    elif args.pfaffian is not None:
        rho, beta, alpha = (_parse_partition(t) for t in args.pfaffian)
        if not (len(rho) == len(beta) == len(alpha)):
            raise PreconditionError("rho, beta, alpha must have equal lengths")
        spec = raising.PfaffianSpec(rho, beta, alpha, args.hatted)
        if args.hatted:
            family = "b"
        try:
            val = raising.multi_schur_pfaffian(spec)
        except ArithmeticError as e:
            print(str(e), file=sys.stderr)
            return 4
        meta["key"] = {"pfaffian": [list(rho), list(beta), list(alpha)], "hatted": args.hatted}
    else:
        raise PreconditionError("nothing to compute: pass --w, --theta, --eta or --pfaffian")
    doc = gamma_to_document(val, family, meta)
    if args.latex:
        print(gamma_to_latex(val, family))
    else:
        sys.stdout.write(render_document(doc))
    return 0


def cmd_expand(args) -> int:
    with open(args.infile) as fh:
        doc = parse_document(fh.read())
    f = document_to_gamma(doc)
    if f.max_yvar() and args.basis in ("schubert-single", "theta", "eta"):
        print("input has y variables; single bases need a y-free element", file=sys.stderr)
        return 3
    family = {"theta": "c", "eta": "b"}.get(args.basis, doc.family)
    if doc.family != family:
        raise PreconditionError(f"--basis {args.basis} needs a family {family} element, not {doc.family}")
    flavor = "D" if family == "b" else "BC"
    if args.basis == "schubert-single":
        coeffs = sch.schubert_expand_single(f, flavor)
        table = {("[" + ",".join(str(a) for a in win) + "]"): c for win, c in coeffs.items()}
    else:
        n = args.n
        if n is None:
            print("--n is required for theta/eta expansion", file=sys.stderr)
            return 2
        out = sch.theta_expand(f, n, flavor)
        table = {}
        for key, c in out.items():
            if flavor == "BC":
                table[str(list(key))] = c
            else:
                table[str([list(key.parts), key.ptype])] = c
    print(json.dumps({"basis": args.basis, "coefficients": dict(sorted(table.items()))},
                     sort_keys=True, indent=None, separators=(",", ":")))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="schubring", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="compute a Schubert/theta/eta polynomial")
    c.add_argument("--lie-type", choices="ABCD", default="C")
    c.add_argument("--w", help='window notation, e.g. "[-3,2,-1]"')
    c.add_argument("--theta", nargs=2, metavar=("N", "LAMBDA"), type=str)
    c.add_argument("--eta", nargs=3, metavar=("N", "LAMBDA", "TYPE"), type=str)
    c.add_argument("--pfaffian", nargs=3, metavar=("RHO", "BETA", "ALPHA"))
    c.add_argument("--hatted", action="store_true")
    c.add_argument("--double", action="store_true")
    c.add_argument("--restrict", type=int)
    c.add_argument("--method", choices=["transition", "divdiff", "both"], default="transition")
    c.add_argument("--latex", action="store_true")

    e = sub.add_parser("expand", help="expand a serialized element over a basis")
    e.add_argument("--in", dest="infile", required=True)
    e.add_argument("--basis", choices=["schubert-single", "theta", "eta"], required=True)
    e.add_argument("--n", type=int)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", choices=SUITE_NAMES, required=True)
    v.add_argument("--n", type=int, default=2)
    v.add_argument("--max-length", type=int)
    v.add_argument("--max-degree", type=int)
    v.add_argument("--seed", type=int, default=20180726)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # shield index vectors with leading minus signs from option parsing
    for flag, count in (("--pfaffian", 3),):
        if flag in argv:
            at = argv.index(flag)
            for k in range(at + 1, min(at + 1 + count, len(argv))):
                if argv[k].startswith("-") and any(ch.isdigit() for ch in argv[k]):
                    argv[k] = f"({argv[k]})"
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if args.command == "compute":
            try:
                if args.theta is not None:
                    args.theta = (int(args.theta[0]), args.theta[1])
                if args.eta is not None:
                    args.eta = (int(args.eta[0]), args.eta[1], int(args.eta[2]))
            except ValueError as e:
                raise ParseError(str(e))
            return cmd_compute(args)
        if args.command == "expand":
            return cmd_expand(args)
        if args.command == "verify":
            from .verify import cmd_verify

            return cmd_verify(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except PreconditionError as e:
        print(f"precondition violated: {e}", file=sys.stderr)
        return 3
    except (ValueError, AssertionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ArithmeticError as e:
        print(f"internal mismatch: {e}", file=sys.stderr)
        return 4
    return 2


if __name__ == "__main__":
    sys.exit(main())
