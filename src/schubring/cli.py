"""Command-line interface: compute, expand, and verify.

Exit codes: 0 success, 1 failed verification, 2 argument/parse error,
3 precondition violation, 4 internal consistency mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from .polyring import Dyadic
from .gammaring import GammaElement, oracle_embed, oracle_raw_embed
from .weyl import SignedPermutation, TypedPartition, is_n_strict
from . import schubert as sch
from . import raising
from . import invariants as inv
from .serialize import (
    document_to_gamma,
    gamma_to_document,
    gamma_to_latex,
    parse_document,
    render_document,
)


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
        if args.lie_type == "B":
            val = sch.schubert_b(w, double=args.double)
            if args.method == "both":
                sch.schubert_poly(w.with_flavor("BC"), "BC", method="both")
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
        if args.restrict is not None:
            val = val.restrict_vars(args.restrict)
        meta["key"] = {"eta": [n, list(lam), ptype], "double": args.double, "restrict": args.restrict}
    elif args.pfaffian is not None:
        rho, beta, alpha = (_parse_partition(t) for t in args.pfaffian)
        if not (len(rho) == len(beta) == len(alpha)):
            raise PreconditionError("rho, beta, alpha must have equal lengths")
        spec = raising.PfaffianSpec(rho, beta, alpha, args.hatted, args.hatted)
        try:
            val = raising.multi_schur_pfaffian(spec)
        except ArithmeticError as e:
            print(str(e), file=sys.stderr)
            return 4
        meta["key"] = {"pfaffian": [list(rho), list(beta), list(alpha)], "hatted": args.hatted}
    else:
        raise PreconditionError("nothing to compute: pass --w, --theta, --eta or --pfaffian")
    doc = gamma_to_document(val, metadata=meta)
    if args.latex:
        print(gamma_to_latex(val))
    else:
        sys.stdout.write(render_document(doc))
    return 0


def cmd_expand(args) -> int:
    with open(args.infile) as fh:
        f = document_to_gamma(parse_document(fh.read()))
    if f.max_yvar() and args.basis in ("schubert-single", "theta", "eta"):
        print("input has y variables; single bases need a y-free element", file=sys.stderr)
        return 3
    flavor = "D" if args.basis == "eta" else "BC"
    if args.basis == "schubert-single":
        coeffs = sch.schubert_expand_single(f, flavor="BC" if f.family == "c" else "D")
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


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _suite_shapes(bounds):
    from .weyl import shape

    w = SignedPermutation((-3, 2, -7, -1, 5, 4, -6), "BC")
    sh = shape(w)
    yield "shapes/C-example", sh == type(sh)(
        (7, 6, 3, 1), (2, 3, 0, 1, 2, 1, 0), (3, 2, 2, 1, 1), (5, 3, 1), (12, 9, 4, 1)
    ), str(sh)
    shd = shape(w.with_flavor("D"))
    yield "shapes/D-example", (shd.mu, shd.nu, shd.lam) == (
        (6, 5, 2), (5, 3, 1), (11, 8, 3)
    ), str(shd)
    yield "shapes/C-length", w.length() == 26, w.length()
    yield "shapes/D-length", w.with_flavor("D").length() == 22, None


def _suite_braid(bounds):
    import random

    n = min(bounds.n, 3)
    rng = random.Random(bounds.seed)
    for flavor, fam in (("BC", "c"), ("D", "b")):
        f = _random_element(rng, fam)
        gens = list(range(0, n + 1))
        for i in gens:
            ok = not sch.divided_difference(i, sch.divided_difference(i, f))
            yield f"braid/{flavor}-square-zero-{i}", ok, None
        for i in gens:
            for j in gens:
                if i >= j:
                    continue
                a = sch.divided_difference_word((i, j), f)
                b = sch.divided_difference_word((j, i), f)
                adj = _adjacent(i, j, flavor)
                if not adj:
                    yield f"braid/{flavor}-commute-{i}-{j}", a == b, None
                else:
                    lhs = sch.divided_difference_word(_braid_word(i, j, flavor), f)
                    rhs = sch.divided_difference_word(_braid_word(j, i, flavor), f)
                    yield f"braid/{flavor}-braid-{i}-{j}", lhs == rhs, None


def _adjacent(i, j, flavor) -> bool:
    if flavor == "BC":
        return abs(i - j) == 1
    if 0 in (i, j):
        return {i, j} == {0, 2}
    return abs(i - j) == 1


def _braid_word(i, j, flavor):
    if flavor == "BC" and 0 in (i, j):
        return (i, j, i, j)
    return (i, j, i)


def _random_element(rng, family):
    raw = []
    for _ in range(6):
        k = rng.randint(0, 2)
        subs = sorted((rng.randint(1, 3) for _ in range(k)), reverse=True)
        xk = tuple(rng.randint(0, 2) for _ in range(3))
        yk = tuple(rng.randint(0, 1) for _ in range(3))
        raw.append((subs, xk, yk, rng.choice([Dyadic(1), Dyadic(-1), Dyadic(2), Dyadic(1, 1)])))
    return GammaElement.from_raw(family, raw)


def _suite_transitions(bounds):
    from .weyl import enumerate_group

    n = min(bounds.n, 3)
    L = bounds.max_length if bounds.max_length is not None else 6
    for flavor, kind in (("BC", "W"), ("D", "Wtilde")):
        bad = []
        cnt = 0
        for w in enumerate_group(kind, n):
            if w.length() <= L:
                cnt += 1
                if sch.schubert_transition(w) != sch.schubert_divdiff(w):
                    bad.append(w.window)
        yield f"transitions-vs-divdiff/{flavor}-n{n}", not bad, f"{cnt} checked; first failures {bad[:3]}"


def _suite_pfaffian_props(bounds):
    from .weyl import enumerate_group, is_grassmannian

    m = min(bounds.n + 1, 3)
    for flavor, kind, levels in (("BC", "W", (0, 1, 2)), ("D", "Wtilde", (0, 2))):
        for n in levels:
            if n >= m:
                continue
            bad = []
            for w in enumerate_group(kind, m):
                if is_grassmannian(w, n):
                    try:
                        sch.pfaffian_formula(w, n, flavor, check=True)
                    except ArithmeticError:
                        bad.append(w.window)
            yield f"pfaffian-props/{flavor}-m{m}-n{n}", not bad, bad[:3]
    yield "pfaffian-props/D-n1-excluded", True, "degenerate level skipped (see notes)"


def _suite_alternants(bounds):
    from .weyl import TypedPartition

    n = 2
    for lam in [(1,), (2,), (3, 1), (2, 1)]:
        if not is_n_strict(lam, n):
            continue
        rep = sch.verify_theta_alternant(n, lam, "BC")
        yield f"alternants/C-{lam}", rep["divided_difference"] and rep["alternant"], rep
    for parts, t in [((1,), 0), ((2,), 1), ((2,), 2), ((2, 1), 1), ((1, 1), 0)]:
        rep = sch.verify_theta_alternant(n, TypedPartition(parts, n, t), "D")
        yield f"alternants/D-{parts}-t{t}", rep["divided_difference"] and rep["alternant"], rep


def _suite_kernel(bounds):
    n = bounds.n
    dmax = bounds.max_degree if bounds.max_degree is not None else 4
    for flavor in ("BC", "D"):
        for d in range(1, dmax + 1):
            rep = inv.kernel_span_equality(n, d, flavor)
            yield f"kernel/{flavor}-n{n}-d{d}", rep["equal"], rep


def _suite_hilbert(bounds):
    for flavor in ("BC", "D"):
        for n in (2, min(bounds.n, 3)):
            dmax = 4 if n == 2 else min(bounds.max_degree or 6, 6)
            hs = inv.quotient_hilbert_series(n, flavor, dmax)
            hist = inv.weyl_length_histogram(n, flavor)
            expect = [hist[d] if d < len(hist) else 0 for d in range(dmax + 1)]
            yield f"hilbert/{flavor}-n{n}", hs == expect, {"got": hs, "expected": expect}


def _suite_orthogonality(bounds):
    from .weyl import enumerate_group

    n = 2
    for flavor, kind in (("BC", "W"), ("D", "Wtilde")):
        w0 = sch.longest_element(n, flavor)
        top = w0.length()
        bad = []
        for u in enumerate_group(kind, n):
            for v in enumerate_group(kind, n):
                if u.length() + v.length() != top:
                    continue
                val = sch.scalar_product(
                    sch.schubert_poly(u, flavor, False),
                    sch.schubert_poly(v, flavor, False),
                    n,
                    flavor,
                )
                fam = "c" if flavor == "BC" else "b"
                expected = (
                    GammaElement.const(1, fam)
                    if v == w0 * u
                    else GammaElement.zero(fam)
                )
                if val != expected:
                    bad.append((u.window, v.window))
        yield f"orthogonality/{flavor}-pairs", not bad, bad[:3]
    for flavor in ("BC", "D"):
        rep = inv.dual_basis_orthogonality(n, flavor)
        yield f"orthogonality/{flavor}-product-basis", rep["ok"], rep["failures"][:3]


def _suite_invariance(bounds):
    n = 2
    dmax = bounds.max_degree if bounds.max_degree is not None else 4
    for flavor in ("BC", "D"):
        for d in range(1, dmax + 1):
            a, b = inv.invariant_basis_rank(n, d, flavor)
            yield f"invariance/{flavor}-n{n}-d{d}", a == b, (a, b)


def _suite_straightening(bounds):
    ok = True
    detail = []
    for lam in inv.strict_partitions_of(4) + inv.strict_partitions_of(5):
        for k in range(-3, 4):
            if lam and k >= lam[0]:
                continue
            if raising.schur_q((k,) + lam) != raising.hh_straighten(k, lam):
                ok = False
                detail.append((k, lam))
    yield "straightening/vs-pfaffian", ok, detail[:3]
    n = 2
    for p, lam in [(3, ()), (3, (1,)), (4, (2,))]:
        lhs = raising.schur_q((p,) + lam)
        rhs = raising.decompose_qpla_value(p, lam, n)
        yield f"straightening/qpla-{p}-{lam}", lhs == rhs, None


def _suite_oracle(bounds):
    import random

    rng = random.Random(bounds.seed)
    bad = 0
    for trial in range(50):
        fam = rng.choice(["c", "b"])
        raw = []
        for _ in range(4):
            k = rng.randint(0, 3)
            subs = [rng.randint(1, 3) for _ in range(k)]
            raw.append((subs, (rng.randint(0, 2),), (rng.randint(0, 1),), rng.randint(-3, 3)))
        f = GammaElement.from_raw(fam, raw)
        if oracle_embed(f) != oracle_raw_embed(fam, raw):
            bad += 1
    yield "oracle/normalize-agrees", bad == 0, f"{bad} failures of 50"


def _suite_all(bounds):
    for suite in SUITES:
        if suite == "all":
            continue
        yield from SUITES[suite](bounds)


SUITES = {
    "shapes": _suite_shapes,
    "braid": _suite_braid,
    "transitions-vs-divdiff": _suite_transitions,
    "pfaffian-props": _suite_pfaffian_props,
    "alternants": _suite_alternants,
    "kernel": _suite_kernel,
    "hilbert": _suite_hilbert,
    "orthogonality": _suite_orthogonality,
    "invariance": _suite_invariance,
    "straightening": _suite_straightening,
    "oracle": _suite_oracle,
    "all": _suite_all,
}


class Bounds:
    def __init__(self, n, max_length, max_degree, seed):
        self.n = n
        self.max_length = max_length
        self.max_degree = max_degree
        self.seed = seed


def cmd_verify(args) -> int:
    bounds = Bounds(args.n, args.max_length, args.max_degree, args.seed)
    results = list(SUITES[args.suite](bounds))
    results.sort(key=lambda r: r[0])
    failed = 0
    for check_id, ok, detail in results:
        line = f"{'PASS' if ok else 'FAIL'} {check_id}"
        if not ok and detail is not None:
            line += f"  counterexample: {detail}"
        print(line)
        failed += not ok
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


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
    v.add_argument("--suite", choices=sorted(SUITES), required=True)
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
            if args.theta is not None:
                args.theta = (int(args.theta[0]), args.theta[1])
            if args.eta is not None:
                args.eta = (int(args.eta[0]), args.eta[1], int(args.eta[2]))
            return cmd_compute(args)
        if args.command == "expand":
            return cmd_expand(args)
        if args.command == "verify":
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
