"""The verification suites of ``schubring verify``: each yields (check id,
passed, detail) triples.

The checks that only a suite uses sit beside it: the Pfaffian formula, the
theta/eta alternants and the power-sum oracle of the normal form.  The
kernel, hilbert, orthogonality, invariance and straightening suites import
``kernel`` when they run, so no other suite loads it.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from functools import lru_cache
from math import factorial, gcd, lcm, prod

from .polyring import Dyadic, _trim
from .gammaring import GammaElement, _gsum, act_generator
from .weyl import (
    SignedPermutation,
    TypedPartition,
    enumerate_group,
    grassmannian_element,
    is_grassmannian,
    is_n_strict,
    shape,
)
from . import schubert as sch
from .raising import eta, multi_schur_pfaffian, theta


def _suite_shapes(bounds):
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
    n = min(bounds.n, 3)
    rng = random.Random(bounds.seed)
    for flavor in ("BC", "D"):
        f = _random_element(rng)
        gens = list(range(0, n + 1))
        for i in gens:
            df = sch.divided_difference(i, f, flavor=flavor)
            ok = not sch.divided_difference(i, df, flavor=flavor)
            yield f"braid/{flavor}-square-zero-{i}", ok, None
        for i in gens:
            for j in gens:
                if i >= j:
                    continue
                a = sch.divided_difference_word((i, j), f, flavor=flavor)
                b = sch.divided_difference_word((j, i), f, flavor=flavor)
                adj = _adjacent(i, j, flavor)
                if not adj:
                    yield f"braid/{flavor}-commute-{i}-{j}", a == b, None
                else:
                    lhs = sch.divided_difference_word(_braid_word(i, j, flavor), f, flavor=flavor)
                    rhs = sch.divided_difference_word(_braid_word(j, i, flavor), f, flavor=flavor)
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


def _random_element(rng):
    raw = []
    for _ in range(6):
        k = rng.randint(0, 2)
        subs = sorted((rng.randint(1, 3) for _ in range(k)), reverse=True)
        xk = tuple(rng.randint(0, 2) for _ in range(3))
        yk = tuple(rng.randint(0, 1) for _ in range(3))
        raw.append((subs, xk, yk, rng.choice([Dyadic(1), Dyadic(-1), Dyadic(2), Dyadic(1, 1)])))
    return GammaElement.from_raw(raw)


def _suite_transitions(bounds):
    n = min(bounds.n, 4)
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


def _suite_anchors(bounds):
    # The double top-cell Pfaffian of rank m, which no compute route
    # evaluates, against the transition route at w0.
    for flavor, first in (("BC", 1), ("D", 2)):
        for m in range(first, min(bounds.n + 1, 4) + 1):
            ok = sch._anchor(flavor, m, True) == sch.schubert_transition(sch.longest_element(m, flavor))
            yield f"anchors/{flavor}-m{m}", ok, None


def pfaffian_formula(
    w: SignedPermutation, n: int, flavor: str | None = None, check: bool = True
) -> GammaElement:
    """The multi-Schur Pfaffian equal to the Schubert polynomial of w * w0^(n);
    w must be n-Grassmannian."""
    flavor = flavor or w.flavor
    w = w.with_flavor(flavor)
    if not is_grassmannian(w, n):
        raise ValueError(f"{w.window} is not {n}-Grassmannian")
    w0 = sch.longest_element(n, flavor) if n else SignedPermutation.identity(flavor)
    what = w * w0
    val = multi_schur_pfaffian(sch._pfaffian_spec(what), cross_check=False)
    if check and val != sch.schubert_poly(what, flavor):
        raise ArithmeticError(f"pfaffian formula fails at {what.window}")
    return val


def _suite_pfaffian_props(bounds):
    m = min(bounds.n + 1, 3)
    for flavor, kind, levels in (("BC", "W", (0, 1, 2)), ("D", "Wtilde", (0, 2))):
        for n in levels:
            if n >= m:
                continue
            bad = []
            for w in enumerate_group(kind, m):
                if is_grassmannian(w, n):
                    try:
                        pfaffian_formula(w, n, flavor, check=True)
                    except ArithmeticError:
                        bad.append(w.window)
            yield f"pfaffian-props/{flavor}-m{m}-n{n}", not bad, bad[:3]
    yield "pfaffian-props/D-n1-excluded", True, "degenerate level skipped (see notes)"


def weyl_act(w, f: GammaElement) -> GammaElement:
    """Apply a group element to f."""
    for i in reversed(w.reduced_word()):
        f = act_generator(i, f, w.flavor)
    return f


def alternating_operator(f: GammaElement, n: int, flavor: str = "BC") -> GammaElement:
    """Signed sum of the full Weyl group orbit of f."""
    kind = "W" if flavor == "BC" else "Wtilde"
    return _gsum((weyl_act(w, f), -1 if w.length() % 2 else 1) for w in enumerate_group(kind, n))


def staircase_monomial(n: int, flavor: str) -> GammaElement:
    """x^{delta_n + delta_{n-1}} for BC, x^{2 delta_{n-1}} for D."""
    if flavor == "BC":
        expo = tuple(2 * (n - i) + 1 for i in range(1, n + 1))
    else:
        expo = tuple(2 * (n - i) for i in range(1, n + 1))
    return GammaElement.monomial(xk=expo)


def verify_theta_alternant(n: int, lam, flavor: str = "BC") -> dict:
    """Check the divided-difference and alternating-sum identities expressing
    a level-n theta/eta polynomial through the top Pfaffian; returns a report."""
    if flavor == "BC":
        w = grassmannian_element(tuple(lam), n, "BC")
        target = theta(n, tuple(lam), double=True)
        sign = (-1) ** ((n * (n + 1) // 2) % 2)
        pref = 1
    else:
        if not isinstance(lam, TypedPartition):
            raise ValueError(f"a type D shape must be a TypedPartition, not {lam!r}")
        w = grassmannian_element(lam, n, "D")
        target = eta(n, lam, double=True)
        sign = (-1) ** ((n * (n - 1) // 2) % 2)
        pref = 2 ** (n - 1)
    w0 = sch.longest_element(n, flavor)
    pf = pfaffian_formula(w, n, flavor, check=False)
    dd = sch.divided_difference_w(w0, pf)
    ok_dd = dd == target
    lhs = target * alternating_operator(staircase_monomial(n, flavor), n, flavor)
    rhs = alternating_operator(pf, n, flavor) * (sign * pref)
    ok_alt = lhs == rhs
    return {"divided_difference": ok_dd, "alternant": ok_alt, "shape": tuple(lam) if flavor == "BC" else (lam.parts, lam.ptype)}


def _suite_alternants(bounds):
    n = 2
    for lam in [(1,), (2,), (3, 1), (2, 1)]:
        if not is_n_strict(lam, n):
            continue
        rep = verify_theta_alternant(n, lam, "BC")
        yield f"alternants/C-{lam}", rep["divided_difference"] and rep["alternant"], rep
    for parts, t in [((1,), 0), ((2,), 1), ((2,), 2), ((2, 1), 1), ((1, 1), 0)]:
        rep = verify_theta_alternant(n, TypedPartition(parts, n, t), "D")
        yield f"alternants/D-{parts}-t{t}", rep["divided_difference"] and rep["alternant"], rep


def _suite_kernel(bounds):
    from . import kernel

    n = bounds.n
    dmax = bounds.max_degree if bounds.max_degree is not None else 4
    for flavor in ("BC", "D"):
        for d in range(1, dmax + 1):
            rep = kernel.kernel_span_equality(n, d, flavor)
            yield f"kernel/{flavor}-n{n}-d{d}", rep["equal"], rep


def _suite_hilbert(bounds):
    from . import kernel

    for flavor in ("BC", "D"):
        for n in sorted({2, min(bounds.n, 3)}):
            dmax = 4 if n == 2 else min(6 if bounds.max_degree is None else bounds.max_degree, 6)
            hs = kernel.quotient_hilbert_series(n, flavor, dmax)
            hist = kernel.weyl_length_histogram(n, flavor)
            expect = [hist[d] if d < len(hist) else 0 for d in range(dmax + 1)]
            yield f"hilbert/{flavor}-n{n}", hs == expect, {"got": hs, "expected": expect}


def _suite_orthogonality(bounds):
    from . import kernel

    n = 2
    for flavor, kind in (("BC", "W"), ("D", "Wtilde")):
        w0 = sch.longest_element(n, flavor)
        top = w0.length()
        bad = []
        for u in enumerate_group(kind, n):
            for v in enumerate_group(kind, n):
                if u.length() + v.length() != top:
                    continue
                val = kernel.scalar_product(
                    sch.schubert_poly(u, flavor, False),
                    sch.schubert_poly(v, flavor, False),
                    n,
                    flavor,
                )
                expected = GammaElement.const(1) if v == w0 * u else GammaElement.zero()
                if val != expected:
                    bad.append((u.window, v.window))
        yield f"orthogonality/{flavor}-pairs", not bad, bad[:3]
    for flavor in ("BC", "D"):
        rep = kernel.dual_basis_orthogonality(n, flavor)
        yield f"orthogonality/{flavor}-product-basis", rep["ok"], rep["failures"][:3]


def _suite_invariance(bounds):
    from . import kernel

    n = 2
    dmax = bounds.max_degree if bounds.max_degree is not None else 4
    for flavor in ("BC", "D"):
        for d in range(1, dmax + 1):
            a, b = kernel.invariant_basis_rank(n, d, flavor)
            yield f"invariance/{flavor}-n{n}-d{d}", a == b, (a, b)


def _suite_straightening(bounds):
    from . import kernel

    ok = True
    detail = []
    for lam in kernel.strict_partitions_of(4) + kernel.strict_partitions_of(5):
        for k in range(-3, 4):
            if lam and k >= lam[0]:
                continue
            if kernel.schur_q((k,) + lam) != kernel.hh_straighten(k, lam):
                ok = False
                detail.append((k, lam))
    yield "straightening/vs-pfaffian", ok, detail[:3]
    n = 2
    for p, lam in [(3, ()), (3, (1,)), (4, (2,))]:
        lhs = kernel.schur_q((p,) + lam)
        rhs = kernel.decompose_qpla_value(p, lam, n)
        yield f"straightening/qpla-{p}-{lam}", lhs == rhs, None


def _odd_partitions(p: int, top: int):
    """Partitions of p into odd parts <= top, in decreasing order."""
    if p == 0:
        yield ()
        return
    for a in range(min(p, top), 0, -1):
        if a % 2:
            for rest in _odd_partitions(p - a, a):
                yield (a,) + rest


@lru_cache(maxsize=None)
def _q_in_power_sums(p: int) -> dict:
    """p! q_p = sum over odd partitions lam of p of 2^len(lam) (p!/z_lam) p_lam,
    with integer coefficients (p!/z_lam is a conjugacy-class size)."""
    out = {}
    for lam in _odd_partitions(p, p):
        z = prod(part**m * factorial(m) for part, m in Counter(lam).items())
        out[lam] = factorial(p) // z << len(lam)
    return out


@lru_cache(maxsize=None)
def _q_product(subs: tuple) -> dict:
    """The product of p! q_p over a tuple of positive subscripts."""
    if not subs:
        return {(): 1}
    out: dict = {}
    for lam, a in _q_product(subs[:-1]).items():
        for mu, b in _q_in_power_sums(subs[-1]).items():
            k = tuple(sorted(lam + mu, reverse=True))
            out[k] = out.get(k, 0) + a * b
    return out


def oracle_embed(f: GammaElement) -> tuple:
    """The image of f in the power-sum model (see oracle_raw_embed)."""
    return oracle_raw_embed([(s, x, y, c) for (s, x, y), c in f.terms.items()])


def oracle_raw_embed(raw_terms) -> tuple:
    """Embed a raw (un-normalized) list of (subscripts, x-exps, y-exps, int or
    Dyadic coeff) term by term: c_p -> q_p, x and y unchanged.

    The image is the pair ({(lam, xk, yk): int}, den), lam a decreasing tuple
    of odd power-sum indices and den > 0 coprime to every numerator, so equal
    images mean equal elements.  A term n / 2^e with subscripts p_1..p_k has
    int numerators over 2^e p_1! ... p_k!; the sum is kept over their lcm.
    The model is faithful in every degree and applies no relation, so it
    checks the rewriting independently.
    """
    out, den = {}, 1
    for subs, xk, yk, coeff in raw_terms:
        if any(p < 0 for p in subs):
            continue
        num, e = (coeff.num, coeff.exp) if isinstance(coeff, Dyadic) else (coeff, 0)
        subs = tuple(sorted(filter(None, subs)))
        d = prod(map(factorial, subs), start=1 << e)
        if den % d:
            scale = lcm(den, d) // den
            out, den = {k: n * scale for k, n in out.items()}, den * scale
        scale, xk, yk = den // d * num, _trim(tuple(xk)), _trim(tuple(yk))
        for lam, c in _q_product(subs).items():
            out[(lam, xk, yk)] = out.get((lam, xk, yk), 0) + c * scale
    g = gcd(den, *out.values())
    return {k: n // g for k, n in out.items() if n}, den // g


def _suite_oracle(bounds):
    rng = random.Random(bounds.seed)
    bad = 0
    for trial in range(50):
        raw = []
        for _ in range(4):
            k = rng.randint(0, 3)
            subs = [rng.randint(1, 3) for _ in range(k)]
            raw.append((subs, (rng.randint(0, 2),), (rng.randint(0, 1),), rng.randint(-3, 3)))
        f = GammaElement.from_raw(raw)
        if oracle_embed(f) != oracle_raw_embed(raw):
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
    "anchors": _suite_anchors,
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
    if not results:
        print(f"no check selected: suite {args.suite} has nothing to check within these bounds",
              file=sys.stderr)
        return 3
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
