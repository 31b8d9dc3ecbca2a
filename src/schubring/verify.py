"""The verification suites of ``schubring verify``: each yields (check id,
passed, detail) triples."""

from __future__ import annotations

import random

from .polyring import Dyadic
from .gammaring import GammaElement, oracle_embed, oracle_raw_embed
from .weyl import (
    SignedPermutation,
    TypedPartition,
    enumerate_group,
    is_grassmannian,
    is_n_strict,
    shape,
)
from . import schubert as sch
from . import raising
from . import invariants as inv


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
                        sch.pfaffian_formula(w, n, flavor, check=True)
                    except ArithmeticError:
                        bad.append(w.window)
            yield f"pfaffian-props/{flavor}-m{m}-n{n}", not bad, bad[:3]
    yield "pfaffian-props/D-n1-excluded", True, "degenerate level skipped (see notes)"


def _suite_alternants(bounds):
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
                expected = GammaElement.const(1) if v == w0 * u else GammaElement.zero()
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
