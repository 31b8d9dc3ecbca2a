"""Acceptance criteria, one test per criterion, every comparison exact.

Each test prints a single PASS line on success (run pytest with -s to see
them); any failure is a hard assertion with a counterexample attached.
"""

import random

import pytest

from schubring.polyring import Dyadic, SparsePoly, elem_sym
from schubring.gammaring import (
    GammaElement,
    act_generator,
    c_entry,
    c_hat_entry,
    level_c,
)
from schubring.weyl import (
    SignedPermutation,
    TypedPartition,
    enumerate_grassmannian,
    enumerate_group,
    grassmannian_shape,
    is_grassmannian,
    is_n_strict,
    shape,
)
from schubring.raising import PfaffianSpec, multi_schur_pfaffian
from schubring import schubert as sch
from schubring import kernel
from schubring.kernel import hh_straighten, level_b, level_b_prime, level_c_double, schur_q
from schubring.verify import oracle_embed, oracle_raw_embed, pfaffian_formula, verify_theta_alternant

from paper_checks import supersym_e


def from_b_raw(raw):
    """A family-b raw term list, each b_lambda written as c_lambda / 2^{l(lambda)}."""
    return [(subs, xk, yk, Dyadic(c, sum(1 for s in subs if s))) for subs, xk, yk, c in raw]

S = SignedPermutation
g = GammaElement.generator
Z = GammaElement.zero


def _report(num, text):
    print(f"ACCEPTANCE {num:>2} PASS: {text}")


def _n_strict_partitions(n, maxw):
    result = set()

    def gen(prefix, rem, maxpart):
        if rem == 0:
            result.add(tuple(prefix))
            return
        for p in range(min(rem, maxpart), 0, -1):
            gen(prefix + [p], rem - p, p)

    for w in range(1, maxw + 1):
        gen([], w, w)
    return sorted(
        (lam for lam in result if is_n_strict(lam, n)),
        key=lambda t: (sum(t), t),
    )


def test_criterion_01_shapes():
    w = S((-3, 2, -7, -1, 5, 4, -6), "BC")
    sh = shape(w)
    assert (sh.mu, sh.gamma, sh.delta, sh.nu, sh.lam) == (
        (7, 6, 3, 1),
        (2, 3, 0, 1, 2, 1, 0),
        (3, 2, 2, 1, 1),
        (5, 3, 1),
        (12, 9, 4, 1),
    )
    shd = shape(w.with_flavor("D"))
    assert (shd.mu, shd.nu, shd.lam) == ((6, 5, 2), (5, 3, 1), (11, 8, 3))
    _report(1, "worked shape examples reproduce exactly (both flavors)")


def test_criterion_02_path_independence():
    checked = 0
    for kind, flavor in (("W", "BC"), ("Wtilde", "D")):
        for w in enumerate_group(kind, 3):
            if w.length() <= 6:
                a = sch.schubert_transition(w)
                b = sch.schubert_divdiff(w)
                assert a == b, (flavor, w.window)
                assert a.set_y_zero() == b.set_y_zero()
                checked += 1
    _report(2, f"transition == divided differences on {checked} rank-3 elements, double and single")


def test_criterion_03_defining_property():
    checked = 0
    for kind, flavor in (("W", "BC"), ("Wtilde", "D")):
        for w in enumerate_group(kind, 2):
            cs = sch.schubert_poly(w, flavor)
            for i in (0, 1, 2):
                ws = w.right_mul_gen(i)
                want = sch.schubert_poly(ws, flavor) if ws.length() < w.length() else Z()
                assert sch.divided_difference(i, cs, flavor=flavor) == want, (flavor, w.window, i, "x")
                sw = w.left_mul_gen(i)
                want = sch.schubert_poly(sw, flavor) if sw.length() < w.length() else Z()
                assert sch.divided_difference(i, cs, "y", flavor) == want, (flavor, w.window, i, "y")
                checked += 2
    _report(3, f"defining divided-difference property on rank 2, both sides ({checked} checks)")


def test_criterion_04_pfaffian_formulas():
    counts = {}
    for n in (0, 1, 2):
        counts[("C", n)] = 0
        for w in enumerate_group("W", 3):
            if is_grassmannian(w, n):
                pfaffian_formula(w, n, "BC", check=True)
                counts[("C", n)] += 1
    for n in (0, 2):
        counts[("D", n)] = 0
        for w in enumerate_group("Wtilde", 3):
            if is_grassmannian(w, n):
                pfaffian_formula(w, n, "D", check=True)
                counts[("D", n)] += 1
    # the type D level-1 node is degenerate (excluded by the source's own
    # parabolic conventions); see the decisions ledger for the counterexample
    _report(4, f"Grassmannian Pfaffian formulas at m=3: {counts}; D n=1 skipped as degenerate")


def test_criterion_05_alternants():
    n = 2
    done = 0
    for lam in _n_strict_partitions(n, 4):
        rep = verify_theta_alternant(n, lam, "BC")
        assert rep["divided_difference"], ("C-dd", lam)
        assert rep["alternant"], ("C-alt", lam)
        done += 1
    for w in enumerate_grassmannian(n, "D", 3):
        if 0 < w.length() <= 3:
            t = grassmannian_shape(w, n)
            rep = verify_theta_alternant(n, t, "D")
            assert rep["divided_difference"], ("D-dd", t)
            assert rep["alternant"], ("D-alt", t)
            done += 1
    _report(5, f"theta/eta alternant identities at n=2 ({done} shapes)")


def test_criterion_06_kernel_span():
    for flavor in ("BC", "D"):
        for d in range(0, 6):
            rep = kernel.kernel_span_equality(2, d, flavor)
            assert rep["equal"], (flavor, d, rep)
    for n in (1, 2):
        for p in (1, 2, 3):
            w = S((), "BC")
            for i in range(n, n + p):
                w = w.right_mul_gen(i)
            assert kernel.schubert_restricted(w, n, "BC") == level_c_double(n, p), (n, p)
    _report(6, "kernel graded pieces match Schubert spans (n=2, d<=5) and the explicit generators")


def test_criterion_07_hilbert_series():
    hs = kernel.quotient_hilbert_series(2, "BC", 4)
    assert hs == [1, 2, 2, 2, 1]
    hist = kernel.weyl_length_histogram(2, "D")
    assert kernel.quotient_hilbert_series(2, "D", len(hist) - 1) == hist == [1, 2, 1]
    hist3 = kernel.weyl_length_histogram(3, "BC")
    assert kernel.quotient_hilbert_series(3, "BC", 6) == hist3[:7]
    hist3d = kernel.weyl_length_histogram(3, "D")
    assert kernel.quotient_hilbert_series(3, "D", 6) == hist3d[:7]
    _report(7, "quotient Hilbert series equal Weyl length histograms (n=2 and n=3 to d=6)")


def test_criterion_08_orthogonality():
    for flavor, kind in (("BC", "W"), ("D", "Wtilde")):
        n = 2
        w0 = sch.longest_element(n, flavor)
        for u in enumerate_group(kind, n):
            for v in enumerate_group(kind, n):
                if u.length() + v.length() != w0.length():
                    continue
                val = kernel.scalar_product(
                    sch.schubert_poly(u, flavor, False),
                    sch.schubert_poly(v, flavor, False),
                    n,
                    flavor,
                )
                want = GammaElement.const(1) if v == w0 * u else Z()
                assert val == want, (flavor, u.window, v.window)
        rep = kernel.dual_basis_orthogonality(n, flavor)
        assert rep["ok"], (flavor, rep["failures"][:3])
    _report(8, "Schubert pairing delta-matrices and dual product bases at n=2")


def test_criterion_09_invariance():
    for flavor in ("BC", "D"):
        for d in range(0, 6):
            a, b = kernel.invariant_basis_rank(2, d, flavor)
            assert a == b, (flavor, d, a, b)
    for n in (1, 2, 3):
        for p in range(0, 5):
            acc = level_c(n, p) * level_c(n, p)
            for i in range(1, p + 1):
                acc = acc + level_c(n, p + i) * level_c(n, p - i) * (2 * (-1) ** i)
            esq = elem_sym(n, p, "x")
            esq = SparsePoly(
                {(tuple(2 * e for e in xk), yk): c for (xk, yk), c in esq.terms.items()}
            )
            assert acc == GammaElement.from_poly(esq), (n, p)
        if n >= 1:
            assert level_b(n, n) - level_b_prime(n) == GammaElement.from_poly(
                elem_sym(n, n, "x")
            ), n
    _report(9, "invariant ranks equal theta/eta spans; squared-variable and b/b' identities")


def test_criterion_10_ring_integrity():
    rng = random.Random(20180726)
    for trial in range(200):
        fam = rng.choice(["c", "b"])
        raw = []
        for _ in range(rng.randint(1, 5)):
            k = rng.randint(0, 2)
            subs = [rng.randint(1, 3) for _ in range(k)]
            room = 8 - sum(subs)
            xk = (rng.randint(0, max(0, min(2, room))),)
            yk = (rng.randint(0, max(0, min(1, room - xk[0]))),)
            raw.append((subs, xk, yk, rng.randint(-4, 4)))
        if fam == "b":
            raw = from_b_raw(raw)
        f = GammaElement.from_raw(raw)
        assert f.degree() <= 8
        assert oracle_embed(f) == oracle_raw_embed(raw), (trial, raw)
    # generating identities to degree 6 at n <= 3
    from truncated_series import TruncatedSeries

    for n in (1, 2, 3):
        order = 6
        num = TruncatedSeries.one(order)
        den = TruncatedSeries.one(order)
        for j in range(1, n + 1):
            num = num * TruncatedSeries([SparsePoly.const(1), SparsePoly.var("x", j)], order)
            den = den * TruncatedSeries([SparsePoly.const(1), SparsePoly.var("y", j)], order)
        ratio = num / den
        for p in range(order + 1):
            rhs = Z()
            for j in range(0, p + 1):
                rhs = rhs + g(p - j) * GammaElement.from_poly(ratio.coeffs[j])
            assert level_c_double(n, p) == rhs, ("genfun", n, p)
            acc_h = Z()
            acc_e = Z()
            for i in range(0, p + 1):
                acc_h = acc_h + level_c_double(n, p - i) * c_entry(0, -n, i) * ((-1) ** i)
                acc_e = acc_e + level_c_double(n, p - i) * g(i) * ((-1) ** i)
            assert acc_h == GammaElement.from_poly(elem_sym(n, p, "x")), ("hq", n, p)
            assert acc_e == GammaElement.from_poly(supersym_e(p, n)), ("ehtoq", n, p)
    _report(10, "oracle agreement on 200 seeded elements; generating identities to degree 6")


def test_criterion_11_straightening():
    def strict_parts(maxw):
        out = [()]

        def rec(prefix, rem, maxpart):
            for p in range(min(rem, maxpart), 0, -1):
                out.append(tuple(prefix) + (p,))
                rec(prefix + [p], rem - p, p - 1)

        rec([], maxw, maxw)
        return out

    for lam in strict_parts(6):
        top = lam[0] if lam else 99
        for k in range(-4, 5):
            if lam and k >= top:
                continue
            assert hh_straighten(k, lam) == schur_q((k,) + lam), (k, lam)
    for (p, lam, n) in [(3, (1,), 1), (4, (2,), 2), (3, (2, 1), 2), (4, (3, 1), 2)]:
        assert kernel.decompose_qpla_value(p, lam, n) == schur_q((p,) + lam), (p, lam, n)
    # the staircase display at n = 2
    n = 2
    lhs = schur_q((3, 2, 1))
    rhs = schur_q((2, 1)) * level_c(n, 3)
    for r in (1, 2):
        rest = tuple(q for q in (2, 1) if q != r)
        rhs = rhs + schur_q(rest) * level_c(n, 3 + r) * (2 * (-1) ** r)
    assert lhs == rhs
    _report(11, "straightening matches Pfaffian expansion (|k|<=4, |lambda|<=6); ideal decompositions exact")


def test_criterion_12_operator_algebra():
    rng = random.Random(99)

    def rand_el(fam):
        raw = []
        for _ in range(5):
            k = rng.randint(0, 2)
            raw.append((
                [rng.randint(1, 3) for _ in range(k)],
                tuple(rng.randint(0, 2) for _ in range(3)),
                (rng.randint(0, 1),),
                rng.randint(-2, 2),
            ))
        return GammaElement.from_raw(from_b_raw(raw) if fam == "b" else raw)

    for fam, flv in (("c", "BC"), ("b", "D")):
        f = rand_el(fam)
        dd = lambda i, g: sch.divided_difference(i, g, flavor=flv)
        for i in (0, 1, 2, 3):
            assert not dd(i, dd(i, f))
        h = rand_el(fam)
        for i in (0, 1, 2):
            lhs = dd(i, f * h)
            rhs = dd(i, f) * h + act_generator(i, f, flv) * dd(i, h)
            assert lhs == rhs, (fam, i)
    fc, fb = rand_el("c"), rand_el("b")
    word = sch.divided_difference_word
    assert word((1, 2, 1), fc) == word((2, 1, 2), fc)
    assert word((0, 1, 0, 1), fc) == word((1, 0, 1, 0), fc)
    assert word((0, 2, 0), fb, flavor="D") == word((2, 0, 2), fb, flavor="D")
    assert word((0, 1), fb, flavor="D") == word((1, 0), fb, flavor="D")
    # adjointness over the rank-2 groups
    for flavor, kind, fam in (("BC", "W", "c"), ("D", "Wtilde", "b")):
        n = 2
        for w in enumerate_group(kind, n):
            a = rand_el(fam).set_y_zero().restrict_vars(n)
            b = rand_el(fam).set_y_zero().restrict_vars(n)
            lhs = kernel.scalar_product(sch.divided_difference_w(w, a), b, n, flavor)
            rhs = kernel.scalar_product(a, sch.divided_difference_w(w.inverse(), b), n, flavor)
            assert lhs == rhs, (flavor, w.window)
    # the entry-family lemmas over their grids
    for k in range(-3, 4):
        for r in range(-3, 4):
            for p in range(0, 6):
                fC = c_entry(k, r, p)
                for i in range(0, 4):
                    want = c_entry(k - 1, r, p - 1) if k in (i, -i) else Z()
                    assert sch.divided_difference(i, fC) == want, ("ddylem", k, r, p, i)
                if r <= 0:
                    fB = c_entry(k, r, p)
                    got = sch.divided_difference(0, fB, flavor="D")
                    if k == -1:
                        want = c_entry(-2, r, p - 1)
                    elif k == 0:
                        want = c_entry(-2, r, p - 1) * 2
                    elif k == 1:
                        want = c_entry(-1, r, p - 1) * 2 - c_entry(0, r, p - 1)
                    else:
                        want = Z()
                    assert got == want, ("branch-node", k, r, p)
    for k in range(0, 4):
        for r in range(1, 4):
            for p in range(0, 6):
                lin = GammaElement.from_raw(
                    [((), (0,) * k + (1,), (), 1), ((), (), (0,) * (r - 1) + (1,), 1)]
                )
                lhs = c_entry(k, -r, p)
                rhs = c_entry(k + 1, -r + 1, p) - lin * c_entry(k, -r + 1, p - 1)
                assert lhs == rhs, ("shift", k, r, p)
                for fsign in (1, -1):
                    lhsb = c_hat_entry(k, -r, p, fsign)
                    rhsb = c_hat_entry(k + 1, -r + 1, p, fsign) - lin * c_hat_entry(
                        k, -r + 1, p - 1, fsign
                    )
                    assert lhsb == rhsb, ("hat-shift", k, r, p, fsign)
    # hatted-entry divided differences: the x-side front-index rule, the
    # y-side back-index rule, and the y-side branch node (verified forms of
    # the stated dual lemmas; see the notes on the printed index conventions)
    for fsign in (1, -1):
        for k in range(0, 4):
            for p in range(k + 1, k + 5):
                fh = c_hat_entry(k, k - p, p, fsign)
                for i in range(1, 5):
                    want = c_hat_entry(k - 1, k - p, p - 1, fsign) if i == k else Z()
                    assert sch.divided_difference(i, fh) == want, ("hat-dd-x", fsign, k, p, i)
                    if i == p - k:
                        wanty = (
                            c_hat_entry(k, k - p + 1, p - 1, fsign)
                            if i >= 2
                            else _f_route(k, fsign) * 2
                        )
                    else:
                        wanty = Z()
                    assert sch.divided_difference(i, fh, "y") == wanty, (
                        "hat-dd-y", fsign, k, p, i,
                    )
                goty = sch.divided_difference(0, fh, "y", "D")
                if p == k + 1:
                    assert goty == _ftilde_s(k, 1, fsign) * 2, ("hat-box-y", fsign, k, p)
                else:
                    assert not goty, ("hat-box-y-zero", fsign, k, p)
    # two-column vanishing with paired superscripts
    for (k, r, p) in [(1, 1, 3), (0, 0, 1), (1, 0, 2), (0, 1, 2), (2, 1, 4), (1, 2, 4)]:
        assert not multi_schur_pfaffian(PfaffianSpec((k, k), (-r, -r), (p, p)), cross_check=False)
    # random hatted vanishing instances
    for _ in range(20):
        ell = rng.randint(2, 3)
        rho = [rng.randint(0, 2) for _ in range(ell)]
        alpha = [rho[i] + rng.randint(1, 3) for i in range(ell)]
        j = rng.randint(0, ell - 2)
        rho[j + 1], alpha[j + 1] = rho[j], alpha[j]
        beta = tuple(rho[i] - alpha[i] for i in range(ell))
        spec = PfaffianSpec(tuple(rho), beta, tuple(alpha), hatted=True)
        assert not multi_schur_pfaffian(spec, cross_check=False), spec
    _report(12, "operator algebra: squares, braids, Leibnitz, adjointness, entry-family lemmas")


def _f_route(k, fsign):
    """f_k on the chosen route: half the level-k generator plus fsign/2 e_k."""
    if k >= 1:
        return c_entry(k, 0, k) * Dyadic(1, 1) + GammaElement.from_poly(
            elem_sym(k, k, "x")
        ) * Dyadic(fsign, 1)
    return GammaElement.const(1) if fsign == 1 else Z()


def _ftilde_s(k, s, fsign):
    from schubring.polyring import complete_sym

    fk = _f_route(k, fsign)
    fs = fk
    for j in range(1, k + 1):
        hy = complete_sym(s, j, "-y")
        if hy:
            fs = fs + c_entry(k, 0, k - j) * GammaElement.from_poly(hy)
    return c_entry(k, 0, k) - fk * 2 + fs


def test_criterion_13_pfaffian_engine():
    grid = [
        PfaffianSpec((0, 0), (0, 0), (2, 1)),
        PfaffianSpec((0, 0, 0), (0, 0, 0), (5, 3, 1)),
        PfaffianSpec((1, 0), (-1, 0), (3, 1)),
        PfaffianSpec((2, 1, 0), (-2, -1, 0), (5, 3, 1)),
        PfaffianSpec((0, 0, 0, 0), (0, 0, 0, 0), (4, 3, 2, 1)),
        PfaffianSpec((1, 1, 0, 0), (-1, 0, 0, 1), (4, 3, 2, 1)),
        PfaffianSpec((0,) * 5, (0,) * 5, (5, 4, 3, 2, 1)),
        PfaffianSpec((0, 0), (-2, -1), (2, 1), hatted=True),
        PfaffianSpec((0, 0, 0), (-4, -3, -1), (4, 3, 1), hatted=True),
        PfaffianSpec((2, 1), (-2, -1), (4, 2), hatted=True),
        PfaffianSpec((1, 1), (-2, 0), (3, 1), hatted=True),
        PfaffianSpec((0,) * 4, (-4, -3, -2, -1), (4, 3, 2, 1), hatted=True),
        PfaffianSpec((0,) * 5, (-5, -4, -3, -2, -1), (5, 4, 3, 2, 1), hatted=True),
    ]
    for spec in grid:
        multi_schur_pfaffian(spec)  # raises on any expansion/block mismatch

    def P(mu):
        mu = tuple(mu)
        if not mu:
            return GammaElement.const(1)
        spec = PfaffianSpec((0,) * len(mu), tuple(-a for a in mu), mu, hatted=True)
        return multi_schur_pfaffian(spec, cross_check=False).restrict_vars(2)

    def strict_parts(maxw):
        out = []

        def rec(prefix, rem, maxpart):
            if len(prefix) >= 2:
                out.append(tuple(prefix))
            for p in range(min(rem, maxpart), 0, -1):
                rec(prefix + [p], rem - p, p - 1)

        rec([], maxw, maxw)
        return sorted(set(out))

    for mu in strict_parts(8):
        ext = mu + ((0,) if len(mu) % 2 else ())
        total = Z()
        for jj in range(1, len(ext)):
            pair = (ext[0], ext[jj]) if ext[jj] else (ext[0],)
            rest = tuple(ext[t] for t in range(1, len(ext)) if t != jj and ext[t])
            term = P(pair) * P(rest)
            total = total + (term if jj % 2 else -term)
        assert P(mu) == total, mu
    _report(13, "raising expansion == block Pfaffians (length <= 5); recursion to weight 8")
