import random

import pytest

from schubring.polyring import Dyadic, complete_sym, elem_sym
from schubring.gammaring import GammaElement, c_entry, level_c
from schubring.raising import (
    PfaffianSpec,
    RaisingExpression,
    c_family,
    c_hat_family,
    eta,
    expand,
    multi_schur_pfaffian,
    rr_expression,
    theta,
)
from schubring.kernel import (
    decompose_qpla,
    decompose_qpla_value,
    hh_straighten,
    poly_entry_family,
    ptilde,
    qtilde,
    schur_q,
)
from schubring.weyl import TypedPartition

from paper_checks import qtilde_super

g = GammaElement.generator


def strict_partitions_up_to(maxw):
    out = [()]

    def rec(prefix, rem, maxpart):
        for p in range(min(rem, maxpart), 0, -1):
            out.append(tuple(prefix) + (p,))
            rec(prefix + [p], rem - p, p - 1)

    rec([], maxw, maxw)
    return out


def test_single_entry_expression():
    entry = lambda row, a, keep: c_entry(1, -1, a)
    expr = RaisingExpression(1, ())
    assert expand(expr, entry, (3,)) == c_entry(1, -1, 3)


def test_two_row_q_matches_direct_sum():
    for p, q in [(2, 1), (3, 1), (3, 2), (4, 2), (1, 1)]:
        direct = g(p) * g(q)
        for i in range(1, q + 1):
            direct = direct + g(p + i) * g(q - i) * (2 * (-1) ** i)
        assert schur_q((p, q)) == direct


def test_repeated_part_vanishing():
    # the quadratic relations make equal adjacent rows collapse
    assert not schur_q((1, 1))
    assert not schur_q((2, 2))
    assert not schur_q((1, 2, 1))


def test_vanishing_with_paired_superscripts():
    # equal double columns above the threshold annihilate the Pfaffian
    for (k, r, p) in [(1, 1, 3), (0, 0, 1), (1, 0, 2), (0, 1, 2), (2, 1, 4)]:
        assert p > k + r
        assert not multi_schur_pfaffian(
            PfaffianSpec((k, k), (-r, -r), (p, p)), cross_check=False
        )
        assert not multi_schur_pfaffian(
            PfaffianSpec((0, k, k), (0, -r, -r), (p + k + r + 2, p, p)),
            cross_check=False,
        )


def test_negative_row_value():
    assert schur_q((-1, 1)) == GammaElement.const(-2)


def test_length_one_pfaffian():
    spec = PfaffianSpec((1,), (-2,), (3,))
    assert multi_schur_pfaffian(spec) == c_entry(1, -2, 3)


def test_block_pfaffian_cross_check_grid():
    for alpha in [(2, 1), (3, 1), (5, 3, 1), (3, 2, 1), (4, 2, 2), (2, -1, 1), (4, 3, 2, 1)]:
        multi_schur_pfaffian(PfaffianSpec((0,) * len(alpha), (0,) * len(alpha), alpha))
    for alpha, rho in [((3, 1), (1, 0)), ((4, 2), (2, 1)), ((5, 3, 1), (2, 1, 0))]:
        beta = tuple(-r for r in rho)
        multi_schur_pfaffian(PfaffianSpec(rho, beta, alpha))


def test_block_pfaffian_hatted_grid():
    for alpha in [(2, 1), (3, 2), (3, 2, 1), (4, 2, 1), (4, 3, 2, 1)]:
        spec = PfaffianSpec(
            (0,) * len(alpha), tuple(-a for a in alpha), alpha, hatted=True
        )
        multi_schur_pfaffian(spec)
    multi_schur_pfaffian(PfaffianSpec((2, 1), (-2, -1), (4, 2), hatted=True))


def test_pfaffian_recursion_hatted():
    # expansion along the first row, padding odd lengths by an empty part
    def P(mu):
        mu = tuple(mu)
        if not mu:
            return GammaElement.const(1)
        spec = PfaffianSpec(
            (0,) * len(mu), tuple(-a for a in mu), mu, hatted=True
        )
        return multi_schur_pfaffian(spec, cross_check=False).restrict_vars(2)

    for mu in [(2, 1), (3, 1), (3, 2, 1), (4, 3, 1), (4, 2, 1), (5, 2, 1), (4, 3, 2, 1)]:
        ext = mu + ((0,) if len(mu) % 2 else ())
        total = GammaElement.zero()
        for jj in range(1, len(ext)):
            pair = (ext[0], ext[jj]) if ext[jj] else (ext[0],)
            rest = tuple(ext[t] for t in range(1, len(ext)) if t != jj and ext[t])
            term = P(pair) * P(rest)
            total = total + (term if jj % 2 else -term)
        assert P(mu) == total, mu


def test_theta_single_row_low():
    for n in (1, 2, 3):
        for p in range(1, n + 1):
            assert theta(n, (p,)) == level_c(n, p), (n, p)


def test_theta_is_restricted_double():
    for n, lam in [(1, (2, 1)), (2, (3, 1)), (1, (1,))]:
        assert theta(n, lam, double=True).set_y_zero() == theta(n, lam)


def test_theta_rejects_bad_shape():
    with pytest.raises(AssertionError):
        theta(1, (2, 2))


def test_double_generator_is_one_row_theta():
    # {}^n c^n_p is the restriction of the level n+p-1 one-row double theta
    from schubring.kernel import level_c_double

    for n in (1, 2):
        for p in (1, 2, 3):
            th = theta(n + p - 1, (p,), double=True).restrict_vars(n)
            assert th == level_c_double(n, p), (n, p)


def test_eta_trivial_and_single_rows():
    from schubring.kernel import level_b, level_b_prime

    assert eta(2, TypedPartition((), 2, 0)) == GammaElement.const(1)
    assert eta(2, TypedPartition((1,), 2, 0)) == level_b(2, 1)
    assert eta(3, TypedPartition((2,), 3, 0)) == level_b(3, 2)
    assert eta(2, TypedPartition((2,), 2, 1)) == level_b(2, 2)
    assert eta(2, TypedPartition((2,), 2, 2)) == level_b_prime(2)
    assert eta(2, TypedPartition((3,), 2, 0)) == level_b(2, 3)


def test_qtilde_examples():
    n = 2
    e1, e2 = (GammaElement.from_poly(elem_sym(n, k, "x")) for k in (1, 2))
    assert qtilde((1,), n) == e1
    assert qtilde((1, 1), n) == e1 * e1 - e2 * 2
    assert qtilde((), n) == GammaElement.const(1)


def test_ptilde_scaling():
    for lam in [(1,), (2, 1), (3, 1)]:
        q = qtilde(lam, 2)
        p = ptilde(lam, 2)
        assert p * 2 ** len(lam) == q


def test_qtilde_signed():
    lam = (2, 1)
    q = qtilde(lam, 2)
    qs = qtilde(lam, 2, signed=True)
    assert qs == GammaElement(
        {k: (c if sum(k[1]) % 2 == 0 else -c) for k, c in q.terms.items()}
    )


def test_straightening_against_pfaffian():
    for lam in strict_partitions_up_to(6):
        top = lam[0] if lam else 99
        for k in range(-4, 5):
            if lam and k >= top:
                continue
            assert hh_straighten(k, lam) == schur_q((k,) + lam), (k, lam)


def test_straightening_specific_cases():
    assert hh_straighten(-1, (1,)) == GammaElement.const(-2)
    assert not hh_straighten(-2, (1,))
    # positive insertion with the counting sign
    assert hh_straighten(1, (2,)) == -schur_q((2, 1))
    assert hh_straighten(0, (1,)) == -schur_q((1,))


def test_qpla_decomposition():
    # the explicit member of the level-n ideal reassembles exactly
    for (p, lam, n) in [(3, (1,), 1), (3, (), 2), (4, (2,), 2), (3, (2, 1), 2)]:
        assert decompose_qpla_value(p, lam, n) == schur_q((p,) + lam), (p, lam, n)


def test_qpla_empty_shape_resums_generator():
    # p > n: c_p = sum (-1)^{j-1} c_{p-j} {}^n c_j
    for n in (1, 2):
        for p in range(n + 1, n + 4):
            acc = GammaElement.zero()
            for j in range(1, p + 1):
                acc = acc + g(p - j) * level_c(n, j) * ((-1) ** (j - 1))
            assert acc == g(p), (n, p)


def test_qpla_staircase_display():
    # the base case of the staircase: one generator plus the doubled tail
    n = 2
    delta3, delta2 = (3, 2, 1), (2, 1)
    lhs = schur_q(delta3)
    rhs = schur_q(delta2) * level_c(n, 3)
    for r in (1, 2):
        rest = tuple(q for q in delta2 if q != r)
        rhs = rhs + schur_q(rest) * level_c(n, 3 + r) * (2 * (-1) ** r)
    assert lhs == rhs


def test_qpla_precondition():
    with pytest.raises(AssertionError):
        decompose_qpla(2, (3,), 1)


def test_hatted_vanishing_random_instances():
    rng = random.Random(9)
    for _ in range(20):
        ell = rng.randint(2, 3)
        rho = [rng.randint(0, 2) for _ in range(ell)]
        alpha = [rho[i] + rng.randint(1, 3) for i in range(ell)]
        j = rng.randint(0, ell - 2)
        rho[j + 1], alpha[j + 1] = rho[j], alpha[j]
        beta = tuple(rho[i] - alpha[i] for i in range(ell))
        spec = PfaffianSpec(tuple(rho), beta, tuple(alpha), hatted=True)
        assert not multi_schur_pfaffian(spec, cross_check=False), spec


def test_supersymmetric_qtilde():
    # entries e-hat_a; the two-row value keeps the classical shape
    v = qtilde_super((1,), 2)
    from paper_checks import supersym_e

    assert v == GammaElement.from_poly(supersym_e(1, 2))


def test_schur_jacobi_trudi_vs_alternant():
    # the type A cornerstones: the raising form of the dual determinant
    # identity and the alternating-sum quotient agree on small shapes
    from schubring.gammaring import GammaElement
    from schubring.weyl import SignedPermutation, enumerate_group
    import itertools

    def alternation(f, n):
        total = GammaElement.zero()
        for u in enumerate_group("S", n):
            term = f.permute_x(u)
            total = total + (term if u.length() % 2 == 0 else -term)
        return total

    for n in (2, 3):
        delta = tuple(range(n - 1, -1, -1))
        a_delta = alternation(GammaElement.monomial(xk=delta), n)
        for lam in [(1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2)]:
            if len(lam) > n:
                continue
            conj = tuple(
                sum(1 for p in lam if p >= k) for k in range(1, (lam[0] if lam else 0) + 1)
            )
            entry = poly_entry_family(lambda a: elem_sym(n, a, "x"))
            expr = RaisingExpression(max(len(conj), 1), ())
            schur = expand(expr, entry, conj if conj else (0,))
            padded = tuple(
                (lam[i] if i < len(lam) else 0) + delta[i] for i in range(n)
            )
            lhs = schur * alternation(GammaElement.monomial(xk=delta), n)
            rhs = alternation(GammaElement.monomial(xk=padded), n)
            assert lhs == rhs, (n, lam)


def test_pair_sets_match_staircase_inequality():
    # the window-based pair rule agrees with the staircase inequality on the
    # shape: strict above threshold in type C, inclusive in type D
    from schubring.weyl import enumerate_grassmannian, grassmannian_shape

    for n in (1, 2):
        for w in enumerate_grassmannian(n, "BC", 6):
            lam = grassmannian_shape(w, n)
            ell = len(lam)
            from_window = {
                (i, j)
                for i in range(1, ell + 1)
                for j in range(i + 1, ell + 1)
                if w(n + i) + w(n + j) < 0
            }
            from_shape = {
                (i, j)
                for i in range(1, ell + 1)
                for j in range(i + 1, ell + 1)
                if lam[i - 1] + lam[j - 1] > 2 * n + (j - i)
            }
            assert from_window == from_shape, (n, lam)
    for w in enumerate_grassmannian(2, "D", 6):
        t = grassmannian_shape(w, 2)
        lam, ell = t.parts, len(t.parts)
        from_window = {
            (i, j)
            for i in range(1, ell + 1)
            for j in range(i + 1, ell + 1)
            if w(2 + i) + w(2 + j) < 0
        }
        from_shape = {
            (i, j)
            for i in range(1, ell + 1)
            for j in range(i + 1, ell + 1)
            if lam[i - 1] + lam[j - 1] >= 4 + (j - i)
        }
        assert from_window == from_shape, (lam, t.ptype)


def naive_expand(expr, entry_fn, alpha, star=False, prefactor=1):
    """Reference expansion: list every raising monomial, then multiply its
    entries from scratch.  Shares no code with raising.expand."""
    ell = expr.arity
    denom = set(expr.inverted)

    def series(k, i, j):
        # coefficient of R^k in (1 - R) * (1 + R)^(-[den])
        den = lambda m: (-1) ** m if (i, j) in denom else int(m == 0)
        return den(k) - (den(k - 1) if k else 0)

    states = {(tuple(alpha), frozenset()): 1}
    pairs = [(i, j) for i in range(1, ell) for j in range(i + 1, ell + 1)]
    for i, j in sorted(pairs, key=lambda ij: (-ij[1], ij[0])):
        new = {}
        for (vec, supp), coeff in states.items():
            for k in range(max(vec[j - 1], 0) + 1):
                c = series(k, i, j)
                if c:
                    v = vec[: i - 1] + (vec[i - 1] + k,) + vec[i:j - 1] + (vec[j - 1] - k,) + vec[j:]
                    s = supp | {i, j} if star and k and (i, j) in denom else supp
                    new[(v, s)] = new.get((v, s), 0) + coeff * c
        states = new
    total = GammaElement.zero()
    for (vec, supp), coeff in states.items():
        piece = GammaElement.const(coeff)
        for row, a in enumerate(vec, 1):
            piece = piece * entry_fn(row, a, not (star and row in supp))
        total = total + piece
    return total * prefactor


def _random_expression(rng, ell):
    if rng.random() < 0.5:
        return rr_expression(ell)
    pairs = [(i, j) for i in range(1, ell) for j in range(i + 1, ell + 1)]
    return RaisingExpression(ell, tuple(p for p in pairs if rng.random() < 0.5))


@pytest.mark.parametrize("kind", ["c", "c_hat", "poly"])
def test_expand_matches_naive_per_state(kind):
    # 110 seeded cases per entry family; alphas include zeros and negatives
    rng = random.Random(f"expand-{kind}")
    for _ in range(110):
        ell = rng.randint(1, 4)
        top = 3 if ell <= 2 else 2
        expr = _random_expression(rng, ell)
        star = kind == "c_hat" or rng.random() < 0.5
        if kind == "c":
            rho = [rng.randint(-1, 2) for _ in range(ell)]
            beta = [rng.randint(-2, 1) for _ in range(ell)]
            fam = c_family(rho, beta)
            alpha = [rng.randint(-1, top + 1) for _ in range(ell)]
        elif kind == "c_hat":
            # subscripts near rho - beta, where the hat correction lives
            rho = [rng.randint(0, 2) for _ in range(ell)]
            beta = [rng.randint(-2, 0) for _ in range(ell)]
            fam = c_hat_family(rho, beta)
            alpha = [max(rho[i] - beta[i] + rng.randint(-2, 1), -1) for i in range(ell)]
        else:
            fn = rng.choice([lambda a: elem_sym(3, a, "x"), lambda a: complete_sym(2, a, "-y")])
            fam = poly_entry_family(fn)
            alpha = [rng.randint(-1, top + 1) for _ in range(ell)]
        pref = rng.choice([1, Dyadic(1, ell)])
        got = expand(expr, fam, alpha, star=star, prefactor=pref)
        assert got == naive_expand(expr, fam, tuple(alpha), star, pref), (expr, alpha, kind)
