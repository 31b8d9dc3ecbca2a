import random

from schubring.polyring import (
    Dyadic,
    SparsePoly,
    complete_sym,
    elem_sym,
    supersym_e,
)

from truncated_series import TruncatedSeries


def test_dyadic_canonical_form():
    assert Dyadic(4, 2) == Dyadic(1)
    assert Dyadic(6, 1) == Dyadic(3)
    assert Dyadic(0, 5) == Dyadic(0)
    d = Dyadic(3, 2) + Dyadic(1, 2)
    assert d == Dyadic(1) and d.is_integer


def test_dyadic_arithmetic_matches_fractions():
    rng = random.Random(1)
    for _ in range(200):
        a = Dyadic(rng.randint(-40, 40), rng.randint(0, 5))
        b = Dyadic(rng.randint(-40, 40), rng.randint(0, 5))
        assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()
        assert (a * b).as_fraction() == a.as_fraction() * b.as_fraction()
        assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()
        assert a.half().as_fraction() * 2 == a.as_fraction()


def test_ring_axioms_on_random_polys():
    rng = random.Random(2)

    def rand_poly():
        p = SparsePoly.zero()
        for _ in range(4):
            xk = tuple(rng.randint(0, 2) for _ in range(2))
            yk = (rng.randint(0, 1),)
            p = p + SparsePoly({(xk, yk): Dyadic(rng.randint(-3, 3), rng.randint(0, 1))})
        return p

    for _ in range(10):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_elem_sym_basics():
    x1 = SparsePoly.var("x", 1)
    assert elem_sym(1, 1, "x") == x1
    # h^0_j is the Kronecker delta
    assert complete_sym(0, 0, "x") == SparsePoly.const(1)
    assert complete_sym(0, 2, "x") == SparsePoly.zero()
    # the negative-index convention h^{-2}_1 = e^2_1
    assert complete_sym(-2, 1, "x") == elem_sym(2, 1, "x")
    assert elem_sym(-3, 2, "x") == complete_sym(3, 2, "x")


def test_e_h_convolution():
    # sum_j (-1)^j e_j h_{k-j} = delta_{0k}
    for r in (1, 2, 3):
        for k in range(0, 9):
            acc = SparsePoly.zero()
            for j in range(0, k + 1):
                term = elem_sym(r, j, "x") * complete_sym(r, k - j, "x")
                acc = acc + (term if j % 2 == 0 else -term)
            assert acc == (SparsePoly.const(1) if k == 0 else SparsePoly.zero()), (r, k)


def test_schur_q_generator_relation():
    # q_p^2 + 2 sum_{i=1}^p (-1)^i q_{p+i} q_{p-i} = 0, with q_p(x_1..x_N) the
    # coefficient of t^p in prod (1 + x_j t) / (1 - x_j t) = E(t) H(t)
    N = 4

    def q(p):
        acc = SparsePoly.zero()
        for k in range(0, p + 1):
            acc = acc + elem_sym(N, k, "x") * complete_sym(N, p - k, "x")
        return acc

    assert q(1) == elem_sym(N, 1, "x") * 2
    for p in (1, 2, 3):
        acc = q(p) * q(p)
        for i in range(1, p + 1):
            acc = acc + q(p + i) * q(p - i) * (2 * (-1) ** i)
        assert acc == SparsePoly.zero(), p


def test_supersym_e_small_values():
    assert supersym_e(0, 2) == SparsePoly.const(1)
    assert supersym_e(-1, 2) == SparsePoly.zero()
    x1, y1 = SparsePoly.var("x", 1), SparsePoly.var("y", 1)
    assert supersym_e(1, 1) == x1 - y1


def test_supersym_generating_series():
    # sum e-hat_j t^j equals prod (1+x_j t)/(1+y_j t), checked by series division
    n, order = 2, 6
    num = TruncatedSeries.one(order)
    den = TruncatedSeries.one(order)
    for j in range(1, n + 1):
        num = num * TruncatedSeries([SparsePoly.const(1), SparsePoly.var("x", j)], order)
        den = den * TruncatedSeries([SparsePoly.const(1), SparsePoly.var("y", j)], order)
    quotient = num / den
    lhs = TruncatedSeries([supersym_e(p, n) for p in range(order + 1)], order)
    assert lhs == quotient

