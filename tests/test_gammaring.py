import random
from fractions import Fraction

import pytest

from schubring.polyring import Dyadic, SparsePoly, elem_sym
from schubring.gammaring import (
    GammaElement,
    act_generator,
    btilde,
    c_entry,
    level_b,
    level_b_prime,
    level_c,
    level_c_double,
    oracle_embed,
    oracle_raw_embed,
    weyl_act,
)
from schubring.weyl import SignedPermutation

from oracle_model import oracle_index0, oracle_mul

g = GammaElement.generator


def b(p):
    """The type D generator b_p = c_p / 2."""
    return g(p) * Dyadic(1, 1)


def from_b_raw(raw):
    """A family-b raw term list, each b_lambda written as c_lambda / 2^{l(lambda)}."""
    return [(subs, xk, yk, Dyadic(c, sum(1 for s in subs if s))) for subs, xk, yk, c in raw]


def rand_raw(rng, nterms=5, maxsub=3, maxfactors=2, nx=2, ny=1):
    raw = []
    for _ in range(nterms):
        k = rng.randint(0, maxfactors)
        subs = [rng.randint(1, maxsub) for _ in range(k)]
        xk = tuple(rng.randint(0, 2) for _ in range(nx))
        yk = tuple(rng.randint(0, 1) for _ in range(ny))
        raw.append((subs, xk, yk, rng.randint(-3, 3)))
    return raw


def test_normalize_square_relations():
    assert g(1) * g(1) == g(2) * 2
    assert b(1) * b(1) == b(2)
    # already-strict monomials are fixed points
    f = GammaElement.from_raw([((3, 1), (), (), 1)])
    assert f == GammaElement({((3, 1), (), ()): Dyadic(1)})


def test_normalize_handles_zero_and_negative_subscripts():
    f = GammaElement.from_raw([((2, 0), (), (), 1), ((3, -1), (), (), 5)])
    assert f == g(2)


def test_normalize_idempotent_and_confluent():
    rng = random.Random(3)
    for fam in ("c", "b"):
        for _ in range(15):
            f, h = rand_element(fam, rng), rand_element(fam, rng)
            fh = f * h
            # every stored monomial is strictly decreasing
            for subs, _, _ in fh.terms:
                assert all(subs[i] > subs[i + 1] for i in range(len(subs) - 1))
            # re-normalizing the normal form changes nothing
            again = GammaElement.from_raw(
                [(list(s), x, y, c) for (s, x, y), c in fh.terms.items()]
            )
            assert again == fh


def test_oracle_embedding_basics():
    # c_1 -> q_1 = 2 p_1, c_3 -> q_3 = 4/3 p_1^3 + 2/3 p_3, b_p -> q_p / 2
    assert oracle_embed(g(1)) == {((1,), (), ()): Fraction(2)}
    assert oracle_embed(g(3)) == {
        ((1, 1, 1), (), ()): Fraction(4, 3),
        ((3,), (), ()): Fraction(2, 3),
    }
    assert oracle_embed(b(1)) == {((1,), (), ()): Fraction(1)}
    # x and y pass through; the image of a product is the product of images
    xy = GammaElement.monomial(xk=(0, 2), yk=(1,))
    assert oracle_embed(xy) == {((), (0, 2), (1,)): Fraction(1)}
    assert oracle_embed(g(1) * g(1) * xy) == oracle_raw_embed([([1, 1], (0, 2), (1,), 1)])
    assert oracle_embed(g(1) * g(1)) == {((1, 1), (), ()): Fraction(4)}


def test_oracle_relations_vanish():
    for p in range(1, 6):
        # the c-relation c_p^2 + 2 sum_{i=1}^p (-1)^i c_{p+i} c_{p-i}
        rel = [([p, p], (), (), 1)]
        for i in range(1, p + 1):
            rel.append(([p + i, p - i], (), (), 2 * (-1) ** i))
        assert oracle_raw_embed(rel) == {}, p
        # the b-relation b_p^2 + 2 sum_{i<p} (-1)^i b_{p+i} b_{p-i} + (-1)^p b_{2p}
        rel = [([p, p], (), (), 1)]
        for i in range(1, p):
            rel.append(([p + i, p - i], (), (), 2 * (-1) ** i))
        rel.append(([2 * p], (), (), (-1) ** p))
        assert oracle_raw_embed(from_b_raw(rel)) == {}, p


def test_oracle_matches_normalization():
    rng = random.Random(4)
    for fam in ("c", "b"):
        for _ in range(20):
            raw = rand_raw(rng)
            if fam == "b":
                raw = from_b_raw(raw)
            f = GammaElement.from_raw(raw)
            assert oracle_embed(f) == oracle_raw_embed(raw)
    # products whose operands' coefficients carry different powers of two
    for _ in range(20):
        f, h = rand_element("b", rng), rand_element("b", rng) * Dyadic(3, 2)
        assert oracle_embed(f * h) == oracle_mul(oracle_embed(f), oracle_embed(h))


def test_oracle_detects_corrupted_normal_form():
    # changing any one coefficient of a normal form breaks the agreement
    rng = random.Random(5)
    checked = 0
    for fam in ("c", "b"):
        for _ in range(10):
            raw = rand_raw(rng)
            if fam == "b":
                raw = from_b_raw(raw)
            f = GammaElement.from_raw(raw)
            expected = oracle_raw_embed(raw)
            for k, c in f.terms.items():
                bad = GammaElement({**f.terms, k: c + Dyadic(1)})
                assert oracle_embed(bad) != expected, (fam, raw, k)
                checked += 1
    assert checked >= 50


def test_oracle_injective_on_graded_pieces():
    # images of the strict monomials of each weight <= 8 are independent
    from schubring.invariants import exact_rank, strict_partitions_of

    for d in range(1, 9):
        images = [
            oracle_embed(GammaElement({(lam, (), ()): Dyadic(1)}))
            for lam in strict_partitions_of(d)
        ]
        keys = sorted(set().union(*images))
        rows = [[img.get(k, Fraction(0)) for k in keys] for img in images]
        assert exact_rank(rows) == len(images), d


def test_weyl_action_sign_change():
    c1 = g(1)
    assert act_generator(0, c1) == GammaElement.from_raw(
        [((1,), (), (), 1), ((), (1,), (), 2)]
    )
    for p in range(1, 6):
        assert act_generator(0, act_generator(0, g(p))) == g(p)


def test_weyl_action_branch_node():
    for p in range(1, 5):
        bp = b(p)
        assert act_generator(0, act_generator(0, bp, "D"), "D") == bp
    # the explicit display at p = 2
    x1 = GammaElement.monomial(xk=(1,))
    x2 = GammaElement.monomial(xk=(0, 1))
    expect = b(2) + (x1 + x2) * (b(1) * 2 + x1 + x2)
    assert act_generator(0, b(2), "D") == expect


def test_weyl_action_word_independence():
    rng = random.Random(6)
    w = SignedPermutation((-2, 3, -1), "D")
    f = GammaElement.from_raw(from_b_raw(rand_raw(rng)))
    # two different reduced words give the same action
    word = w.reduced_word()
    out1 = f
    for i in reversed(word):
        out1 = act_generator(i, out1, "D")
    assert out1 == weyl_act(w, f)


FLAVOR = {"c": "BC", "b": "D"}


def rand_element(family, rng, *args, **kwargs):
    """A random element, in the b basis for family b."""
    raw = rand_raw(rng, *args, **kwargs)
    return GammaElement.from_raw(from_b_raw(raw) if family == "b" else raw)


def literal_image(family, p):
    """s_0(c_p) = c_p + 2 sum_{j=1}^p x1^j c_{p-j};  the branch reflection
    sends c_p to c_p + 2 (x1 + x2) sum_{j<p} h_j(x1, x2) c_{p-1-j}."""
    raw = [((p,), (), (), 1)]
    if family == "c":
        raw += [((p - j,), (j,), (), 2) for j in range(1, p + 1)]
    for j in range(p if family == "b" else 0):
        q = p - 1 - j
        for u in range(j + 1):
            raw += [((q,), (u + 1, j - u), (), 2), ((q,), (u, j - u + 1), (), 2)]
    return GammaElement.from_raw(raw)


def literal_reflection(f, family):
    """Index-0 action term by term: move the monomial (x1 -> -x1, or
    (x1, x2) -> (-x2, -x1)) and multiply by the image of each generator."""
    out = GammaElement.zero()
    for (subs, xk, yk), c in f.terms.items():
        a = tuple(xk) + (0, 0)
        if family == "c":
            mono = ((), xk, yk, c * (-1) ** a[0])
        else:
            mono = ((), (a[1], a[0]) + a[2:], yk, c * (-1) ** (a[0] + a[1]))
        piece = GammaElement.from_raw([mono])
        for p in subs:
            piece = piece * literal_image(family, p)
        out = out + piece
    return out


@pytest.mark.parametrize("family", ["c", "b"])
def test_index0_reflection_is_multiplicative(family):
    rng = random.Random(f"mult-{family}")
    s0 = lambda f: act_generator(0, f, FLAVOR[family])
    for _ in range(200):
        # smaller factors keep the product's image affordable
        f = rand_element(family, rng, 3, 3, 2, nx=3, ny=2)
        h = rand_element(family, rng, 3, 3, 2, nx=3, ny=2)
        assert s0(f * h) == s0(f) * s0(h)


@pytest.mark.parametrize("family", ["c", "b"])
def test_index0_reflection_is_an_involution(family):
    rng = random.Random(f"inv-{family}")
    for _ in range(200):
        f = rand_element(family, rng, 4, 3, 3, nx=3, ny=2)
        assert act_generator(0, act_generator(0, f, FLAVOR[family]), FLAVOR[family]) == f


@pytest.mark.parametrize("family", ["c", "b"])
def test_index0_reflection_matches_literal_per_term_form(family):
    rng = random.Random(f"literal-{family}")
    for _ in range(200):
        f = rand_element(family, rng, 4, 3, 3, nx=3, ny=2)
        assert act_generator(0, f, FLAVOR[family]) == literal_reflection(f, family)


@pytest.mark.parametrize("flavor", ["BC", "D"])
def test_index0_reflection_matches_oracle_ring_map(flavor):
    # shares only oracle_embed with the action it checks: no relation, no
    # normal form on the expected side
    family = "c" if flavor == "BC" else "b"
    rng = random.Random(f"oracle-{flavor}")
    for _ in range(200):
        f = rand_element(family, rng, 4, 4, 2, nx=3, ny=2)
        assert oracle_embed(act_generator(0, f, flavor)) == oracle_index0(oracle_embed(f), flavor)


def test_omega():
    x1 = GammaElement.monomial(xk=(1,))
    y1 = GammaElement.monomial(yk=(1,))
    assert x1.omega() == -y1
    rng = random.Random(7)
    for _ in range(10):
        f = GammaElement.from_raw(rand_raw(rng))
        assert f.omega().omega() == f
    # omega exchanges the two indices of the entry family
    for k in range(-2, 3):
        for r in range(-2, 3):
            for p in range(0, 4):
                assert c_entry(k, r, p).omega() == c_entry(-r, -k, p)


def test_c_entry_examples():
    assert c_entry(0, 0, 3) == g(3)
    x1 = GammaElement.monomial(xk=(1,))
    y1 = GammaElement.monomial(yk=(1,))
    assert c_entry(1, 1, 1) == g(1) + x1 - y1
    assert c_entry(0, -1, 1) == g(1) - y1


def test_generating_identity_double_generators():
    # sum {}^n c^n_p t^p = (sum c_p t^p) prod (1+x_j t)/(1+y_j t), to degree 6
    from truncated_series import TruncatedSeries

    for n in (1, 2):
        order = 6
        cs = TruncatedSeries(
            [SparsePoly.const(1)] + [SparsePoly.zero()] * order, order
        )
        # compare coefficientwise inside Gamma: build both sides as elements
        num = TruncatedSeries.one(order)
        den = TruncatedSeries.one(order)
        for j in range(1, n + 1):
            num = num * TruncatedSeries([SparsePoly.const(1), SparsePoly.var("x", j)], order)
            den = den * TruncatedSeries([SparsePoly.const(1), SparsePoly.var("y", j)], order)
        ratio = num / den
        for p in range(order + 1):
            rhs = GammaElement.zero()
            for j in range(0, p + 1):
                rhs = rhs + g(p - j) * GammaElement.from_poly(ratio.coeffs[j])
            assert level_c_double(n, p) == rhs, (n, p)


def test_convolution_identities():
    # the three convolution identities relating the double generators to
    # elementary symmetric and supersymmetric functions, to degree 6
    from schubring.polyring import supersym_e

    for n in (1, 2, 3):
        for p in range(0, 7):
            # against c^{-n}: gives e_p(X_n)
            acc = GammaElement.zero()
            for i in range(0, p + 1):
                acc = acc + level_c_double(n, p - i) * c_entry(0, -n, i) * ((-1) ** i)
            assert acc == GammaElement.from_poly(elem_sym(n, p, "x")), ("hq", n, p)
            # against plain c: gives the supersymmetric functions
            acc = GammaElement.zero()
            for i in range(0, p + 1):
                acc = acc + level_c_double(n, p - i) * g(i) * ((-1) ** i)
            assert acc == GammaElement.from_poly(supersym_e(p, n)), ("tq", n, p)


def test_squared_variable_identity():
    # ({}^n c_p)^2 + 2 sum (-1)^i {}^n c_{p+i} {}^n c_{p-i} = e_p of the squares
    for n in (1, 2, 3):
        for p in range(0, 5):
            acc = level_c(n, p) * level_c(n, p)
            for i in range(1, p + 1):
                acc = acc + level_c(n, p + i) * level_c(n, p - i) * (2 * (-1) ** i)
            esq = elem_sym(n, p, "x")
            esq = SparsePoly({(tuple(2 * e for e in xk), yk): c for (xk, yk), c in esq.terms.items()})
            assert acc == GammaElement.from_poly(esq), (n, p)


def test_embedding_into_p_ring():
    # c_p = 2 b_p: a b-basis document lists c_lambda with coefficient
    # 2^{l(lambda)}, and reading it back is exact on sums and products
    from schubring.serialize import document_to_gamma, gamma_to_document, parse_document, render_document

    rng = random.Random(8)
    for _ in range(10):
        f = GammaElement.from_raw(rand_raw(rng))
        h = GammaElement.from_raw(rand_raw(rng))
        for val in (f * h, f + h):
            text = render_document(gamma_to_document(val, "b"))
            assert document_to_gamma(parse_document(text)) == val
    assert gamma_to_document(g(2) * g(1), "b").terms == [["4", [2, 1], [], []]]


def test_level_b_dictionary():
    # {}^n c_p = {}^n b_p (p < n), {}^n b_n + {}^n b'_n (p = n), 2 {}^n b_p (p > n)
    for n in (1, 2, 3):
        for p in range(1, 6):
            lhs = level_c(n, p)
            if p < n:
                assert lhs == level_b(n, p), (n, p)
            elif p == n:
                assert lhs == level_b(n, n) + level_b_prime(n), (n, p)
            else:
                assert lhs == level_b(n, p) * 2, (n, p)


def test_b_minus_bprime():
    for n in (1, 2, 3):
        diff = level_b(n, n) - level_b_prime(n)
        assert diff == GammaElement.from_poly(elem_sym(n, n, "x")), n


def test_btilde_definition():
    b2 = btilde(2)
    y1 = GammaElement.monomial(yk=(1,))
    y2 = GammaElement.monomial(yk=(0, 1))
    assert b2 == b(2) - b(1) * (y1 + y2)


def test_store_canonical_form():
    # numerators over one power of two: no zero numerator, and the exponent
    # is 0 or some numerator is odd, so equal elements have equal storage
    rng = random.Random("canonical")
    for family in ("c", "b"):
        for _ in range(100):
            f = rand_element(family, rng, 4, 4, 2, nx=3, ny=2)
            assert all(f.nums.values()) and (f.exp == 0 or any(n % 2 for n in f.nums.values()))
            h = (f * 2) * Dyadic(1, 1)
            assert (h.nums, h.exp) == (f.nums, f.exp)
            # the read-only terms view: trimmed keys, Dyadic values, O(1) len
            assert len(f.terms) == len(f.nums) and GammaElement(dict(f.terms.items())) == f
            assert all(k[1][-1:] != (0,) and k[2][-1:] != (0,) and c == f.terms[k] for k, c in f.terms.items())
            assert (f * Dyadic(1, 1)) * 2 == f and f * Dyadic(0) == GammaElement.zero()
    x1, x2 = GammaElement.monomial(xk=(1,)), GammaElement.monomial(xk=(0, 1))
    half = Dyadic(1, 1)
    # a sum whose numerators all turn even lowers the exponent
    s = (x1 + x2) * half + (x1 - x2) * half
    assert (s.nums, s.exp) == (x1.nums, 0)
    s = (x1 + x2 * 3) * Dyadic(1, 2) + (x1 * 3 + x2) * Dyadic(1, 2)
    assert (s.nums, s.exp) == ((x1 + x2).nums, 0)
    assert ((x1 * half) - (x1 * half)).exp == 0


def test_b_products_stay_exact():
    # b_1^2 = c_1^2 / 4 = 2 c_2 / 4 = b_2: the product's numerators turn even
    assert b(1) * b(1) == b(2) and (b(1) * b(1)).exp == 1
    rng = random.Random("b-products")
    for _ in range(50):
        f = rand_element("b", rng, 3, 4, 2, nx=2, ny=1)
        h = rand_element("b", rng, 3, 4, 2, nx=2, ny=1)
        p = f * h
        assert p.exp == 0 or any(n % 2 for n in p.nums.values())
        assert oracle_embed(p) == oracle_mul(oracle_embed(f), oracle_embed(h))


def test_product_degree_overflow_is_a_value_error():
    big = GammaElement.monomial(xk=(40000,))
    with pytest.raises(ValueError):
        big * big
    with pytest.raises(ValueError):
        GammaElement.monomial(xk=(-1,))
    assert (big * GammaElement.monomial(yk=(1,))).degree() == 40001
