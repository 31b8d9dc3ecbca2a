import random

import pytest

from schubring.polyring import Dyadic, elem_sym, complete_sym
from schubring.gammaring import (
    GammaElement,
    act_generator,
    c_entry,
    c_hat_entry,
    level_c,
)
from schubring.weyl import SignedPermutation, enumerate_group, is_grassmannian
from schubring.schubert import (
    _divide_by_x1,
    _divide_uv,
    divided_difference,
    divided_difference_w,
    divided_difference_word,
    longest_element,
    schubert_b,
    schubert_expand_single,
    schubert_divdiff,
    schubert_poly,
    schubert_transition,
    theta_expand,
)
from schubring.raising import eta, theta
from schubring.kernel import scalar_product, schubert_restricted
from schubring.verify import (
    alternating_operator,
    pfaffian_formula,
    staircase_monomial,
    verify_theta_alternant,
)

S = SignedPermutation
g = GammaElement.generator
Z = GammaElement.zero
FLAVOR = {"c": "BC", "b": "D"}


def rand_el(rng, fam, with_y=True):
    """A random element; for family b, in the b basis, b_lambda = c_lambda / 2^{l(lambda)}."""
    raw = []
    for _ in range(5):
        k = rng.randint(0, 2)
        subs = [rng.randint(1, 3) for _ in range(k)]
        xk = tuple(rng.randint(0, 2) for _ in range(3))
        yk = tuple(rng.randint(0, 1) for _ in range(2)) if with_y else ()
        raw.append((subs, xk, yk, Dyadic(rng.randint(-2, 2), len(subs) if fam == "b" else 0)))
    return GammaElement.from_raw(raw)


# -- divided differences -----------------------------------------------------


def test_divided_difference_basics():
    x1 = GammaElement.monomial(xk=(1,))
    assert divided_difference(1, x1) == GammaElement.const(1)
    assert divided_difference(0, g(1)) == GammaElement.const(1)
    # sign-change-invariant inputs divide to zero exactly
    assert not divided_difference(0, x1 * x1)
    # an inexact division raises instead of dropping the remainder
    with pytest.raises(ArithmeticError):
        _divide_uv(x1, 1, plus=False)
    with pytest.raises(ArithmeticError):
        _divide_by_x1(GammaElement.monomial(yk=(1,)), 2)


def test_divided_difference_front_index_rule():
    for k in range(-3, 4):
        for r in (-2, 0, 2):
            for p in range(0, 5):
                f = c_entry(k, r, p)
                for i in range(0, 4):
                    want = c_entry(k - 1, r, p - 1) if k in (i, -i) else Z()
                    assert divided_difference(i, f) == want, (k, r, p, i)


def test_divided_difference_squares_vanish():
    rng = random.Random(10)
    for fam in ("c", "b"):
        f = rand_el(rng, fam)
        for i in (0, 1, 2):
            df = divided_difference(i, f, flavor=FLAVOR[fam])
            assert not divided_difference(i, df, flavor=FLAVOR[fam]), (fam, i)


def test_braid_relations():
    rng = random.Random(11)
    f = rand_el(rng, "c")
    # commuting pairs
    assert divided_difference_word((0, 2), f) == divided_difference_word((2, 0), f)
    assert divided_difference_word((1, 3), f) == divided_difference_word((3, 1), f)
    # the type A braid and the length-four braid at the sign node
    assert divided_difference_word((1, 2, 1), f) == divided_difference_word((2, 1, 2), f)
    assert divided_difference_word((0, 1, 0, 1), f) == divided_difference_word((1, 0, 1, 0), f)
    fb = rand_el(rng, "b")
    # branch node commutes with the first transposition, braids with the second
    word_d = lambda word: divided_difference_word(word, fb, flavor="D")
    assert word_d((0, 1)) == word_d((1, 0))
    assert word_d((0, 2, 0)) == word_d((2, 0, 2))


def test_leibnitz_rule():
    rng = random.Random(12)
    for fam in ("c", "b"):
        for i in (0, 1, 2):
            f, h = rand_el(rng, fam), rand_el(rng, fam)
            dd = lambda e: divided_difference(i, e, flavor=FLAVOR[fam])
            lhs = dd(f * h)
            rhs = dd(f) * h + act_generator(i, f, FLAVOR[fam]) * dd(h)
            assert lhs == rhs, (fam, i)


def test_y_side_via_involution():
    rng = random.Random(13)
    f = rand_el(rng, "c")
    for i in (0, 1):
        assert divided_difference(i, f, "y") == divided_difference(i, f.omega()).omega()


# -- transition values --------------------------------------------------------


def test_transition_base_cases():
    assert schubert_transition(S((-1,), "BC")) == g(1)
    y1 = GammaElement.monomial(yk=(1,))
    assert schubert_transition(S((-2, 1), "BC")) == g(2) - g(1) * y1
    x1 = GammaElement.monomial(xk=(1,))
    lhs = schubert_transition(S((2, -1), "BC"))
    assert lhs == (x1 + y1) * g(1) + schubert_transition(S((-2, 1), "BC"))


def test_transition_d_terminal_values():
    # increasing-window values match the explicit one-row formulas
    from paper_checks import strict_partition_element

    for r in (1, 2, 3):
        w = strict_partition_element((r,), "D")
        want = Z()
        for j in range(0, r):
            want = want + g(r - j) * Dyadic(1, 1) * GammaElement.from_poly(elem_sym(r, j, "-y"))
        assert schubert_transition(w) == want, r


def test_defining_divided_differences_rank2():
    for flavor, kind in (("BC", "W"), ("D", "Wtilde")):
        for w in enumerate_group(kind, 2):
            cs = schubert_transition(w)
            for i in (0, 1, 2):
                ws = w.right_mul_gen(i)
                want = schubert_transition(ws) if ws.length() < w.length() else Z()
                assert divided_difference(i, cs, flavor=flavor) == want, (flavor, w.window, i)
                sw = w.left_mul_gen(i)
                want = schubert_transition(sw) if sw.length() < w.length() else Z()
                assert divided_difference(i, cs, "y", flavor) == want, (flavor, w.window, i, "y")


def test_right_operator_action():
    # applying the operator of u sends w to w u^{-1} when lengths subtract
    for flavor, kind in (("BC", "W"), ("D", "Wtilde")):
        for w in enumerate_group(kind, 2):
            for u in enumerate_group(kind, 2):
                wu = w * u.inverse()
                got = divided_difference_w(u, schubert_transition(w))
                if wu.length() == w.length() - u.length():
                    assert got == schubert_transition(wu)
                else:
                    assert not got


def test_path_independence_rank2():
    for kind in ("W", "Wtilde"):
        for w in enumerate_group(kind, 2):
            assert schubert_transition(w) == schubert_divdiff(w), w.window


def test_path_independence_spot_rank3():
    for win, flavor in [((3, -1, 2), "BC"), ((-2, 3, -1), "D"), ((2, 3, 1), "D"), ((-3, 1, -2), "BC")]:
        w = S(win, flavor)
        assert schubert_transition(w) == schubert_divdiff(w)


def test_defining_divided_differences_rank3():
    # x-side defining property over the full rank-3 groups
    for kind, flavor in (("W", "BC"), ("Wtilde", "D")):
        for w in enumerate_group(kind, 3):
            cs = schubert_transition(w)
            for i in (0, 1, 2, 3):
                ws = w.right_mul_gen(i)
                want = schubert_transition(ws) if ws.length() < w.length() else Z()
                assert divided_difference(i, cs, flavor=flavor) == want, (flavor, w.window, i)


def test_top_cell_anchors_match_transitions():
    # the full-length elements themselves: anchor Pfaffian == transition value
    for m in (2, 3):
        w0 = longest_element(m, "BC")
        assert schubert_divdiff(w0) == schubert_transition(w0), ("C", m)
        w0d = longest_element(m, "D")
        assert schubert_divdiff(w0d) == schubert_transition(w0d), ("D", m)


def test_path_independence_spot_rank4():
    for win, flavor in [
        ((2, -4, 1, -3), "BC"),
        ((4, 1, -3, 2), "BC"),
        ((-4, 2, 3, -1), "D"),
        ((3, -4, -2, 1), "D"),
    ]:
        w = S(win, flavor)
        assert schubert_transition(w) == schubert_divdiff(w), (win, flavor)


def test_single_anchor_is_the_double_anchor_at_y_zero():
    from schubring.schubert import _anchor

    for flavor, first in (("BC", 1), ("D", 2)):
        for m in range(first, 5):
            assert _anchor(flavor, m, False) == _anchor(flavor, m, True).set_y_zero(), (flavor, m)


def test_single_memo_matches_transitions():
    from schubring.schubert import _single

    for kind, flavor in (("W", "BC"), ("Wtilde", "D")):
        for w in enumerate_group(kind, 3):
            assert _single(w, 3) == schubert_transition(w).set_y_zero(), (flavor, w.window)


@pytest.mark.parametrize("flavor", ["BC", "D"])
def test_divided_differences_match_oracle_descent(flavor):
    # Descend W_3 (W~_3) from the top anchor once per element, dividing in
    # the power-sum model; every value must be the transition route's, and
    # the ring's divided difference of the element above must agree.
    from schubring.verify import oracle_embed
    from schubring.schubert import _anchor

    from oracle_model import oracle_divided_difference

    top = longest_element(3, flavor)
    model = {top.window: oracle_embed(_anchor(flavor, 3, True))}
    for w in sorted(enumerate_group("W" if flavor == "BC" else "Wtilde", 3), key=lambda v: -v.length()):
        if w.window in model:
            assert model[w.window] == oracle_embed(schubert_transition(w)), w.window
            continue
        i = next(i for i in range(3) if not w.has_descent(i))
        up = w.right_mul_gen(i)
        got = oracle_divided_difference(model[up.window], i, flavor)
        assert got == oracle_embed(schubert_transition(w)), (w.window, i)
        assert oracle_embed(divided_difference(i, schubert_transition(up), flavor=flavor)) == got, (w.window, i)
        model[w.window] = got
    assert len(model) == (48 if flavor == "BC" else 24)


def test_divdiff_route_uses_no_transition_code(monkeypatch):
    from schubring import schubert as sch

    def forbidden(*args, **kwargs):
        raise AssertionError("the divided-difference route reached transition code")

    for name in ("schubert_transition", "_transition_value", "transition_data"):
        monkeypatch.setattr(sch, name, forbidden)
    monkeypatch.setattr(sch, "_SINGLE", {})
    for win, flavor in (((2, -3, 1), "BC"), ((-2, 3, -1), "D")):
        w = S(win, flavor)
        assert schubert_divdiff(w).set_y_zero() == sch._SINGLE[(flavor, w.window)]


def test_single_divdiff_skips_the_factorization(monkeypatch):
    from schubring import schubert as sch

    groups = [enumerate_group("W", 3), enumerate_group("Wtilde", 3)]
    expected = [[schubert_divdiff(w).set_y_zero() for w in ws] for ws in groups]

    def forbidden(*args, **kwargs):
        raise AssertionError("a single polynomial reached the type A factors")

    monkeypatch.setattr(sch, "_type_a_at_minus_y", forbidden)
    for ws, values in zip(groups, expected):
        for w, value in zip(ws, values):
            assert schubert_poly(w, double=False, method="divdiff") == value, w.window


def test_type_a_polynomials():
    w0 = S((3, 2, 1), "A")
    assert schubert_poly(w0, "A", double=False) == GammaElement.monomial(xk=(2, 1))
    x1 = GammaElement.monomial(xk=(1,))
    y1 = GammaElement.monomial(yk=(1,))
    assert schubert_poly(S((2, 1), "A"), "A") == x1 - y1
    assert schubert_poly(S((2, 1), "A"), "A", double=False) == x1


def test_factorization_over_symmetric_part():
    # the double polynomial splits over length-additive factorizations with a
    # type A left factor evaluated at the negated y alphabet
    targets = [w for w in enumerate_group("W", 2)]
    targets += [w for w in enumerate_group("W", 3) if w.length() <= 4]
    for w in targets:
        total = Z()
        m = max(w.support, 2)
        for u in enumerate_group("S", m):
            v = u.inverse().with_flavor("BC") * w
            if u.length() + v.length() != w.length():
                continue
            au = schubert_poly(u.inverse().with_flavor("A"), "A", double=False)
            # evaluate the type A factor at the negated y alphabet
            ay = GammaElement(
                {
                    ((), (), xk): (c if sum(xk) % 2 == 0 else -c)
                    for (subs, xk, yk), c in au.terms.items()
                }
            )
            total = total + ay * schubert_poly(v, "BC", double=False)
        assert total == schubert_poly(w, "BC", double=True), w.window


def test_b_type_rescaling():
    for w in enumerate_group("W", 2):
        bs = schubert_b(w)
        assert bs * Dyadic(1, -w.neg_count()) == schubert_poly(w, "BC")
        # integral in the b basis, where c_lambda = 2^{l(lambda)} b_lambda
        assert all(c.times_pow2(len(s)).is_integer for (s, _, _), c in bs.terms.items()), w.window


def test_pfaffian_formula_c():
    for n in (0, 1, 2):
        for w in enumerate_group("W", 3):
            if is_grassmannian(w, n):
                pfaffian_formula(w, n, "BC", check=True)


def test_pfaffian_formula_symmetric_case_displays():
    # for permutation input the index vectors take their stated closed forms
    from schubring.weyl import shape

    m, n = 3, 1
    for w in enumerate_group("S", m):
        wb = w.with_flavor("BC")
        if not is_grassmannian(wb, n):
            continue
        what = wb * longest_element(n, "BC")
        sh = shape(what)
        lamp = shape(w.with_flavor("BC")).lam
        top = lamp[0] if lamp else 0
        conj = tuple(sum(1 for p in lamp if p >= k) for k in range(1, top + 1))
        ell = len(sh.lam)
        delta_n = tuple(max(n - i, 0) for i in range(ell))
        delta_n1 = tuple(max(n - 1 - i, 0) for i in range(ell))
        expect_alpha = tuple(
            delta_n[i] + delta_n1[i] + (conj[i] if i < len(conj) else 0)
            for i in range(ell)
        )
        assert sh.lam == expect_alpha, (w.window, sh.lam, expect_alpha)
        expect_beta = tuple(1 - w(n - i) for i in range(n))
        got_beta = tuple(min(1 - (sh.mu[i] if i < len(sh.mu) else 0), 0) for i in range(ell))
        assert got_beta[: len(expect_beta)] == expect_beta or n == 0
        assert tuple(sh.nu[i] if i < len(sh.nu) else 0 for i in range(ell)) == delta_n1

    # the type D analogue with the doubled staircase
    m, n = 3, 2
    for w in enumerate_group("S", m):
        wd = w.with_flavor("D")
        if not is_grassmannian(wd, n):
            continue
        what = wd * longest_element(n, "D")
        sh = shape(what)
        lamp = shape(w.with_flavor("BC")).lam
        top = lamp[0] if lamp else 0
        conj = tuple(sum(1 for p in lamp if p >= k) for k in range(1, top + 1))
        ell = len(sh.lam)
        delta_n1 = tuple(max(n - 1 - i, 0) for i in range(ell))
        expect_alpha = tuple(
            2 * delta_n1[i] + (conj[i] if i < len(conj) else 0) for i in range(ell)
        )
        assert sh.lam == expect_alpha, ("D", w.window, sh.lam, expect_alpha)
        assert tuple(sh.nu[i] if i < len(sh.nu) else 0 for i in range(ell)) == delta_n1


def test_pfaffian_formula_d():
    for n in (0, 2):
        for w in enumerate_group("Wtilde", 3):
            if is_grassmannian(w, n):
                pfaffian_formula(w, n, "D", check=True)


@pytest.mark.parametrize("flavor", ["BC", "D"])
def test_longest_element_spec_has_the_closed_form(flavor):
    # rho = delta_{m-1}, beta = -rho, alpha = (2m-1, ..., 3, 1) in type BC and
    # (2m-2, ..., 4, 2) in type D, written out here without the shape data
    from schubring.raising import PfaffianSpec
    from schubring.schubert import _pfaffian_spec

    for m in range(1, 7):
        rows, top = (m, 2 * m - 1) if flavor == "BC" else (m - 1, 2 * m - 2)
        rho = tuple(m - 1 - i for i in range(rows))
        alpha = tuple(top - 2 * i for i in range(rows))
        want = PfaffianSpec(rho, tuple(-r for r in rho), alpha, hatted=flavor == "D")
        assert _pfaffian_spec(longest_element(m, flavor)) == want, m


@pytest.mark.parametrize("flavor, ranks", [("BC", (1, 2, 3)), ("D", (2, 3))])
def test_pfaffian_formula_top_member(flavor, ranks):
    # n = m: the identity is m-Grassmannian and its product element is w0
    for m in ranks:
        pfaffian_formula(S.identity(flavor), m, flavor, check=True)


def test_grassmannian_specialization_theta():
    from schubring.weyl import enumerate_grassmannian, grassmannian_shape

    for n in (1, 2):
        for w in enumerate_grassmannian(n, "BC", 6):
            if 0 < w.length() <= 6:
                lam = grassmannian_shape(w, n)
                assert theta(n, lam, double=True) == schubert_poly(w, "BC"), (n, lam)


def test_grassmannian_specialization_eta():
    from schubring.weyl import enumerate_grassmannian, grassmannian_shape

    for n in (2,):
        for w in enumerate_grassmannian(n, "D", 6):
            if 0 < w.length() <= 6:
                lam = grassmannian_shape(w, n)
                assert eta(n, lam, double=True) == schubert_poly(w, "D"), (n, lam)


def test_expand_single_examples():
    assert schubert_expand_single(GammaElement.const(1), "BC") == {(): 1}
    f = g(1) * g(1)
    assert schubert_expand_single(f, "BC") == {(-2, 1): 2}
    for n, p in [(1, 2), (2, 1)]:
        out = theta_expand(level_c(n, p), n, "BC")
        assert out == {(p,): 1}, (n, p)


def test_expand_rejects_y():
    with pytest.raises(ValueError, match="y-free"):
        schubert_expand_single(GammaElement.monomial(yk=(1,)), "BC")


def test_theta_alternant_rejects_an_untyped_d_shape():
    with pytest.raises(ValueError, match="TypedPartition"):
        verify_theta_alternant(2, (1,), "D")


def test_scalar_product_top_cell():
    for flavor, kind in (("BC", "W"), ("D", "Wtilde")):
        n = 2
        w0 = longest_element(n, flavor)
        one = GammaElement.const(1)
        assert scalar_product(schubert_poly(w0, flavor, False), one, n, flavor) == one


def test_orthogonality_pairs_rank2():
    for flavor, kind in (("BC", "W"), ("D", "Wtilde")):
        n = 2
        w0 = longest_element(n, flavor)
        for u in enumerate_group(kind, n):
            for v in enumerate_group(kind, n):
                if u.length() + v.length() != w0.length():
                    continue
                val = scalar_product(
                    schubert_poly(u, flavor, False),
                    schubert_poly(v, flavor, False),
                    n,
                    flavor,
                )
                want = GammaElement.const(1) if v == w0 * u else Z()
                assert val == want, (flavor, u.window, v.window)


def test_adjoint_property():
    rng = random.Random(14)
    for flavor, kind, fam in (("BC", "W", "c"), ("D", "Wtilde", "b")):
        n = 2
        for w in enumerate_group(kind, n):
            f = rand_el(rng, fam, with_y=False).restrict_vars(n)
            h = rand_el(rng, fam, with_y=False).restrict_vars(n)
            lhs = scalar_product(divided_difference_w(w, f), h, n, flavor)
            rhs = scalar_product(f, divided_difference_w(w.inverse(), h), n, flavor)
            assert lhs == rhs, (flavor, w.window)


def test_alternating_operator_values():
    n = 2
    lhs = alternating_operator(staircase_monomial(n, "BC"), n, "BC")
    x1 = GammaElement.monomial(xk=(1,))
    x2 = GammaElement.monomial(xk=(0, 1))
    vand = (x1 * x1 - x2 * x2) * x1 * x2 * 4
    assert lhs == vand
    lhs_d = alternating_operator(staircase_monomial(n, "D"), n, "D")
    assert lhs_d == (x1 * x1 - x2 * x2) * 2
    assert not alternating_operator(GammaElement.const(1), n, "BC")


def test_theta_alternant_identities():
    for lam in [(1,), (3, 1)]:
        rep = verify_theta_alternant(2, lam, "BC")
        assert rep["divided_difference"] and rep["alternant"], lam
    from schubring.weyl import TypedPartition

    rep = verify_theta_alternant(2, TypedPartition((2,), 2, 1), "D")
    assert rep["divided_difference"] and rep["alternant"]


def test_restriction():
    w = S((3, -1, 2), "BC")
    cs = schubert_restricted(w, 2)
    assert cs.max_xvar() <= 2 and cs.max_yvar() <= 2


def test_cache_provenance_consistency():
    # method 'both' runs the two routes and raises when they disagree
    w = S((2, -1), "BC")
    a = schubert_poly(w, "BC", method="both")
    assert a == schubert_transition(w)
