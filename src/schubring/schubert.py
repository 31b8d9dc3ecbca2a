"""Divided differences and Schubert polynomials of types A, B, C and D.

Every double Schubert polynomial is computed along two independent routes,
each with its own in-process memo.  The transition recursion ends in
multi-Schur Pfaffian data for the increasing elements, and memoizes each
double polynomial it reaches.  The divided-difference route builds the
single (y-free) polynomials by divided differences from the top-cell Pfaffian
anchor at y = 0, memoizes them in ``_SINGLE``, and assembles the double
polynomial from them and type A factors in -Y.  ``schubert_poly`` with
method 'both' runs the two routes and requires them to agree exactly.
"""

from __future__ import annotations

from functools import lru_cache

from .polyring import Dyadic
from .gammaring import (
    GammaElement,
    _divide_by_x1,
    _divide_uv,
    _gsum,
    act_generator,
    weyl_act,
)
from .weyl import (
    SignedPermutation,
    enumerate_group,
    is_grassmannian,
    is_increasing,
    quotient_elements,
    shape,
    transition_data,
)
from . import raising
from .raising import PfaffianSpec, multi_schur_pfaffian


# ---------------------------------------------------------------------------
# divided difference operators
# ---------------------------------------------------------------------------


def divided_difference(
    i: int, f: GammaElement, side: str = "x", flavor: str = "BC"
) -> GammaElement:
    """The operator (f - s_i f) / (negative simple root), on either side.

    Index 0 is the sign-change operator in flavor BC (divide by -2 x_1) and
    the branch-node operator in flavor D (divide by -x_1 - x_2).  The
    y-side operator is conjugate by the x/y swapping involution.
    """
    if side == "y":
        return divided_difference(i, f.omega(), "x", flavor).omega()
    g = f - act_generator(i, f, flavor)
    if not g:
        return GammaElement.zero()
    if i == 0:
        if flavor == "D":
            return -_divide_uv(g, 1, plus=True)
        return _divide_by_x1(g, -2)
    return _divide_uv(g, i, plus=False)


def divided_difference_word(
    word, f: GammaElement, side: str = "x", flavor: str = "BC"
) -> GammaElement:
    """Apply the composition for a word (i_1, ..., i_l): rightmost acts first."""
    for i in reversed(tuple(word)):
        if not f:
            return f
        f = divided_difference(i, f, side, flavor)
    return f


def divided_difference_w(w: SignedPermutation, f: GammaElement, side: str = "x") -> GammaElement:
    return divided_difference_word(w.reduced_word(), f, side, w.flavor)


# ---------------------------------------------------------------------------
# longest elements and anchors
# ---------------------------------------------------------------------------


def longest_element(n: int, flavor: str) -> SignedPermutation:
    if flavor == "BC":
        return SignedPermutation(tuple(-i for i in range(1, n + 1)), "BC")
    if flavor == "D":
        if n % 2 == 0:
            return SignedPermutation(tuple(-i for i in range(1, n + 1)), "D")
        return SignedPermutation((1,) + tuple(-i for i in range(2, n + 1)), "D")
    return SignedPermutation(tuple(range(n, 0, -1)), "A")


@lru_cache(maxsize=None)
def _anchor(flavor: str, m: int, double: bool) -> GammaElement:
    """The Schubert polynomial of the longest element of rank m.

    In types BC and D this is the Pfaffian of w0's spec (the case n = m of
    the Pfaffian formula).  y -> 0 is a ring map, so the single anchor is the
    Pfaffian of the entries at y = 0.  A back index only brings in y, so it
    drops to 0.  The type D hat correction of a row sits at p = 2k with
    k >= 1 and carries e_k(-Y), so it drops too: the y-free entries are
    plain, and the 2^{-(m-1)} prefactor of the hatted Pfaffian is all that is
    left of the hats.
    """
    if flavor == "A":
        if double:
            out = GammaElement.const(1)
            for i in range(1, m):
                for j in range(1, m - i + 1):
                    out = out * GammaElement.from_raw(
                        [((), (0,) * (i - 1) + (1,), (), 1), ((), (), (0,) * (j - 1) + (1,), -1)]
                    )
            return out
        mono = tuple(m - i for i in range(1, m + 1))
        return GammaElement.monomial(xk=mono)
    spec = _pfaffian_spec(longest_element(m, flavor))
    if double:
        return multi_schur_pfaffian(spec, cross_check=(m <= 3))
    plain = PfaffianSpec(spec.rho, (0,) * spec.length, spec.alpha)
    val = multi_schur_pfaffian(plain, cross_check=(m <= 3))
    return val if flavor == "BC" else val * Dyadic(1, m - 1)


# ---------------------------------------------------------------------------
# the two computation routes
# ---------------------------------------------------------------------------


def schubert_transition(w: SignedPermutation, flavor: str | None = None) -> GammaElement:
    """The double Schubert polynomial via the transition recursion."""
    flavor = flavor or w.flavor
    return _transition_value(flavor, w.with_flavor(flavor).window)


@lru_cache(maxsize=None)
def _transition_value(flavor: str, window: tuple) -> GammaElement:
    w = SignedPermutation(window, flavor)
    if not w.window:  # CS_id = 1
        return GammaElement.const(1)
    if is_increasing(w):
        # the leaves are the members n = 0 of the Pfaffian formula
        return multi_schur_pfaffian(_pfaffian_spec(w), cross_check=False)
    t = transition_data(w)
    lin = GammaElement.from_raw(
        [
            ((), (0,) * (t.r - 1) + (1,), (), 1),
            ((), (), (0,) * (t.y_index - 1) + (1,), -t.y_sign),
        ],
    )
    total = lin * schubert_transition(t.v, flavor)
    for b in t.plain_branch + t.bar_branch:
        total = total + schubert_transition(b, flavor)
    return total


def schubert_divdiff(w: SignedPermutation, flavor: str | None = None) -> GammaElement:
    """The double Schubert polynomial from single ones, by the factorization

        CS_w(X; Y) = sum over u in S_m of S^A_{u^{-1}}(-Y) CS_{u^{-1} w}(X),

    over the u with l(u) + l(u^{-1} w) = l(w) (Billey & Haiman; Ikeda,
    Mihalcea & Naruse for type D).  The single polynomials come by divided
    differences from the y-free anchor, and the type A factors by divided
    differences from x^delta; no transition data is used.
    """
    flavor = flavor or w.flavor
    w = w.with_flavor(flavor)
    m = max(w.support, 2 if flavor == "D" else 1)
    pairs = ((u.inverse(), u.inverse().with_flavor(flavor) * w) for u in enumerate_group("S", m))
    return _gsum(
        (_type_a_at_minus_y(ui.window) * _single(v, m), 1)
        for ui, v in pairs
        if ui.length() + v.length() == w.length()
    )


@lru_cache(maxsize=None)
def _type_a_at_minus_y(window: tuple) -> GammaElement:
    """The single type A polynomial of the window, evaluated at x = -y (omega
    of a y-free element)."""
    return schubert_poly(SignedPermutation(window, "A"), "A", double=False).omega()


# (flavor, window) -> the single polynomial: the divided-difference route's memo
_SINGLE: dict = {}


def _single(v: SignedPermutation, m: int) -> GammaElement:
    """The single polynomial of v in the rank-m group, by S_v = d_i S_{v s_i}
    for an ascent i, climbing to the first memoized element or the anchor.
    Single polynomials are stable in m, so the memo key holds no rank.

    d_0 costs far more than the other operators.  In flavor BC every path from
    v up to w0 has the same number of s_0 steps, so the climb takes them
    first, where the polynomials are smallest; in type D the number varies,
    so the climb takes the branch node only when no other ascent is left.
    """
    flavor = v.flavor
    top = longest_element(m, flavor)
    order = range(m) if flavor == "BC" else (*range(1, m), 0)
    steps = []
    while (flavor, v.window) not in _SINGLE:
        if v == top:
            _SINGLE[(flavor, v.window)] = _anchor(flavor, m, False)
            break
        i = next(i for i in order if not v.has_descent(i))
        steps.append((v.window, i))
        v = v.right_mul_gen(i)
    f = _SINGLE[(flavor, v.window)]
    for window, i in reversed(steps):
        f = divided_difference(i, f, flavor=flavor)
        _SINGLE[(flavor, window)] = f
    return f


def schubert_poly(
    w: SignedPermutation,
    flavor: str | None = None,
    double: bool = True,
    method: str = "transition",
) -> GammaElement:
    """CS_w / DS_w / the type A polynomial, by the requested route.

    method 'both' runs the two routes and raises ArithmeticError when their
    double polynomials differ.
    """
    flavor = flavor or w.flavor
    if flavor == "A":
        w = w.with_flavor("A")
        m = max(w.support, 1)
        w0 = longest_element(m, "A")
        u = w.inverse() * w0
        assert u.length() == w0.length() - w.length()
        val = divided_difference_w(u, _anchor("A", m, double))
        return val
    if method == "transition":
        val = schubert_transition(w, flavor)
    elif method == "divdiff":
        if not double:
            # at y = 0 only the u = id term of the factorization survives
            return _single(w.with_flavor(flavor), max(w.support, 2 if flavor == "D" else 1))
        val = schubert_divdiff(w, flavor)
    elif method == "both":
        val = schubert_transition(w, flavor)
        if val != schubert_divdiff(w, flavor):
            raise ArithmeticError(f"the two routes disagree at {w.window}")
    else:
        raise ValueError(f"unknown method {method!r}")
    return val if double else val.set_y_zero()


def schubert_b(w: SignedPermutation, double: bool = True, method: str = "transition") -> GammaElement:
    """The type B polynomial 2^{-s(w)} times the type C one, by the route."""
    cs = schubert_poly(w.with_flavor("BC"), "BC", double, method)
    return cs * Dyadic(1, w.neg_count())


def schubert_restricted(
    w: SignedPermutation, n: int, flavor: str | None = None, method: str = "transition"
) -> GammaElement:
    """The primed polynomial: x_j = y_j = 0 for j > n."""
    return schubert_poly(w, flavor, True, method).restrict_vars(n)


# ---------------------------------------------------------------------------
# Pfaffian formulas for Grassmannian-up-to-w0 elements
# ---------------------------------------------------------------------------


def _pfaffian_spec(u: SignedPermutation) -> PfaffianSpec:
    """The Pfaffian indexing of u = w * w0^(n), w n-Grassmannian, read off the
    shape of u: rho = nu, alpha = lambda, and back indices min(1 - mu_i, 0) in
    type C and -mu_i (hatted entries) in type D, all padded to length l(lambda).
    """
    sh = shape(u)
    ell = len(sh.lam)
    nu = sh.nu + (0,) * (ell - len(sh.nu))
    mu = sh.mu + (0,) * (ell - len(sh.mu))
    if u.flavor == "BC":
        return PfaffianSpec(nu, tuple(min(1 - m, 0) for m in mu), sh.lam)
    return PfaffianSpec(nu, tuple(-m for m in mu), sh.lam, hatted=True)


def pfaffian_formula(
    w: SignedPermutation, n: int, flavor: str | None = None, check: bool = True
) -> GammaElement:
    """The multi-Schur Pfaffian equal to the Schubert polynomial of w * w0^(n);
    w must be n-Grassmannian."""
    flavor = flavor or w.flavor
    w = w.with_flavor(flavor)
    if not is_grassmannian(w, n):
        raise ValueError(f"{w.window} is not {n}-Grassmannian")
    w0 = longest_element(n, flavor) if n else SignedPermutation.identity(flavor)
    what = w * w0
    val = multi_schur_pfaffian(_pfaffian_spec(what), cross_check=False)
    if check and val != schubert_poly(what, flavor):
        raise ArithmeticError(f"pfaffian formula fails at {what.window}")
    return val


# ---------------------------------------------------------------------------
# basis expansion and scalar products
# ---------------------------------------------------------------------------


def schubert_expand_single(f: GammaElement, flavor: str = "BC") -> dict:
    """Expand a y-free element over the single Schubert basis.

    Returns {window: integer} with f = sum of coeff * S_w(X); computed by
    the constant terms of all divided differences, and checked by
    re-summation.
    """
    if f.max_yvar():
        raise ValueError("single expansion needs a y-free element")
    d = f.degree()
    coeffs: dict = {}
    level = {SignedPermutation.identity(flavor): f}
    by_len: dict[int, list] = {}
    # d_i f = 0 for i > max_xvar, so only W^(max_xvar) can carry coefficients
    for u in quotient_elements(flavor, f.max_xvar(), d):
        by_len.setdefault(u.length(), []).append(u)
    c0 = f.coeff()
    if c0:
        coeffs[()] = c0
    for ell in range(1, d + 1):
        new = {}
        for u in by_len.get(ell, []):
            i = u.inverse().first_descent()
            prev = level.get(u.left_mul_gen(i))
            if prev is None:
                continue
            df = divided_difference(i, prev, flavor=flavor)
            if df:
                new[u] = df
                ct = df.coeff()
                if ct:
                    coeffs[u.window] = ct
        level = new
    out = {}
    for win, c in coeffs.items():
        if not c.is_integer:
            raise ArithmeticError(f"non-integral coefficient {c} at {win}")
        out[win] = c.num
    # exactness: the expansion must re-sum to f
    total = _gsum((schubert_poly(SignedPermutation(win, flavor), flavor, False), c) for win, c in out.items())
    if total != f:
        raise ArithmeticError("re-summation failed")
    return out


def theta_expand(f: GammaElement, n: int, flavor: str = "BC") -> dict:
    """Expand an invariant element over the theta (resp. eta) basis of level n.

    Returns {shape key: integer}; keys are partition tuples for flavor BC and
    TypedPartition objects for flavor D.
    """
    from .weyl import grassmannian_shape

    single = schubert_expand_single(f, flavor)
    out = {}
    for win, c in single.items():
        w = SignedPermutation(win, flavor)
        if not is_grassmannian(w, n):
            raise ValueError(f"not in the level-{n} invariant span: {win}")
        out[grassmannian_shape(w, n)] = c
    return out


def scalar_product(
    f: GammaElement, g: GammaElement, n: int, flavor: str = "BC", kind: str = "full"
) -> GammaElement:
    """The invariant-valued products: 'full' divides by the longest Weyl
    element, 'sym' by the longest permutation, 'q' by their quotient."""
    w0 = longest_element(n, flavor)
    p0 = SignedPermutation(tuple(range(n, 0, -1)), flavor)
    if kind == "full":
        u = w0
    elif kind == "sym":
        u = p0
    elif kind == "q":
        u = w0 * p0
    else:
        raise ValueError(f"unknown product kind {kind!r}")
    return divided_difference_w(u, f * g)


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
    from .weyl import TypedPartition, grassmannian_element
    from .raising import eta, theta

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
    w0 = longest_element(n, flavor)
    pf = pfaffian_formula(w, n, flavor, check=False)
    dd = divided_difference_w(w0, pf)
    ok_dd = dd == target
    lhs = target * alternating_operator(staircase_monomial(n, flavor), n, flavor)
    rhs = alternating_operator(pf, n, flavor) * (sign * pref)
    ok_alt = lhs == rhs
    return {"divided_difference": ok_dd, "alternant": ok_alt, "shape": tuple(lam) if flavor == "BC" else (lam.parts, lam.ptype)}
