"""Divided differences and Schubert polynomials of types A, B, C and D.

Every Schubert polynomial is computed along two independent routes: the
transition recursion (terminating in multi-Schur Pfaffian data for the
increasing elements) and right divided differences applied to the top-cell
Pfaffian anchor.  A shared cache stores one value per key together with the
provenance flags; whenever both routes have produced a value they are
required to agree exactly.
"""

from __future__ import annotations

import os
from functools import lru_cache

from .polyring import D_ZERO, Dyadic
from .gammaring import (
    GammaElement,
    _add_into,
    act_generator,
    c_to_b,
    weyl_act,
)
from .weyl import (
    SignedPermutation,
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


def _divide_by_x1(g: GammaElement, factor: int) -> GammaElement:
    """Exact division by factor * x_1 (used for the sign-change operator)."""
    out = {}
    for (subs, xk, yk), c in g.terms.items():
        if not xk or xk[0] < 1:
            raise ArithmeticError("numerator not divisible by x_1")
        nx = (xk[0] - 1,) + xk[1:]
        while nx and nx[-1] == 0:
            nx = nx[:-1]
        out[(subs, nx, yk)] = c.half() * (1 if factor == 2 else -1)
    return GammaElement(g.family, out)


def _divide_uv(g: GammaElement, i: int, plus: bool) -> GammaElement:
    """Exact division by (x_i - x_{i+1}) or, with plus=True, by (x_i + x_{i+1}).

    Synthetic division in x_i; a nonzero remainder raises ArithmeticError.
    """
    buckets: dict[int, dict] = {}
    for (subs, xk, yk), c in g.terms.items():
        a = xk[i - 1] if len(xk) >= i else 0
        rest = list(xk) + [0] * max(0, i + 1 - len(xk))
        rest[i - 1] = 0
        bucket = buckets.setdefault(a, {})
        k = (subs, tuple(rest), yk)
        bucket[k] = bucket.get(k, D_ZERO) + c
    out: dict = {}
    carry_sign = -1 if plus else 1
    amax = max(buckets.keys(), default=0)
    for a in range(amax, 0, -1):
        if a not in buckets:
            continue
        for (subs, rest, yk), c in buckets[a].items():
            if not c:
                continue
            # quotient term x_i^{a-1} * rest
            q = list(rest)
            q[i - 1] = a - 1
            qk = tuple(q)
            while qk and qk[-1] == 0:
                qk = qk[:-1]
            kq = (subs, qk, yk)
            s = out.get(kq, D_ZERO) + c
            if s:
                out[kq] = s
            elif kq in out:
                del out[kq]
            # carry +/- x_i^{a-1} x_{i+1} * rest into the next bucket
            r2 = list(rest)
            r2[i] += 1
            k2 = (subs, tuple(r2), yk)
            dst = buckets.setdefault(a - 1, {})
            dst[k2] = dst.get(k2, D_ZERO) + c * carry_sign
    if any(buckets.get(0, {}).values()):
        raise ArithmeticError("division left a nonzero remainder")
    return GammaElement(g.family, out)


def divided_difference(i: int, f: GammaElement, side: str = "x") -> GammaElement:
    """The operator (f - s_i f) / (negative simple root), on either side.

    Index 0 is the sign-change operator for family 'c' (divide by -2 x_1) and
    the branch-node operator for family 'b' (divide by -x_1 - x_2).  The
    y-side operator is conjugate by the x/y swapping involution.
    """
    if side == "y":
        return divided_difference(i, f.omega(), "x").omega()
    g = f - act_generator(i, f)
    if not g:
        return GammaElement.zero(f.family)
    if i == 0:
        if f.family == "c":
            return _divide_by_x1(g, -2)
        return -_divide_uv(g, 1, plus=True)
    return _divide_uv(g, i, plus=False)


def divided_difference_word(word, f: GammaElement, side: str = "x") -> GammaElement:
    """Apply the composition for a word (i_1, ..., i_l): rightmost acts first."""
    for i in reversed(tuple(word)):
        if not f:
            return f
        f = divided_difference(i, f, side)
    return f


def divided_difference_w(w: SignedPermutation, f: GammaElement, side: str = "x") -> GammaElement:
    return divided_difference_word(w.reduced_word(), f, side)


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


def _delta(k: int, length: int) -> tuple[int, ...]:
    """(k, k-1, ..., 1, 0, ...) padded or cut to the requested length."""
    return tuple(max(k - i, 0) for i in range(length))


@lru_cache(maxsize=None)
def _anchor(flavor: str, m: int, double: bool) -> GammaElement:
    """The Schubert polynomial of the longest element of rank m."""
    if flavor == "A":
        if double:
            out = GammaElement.const(1, "c")
            for i in range(1, m):
                for j in range(1, m - i + 1):
                    out = out * GammaElement.from_raw(
                        "c", [((), (0,) * (i - 1) + (1,), (), 1), ((), (), (0,) * (j - 1) + (1,), -1)]
                    )
            return out
        mono = tuple(m - i for i in range(1, m + 1))
        return GammaElement.monomial(xk=mono, family="c")
    if flavor == "BC":
        spec = PfaffianSpec(
            _delta(m - 1, m),
            tuple(-v for v in _delta(m - 1, m)),
            tuple(2 * m - 1 - 2 * i for i in range(m)),
        )
        val = multi_schur_pfaffian(spec, cross_check=(m <= 3))
    else:
        ell = m - 1
        spec = PfaffianSpec(
            _delta(m - 1, ell),
            tuple(-v for v in _delta(m - 1, ell)),
            tuple(2 * (m - 1 - i) for i in range(ell)),
            hatted=True,
            star=True,
        )
        val = multi_schur_pfaffian(spec, cross_check=(m <= 3))
    return val if double else val.set_y_zero()


# ---------------------------------------------------------------------------
# the two computation routes
# ---------------------------------------------------------------------------


class CachedTable:
    """Memo from (flavor, window) to the double Schubert polynomial, with
    provenance tracking; both routes must agree when both have run."""

    def __init__(self):
        self.values: dict = {}
        self.provenance: dict = {}

    def lookup(self, key):
        return self.values.get(key)

    def store(self, key, value: GammaElement, how: str):
        old = self.values.get(key)
        if old is not None:
            if old != value:
                raise ArithmeticError(
                    f"provenance disagreement at {key}: {how} vs {self.provenance[key]}"
                )
            self.provenance[key] |= {how}
        else:
            disk = _disk_load(key)
            if disk is not None and disk != value:
                raise ArithmeticError(f"disk cache disagreement at {key}")
            self.values[key] = value
            self.provenance[key] = {how}
            if disk is None:
                _disk_store(key, value)
        return value


_TABLE = CachedTable()


def _cache_dir() -> str | None:
    return os.environ.get("SCHUBERT_CACHE_DIR")


DISK_FORMAT = 2  # raise it when the normal form or the document format changes


def _disk_key(key) -> str:
    """The file stem of a (flavor, window, kind) key, e.g. ``v2_BC_2_-1_double``.
    Flavor and kind hold no underscore, so distinct keys get distinct stems,
    and an entry written under another DISK_FORMAT is never read."""
    flavor, window, kind = key
    return "_".join((f"v{DISK_FORMAT}", flavor, *map(str, window), kind))


def _disk_load(key):
    """The stored value, or None when the entry is missing, unreadable or
    truncated (the caller then recomputes and rewrites it)."""
    d = _cache_dir()
    if not d:
        return None
    from .serialize import document_to_gamma, parse_document

    try:
        with open(os.path.join(d, _disk_key(key) + ".json")) as fh:
            return document_to_gamma(parse_document(fh.read()))
    except (OSError, ValueError):
        return None


def _disk_store(key, value: GammaElement):
    """Write the entry to a temporary file and rename it into place, so a
    reader never sees a partial entry."""
    d = _cache_dir()
    if not d:
        return
    os.makedirs(d, exist_ok=True)
    from .serialize import gamma_to_document, render_document

    path = os.path.join(d, _disk_key(key) + ".json")
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        fh.write(render_document(gamma_to_document(value, metadata={"key": list(key)})))
    os.replace(tmp, path)


def schubert_transition(w: SignedPermutation, flavor: str | None = None) -> GammaElement:
    """The double Schubert polynomial via the transition recursion."""
    flavor = flavor or w.flavor
    w = w.with_flavor(flavor)
    key = (flavor, w.window, "double")
    got = _TABLE.lookup(key)
    if got is not None and "transition" in _TABLE.provenance[key]:
        return got
    val = _transition_value(flavor, w.window)
    return _TABLE.store(key, val, "transition")


def _transition_value(flavor: str, window: tuple) -> GammaElement:
    w = SignedPermutation(window, flavor)
    family = "c" if flavor == "BC" else "b"
    if is_increasing(w):
        sh = shape(w)
        mu = sh.mu
        if flavor == "BC":
            spec = PfaffianSpec((0,) * len(mu), tuple(1 - p for p in mu), mu)
        else:
            spec = PfaffianSpec(
                (0,) * len(mu), tuple(-p for p in mu), mu, hatted=True, star=True
            )
        if not mu:
            return GammaElement.const(1, family)
        return multi_schur_pfaffian(spec, cross_check=False)
    t = transition_data(w)
    lin = GammaElement.from_raw(
        family,
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
    """The double Schubert polynomial via divided differences from the anchor."""
    flavor = flavor or w.flavor
    w = w.with_flavor(flavor)
    key = (flavor, w.window, "double")
    got = _TABLE.lookup(key)
    if got is not None and "divdiff" in _TABLE.provenance[key]:
        return got
    m = w.support if flavor != "D" else max(w.support, 2)
    m = max(m, 1)
    w0 = longest_element(m, flavor)
    u = w.inverse() * w0
    assert u.length() == w0.length() - w.length()
    val = divided_difference_w(u, _anchor(flavor, m, True))
    return _TABLE.store(key, val, "divdiff")


def schubert_poly(
    w: SignedPermutation,
    flavor: str | None = None,
    double: bool = True,
    method: str = "transition",
) -> GammaElement:
    """CS_w / DS_w / the type A polynomial, by the requested route.

    method 'both' forces the two routes and the cache asserts agreement.
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
        val = schubert_divdiff(w, flavor)
    elif method == "both":
        val = schubert_transition(w, flavor)
        schubert_divdiff(w, flavor)
    else:
        raise ValueError(f"unknown method {method!r}")
    return val if double else val.set_y_zero()


def schubert_b(w: SignedPermutation, double: bool = True) -> GammaElement:
    """The type B polynomial 2^{-s(w)} times the type C one, in Gamma'."""
    cs = schubert_poly(w.with_flavor("BC"), "BC", double)
    return c_to_b(cs) * Dyadic(1, w.neg_count())


def schubert_restricted(
    w: SignedPermutation, n: int, flavor: str | None = None, method: str = "transition"
) -> GammaElement:
    """The primed polynomial: x_j = y_j = 0 for j > n."""
    return schubert_poly(w, flavor, True, method).restrict_vars(n)


# ---------------------------------------------------------------------------
# Pfaffian formulas for Grassmannian-up-to-w0 elements
# ---------------------------------------------------------------------------


def pfaffian_formula(
    w: SignedPermutation, n: int, flavor: str | None = None, check: bool = True
) -> GammaElement:
    """The multi-Schur Pfaffian equal to the Schubert polynomial of w * w0^(n).

    w must be n-Grassmannian; the indexing vectors are the shape statistics of
    the product element, with back indices min(1 - mu_i, 0) in type C and
    -mu_i in type D.
    """
    flavor = flavor or w.flavor
    w = w.with_flavor(flavor)
    if not is_grassmannian(w, n):
        raise ValueError(f"{w.window} is not {n}-Grassmannian")
    w0 = longest_element(n, flavor) if n else SignedPermutation.identity(flavor)
    what = w * w0
    sh = shape(what)
    ell = len(sh.lam)
    nu = tuple(sh.nu[i] if i < len(sh.nu) else 0 for i in range(ell))
    mu = tuple(sh.mu[i] if i < len(sh.mu) else 0 for i in range(ell))
    if flavor == "BC":
        beta = tuple(min(1 - m, 0) for m in mu)
        spec = PfaffianSpec(nu, beta, sh.lam)
    else:
        beta = tuple(-m for m in mu)
        spec = PfaffianSpec(nu, beta, sh.lam, hatted=True, star=True)
    val = multi_schur_pfaffian(spec, cross_check=False)
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
    assert f.max_yvar() == 0, "single expansion needs a y-free element"
    d = f.degree()
    coeffs: dict = {}
    level = {SignedPermutation.identity(flavor): f}
    by_len: dict[int, list] = {}
    # d_i f = 0 for i > max_xvar, so only W^(max_xvar) can carry coefficients
    for u in quotient_elements(flavor, f.max_xvar(), d):
        by_len.setdefault(u.length(), []).append(u)
    c0 = f.terms.get(((), (), ()))
    if c0:
        coeffs[()] = c0
    for ell in range(1, d + 1):
        new = {}
        for u in by_len.get(ell, []):
            i = u.inverse().first_descent()
            prev = level.get(u.left_mul_gen(i))
            if prev is None:
                continue
            df = divided_difference(i, prev)
            if df:
                new[u] = df
                ct = df.terms.get(((), (), ()))
                if ct:
                    coeffs[u.window] = ct
        level = new
    out = {}
    for win, c in coeffs.items():
        if not c.is_integer:
            raise ArithmeticError(f"non-integral coefficient {c} at {win}")
        out[win] = c.num
    # exactness: the expansion must re-sum to f
    total: dict = {}
    for win, c in out.items():
        piece = schubert_poly(SignedPermutation(win, flavor), flavor, False)
        f._check(piece)
        _add_into(total, piece.terms, c)
    if total != f.terms:
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
    from .weyl import enumerate_group

    kind = "W" if flavor == "BC" else "Wtilde"
    total: dict = {}
    for w in enumerate_group(kind, n):
        _add_into(total, weyl_act(w, f).terms, -1 if w.length() % 2 else 1)
    return GammaElement(f.family, total)


def staircase_monomial(n: int, flavor: str, family: str) -> GammaElement:
    """x^{delta_n + delta_{n-1}} for BC, x^{2 delta_{n-1}} for D."""
    if flavor == "BC":
        expo = tuple(2 * (n - i) + 1 for i in range(1, n + 1))
    else:
        expo = tuple(2 * (n - i) for i in range(1, n + 1))
    return GammaElement.monomial(xk=expo, family=family)


def verify_theta_alternant(n: int, lam, flavor: str = "BC") -> dict:
    """Check the divided-difference and alternating-sum identities expressing
    a level-n theta/eta polynomial through the top Pfaffian; returns a report."""
    from .weyl import TypedPartition, grassmannian_element
    from .raising import eta, theta

    if flavor == "BC":
        w = grassmannian_element(tuple(lam), n, "BC")
        target = theta(n, tuple(lam), double=True)
        family = "c"
        sign = (-1) ** ((n * (n + 1) // 2) % 2)
        pref = 1
    else:
        assert isinstance(lam, TypedPartition)
        w = grassmannian_element(lam, n, "D")
        target = eta(n, lam, double=True)
        family = "b"
        sign = (-1) ** ((n * (n - 1) // 2) % 2)
        pref = 2 ** (n - 1)
    w0 = longest_element(n, flavor)
    pf = pfaffian_formula(w, n, flavor, check=False)
    dd = divided_difference_w(w0, pf)
    ok_dd = dd == target
    lhs = target * alternating_operator(staircase_monomial(n, flavor, family), n, flavor)
    rhs = alternating_operator(pf, n, flavor) * (sign * pref)
    ok_alt = lhs == rhs
    return {"divided_difference": ok_dd, "alternant": ok_alt, "shape": tuple(lam) if flavor == "BC" else (lam.parts, lam.ptype)}
