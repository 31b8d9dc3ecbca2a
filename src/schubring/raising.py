"""Raising-operator calculus: expansion of operator products against indexed
entry families, multi-Schur Pfaffians, theta/eta polynomial constructors,
Qtilde/Ptilde polynomials, and straightening.

A raising operator R_ij adds 1 to slot i and subtracts 1 from slot j of an
index vector.  Every operator here has the form

    prod over i<j of (1 - R_ij)  times  prod over (i,j) in C of (1 + R_ij)^{-1},

applied to a vector alpha; the expansion is finite because every entry family
vanishes once its subscript drops below zero.  With ``star=True`` the
expansion additionally records, per raising monomial, which slots were moved
by an inverted factor (its support); entry evaluation then drops the hat
correction exactly on those slots.
"""

from __future__ import annotations

from functools import lru_cache

from ._record import Record
from .polyring import Dyadic, elem_sym, supersym_e
from .gammaring import (
    GammaElement,
    _gsum,
    c_entry,
    c_hat_entry,
    level_c,
)


class RaisingExpression(Record):
    """The product of (1 - R_ij) over all pairs i < j of slots 1..arity, and
    of (1 + R_ij)^{-1} over the ``inverted`` pairs."""

    __slots__ = ("arity", "inverted")

    def __init__(self, arity: int, inverted: tuple):
        self.arity, self.inverted = arity, inverted
        for i, j in inverted:
            if not 1 <= i < j <= arity:
                raise ValueError(f"bad pair ({i},{j})")


def rr_expression(ell: int) -> RaisingExpression:
    """The full product prod_{i<j} (1 - R_ij)/(1 + R_ij)."""
    pairs = tuple((i, j) for i in range(1, ell) for j in range(i + 1, ell + 1))
    return RaisingExpression(ell, pairs)


def expand(
    expr: RaisingExpression,
    entry_fn,
    alpha,
    star: bool = False,
    prefactor: Dyadic | int = 1,
) -> GammaElement:
    """Expand the operator product against an entry family.

    entry_fn(row, subscript, keep_hat) must return a GammaElement and vanish
    for subscript < 0.  Pairs are processed by decreasing second slot, so a
    slot is never raised after it has been lowered; states whose lowered slot
    went negative are pruned (the final entry would vanish).
    """
    ell = expr.arity
    alpha = tuple(alpha)
    assert len(alpha) == ell
    denom = set(expr.inverted)
    pairs = [(i, j) for j in range(ell, 1, -1) for i in range(1, j)]
    states: dict = {(alpha, frozenset()): 1}
    for i, j in pairs:
        # (1 - R)/(1 + R) = 1 - 2R + 2R^2 - ..., and (1 - R) alone stops at R
        inverted = (i, j) in denom
        new: dict = {}
        for (vec, supp), coeff in states.items():
            # a lowered slot never goes below zero
            top = max(vec[j - 1], 0)
            for k in range(top + 1 if inverted else min(top, 1) + 1):
                c = 1 if k == 0 else (2 * (-1) ** k if inverted else -1)
                nv = list(vec)
                nv[i - 1] += k
                nv[j - 1] -= k
                # only inverted factors mark their slots for the star product
                marks = star and k > 0 and inverted
                key = (tuple(nv), supp | {i, j} if marks else supp)
                new[key] = new.get(key, 0) + coeff * c
        states = {k: v for k, v in new.items() if v}
    # Fold the surviving states from the last row up.  A state is keyed by
    # its per-row (subscript, keep_hat) pairs; the states sharing rows
    # 1..row-1 are summed first, so each row's entry multiplies once per
    # distinct prefix rather than once per state.
    vals: dict = {}
    for (vec, supp), coeff in states.items():
        if ell and min(vec) >= 0:
            key = tuple((a, not (star and r in supp)) for r, a in enumerate(vec, 1))
            vals[key] = vals.get(key, 0) + coeff
    for row in range(ell, 0, -1):
        up: dict = {}
        for key, val in vals.items():
            up.setdefault(key[:-1], []).append((key[-1], val))
        vals = {k: _gsum((entry_fn(row, *last) * val, 1) for last, val in lst) for k, lst in up.items()}
    total = vals.get((), GammaElement.zero())
    if isinstance(prefactor, int):
        prefactor = Dyadic(prefactor)
    return total * prefactor


# ---------------------------------------------------------------------------
# entry families
# ---------------------------------------------------------------------------


def c_family(rho, beta):
    """Entries {}^{rho_i} c^{beta_i}_a in the ring Gamma[X, Y]."""
    rho, beta = tuple(rho), tuple(beta)

    def entry(row: int, a: int, keep_hat: bool) -> GammaElement:
        return c_entry(rho[row - 1], beta[row - 1], a)

    return entry


def c_hat_family(rho, beta):
    """Hatted entries {}^{rho_i} chat^{beta_i}_a with row-alternating
    correction sign (-1)^row (the type D entries)."""
    rho, beta = tuple(rho), tuple(beta)

    def entry(row: int, a: int, keep_hat: bool) -> GammaElement:
        if keep_hat:
            return c_hat_entry(rho[row - 1], beta[row - 1], a, (-1) ** row)
        return c_entry(rho[row - 1], beta[row - 1], a)

    return entry


def poly_entry_family(fn):
    """Wrap a subscript -> SparsePoly map as an entry family."""

    def entry(row: int, a: int, keep_hat: bool) -> GammaElement:
        return GammaElement.from_poly(fn(a))

    return entry


# ---------------------------------------------------------------------------
# multi-Schur Pfaffians
# ---------------------------------------------------------------------------


class PfaffianSpec(Record):
    """Indexing data of a multi-Schur Pfaffian.

    rho/beta/alpha must have equal lengths; ``hatted`` switches to the type D
    starred family (with the 2^{-length} prefactor and star bookkeeping).
    """

    __slots__ = ("rho", "beta", "alpha", "hatted")

    def __init__(self, rho, beta, alpha, hatted: bool = False):
        self.rho, self.beta, self.alpha, self.hatted = rho, beta, alpha, hatted
        assert len(rho) == len(beta) == len(alpha)

    @property
    def length(self) -> int:
        return len(self.alpha)


def _pfaffian_value_raising(spec: PfaffianSpec) -> GammaElement:
    ell = spec.length
    if ell == 0:
        return GammaElement.const(1)
    if spec.hatted:
        fam = c_hat_family(spec.rho, spec.beta)
        pref = Dyadic(1, ell)
        return expand(rr_expression(ell), fam, spec.alpha, star=True, prefactor=pref)
    fam = c_family(spec.rho, spec.beta)
    return expand(rr_expression(ell), fam, spec.alpha)


def _pfaffian_value_blocks(spec: PfaffianSpec) -> GammaElement:
    """Kazarian form: the Pfaffian of the skew matrix of two-row values,
    after padding the spec with zero rows to even length."""
    ell = spec.length
    if ell == 0:
        return GammaElement.const(1)
    r = ell + (ell % 2)
    rho = spec.rho + (0,) * (r - ell)
    beta = spec.beta + (0,) * (r - ell)
    alpha = spec.alpha + (0,) * (r - ell)

    @lru_cache(maxsize=None)
    def block(i: int, j: int) -> GammaElement:
        if spec.hatted and j >= ell:
            # a padding row: its entry is the bare {}^0 c^0_a (never hatted),
            # so the two-row value h alves only once
            fam_i = c_hat_family((rho[i],) * 2, (beta[i],) * 2)

            def entry(row, a, keep_hat):
                if row == 1:
                    return fam_i(1, a, keep_hat)
                return c_entry(0, 0, a)

            return expand(
                rr_expression(2), entry, (alpha[i], alpha[j]), star=True,
                prefactor=Dyadic(1, 1),
            )
        sub = PfaffianSpec(
            (rho[i], rho[j]),
            (beta[i], beta[j]),
            (alpha[i], alpha[j]),
            spec.hatted,
        )
        return _pfaffian_value_raising(sub)

    def pf(rows: tuple[int, ...]) -> GammaElement:
        if not rows:
            return GammaElement.const(1)
        first, rest = rows[0], rows[1:]
        return _gsum(
            (block(first, j) * pf(rest[:t] + rest[t + 1 :]), -1 if t % 2 else 1) for t, j in enumerate(rest)
        )

    return pf(tuple(range(r)))


def multi_schur_pfaffian(spec: PfaffianSpec, cross_check: bool = True) -> GammaElement:
    """Value of the full raising-operator product on the spec's entries.

    Computes both the direct expansion and the block-Pfaffian evaluation and
    insists they agree (an internal consistency failure raises).
    """
    val = _pfaffian_value_raising(spec)
    if cross_check:
        blocks = _pfaffian_value_blocks(spec)
        if blocks != val:
            raise ArithmeticError(
                f"pfaffian mismatch between expansion and block evaluation: {spec}"
            )
    return val


def schur_q(alpha) -> GammaElement:
    """Q_alpha by raising expansion."""
    alpha = tuple(alpha)
    zeros = (0,) * len(alpha)
    return _pfaffian_value_raising(PfaffianSpec(zeros, zeros, alpha))


# ---------------------------------------------------------------------------
# theta polynomials
# ---------------------------------------------------------------------------


def _beta_and_pairs(w, ell: int, n: int):
    """beta(lambda) and C(lambda), read off the Grassmannian element's tail."""
    beta = []
    for i in range(1, ell + 1):
        wi = w(n + i)
        beta.append(wi + 1 if wi < 0 else wi)
    pairs = tuple(
        (i, j) for i in range(1, ell + 1) for j in range(i + 1, ell + 1) if w(n + i) + w(n + j) < 0
    )
    return tuple(beta), pairs


def theta(n: int, lam, double: bool = False) -> GammaElement:
    """The theta polynomial of level n for an n-strict partition.

    The double version carries the deformation indices read off from the
    associated n-Grassmannian element; setting every y to zero recovers the
    single polynomial.
    """
    from .weyl import grassmannian_element, is_n_strict

    lam = tuple(lam)
    assert is_n_strict(lam, n), f"{lam} is not {n}-strict"
    ell = len(lam)
    if ell == 0:
        return GammaElement.const(1)
    w = grassmannian_element(lam, n, "BC")
    beta, pairs = _beta_and_pairs(w, ell, n)

    if double:
        def entry(row, a, keep_hat):
            return c_entry(n, beta[row - 1], a)
    else:
        def entry(row, a, keep_hat):
            return level_c(n, a)

    val = expand(RaisingExpression(ell, pairs), entry, lam)
    if not val.is_integral():
        raise ArithmeticError("theta polynomial is not integral")
    if val.max_xvar() > n:
        raise ArithmeticError(f"theta polynomial has variables beyond x_{n}")
    return val


# ---------------------------------------------------------------------------
# eta polynomials
# ---------------------------------------------------------------------------


def eta(n: int, lam, double: bool = False) -> GammaElement:
    """The eta polynomial of level n for a typed n-strict partition.

    Rows with lambda_i > n carry the starred hat entries (row-alternating
    correction sign, dropped on raising-touched rows) and contribute one
    halving each.  The first row with lambda_i = n, when the type is nonzero,
    is the dressed row: its entry is

        {}^n c^{beta_i}_a - (1/2) {}^n c_a  (+/-) (1/2) e_n(X)  at a = n,

    with + for type 1 and - for type 2 (the level-n b resp. b' function at
    the starting subscript).  All remaining rows are plain entries.  Setting
    every y to zero gives the single polynomial.
    """
    from .weyl import TypedPartition, grassmannian_element

    assert isinstance(lam, TypedPartition) and lam.n == n
    parts = lam.parts
    ell = len(parts)
    if ell == 0:
        return GammaElement.const(1)
    w = grassmannian_element(lam, n, "D")
    beta, pairs = _beta_and_pairs(w, ell, n)
    halves = sum(1 for p in parts if p > n)
    dressed = halves + 1 if (lam.ptype != 0 and n in parts) else 0
    fsign = 1 if lam.ptype == 1 else -1

    def entry(row, a, keep_hat):
        if a < 0:
            return GammaElement.zero()
        s = beta[row - 1]
        if row == dressed:
            val = c_entry(n, s, a) - c_entry(n, 0, a) * Dyadic(1, 1)
            if a == n and keep_hat:
                val = val + _dressed_correction(n) * Dyadic(fsign, 1)
            return val
        if keep_hat and parts[row - 1] > n:
            return c_hat_entry(n, s, a, (-1) ** row)
        return c_entry(n, s, a)

    val = expand(
        RaisingExpression(ell, pairs), entry, parts, star=True, prefactor=Dyadic(1, halves)
    )
    if not double:
        val = val.set_y_zero()
    # integral in the b basis, where c_lambda = 2^{l(lambda)} b_lambda
    if any(n % (1 << max(val.exp - len(s), 0)) for (s, _), n in val.nums.items()):
        raise ArithmeticError("eta polynomial is not integral in the b-basis")
    if val.max_xvar() > n:
        raise ArithmeticError(f"eta polynomial has variables beyond x_{n}")
    return val


@lru_cache(maxsize=None)
def _dressed_correction(n: int) -> GammaElement:
    return GammaElement.from_poly(elem_sym(n, n, "x"))


# ---------------------------------------------------------------------------
# Qtilde and Ptilde polynomials
# ---------------------------------------------------------------------------


def qtilde(lam, n: int, signed: bool = False) -> GammaElement:
    """Qtilde_lambda(X_n) = (full raising product) e_lambda(X_n); the signed
    variant evaluates at -X_n."""
    lam = tuple(lam)
    assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
    if not lam:
        return GammaElement.const(1)
    entry = poly_entry_family(lambda a: elem_sym(n, a, "x"))
    val = expand(rr_expression(len(lam)), entry, lam)
    return val.negate_x() if signed else val


def qtilde_super(lam, n: int) -> GammaElement:
    """The supersymmetric variant, built from the entries e-hat_a(X_n/Y_n)."""
    lam = tuple(lam)
    if not lam:
        return GammaElement.const(1)
    entry = poly_entry_family(lambda a: supersym_e(a, n))
    return expand(rr_expression(len(lam)), entry, lam)


def ptilde(lam, n: int, signed: bool = False) -> GammaElement:
    """Ptilde_lambda = 2^{-length} Qtilde_lambda (lambda strict)."""
    lam = tuple(lam)
    assert all(lam[i] > lam[i + 1] for i in range(len(lam) - 1))
    return qtilde(lam, n, signed) * Dyadic(1, len(lam))


# ---------------------------------------------------------------------------
# straightening
# ---------------------------------------------------------------------------


def hh_straighten(k: int, lam) -> GammaElement:
    """Normal form of Q_{(k, lambda)} for an integer k and strict lambda.

    Case analysis (lambda strict, k below lambda_1 or lambda empty):
    a nonnegative k not among the parts sorts in with sign (-1)^{#larger
    parts}; a negative k whose absolute value is a part removes that part
    with the stated sign and a factor 2; every other case vanishes.
    """
    lam = tuple(lam)
    assert all(lam[i] > lam[i + 1] > 0 for i in range(len(lam) - 1)) and all(
        p > 0 for p in lam
    )
    nk = sum(1 for p in lam if p > abs(k))
    if k >= 0 and k not in lam:
        new = tuple(sorted(lam + ((k,) if k else ()), reverse=True))
        return schur_q(new) * ((-1) ** nk)
    if k < 0 and -k in lam:
        new = tuple(p for p in lam if p != -k)
        return schur_q(new) * ((-1) ** ((k + nk) % 2) * 2)
    return GammaElement.zero()


def decompose_qpla(p: int, lam, n: int):
    """The explicit combination Q_{(p,lambda)} = sum of Q_mu * (level-n
    generators), valid for p > max(n, lambda_1).

    Returns a list of (mu, generator subscript, integer coefficient) with
    Q_{(p,lambda)} = sum coeff * Q_mu * {}^n c_j, following the sign pattern
    produced by straightening the negative-subscript terms.
    """
    lam = tuple(lam)
    assert p > max([n] + list(lam)), "requires p above the level and lambda_1"
    out = []
    a_set = [r for r in range(0, p) if r not in lam]
    for r in a_set:
        nr = sum(1 for q in lam if q > r)
        mu = tuple(sorted(lam + ((r,) if r else ()), reverse=True))
        out.append((mu, p - r, (-1) ** (p - 1 - r + nr)))
    for r in lam:
        nr = sum(1 for q in lam if q > r)
        mu = tuple(q for q in lam if q != r)
        out.append((mu, p + r, 2 * (-1) ** (p - 1 + nr)))
    return out


def decompose_qpla_value(p: int, lam, n: int) -> GammaElement:
    """Re-assemble the decomposition as a ring element (for exactness checks)."""
    total = GammaElement.zero()
    for mu, j, coeff in decompose_qpla(p, lam, n):
        total = total + schur_q(mu) * level_c(n, j) * coeff
    return total
