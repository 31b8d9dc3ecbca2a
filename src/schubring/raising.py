"""Raising-operator calculus: expansion of operator products against indexed
entry families, multi-Schur Pfaffians, theta/eta polynomial constructors,
Qtilde/Ptilde polynomials, and straightening.

A raising operator R_ij adds 1 to slot i and subtracts 1 from slot j of an
index vector.  Operator products here are of the form

    prod over pairs (i,j) of either (1 - R_ij) or (1 - R_ij)/(1 + R_ij),

applied to a vector alpha; the expansion is finite because every entry family
vanishes once its subscript drops below zero.  With ``star=True`` the
expansion additionally records, per raising monomial, which slots were moved
by an inverted factor (its support); entry evaluation then drops the hat
correction exactly on those slots.
"""

from __future__ import annotations

from functools import lru_cache

from ._record import Record
from .polyring import Dyadic, SparsePoly, elem_sym, supersym_e
from .gammaring import (
    GammaElement,
    _add_into,
    c_entry,
    c_hat_entry,
    level_c,
)


class RaisingExpression(Record):
    """A product of factors (1 - R_ij) and (1 + R_ij)^{-1} on vectors of
    length ``arity``."""

    __slots__ = ("arity", "numerator", "denominator")

    def __init__(self, arity: int, numerator: tuple, denominator: tuple):
        self.arity, self.numerator, self.denominator = arity, numerator, denominator
        for i, j in numerator + denominator:
            assert 1 <= i < j <= arity, f"bad pair ({i},{j})"


def rr_expression(ell: int) -> RaisingExpression:
    """The full product prod_{i<j} (1 - R_ij)/(1 + R_ij)."""
    pairs = tuple((i, j) for i in range(1, ell) for j in range(i + 1, ell + 1))
    return RaisingExpression(ell, pairs, pairs)

def jt_expression(ell: int, inverted_pairs) -> RaisingExpression:
    """prod_{i<j} (1 - R_ij) times (1 + R_ij)^{-1} over the given pairs."""
    pairs = tuple((i, j) for i in range(1, ell) for j in range(i + 1, ell + 1))
    return RaisingExpression(ell, pairs, tuple(sorted(inverted_pairs)))


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
    denom = set(expr.denominator)
    numer = set(expr.numerator)
    # per-pair combined series in R_ij: (1-R)/(1+R) = 1 - 2R + 2R^2 - ...
    pairs = sorted(numer | denom, key=lambda ij: (-ij[1], ij[0]))
    states: dict = {(alpha, frozenset()): 1}
    for i, j in pairs:
        in_num = (i, j) in numer
        in_den = (i, j) in denom
        new: dict = {}
        for (vec, supp), coeff in states.items():
            k = 0
            while True:
                aj = vec[j - 1] - k
                if k > 0 and aj < 0:
                    break
                if in_num and in_den:
                    c = 1 if k == 0 else 2 * (-1) ** k
                elif in_num:
                    if k > 1:
                        break
                    c = 1 if k == 0 else -1
                else:
                    c = (-1) ** k
                nv = list(vec)
                nv[i - 1] += k
                nv[j - 1] -= k
                # only inverted factors mark their slots for the star product
                marks = star and k > 0 and in_den
                key = (tuple(nv), supp | {i, j} if marks else supp)
                new[key] = new.get(key, 0) + coeff * c
                k += 1
        states = {k: v for k, v in new.items() if v}
    # Fold the surviving states from the last row up.  A state is keyed by
    # its per-row (subscript, keep_hat) pairs; the states sharing rows
    # 1..row-1 are summed first, so each row's entry multiplies once per
    # distinct prefix rather than once per state.
    family = entry_fn(1, -1, True).family
    vals: dict = {}
    for (vec, supp), coeff in states.items():
        if ell and min(vec) >= 0:
            key = tuple((a, not (star and r in supp)) for r, a in enumerate(vec, 1))
            vals[key] = vals.get(key, 0) + coeff
    for row in range(ell, 0, -1):
        up: dict = {}
        for key, val in vals.items():
            e = entry_fn(row, *key[-1])
            if e and val:
                _add_into(up.setdefault(key[:-1], {}), (e * val).terms)
        vals = {k: GammaElement(family, t) for k, t in up.items()}
    total = vals.get((), GammaElement(family))
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
        return c_entry(rho[row - 1], beta[row - 1], a, "c")

    return entry


def c_hat_family(rho, beta):
    """Hatted entries {}^{rho_i} chat^{beta_i}_a with row-alternating
    correction sign (-1)^row, in the ring Gamma'[X, Y]."""
    rho, beta = tuple(rho), tuple(beta)

    def entry(row: int, a: int, keep_hat: bool) -> GammaElement:
        if keep_hat:
            return c_hat_entry(rho[row - 1], beta[row - 1], a, (-1) ** row, "b")
        return c_entry(rho[row - 1], beta[row - 1], a, "b")

    return entry


def poly_entry_family(fn, family: str = "c"):
    """Wrap a subscript -> SparsePoly map as an entry family."""

    def entry(row: int, a: int, keep_hat: bool) -> GammaElement:
        return GammaElement.from_poly(fn(a), family)

    return entry


# ---------------------------------------------------------------------------
# multi-Schur Pfaffians
# ---------------------------------------------------------------------------


class PfaffianSpec(Record):
    """Indexing data of a multi-Schur Pfaffian.

    rho/beta/alpha must have equal lengths; ``hatted`` switches to the type D
    starred family (with the 2^{-length} prefactor), which forces star
    bookkeeping.
    """

    __slots__ = ("rho", "beta", "alpha", "hatted", "star")

    def __init__(self, rho, beta, alpha, hatted: bool = False, star: bool = False):
        self.rho, self.beta, self.alpha, self.hatted, self.star = rho, beta, alpha, hatted, star
        assert len(rho) == len(beta) == len(alpha)
        if star:
            assert hatted, "star bookkeeping only applies to hatted entries"

    @property
    def length(self) -> int:
        return len(self.alpha)


def _pfaffian_value_raising(spec: PfaffianSpec) -> GammaElement:
    ell = spec.length
    if ell == 0:
        return GammaElement.const(1, "b" if spec.hatted else "c")
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
        return GammaElement.const(1, "b" if spec.hatted else "c")
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
                return c_entry(0, 0, a, "b")

            return expand(
                rr_expression(2), entry, (alpha[i], alpha[j]), star=True,
                prefactor=Dyadic(1, 1),
            )
        sub = PfaffianSpec(
            (rho[i], rho[j]),
            (beta[i], beta[j]),
            (alpha[i], alpha[j]),
            spec.hatted,
            spec.hatted,
        )
        return _pfaffian_value_raising(sub)

    def pf(rows: tuple[int, ...]) -> GammaElement:
        if not rows:
            return GammaElement.const(1, "b" if spec.hatted else "c")
        first, rest = rows[0], rows[1:]
        total: dict = {}
        for t, j in enumerate(rest):
            term = block(first, j) * pf(rest[:t] + rest[t + 1 :])
            _add_into(total, term.terms, -1 if t % 2 else 1)
        return GammaElement("b" if spec.hatted else "c", total)

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


def schur_q(alpha, beta=None, rho=None) -> GammaElement:
    """Q^beta_alpha (superscripts defaulting to zero) by raising expansion."""
    alpha = tuple(alpha)
    ell = len(alpha)
    beta = tuple(beta) if beta is not None else (0,) * ell
    rho = tuple(rho) if rho is not None else (0,) * ell
    return _pfaffian_value_raising(PfaffianSpec(rho, beta, alpha))


# ---------------------------------------------------------------------------
# theta polynomials
# ---------------------------------------------------------------------------


def _beta_and_pairs(w, ell: int, n: int):
    """beta(lambda) and C(lambda), read off the Grassmannian element's tail."""
    beta = []
    for i in range(1, ell + 1):
        wi = w(n + i)
        beta.append(wi + 1 if wi < 0 else wi)
    pairs = set()
    for i in range(1, ell + 1):
        for j in range(i + 1, ell + 1):
            if w(n + i) + w(n + j) < 0:
                pairs.add((i, j))
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
        return GammaElement.const(1, "c")
    w = grassmannian_element(lam, n, "BC")
    beta, pairs = _beta_and_pairs(w, ell, n)

    if double:
        def entry(row, a, keep_hat):
            return c_entry(n, beta[row - 1], a, "c")
    else:
        def entry(row, a, keep_hat):
            return level_c(n, a, "c")

    val = expand(jt_expression(ell, pairs), entry, lam)
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
        return GammaElement.const(1, "b")
    w = grassmannian_element(lam, n, "D")
    beta, pairs = _beta_and_pairs(w, ell, n)
    halves = sum(1 for p in parts if p > n)
    dressed = halves + 1 if (lam.ptype != 0 and n in parts) else 0
    fsign = 1 if lam.ptype == 1 else -1

    def entry(row, a, keep_hat):
        if a < 0:
            return GammaElement.zero("b")
        s = beta[row - 1]
        if row == dressed:
            val = c_entry(n, s, a, "b") - c_entry(n, 0, a, "b") * Dyadic(1, 1)
            if a == n and keep_hat:
                val = val + _dressed_correction(n) * Dyadic(fsign, 1)
            return val
        if keep_hat and parts[row - 1] > n:
            return c_hat_entry(n, s, a, (-1) ** row, "b")
        return c_entry(n, s, a, "b")

    val = expand(
        jt_expression(ell, pairs), entry, parts, star=True, prefactor=Dyadic(1, halves)
    )
    if not double:
        val = val.set_y_zero()
    if not val.is_integral():
        raise ArithmeticError("eta polynomial is not integral in the b-basis")
    if val.max_xvar() > n:
        raise ArithmeticError(f"eta polynomial has variables beyond x_{n}")
    return val


@lru_cache(maxsize=None)
def _dressed_correction(n: int) -> GammaElement:
    return GammaElement.from_poly(elem_sym(n, n, "x"), "b")


# ---------------------------------------------------------------------------
# Qtilde and Ptilde polynomials
# ---------------------------------------------------------------------------


def qtilde(lam, n: int, signed: bool = False) -> SparsePoly:
    """Qtilde_lambda(X_n) = (full raising product) e_lambda(X_n); the signed
    variant evaluates at -X_n."""
    lam = tuple(lam)
    assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
    if not lam:
        return SparsePoly.const(1)
    entry = poly_entry_family(lambda a: elem_sym(n, a, "x"))
    val = expand(rr_expression(len(lam)), entry, lam)
    if signed:
        val = val.negate_x()
    return gamma_to_poly(val)


def qtilde_super(lam, n: int) -> SparsePoly:
    """The supersymmetric variant, built from the entries e-hat_a(X_n/Y_n)."""
    lam = tuple(lam)
    if not lam:
        return SparsePoly.const(1)
    entry = poly_entry_family(lambda a: supersym_e(a, n))
    val = expand(rr_expression(len(lam)), entry, lam)
    return gamma_to_poly(val)


def ptilde(lam, n: int, signed: bool = False) -> SparsePoly:
    """Ptilde_lambda = 2^{-length} Qtilde_lambda (lambda strict)."""
    lam = tuple(lam)
    assert all(lam[i] > lam[i + 1] for i in range(len(lam) - 1))
    q = qtilde(lam, n, signed)
    return SparsePoly({k: c.times_pow2(-len(lam)) for k, c in q.terms.items()})


def gamma_to_poly(f: GammaElement) -> SparsePoly:
    """Convert a generator-free ring element to a plain polynomial."""
    out = {}
    for (subs, xk, yk), c in f.terms.items():
        assert not subs, "element has generator content"
        out[(xk, yk)] = c
    return SparsePoly(out)


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
    return GammaElement.zero("c")


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
    total = GammaElement.zero("c")
    for mu, j, coeff in decompose_qpla(p, lam, n):
        total = total + schur_q(mu) * level_c(n, j, "c") * coeff
    return total
