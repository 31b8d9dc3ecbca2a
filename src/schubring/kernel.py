"""The graded checks behind ``schubring verify``: kernel and ideal graded
pieces, invariant subrings and their theta/eta spans, quotient Hilbert
series, dual-basis orthogonality and straightening, all over exact
rationals.

A compute or expand request never imports this module.  It holds the
level-n generator families of the kernel ideals, the Qtilde/Ptilde
polynomials, Q_alpha and its straightening, and the scalar products; the
graded pieces become coefficient rows over the monomial basis of the
ambient ring (generator monomials on strict partitions times x/y
monomials), and ``invariants`` does the exact linear algebra on them.
"""

from __future__ import annotations

from functools import lru_cache

from ._record import Record
from .polyring import D_ONE, Dyadic, elem_sym
from .gammaring import GammaElement, act_generator, c_entry, level_c
from .weyl import SignedPermutation, enumerate_group, quotient_elements
from .invariants import _row, _same_span, echelon
from . import schubert as sch
from . import raising


# ---------------------------------------------------------------------------
# level-n generator families of the kernel ideals
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def level_c_double(n: int, p: int) -> GammaElement:
    """{}^n c^n_p, the double (equivariant) level-n generator."""
    return c_entry(n, n, p)


def _b(q: int) -> GammaElement:
    """The type D generator b_q = c_q / 2, for q >= 1."""
    return GammaElement.generator(q) * Dyadic(1, 1)


@lru_cache(maxsize=None)
def level_b(n: int, p: int) -> GammaElement:
    """{}^n b_p = sum_j b_{p-j} e_j(X_n) (b_0 = 1), with every b_q, q >= 1,
    doubled when p < n."""
    out = GammaElement.from_poly(elem_sym(n, p, "x"))
    for j in range(0, p):
        out = out + _b(p - j) * GammaElement.from_poly(elem_sym(n, j, "x")) * (2 if p < n else 1)
    return out


@lru_cache(maxsize=None)
def level_b_prime(n: int) -> GammaElement:
    """{}^n b'_n = sum_{j<n} b_{n-j} e_j(X_n)."""
    out = GammaElement.zero()
    for j in range(0, n):
        out = out + _b(n - j) * GammaElement.from_poly(elem_sym(n, j, "x"))
    return out


@lru_cache(maxsize=None)
def btilde(n: int) -> GammaElement:
    """btilde_n = sum_{j<n} b_{n-j} e_j(-Y_n), a kernel generator in type D."""
    out = GammaElement.zero()
    for j in range(0, n):
        out = out + _b(n - j) * GammaElement.from_poly(elem_sym(n, j, "-y"))
    return out


# ---------------------------------------------------------------------------
# Q_alpha, Qtilde and Ptilde polynomials, straightening
# ---------------------------------------------------------------------------


def poly_entry_family(fn):
    """Wrap a subscript -> SparsePoly map as an entry family."""

    def entry(row: int, a: int, keep_hat: bool) -> GammaElement:
        return GammaElement.from_poly(fn(a))

    return entry


def schur_q(alpha) -> GammaElement:
    """Q_alpha by raising expansion."""
    alpha = tuple(alpha)
    zeros = (0,) * len(alpha)
    return raising._pfaffian_value_raising(raising.PfaffianSpec(zeros, zeros, alpha))


def qtilde(lam, n: int, signed: bool = False) -> GammaElement:
    """Qtilde_lambda(X_n) = (full raising product) e_lambda(X_n); the signed
    variant evaluates at -X_n."""
    lam = tuple(lam)
    assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
    if not lam:
        return GammaElement.const(1)
    entry = poly_entry_family(lambda a: elem_sym(n, a, "x"))
    val = raising.expand(raising.rr_expression(len(lam)), entry, lam)
    return val.negate_x() if signed else val


def ptilde(lam, n: int, signed: bool = False) -> GammaElement:
    """Ptilde_lambda = 2^{-length} Qtilde_lambda (lambda strict)."""
    lam = tuple(lam)
    assert all(lam[i] > lam[i + 1] for i in range(len(lam) - 1))
    return qtilde(lam, n, signed) * Dyadic(1, len(lam))


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


# ---------------------------------------------------------------------------
# restricted Schubert polynomials and scalar products
# ---------------------------------------------------------------------------


def schubert_restricted(
    w: SignedPermutation, n: int, flavor: str | None = None, method: str = "transition"
) -> GammaElement:
    """The primed polynomial: x_j = y_j = 0 for j > n."""
    return sch.schubert_poly(w, flavor, True, method).restrict_vars(n)


def scalar_product(
    f: GammaElement, g: GammaElement, n: int, flavor: str = "BC", kind: str = "full"
) -> GammaElement:
    """The invariant-valued products: 'full' divides by the longest Weyl
    element, 'sym' by the longest permutation, 'q' by their quotient."""
    w0 = sch.longest_element(n, flavor)
    p0 = SignedPermutation(tuple(range(n, 0, -1)), flavor)
    if kind == "full":
        u = w0
    elif kind == "sym":
        u = p0
    elif kind == "q":
        u = w0 * p0
    else:
        raise ValueError(f"unknown product kind {kind!r}")
    return sch.divided_difference_w(u, f * g)


# ---------------------------------------------------------------------------
# graded pieces
# ---------------------------------------------------------------------------


def strict_partitions_of(d: int) -> list[tuple[int, ...]]:
    out = []

    def rec(prefix, rem, maxpart):
        if rem == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(rem, maxpart), 0, -1):
            rec(prefix + [p], rem - p, p - 1)

    rec([], d, d)
    return out


def compositions(total: int, slots: int) -> list[tuple[int, ...]]:
    if slots == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(total, -1, -1):
        for rest in compositions(total - first, slots - 1):
            out.append((first,) + rest)
    return out


@lru_cache(maxsize=None)
def monomial_basis(n: int, d: int, with_y: bool) -> tuple:
    """Keys (subscripts, x-exps, y-exps) of the degree-d piece of the ambient
    ring with x (and optionally y) variables bounded by n."""
    keys = []
    for k in range(d + 1):
        for lam in strict_partitions_of(k):
            rem = d - k
            for xtotal in range(rem + 1):
                for xk in compositions(xtotal, n):
                    xkey = tuple(xk)
                    while xkey and xkey[-1] == 0:
                        xkey = xkey[:-1]
                    if with_y:
                        for yk in compositions(rem - xtotal, n):
                            ykey = tuple(yk)
                            while ykey and ykey[-1] == 0:
                                ykey = ykey[:-1]
                            keys.append((lam, xkey, ykey))
                    elif xtotal == rem:
                        keys.append((lam, xkey, ()))
    return tuple(sorted(set(keys)))


# ---------------------------------------------------------------------------
# generator sets
# ---------------------------------------------------------------------------


class GeneratorSet(Record):
    """A named family of ring generators, realized as (degree, GammaElement) pairs."""

    __slots__ = ("tag", "n", "elements")

    def __init__(self, tag: str, n: int, elements: tuple):
        self.tag, self.n, self.elements = tag, n, elements


def generator_set(tag: str, n: int, max_degree: int) -> GeneratorSet:
    """Realize the generator families by their defining sums.

    tags: 'gamma' ({}^n c_p), 'gamma-hat' ({}^n c^n_p), 'B' (level-n b and
    b'), 'B-hat' (btilde_n and {}^n c^n_p).
    """
    els = []
    if tag == "gamma":
        for p in range(1, max_degree + 1):
            els.append((p, level_c(n, p)))
    elif tag == "gamma-hat":
        for p in range(1, max_degree + 1):
            els.append((p, level_c_double(n, p)))
    elif tag == "B":
        for p in range(1, max_degree + 1):
            els.append((p, level_b(n, p)))
        if n <= max_degree:
            els.append((n, level_b_prime(n)))
    elif tag == "B-hat":
        if n <= max_degree:
            els.append((n, btilde(n)))
        for p in range(1, max_degree + 1):
            els.append((p, level_c_double(n, p)))
    else:
        raise ValueError(f"unknown generator tag {tag!r}")
    return GeneratorSet(tag, n, tuple(els))


def ideal_piece_vectors(gens: GeneratorSet, n: int, d: int, with_y: bool, basis) -> list:
    """Primitive integer rows of the degree-d multiples of the generators by
    basis monomials."""
    return [
        _row((GammaElement({key: D_ONE}) * g,), basis)
        for gdeg, g in gens.elements
        if gdeg <= d
        for key in monomial_basis(n, d - gdeg, with_y)
    ]


# ---------------------------------------------------------------------------
# invariance
# ---------------------------------------------------------------------------


def gen_indices(n: int, flavor: str) -> list[int]:
    """Simple reflection indices acting on the level-n ring (0 is the sign
    change for BC and the branch node for D)."""
    return list(range(0, n)) if flavor == "BC" else [0] + list(range(1, n))


def invariant_basis_rank(n: int, d: int, flavor: str = "BC"):
    """(dimension of the degree-d invariants, dimension of the theta/eta span).

    The two numbers agreeing is the checkable content of the statement that
    theta (eta) polynomials of level n span the invariant subring.
    """
    basis = monomial_basis(n, d, with_y=False)
    # invariants = kernel of f -> (s_i f - f)_i over the degree-d piece
    mat = []
    for key in basis:
        m = GammaElement({key: D_ONE})
        mat.append(_row([act_generator(i, m, flavor) - m for i in gen_indices(n, flavor)], basis))
    dim_inv = len(basis) - len(echelon(mat))
    return dim_inv, len(echelon(_row((t,), basis) for t in _theta_family(n, d, flavor)))


def _theta_family(n: int, d: int, flavor: str) -> list[GammaElement]:
    """Single theta (eta) polynomials of level n and weight d."""
    from .weyl import enumerate_grassmannian, grassmannian_shape

    out = []
    for w in enumerate_grassmannian(n, "BC" if flavor == "BC" else "D", d):
        if w.length() != d:
            continue
        if flavor == "BC":
            out.append(raising.theta(n, grassmannian_shape(w, n), double=False))
        else:
            out.append(raising.eta(n, grassmannian_shape(w, n), double=False))
    return out


# ---------------------------------------------------------------------------
# kernel span equality (the graded form of the kernel theorems)
# ---------------------------------------------------------------------------


def schubert_span_vectors(n: int, d: int, flavor: str, basis) -> list:
    """y-monomial multiples of the restricted Schubert polynomials indexed by
    the parabolic quotient minus the finite group, in degree d."""
    vecs = []
    for w in quotient_elements(flavor, n, d):
        if w.support <= n:
            continue
        lw = w.length()
        cs = schubert_restricted(w, n, flavor)
        for ytotal in [d - lw]:
            for yk in compositions(ytotal, n):
                ykey = tuple(yk)
                while ykey and ykey[-1] == 0:
                    ykey = ykey[:-1]
                m = GammaElement({((), (), ykey): D_ONE})
                vecs.append(_row((m * cs,), basis))
    return vecs


def kernel_span_equality(n: int, d: int, flavor: str = "BC") -> dict:
    """Compare the degree-d piece of the generator ideal with the span of
    Schubert polynomials above the finite group; returns an exact report."""
    basis = monomial_basis(n, d, with_y=True)
    gens = generator_set("gamma-hat" if flavor == "BC" else "B-hat", n, d)
    ideal = echelon(ideal_piece_vectors(gens, n, d, True, basis))
    schub = echelon(schubert_span_vectors(n, d, flavor, basis))
    return {
        "degree": d,
        "ideal_dim": len(ideal),
        "schubert_dim": len(schub),
        "equal": _same_span(ideal, schub),
    }


def quotient_hilbert_series(n: int, flavor: str, max_d: int) -> list[int]:
    """dim of (ambient / generator ideal) in each degree up to max_d."""
    gens = generator_set("gamma" if flavor == "BC" else "B", n, max_d)
    out = []
    for d in range(max_d + 1):
        basis = monomial_basis(n, d, with_y=False)
        out.append(len(basis) - len(echelon(ideal_piece_vectors(gens, n, d, False, basis))))
    return out


def weyl_length_histogram(n: int, flavor: str) -> list[int]:
    hist: dict[int, int] = {}
    for w in enumerate_group("W" if flavor == "BC" else "Wtilde", n):
        hist[w.length()] = hist.get(w.length(), 0) + 1
    return [hist.get(i, 0) for i in range(max(hist) + 1)]


# ---------------------------------------------------------------------------
# dual bases
# ---------------------------------------------------------------------------


def dual_basis_orthogonality(n: int, flavor: str = "BC") -> dict:
    """The full orthogonality matrix of the product basis against its stated
    dual, under the longest-element scalar product."""
    top = n if flavor == "BC" else n - 1
    lams = [
        lam
        for d in range(0, top * (top + 1) // 2 + 1)
        for lam in strict_partitions_of(d)
        if all(p <= top for p in lam)
    ]
    perms = enumerate_group("S", n)
    delta = tuple(range(top, 0, -1))
    p0 = SignedPermutation(tuple(range(n, 0, -1)), "A")
    tilde = qtilde if flavor == "BC" else ptilde
    failures = []
    for lam in lams:
        for u in perms:
            f = tilde(lam, n, signed=True) * sch.schubert_poly(u.with_flavor("A"), "A", double=False)
            for mu in lams:
                comp = tuple(sorted((set(delta) - set(mu)), reverse=True))
                if len(mu) + len(comp) != top or set(mu) | set(comp) != set(delta):
                    continue
                for up in perms:
                    a2 = sch.schubert_poly((up * p0).with_flavor("A"), "A", double=False)
                    g = tilde(comp, n, signed=True) * a2.negate_x().permute_x(p0)
                    val = scalar_product(f, g, n, flavor, "full")
                    expected = (
                        GammaElement.const(1) if (u == up and lam == mu) else GammaElement.zero()
                    )
                    if val != expected:
                        failures.append((lam, u.window, mu, up.window))
    return {"failures": failures, "ok": not failures}
