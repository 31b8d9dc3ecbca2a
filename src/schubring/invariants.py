"""Invariant subrings, kernel/ideal graded pieces, Hilbert series, free-module
certificates and dual-basis orthogonality, all over exact rationals.

Graded pieces are handled as explicit coefficient vectors with respect to the
monomial basis of the ambient ring (generator monomials on strict partitions
times x/y monomials); ranks and span comparisons use sparse fraction-free
elimination over Q on primitive integer rows (Bareiss, Math. Comp. 22, 1968),
so every report is exact.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, gcd, lcm

from ._record import Record
from .polyring import D_ONE, elem_sym, supersym_e
from .gammaring import (
    GammaElement,
    act_generator,
    btilde,
    c_to_b,
    level_b,
    level_b_prime,
    level_c,
    level_c_double,
)
from .weyl import SignedPermutation, enumerate_group, quotient_elements
from . import schubert as sch
from . import raising


# ---------------------------------------------------------------------------
# graded linear algebra
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


def to_vector(f: GammaElement, basis: tuple) -> list[Fraction]:
    from fractions import Fraction
    index = {k: i for i, k in enumerate(basis)}
    vec = [Fraction(0)] * len(basis)
    for k, c in f.terms.items():
        vec[index[k]] = c.as_fraction()
    return vec


def _primitive_row(row) -> dict[int, int]:
    """The primitive integer multiple of a rational row as {column: int}."""
    entries = [(j, v.numerator, v.denominator) for j, v in enumerate(row) if v]
    den = lcm(*(q for _, _, q in entries))
    g = gcd(*(p for _, p, _ in entries))
    return {j: p * (den // q) // g for j, p, q in entries}


def _reduce(row: dict[int, int], pivots: dict) -> dict[int, int]:
    """Cancel the leading entry of an integer row against the pivot row of
    that column until it has none; the result stays primitive."""
    while row:
        lead = min(row)
        piv = pivots.get(lead)
        if piv is None:
            return row
        g = gcd(row[lead], piv[lead])
        a, b = piv[lead] // g, row[lead] // g
        row = {j: a * v for j, v in row.items()} if a != 1 else dict(row)
        for j, v in piv.items():
            x = row.get(j, 0) - b * v
            if x:
                row[j] = x
            else:
                del row[j]
        g = gcd(*row.values())
        if g > 1:
            row = {j: v // g for j, v in row.items()}
    return row


def echelon(rows) -> dict[int, dict[int, int]]:
    """Sparse fraction-free echelon form over Q of rational rows: the nonzero
    reduced rows as primitive integer rows, keyed by their leading column."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = _reduce(_primitive_row(row), pivots)
        if r:
            lead = min(r)
            pivots[lead] = r if r[lead] > 0 else {j: -v for j, v in r.items()}
    return pivots


def _same_span(ea: dict, eb: dict) -> bool:
    """Equal ranks and every row of eb in the span of ea."""
    return len(ea) == len(eb) and not any(_reduce(r, ea) for r in eb.values())


def exact_rank(rows: list[list[Fraction]]) -> int:
    """Rank over Q."""
    return len(echelon(rows))


def spans_equal(avecs: list, bvecs: list) -> bool:
    return _same_span(echelon(avecs), echelon(bvecs))


def in_span(vectors: list, target: list) -> bool:
    return not _reduce(_primitive_row(target), echelon(vectors))


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
    b'), 'B-hat' (btilde_n and the embedded {}^n c^n_p).
    """
    els = []
    if tag == "gamma":
        for p in range(1, max_degree + 1):
            els.append((p, level_c(n, p, "c")))
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
            els.append((p, c_to_b(level_c_double(n, p))))
    else:
        raise ValueError(f"unknown generator tag {tag!r}")
    return GeneratorSet(tag, n, tuple(els))


def _monomial_multiples(g: GammaElement, n: int, d: int, with_y: bool) -> list:
    """All monomial * g with the monomial of complementary degree."""
    gdeg = g.degree()
    out = []
    for key in monomial_basis(n, d - gdeg, with_y):
        m = GammaElement(g.family, {key: D_ONE})
        out.append(m * g)
    return out


def ideal_piece_vectors(gens: GeneratorSet, n: int, d: int, with_y: bool, basis) -> list:
    vecs = []
    for gdeg, g in gens.elements:
        if gdeg <= d:
            for m in _monomial_multiples(g, n, d, with_y):
                vecs.append(to_vector(m, basis))
    return vecs


# ---------------------------------------------------------------------------
# invariance
# ---------------------------------------------------------------------------


def gen_indices(n: int, flavor: str) -> list[int]:
    """Simple reflection indices acting on the level-n ring (0 is the sign
    change for BC and the branch node for D)."""
    return list(range(0, n)) if flavor == "BC" else [0] + list(range(1, n))


def check_invariance(f: GammaElement, n: int, flavor: str = "BC") -> bool:
    return all(act_generator(i, f) == f for i in gen_indices(n, flavor))


def invariant_basis_rank(n: int, d: int, flavor: str = "BC"):
    """(dimension of the degree-d invariants, dimension of the theta/eta span).

    The two numbers agreeing is the checkable content of the statement that
    theta (eta) polynomials of level n span the invariant subring.
    """
    basis = monomial_basis(n, d, with_y=False)
    family = "c" if flavor == "BC" else "b"
    # invariants = kernel of f -> (s_i f - f)_i over the degree-d piece
    mat = []
    for key in basis:
        m = GammaElement(family, {key: D_ONE})
        row: list = []
        for i in gen_indices(n, flavor):
            row.extend(to_vector(act_generator(i, m) - m, basis))
        mat.append(row)
    dim_inv = len(basis) - exact_rank(mat)
    span_vecs = [to_vector(t, basis) for t in _theta_family(n, d, flavor)]
    return dim_inv, exact_rank(span_vecs)


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
    fam = "c" if flavor == "BC" else "b"
    for w in quotient_elements(flavor, n, d):
        if w.support <= n:
            continue
        lw = w.length()
        cs = sch.schubert_restricted(w, n, flavor)
        for ytotal in [d - lw]:
            for yk in compositions(ytotal, n):
                ykey = tuple(yk)
                while ykey and ykey[-1] == 0:
                    ykey = ykey[:-1]
                m = GammaElement(fam, {((), (), ykey): D_ONE})
                vecs.append(to_vector(m * cs, basis))
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
        vecs = ideal_piece_vectors(gens, n, d, False, basis)
        out.append(len(basis) - exact_rank(vecs))
    return out


def weyl_length_histogram(n: int, flavor: str) -> list[int]:
    hist: dict[int, int] = {}
    for w in enumerate_group("W" if flavor == "BC" else "Wtilde", n):
        hist[w.length()] = hist.get(w.length(), 0) + 1
    return [hist.get(i, 0) for i in range(max(hist) + 1)]


def supersym_congruence(n: int, p: int | None = None, lam=None) -> dict:
    """Membership of c_p - (-1)^p e-hat_p (or Q_lambda - (-1)^|lambda|
    Qtilde_lambda(X_n/Y_n)) in the double generator ideal."""
    if lam is None:
        v = GammaElement.generator(p, "c") - GammaElement.from_poly(
            supersym_e(p, n)
        ) * ((-1) ** (p % 2))
        d = p
    else:
        lam = tuple(lam)
        v = raising.schur_q(lam) - GammaElement.from_poly(
            raising.qtilde_super(lam, n)
        ) * ((-1) ** (sum(lam) % 2))
        d = sum(lam)
    v = v.restrict_vars(n)
    basis = monomial_basis(n, d, with_y=True)
    gens = generator_set("gamma-hat", n, d)
    vecs = ideal_piece_vectors(gens, n, d, True, basis)
    ok = in_span(vecs, to_vector(v, basis)) if v else True
    return {"degree": d, "member": ok}


# ---------------------------------------------------------------------------
# free modules and dual bases
# ---------------------------------------------------------------------------


def staircase_exponents(n: int) -> list[tuple[int, ...]]:
    """x-exponent vectors with 0 <= alpha_i <= n - i."""
    ranges = [range(0, n - i + 1) for i in range(1, n + 1)]
    out = [()]
    for r in ranges:
        out = [t + (v,) for t in out for v in r]
    return out


def _module_basis_elements(n: int, flavor: str) -> list[tuple[int, GammaElement]]:
    """The free-module basis e_lambda(-X_n) x^alpha over the invariant ring."""
    fam = "c" if flavor == "BC" else "b"
    top = n if flavor == "BC" else n - 1
    lams = [
        lam
        for d in range(0, top * (top + 1) // 2 + 1)
        for lam in strict_partitions_of(d)
        if all(p <= top for p in lam)
    ]
    out = []
    for lam in lams:
        e = GammaElement.const(1, fam)
        for p in lam:
            e = e * GammaElement.from_poly(elem_sym(n, p, "x"), fam).negate_x()
        for alpha in staircase_exponents(n):
            mono = GammaElement.monomial(xk=alpha, family=fam)
            g = e * mono
            out.append((g.degree(), g))
    return out


def free_module_certificate(n: int, flavor: str = "BC", max_d: int = 6) -> dict:
    """Degree-by-degree check that the staircase basis is free and spanning
    over the invariant subring."""
    mod_basis = _module_basis_elements(n, flavor)
    expected = (2**n if flavor == "BC" else 2 ** (n - 1)) * factorial(n)
    report = {"cardinality": len(mod_basis), "expected": expected, "degrees": {}}
    for d in range(max_d + 1):
        basis = monomial_basis(n, d, with_y=False)
        vecs = []
        count = 0
        for gdeg, g in mod_basis:
            if gdeg > d:
                continue
            for inv in _theta_family(n, d - gdeg, flavor):
                vecs.append(to_vector(inv * g, basis))
                count += 1
        rank = exact_rank(vecs)
        report["degrees"][d] = {
            "ambient_dim": len(basis),
            "family_size": count,
            "rank": rank,
            "ok": rank == count == len(basis),
        }
    report["ok"] = report["cardinality"] == expected and all(
        v["ok"] for v in report["degrees"].values()
    )
    return report


def dual_basis_orthogonality(n: int, flavor: str = "BC") -> dict:
    """The full orthogonality matrix of the product basis against its stated
    dual, under the longest-element scalar product."""
    fam = "c" if flavor == "BC" else "b"
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
    failures = []
    for lam in lams:
        for u in perms:
            if flavor == "BC":
                qa = GammaElement.from_poly(raising.qtilde(lam, n, signed=True), fam)
            else:
                qa = GammaElement.from_poly(raising.ptilde(lam, n, signed=True), fam)
            f = qa * sch.schubert_poly(u.with_flavor("A"), "A", double=False).with_family(fam)
            for mu in lams:
                comp = tuple(sorted((set(delta) - set(mu)), reverse=True))
                if len(mu) + len(comp) != top or set(mu) | set(comp) != set(delta):
                    continue
                for up in perms:
                    if flavor == "BC":
                        qb = GammaElement.from_poly(
                            raising.qtilde(comp, n, signed=True), fam
                        )
                    else:
                        qb = GammaElement.from_poly(
                            raising.ptilde(comp, n, signed=True), fam
                        )
                    a2 = sch.schubert_poly(
                        (up * p0).with_flavor("A"), "A", double=False
                    ).with_family(fam)
                    g = qb * a2.negate_x().permute_x(p0)
                    val = sch.scalar_product(f, g, n, flavor, "full")
                    expected = (
                        GammaElement.const(1, fam)
                        if (u == up and lam == mu)
                        else GammaElement.zero(fam)
                    )
                    if val != expected:
                        failures.append((lam, u.window, mu, up.window))
    return {"failures": failures, "ok": not failures}


def parabolic_invariants(n: int, aset, flavor: str = "BC", max_length: int = 4) -> dict:
    """Descent characterization of parabolic invariance: the restricted
    Schubert polynomial is W_P-invariant iff no generator outside the
    parabolic index set descends it."""
    aset = set(aset)
    if flavor == "D":
        assert 1 not in aset, "the level-1 node is excluded in type D"
    free = [i for i in gen_indices(n, flavor) if i not in aset]
    failures = []
    for w in quotient_elements(flavor, n, max_length):
        cs = sch.schubert_restricted(w, n, flavor)
        inv = all(act_generator(i, cs) == cs for i in free)
        expected = all(not w.has_descent(i) for i in free)
        if inv != expected:
            failures.append(w.window)
    return {"failures": failures, "ok": not failures}
