"""Statements of the paper, and helpers, that only the tests check: no
``schubring verify`` suite reaches them, so they live beside the tests
rather than in the package.

The statements are the supersymmetric congruences of the double generator
ideal, the free-module certificate of the staircase basis over the
invariant subring, and the descent characterization of parabolic
invariance.  The helpers are invariance and span predicates, the
supersymmetric elementary functions, the supersymmetric Qtilde
polynomials, and the increasing element of a strict partition.
"""

from math import factorial

from schubring.polyring import SparsePoly, complete_sym, elem_sym
from schubring.gammaring import GammaElement, act_generator
from schubring.weyl import SignedPermutation, quotient_elements
from schubring.raising import expand, rr_expression
from schubring.invariants import _primitive_row, _reduce, _row, _same_span, echelon
from schubring.kernel import (
    _theta_family,
    gen_indices,
    generator_set,
    ideal_piece_vectors,
    monomial_basis,
    poly_entry_family,
    schubert_restricted,
    schur_q,
    strict_partitions_of,
)


def supersym_e(p: int, n: int) -> SparsePoly:
    """The supersymmetric elementary function sum_{i+j=p} e_i(X_n) h_j(-Y_n)."""
    if p < 0:
        return SparsePoly.zero()
    out = SparsePoly.zero()
    for i in range(0, p + 1):
        ei = elem_sym(n, i, "x")
        if not ei and i > 0:
            continue
        out = out + ei * complete_sym(n, p - i, "-y")
    return out


def qtilde_super(lam, n: int) -> GammaElement:
    """The supersymmetric variant of Qtilde, built from the entries
    e-hat_a(X_n/Y_n)."""
    lam = tuple(lam)
    if not lam:
        return GammaElement.const(1)
    entry = poly_entry_family(lambda a: supersym_e(a, n))
    return expand(rr_expression(len(lam)), entry, lam)


def strict_partition_element(lam: tuple[int, ...], flavor: str) -> SignedPermutation:
    """The increasing element whose barred entries encode the strict partition.

    Flavor BC: barred entries are exactly -lam_i.  Flavor D: barred entries
    are -(lam_i + 1), together with -1 if needed to make their number even.
    """
    assert all(lam[i] > lam[i + 1] for i in range(len(lam) - 1)) and all(
        p > 0 for p in lam
    )
    if flavor == "BC":
        negs = [-p for p in lam]
    else:
        negs = [-(p + 1) for p in lam]
        if len(negs) % 2 == 1:
            negs.append(-1)
    negs.sort()
    used = {-a for a in negs}
    m = max((max(used, default=0), len(negs)))
    pos = [i for i in range(1, m + 1) if i not in used]
    return SignedPermutation(tuple(negs + pos), flavor)


def spans_equal(avecs: list, bvecs: list) -> bool:
    return _same_span(echelon(map(_primitive_row, avecs)), echelon(map(_primitive_row, bvecs)))


def in_span(vectors: list, target: list) -> bool:
    return not _reduce(_primitive_row(target), echelon(map(_primitive_row, vectors)))


def check_invariance(f: GammaElement, n: int, flavor: str = "BC") -> bool:
    return all(act_generator(i, f, flavor) == f for i in gen_indices(n, flavor))


def supersym_congruence(n: int, p: int | None = None, lam=None) -> dict:
    """Membership of c_p - (-1)^p e-hat_p (or Q_lambda - (-1)^|lambda|
    Qtilde_lambda(X_n/Y_n)) in the double generator ideal."""
    if lam is None:
        v = GammaElement.generator(p) - GammaElement.from_poly(
            supersym_e(p, n)
        ) * ((-1) ** (p % 2))
        d = p
    else:
        lam = tuple(lam)
        v = schur_q(lam) - qtilde_super(lam, n) * ((-1) ** (sum(lam) % 2))
        d = sum(lam)
    v = v.restrict_vars(n)
    basis = monomial_basis(n, d, with_y=True)
    gens = generator_set("gamma-hat", n, d)
    ok = not _reduce(_row((v,), basis), echelon(ideal_piece_vectors(gens, n, d, True, basis)))
    return {"degree": d, "member": ok}


def staircase_exponents(n: int) -> list[tuple[int, ...]]:
    """x-exponent vectors with 0 <= alpha_i <= n - i."""
    ranges = [range(0, n - i + 1) for i in range(1, n + 1)]
    out = [()]
    for r in ranges:
        out = [t + (v,) for t in out for v in r]
    return out


def _module_basis_elements(n: int, flavor: str) -> list[tuple[int, GammaElement]]:
    """The free-module basis e_lambda(-X_n) x^alpha over the invariant ring."""
    top = n if flavor == "BC" else n - 1
    lams = [
        lam
        for d in range(0, top * (top + 1) // 2 + 1)
        for lam in strict_partitions_of(d)
        if all(p <= top for p in lam)
    ]
    out = []
    for lam in lams:
        e = GammaElement.const(1)
        for p in lam:
            e = e * GammaElement.from_poly(elem_sym(n, p, "x")).negate_x()
        for alpha in staircase_exponents(n):
            mono = GammaElement.monomial(xk=alpha)
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
        vecs = [
            _row((inv * g,), basis)
            for gdeg, g in mod_basis
            if gdeg <= d
            for inv in _theta_family(n, d - gdeg, flavor)
        ]
        count, rank = len(vecs), len(echelon(vecs))
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
        cs = schubert_restricted(w, n, flavor)
        inv = all(act_generator(i, cs, flavor) == cs for i in free)
        expected = all(not w.has_descent(i) for i in free)
        if inv != expected:
            failures.append(w.window)
    return {"failures": failures, "ok": not failures}
