import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from schubring import invariants
from schubring.polyring import Dyadic, elem_sym
from schubring.gammaring import (
    GammaElement,
    act_generator,
    btilde,
    level_b,
    level_b_prime,
    level_c,
    level_c_double,
)
from schubring.invariants import (
    check_invariance,
    dual_basis_orthogonality,
    exact_rank,
    free_module_certificate,
    generator_set,
    ideal_piece_vectors,
    in_span,
    invariant_basis_rank,
    kernel_span_equality,
    monomial_basis,
    parabolic_invariants,
    quotient_hilbert_series,
    spans_equal,
    strict_partitions_of,
    supersym_congruence,
    to_vector,
    weyl_length_histogram,
)
from schubring.schubert import divided_difference, schubert_restricted
from schubring.raising import theta
from schubring.weyl import SignedPermutation, quotient_elements


def test_exact_rank():
    from fractions import Fraction as F

    rows = [[F(1), F(2)], [F(2), F(4)], [F(0), F(1)]]
    assert exact_rank(rows) == 2
    assert in_span([[F(1), F(0)], [F(0), F(1)]], [F(3), F(7)])
    assert not in_span([[F(1), F(0)]], [F(0), F(1)])


def _dense_rank(rows) -> int:
    """Reference rank over Q: textbook Gauss-Jordan elimination on dense
    Fraction rows, sharing no code with schubring.invariants."""
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col] / mat[rank][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


_NONZERO = [Fraction(p, q) for p in (-3, -1, 1, 2, 5) for q in (1, 2, 3, 4, 7, 8, 15)]
_ENTRIES = [Fraction(0)] * 6 + _NONZERO


def _combination(rng, rows, cols):
    return [sum((rng.choice(_NONZERO) * r[j] for r in rows), Fraction(0)) for j in range(cols)]


def _random_rows(rng, count, cols):
    """Rows with dyadic and odd denominators; some are zero, and some are
    combinations of earlier rows, so the matrix is often rank-deficient."""
    rows = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.15:
            rows.append([Fraction(0)] * cols)
        elif kind < 0.5 and rows:
            rows.append(_combination(rng, rng.sample(rows, min(len(rows), 3)), cols))
        else:
            rows.append([rng.choice(_ENTRIES) for _ in range(cols)])
    return rows


def test_linear_algebra_matches_dense_reference():
    for seed in range(1200):
        rng = random.Random(seed)
        cols = rng.randint(0, 7)
        a = _random_rows(rng, rng.randint(0, 7), cols)
        if a and rng.random() < 0.4:
            # spans the same space as a when the combinations keep the rank
            b = [_combination(rng, a, cols) for _ in range(len(a) + 1)]
        else:
            b = _random_rows(rng, rng.randint(0, 7), cols)
        if rng.random() < 0.5:
            target = _combination(rng, a, cols)
        else:
            target = _random_rows(rng, 1, cols)[0]
        ra, rb = _dense_rank(a), _dense_rank(b)
        assert exact_rank(a) == ra, seed
        assert in_span(a, target) == (_dense_rank(a + [target]) == ra), seed
        assert spans_equal(a, b) == (ra == rb == _dense_rank(a + b)), seed


def test_monomial_basis_sizes():
    # degree-2 piece of the level-2 single-variable ring: c2, c1x, x^2 shapes
    basis = monomial_basis(2, 2, with_y=False)
    # partitions: (2),(1)x{x1,x2},(), x-monomials of degree 2: 3 of them
    assert len(basis) == 1 + 2 + 3


def test_check_invariance():
    assert check_invariance(level_c(2, 1), 2, "BC")
    assert check_invariance(level_c(2, 3), 2, "BC")
    assert not check_invariance(GammaElement.monomial(xk=(1,)), 2, "BC")
    assert check_invariance(level_b(2, 2), 2, "D")
    assert check_invariance(level_b_prime(2), 2, "D")
    for lam in [(1,), (2,), (2, 1), (3, 1)]:
        assert check_invariance(theta(2, lam), 2, "BC"), lam


def test_invariant_ranks_match_theta_span():
    for d in range(0, 5):
        a, b = invariant_basis_rank(2, d, "BC")
        assert a == b, d
    for d in range(0, 4):
        a, b = invariant_basis_rank(2, d, "D")
        assert a == b, d


def test_kernel_span_equality_small():
    rep = kernel_span_equality(2, 1, "BC")
    assert rep["equal"] and rep["ideal_dim"] == 1
    for d in (2, 3):
        assert kernel_span_equality(2, d, "BC")["equal"], d
    assert kernel_span_equality(2, 1, "D")["equal"]
    assert kernel_span_equality(2, 2, "D")["equal"]


@pytest.mark.parametrize("flavor", ["BC", "D"])
def test_kernel_span_equality_rank4(flavor):
    # the Schubert span needs elements of support up to n + d
    for d in (1, 2, 3, 4):
        assert kernel_span_equality(4, d, flavor)["equal"], d


@pytest.mark.parametrize("flavor", ["BC", "D"])
@pytest.mark.parametrize("dropped", [0, 1, 2])
def test_kernel_span_equality_needs_every_generator(flavor, dropped, monkeypatch):
    # without one of its first generators the ideal is a proper part of the kernel
    full = invariants.generator_set

    def without_one(tag, n, max_degree):
        gens = full(tag, n, max_degree)
        els = gens.elements[:dropped] + gens.elements[dropped + 1:]
        return invariants.GeneratorSet(gens.tag, gens.n, els)

    monkeypatch.setattr(invariants, "generator_set", without_one)
    assert not kernel_span_equality(2, 3, flavor)["equal"]


def test_double_generator_lies_in_schubert_span():
    # {}^n c^n_p equals a restricted Schubert polynomial above the finite group
    from schubring.weyl import SignedPermutation

    for n in (1, 2):
        for p in (1, 2, 3):
            w = SignedPermutation((), "BC")
            for i in range(n, n + p):
                w = w.right_mul_gen(i)
            cs = schubert_restricted(w, n, "BC")
            assert cs == level_c_double(n, p), (n, p)


def test_hilbert_series_match_length_histograms():
    for flavor in ("BC", "D"):
        hist = weyl_length_histogram(2, flavor)
        hs = quotient_hilbert_series(2, flavor, len(hist) - 1)
        assert hs == hist, flavor


def test_supersym_congruences():
    assert supersym_congruence(2, p=0)["member"]
    assert supersym_congruence(2, p=1)["member"]
    assert supersym_congruence(2, p=2)["member"]
    assert supersym_congruence(2, lam=(2, 1))["member"]


def test_free_module_certificates():
    rep = free_module_certificate(2, "BC", max_d=4)
    assert rep["cardinality"] == 8 and rep["ok"]
    rep = free_module_certificate(2, "D", max_d=4)
    assert rep["cardinality"] == 4 and rep["ok"]


def test_dual_basis_orthogonality():
    assert dual_basis_orthogonality(2, "BC")["ok"]
    assert dual_basis_orthogonality(2, "D")["ok"]


def test_parabolic_invariance():
    # Borel case is vacuous, proper parabolic exercises the sign node
    assert parabolic_invariants(2, (0, 1), "BC")["ok"]
    assert parabolic_invariants(2, (1,), "BC")["ok"]
    assert parabolic_invariants(2, (0,), "D")["ok"]
    with pytest.raises(AssertionError):
        parabolic_invariants(2, (1,), "D")


def test_level_dictionary_and_slices():
    # {}^n b_n - {}^n b'_n = e_n and the squared-variable slice ranks
    for n in (2, 3):
        assert level_b(n, n) - level_b_prime(n) == GammaElement.from_poly(elem_sym(n, n, "x"))
    # degree-2 x-only slice of the level-2 invariants: e_1(X^2) spans in C,
    # e_2(X) joins it in D
    n = 2
    basis = monomial_basis(n, 2, with_y=False)
    e1sq = GammaElement.from_poly(
        elem_sym(n, 1, "x").__class__(
            {(tuple(2 * e for e in xk), yk): c
             for (xk, yk), c in elem_sym(n, 1, "x").terms.items()}
        )
    )
    e2 = GammaElement.from_poly(elem_sym(n, 2, "x"))
    thetas = [to_vector(theta(n, lam), basis) for lam in [(2,), (1, 1)]]
    assert in_span(thetas, to_vector(e1sq, basis))
    assert not in_span(thetas, to_vector(e2, basis))
    # the D-side picks up e_n(X_n)
    from schubring.raising import eta
    from schubring.weyl import TypedPartition

    etas = [
        to_vector(eta(n, TypedPartition(parts, n, t)), basis)
        for parts, t in [((2,), 1), ((2,), 2), ((1, 1), 0)]
    ]
    assert in_span(etas, to_vector(e2, basis))
    assert in_span(etas, to_vector(e1sq, basis))


def test_partial_stability_of_double_generators():
    for n in (2, 3):
        for p in (1, 2, 3):
            for i in range(0, n):
                assert not divided_difference(i, level_c_double(n, p)), (n, p, i)
        for i in range(1, n):
            assert not divided_difference(i, btilde(n)), (n, i)
        # the branch-node image of btilde is nonzero but stays in the ideal
        v = divided_difference(0, btilde(n), flavor="D")
        assert v
        d = n - 1
        basis = monomial_basis(n, d, with_y=True)
        gens = generator_set("B-hat", n, d)
        vecs = ideal_piece_vectors(gens, n, d, True, basis)
        assert in_span(vecs, to_vector(v.restrict_vars(n), basis)), n


def _dense_primitive(vec):
    """Reference: the primitive integer multiple of a Fraction row, {column: int}."""
    den = lcm(*(v.denominator for v in vec if v))
    ints = {j: int(v * den) for j, v in enumerate(vec) if v}
    g = gcd(*ints.values())
    return {j: v // g for j, v in ints.items()}


def test_integer_rows_bring_elements_to_one_power_of_two():
    # elements laid side by side in one row: each numerator is shifted to
    # the row's common power of two before the content is divided out
    basis = monomial_basis(2, 2, with_y=True)
    rng = random.Random("rows")
    for _ in range(200):
        parts = []
        for _ in range(rng.randint(1, 3)):
            keys = rng.sample(basis, rng.randint(0, 4))
            parts.append(GammaElement({k: Dyadic(rng.choice([-3, -1, 1, 2, 6]), rng.randint(0, 3)) for k in keys}))
        dense = [c for f in parts for c in to_vector(f, basis)]
        assert invariants._row(parts, basis) == _dense_primitive(dense)


def _dense_invariant_ranks(n, d, flavor):
    """invariant_basis_rank from dense Fraction rows and the reference rank."""
    basis = monomial_basis(n, d, with_y=False)
    mat = []
    for key in basis:
        m = GammaElement({key: Dyadic(1)})
        mat.append([c for i in invariants.gen_indices(n, flavor) for c in to_vector(act_generator(i, m, flavor) - m, basis)])
    thetas = [to_vector(t, basis) for t in invariants._theta_family(n, d, flavor)]
    return len(basis) - _dense_rank(mat), _dense_rank(thetas)


def _dense_kernel_report(n, d, flavor):
    """kernel_span_equality from dense Fraction rows and the reference rank."""
    basis = monomial_basis(n, d, with_y=True)
    gens = generator_set("gamma-hat" if flavor == "BC" else "B-hat", n, d)
    ideal = [
        to_vector(GammaElement({key: Dyadic(1)}) * g, basis)
        for gdeg, g in gens.elements
        if gdeg <= d
        for key in monomial_basis(n, d - gdeg, True)
    ]
    schub = [
        to_vector(GammaElement({key: Dyadic(1)}) * schubert_restricted(w, n, flavor), basis)
        for w in quotient_elements(flavor, n, d)
        if w.support > n
        for key in monomial_basis(n, d - w.length(), True)
        if not key[0] and not key[1]
    ]
    ri, rs = _dense_rank(ideal), _dense_rank(schub)
    return {"degree": d, "ideal_dim": ri, "schubert_dim": rs, "equal": ri == rs == _dense_rank(ideal + schub)}


@pytest.mark.parametrize("flavor", ["BC", "D"])
def test_integer_rows_match_dense_reference(flavor):
    for d in range(0, 5):
        assert invariant_basis_rank(2, d, flavor) == _dense_invariant_ranks(2, d, flavor), d
        assert kernel_span_equality(2, d, flavor) == _dense_kernel_report(2, d, flavor), d
