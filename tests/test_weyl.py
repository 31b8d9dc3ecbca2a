import itertools
import random

import pytest

from schubring.weyl import (
    SignedPermutation,
    TypedPartition,
    a_code,
    enumerate_grassmannian,
    enumerate_group,
    grassmannian_element,
    grassmannian_shape,
    is_grassmannian,
    quotient_elements,
    shape,
    strict_partition_element,
    transition_data,
)

S = SignedPermutation
W_EXAMPLE = (-3, 2, -7, -1, 5, 4, -6)


def test_shape_bc_worked_example():
    sh = shape(S(W_EXAMPLE, "BC"))
    assert sh.mu == (7, 6, 3, 1)
    assert sh.gamma == (2, 3, 0, 1, 2, 1, 0)
    assert sh.delta == (3, 2, 2, 1, 1)
    assert sh.nu == (5, 3, 1)
    assert sh.lam == (12, 9, 4, 1)


def test_shape_d_worked_example():
    sh = shape(S(W_EXAMPLE, "D"))
    assert sh.mu == (6, 5, 2)
    assert sh.nu == (5, 3, 1)
    assert sh.lam == (11, 8, 3)


def test_lengths_match_shapes():
    assert S(W_EXAMPLE, "BC").length() == 26
    assert S(W_EXAMPLE, "D").length() == 22
    assert S((), "BC").length() == 0
    for flavor, kind, n in (("BC", "W", 3), ("D", "Wtilde", 3)):
        for w in enumerate_group(kind, n):
            assert sum(shape(w).lam) == w.length()


def test_identity_shape_empty():
    sh = shape(S((), "BC"))
    assert sh.mu == () and sh.gamma == () and sh.lam == ()


def test_window_trimming_and_equality():
    assert S((2, 1, 3, 4), "BC") == S((2, 1), "BC")
    assert S((1, 2, 3), "BC").is_identity()


def test_flavor_invariants():
    with pytest.raises(ValueError):
        S((-1, 2), "A")
    with pytest.raises(ValueError):
        S((-1, 2), "D")  # odd number of bars
    S((-2, -1), "D")


def test_reflections():
    assert S((-1, 2), "BC").apply_reflection("tbar", 1, 2) == S((-2, 1), "BC")
    w = S((3, -1, 2), "BC")
    assert w.apply_reflection("t", 1, 3).apply_reflection("t", 1, 3) == w
    assert S((1,), "BC").apply_reflection("tbar", 1, 1) == S((-1,), "BC")
    with pytest.raises(ValueError):
        S((-2, -1), "D").apply_reflection("tbar", 1, 1)


def test_products_and_inverses():
    rng = random.Random(5)
    els = enumerate_group("W", 3)
    for _ in range(40):
        u, v, w = rng.choice(els), rng.choice(els), rng.choice(els)
        assert (u * v) * w == u * (v * w)
        assert u * u.inverse() == S((), "BC")
        luv = (u * v).length()
        assert luv <= u.length() + v.length()
        assert (luv - u.length() - v.length()) % 2 == 0


def test_reduced_words():
    for w in enumerate_group("Wtilde", 3):
        word = w.reduced_word()
        acc = S((), "D")
        for i in word:
            acc = acc.right_mul_gen(i)
        assert acc == w and len(word) == w.length()


def test_a_code_recursion():
    # gamma_i > gamma_{i+1} iff w_i > w_{i+1}, and the swap-decrement rule
    for w in enumerate_group("W", 3):
        g = a_code(w)
        gg = g + (0,) * 6
        for i in range(1, 3):
            assert (gg[i - 1] > gg[i]) == (w(i) > w(i + 1))
            if gg[i - 1] > gg[i]:
                ws = w.right_mul_gen(i)
                expect = list(gg[:4])
                expect[i - 1], expect[i] = gg[i], gg[i - 1] - 1
                got = list(a_code(ws)) + [0] * 4
                assert got[:4] == expect[:4], (w.window, i)


def test_enumerate_counts():
    assert len(enumerate_group("W", 2)) == 8
    assert len(enumerate_group("Wtilde", 2)) == 4
    assert len(enumerate_group("S", 3)) == 6
    hist = {}
    for w in enumerate_group("W", 2):
        hist[w.length()] = hist.get(w.length(), 0) + 1
    assert [hist.get(i, 0) for i in range(5)] == [1, 2, 2, 2, 1]
    # deterministic order: by length then window
    ws = enumerate_group("W", 2)
    assert ws == sorted(ws, key=lambda w: (w.length(), w.window))


def _quotient_by_brute_force(flavor, n, max_length):
    # every element of W^(n) of length <= L has support <= n + L + 1
    k = n + max_length + 1
    out = []
    for perm in itertools.permutations(range(1, k + 1)):
        for signs in itertools.product((1, -1), repeat=k):
            if flavor == "D" and signs.count(-1) % 2:
                continue
            w = S(tuple(s * p for s, p in zip(signs, perm)), flavor)
            if w.length() <= max_length and all(w(i) < w(i + 1) for i in range(n + 1, k)):
                out.append(w)
    return sorted(out, key=lambda w: (w.length(), w.window))


def test_truncated_quotient_enumeration():
    for flavor in ("BC", "D"):
        for n in range(5):
            for max_length in range(5 - n):
                got = list(quotient_elements(flavor, n, max_length))
                assert got == _quotient_by_brute_force(flavor, n, max_length), (flavor, n, max_length)
    # type D reaches support n + L + 1
    assert S((-4, -1, 2, 3), "D") in quotient_elements("D", 0, 3)


def test_grassmannian_growth_matches_quotient_filter():
    # growing only n-Grassmannian elements finds exactly the n-Grassmannian
    # members of the quotient, in the same (length, window) order
    for flavor in ("BC", "D"):
        for n in range(5):
            max_length = 7 if n == 4 else 8
            expected = [w for w in quotient_elements(flavor, n, max_length) if is_grassmannian(w, n)]
            assert enumerate_grassmannian(n, flavor, max_length) == expected, (flavor, n)


def test_grassmannian_correspondence_roundtrip():
    for n, flavor in ((1, "BC"), (2, "BC"), (2, "D")):
        for w in enumerate_grassmannian(n, flavor, 4):
            lam = grassmannian_shape(w, n)
            assert grassmannian_element(lam, n, flavor) == w


def test_grassmannian_single_row_family():
    # s_n s_{n+1} ... s_{n+p-1} corresponds to the one-row shape (p) at level n+p-1
    for n in (1, 2):
        for p in (1, 2, 3):
            w = S((), "BC")
            for i in range(n, n + p):
                w = w.right_mul_gen(i)
            level = n + p - 1
            assert is_grassmannian(w, level)
            assert grassmannian_shape(w, level) == (p,)


def test_typed_correspondence_example():
    v = S((-3, 4, -1, 2), "D")
    assert is_grassmannian(v, 2)
    t = grassmannian_shape(v, 2)
    assert t == TypedPartition((2, 2), 2, 2)
    assert shape(v).lam == (3, 1)
    assert grassmannian_element(t, 2, "D") == v


def test_typed_shape_mismatch_is_a_value_error():
    # at level 0 the type read from w(1) has no part equal to n to match
    with pytest.raises(ValueError):
        grassmannian_shape(S((-2, -1), "D"), 0)


def test_identity_corresponds_to_empty_shape():
    assert grassmannian_shape(S((), "BC"), 2) == ()
    assert grassmannian_element((), 2, "BC").is_identity()


def test_strict_partition_elements():
    assert strict_partition_element((2,), "BC") == S((-2, 1), "BC")
    assert strict_partition_element((1,), "D") == S((-2, -1), "D")
    w = strict_partition_element((3, 1), "D")
    assert shape(w).mu == (3, 1) and w.neg_count() % 2 == 0


def test_transition_data_example():
    t = transition_data(S((2, -1), "BC"))
    assert (t.r, t.s) == (1, 2)
    assert t.v == S((-1, 2), "BC")
    assert t.plain_branch == ()
    assert tuple(b.window for b in t.bar_branch) == ((-2, 1),)
    assert (t.y_sign, t.y_index) == (-1, 1)


def test_transition_terminal_raises():
    with pytest.raises(ValueError):
        transition_data(S((-2, 1), "BC"))


def test_transition_mu_monotone():
    # parts of mu grow along the barred branch
    for flavor, kind in (("BC", "W"), ("D", "Wtilde")):
        for w in enumerate_group(kind, 3):
            try:
                t = transition_data(w)
            except ValueError:
                continue
            base = shape(w).mu
            for b in t.bar_branch:
                mub = shape(b).mu
                assert len(mub) >= len(base)
                assert all(mub[i] >= base[i] for i in range(len(base)))
            for b in t.plain_branch:
                assert shape(b).mu == base
