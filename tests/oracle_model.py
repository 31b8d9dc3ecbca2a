"""Ring maps and divided differences of the power-sum oracle model.

An element of the model is a canonical pair ({(lam, xk, yk): int}, den), as
returned by ``verify.oracle_embed``: lam is a decreasing tuple of odd
power-sum indices, x and y are unchanged, and the element is the numerators
over den, with den > 0 and coprime to every numerator, so equal pairs are
equal elements.  The model applies no relation, so these helpers share no
code with the normal form, the Weyl action or the divided differences of
``schubring`` that the tests check against them.
"""

from math import gcd


def _vadd(u, v):
    w = [0] * max(len(u), len(v))
    for t in (u, v):
        for i, e in enumerate(t):
            w[i] += e
    while w and not w[-1]:
        w.pop()
    return tuple(w)


def _add(out, key, c):
    s = out.get(key, 0) + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def _canonical(nums, den):
    """The pair of nums over den (> 0), reduced so that den is coprime to
    every numerator."""
    g = gcd(den, *nums.values())
    return {k: c // g for k, c in nums.items()}, den // g


def _mul(a, b):
    """Product of two numerator dicts."""
    out = {}
    for (l1, x1, y1), c1 in a.items():
        for (l2, x2, y2), c2 in b.items():
            k = (tuple(sorted(l1 + l2, reverse=True)), _vadd(x1, x2), _vadd(y1, y2))
            _add(out, k, c1 * c2)
    return out


def oracle_mul(a, b):
    """Product in the oracle model Q[p_1, p_3, ...][x, y]: the numerators
    multiply and so do the denominators."""
    return _canonical(_mul(a[0], b[0]), a[1] * b[1])


def oracle_index0(image, flavor):
    """The index-0 reflection as a ring map of the oracle model: s_0 is
    p_k -> p_k + x_1^k, x_1 -> -x_1; the branch node is
    p_k -> p_k + x_1^k + x_2^k, (x_1, x_2) -> (-x_2, -x_1)."""
    return _canonical(_index0(image[0], flavor), image[1])


def _index0(nums, flavor):
    """oracle_index0 on a numerator dict."""
    out = {}
    for (lam, xk, yk), c in nums.items():
        a = tuple(xk) + (0, 0)
        if flavor == "BC":
            piece = {((), xk, yk): c * (-1) ** a[0]}
        else:
            moved = list((a[1], a[0]) + a[2:])
            while moved and not moved[-1]:
                moved.pop()
            piece = {((), tuple(moved), yk): c * (-1) ** (a[0] + a[1])}
        for k in lam:
            pk = {((k,), (), ()): 1, ((), (k,), ()): 1}
            if flavor == "D":
                pk[((), (0, k), ())] = 1
            piece = _mul(piece, pk)
        for key, v in piece.items():
            _add(out, key, v)
    return out


def _swap(nums, i):
    """x_i <-> x_{i+1}, a ring map that fixes every power sum."""
    out = {}
    for (lam, xk, yk), c in nums.items():
        a = list(xk) + [0] * max(0, i + 1 - len(xk))
        a[i - 1], a[i] = a[i], a[i - 1]
        _add(out, (lam, _vadd(a, ()), yk), c)
    return out


def _divide_linear(g, i, t):
    """g / (x_i - t x_{i+1}) for t = +-1, or None when it does not divide.

    Term by term, x_i^k = (x_i - t x_{i+1}) sum_{j<k} x_i^j (t x_{i+1})^{k-1-j}
    + (t x_{i+1})^k, and the remainders must cancel."""
    quo, rem = {}, {}
    for (lam, xk, yk), c in g.items():
        a = list(xk) + [0] * max(0, i + 1 - len(xk))
        k, a[i - 1] = a[i - 1], 0
        for j in range(k):
            b = list(a)
            b[i - 1], b[i] = j, a[i] + k - 1 - j
            _add(quo, (lam, _vadd(b, ()), yk), c * t ** (k - 1 - j))
        b = list(a)
        b[i] += k
        _add(rem, (lam, _vadd(b, ()), yk), c * t**k)
    return None if rem else quo


def oracle_divided_difference(image, i, flavor):
    """(f - s_i f) divided by x_i - x_{i+1} (i >= 1), by -2 x_1 (index 0,
    flavor BC) or by -(x_1 + x_2) (index 0, flavor D), in the model; the
    division by -2 doubles the denominator."""
    nums, den = image
    moved = _swap(nums, i) if i else _index0(nums, flavor)
    g = dict(nums)
    for key, c in moved.items():
        _add(g, key, -c)
    if i:
        q = _divide_linear(g, i, 1)
        return None if q is None else _canonical(q, den)
    if flavor == "D":
        q = _divide_linear(g, 1, -1)
        return None if q is None else _canonical({k: -c for k, c in q.items()}, den)
    if any(not xk or xk[0] < 1 for _, xk, _ in g):
        return None
    return _canonical({(lam, _vadd((xk[0] - 1,) + xk[1:], ()), yk): -c for (lam, xk, yk), c in g.items()},
                      2 * den)
