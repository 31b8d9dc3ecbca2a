"""Signed permutation groups of types A, BC and D.

Elements are stored in one-line window notation as trimmed tuples of nonzero
integers (a negative entry is a barred letter).  Windows that differ only by
trailing fixed points denote the same group element, so every constructor
trims.  Generator indices are plain ints: for flavor ``BC`` index 0 is the
sign change s_0, for flavor ``D`` index 0 stands for the branch node
reflection (s_box = s_0 s_1 s_0); indices i >= 1 are the usual transpositions
in every flavor.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from ._record import Record


def _trim_window(window: tuple[int, ...]) -> tuple[int, ...]:
    k = len(window)
    while k and window[k - 1] == k:
        k -= 1
    return window[:k]


class SignedPermutation(Record):
    """A signed permutation in window notation, tagged with its flavor."""

    __slots__ = ("window", "flavor")

    def __init__(self, window: tuple[int, ...], flavor: str = "BC"):
        self.window = w = _trim_window(tuple(window))
        self.flavor = flavor
        if flavor not in ("A", "BC", "D"):
            raise ValueError(f"unknown flavor {flavor!r}")
        if sorted(abs(a) for a in w) != list(range(1, len(w) + 1)):
            raise ValueError(f"bad window {w}")
        if flavor == "A" and any(a < 0 for a in w):
            raise ValueError("type A windows have no barred entries")
        if flavor == "D" and sum(1 for a in w if a < 0) % 2:
            raise ValueError("type D needs evenly many bars")

    def __hash__(self):
        return hash((self.window, self.flavor))

    # -- basic structure ---------------------------------------------------

    def __call__(self, i: int) -> int:
        """Image of i (extended by w(-i) = -w(i) and fixed points beyond the window)."""
        if i < 0:
            return -self(-i)
        if i == 0 or i > len(self.window):
            return i
        return self.window[i - 1]

    @property
    def support(self) -> int:
        return len(self.window)

    def is_identity(self) -> bool:
        return not self.window

    @staticmethod
    def identity(flavor: str = "BC") -> "SignedPermutation":
        return SignedPermutation((), flavor)

    def with_flavor(self, flavor: str) -> "SignedPermutation":
        return SignedPermutation(self.window, flavor)

    # -- group operations ----------------------------------------------------

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        """Composition: (uv)(i) = u(v(i)); v acts first."""
        k = max(self.support, other.support)
        return SignedPermutation(tuple(self(other(i)) for i in range(1, k + 1)), self.flavor)

    def inverse(self) -> "SignedPermutation":
        k = self.support
        inv = [0] * k
        for i in range(1, k + 1):
            v = self.window[i - 1]
            inv[abs(v) - 1] = i if v > 0 else -i
        return SignedPermutation(tuple(inv), self.flavor)

    def neg_count(self) -> int:
        """s(w): the number of barred window entries."""
        return sum(1 for a in self.window if a < 0)

    def length(self) -> int:
        """Coxeter length for the flavor's generating set."""
        w = self.window
        inv = sum(
            1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j]
        )
        if self.flavor == "A":
            return inv
        if self.flavor == "BC":
            return inv + sum(-a for a in w if a < 0)
        return inv + sum(-a - 1 for a in w if a < 0)

    # -- generators and descents -------------------------------------------

    def right_mul_gen(self, i: int) -> "SignedPermutation":
        """w * s_i in window notation."""
        if i == 0:
            if self.flavor == "BC":
                w = list(self.window) if self.window else [1]
                w[0] = -w[0]
                return SignedPermutation(tuple(w), "BC")
            if self.flavor == "D":
                w = list(self.window)
                while len(w) < 2:
                    w.append(len(w) + 1)
                w[0], w[1] = -w[1], -w[0]
                return SignedPermutation(tuple(w), "D")
            raise ValueError("type A has no generator of index 0")
        w = list(self.window)
        while len(w) < i + 1:
            w.append(len(w) + 1)
        w[i - 1], w[i] = w[i], w[i - 1]
        return SignedPermutation(tuple(w), self.flavor)

    def left_mul_gen(self, i: int) -> "SignedPermutation":
        return (self.inverse().right_mul_gen(i)).inverse()

    def has_descent(self, i: int) -> bool:
        """Whether l(w s_i) < l(w)."""
        if i == 0:
            if self.flavor == "BC":
                return self(1) < 0
            if self.flavor == "D":
                return self(1) + self(2) < 0
            return False
        return self(i) > self(i + 1)

    def gen_indices(self, bound: int) -> list[int]:
        start = 1 if self.flavor == "A" else 0
        return list(range(start, bound + 1))

    def first_descent(self) -> int | None:
        for i in self.gen_indices(self.support):
            if self.has_descent(i):
                return i
        return None

    def reduced_word(self) -> tuple[int, ...]:
        """A reduced word (i_1, ..., i_l) with w = s_{i_1} ... s_{i_l},
        obtained by greedy descent stripping."""
        word: list[int] = []
        w = self
        while not w.is_identity():
            i = w.first_descent()
            assert i is not None
            w = w.right_mul_gen(i)
            word.append(i)
        word.reverse()
        assert len(word) == self.length()
        return tuple(word)

    # -- reflections ---------------------------------------------------------

    def apply_reflection(self, kind: str, i: int, j: int) -> "SignedPermutation":
        """Right action of t_ij ('t') or the barred reflections ('tbar').

        tbar with i == j negates the entry in position i and is rejected for
        flavor D.
        """
        assert 1 <= i <= j
        w = list(self.window)
        while len(w) < j:
            w.append(len(w) + 1)
        if kind == "t":
            assert i < j
            w[i - 1], w[j - 1] = w[j - 1], w[i - 1]
        elif kind == "tbar":
            if i == j:
                if self.flavor == "D":
                    raise ValueError("tbar_ii is not an element of the type D group")
                w[i - 1] = -w[i - 1]
            else:
                w[i - 1], w[j - 1] = -w[j - 1], -w[i - 1]
        else:
            raise ValueError(f"unknown reflection kind {kind!r}")
        return SignedPermutation(tuple(w), self.flavor)


# ---------------------------------------------------------------------------
# shapes and codes
# ---------------------------------------------------------------------------


class ShapeData(Record):
    """The statistics (mu, gamma, delta, nu, lambda) of a signed permutation."""

    __slots__ = ("mu", "gamma", "delta", "nu", "lam")

    def __init__(self, mu, gamma, delta, nu, lam):
        self.mu, self.gamma, self.delta, self.nu, self.lam = mu, gamma, delta, nu, lam


def conjugate_partition(parts: tuple[int, ...]) -> tuple[int, ...]:
    if not parts:
        return ()
    return tuple(
        sum(1 for p in parts if p >= k) for k in range(1, max(parts) + 1)
    )


def a_code(w: SignedPermutation) -> tuple[int, ...]:
    """gamma_i = #{j > i : w_j < w_i}, over the window."""
    k = w.support
    win = w.window
    return tuple(
        sum(1 for j in range(i + 1, k) if win[j] < win[i]) for i in range(k)
    )


def shape(w: SignedPermutation) -> ShapeData:
    """The strict partition mu, A-code gamma, and partitions delta, nu, lambda.

    For flavor BC, mu lists the absolute values of the barred entries; for
    flavor D it lists those absolute values minus one.
    """
    assert w.flavor in ("BC", "D")
    if w.flavor == "BC":
        mu = tuple(sorted((-a for a in w.window if a < 0), reverse=True))
    else:
        mu = tuple(
            sorted((-a - 1 for a in w.window if a < 0 and a != -1), reverse=True)
        )
    gamma = a_code(w)
    delta = tuple(sorted((g for g in gamma if g), reverse=True))
    nu = conjugate_partition(delta)
    k = max(len(mu), len(nu))
    lam = tuple(
        (mu[i] if i < len(mu) else 0) + (nu[i] if i < len(nu) else 0)
        for i in range(k)
    )
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    return ShapeData(mu, gamma, delta, nu, lam)


def is_increasing(w: SignedPermutation) -> bool:
    win = w.window
    return all(win[i] < win[i + 1] for i in range(len(win) - 1))


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


# ---------------------------------------------------------------------------
# Grassmannian elements and the partition correspondence
# ---------------------------------------------------------------------------


def is_grassmannian(w: SignedPermutation, n: int) -> bool:
    """Whether l(w s_i) > l(w) for every generator index i != n.

    For n = 0 this reduces to the window being increasing (the index-0
    generator carries the only allowed descent in both flavors).
    """
    if n == 0:
        return is_increasing(w)
    bound = max(w.support, n)
    for i in w.gen_indices(bound + 1):
        if i != n and w.has_descent(i):
            return False
    return True


def d_type(w: SignedPermutation) -> int:
    """Type of a D-flavor Grassmannian element: 0, 1 or 2 by the first entry."""
    w1 = w(1)
    if abs(w1) == 1:
        return 0
    return 1 if w1 > 1 else 2


def flip_first_sign(w: SignedPermutation) -> SignedPermutation:
    """Conjugation by the diagram automorphism: bar the first entry and the
    entry of absolute value 1."""
    win = list(w.window) or [1]
    win[0] = -win[0]
    for i, a in enumerate(win):
        if abs(a) == 1:
            win[i] = -a
    return SignedPermutation(tuple(win), w.flavor)


class TypedPartition(Record):
    """An n-strict partition with a type marker (type D bookkeeping)."""

    __slots__ = ("parts", "n", "ptype")

    def __init__(self, parts: tuple[int, ...], n: int, ptype: int = 0):
        self.parts, self.n, self.ptype = parts, n, ptype
        p = self.parts
        if any(p[i] < p[i + 1] for i in range(len(p) - 1)) or any(q <= 0 for q in p):
            raise ValueError(f"{p} is not a partition")
        big = [q for q in p if q > self.n]
        if len(big) != len(set(big)):
            raise ValueError("parts above n must be distinct")
        if self.ptype not in (0, 1, 2):
            raise ValueError(f"unknown type {self.ptype}")
        if self.ptype == 0 and self.n in p:
            raise ValueError("a part equal to n forces a nonzero type")
        if self.ptype != 0 and self.n not in p:
            raise ValueError("nonzero type requires a part equal to n")


def is_n_strict(lam: tuple[int, ...], n: int) -> bool:
    if not all(lam[i] >= lam[i + 1] > 0 for i in range(len(lam) - 1)):
        return False
    if lam and lam[-1] <= 0:
        return False
    big = [q for q in lam if q > n]
    return len(big) == len(set(big))


def grassmannian_shape(w: SignedPermutation, n: int):
    """Forward correspondence: the (typed) partition of an n-Grassmannian w."""
    assert is_grassmannian(w, n), f"{w.window} is not {n}-Grassmannian"
    if w.flavor == "BC":
        return shape(w).lam
    t = d_type(w)
    lam = shape(w).lam if t != 2 else shape(flip_first_sign(w)).lam
    # a nonzero element type always comes with a part equal to n and vice versa
    if (t != 0) != (n in lam):
        raise ValueError(f"{w.window} has type {t} but shape {lam} at level {n}")
    return TypedPartition(lam, n, t)


@lru_cache(maxsize=None)
def _grassmannian_by_shape(n: int, flavor: str, weight: int) -> dict:
    table = {}
    for w in enumerate_grassmannian(n, flavor, weight):
        if w.length() == weight:
            key = grassmannian_shape(w, n)
            if key in table:
                raise ArithmeticError(f"correspondence is not injective at {key}")
            table[key] = w
    return table


def grassmannian_element(lam, n: int, flavor: str = "BC") -> SignedPermutation:
    """Inverse correspondence: the n-Grassmannian element of the (typed) shape."""
    if flavor == "BC":
        lam = tuple(lam)
        assert is_n_strict(lam, n), f"{lam} is not {n}-strict"
        if not lam:
            return SignedPermutation.identity("BC")
        return _grassmannian_by_shape(n, "BC", sum(lam))[lam]
    assert isinstance(lam, TypedPartition) and lam.n == n
    if not lam.parts:
        return SignedPermutation.identity("D")
    return _grassmannian_by_shape(n, "D", sum(lam.parts))[lam]


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def enumerate_group(kind: str, n: int):
    """The finite group 'W' (hyperoctahedral W_n), 'Wtilde' (its even
    subgroup) or 'S' (symmetric group S_n), ordered by (length, window)."""
    if kind in ("W", "Wtilde"):
        flavor = "BC" if kind == "W" else "D"
        out = []
        for perm in itertools.permutations(range(1, n + 1)):
            for signs in itertools.product((1, -1), repeat=n):
                if kind == "Wtilde" and signs.count(-1) % 2 == 1:
                    continue
                out.append(
                    SignedPermutation(tuple(s * p for s, p in zip(signs, perm)), flavor)
                )
    elif kind == "S":
        out = [
            SignedPermutation(p, "A") for p in itertools.permutations(range(1, n + 1))
        ]
    else:
        raise ValueError(f"unknown group kind {kind!r}")
    out.sort(key=lambda w: (w.length(), w.window))
    return out


@lru_cache(maxsize=None)
def quotient_elements(flavor: str, n: int, max_length: int, grassmannian: bool = False) -> tuple:
    """The parabolic quotient W^(n) = {w : w(i) < w(i+1) for every i > n} up
    to length max_length, ordered by (length, window); with ``grassmannian``,
    only its n-Grassmannian elements (no right descent at any i != n).

    Grown from the identity by left multiplication.  Both sets are minimal
    coset representatives of a parabolic subgroup, so they are closed under
    left descents: every element of length l + 1 is s_i w for some w of
    length l in the set.  And i <= max(support of w, n), since for larger i
    the product s_i w = w s_i has a right descent at i > n.
    """
    frontier = [SignedPermutation.identity(flavor)]
    out = list(frontier)
    for ell in range(max_length):
        new = set()
        for w in frontier:
            for i in w.gen_indices(max(w.support, n)):
                v = w.left_mul_gen(i)
                if v.length() == ell + 1 and (
                    is_grassmannian(v, n)
                    if grassmannian
                    else all(v(j) < v(j + 1) for j in range(n + 1, v.support))
                ):
                    new.add(v)
        frontier = sorted(new, key=lambda w: w.window)
        out.extend(frontier)
    return tuple(out)


def enumerate_grassmannian(n: int, flavor: str, max_length: int):
    """All n-Grassmannian elements of length <= max_length."""
    return list(quotient_elements(flavor, n, max_length, True))


# ---------------------------------------------------------------------------
# transition data
# ---------------------------------------------------------------------------


class TransitionData(Record):
    """One step of the transition recursion at w: r, s, v = w t_rs, the two
    branch tuples, and the linear factor x_r - v(y_r) with v(y_r) =
    y_sign * y_{y_index}."""

    __slots__ = ("r", "s", "v", "plain_branch", "bar_branch", "y_sign", "y_index")

    def __init__(self, r, s, v, plain_branch, bar_branch, y_sign, y_index):
        self.r, self.s, self.v = r, s, v
        self.plain_branch, self.bar_branch = plain_branch, bar_branch
        self.y_sign, self.y_index = y_sign, y_index


def transition_data(w: SignedPermutation) -> TransitionData:
    """Last-descent transition step: r, s, v = w t_rs and the two branch lists.

    Raises ValueError on increasing w (the terminal case of the recursion).
    """
    flavor = w.flavor
    assert flavor in ("BC", "D")
    win = w.window
    descents = [i for i in range(1, len(win)) if win[i - 1] > win[i]]
    if not descents:
        raise ValueError("increasing window: terminal case, no transition")
    r = descents[-1]
    candidates = [i for i in range(r + 1, w.support + 1) if w(i) < w(r)]
    s = max(candidates)
    v = w.apply_reflection("t", r, s)
    lw = w.length()
    plain = tuple(
        v.apply_reflection("t", i, r)
        for i in range(1, r)
        if v.apply_reflection("t", i, r).length() == lw
    )
    bar = []
    for i in range(1, max(w.support, lw) + 2):
        if flavor == "D" and i == r:
            continue
        cand = (
            v.apply_reflection("tbar", min(i, r), max(i, r))
            if (flavor == "BC" or i != r)
            else None
        )
        if cand is not None and cand.length() == lw:
            bar.append(cand)
    vr = v(r)
    return TransitionData(
        r, s, v, plain, tuple(bar), 1 if vr > 0 else -1, abs(vr)
    )
