"""Exact sparse polynomial arithmetic over dyadic rationals.

Variables come in two blocks: x_1, x_2, ... and y_1, y_2, ...
Coefficients are dyadic rationals n / 2^e, kept in canonical form so that
equality of polynomials is equality of term dictionaries.  There is no
floating point anywhere.
"""

from __future__ import annotations

from operator import add


class Dyadic:
    """A rational number of the form num / 2^exp, with num odd or zero."""

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if num == 0:
            self.num, self.exp = 0, 0
            return
        # strip common powers of two to reach the canonical form
        while num % 2 == 0 and exp > 0:
            num //= 2
            exp -= 1
        if exp < 0:
            num <<= -exp
            exp = 0
        self.num, self.exp = num, exp

    def __add__(self, other: "Dyadic") -> "Dyadic":
        e = max(self.exp, other.exp)
        return Dyadic((self.num << (e - self.exp)) + (other.num << (e - other.exp)), e)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        e = max(self.exp, other.exp)
        return Dyadic((self.num << (e - self.exp)) - (other.num << (e - other.exp)), e)

    def __neg__(self) -> "Dyadic":
        d = Dyadic.__new__(Dyadic)
        d.num, d.exp = -self.num, self.exp
        return d

    def __mul__(self, other) -> "Dyadic":
        if isinstance(other, int):
            return Dyadic(self.num * other, self.exp)
        return Dyadic(self.num * other.num, self.exp + other.exp)

    __rmul__ = __mul__

    def half(self) -> "Dyadic":
        """Exact division by 2."""
        return Dyadic(self.num, self.exp + 1)

    def times_pow2(self, k: int) -> "Dyadic":
        """Multiply by 2^k (k may be negative)."""
        return Dyadic(self.num, self.exp - k)

    def __bool__(self) -> bool:
        return self.num != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.exp == 0 and self.num == other
        return self.num == other.num and self.exp == other.exp

    def __hash__(self):
        return hash((self.num, self.exp))

    @property
    def is_integer(self) -> bool:
        return self.exp == 0

    def as_fraction(self) -> Fraction:
        from fractions import Fraction  # imported where used: compute requests never need it
        return Fraction(self.num, 1 << self.exp)

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/2^{self.exp}"

    def __repr__(self) -> str:
        return f"Dyadic({self.num}, {self.exp})"


D_ZERO = Dyadic(0)
D_ONE = Dyadic(1)


def _trim(t: tuple) -> tuple:
    """Drop trailing zero exponents so keys are canonical."""
    k = len(t)
    while k and t[k - 1] == 0:
        k -= 1
    return t[:k]


def _madd(a: tuple, b: tuple) -> tuple:
    """Add exponent vectors."""
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    return tuple(map(add, a, b)) + a[len(b):]


class SparsePoly:
    """Polynomial in x/y with Dyadic coefficients, as {(xk, yk): coeff}.

    Instances are treated as immutable; all arithmetic returns new objects.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = terms if terms is not None else {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "SparsePoly":
        return SparsePoly({})

    @staticmethod
    def const(c) -> "SparsePoly":
        if isinstance(c, int):
            c = Dyadic(c)
        if not c:
            return SparsePoly({})
        return SparsePoly({((), ()): c})

    @staticmethod
    def var(block: str, i: int) -> "SparsePoly":
        """The variable x_i or y_i (block in 'xy', i >= 1)."""
        e = (0,) * (i - 1) + (1,)
        key = {"x": (e, ()), "y": ((), e)}[block]
        return SparsePoly({key: D_ONE})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        t = dict(self.terms)
        for k, c in other.terms.items():
            s = t.get(k)
            s = c if s is None else s + c
            if s:
                t[k] = s
            elif k in t:
                del t[k]
        return SparsePoly(t)

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly({k: -c for k, c in self.terms.items()})

    def __mul__(self, other) -> "SparsePoly":
        if isinstance(other, (int, Dyadic)):
            c = Dyadic(other) if isinstance(other, int) else other
            if not c:
                return SparsePoly({})
            return SparsePoly({k: v * c for k, v in self.terms.items()})
        t: dict = {}
        for (x1, y1), c1 in self.terms.items():
            for (x2, y2), c2 in other.terms.items():
                k = (_madd(x1, x2), _madd(y1, y2))
                c = c1 * c2
                s = t.get(k)
                s = c if s is None else s + c
                if s:
                    t[k] = s
                elif k in t:
                    del t[k]
        return SparsePoly(t)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, SparsePoly) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- inspection --------------------------------------------------------

    def degree(self) -> int:
        return max((sum(x) + sum(y) for x, y in self.terms), default=0)

    def coeff(self, xk=(), yk=()) -> Dyadic:
        return self.terms.get((_trim(tuple(xk)), _trim(tuple(yk))), D_ZERO)

    def sorted_terms(self) -> list:
        """Terms in graded-lex order (degree, then x-key, y-key)."""
        return sorted(
            self.terms.items(),
            key=lambda kv: (sum(kv[0][0]) + sum(kv[0][1]), kv[0]),
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (xk, yk), c in self.sorted_terms():
            mono = "".join(
                f"{name}{i+1}^{e}" if e != 1 else f"{name}{i+1}"
                for name, key in (("x", xk), ("y", yk))
                for i, e in enumerate(key)
                if e
            )
            parts.append(f"{c}*{mono}" if mono else f"{c}")
        return " + ".join(parts)

    __repr__ = __str__


def _alphabet_vars(alphabet: str, r: int) -> tuple[list[SparsePoly], int]:
    """First r variables of the named alphabet, with its sign.

    'x' -> x_i, 'y' -> y_i, '-y' -> -y_i.
    """
    sign = -1 if alphabet.startswith("-") else 1
    block = alphabet.lstrip("-")
    vs = [SparsePoly.var(block, i) * sign for i in range(1, r + 1)]
    return vs, sign


def elem_sym(r: int, j: int, alphabet: str = "x") -> SparsePoly:
    """e^r_j of the alphabet: the j-th elementary symmetric polynomial in the
    first r variables, with e^0_j = delta_{0j} and e^r_j := h^{-r}_j for r < 0.
    """
    if r < 0:
        return complete_sym(-r, j, alphabet)
    if j < 0:
        return SparsePoly.zero()
    if j == 0:
        return SparsePoly.const(1)
    if r == 0 or j > r:
        return SparsePoly.zero()
    vs, _ = _alphabet_vars(alphabet, r)
    # iterate e_j(v_1..v_m) = e_j(v_1..v_{m-1}) + v_m e_{j-1}(v_1..v_{m-1})
    row = [SparsePoly.const(1)] + [SparsePoly.zero()] * j
    for m in range(1, r + 1):
        for k in range(min(j, m), 0, -1):
            row[k] = row[k] + vs[m - 1] * row[k - 1]
    return row[j]


def complete_sym(r: int, j: int, alphabet: str = "x") -> SparsePoly:
    """h^r_j of the alphabet, with h^0_j = delta_{0j} and h^r_j := e^{-r}_j for r < 0."""
    if r < 0:
        return elem_sym(-r, j, alphabet)
    if j < 0:
        return SparsePoly.zero()
    if j == 0:
        return SparsePoly.const(1)
    if r == 0:
        return SparsePoly.zero()
    vs, _ = _alphabet_vars(alphabet, r)
    # h_j(v_1..v_m) = sum over monomials; iterate h-row by adding variables
    row = [SparsePoly.const(1)] + [SparsePoly.zero()] * j
    for m in range(1, r + 1):
        for k in range(1, j + 1):
            row[k] = row[k] + vs[m - 1] * row[k - 1]
    return row[j]


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
