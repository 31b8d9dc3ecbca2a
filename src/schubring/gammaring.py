"""The ring Gamma = Z[c]/(relations), tensored with polynomial variables
x_i, y_i.

Elements are kept in normal form: every c_lambda monomial has a strictly
decreasing subscript tuple.  Monomials with repeated subscripts are
rewritten confluently using the defining quadratic relation

    c_p^2 + 2 sum_{i=1}^p (-1)^i c_{p+i} c_{p-i} = 0,

so equality of elements is equality of term dictionaries.  The rewriting is
cross-checked against an independent model that is faithful in every degree:
Gamma (x) Q = Q[p_1, p_3, p_5, ...], with c_p sent to the Schur Q-function
q_p written in odd power sums (Macdonald, Symmetric Functions and Hall
Polynomials, III.8).

An element stores int numerators over one power of two, keyed by subscript
tuple and packed monomial (one int per x/y monomial, so a monomial product is
an int sum; Monagan & Pearce, CASC 2007).  It is kept canonical: no zero
numerator, and the exponent is 0 or some numerator is odd.  Products and the
index-0 action group the terms by subscript tuple, so the rewriting is looked
up once per pair of tuples.  ``terms`` is a read-only view with exponent
tuples and Dyadic coefficients.

The type D ring Gamma' = Z[b]/(relations) is Gamma with b_p = c_p / 2: over
Q, P_lambda = 2^{-l(lambda)} Q_lambda (Macdonald III.8), and substituting
b_p = c_p / 2 into the b relation and multiplying by 4 gives the c relation.
So type B and D elements are kept in the c basis too, with dyadic
coefficients; only ``serialize`` lists them in the b basis, where
c_lambda = 2^{l(lambda)} b_lambda.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from math import factorial
from operator import itemgetter

from .polyring import (
    Dyadic,
    SparsePoly,
    _trim,
    complete_sym,
    elem_sym,
)

# A monomial x^a y^b is one int: x_i in slot 2i - 2 and y_i in slot 2i - 1,
# _W bits per slot, so a product of monomials is a sum of ints (Monagan &
# Pearce, CASC 2007).  Every stored monomial has total degree below _DEG, so
# no slot overflows and m % _DEG is the total degree (the digit sum in base
# 2^_W).  The masks cover _NV variables of each block.
_W = 16
_W2 = 2 * _W
_SLOT = _DEG = (1 << _W) - 1
_NV = 256
_X = sum(_SLOT << (_W2 * i) for i in range(_NV))
_Y = _X << _W


def _pack(xk, yk) -> int:
    """The packed monomial of x and y exponent sequences."""
    if len(xk) > _NV or len(yk) > _NV or min((*xk, *yk), default=0) < 0 or sum(xk) + sum(yk) >= _DEG:
        raise ValueError(f"exponents {tuple(xk)}, {tuple(yk)} do not fit a packed monomial")
    return sum(e << (_W2 * i) for i, e in enumerate(xk)) + sum(e << (_W2 * i + _W) for i, e in enumerate(yk))


def _unpack(m: int) -> tuple:
    slots = []
    while m:
        slots.append(m & _SLOT)
        m >>= _W
    return _trim(tuple(slots[0::2])), _trim(tuple(slots[1::2]))


@lru_cache(maxsize=None)
def _strictify(parts: tuple[int, ...]) -> tuple:
    """Rewrite a weakly decreasing subscript tuple into the strict basis.

    Returns a tuple of (strict_parts, integer_coefficient) pairs.  Parts are
    assumed positive.  Termination: each rewrite strictly increases the sum of
    squares of the subscripts, which is bounded by (total degree)^2.
    """
    rep = None
    for i in range(len(parts) - 1):
        if parts[i] == parts[i + 1]:
            rep = parts[i]
            break
    if rep is None:
        return ((parts, 1),)
    rest = list(parts)
    rest.remove(rep)
    rest.remove(rep)
    out: dict = {}
    for a, b, coeff in _square_relation(rep):
        new = tuple(sorted(rest + ([a, b] if b > 0 else [a]), reverse=True))
        for strict, c2 in _strictify(new):
            out[strict] = out.get(strict, 0) + coeff * c2
    return tuple((k, v) for k, v in out.items() if v)


def _square_relation(p: int) -> list[tuple[int, int, int]]:
    """c_p^2 as a combination of (a, b, coeff) with a > p > b >= 0."""
    return [(p + i, p - i, 2 * (-1) ** (i + 1)) for i in range(1, p + 1)]


def _element(nums: dict, e: int = 0) -> "GammaElement":
    """The element sum over nums of n / 2^e * key, nums holding no zero, in
    canonical form: e is 0 or some numerator is odd."""
    if e and not any(n & 1 for n in nums.values()):
        v = 0
        for n in nums.values():
            v |= n
        shift = min(e, (v & -v).bit_length() - 1) if v else e
        nums, e = {k: n >> shift for k, n in nums.items()}, e - shift
    f = GammaElement.__new__(GammaElement)
    f.nums, f.exp = nums, e
    return f


def _gsum(pairs) -> "GammaElement":
    """The sum of scale * f over (f, int scale) pairs, accumulated in place
    in int numerators over the largest power of two met so far."""
    out: dict = {}
    e = 0
    for f, scale in pairs:
        if not out:
            out, e = (dict(f.nums) if scale == 1 else {k: n * scale for k, n in f.nums.items()}), f.exp
            continue
        if f.exp > e:
            out, e = {k: n << (f.exp - e) for k, n in out.items()}, f.exp
        scale <<= e - f.exp
        get = out.get
        for k, n in f.nums.items():
            n = get(k, 0) + n * scale
            if n:
                out[k] = n
            else:
                del out[k]
    return _element(out, e)


def _xy_degree(f: "GammaElement") -> int:
    """The largest x/y degree of a monomial of f."""
    return max(map(_DEG.__rmod__, map(itemgetter(1), f.nums)), default=0)


def _groups(nums: dict) -> dict:
    """Numerators grouped by subscript tuple: {subs: {packed monomial: n}}."""
    groups: dict = {}
    for (s, m), n in nums.items():
        g = groups.get(s)
        if g is None:
            g = groups[s] = {}
        g[m] = n
    return groups


def _group_product(g1: dict, g2: dict) -> dict:
    """The product of two grouped int elements, grouped the same way by
    strict subscript tuple.  Per pair of groups the monomial products are
    formed once and ``_strictify`` is called once; zero numerators may
    remain."""
    out: dict = {}
    for s1, m1 in g1.items():
        for s2, m2 in g2.items():
            strict = _strictify(tuple(sorted(s1 + s2, reverse=True)))
            direct = len(strict) == 1 and strict[0][1] == 1
            prod = out.setdefault(strict[0][0], {}) if direct else {}
            items2 = m2.items()
            for a, n1 in m1.items():
                for b, n2 in items2:
                    k = a + b
                    prod[k] = prod.get(k, 0) + n1 * n2
            if not direct:
                for s, mult in strict:
                    acc = out.setdefault(s, {})
                    for k, n in prod.items():
                        acc[k] = acc.get(k, 0) + n * mult
    return out


class _Terms(Mapping):
    """Read-only view {(subscripts, x-exponents, y-exponents): Dyadic} of an
    element, with trimmed exponent tuples."""

    __slots__ = ("_f",)

    def __init__(self, f: "GammaElement"):
        self._f = f

    def __len__(self) -> int:
        return len(self._f.nums)

    def __iter__(self):
        return ((s, *_unpack(m)) for s, m in self._f.nums)

    def __getitem__(self, key) -> Dyadic:
        subs, xk, yk = key
        return Dyadic(self._f.nums[(tuple(subs), _pack(xk, yk))], self._f.exp)

    def items(self):
        e = self._f.exp
        return [((s, *_unpack(m)), Dyadic(n, e)) for (s, m), n in self._f.nums.items()]


class GammaElement:
    """An element of Gamma[X, Y].

    nums maps (subscripts, packed monomial) to an int numerator over the
    common denominator 2^exp, with the subscript tuple strictly decreasing;
    ``terms`` views the same element with exponent tuples and Dyadic
    coefficients.  Treated as immutable.
    """

    __slots__ = ("nums", "exp")

    def __init__(self, terms: dict | None = None):
        """From {(subscripts, x-exps, y-exps): Dyadic}, subscripts strict."""
        f = GammaElement.from_raw((s, x, y, c) for (s, x, y), c in (terms or {}).items())
        self.nums, self.exp = f.nums, f.exp

    @property
    def terms(self) -> _Terms:
        return _Terms(self)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "GammaElement":
        return _element({})

    @staticmethod
    def const(c) -> "GammaElement":
        return GammaElement.from_raw([((), (), (), c)])

    @staticmethod
    def generator(p: int) -> "GammaElement":
        """c_p, with subscript 0 meaning 1 and negative meaning 0."""
        return GammaElement.from_raw([((p,), (), (), 1)])

    @staticmethod
    def from_raw(raw_terms) -> "GammaElement":
        """Normalize (subscript multiset, x-exps, y-exps, int or Dyadic coeff)
        terms.

        Subscripts may repeat and may be <= 0 (0 is dropped, negative kills
        the term); the result is in normal form.
        """
        raw = [(s, x, y, Dyadic(c) if isinstance(c, int) else c) for s, x, y, c in raw_terms]
        e = max((c.exp for *_, c in raw), default=0)
        out: dict = {}
        for subs, xk, yk, c in raw:
            subs = tuple(sorted((s for s in subs if s != 0), reverse=True))
            if not c or (subs and subs[-1] < 0):
                continue
            m, n = _pack(xk, yk), c.num << (e - c.exp)
            for strict, mult in _strictify(subs):
                k = (strict, m)
                s = out.get(k, 0) + n * mult
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return _element(out, e)

    @staticmethod
    def from_poly(poly: SparsePoly) -> "GammaElement":
        """Embed a plain polynomial in x and y."""
        return GammaElement.from_raw(((), xk, yk, c) for (xk, yk), c in poly.terms.items())

    @staticmethod
    def monomial(xk=(), yk=()) -> "GammaElement":
        return GammaElement.from_raw([((), xk, yk, 1)])

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "GammaElement") -> "GammaElement":
        return _gsum(((self, 1), (other, 1)))

    def __sub__(self, other: "GammaElement") -> "GammaElement":
        return _gsum(((self, 1), (other, -1)))

    def __neg__(self) -> "GammaElement":
        return _element({k: -n for k, n in self.nums.items()}, self.exp)

    def __mul__(self, other) -> "GammaElement":
        if isinstance(other, (int, Dyadic)):
            c = Dyadic(other) if isinstance(other, int) else other
            return _element({k: n * c.num for k, n in self.nums.items()} if c else {}, self.exp + c.exp)
        if _xy_degree(self) + _xy_degree(other) >= _DEG:
            raise ValueError("the product's degree overflows a packed exponent slot")
        if len(other.nums) == 1 and not next(iter(other.nums))[0]:
            self, other = other, self
        if len(self.nums) == 1 and not next(iter(self.nums))[0]:  # a monomial shifts the keys
            ((_, mono), c), = self.nums.items()
            return _element({(s, m + mono): n * c for (s, m), n in other.nums.items()}, self.exp + other.exp)
        prod, out = _group_product(_groups(self.nums), _groups(other.nums)), {}
        while prod:  # group by group, so the grouped copy shrinks as the result grows
            s, acc = prod.popitem()
            out.update(((s, m), n) for m, n in acc.items() if n)
        return _element(out, self.exp + other.exp)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, GammaElement) and self.exp == other.exp and self.nums == other.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    # -- inspection ------------------------------------------------------------

    def degree(self) -> int:
        return max((sum(s) + m % _DEG for s, m in self.nums), default=0)

    def coeff(self, subs=(), xk=(), yk=()) -> Dyadic:
        return Dyadic(self.nums.get((tuple(subs), _pack(xk, yk)), 0), self.exp)

    def max_xvar(self) -> int:
        return (max((m & _X for _, m in self.nums), default=0).bit_length() + _W2 - 1) // _W2

    def max_yvar(self) -> int:
        return (max((m & _Y for _, m in self.nums), default=0).bit_length() + _W - 1) // _W2

    def is_integral(self) -> bool:
        return self.exp == 0

    def sorted_terms(self) -> list:
        return sorted(
            self.terms.items(),
            key=lambda kv: (
                sum(kv[0][0]) + sum(kv[0][1]) + sum(kv[0][2]),
                kv[0],
            ),
        )

    def __str__(self) -> str:
        if not self.nums:
            return "0"
        bits = []
        for (subs, xk, yk), c in self.sorted_terms():
            mono = ""
            if subs:
                mono += f"c{list(subs)}"
            for name, key in (("x", xk), ("y", yk)):
                for i, e in enumerate(key):
                    if e:
                        mono += f"{name}{i+1}" + (f"^{e}" if e > 1 else "")
            bits.append(f"{c}*{mono}" if mono else str(c))
        return " + ".join(bits)

    __repr__ = __str__

    # -- substitutions -----------------------------------------------------------

    def restrict_vars(self, n: int) -> "GammaElement":
        """Set x_j = y_j = 0 for j > n (the primed polynomial)."""
        top = 1 << (_W2 * n)
        return _element({k: c for k, c in self.nums.items() if k[1] < top}, self.exp)

    def set_y_zero(self) -> "GammaElement":
        return _element({k: c for k, c in self.nums.items() if not k[1] & _Y}, self.exp)

    def negate_x(self) -> "GammaElement":
        """Substitute x_i -> -x_i for all i."""
        return _element({k: -c if (k[1] & _X) % _DEG & 1 else c for k, c in self.nums.items()}, self.exp)

    def permute_x(self, w) -> "GammaElement":
        """Substitute x_i -> sign(w_i) x_{|w_i|} for a type A / signed window.

        Valid as the full ring action only for elements with no generator part
        or when w fixes the generators (e.g. w in S_infinity).
        """
        raw = []
        for (subs, m), n in self.nums.items():
            xk, yk = _unpack(m)
            new = [0] * max((abs(w(i + 1)) for i in range(len(xk))), default=0)
            sign = 1
            for i, e in enumerate(xk):
                img = w(i + 1)
                new[abs(img) - 1] += e
                if img < 0 and e % 2 == 1:
                    sign = -sign
            raw.append((subs, new, yk, Dyadic(sign * n, self.exp)))
        return GammaElement.from_raw(raw)

    def omega(self) -> "GammaElement":
        """The involution x_j -> -y_j, y_j -> -x_j, fixing the generators."""
        out = {}
        for (subs, m), n in self.nums.items():
            x = m & _X
            out[(subs, (x << _W) | ((m - x) >> _W))] = -n if m % _DEG & 1 else n
        return _element(out, self.exp)


# ---------------------------------------------------------------------------
# the Weyl group action
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _s0_image(p: int) -> dict:
    """s_0(c_p) = c_p + 2 sum_{j=1}^p x_1^j c_{p-j}, grouped as by _groups."""
    raw = [((p,), (), (), 1)]
    for j in range(1, p + 1):
        raw.append(([p - j], (j,), (), 2))
    return _groups(GammaElement.from_raw(raw).nums)


@lru_cache(maxsize=None)
def _sbox_image(p: int) -> dict:
    """s_box(c_p) = c_p + 2 (x1+x2) sum_{j=0}^{p-1} h_j(x1,x2) c_{p-1-j},
    grouped as by _groups."""
    lin = GammaElement.from_poly(SparsePoly.var("x", 1) + SparsePoly.var("x", 2))
    total = GammaElement.zero()
    for j in range(0, p):
        hj = GammaElement.from_poly(complete_sym(2, j, "x"))
        total = total + hj * GammaElement.generator(p - 1 - j)
    return _groups((GammaElement.generator(p) + lin * total * 2).nums)


def act_generator(i: int, f: GammaElement, flavor: str = "BC") -> GammaElement:
    """Apply the simple reflection s_i of the flavor's Weyl group to f (ring
    action, y fixed).

    Index 0 means s_0 in flavor BC and the branch reflection in flavor D.
    """
    if i >= 1:
        # swapping x_i and x_{i+1} is a bijection on monomials: no terms meet
        at = _W2 * (i - 1)
        step = (1 << (at + _W2)) - (1 << at)
        return _element(
            {(s, m + (((m >> at) & _SLOT) - ((m >> (at + _W2)) & _SLOT)) * step): n for (s, m), n in f.nums.items()},
            f.exp,
        )
    # s_0 (flavor BC): x_1 -> -x_1; branch node (flavor D): (x1, x2) ->
    # (-x2, -x1).  The moved monomials and their signs go into the int
    # numerators, grouped by subscript tuple.  In sorted order, stack[j] is
    # the y-free image of the first j subscripts, so each group's image
    # extends the longest prefix it shares with the previous tuple.
    branch = flavor == "D"
    image = _sbox_image if branch else _s0_image
    groups = _groups(f.nums)
    out: dict = {}
    stack = [{(): {0: 1}}]
    prev: tuple = ()
    for subs in sorted(groups):
        j = 0
        while j < len(prev) and j < len(subs) and prev[j] == subs[j]:
            j += 1
        del stack[j + 1:]
        for p in subs[j:]:
            stack.append(_group_product(stack[-1], image(p)))
        prev = subs
        img = [(s2, m2, n2) for s2, acc in stack[-1].items() for m2, n2 in acc.items() if n2]
        for m, n in groups[subs].items():
            odd = m & 1
            if branch:
                d = ((m >> _W2) & _SLOT) - (m & _SLOT)
                odd = (m ^ (m >> _W2)) & 1
                m += d - (d << _W2)
            if odd:
                n = -n
            for s2, m2, n2 in img:
                k = (s2, m + m2)
                out[k] = out.get(k, 0) + n * n2
    return _element({k: n for k, n in out.items() if n}, f.exp)


def weyl_act(w, f: GammaElement) -> GammaElement:
    """Apply a group element to f."""
    for i in reversed(w.reduced_word()):
        f = act_generator(i, f, w.flavor)
    return f


# ---------------------------------------------------------------------------
# exact division by the (negated) simple roots, for the divided differences
# ---------------------------------------------------------------------------


def _divide_by_x1(g: GammaElement, factor: int) -> GammaElement:
    """Exact division by factor * x_1, factor = +-2 (the sign-change operator)."""
    sign = 1 if factor == 2 else -1
    out = {}
    for (subs, m), n in g.nums.items():
        if not m & _SLOT:
            raise ArithmeticError("numerator not divisible by x_1")
        out[(subs, m - 1)] = n * sign
    return _element(out, g.exp + 1)


def _divide_uv(g: GammaElement, i: int, plus: bool) -> GammaElement:
    """Exact division by (x_i - x_{i+1}) or, with plus=True, by (x_i + x_{i+1}).

    Synthetic division in x_i, from the top power down: a term n x_i^a r
    puts n x_i^{a-1} r in the quotient and carries -+n x_i^{a-1} x_{i+1} r
    one power down.  A nonzero remainder raises ArithmeticError.
    """
    at = _W2 * (i - 1)
    unit = 1 << at  # x_i, packed
    carry = (unit << _W2) - unit  # times x_{i+1} / x_i
    carry_sign = -1 if plus else 1
    buckets: dict[int, dict] = {}
    for k, n in g.nums.items():
        buckets.setdefault((k[1] >> at) & _SLOT, {})[k] = n
    out: dict = {}
    for a in range(max(buckets, default=0), 0, -1):
        below = buckets.setdefault(a - 1, {})
        for (subs, m), n in buckets.pop(a, {}).items():
            if not n:
                continue
            # quotient keys have distinct x_i-degrees across buckets: none meet
            out[(subs, m - unit)] = n
            k = (subs, m + carry)
            below[k] = below.get(k, 0) + n * carry_sign
    if any(buckets.get(0, {}).values()):
        raise ArithmeticError("division left a nonzero remainder")
    return _element(out, g.exp)


# ---------------------------------------------------------------------------
# the indexed entries  {}^k c^{k'}_p  and their hatted variants
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def c_entry(k: int, kprime: int, p: int) -> GammaElement:
    """{}^k c^{k'}_p = sum_{i,j} c_{p-j-i} h^{-k}_i(X) h^{k'}_j(-Y).

    The h factors are in x alone and in y alone, so every product of their
    terms is a distinct monomial."""
    hx = [complete_sym(-k, i, "x").terms.items() for i in range(p + 1)]
    hy = [complete_sym(kprime, j, "-y").terms.items() for j in range(p + 1)]
    return GammaElement.from_raw(
        ((p - i - j,), xk, yk, cx * cy)
        for i in range(p + 1)
        for (xk, _), cx in hx[i]
        for j in range(p - i + 1)
        for (_, yk), cy in hy[j]
    )


@lru_cache(maxsize=None)
def _hat_correction(k: int, m: int, fsign: int) -> GammaElement:
    """fsign * e^k_k(X) e^m_m(-Y) as a ring element."""
    if fsign == 0 or m < 0 or k < 0:
        return GammaElement.zero()
    ex = elem_sym(k, k, "x") if k > 0 else SparsePoly.const(1)
    ey = elem_sym(m, m, "-y") if m > 0 else SparsePoly.const(1)
    return GammaElement.from_poly(ex * ey) * fsign


def c_hat_entry(k: int, kprime: int, p: int, fsign: int) -> GammaElement:
    """{}^k chat^{k'}_p: the plain entry plus fsign * e_k(X) e_{p-k}(-Y) on
    the diagonal k' = k - p <= 0.

    The boundary case k' = 0, p = k contributes the y-free correction
    fsign * e_k(X); keeping it is what makes the Pfaffian formulas match the
    Schubert polynomials on rows with vanishing back index.
    """
    base = c_entry(k, kprime, p)
    if kprime == k - p and kprime <= 0 and p >= 0:
        base = base + _hat_correction(k, p - k, fsign)
    return base


# ---------------------------------------------------------------------------
# level-n generator families
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def level_c(n: int, p: int) -> GammaElement:
    """{}^n c_p = sum_j c_{p-j} e_j(X_n) (the single-variable level-n generator)."""
    return c_entry(n, 0, p)


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
# the symmetric-function oracle
# ---------------------------------------------------------------------------


def _odd_partitions(p: int, top: int):
    """Partitions of p into odd parts <= top, in decreasing order."""
    if p == 0:
        yield ()
        return
    for a in range(min(p, top), 0, -1):
        if a % 2:
            for rest in _odd_partitions(p - a, a):
                yield (a,) + rest


def _q_in_power_sums(p: int) -> dict:
    """q_p = sum over odd partitions lam of p of 2^len(lam) p_lam / z_lam."""
    from fractions import Fraction
    out = {}
    for lam in _odd_partitions(p, p):
        z = 1
        for part in set(lam):
            m = lam.count(part)
            z *= part**m * factorial(m)
        out[lam] = Fraction(2 ** len(lam), z)
    return out


def oracle_embed(f: GammaElement) -> dict:
    """The image of f in the power-sum model (see oracle_raw_embed)."""
    return oracle_raw_embed([(s, x, y, c) for (s, x, y), c in f.terms.items()])


def oracle_raw_embed(raw_terms) -> dict:
    """Embed a raw (un-normalized) list of (subscripts, x-exps, y-exps, coeff)
    term by term: c_p -> q_p, x and y unchanged.

    The image is {(lam, xk, yk): Fraction} with lam a decreasing tuple of odd
    power-sum indices.  The model is faithful in every degree and applies no
    relation, so it checks the rewriting independently.
    """
    from fractions import Fraction
    out: dict = {}
    for subs, xk, yk, coeff in raw_terms:
        if any(p < 0 for p in subs):
            continue
        piece = {(): coeff.as_fraction() if isinstance(coeff, Dyadic) else Fraction(coeff)}
        for p in subs:
            if p == 0:
                continue
            q = _q_in_power_sums(p)
            prod: dict = {}
            for lam, a in piece.items():
                for mu, b in q.items():
                    k = tuple(sorted(lam + mu, reverse=True))
                    prod[k] = prod.get(k, 0) + a * b
            piece = prod
        xk, yk = _trim(tuple(xk)), _trim(tuple(yk))
        for lam, c in piece.items():
            out[(lam, xk, yk)] = out.get((lam, xk, yk), 0) + c
    return {k: c for k, c in out.items() if c}
