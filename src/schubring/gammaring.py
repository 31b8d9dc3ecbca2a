"""The rings Gamma = Z[c]/(relations) and Gamma' = Z[b]/(relations), tensored
with polynomial variables x_i, y_i.

Elements are kept in normal form: every c_lambda / b_lambda monomial has a
strictly decreasing subscript tuple.  Monomials with repeated subscripts are
rewritten confluently using the defining quadratic relations

    c_p^2 + 2 sum_{i=1}^p (-1)^i c_{p+i} c_{p-i} = 0,
    b_p^2 + 2 sum_{i=1}^{p-1} (-1)^i b_{p+i} b_{p-i} + (-1)^p b_{2p} = 0,

so equality of elements is equality of term dictionaries.  The rewriting is
cross-checked against an independent model that is faithful in every degree:
Gamma (x) Q = Q[p_1, p_3, p_5, ...], with c_p sent to the Schur Q-function
q_p written in odd power sums (Macdonald, Symmetric Functions and Hall
Polynomials, III.8).
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .polyring import (
    D_ONE,
    D_ZERO,
    Dyadic,
    SparsePoly,
    _madd,
    _trim,
    complete_sym,
    elem_sym,
)


@lru_cache(maxsize=None)
def _strictify(family: str, parts: tuple[int, ...]) -> tuple:
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
    for a, b, coeff in _square_relation(family, rep):
        new = tuple(sorted(rest + ([a, b] if b > 0 else [a]), reverse=True))
        for strict, c2 in _strictify(family, new):
            out[strict] = out.get(strict, 0) + coeff * c2
    return tuple((k, v) for k, v in out.items() if v)


def _square_relation(family: str, p: int) -> list[tuple[int, int, int]]:
    """c_p^2 (resp. b_p^2) as a combination of (a, b, coeff) with a > p > b >= 0."""
    if family == "c":
        return [(p + i, p - i, 2 * (-1) ** (i + 1)) for i in range(1, p + 1)]
    terms = [(p + i, p - i, 2 * (-1) ** (i + 1)) for i in range(1, p)]
    terms.append((2 * p, 0, (-1) ** (p + 1)))
    return terms


def _add_into(out: dict, terms: dict, scale=1) -> dict:
    """out += scale * terms on term dictionaries, in place; returns out.

    Summing k elements this way costs their total size, where a chain of
    ``total = total + x`` copies the growing total every time.
    """
    rescale = scale != 1
    for k, c in terms.items():
        if rescale:
            c = c * scale
        s = out.get(k)
        s = c if s is None else s + c
        if s:
            out[k] = s
        elif k in out:
            del out[k]
    return out


class GammaElement:
    """An element of Gamma[X, Y] (family 'c') or Gamma'[X, Y] (family 'b').

    terms maps (subscripts, x-exponents, y-exponents) to a Dyadic coefficient,
    with the subscript tuple strictly decreasing.  Treated as immutable.
    """

    __slots__ = ("family", "terms")

    def __init__(self, family: str, terms: dict | None = None):
        assert family in ("c", "b")
        self.family = family
        self.terms = terms if terms is not None else {}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(family: str = "c") -> "GammaElement":
        return GammaElement(family)

    @staticmethod
    def const(c, family: str = "c") -> "GammaElement":
        c = Dyadic(c) if isinstance(c, int) else c
        return GammaElement(family, {((), (), ()): c} if c else {})

    @staticmethod
    def generator(p: int, family: str = "c") -> "GammaElement":
        """c_p or b_p, with subscript 0 meaning 1 and negative meaning 0."""
        if p < 0:
            return GammaElement(family)
        if p == 0:
            return GammaElement.const(1, family)
        return GammaElement(family, {((p,), (), ()): D_ONE})

    @staticmethod
    def from_raw(family: str, raw_terms) -> "GammaElement":
        """Normalize a list of (subscript multiset, x-exps, y-exps, coeff).

        Subscripts may repeat and may be <= 0 (0 is dropped, negative kills
        the term); the result is in normal form.
        """
        out: dict = {}
        for subs, xk, yk, coeff in raw_terms:
            coeff = Dyadic(coeff) if isinstance(coeff, int) else coeff
            if not coeff:
                continue
            subs = tuple(sorted((s for s in subs if s != 0), reverse=True))
            if subs and subs[-1] < 0:
                continue
            key_x, key_y = _trim(tuple(xk)), _trim(tuple(yk))
            for strict, mult in _strictify(family, subs):
                k = (strict, key_x, key_y)
                s = out.get(k, D_ZERO) + coeff * mult
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        return GammaElement(family, out)

    @staticmethod
    def from_poly(poly: SparsePoly, family: str = "c") -> "GammaElement":
        """Embed a plain polynomial in x and y."""
        return GammaElement(family, {((), xk, yk): c for (xk, yk), c in poly.terms.items()})

    @staticmethod
    def monomial(xk=(), yk=(), family: str = "c") -> "GammaElement":
        assert all(e >= 0 for e in xk) and all(e >= 0 for e in yk)
        return GammaElement(family, {((), _trim(tuple(xk)), _trim(tuple(yk))): D_ONE})

    # -- ring operations ------------------------------------------------------

    def _check(self, other: "GammaElement"):
        if self.family != other.family:
            raise ValueError(
                f"cannot mix families {self.family!r} and {other.family!r}"
            )

    def __add__(self, other: "GammaElement") -> "GammaElement":
        self._check(other)
        return GammaElement(self.family, _add_into(dict(self.terms), other.terms))

    def __sub__(self, other: "GammaElement") -> "GammaElement":
        return self + (-other)

    def __neg__(self) -> "GammaElement":
        return GammaElement(self.family, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other) -> "GammaElement":
        if isinstance(other, (int, Dyadic)):
            c = Dyadic(other) if isinstance(other, int) else other
            if not c:
                return GammaElement(self.family)
            return GammaElement(self.family, {k: v * c for k, v in self.terms.items()})
        self._check(other)
        out: dict = {}
        for (s1, x1, y1), c1 in self.terms.items():
            for (s2, x2, y2), c2 in other.terms.items():
                subs = tuple(sorted(s1 + s2, reverse=True))
                xk, yk = _madd(x1, x2), _madd(y1, y2)
                c = c1 * c2
                for strict, mult in _strictify(self.family, subs):
                    k = (strict, xk, yk)
                    s = out.get(k, D_ZERO) + c * mult
                    if s:
                        out[k] = s
                    elif k in out:
                        del out[k]
        return GammaElement(self.family, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "GammaElement":
        assert n >= 0
        out = GammaElement.const(1, self.family)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GammaElement)
            and self.family == other.family
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- inspection ------------------------------------------------------------

    def degree(self) -> int:
        return max(
            (sum(s) + sum(x) + sum(y) for s, x, y in self.terms), default=0
        )

    def coeff(self, subs=(), xk=(), yk=()) -> Dyadic:
        return self.terms.get(
            (tuple(subs), _trim(tuple(xk)), _trim(tuple(yk))), D_ZERO
        )

    def max_xvar(self) -> int:
        return max((len(x) for _, x, _ in self.terms), default=0)

    def max_yvar(self) -> int:
        return max((len(y) for _, _, y in self.terms), default=0)

    def is_integral(self) -> bool:
        return all(c.is_integer for c in self.terms.values())

    def sorted_terms(self) -> list:
        return sorted(
            self.terms.items(),
            key=lambda kv: (
                sum(kv[0][0]) + sum(kv[0][1]) + sum(kv[0][2]),
                kv[0],
            ),
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (subs, xk, yk), c in self.sorted_terms():
            mono = ""
            if subs:
                mono += f"{self.family}{list(subs)}"
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
        return GammaElement(
            self.family,
            {
                k: c
                for k, c in self.terms.items()
                if len(k[1]) <= n and len(k[2]) <= n
            },
        )

    def set_y_zero(self) -> "GammaElement":
        return GammaElement(
            self.family, {k: c for k, c in self.terms.items() if not k[2]}
        )

    def negate_x(self) -> "GammaElement":
        """Substitute x_i -> -x_i for all i."""
        return GammaElement(
            self.family,
            {k: (c if sum(k[1]) % 2 == 0 else -c) for k, c in self.terms.items()},
        )

    def permute_x(self, w) -> "GammaElement":
        """Substitute x_i -> sign(w_i) x_{|w_i|} for a type A / signed window.

        Valid as the full ring action only for elements with no generator part
        or when w fixes the generators (e.g. w in S_infinity).
        """
        out: dict = {}
        for (subs, xk, yk), c in self.terms.items():
            new = [0] * max((abs(w(i + 1)) for i in range(len(xk))), default=0)
            sign = 1
            for i, e in enumerate(xk):
                if not e:
                    continue
                img = w(i + 1)
                new[abs(img) - 1] += e
                if img < 0 and e % 2 == 1:
                    sign = -sign
            k = (subs, _trim(tuple(new)), yk)
            s = out.get(k, D_ZERO) + (c if sign == 1 else -c)
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return GammaElement(self.family, out)

    def omega(self) -> "GammaElement":
        """The involution x_j -> -y_j, y_j -> -x_j, fixing the generators."""
        out = {}
        for (subs, xk, yk), c in self.terms.items():
            sign = (-1) ** ((sum(xk) + sum(yk)) % 2)
            out[(subs, yk, xk)] = c * sign
        return GammaElement(self.family, out)

    def with_family(self, family: str) -> "GammaElement":
        """Relabel a generator-free element into the other coefficient ring."""
        if family == self.family:
            return self
        assert all(not s for s, _, _ in self.terms), "element has generator content"
        return GammaElement(family, dict(self.terms))


# ---------------------------------------------------------------------------
# the Weyl group action
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _s0_image(p: int) -> GammaElement:
    """s_0(c_p) = c_p + 2 sum_{j=1}^p x_1^j c_{p-j}."""
    raw = [((p,), (), (), 1)]
    for j in range(1, p + 1):
        raw.append(([p - j], (j,), (), 2))
    return GammaElement.from_raw("c", raw)


@lru_cache(maxsize=None)
def _sbox_image(p: int) -> GammaElement:
    """s_box(b_p) = b_p + (x1+x2) sum_{j=0}^{p-1} h_j(x1,x2) c_{p-1-j}."""
    acc = GammaElement.generator(p, "b")
    lin = GammaElement.from_poly(
        SparsePoly.var("x", 1) + SparsePoly.var("x", 2), "b"
    )
    total = GammaElement.zero("b")
    for j in range(0, p):
        hj = GammaElement.from_poly(complete_sym(2, j, "x"), "b")
        q = p - 1 - j
        cq = GammaElement.generator(q, "b") * (2 if q >= 1 else 1)
        total = total + hj * cq
    return acc + lin * total


def act_generator(i: int, f: GammaElement) -> GammaElement:
    """Apply the simple reflection s_i to f (ring action, y fixed).

    Index 0 means s_0 on family 'c' and the branch reflection on family 'b'.
    """
    if i >= 1:
        out: dict = {}
        for (subs, xk, yk), c in f.terms.items():
            lst = list(xk) + [0] * max(0, i + 1 - len(xk))
            lst[i - 1], lst[i] = lst[i], lst[i - 1]
            k = (subs, _trim(tuple(lst)), yk)
            s = out.get(k, D_ZERO) + c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return GammaElement(f.family, out)
    # s_0 (family 'c'): x_1 -> -x_1; branch node (family 'b'): (x1, x2) ->
    # (-x2, -x1).  Terms are grouped by subscript tuple; the group's
    # generator image is y-free and built once, and every term's moved
    # monomial is spread over it before the next group's image is built.
    image = _s0_image if f.family == "c" else _sbox_image
    groups: dict = {}
    for (subs, xk, yk), c in f.terms.items():
        groups.setdefault(subs, []).append((xk, yk, c))
    out: dict = {}
    for subs, monos in groups.items():
        img = GammaElement.const(1, f.family)
        for p in subs:
            img = img * image(p)
        for xk, yk, c in monos:
            a1, a2 = (xk + (0, 0))[:2]
            odd = a1 % 2
            if f.family == "b":
                xk = _trim((a2, a1) + xk[2:])
                odd = (a1 + a2) % 2
            moved = {(s2, _madd(xk, x2), yk): c2 for (s2, x2, _), c2 in img.terms.items()}
            _add_into(out, moved, -c if odd else c)
    return GammaElement(f.family, out)


def weyl_act(w, f: GammaElement) -> GammaElement:
    """Apply a group element (or an int generator index) to f."""
    if isinstance(w, int):
        return act_generator(w, f)
    for i in reversed(w.reduced_word()):
        f = act_generator(i, f)
    return f


# ---------------------------------------------------------------------------
# the indexed entries  {}^k c^{k'}_p  and their hatted variants
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def c_entry(k: int, kprime: int, p: int, family: str = "c") -> GammaElement:
    """{}^k c^{k'}_p = sum_{i,j} c_{p-j-i} h^{-k}_i(X) h^{k'}_j(-Y).

    In family 'b' the c generators are replaced by their images 2 b_q.
    """
    if p < 0:
        return GammaElement.zero(family)
    out = GammaElement.zero(family)
    for i in range(0, p + 1):
        hx = complete_sym(-k, i, "x")
        if not hx:
            continue
        hxe = GammaElement.from_poly(hx, family)
        for j in range(0, p - i + 1):
            hy = complete_sym(kprime, j, "-y")
            if not hy:
                continue
            q = p - i - j
            gen = GammaElement.generator(q, family)
            if family == "b" and q >= 1:
                gen = gen * 2
            out = out + gen * hxe * GammaElement.from_poly(hy, family)
    return out


@lru_cache(maxsize=None)
def _hat_correction(k: int, m: int, fsign: int, family: str = "b") -> GammaElement:
    """fsign * e^k_k(X) e^m_m(-Y) as a ring element."""
    if fsign == 0 or m < 0 or k < 0:
        return GammaElement.zero(family)
    ex = elem_sym(k, k, "x") if k > 0 else SparsePoly.const(1)
    ey = elem_sym(m, m, "-y") if m > 0 else SparsePoly.const(1)
    return GammaElement.from_poly(ex * ey, family) * fsign


def c_hat_entry(k: int, kprime: int, p: int, fsign: int, family: str = "b") -> GammaElement:
    """{}^k chat^{k'}_p: the plain entry plus fsign * e_k(X) e_{p-k}(-Y) on
    the diagonal k' = k - p <= 0.

    The boundary case k' = 0, p = k contributes the y-free correction
    fsign * e_k(X); keeping it is what makes the Pfaffian formulas match the
    Schubert polynomials on rows with vanishing back index.
    """
    base = c_entry(k, kprime, p, family)
    if kprime == k - p and kprime <= 0 and p >= 0:
        base = base + _hat_correction(k, p - k, fsign, family)
    return base


# ---------------------------------------------------------------------------
# level-n generator families
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def level_c(n: int, p: int, family: str = "c") -> GammaElement:
    """{}^n c_p = sum_j c_{p-j} e_j(X_n) (the single-variable level-n generator)."""
    return c_entry(n, 0, p, family)


@lru_cache(maxsize=None)
def level_c_double(n: int, p: int) -> GammaElement:
    """{}^n c^n_p, the double (equivariant) level-n generator."""
    return c_entry(n, n, p)


@lru_cache(maxsize=None)
def level_b(n: int, p: int) -> GammaElement:
    """{}^n b_p in Gamma'[X_n] by its defining sum."""
    if p < n:
        out = GammaElement.from_poly(elem_sym(n, p, "x"), "b")
        for j in range(0, p):
            out = out + GammaElement.generator(p - j, "b") * GammaElement.from_poly(
                elem_sym(n, j, "x"), "b"
            ) * 2
        return out
    out = GammaElement.zero("b")
    for j in range(0, p + 1):
        out = out + GammaElement.generator(p - j, "b") * GammaElement.from_poly(
            elem_sym(n, j, "x"), "b"
        )
    return out


@lru_cache(maxsize=None)
def level_b_prime(n: int) -> GammaElement:
    """{}^n b'_n = sum_{j<n} b_{n-j} e_j(X_n)."""
    out = GammaElement.zero("b")
    for j in range(0, n):
        out = out + GammaElement.generator(n - j, "b") * GammaElement.from_poly(
            elem_sym(n, j, "x"), "b"
        )
    return out


@lru_cache(maxsize=None)
def btilde(n: int) -> GammaElement:
    """btilde_n = sum_{j<n} b_{n-j} e_j(-Y_n), a kernel generator in type D."""
    out = GammaElement.zero("b")
    for j in range(0, n):
        out = out + GammaElement.generator(n - j, "b") * GammaElement.from_poly(
            elem_sym(n, j, "-y"), "b"
        )
    return out


def c_to_b(f: GammaElement) -> GammaElement:
    """The embedding Gamma -> Gamma' sending c_p to 2 b_p."""
    assert f.family == "c"
    out = {}
    for (subs, xk, yk), c in f.terms.items():
        out[(subs, xk, yk)] = c.times_pow2(len(subs))
    return GammaElement("b", out)


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
    return oracle_raw_embed(f.family, [(s, x, y, c) for (s, x, y), c in f.terms.items()])


def oracle_raw_embed(family: str, raw_terms) -> dict:
    """Embed a raw (un-normalized) list of (subscripts, x-exps, y-exps, coeff)
    term by term: c_p -> q_p, b_p -> q_p / 2, x and y unchanged.

    The image is {(lam, xk, yk): Fraction} with lam a decreasing tuple of odd
    power-sum indices.  The model is faithful in every degree and applies no
    relation, so it checks the rewriting independently.
    """
    from fractions import Fraction
    scale = Fraction(1, 2) if family == "b" else Fraction(1)
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
                    prod[k] = prod.get(k, 0) + a * b * scale
            piece = prod
        xk, yk = _trim(tuple(xk)), _trim(tuple(yk))
        for lam, c in piece.items():
            out[(lam, xk, yk)] = out.get((lam, xk, yk), 0) + c
    return {k: c for k, c in out.items() if c}
