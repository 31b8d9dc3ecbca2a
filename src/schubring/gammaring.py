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

Products and the index-0 action run on int numerators over one power of two
per operand, with the terms grouped by subscript tuple, so the rewriting is
looked up once per pair of tuples (Monagan & Pearce, CASC 2007).

The type D ring Gamma' = Z[b]/(relations) is Gamma with b_p = c_p / 2: over
Q, P_lambda = 2^{-l(lambda)} Q_lambda (Macdonald III.8), and substituting
b_p = c_p / 2 into the b relation and multiplying by 4 gives the c relation.
So type B and D elements are kept in the c basis too, with dyadic
coefficients; only ``serialize`` lists them in the b basis, where
c_lambda = 2^{l(lambda)} b_lambda.
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


def _numerators(terms: dict) -> tuple[dict, int]:
    """Group terms by subscript tuple as int numerators over one power of two:
    ({subs: {(xk, yk): num}}, e), each coefficient being num / 2^e."""
    e = max((c.exp for c in terms.values()), default=0)
    groups: dict = {}
    for (subs, xk, yk), c in terms.items():
        groups.setdefault(subs, {})[(xk, yk)] = c.num << (e - c.exp)
    return groups, e


def _group_product(g1: dict, g2: dict) -> dict:
    """The product of two grouped int elements, grouped the same way by
    strict subscript tuple.  Per pair of groups the x/y products are formed
    once and ``_strictify`` is called once; zero numerators may remain."""
    out: dict = {}
    for s1, m1 in g1.items():
        for s2, m2 in g2.items():
            prod: dict = {}
            for (x1, y1), n1 in m1.items():
                for (x2, y2), n2 in m2.items():
                    k = (_madd(x1, x2), _madd(y1, y2))
                    prod[k] = prod.get(k, 0) + n1 * n2
            for strict, mult in _strictify(tuple(sorted(s1 + s2, reverse=True))):
                acc = out.setdefault(strict, {})
                for k, n in prod.items():
                    acc[k] = acc.get(k, 0) + n * mult
    return out


class GammaElement:
    """An element of Gamma[X, Y].

    terms maps (subscripts, x-exponents, y-exponents) to a Dyadic coefficient,
    with the subscript tuple strictly decreasing.  Treated as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = terms if terms is not None else {}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "GammaElement":
        return GammaElement()

    @staticmethod
    def const(c) -> "GammaElement":
        c = Dyadic(c) if isinstance(c, int) else c
        return GammaElement({((), (), ()): c} if c else {})

    @staticmethod
    def generator(p: int) -> "GammaElement":
        """c_p, with subscript 0 meaning 1 and negative meaning 0."""
        if p < 0:
            return GammaElement()
        if p == 0:
            return GammaElement.const(1)
        return GammaElement({((p,), (), ()): D_ONE})

    @staticmethod
    def from_raw(raw_terms) -> "GammaElement":
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
            for strict, mult in _strictify(subs):
                k = (strict, key_x, key_y)
                s = out.get(k, D_ZERO) + coeff * mult
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        return GammaElement(out)

    @staticmethod
    def from_poly(poly: SparsePoly) -> "GammaElement":
        """Embed a plain polynomial in x and y."""
        return GammaElement({((), xk, yk): c for (xk, yk), c in poly.terms.items()})

    @staticmethod
    def monomial(xk=(), yk=()) -> "GammaElement":
        assert all(e >= 0 for e in xk) and all(e >= 0 for e in yk)
        return GammaElement({((), _trim(tuple(xk)), _trim(tuple(yk))): D_ONE})

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "GammaElement") -> "GammaElement":
        return GammaElement(_add_into(dict(self.terms), other.terms))

    def __sub__(self, other: "GammaElement") -> "GammaElement":
        return self + (-other)

    def __neg__(self) -> "GammaElement":
        return GammaElement({k: -c for k, c in self.terms.items()})

    def __mul__(self, other) -> "GammaElement":
        if isinstance(other, (int, Dyadic)):
            c = Dyadic(other) if isinstance(other, int) else other
            if not c:
                return GammaElement()
            return GammaElement({k: v * c for k, v in self.terms.items()})
        (g1, e1), (g2, e2) = _numerators(self.terms), _numerators(other.terms)
        prod, out = _group_product(g1, g2), {}
        while prod:  # group by group, so the int copy shrinks as the result grows
            s, acc = prod.popitem()
            out.update(((s, xk, yk), Dyadic(n, e1 + e2)) for (xk, yk), n in acc.items() if n)
        return GammaElement(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, GammaElement) and self.terms == other.terms

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
        return GammaElement(
            {
                k: c
                for k, c in self.terms.items()
                if len(k[1]) <= n and len(k[2]) <= n
            }
        )

    def set_y_zero(self) -> "GammaElement":
        return GammaElement({k: c for k, c in self.terms.items() if not k[2]})

    def negate_x(self) -> "GammaElement":
        """Substitute x_i -> -x_i for all i."""
        return GammaElement(
            {k: (c if sum(k[1]) % 2 == 0 else -c) for k, c in self.terms.items()}
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
        return GammaElement(out)

    def omega(self) -> "GammaElement":
        """The involution x_j -> -y_j, y_j -> -x_j, fixing the generators."""
        out = {}
        for (subs, xk, yk), c in self.terms.items():
            sign = (-1) ** ((sum(xk) + sum(yk)) % 2)
            out[(subs, yk, xk)] = c * sign
        return GammaElement(out)


# ---------------------------------------------------------------------------
# the Weyl group action
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _s0_image(p: int) -> dict:
    """s_0(c_p) = c_p + 2 sum_{j=1}^p x_1^j c_{p-j}, grouped as by _numerators."""
    raw = [((p,), (), (), 1)]
    for j in range(1, p + 1):
        raw.append(([p - j], (j,), (), 2))
    return _numerators(GammaElement.from_raw(raw).terms)[0]


@lru_cache(maxsize=None)
def _sbox_image(p: int) -> dict:
    """s_box(c_p) = c_p + 2 (x1+x2) sum_{j=0}^{p-1} h_j(x1,x2) c_{p-1-j},
    grouped as by _numerators."""
    lin = GammaElement.from_poly(SparsePoly.var("x", 1) + SparsePoly.var("x", 2))
    total = GammaElement.zero()
    for j in range(0, p):
        hj = GammaElement.from_poly(complete_sym(2, j, "x"))
        total = total + hj * GammaElement.generator(p - 1 - j)
    return _numerators((GammaElement.generator(p) + lin * total * 2).terms)[0]


def act_generator(i: int, f: GammaElement, flavor: str = "BC") -> GammaElement:
    """Apply the simple reflection s_i of the flavor's Weyl group to f (ring
    action, y fixed).

    Index 0 means s_0 in flavor BC and the branch reflection in flavor D.
    """
    if i >= 1:
        # swapping x_i and x_{i+1} is a bijection on monomials: no terms meet
        out: dict = {}
        for (subs, xk, yk), c in f.terms.items():
            lst = list(xk) + [0] * max(0, i + 1 - len(xk))
            lst[i - 1], lst[i] = lst[i], lst[i - 1]
            out[(subs, _trim(tuple(lst)), yk)] = c
        return GammaElement(out)
    # s_0 (flavor BC): x_1 -> -x_1; branch node (flavor D): (x1, x2) ->
    # (-x2, -x1).  The moved monomials and their signs go into int numerators
    # over one power of two, grouped by subscript tuple.  In sorted order,
    # stack[j] is the y-free image of the first j subscripts, so each group's
    # image extends the longest prefix it shares with the previous tuple.
    branch = flavor == "D"
    image = _sbox_image if branch else _s0_image
    groups, e = _numerators(f.terms)
    out: dict = {}
    stack = [{(): {((), ()): 1}}]
    prev: tuple = ()
    for subs in sorted(groups):
        j = 0
        while j < len(prev) and j < len(subs) and prev[j] == subs[j]:
            j += 1
        del stack[j + 1:]
        for p in subs[j:]:
            stack.append(_group_product(stack[-1], image(p)))
        prev = subs
        img = [(s2, x2, n2) for s2, acc in stack[-1].items() for (x2, _), n2 in acc.items() if n2]
        for (xk, yk), n in groups[subs].items():
            a1, a2 = (xk + (0, 0))[:2]
            odd = a1 % 2
            if branch:
                xk = _trim((a2, a1) + xk[2:])
                odd = (a1 + a2) % 2
            n = -n if odd else n
            for s2, x2, n2 in img:
                k = (s2, _madd(xk, x2), yk)
                out[k] = out.get(k, 0) + n * n2
    return GammaElement({k: Dyadic(n, e) for k, n in out.items() if n})


def weyl_act(w, f: GammaElement) -> GammaElement:
    """Apply a group element to f."""
    for i in reversed(w.reduced_word()):
        f = act_generator(i, f, w.flavor)
    return f


# ---------------------------------------------------------------------------
# the indexed entries  {}^k c^{k'}_p  and their hatted variants
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def c_entry(k: int, kprime: int, p: int) -> GammaElement:
    """{}^k c^{k'}_p = sum_{i,j} c_{p-j-i} h^{-k}_i(X) h^{k'}_j(-Y)."""
    if p < 0:
        return GammaElement.zero()
    out = GammaElement.zero()
    for i in range(0, p + 1):
        hx = complete_sym(-k, i, "x")
        if not hx:
            continue
        hxe = GammaElement.from_poly(hx)
        for j in range(0, p - i + 1):
            hy = complete_sym(kprime, j, "-y")
            if not hy:
                continue
            gen = GammaElement.generator(p - i - j)
            out = out + gen * hxe * GammaElement.from_poly(hy)
    return out


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
