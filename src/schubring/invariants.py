"""Exact linear algebra over Q for the graded checks of ``verify``.

A graded piece is handled as coefficient rows with respect to a monomial
basis of the ambient ring (keys (subscripts, x-exps, y-exps)), read straight
off the elements' int numerators as primitive integer rows; ranks and span
comparisons use sparse fraction-free elimination over Q on them (Bareiss,
Math. Comp. 22, 1968), so every report is exact.  The graded pieces
themselves are built in ``kernel``.
"""

from __future__ import annotations

from math import gcd, lcm

from .gammaring import GammaElement, _pack


# id(basis) -> (basis, {(subscripts, packed monomial): column}); holding the
# basis keeps its id from reuse
_COLUMNS: dict = {}


def _columns(basis: tuple) -> dict:
    got = _COLUMNS.get(id(basis))
    if got is None:
        got = _COLUMNS[id(basis)] = (basis, {(s, _pack(x, y)): i for i, (s, x, y) in enumerate(basis)})
    return got[1]


def to_vector(f: GammaElement, basis: tuple) -> list[Fraction]:
    from fractions import Fraction
    vec = [Fraction(0)] * len(basis)
    index = _columns(basis)
    for k, n in f.nums.items():
        vec[index[k]] = Fraction(n, 1 << f.exp)
    return vec


def _row(elements, basis: tuple) -> dict[int, int]:
    """The primitive integer row {column: int} of the elements laid side by
    side, each over the basis, read off their numerators brought to one
    power of two."""
    index, width = _columns(basis), len(basis)
    e = max((f.exp for f in elements), default=0)
    row = {}
    for j, f in enumerate(elements):
        for k, n in f.nums.items():
            row[index[k] + j * width] = n << (e - f.exp)
    g = gcd(*row.values())
    return {c: n // g for c, n in row.items()} if g > 1 else row


def _primitive_row(row) -> dict[int, int]:
    """The primitive integer multiple of a rational row, dense or
    {column: value}, as {column: int}."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    entries = [(j, v.numerator, v.denominator) for j, v in items if v]
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
    """Sparse fraction-free echelon form over Q of primitive integer rows:
    the nonzero reduced rows, keyed by their leading column."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = _reduce(row, pivots)
        if r:
            lead = min(r)
            pivots[lead] = r if r[lead] > 0 else {j: -v for j, v in r.items()}
    return pivots


def _same_span(ea: dict, eb: dict) -> bool:
    """Equal ranks and every row of eb in the span of ea."""
    return len(ea) == len(eb) and not any(_reduce(r, ea) for r in eb.values())


def exact_rank(rows: list[list[Fraction]]) -> int:
    """Rank over Q."""
    return len(echelon(map(_primitive_row, rows)))
