"""Deterministic serialization of ring elements: JSON documents and LaTeX.

The JSON schema (version 1) stores an ordered term list in graded-lex order;
parse(render(doc)) reproduces the document bit-exactly.  A document of
family "c" lists the coefficients of the c_lambda monomials; one of family
"b" (types B and D, eta polynomials, hatted Pfaffians) lists them in the
b basis, where c_lambda = 2^{l(lambda)} b_lambda.  Elements themselves are
always in the c basis (see ``gammaring``).
"""

from __future__ import annotations

import json

from ._record import Record
from .polyring import Dyadic
from .gammaring import GammaElement

SCHEMA_VERSION = 1


class PolynomialDocument(Record):
    """``terms`` is [[coeff string, [subscripts], [x exps], [y exps]], ...]."""

    __slots__ = ("family", "terms", "metadata")
    __hash__ = None

    def __init__(self, family: str, terms: list, metadata: dict | None = None):
        self.family, self.terms = family, terms
        self.metadata = {} if metadata is None else metadata

    def to_json_obj(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "ring": {"family": self.family},
            "terms": self.terms,
            "metadata": self.metadata,
        }


def _coeff_str(c: Dyadic) -> str:
    return str(c.num) if c.exp == 0 else f"{c.num}/2^{c.exp}"


def _coeff_parse(s: str) -> Dyadic:
    if "/2^" in s:
        num, exp = s.split("/2^")
        return Dyadic(int(num), int(exp))
    return Dyadic(int(s))


def _basis_terms(f: GammaElement, family: str) -> list:
    """f's terms in graded-lex order, each coefficient in the family's basis."""
    if family == "c":
        return f.sorted_terms()
    return [(k, c.times_pow2(len(k[0]))) for k, c in f.sorted_terms()]


def gamma_to_document(
    f: GammaElement, family: str = "c", metadata: dict | None = None
) -> PolynomialDocument:
    terms = [
        [_coeff_str(c), list(subs), list(xk), list(yk)]
        for (subs, xk, yk), c in _basis_terms(f, family)
    ]
    return PolynomialDocument(family, terms, metadata or {})


def document_to_gamma(doc: PolynomialDocument) -> GammaElement:
    shift = doc.family == "b"
    t = {}
    for coeff, subs, xk, yk in doc.terms:
        c = _coeff_parse(coeff)
        t[(tuple(subs), tuple(xk), tuple(yk))] = c.times_pow2(-len(subs)) if shift else c
    return GammaElement(t)


def render_document(doc: PolynomialDocument) -> str:
    return json.dumps(doc.to_json_obj(), sort_keys=True, separators=(",", ":")) + "\n"


def parse_document(text: str) -> PolynomialDocument:
    """Parse a rendered document; raises ValueError for any other JSON."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("not a polynomial document")
    if obj.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema {obj.get('schema')!r}")
    ring, terms = obj.get("ring"), obj.get("terms")
    if not (isinstance(ring, dict) and ring.get("family") in ("c", "b") and isinstance(terms, list)):
        raise ValueError("a polynomial document needs a ring family and a term list")
    return PolynomialDocument(ring["family"], terms, obj.get("metadata", {}))


def gamma_to_latex(f: GammaElement, family: str = "c") -> str:
    """Render with the usual conventions: c_p / b_p generators, x^a y^b."""
    if not f.terms:
        return "0"
    bits = []
    for (subs, xk, yk), c in _basis_terms(f, family):
        mono = ""
        for p in subs:
            mono += f"{family}_{{{p}}}"
        for name, key in (("x", xk), ("y", yk)):
            for i, e in enumerate(key):
                if e == 1:
                    mono += f"{name}_{{{i + 1}}}"
                elif e:
                    mono += f"{name}_{{{i + 1}}}^{{{e}}}"
        if c == 1 and mono:
            coeff = ""
        elif c == Dyadic(-1) and mono:
            coeff = "-"
        else:
            coeff = _coeff_latex(c)
        sep = r"\," if mono and coeff not in ("", "-") else ""
        bits.append((coeff + sep + mono) or "1")
    out = bits[0]
    for b in bits[1:]:
        out += " + " + b if not b.startswith("-") else " - " + b[1:]
    return out


def _coeff_latex(c: Dyadic) -> str:
    if c.exp == 0:
        return str(c.num)
    return rf"\frac{{{c.num}}}{{2^{{{c.exp}}}}}"
