"""Deterministic serialization of ring elements: JSON documents and LaTeX.

The JSON schema (version 1) stores an ordered term list in graded-lex order;
parse(render(doc)) reproduces the document bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .polyring import Dyadic
from .gammaring import GammaElement

SCHEMA_VERSION = 1


@dataclass
class PolynomialDocument:
    family: str
    terms: list  # [[coeff string, [subscripts], [x exps], [y exps]], ...]
    metadata: dict = field(default_factory=dict)

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


def gamma_to_document(f: GammaElement, metadata: dict | None = None) -> PolynomialDocument:
    terms = [
        [_coeff_str(c), list(subs), list(xk), list(yk)]
        for (subs, xk, yk), c in f.sorted_terms()
    ]
    return PolynomialDocument(f.family, terms, metadata or {})


def document_to_gamma(doc: PolynomialDocument) -> GammaElement:
    t = {}
    for coeff, subs, xk, yk in doc.terms:
        t[(tuple(subs), tuple(xk), tuple(yk))] = _coeff_parse(coeff)
    return GammaElement(doc.family, t)


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


def gamma_to_latex(f: GammaElement) -> str:
    """Render with the usual conventions: c_p / b_p generators, x^a y^b."""
    if not f.terms:
        return "0"
    bits = []
    for (subs, xk, yk), c in f.sorted_terms():
        mono = ""
        for p in subs:
            mono += f"{f.family}_{{{p}}}"
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
