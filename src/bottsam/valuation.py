"""Vanishing-order valuations along the nested boundary flag.

On the open cell the j-th flag member is the vanishing locus of t_j, so the
valuation of a section is the lexicographically minimal exponent vector of
its cell polynomial under the fixed variable order t_1 > t_2 > ... > t_n.
Adapted bases are triangularized so that valuation vectors enumerate
dimensions exactly.
"""

from __future__ import annotations

from typing import Sequence

from ._kernel import IncrementalSpan
from ._poly import Polynomial
from .errors import ValidationError
from .sections import SectionPoly


def valuation(section: SectionPoly | Polynomial) -> tuple[int, ...]:
    """Lexicographically minimal exponent vector of a nonzero section."""
    poly = section.poly if isinstance(section, SectionPoly) else section
    if not poly:
        raise ValidationError("the zero section has no valuation")
    return poly.lex_min_monomial()


def adapted_basis(sections: Sequence[SectionPoly]) -> list[SectionPoly]:
    """Triangularize a basis so its valuation vectors are pairwise distinct.

    Reduction happens within torus-weight groups, which keeps the output
    sections weight homogeneous; distinctness across groups is automatic
    because the valuation determines the weight drop of a monomial.
    """
    groups: dict = {}
    order: list = []
    for section in sections:
        key = section.weight
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(section)
    adapted: list[SectionPoly] = []
    for key in order:
        span = IncrementalSpan()
        for section in groups[key]:
            if not section.poly:
                raise ValidationError("adapted_basis needs nonzero sections")
            # span.add returns a primitive integer row whose lex-min
            # monomial has a positive coefficient: a normalized polynomial.
            reduced = span.add(dict(section.poly.terms))
            if reduced is None:
                raise ValidationError(
                    "sections are not linearly independent")
            adapted.append(SectionPoly(
                Polynomial(section.poly.nvars, reduced), key))
    return adapted

