"""Flag valuation and adapted bases."""

from __future__ import annotations

import random

import pytest

from bottsam import ValidationError, WeylWord
from bottsam._poly import Polynomial
from bottsam.sections import SectionEngine
from bottsam.valuation import adapted_basis, valuation

from oracles import dense_rank


def random_polynomial(rng, nvars):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        mono = tuple(rng.randint(0, 4) for _ in range(nvars))
        terms[mono] = rng.randint(-5, 5) or 1
    return Polynomial(nvars, terms)


def test_valuation_is_the_lex_minimal_exponent():
    poly = Polynomial(3, {(1, 0, 0): 1, (0, 0, 1): 1})
    assert valuation(poly) == (0, 0, 1)
    assert valuation(Polynomial(2, {(2, 1): -3})) == (2, 1)


def test_valuation_of_zero_is_rejected():
    with pytest.raises(ValidationError):
        valuation(Polynomial(2))


def test_valuation_is_multiplicative():
    rng = random.Random(20260819)
    for _ in range(40):
        nvars = rng.randint(1, 4)
        f = random_polynomial(rng, nvars)
        g = random_polynomial(rng, nvars)
        product = f * g
        if not product.terms:
            continue
        expected = tuple(a + b for a, b in zip(valuation(f), valuation(g)))
        assert valuation(product) == expected


def test_valuation_accepts_section_wrappers(a2):
    engine = SectionEngine(a2, WeylWord([1, 2]))
    section = engine.boundary_section(2)
    assert valuation(section) == (0, 1)


def test_adapted_basis_has_distinct_valuations(a2):
    engine = SectionEngine(a2, WeylWord([1, 2]))
    basis = engine.section_basis_nef((2, 1))
    adapted = adapted_basis(basis)
    assert len(adapted) == len(basis)
    vals = [valuation(sp) for sp in adapted]
    assert len(set(vals)) == len(vals)
    monos = sorted({m for sp in basis for m in sp.poly.terms})
    index = {m: i for i, m in enumerate(monos)}

    def rows(sections):
        return [{index[m]: c for m, c in sp.poly.terms.items()}
                for sp in sections]

    joint = dense_rank(rows(basis) + rows(adapted), len(monos))
    assert joint == dense_rank(rows(basis), len(monos)) == len(basis)


def test_adapted_basis_preserves_weights(a2):
    engine = SectionEngine(a2, WeylWord([1, 2]))
    basis = engine.section_basis_nef((1, 1))
    adapted = adapted_basis(basis)
    original = sorted(sp.weight.coords for sp in basis)
    echeloned = sorted(sp.weight.coords for sp in adapted)
    assert original == echeloned

