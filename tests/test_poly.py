"""Sparse polynomials against an all-Fraction reference."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from bottsam._poly import Polynomial

PROPERTY = settings(max_examples=80)

NVARS = 2

# Integral Fractions such as Fraction(4, 2) are drawn on purpose: they must
# come back as ints.
coefficients = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))
monomials = st.tuples(*[st.integers(0, 3)] * NVARS)
term_maps = st.dictionaries(monomials, coefficients, max_size=5)
points = st.tuples(*[st.builds(Fraction, st.integers(-4, 4),
                               st.integers(1, 3))] * NVARS)


def reference_sum(a, b):
    out = {m: Fraction(c) for m, c in a.items() if c}
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + Fraction(c)
    return {m: c for m, c in out.items() if c}


def reference_product(a, b):
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return {m: c for m, c in out.items() if c}


def assert_int_exactly_when_integral(poly):
    for c in poly.terms.values():
        assert isinstance(c, (int, Fraction))
        assert (type(c) is int) == (Fraction(c).denominator == 1)


@PROPERTY
@given(term_maps, term_maps, points)
def test_arithmetic_matches_the_fraction_reference(a, b, point):
    p, q = Polynomial(NVARS, a), Polynomial(NVARS, b)
    total, product = p + q, p * q
    assert total.evaluate(point) == p.evaluate(point) + q.evaluate(point)
    assert product.evaluate(point) == p.evaluate(point) * q.evaluate(point)
    for poly in (p, q, total, product, p * Fraction(2, 3), -p):
        assert_int_exactly_when_integral(poly)
    assert p.terms == reference_sum(a, {})
    assert total.terms == reference_sum(a, b)
    assert product.terms == reference_product(a, b)


@PROPERTY
@given(term_maps)
def test_normalized_gives_coprime_integers_with_positive_lead(a):
    p = Polynomial(NVARS, a)
    n = p.normalized()
    if not p:
        assert not n
        return
    assert set(n.terms) == set(p.terms)
    assert all(type(c) is int for c in n.terms.values())
    assert gcd(*n.terms.values()) == 1
    lead = min(n.terms)
    assert n.terms[lead] > 0
    ratio = Fraction(n.terms[lead]) / p.terms[lead]
    assert all(n.terms[m] == ratio * c for m, c in p.terms.items())


def test_constructors_store_integral_values_as_int():
    assert Polynomial.constant(2, Fraction(6, 3)).terms == {(0, 0): 2}
    assert type(Polynomial.constant(2, Fraction(6, 3)).terms[(0, 0)]) is int
    assert type(Polynomial.one(2).terms[(0, 0)]) is int
    half = Polynomial.monomial(2, (1, 0), 0.5)
    assert half.terms == {(1, 0): Fraction(1, 2)}
    assert type(half.terms[(1, 0)]) is Fraction
    assert not Polynomial.constant(2, Fraction(0))


divisors = term_maps.filter(lambda terms: any(terms.values()))


def reference_division(f, d):
    """Quotient and remainder by plain long division: repeatedly cancel the
    largest term that the leading monomial of d divides."""
    lead = max(d.terms)
    rest = {m: Fraction(c) for m, c in f.terms.items()}
    quotient: dict = {}
    while True:
        divisible = [m for m, c in rest.items()
                     if c and all(a >= b for a, b in zip(m, lead))]
        if not divisible:
            break
        top = max(divisible)
        shift = tuple(a - b for a, b in zip(top, lead))
        coeff = rest[top] / d.terms[lead]
        quotient[shift] = quotient.get(shift, 0) + coeff
        for m, c in d.terms.items():
            mono = tuple(a + b for a, b in zip(m, shift))
            rest[mono] = rest.get(mono, 0) - coeff * c
    return Polynomial(NVARS, quotient), Polynomial(NVARS, rest)


@PROPERTY
@given(term_maps, term_maps, divisors, coefficients)
def test_remainder_is_the_unique_linear_division_remainder(a, b, dv, c):
    f, g, d = Polynomial(NVARS, a), Polynomial(NVARS, b), Polynomial(NVARS, dv)
    r = f.remainder(d)
    lead = max(d.terms)
    assert not any(all(x >= y for x, y in zip(m, lead)) for m in r.terms)
    assert_int_exactly_when_integral(r)
    quotient, expected = reference_division(f, d)
    assert r == expected
    assert quotient * d + r == f
    assert (f * d).remainder(d) == Polynomial.zero(NVARS)
    assert (f + g * c).remainder(d) == r + g.remainder(d) * c
