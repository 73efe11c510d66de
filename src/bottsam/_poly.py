"""Sparse exact multivariate polynomials over the rationals.

Monomials are exponent tuples. A coefficient is stored as an int when it is
integral and as a Fraction only when it is not, so products of integral
polynomials stay in int arithmetic; values and equality do not depend on the
type. Everything here is exact; nothing ever touches floating point. This is
internal plumbing shared by the section and chart machinery.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add
from typing import Iterable, Mapping, Sequence

from ._kernel import clear_denominators, normalize_row

Mono = tuple[int, ...]


class Polynomial:
    """A sparse polynomial in nvars variables with rational coefficients.

    Each stored coefficient is an int when it is integral and a Fraction
    otherwise.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Mono, Fraction | int] | None = None):
        self.nvars = nvars
        clean: dict[Mono, Fraction | int] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    if coeff.__class__ is not int:
                        coeff = Fraction(coeff)
                        if coeff.denominator == 1:
                            coeff = coeff.numerator
                    clean[mono] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        mono = tuple(1 if j == index else 0 for j in range(nvars))
        return cls(nvars, {mono: 1})

    @classmethod
    def monomial(cls, nvars: int, mono: Sequence[int], coeff=1) -> "Polynomial":
        return cls(nvars, {tuple(mono): coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None  # mutable dict inside; never used as a key

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()})

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial(self.nvars, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial.zero(self.nvars)
            return Polynomial(self.nvars,
                              {m: c * other for m, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        out: dict[Mono, Fraction | int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Polynomial(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Polynomial":
        if power < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = Polynomial.one(self.nvars)
        for _ in range(power):
            result = result * self
        return result

    def shifted(self, mono: Sequence[int]) -> "Polynomial":
        """Multiply by the monomial with the given exponent vector."""
        mono = tuple(mono)
        return Polynomial(self.nvars,
                          {tuple(a + b for a, b in zip(m, mono)): c
                           for m, c in self.terms.items()})

    def remainder(self, divisor: "Polynomial") -> "Polynomial":
        """Remainder of division by divisor in lex order (x_1 heaviest).

        A single polynomial is a Groebner basis of the ideal it generates,
        so the remainder is unique: no term of it is divisible by the
        divisor's leading monomial, it is 0 exactly when divisor divides
        self, and it is linear in self.  The terms still to reduce sit in a
        heap, largest tuple first; each reduction step only adds smaller
        terms, so every monomial is settled once.
        """
        if not divisor.terms:
            raise ZeroDivisionError("division by the zero polynomial")
        lead = max(divisor.terms)
        lc = divisor.terms[lead]
        tail = [(m, c) for m, c in divisor.terms.items() if m != lead]
        work = dict(self.terms)
        heap = [tuple([-e for e in m]) for m in work]
        heapify(heap)
        out: dict[Mono, Fraction | int] = {}
        while heap:
            mono = tuple([-e for e in heappop(heap)])
            c = work.pop(mono, 0)
            if not c:
                continue
            shift = tuple([a - b for a, b in zip(mono, lead)])
            if min(shift) < 0:
                out[mono] = c
                continue
            if c.__class__ is int and lc.__class__ is int and not c % lc:
                q = c // lc
            else:
                q = Fraction(c) / lc
            for m, d in tail:
                t = tuple([a + b for a, b in zip(m, shift)])
                s = work.get(t)
                if s is None:
                    work[t] = -q * d
                    heappush(heap, tuple([-e for e in t]))
                else:
                    work[t] = s - q * d
        return Polynomial(self.nvars, out)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            value = coeff
            for exp, p in zip(mono, point):
                if exp:
                    value *= Fraction(p) ** exp
            total += value
        return total

    def lex_min_monomial(self) -> Mono:
        """Lexicographically smallest exponent vector (x_1 heaviest)."""
        if not self.terms:
            raise ValueError("the zero polynomial has no monomials")
        return min(self.terms)

    def min_degree_in(self, index: int) -> int:
        if not self.terms:
            raise ValueError("the zero polynomial has no degrees")
        return min(m[index] for m in self.terms)

    def max_degree_in(self, index: int) -> int:
        if not self.terms:
            return 0
        return max(m[index] for m in self.terms)

    def normalized(self) -> "Polynomial":
        """Scale so the coefficients are coprime integers and the
        lexicographically smallest monomial has a positive coefficient."""
        if not self.terms:
            return self
        return Polynomial(self.nvars,
                          normalize_row(clear_denominators(self.terms)))

    def __repr__(self) -> str:
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for mono, coeff in sorted(self.terms.items())[:6]:
            vars_part = "*".join(f"x{j + 1}^{e}" if e > 1 else f"x{j + 1}"
                                 for j, e in enumerate(mono) if e)
            if vars_part:
                bits.append(f"{coeff}*{vars_part}" if coeff != 1 else vars_part)
            else:
                bits.append(str(coeff))
        tail = " + ..." if len(self.terms) > 6 else ""
        return f"Polynomial({' + '.join(bits)}{tail})"


def integer_rows(polys: Iterable[Polynomial],
                 monomial_index: Mapping[Mono, int]) -> list[dict[int, int]]:
    """Express polynomials as integer rows over an indexed monomial set.

    Each polynomial's coefficients are scaled by their common denominator, so
    the rows span the same rational row space.
    """
    return [clear_denominators({monomial_index[m]: c
                                for m, c in poly.terms.items()})
            for poly in polys]
