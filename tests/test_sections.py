"""Section spaces: spanning route, gluing route, and their agreement."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import sub

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bottsam import (
    Basis,
    CartanDatum,
    DivisorClass,
    EngineError,
    PicardLattice,
    SpanDeficiency,
    Unstable,
    ValidationError,
    VerificationFailure,
    WeylWord,
    bs_character,
)
from bottsam import _kernel, polyhedra, sections
from bottsam._poly import Polynomial
from bottsam.rootsys import Character, Weight, demazure_operator, is_reduced
from bottsam.sections import (
    FundamentalRep,
    GroupModel,
    SectionEngine,
    SectionPoly,
    _ChartFrame,
    _ChartPowers,
    _regular,
    _torus_weight,
)
from bottsam.valuation import adapted_basis, valuation

from oracles import (
    commutator_holds,
    dense_chart,
    dense_rank,
    dense_slot_sections,
    glue_space_by_filters,
    hirzebruch_count,
    oracle_actions,
    order_polytope_points,
)


def poly_terms(section):
    return {mono: coeff for mono, coeff in section.poly.terms.items()}


def span_rank(sections_a, sections_b=()):
    """Rank of the joint coefficient matrix over a shared monomial index."""
    polys = [sp.poly for sp in sections_a] + [sp.poly for sp in sections_b]
    monos = sorted({m for p in polys for m in p.terms})
    index = {m: i for i, m in enumerate(monos)}
    rows = [{index[m]: c for m, c in p.terms.items()} for p in polys]
    return dense_rank(rows, len(monos))


@pytest.fixture(scope="module")
def eng12(a2):
    return SectionEngine(a2, WeylWord([1, 2]))


@pytest.fixture(scope="module")
def eng121(a2):
    return SectionEngine(a2, WeylWord([1, 2, 1]))


@pytest.fixture(scope="module")
def engb2(b2):
    return SectionEngine(b2, WeylWord([1, 2]))


@pytest.fixture(scope="module")
def engb121(b2):
    return SectionEngine(b2, WeylWord([1, 2, 1]))


@pytest.fixture(scope="module")
def engg2():
    return SectionEngine(CartanDatum.from_type("G2"), WeylWord([1, 2]))


@pytest.fixture(scope="module")
def eng123():
    return SectionEngine(CartanDatum.from_type("A3"), WeylWord([1, 2, 3]))


def test_non_reduced_word_is_rejected(a2):
    with pytest.raises(ValidationError):
        SectionEngine(a2, WeylWord([1, 1]))


def test_slot_polynomials_length_two(eng12):
    slot1 = [poly_terms(sp) for sp in eng12.slot_polynomials(1)]
    assert slot1 == [{(0, 0): 1}, {(1, 0): 1}]
    slot2 = [poly_terms(sp) for sp in eng12.slot_polynomials(2)]
    assert slot2 == [{(0, 0): 1}, {(0, 1): 1}, {(1, 1): 1}]


def test_slot_polynomials_repeated_letter(eng121):
    slot3 = [poly_terms(sp) for sp in eng121.slot_polynomials(3)]
    assert slot3 == [{(0, 0, 0): 1},
                     {(1, 0, 0): 1, (0, 0, 1): 1},
                     {(0, 1, 1): 1}]


def test_first_coordinate_conventions(eng12, a2):
    """The first slot coordinate pins every sign and side convention."""
    slot1 = eng12.slot_polynomials(1)
    t1 = next(sp for sp in slot1 if poly_terms(sp) == {(1, 0): 1})
    assert valuation(t1) == (1, 0)
    shift = a2.fundamental_weight(1).coords
    root = a2.simple_root(1).coords
    assert t1.weight.coords == tuple(s - r for s, r in zip(shift, root))
    const = next(sp for sp in slot1 if poly_terms(sp) == {(0, 0): 1})
    assert const.weight.coords == shift


def test_nef_dimensions_match_characters(eng12, eng121, engb2, engg2,
                                         eng123):
    """The engine's one nef count, read off the tail character, is the
    size of the full character and of the spanning route's basis."""
    for engine in (eng12, eng121, engb2, engg2, eng123):
        for multidegree in _small_grid(engine.n, 2):
            expected = bs_character(engine.datum, engine.word,
                                    multidegree).dimension()
            assert engine.nef_dimension(multidegree) == expected
            assert len(engine.section_basis_nef(multidegree)) == expected
    with pytest.raises(ValidationError, match="nonnegative"):
        eng12.nef_dimension((1, -1))


def _small_grid(n, bound):
    if n == 2:
        return [(a, b) for a in range(bound + 1) for b in range(bound + 1)]
    return [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]


def test_glue_agrees_with_nef_in_dimension_and_span(eng12, engb2):
    for engine in (eng12, engb2):
        for multidegree in _small_grid(2, 2):
            nef = engine.section_basis_nef(multidegree)
            glue = engine.section_basis_glue(can=multidegree)
            assert len(nef) == len(glue)
            joint = span_rank(nef, glue)
            assert joint == span_rank(nef) == span_rank(glue) == len(nef)


def test_glue_repeated_letter_agreement(eng121):
    for multidegree in _small_grid(3, 1):
        nef = eng121.section_basis_nef(multidegree)
        glue = eng121.section_basis_glue(can=multidegree)
        assert len(nef) == len(glue)
        assert span_rank(nef, glue) == span_rank(nef) == len(nef)


def test_hirzebruch_counts(eng12):
    for c1 in range(3):
        for c2 in range(3):
            basis = eng12.section_basis_nef((c1, c2))
            assert len(basis) == hirzebruch_count(c1, c2)


def test_glue_off_the_nef_cone(eng12):
    twisted = eng12.section_basis_glue(can=(-2, 2))
    assert [poly_terms(sp) for sp in twisted] == [{(0, 2): 1}]
    assert twisted[0].weight.coords == (0, -2)
    assert [poly_terms(sp) for sp in eng12.section_basis_glue(can=(-1, 1))] \
        == [{(0, 1): 1}]


def test_glue_accepts_effective_coordinates(eng12, eng121):
    assert len(eng12.section_basis_glue(eff=(2, 1))) == 5
    assert len(eng121.section_basis_glue(eff=(0, 0, 1))) == 1


@pytest.mark.parametrize("word, matrix", [
    ((1, 2), ((1, -1), (0, 1))),
    ((1, 2, 1), ((1, -1, 1), (0, 1, -1), (0, 0, 1))),
], ids=["A2-12", "A2-121"])
def test_probe_run_polynomial_products_stay_bounded(a2, monkeypatch, word,
                                                    matrix):
    """Work regression: the glue route shares its chart power tables, and
    a repeated-letter probe makes one glue call.

    Rebuilding the coordinate powers for every weight class took 1,228,788
    products in the A2 (1,2) probe run, and sharing them 221,816.  A lift
    is one product over the shared power tables, unit factors skipped.
    A call count is deterministic where a time bound would be flaky.
    """
    lattice = PicardLattice(a2, WeylWord(word))
    calls = 0
    multiply = Polynomial.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return multiply(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    monkeypatch.setattr(Polynomial, "__rmul__", counted)
    assert lattice.change.matrix == matrix
    assert calls <= 100_000


@pytest.mark.parametrize("cartan, matrix, pins", [
    ("A2", ((1, -1), (0, 1)), (88, 30_158, 156, 457, 116)),
    ("B2", ((1, -1), (0, 1)), (88, 30_158, 156, 457, 116)),
    ("G2", ((1, -3), (0, 1)), (93, 34_739, 171, 844, 236)),
], ids=["A2", "B2", "G2"])
def test_probe_run_work_on_monomial_charts(monkeypatch, cartan, matrix, pins):
    """Work pins for the (1,2) probe runs, as glue calls, nullspace calls,
    chart tables, polynomial products and Fractions.

    Every chart of the A2 run is monomial, so no filter lifts or divides a
    polynomial: the products fell from 70,398 to 1,398, the ones that
    build the charts and their slot-factor powers, and to 858 once charts
    are read off sparse orbit vectors instead of dense matrix products.
    Regularity on those charts is a sign test on exponent vectors, with
    one row per irregular candidate, and one-column systems skip
    elimination; none of that moved a pin.  Every weight class of that
    word holds one candidate, so _glue_space now decides each class on
    each chart itself, and each box's classes are built once per run;
    neither moved a pin either, because each (class, chart) pair still
    makes its one nullspace call on the same one-column system and the
    charts and their tables are built as before.  The run still makes 88
    glue calls and one nullspace call per (class, chart) pair, 30,158 in
    all, as perfbench/selfcheck.py pins.  The boxes of a glue call share
    each chart's tables, so the run builds 156 of them, from 312 when
    each box built its own, and the products fell to 457.  The filters
    stay in the integers: the whole run builds 116 Fractions, from 16,953
    when nullspace back-substituted through Fractions and the span kept
    pivot-1 rows, from 1,202 when charts multiplied dense matrices, from
    226 when Demazure strings were ordered and stepped in Fractions, from
    160 when each nef probe built its tail's character afresh instead of
    reading the section engine's per-tail memo (nef_dimension), and from
    132 when Demazure operators divided along strings keyed by Fraction
    sort keys instead of applying the rank-one rule term by term (G2:
    236, from 244).  A
    one-candidate class then came to cost one sign test and its one
    one-column question per monomial chart it reaches, with no vector
    list or helper call around them, and nullspace answers such a
    question by a plain loop over its rows; the run took half its time
    and moved no pin.  B2 (1,2), the other word of the cone sessions,
    does the same work as A2.  The G2 (1,2) charts are monomial too; its
    basis change has the entry -3, and it makes more probes and products.
    """
    lattice = PicardLattice(CartanDatum.from_type(cartan), WeylWord((1, 2)))
    engine = lattice.engine
    counts = {"glue": 0, "nullspace": 0, "tables": 0, "mul": 0,
              "fraction": 0}
    multiply = Polynomial.__mul__
    glue = engine.section_basis_glue
    solve = sections.nullspace
    tables = engine._chart_powers

    def counted(name, call):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return call(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(Polynomial, "__mul__", counted("mul", multiply))
    monkeypatch.setattr(Polynomial, "__rmul__", counted("mul", multiply))
    monkeypatch.setattr(engine, "section_basis_glue", counted("glue", glue))
    monkeypatch.setattr(sections, "nullspace", counted("nullspace", solve))
    monkeypatch.setattr(engine, "_chart_powers", counted("tables", tables))
    monkeypatch.setattr(Fraction, "__new__",
                        counted("fraction", Fraction.__new__))
    assert lattice.change.matrix == matrix
    assert counts == dict(zip(counts, pins))


def test_probe_run_work_on_a_repeated_letter(a2, monkeypatch):
    """Work pins for the A2 (1,2,1) probe run.

    Its weight classes can hold several candidates.  While a class's
    vectors are single candidates, _glue_space decides it on a monomial
    chart by the sign test alone, with no nullspace or elimination, where
    each such (class, chart) pair used to go through _chart_filter: the
    run's 26 glue calls make 1,015 nullspace calls (4,290 before) and 38
    echelon calls (2,843 before), counting those of the basis-change
    solves.  Each chart table holds the remainders it has divided, per
    candidate and class top, for the rest of its glue call, so the doubled
    box does not lift and divide its base box's candidates again: the run
    makes 224 lifts (348 before).
    """
    lattice = PicardLattice(a2, WeylWord((1, 2, 1)))
    engine = lattice.engine
    counts = {"glue": 0, "nullspace": 0, "echelon": 0, "lift": 0}
    glue = engine.section_basis_glue
    solve = sections.nullspace
    reduce = _kernel.echelon
    lift = _ChartPowers.lift

    def counted(name, call):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return call(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(engine, "section_basis_glue", counted("glue", glue))
    monkeypatch.setattr(sections, "nullspace", counted("nullspace", solve))
    monkeypatch.setattr(_kernel, "echelon", counted("echelon", reduce))
    monkeypatch.setattr(_ChartPowers, "lift", counted("lift", lift))
    assert lattice.change.matrix == ((1, -1, 1), (0, 1, -1), (0, 0, 1))
    assert counts == {"glue": 26, "nullspace": 1_015, "echelon": 38,
                      "lift": 224}


def test_probe_run_builds_each_box_classes_once(a2, monkeypatch):
    """The A2 (1,2) probe run solves 176 degree boxes, 25 of them
    distinct, and builds the weight classes of each of those once; the
    memo is gone when the run returns, and when it raises."""
    lattice = PicardLattice(a2, WeylWord((1, 2)))
    engine = lattice.engine
    builds = []
    build = sections._weight_classes

    def counted(box, roots):
        builds.append(box)
        return build(box, roots)

    monkeypatch.setattr(sections, "_weight_classes", counted)
    assert lattice.change.matrix == ((1, -1), (0, 1))
    assert len(builds) == len(set(builds)) == 25
    assert engine._box_classes is None
    builds.clear()
    engine.section_basis_glue(can=(2, 1))
    engine.section_basis_glue(can=(2, 1))
    assert len(builds) == 2 * len(set(builds))

    # A wrong count off the column class (1, 0), whose spanning-route
    # target stays true, makes a nef probe fail.
    failing = PicardLattice(a2, WeylWord((1, 2)))
    count = failing.engine.nef_dimension
    monkeypatch.setattr(failing.engine, "nef_dimension",
                        lambda can: count(can) if can == (1, 0) else -1)
    with pytest.raises(VerificationFailure):
        failing.change
    assert failing.engine._box_classes is None


@pytest.mark.parametrize("engine", ["eng12", "engb2", "engg2", "eng123",
                                    "eng121", "engb121"])
def test_glue_space_matches_the_filter_loop(request, monkeypatch, engine):
    """_glue_space, with classes on monomial charts decided inline,
    returns the sections of the loop that sends every (class, chart) pair
    through _chart_filter: in the same order, with the same terms and
    weights.  It makes one nullspace call fewer for each pair of a class
    of two or more candidates and a monomial chart that the loop sends in
    with unit vectors, which it decides by the sign test alone, and as
    many calls as the loop on a word without a repeated letter, whose
    classes hold one candidate.  Classes are drawn at _initial_box and at
    its double."""
    engine = request.getfixturevalue(engine)
    calls = [0]
    solve = sections.nullspace

    def counted(rows, ncols):
        calls[0] += 1
        return solve(rows, ncols)

    monkeypatch.setattr(sections, "nullspace", counted)
    n = engine.n

    def tally(fn, *args, **kwargs):
        calls[0] = 0
        out = fn(*args, **kwargs)
        return ([(list(sp.poly.terms.items()), sp.weight)
                 for sp in out], calls[0])

    screened_total = [0]

    @settings(max_examples=25)
    @given(st.sampled_from(["can", "eff"]),
           st.tuples(*[st.integers(-2, 2)] * n), st.booleans())
    def check(kind, degree, doubled):
        can, eff = (degree, None) if kind == "can" else (None, degree)
        if eff is not None and not engine.is_multiplicity_free():
            can, eff = engine.effective_exponents(eff), None
        box = engine._initial_box(can, eff)
        if doubled:
            box = tuple(2 * b for b in box)
        screened = []
        got, got_calls = tally(engine._glue_space, can, eff, box, {})
        want, want_calls = tally(glue_space_by_filters, engine, can, eff,
                                 box, screened=screened)
        assert got == want
        assert got_calls == want_calls - len(screened)
        screened_total[0] += len(screened)

    check()
    assert (screened_total[0] > 0) != engine.is_multiplicity_free()


def _glue_classes(engine, box):
    """Candidates of a glue box grouped by torus weight, as _glue_space
    groups them."""
    classes = {}
    for a in sorted(itertools.product(*[range(b + 1) for b in box])):
        classes.setdefault(_torus_weight(a, engine._roots), []).append(a)
    return [classes[key] for key in sorted(classes)]


def _monomial_charts(engine, can, eff) -> list[_ChartPowers]:
    """The glue call's tables on the engine's monomial charts."""
    charts = (engine._chart_powers(f, can, eff)
              for f in itertools.product((0, 1), repeat=engine.n) if any(f))
    return [chart for chart in charts if chart.checks is not None]


@st.composite
def engine_classes(draw, engine):
    """A glue class and one of its monomial charts, as a glue call on the
    engine builds them: a random class can or eff, box and weight class.
    Words without a repeated letter have one candidate per weight class,
    so the candidates are also drawn as any distinct points of the box."""
    n = engine.n
    kinds = ["can", "eff"] if engine.is_multiplicity_free() else ["can"]
    kind = draw(st.sampled_from(kinds))
    low = -2 if kind == "can" else 0
    degree = draw(st.tuples(*[st.integers(low, 2)] * n))
    can, eff = (degree, None) if kind == "can" else (None, degree)
    box = draw(st.tuples(*[st.integers(1, 4)] * n))
    points = sorted(itertools.product(*[range(b + 1) for b in box]))
    cands = draw(st.sampled_from(_glue_classes(engine, box))
                 | st.lists(st.sampled_from(points), min_size=2, max_size=6,
                            unique=True))
    chart = draw(st.sampled_from(_monomial_charts(engine, can, eff)))
    return chart, cands


@st.composite
def single_term_tables(draw):
    """A random monomial chart with coefficients other than 1, Fractions
    among them, and an invertible exponent matrix S, with distinct
    candidate exponents.  The built-in models have unit coefficients."""
    coeffs = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-4, 3)])
    n = draw(st.integers(2, 3))
    term = st.builds(lambda e, c: Polynomial(n, {e: c}),
                     st.tuples(*[st.integers(0, 2)] * n), coeffs)
    tops, bottoms = (draw(st.lists(term, min_size=n + 1, max_size=n + 1))
                     for _ in range(2))
    frame = _ChartFrame((1,) * n, tuple(tops[1:]), tuple(bottoms[1:]), ())
    chart = _ChartPowers(frame, tops[0], bottoms[0])
    gaps = [map(sub, next(iter(top.terms)), next(iter(bottom.terms)))
            for top, bottom in zip(tops[1:], bottoms[1:])]
    matrix = [{j: v for j, v in enumerate(gap) if v} for gap in gaps]
    assume(dense_rank(matrix, n) == n)
    cands = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n),
                          min_size=1, max_size=6, unique=True))
    return chart, cands


@pytest.mark.parametrize("source", ["eng12", "engb2", "eng121", "engb121",
                                    "tables"])
def test_sign_test_filter_matches_the_remainder_filter(request, eng12,
                                                       source):
    """On a monomial chart, the glue loop's screen of unit vectors, the
    ones whose candidate passes the sign test, keeps exactly the vectors
    that the lift/remainder filter keeps on the same _ChartPowers, entry
    order included."""
    if source == "tables":
        engine, classes = eng12, single_term_tables()
    else:
        engine = request.getfixturevalue(source)
        classes = engine_classes(engine)
    outcomes = set()

    @settings(max_examples=60)
    @given(classes)
    def check(drawn):
        chart, cands = drawn
        assert chart.checks is not None
        units = [{i: 1} for i in range(len(cands))]
        screen = [vec for vec in units
                  if _regular(chart.checks, cands[next(iter(vec))])]
        remainder = engine._chart_filter(chart, cands, units)
        assert [list(v.items()) for v in screen] \
            == [list(v.items()) for v in remainder]
        outcomes.add((len(screen) == len(units), len(units) > 1))

    check()
    assert outcomes >= {(True, False), (False, False), (True, True),
                        (False, True)}


@pytest.mark.parametrize("engine", ["eng12", "engb2", "eng121"])
def test_distinct_candidates_leave_distinct_remainders(request, engine):
    """On a monomial chart the remainder of an irregular candidate is its
    own one-term lift, and distinct candidates leave distinct monomials, so
    the filter's system has one row per irregular candidate."""
    engine = request.getfixturevalue(engine)
    seen = set()

    @settings(max_examples=60)
    @given(engine_classes(engine))
    def check(drawn):
        chart, cands = drawn
        amax = tuple(map(max, zip(*cands)))
        for j, power in enumerate(amax):
            chart.grow(j, power)
        den = chart.denominator(amax)
        monos = []
        for a in cands:
            lift = chart.lift(a, amax)
            rest = lift.remainder(den).terms
            assert rest in ({}, lift.terms)
            monos.extend(rest)
        assert len(monos) == len(set(monos))
        seen.add(len(monos))

    check()
    assert max(seen) > 1


@pytest.mark.parametrize("engine, can", [
    ("eng12", (2, 1)),
    ("eng121", (1, 1, 1)),
])
def test_glue_solves_each_box_once(request, monkeypatch, engine, can):
    """From a box of ones the dimension grows twice before it settles; the
    doubling loop reuses each doubled space as its next base."""
    engine = request.getfixturevalue(engine)
    expected = engine.section_basis_glue(can=can)
    boxes = []
    solve = engine._glue_space

    def spy(can, eff, box, tables):
        boxes.append(box)
        return solve(can, eff, box, tables)

    monkeypatch.setattr(engine, "_initial_box",
                        lambda can, eff: (1,) * engine.n)
    monkeypatch.setattr(engine, "_glue_space", spy)
    got = engine.section_basis_glue(can=can)
    assert boxes == [(b,) * engine.n for b in (1, 2, 4, 8)]
    assert [(poly_terms(sp), sp.weight) for sp in got] \
        == [(poly_terms(sp), sp.weight) for sp in expected]


def test_monomial_basis_matches_glue_for_multiplicity_free(eng12):
    assert eng12.is_multiplicity_free()
    for can in [(-2, 2), (-1, 1), (0, 1), (1, 1)]:
        mono = eng12.monomial_section_basis(can=can)
        glue = eng12.section_basis_glue(can=can)
        assert len(mono) == len(glue)
        assert span_rank(mono, glue) == len(mono)


@pytest.mark.parametrize("engine, can, route", [
    ("eng12", (-1, 1), "monomial_section_basis"),
    ("eng12", (-2, 2), "monomial_section_basis"),
    ("eng12", (1, 1), "section_basis_nef"),
    ("eng121", (1, -1, 1), "section_basis_glue"),
    ("eng121", (0, 1, 1), "section_basis_nef"),
])
def test_section_basis_route_rule(request, monkeypatch, engine, can, route):
    engine = request.getfixturevalue(engine)
    chosen = getattr(engine, route)
    expected = chosen(can) if route == "section_basis_nef" else chosen(can=can)
    calls = []
    for name in ("section_basis_nef", "section_basis_glue",
                 "monomial_section_basis"):
        method = getattr(engine, name)
        monkeypatch.setattr(engine, name, lambda *args, _name=name,
                            _method=method, **kwargs:
                            calls.append(_name) or _method(*args, **kwargs))
    got = engine.section_basis(can=can)
    assert calls == [route]
    assert engine.section_route(can=can) == {
        "section_basis_nef": "spanning",
        "monomial_section_basis": "monomial",
        "section_basis_glue": "glue"}[route]
    assert got
    assert [(poly_terms(sp), sp.weight) for sp in got] \
        == [(poly_terms(sp), sp.weight) for sp in expected]


def test_span_deficiency_falls_back_to_the_glue_route(eng12, monkeypatch):
    """A nef class whose slot products fail to span takes the glue route."""
    expected = eng12.section_basis_glue(can=(1, 1))

    def deficient(multidegree):
        raise SpanDeficiency("slot products fell short")

    monkeypatch.setattr(eng12, "section_basis_nef", deficient)
    got = eng12.section_basis((1, 1))
    assert got
    assert [(poly_terms(sp), sp.weight) for sp in got] \
        == [(poly_terms(sp), sp.weight) for sp in expected]


def test_slot_products_that_fall_short_raise_and_fall_back(a2):
    """With slot 1's last section dropped, the products for (2, 1) span
    only 3 of its 7 dimensions: section_basis_nef raises SpanDeficiency
    and section_basis takes the glue route."""
    engine = SectionEngine(a2, WeylWord([1, 2]))
    engine._slot_polys[1] = engine.slot_polynomials(1)[:-1]
    with pytest.raises(SpanDeficiency,
                       match=r"^slot products span 3 of 7 dimensions for "
                             r"multidegree \(2, 1\)$"):
        engine.section_basis_nef((2, 1))
    got = engine.section_basis((2, 1))
    assert len(got) == engine.nef_dimension((2, 1)) == 7
    expected = SectionEngine(a2, WeylWord([1, 2])).section_basis_glue(
        can=(2, 1))
    assert [(poly_terms(sp), sp.weight) for sp in got] \
        == [(poly_terms(sp), sp.weight) for sp in expected]


def test_effective_coordinates_take_the_glue_route(monkeypatch,
                                                   lattice_a2_12,
                                                   lattice_a2_121):
    """A class in effective coordinates goes straight to the glue route,
    which never asks the route rule, a canonical-class rule."""
    for lattice in (lattice_a2_12, lattice_a2_121):
        engine = lattice.engine
        coords = (1,) * lattice.n
        expected = engine.section_basis_glue(eff=coords)
        calls = []
        for name in ("section_route", "section_basis_glue"):
            method = getattr(engine, name)
            monkeypatch.setattr(
                engine, name, lambda *args, _name=name, _method=method,
                **kwargs: calls.append(_name) or _method(*args, **kwargs))
        got = lattice.section_basis(DivisorClass(coords, Basis.EFFECTIVE))
        assert calls == ["section_basis_glue"]
        assert got and [(poly_terms(sp), sp.weight) for sp in got] \
            == [(poly_terms(sp), sp.weight) for sp in expected]
        with pytest.raises(TypeError):
            engine.section_route(eff=coords)


def test_monomial_exponents_are_the_adapted_valuations(eng12):
    """On a word without a repeated letter the monomial basis is already
    adapted and t^a has valuation a, so the exponents are the level set."""
    for can in [(-2, 2), (-1, 1), (-1, 3), (1, -1)]:
        basis = eng12.monomial_section_basis(can=can)
        assert eng12.monomial_exponents(can=can) \
            == [valuation(sp) for sp in basis] \
            == sorted(valuation(sp) for sp in adapted_basis(basis))


def test_monomial_basis_refuses_repeated_letters(eng121):
    assert not eng121.is_multiplicity_free()
    with pytest.raises(ValidationError):
        eng121.monomial_section_basis(can=(0, 1, 1))
    with pytest.raises(ValidationError):
        eng121.monomial_exponents(can=(1, -1, 1))


MONOMIAL_WORDS = [("A2", (1, 2)), ("A2", (2, 1)), ("B2", (1, 2)),
                  ("B2", (2, 1)), ("A3", (1, 2, 3)), ("A3", (2, 1, 3)),
                  ("A3", (3, 2, 1))]


def test_monomial_exponents_match_the_double_description(monkeypatch):
    """Back-substitution on the order matrices gives the lattice points of
    the order polytope that double description and a box scan give, and
    with the lattice point guard at 50 it refuses exactly the classes
    whose vertex bounding box holds more than 50 points.  monomial_box
    spans the same box, so the run guard sums what the oracle would."""
    engines = {(kind, word): SectionEngine(CartanDatum.from_type(kind),
                                           WeylWord(list(word)))
               for kind, word in MONOMIAL_WORDS}

    @settings(max_examples=150)
    @given(st.sampled_from(MONOMIAL_WORDS), st.data())
    def check(key, data):
        engine = engines[key]
        can = data.draw(st.tuples(*[st.integers(-4, 4)] * engine.n))
        a_rows, b_rows = engine._orders()
        points, box = order_polytope_points(a_rows, b_rows, can)
        assert engine.monomial_exponents(can=can) == points
        bounds = engine.monomial_box(can)
        assert box == (0 if bounds is None else math.prod(
            high - low + 1 for low, high in zip(*bounds)))
        with monkeypatch.context() as patch:
            patch.setattr(polyhedra, "_LATTICE_POINT_GUARD", 50)
            if box > 50:
                with pytest.raises(Unstable):
                    engine.monomial_exponents(can=can)
            else:
                assert engine.monomial_exponents(can=can) == points

    check()


def test_order_matrices_of_words_without_repeated_letters():
    """On every word without a repeated letter of A1-A3 and B2 the slot
    order matrix is the identity and the coordinate order matrix is unit
    upper triangular with entries <= 0 off the diagonal: the shape that
    monomial_exponents back-substitutes on."""
    for kind in ("A1", "A2", "A3", "B2"):
        datum = CartanDatum.from_type(kind)
        letters = range(1, datum.rank + 1)
        for size in letters:
            for word in itertools.permutations(letters, size):
                a_rows, b_rows = SectionEngine(datum, WeylWord(list(word))
                                               )._orders()
                n = len(word)
                for l in range(n):
                    for j in range(n):
                        assert a_rows[l][j] == (l == j)
                        if l < j:
                            assert b_rows[l][j] <= 0
                        else:
                            assert b_rows[l][j] == (l == j)


@pytest.mark.parametrize("a_rows, b_rows", [
    (((1, 0), (0, 1)), ((1, 1), (0, 1))),
    (((1, 0), (0, 1)), ((1, -1), (1, 1))),
    (((1, 0), (0, 1)), ((2, -1), (0, 1))),
    (((1, 1), (0, 1)), ((1, -1), (0, 1))),
], ids=["positive-above", "below-diagonal", "diagonal", "slot-matrix"])
def test_monomial_route_refuses_untriangular_order_matrices(
        a2, monkeypatch, a_rows, b_rows):
    """Order matrices that break the triangular shape are a failed
    cross-check (exit 4), not an answer."""
    engine = SectionEngine(a2, WeylWord([1, 2]))
    monkeypatch.setattr(engine, "_order_matrices", (a_rows, b_rows))
    with pytest.raises(EngineError) as info:
        engine.monomial_exponents(can=(-1, 1))
    assert type(info.value) is EngineError


def test_order_matrices(eng12, eng121):
    assert eng12.slot_order_matrix() == ((1, 0), (0, 1))
    assert eng12.coordinate_order_matrix() == ((1, -1), (0, 1))
    assert eng121.slot_order_matrix() == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert eng121.coordinate_order_matrix() == ((1, -1, 1), (0, 1, -1),
                                                (0, 0, 1))


def test_effective_exponents_repeated_letter(eng121):
    assert eng121.effective_exponents((0, 0, 1)) == (1, -1, 1)
    assert eng121.effective_exponents((1, 0, 0)) == (1, 0, 0)
    assert eng121.effective_exponents((0, 1, 0)) == (-1, 1, 0)


def test_boundary_sections(eng12):
    for j in (1, 2):
        section = eng12.boundary_section(j)
        expected = tuple(1 if k == j - 1 else 0 for k in range(2))
        assert poly_terms(section) == {expected: 1}
        assert valuation(section) == expected
        assert section.weight is None
    with pytest.raises(ValidationError):
        eng12.boundary_section(3)


def test_equivariance_spot_checks(eng12, eng121):
    """The check passes true sections and fails what is not one.

    Every right translator lies in the Borel subgroup and fixes the
    highest-weight line, so with right translation alone t' = t and any
    function of t passed; the left torus translation moves t.
    """
    nef = eng12.section_basis_nef((1, 1))
    assert eng12.equivariance_failures(nef, (1, 1)) == 0
    basis = eng121.section_basis_nef((0, 1, 1))
    assert eng121.equivariance_failures(basis, (0, 1, 1)) == 0
    assert eng12.equivariance_failures(nef, (2, 1)) > 0
    fake = SectionPoly(Polynomial(2, {(3, 1): 1, (0, 0): 7}), Weight((1, 1)))
    assert eng12.equivariance_failures([fake], (1, 1)) > 0


def test_equivariance_needs_weight_labels(eng12):
    unlabeled = SectionPoly(Polynomial.one(2))
    with pytest.raises(ValidationError, match="weight label"):
        eng12.equivariance_failures([unlabeled], (1, 1))


CHART_WORDS = [("A2", (1, 2)), ("A2", (2, 1)), ("B2", (1, 2)), ("B2", (2, 1)),
               ("A2", (1, 2, 1)), ("B2", (1, 2, 1)), ("A3", (1, 2, 3)),
               ("A3", (2, 1, 3))]


@pytest.mark.parametrize("name, word", CHART_WORDS,
                         ids=[f"{n}-{''.join(map(str, w))}"
                              for n, w in CHART_WORDS])
def test_charts_and_slot_sections_match_dense_products(name, word):
    """Every chart's coordinate numerators and denominators and slot
    factors, and every slot section, read off sparse orbit vectors, equal
    those read off dense prefix products of the slot matrices."""
    engine = SectionEngine(CartanDatum.from_type(name), WeylWord(word))
    for flips in itertools.product((0, 1), repeat=engine.n):
        frame = engine._chart(flips)
        assert (frame.numerators, frame.denominators, frame.slot_factors) \
            == dense_chart(engine, flips), flips
    for k in range(1, engine.n + 1):
        assert [(sp.poly, sp.weight.coords)
                for sp in engine.slot_polynomials(k)] \
            == dense_slot_sections(engine, k)


def test_torus_grading_matches_character(eng12, a2):
    basis = eng12.section_basis_nef((2, 1))
    counted: dict[tuple, int] = {}
    for sp in basis:
        counted[sp.weight.coords] = counted.get(sp.weight.coords, 0) + 1
    character = bs_character(a2, [1, 2], (2, 1))
    assert counted == {w.coords: m for w, m in character.terms.items()}


def test_products_land_in_the_sum_class(eng12):
    first = eng12.section_basis_nef((0, 1))
    second = eng12.section_basis_nef((1, 0))
    target = eng12.section_basis_nef((1, 1))
    target_rank = span_rank(target)
    for f in first:
        for g in second:
            product = f.poly * g.poly
            monos = sorted({m for sp in target for m in sp.poly.terms}
                           | set(product.terms))
            index = {m: i for i, m in enumerate(monos)}
            rows = [{index[m]: c for m, c in sp.poly.terms.items()}
                    for sp in target]
            rows.append({index[m]: c for m, c in product.terms.items()})
            assert dense_rank(rows, len(monos)) == target_rank


def oracle_model(name):
    """The hand-made A_n or B2 representations as a GroupModel, its
    cache filled in before any representation is derived."""
    datum = CartanDatum.from_type(name)
    model = GroupModel(datum)
    model.reps.update(
        (i, FundamentalRep(datum, i, *action))
        for i, action in oracle_actions(name).items())
    return model


def longest_word(datum):
    """A reduced word of the longest Weyl group element, built greedily."""
    word = []
    while True:
        letter = next((j for j in range(1, datum.rank + 1)
                       if is_reduced(datum, word + [j])), None)
        if letter is None:
            return word
        word.append(letter)


def weight_multiset(rep):
    return sorted(w.coords for w in rep.weights)


@pytest.mark.parametrize("name", ["A2", "A3", "B2", "C2", "G2", "B3", "D4"])
def test_derived_weights_match_the_full_demazure_character(name):
    """V(omega_i) built from the Cartan matrix has the weights of the
    Demazure character of omega_i along a longest word, the full Weyl
    character, and of the hand-made representation where there is one."""
    datum = CartanDatum.from_type(name)
    model = GroupModel(datum)
    oracle = oracle_model(name) if name in ("A2", "A3", "B2") else None
    word = longest_word(datum)
    for i in range(1, datum.rank + 1):
        char = Character.monomial(datum.fundamental_weight(i))
        for letter in reversed(word):
            char = demazure_operator(datum, letter, char)
        expected = sorted(w.coords for w, m in char.terms.items()
                          for _ in range(m))
        assert weight_multiset(model.rep(i)) == expected
        if oracle is not None:
            assert weight_multiset(oracle.rep(i)) == expected


def test_derived_a2_representations_are_the_exterior_powers():
    """On A2 the derivation reproduces the exterior powers: the same basis
    order and every coefficient 1."""
    derived, oracle = GroupModel(CartanDatum.from_type("A2")), \
        oracle_model("A2")
    for i in (1, 2):
        a, b = derived.rep(i), oracle.rep(i)
        assert (a.weights, a.highest, a.lowering, a.raising) \
            == (b.weights, b.highest, b.lowering, b.raising)


ORACLE_WORDS = [("A2", (1, 2)), ("A2", (1, 2, 1)), ("A3", (1, 2, 3)),
                ("B2", (1, 2)), ("B2", (1, 2, 1))]


@pytest.mark.parametrize("name, word", ORACLE_WORDS,
                         ids=[f"{n}-{''.join(map(str, w))}"
                              for n, w in ORACLE_WORDS])
def test_derived_charts_match_the_hand_made_representations(name, word):
    """Every chart frame is the same under the derived model and under
    the hand-made one, although the A3 bases differ in order and B2's
    omega_1 in the scale of one basis vector: charts read only the entries
    at v_hw and f_i v_hw."""
    datum = CartanDatum.from_type(name)
    derived = SectionEngine(datum, WeylWord(word))
    oracle = SectionEngine(datum, WeylWord(word), oracle_model(name))
    for flips in itertools.product((0, 1), repeat=derived.n):
        a, b = derived._chart(flips), oracle._chart(flips)
        assert (a.numerators, a.denominators, a.slot_factors) \
            == (b.numerators, b.denominators, b.slot_factors), flips


def test_group_model_builds_only_the_letters_it_is_asked_for():
    datum = CartanDatum.from_type("A20")
    engine = SectionEngine(datum, WeylWord([2]))
    assert sorted(engine.model.reps) == [2]
    assert engine.model.rep(2).dim == math.comb(21, 2)
    seeded = oracle_model("B2")
    assert SectionEngine(seeded.datum, WeylWord([1, 2]), seeded).model \
        is seeded


def test_group_model_refuses_a_matrix_of_infinite_type():
    model = GroupModel(CartanDatum([[2, -2], [-2, 2]]))
    with pytest.raises(ValidationError, match="root system is not finite"):
        model.rep(1)


NEW_TYPE_WORDS = [("C2", (1, 2)), ("G2", (1, 2)), ("G2", (2, 1)),
                  ("B3", (1, 2, 3))]


@pytest.mark.parametrize("name, word", NEW_TYPE_WORDS,
                         ids=[f"{n}-{''.join(map(str, w))}"
                              for n, w in NEW_TYPE_WORDS])
def test_routes_and_equivariance_on_derived_types(name, word):
    """On types with no hand-made representations the nef and glue routes
    agree in dimension and span, the dimensions are the Demazure ones, and
    the nef sections pass the equivariance law, which fails them under
    another class."""
    datum = CartanDatum.from_type(name)
    engine = SectionEngine(datum, WeylWord(word))
    for multidegree in _small_grid(len(word), 2):
        nef = engine.section_basis_nef(multidegree)
        glue = engine.section_basis_glue(can=multidegree)
        assert len(nef) == len(glue) \
            == bs_character(datum, word, multidegree).dimension()
        assert span_rank(nef, glue) == span_rank(nef) == len(nef)
        assert engine.equivariance_failures(nef, multidegree) == 0
    wrong = tuple(c + 1 for c in multidegree)
    assert engine.equivariance_failures(nef, wrong) > 0


REPS = [(model.datum, i, rep)
        for model in map(oracle_model, ("A2", "A3", "B2"))
        for i, rep in sorted(model.reps.items())]


@settings(max_examples=200)
@given(st.data())
def test_commutator_check_refuses_what_the_dense_check_refuses(data):
    """One coefficient of the A2 or A3 exterior powers or of B2.json set to
    a nonzero value (so the weight shifts still hold) is refused exactly
    when [e_j, f_j] = h_j fails for some j on dense matrices."""
    datum, fundamental, rep = data.draw(st.sampled_from(REPS))
    actions = {"lowering": {j: list(t) for j, t in rep.lowering.items()},
               "raising": {j: list(t) for j, t in rep.raising.items()}}
    kind = data.draw(st.sampled_from(sorted(actions)))
    j, pos = data.draw(st.sampled_from(
        [(j, pos) for j, trips in sorted(actions[kind].items())
         for pos in range(len(trips))]))
    to, frm, _ = actions[kind][j][pos]
    actions[kind][j][pos] = (to, frm, data.draw(
        st.integers(-3, 3).filter(bool)))
    weights = [w.coords for w in rep.weights]
    holds = all(commutator_holds(weights, sorted(actions["raising"][k]),
                                 sorted(actions["lowering"][k]), k)
                for k in range(1, datum.rank + 1))

    def build():
        return FundamentalRep(datum, fundamental, weights, rep.highest,
                              actions["lowering"], actions["raising"])

    if holds:
        build()
    else:
        with pytest.raises(ValidationError,
                           match="is not the coweight action"):
            build()
