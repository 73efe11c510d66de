"""Torus weights over the semigroup and asymptotic slice statistics."""

from __future__ import annotations

import itertools
import sys
import time
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottsam import (
    Basis,
    CartanDatum,
    DivisorClass,
    EngineError,
    NonIntegralAll,
    NotInterior,
    OkounkovEngine,
    PicardLattice,
    RationalPolytope,
    Unstable,
    ValidationError,
    Weight,
    WeightedSemigroup,
    WeylWord,
    bs_character,
    multiplicity_asymptotics,
    slice_lattice_count,
    weight_projection,
    weighted_semigroup,
)
from bottsam import cli, weights
from bottsam._kernel import solve_dense
from bottsam.sections import SectionEngine, SectionPoly
from bottsam.valuation import adapted_basis

from oracles import (
    fitted_multiplicity_asymptotics,
    fitted_weight_projection,
    gelfand_tsetlin_points,
    gelfand_tsetlin_weight,
    section_weight_triples,
)


def can(coords):
    return DivisorClass(coords, Basis.CANONICAL)


def test_base_weighted_semigroup(okounkov_a1):
    semigroup = weighted_semigroup(okounkov_a1, can((3,)), 2)
    assert semigroup.weight_dim == 1
    assert semigroup.levels == 2
    for nu, level, mu in semigroup.triples:
        assert mu == (3 * level - 2 * nu[0],)
    level_one = sorted(mu for nu, level, mu in semigroup.triples
                       if level == 1)
    assert level_one == [(-3,), (-1,), (1,), (3,)]


def test_base_weight_projection(lattice_a1):
    projection = weight_projection(lattice_a1, can((3,)))
    assert projection.matrix == ((Fraction(-2),),)
    assert projection.level_part == (Fraction(3),)
    assert projection.apply((1,), 1) == (Fraction(1),)
    assert projection.apply((0,), 2) == (Fraction(6),)


def test_weights_match_the_character(okounkov_a2_12, a2):
    semigroup = weighted_semigroup(okounkov_a2_12, can((1, 1)), 2)
    for level in (1, 2):
        counted: dict[tuple, int] = {}
        for nu, k, mu in semigroup.triples:
            if k == level:
                counted[mu] = counted.get(mu, 0) + 1
        character = bs_character(a2, [1, 2], (level, level))
        assert counted == {w.coords: m for w, m in character.terms.items()}


def test_slice_counts_partition_the_level(okounkov_a2_12):
    divisor = can((1, 1))
    semigroup = weighted_semigroup(okounkov_a2_12, divisor, 2)
    projection = weight_projection(okounkov_a2_12.lattice, divisor)
    body = okounkov_a2_12.body(divisor, 4)
    level_one = [(nu, mu) for nu, level, mu in semigroup.triples
                 if level == 1]
    total = 0
    for mu in {mu for _, mu in level_one}:
        total += slice_lattice_count(body.polytope, projection, mu, 1)
    assert total == len(level_one) == 5


def test_fitted_projection_refuses_inconsistent_weights():
    """The fit oracle names the first weight coordinate without an exact
    affine fit."""
    triples = frozenset({((0,), 1, (0,)), ((1,), 1, (5,)), ((2,), 1, (1,))})
    semigroup = WeightedSemigroup(can((1,)), 1, triples, 1)
    with pytest.raises(ValueError, match="coordinate 1 "):
        fitted_weight_projection(semigroup)
    triples = frozenset({((0,), 1, (0, 0, 0)), ((1,), 1, (1, 5, 0)),
                         ((2,), 1, (2, 1, 1))})
    semigroup = WeightedSemigroup(can((1,)), 1, triples, 3)
    with pytest.raises(ValueError, match="coordinate 2 "):
        fitted_weight_projection(semigroup)


def test_interior_weight_asymptotics(lattice_a2_121):
    report = multiplicity_asymptotics(
        lattice_a2_121, can((0, 1, 1)), (0, 0), 6)
    rows = report["levels"]
    assert [row["level"] for row in rows] == [1, 2, 3, 4, 5, 6]
    assert [row["dimension"] for row in rows] == [2, 3, 4, 5, 6, 7]
    assert [row["ratio"] for row in rows] \
        == [Fraction(k + 1, k) for k in range(1, 7)]
    assert report["body_dimension"] == 3
    assert report["weight_dimension"] == 2
    assert report["codimension"] == 1
    assert report["slice_volume"] == 1
    assert report["interior"]
    vertices = sorted(report["slice_vertices"])
    assert vertices == [(0, 1, 1), (1, 1, 0)]
    gaps = [abs(row["ratio"] - report["slice_volume"]) for row in rows]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_vertex_weight_needs_the_interior_flag(lattice_a2_121):
    with pytest.raises(NotInterior) as error:
        multiplicity_asymptotics(lattice_a2_121, can((0, 1, 1)), (1, 1), 3)
    assert str(error.value) == ("weight 1,1 is not in the relative interior "
                                "of the weight polytope")
    report = multiplicity_asymptotics(
        lattice_a2_121, can((0, 1, 1)), (1, 1), 3, require_interior=False)
    assert [row["dimension"] for row in report["levels"]] == [1, 1, 1]
    assert report["slice_vertices"] == ((0, 0, 0),)
    assert report["slice_volume"] == 1
    assert not report["interior"]


def test_not_interior_names_the_weight_as_typed(lattice_a2_12):
    """The weight in the message is the comma list of the --mu flag."""
    divisor = DivisorClass((1, 2), Basis.EFFECTIVE)
    for mu, text in (((0, 0), "0,0"), ((Fraction(1, 2), -1), "1/2,-1")):
        with pytest.raises(NotInterior) as error:
            multiplicity_asymptotics(lattice_a2_12, divisor, mu, 2)
        assert str(error.value) == (
            f"weight {text} is not in the relative interior of the weight "
            "polytope")


def test_a_weight_off_the_span_is_not_interior(lattice_a2_12, monkeypatch):
    """The weight polytope of can:1,0 on A2 (1,2) is a segment on the line
    -1 + x + 2y = 0; (0, 0) passes both its inequalities strictly and is
    refused by the equation."""
    seen = []
    interior = weights._in_relative_interior

    def recorded(polytope, point):
        seen.append((polytope, point))
        return interior(polytope, point)

    monkeypatch.setattr(weights, "_in_relative_interior", recorded)
    with pytest.raises(NotInterior):
        multiplicity_asymptotics(lattice_a2_12, can((1, 0)), (0, 0), 3)
    [(polytope, point)] = seen
    assert polytope.equations == ((-1, 1, 2),)
    assert all(row[0] + sum(a * x for a, x in zip(row[1:], point)) > 0
               for row in polytope.inequalities)


def test_weight_spaces_off_the_nef_cone_count_sections(lattice_a2_12):
    """Off the nef cone a weight-space dimension counts sections, not the
    Euler characteristic's multiplicity: can:-1,1 at level 3 has one
    section, and the Demazure character of (-3, 3) has dimension -2 and
    multiplicity -1 at the weight 0."""
    character = bs_character(lattice_a2_12.datum, (1, 2), (-3, 3))
    assert character.dimension() == -2
    assert character.multiplicity(Weight((0, 0))) == -1
    report = multiplicity_asymptotics(
        lattice_a2_12, can((-1, 1)), (0, 0), 4, require_interior=False)
    assert [row["dimension"] for row in report["levels"]] == [0, 0, 0, 0]
    report = multiplicity_asymptotics(
        lattice_a2_12, can((-1, 2)), (0, Fraction(3, 2)), 4,
        require_interior=False)
    assert [(row["level"], row["dimension"]) for row in report["levels"]] \
        == [(2, 0), (4, 0)]


def test_rational_weights_use_integral_levels(lattice_a2_121):
    half = (Fraction(1, 2), Fraction(1, 2))
    report = multiplicity_asymptotics(
        lattice_a2_121, can((0, 1, 1)), half, 4, require_interior=False)
    assert [(row["level"], row["dimension"]) for row in report["levels"]] \
        == [(2, 2), (4, 3)]


def test_no_integral_level_raises(lattice_a2_121):
    with pytest.raises(NonIntegralAll):
        multiplicity_asymptotics(
            lattice_a2_121, can((0, 1, 1)), (Fraction(1, 2), 0), 1)


def test_subtorus_projection(lattice_a2_12, a2):
    projection = ((1, 0),)
    report = multiplicity_asymptotics(
        lattice_a2_12, can((1, 1)), (0,), 4,
        torus_projection=projection, require_interior=False)
    assert report["weight_dimension"] == 1
    for row in report["levels"]:
        character = bs_character(a2, [1, 2], (row["level"], row["level"]))
        expected = sum(m for w, m in character.terms.items()
                       if w.coords[0] == 0)
        assert row["dimension"] == expected


def test_asymptotics_reuse_one_engine(lattice_a2_12, monkeypatch):
    """multiplicity_asymptotics builds one engine for the weight polytope
    and the body, so each level set is computed once."""
    calls = []
    compute = OkounkovEngine._compute_level

    def counted(self, mc):
        calls.append(mc)
        return compute(self, mc)

    monkeypatch.setattr(OkounkovEngine, "_compute_level", counted)
    report = multiplicity_asymptotics(
        lattice_a2_12, can((1, 1)), (0, 0), 3, require_interior=False)
    assert [row["dimension"] for row in report["levels"]] == [1, 1, 1]
    assert not report["interior"]
    assert calls == [(1, 1), (2, 2), (3, 3)]


# (type, word, coordinate range, levels): every canonical class of the box
# is a case, effective or not.
GRIDS = (
    ("A1", (1,), range(-1, 4), 4),
    ("A2", (1, 2), range(-1, 3), 4), ("A2", (2, 1), range(-1, 3), 4),
    ("B2", (1, 2), range(-1, 3), 4), ("B2", (2, 1), range(-1, 3), 4),
    ("A2", (1, 2, 1), range(-1, 2), 3),
    ("A3", (1, 2, 3), range(-1, 2), 2), ("A3", (2, 1, 3), range(-1, 2), 2),
    ("B2", (1, 2, 1), range(-1, 2), 2),
)
CASES = [(cartan, word, coords, levels)
         for cartan, word, box, levels in GRIDS
         for coords in itertools.product(box, repeat=len(word))]


@pytest.fixture(scope="module")
def section_route():
    """Per case, an engine of its word and the oracle's triples."""
    engines = {}
    cases = {}
    for case in CASES:
        cartan, word, coords, levels = case
        if (cartan, word) not in engines:
            engines[cartan, word] = OkounkovEngine(PicardLattice(
                CartanDatum.from_type(cartan), WeylWord(word)))
        engine = engines[cartan, word]
        cases[case] = (engine, section_weight_triples(
            engine.lattice, can(coords), levels))
    return cases


@settings(max_examples=5)
@given(data=st.data())
def test_weighted_semigroup_matches_the_section_route(section_route, data):
    """On every canonical class of the grids, labeling the engine's level
    sets with section_weight gives the triples that adapted bases of the
    built section spaces carry, the representation model's weights on the
    spanning route included; with a drawn projection row per class, it
    gives their projections.  The closed-form weight_projection maps each
    point to its label, projected or not.  A class with no sections is
    refused as body refuses it."""
    assert sum(bool(expected) for _, expected in section_route.values()) \
        == 96
    for case, (engine, expected) in section_route.items():
        coords, levels = case[2:]
        if not expected:
            with pytest.raises(ValidationError, match="not effective"):
                weighted_semigroup(engine, can(coords), levels)
            continue
        semigroup = weighted_semigroup(engine, can(coords), levels)
        assert sorted(semigroup.triples) == expected, case
        projection = weight_projection(engine.lattice, can(coords))
        assert all(projection.apply(nu, k) == mu
                   for nu, k, mu in semigroup.triples), case
        row = data.draw(st.tuples(
            *[st.integers(-2, 2)] * engine.lattice.datum.rank))
        semigroup = weighted_semigroup(engine, can(coords), levels, [row])
        assert sorted(semigroup.triples) == sorted(
            (nu, k, (sum(map(mul, row, mu)),)) for nu, k, mu in expected), \
            (case, row)
        assert semigroup.weight_dim == 1
        projection = weight_projection(engine.lattice, can(coords), [row])
        assert all(projection.apply(nu, k) == mu
                   for nu, k, mu in semigroup.triples), (case, row)


# (type, word, box, levels, order, points): on these words the level-k
# set of the class pulled back from L(lam) is the set of Gelfand-Tsetlin
# patterns of k lam, read as nu[order[0]], nu[order[1]], ... plus the
# least pattern (string polytopes as Okounkov bodies, Kaveh 2015).  points
# counts the patterns over every nonzero lam in box^rank and every level.
GT_WORDS = (
    ("A2", (1, 2, 1), range(4), 2, (2, 0, 1), 1642),
    ("A3", (1, 2, 1, 3, 2, 1), range(3), 2, (5, 2, 0, 4, 1, 3), 50615),
)


@pytest.mark.parametrize("cartan, word, box, levels, order, points",
                         GT_WORDS, ids=["A2-121", "A3-121321"])
def test_level_sets_are_gelfand_tsetlin_patterns(cartan, word, box, levels,
                                                 order, points):
    """Each labeled point of weighted_semigroup is a Gelfand-Tsetlin
    pattern, and its label is the pattern's weight with the
    epsilon-coordinates reversed (the twist by the longest Weyl element),
    in fundamental-weight coordinates.  This checks the level sets and the
    one weight rule point by point, with no Demazure character."""
    lattice = PicardLattice(CartanDatum.from_type(cartan), WeylWord(word))
    engine = OkounkovEngine(lattice)
    checked = 0
    for lam in itertools.product(box, repeat=lattice.datum.rank):
        if not any(lam):
            continue
        semigroup = weighted_semigroup(
            engine, lattice.pullback_from_flag_variety(Weight(lam)), levels)
        for k in range(1, levels + 1):
            highest = tuple(k * c for c in lam)
            patterns = gelfand_tsetlin_points(highest)
            least = tuple(map(min, zip(*patterns)))
            expected = []
            for pattern in patterns:
                eps = gelfand_tsetlin_weight(pattern, highest)[::-1]
                expected.append((pattern, tuple(
                    a - b for a, b in zip(eps, eps[1:]))))
            assert sorted(
                (tuple(nu[i] + c for i, c in zip(order, least)), mu)
                for nu, level, mu in semigroup.triples if level == k) \
                == sorted(expected), (lam, k)
            checked += len(patterns)
    assert checked == points


def _outcome(call, *args):
    try:
        return call(*args)
    except EngineError as error:
        return type(error), str(error)


@settings(max_examples=2)
@given(data=st.data())
def test_asymptotics_match_the_fitted_pipeline(section_route, data):
    """On every canonical class of the grids, with a drawn weight in
    {0, 1, 1/2}^rank or a drawn projection row and a one-coordinate
    weight, and both require_interior values, multiplicity_asymptotics
    gives the report, or the error type and message, of the pipeline that
    labels every point, hulls every label, fits the weight map and counts
    the labels.  On a nef class each dimension is also the multiplicity
    of k mu in the Demazure character of level k, projected or not."""
    for case, (engine, _) in section_route.items():
        coords, levels = case[2:]
        lattice = engine.lattice
        rank = lattice.datum.rank
        weight = st.sampled_from((0, 1, Fraction(1, 2)))
        projection = data.draw(st.none() | st.tuples(st.tuples(
            *[st.integers(-2, 2)] * rank)))
        mu = data.draw(st.tuples(
            *[weight] * (rank if projection is None else 1)))
        rows = projection or [tuple(int(i == j) for j in range(rank))
                              for i in range(rank)]
        for interior in (True, False):
            args = (lattice, can(coords), mu, levels, projection, interior)
            report = _outcome(multiplicity_asymptotics, *args)
            assert report == _outcome(
                fitted_multiplicity_asymptotics, *args), \
                (case, mu, projection, interior)
            if min(coords) < 0 or not isinstance(report, dict):
                continue
            for row in report["levels"]:
                k = row["level"]
                character = bs_character(lattice.datum, lattice.word,
                                         tuple(k * c for c in coords))
                target = tuple(k * v for v in mu)
                assert row["dimension"] == sum(
                    m for w, m in character.terms.items()
                    if tuple(sum(map(mul, r, w.coords)) for r in rows)
                    == target), (case, mu, projection, k)


def test_weighted_semigroup_refuses_a_long_run_at_once(lattice_a2_12):
    """The run guard of the body guards the semigroup too: 1000 levels of
    can:1,1 on A2 (1,2) are refused before level 1."""
    engine = OkounkovEngine(lattice_a2_12)
    start = time.process_time()
    with pytest.raises(Unstable,
                       match="level sets of the run exceed the supported"):
        weighted_semigroup(engine, can((1, 1)), 1000)
    assert time.process_time() - start < 1.0
    assert len(engine._sums) == 1 and not engine._points


def test_weights_job_builds_no_sections(capsys, monkeypatch):
    """Work pins for `weights --type A2 --word 1,2,1 --bundle can:0,1,1
    --mu 0,0 --max-level 5`: the weight map is read off section_weight
    and the points are the engine's level sets, so the job builds no
    section space (from 5 section_basis_nef calls,
    6,972 products and 5 adapted bases when each level's sections were
    rebuilt), and it computes each of the 5 level sets once, for the
    weight polytope and the body together.  The weight polytope hulls the
    images of the 35 level-set hull vertices that the body hulls too (from
    all 440 labeled points when it was hulled from the labels), and the
    one solve_dense call is the slice's lattice volume (a second one
    fitted the weight map)."""
    counts = dict.fromkeys(("nef", "multiplied", "adapted", "points",
                            "solve_dense"), 0)

    def counted(name, call):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return call(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(SectionEngine, "section_basis_nef", counted(
        "nef", SectionEngine.section_basis_nef))
    monkeypatch.setattr(SectionPoly, "multiplied", counted(
        "multiplied", SectionPoly.multiplied))
    monkeypatch.setattr(OkounkovEngine, "_compute_level", counted(
        "points", OkounkovEngine._compute_level))
    hulls = []
    from_points = RationalPolytope.from_points.__func__

    def recorded(cls, points, ambient=None):
        hulls.append((ambient, len(points)))
        return from_points(cls, points, ambient)

    monkeypatch.setattr(RationalPolytope, "from_points",
                        classmethod(recorded))
    for name, call in (("adapted", adapted_basis),
                       ("solve_dense", solve_dense)):
        wrapper = counted(name, call)
        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("bottsam") \
                    and getattr(module, call.__name__, None) is call:
                monkeypatch.setattr(module, call.__name__, wrapper)
    assert cli.main(["weights", "--type", "A2", "--word", "1,2,1",
                     "--bundle", "can:0,1,1", "--mu", "0,0",
                     "--max-level", "5"]) == 0
    capsys.readouterr()
    assert counts == {"nef": 0, "multiplied": 0, "adapted": 0, "points": 5,
                      "solve_dense": 1}
    assert [size for ambient, size in hulls if ambient == 2] == [35]
    assert (3, 35) in hulls
