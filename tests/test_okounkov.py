"""Valuation semigroups, Okounkov bodies, global cones, identity checks."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bottsam import (
    Basis,
    CartanDatum,
    DivisorClass,
    EngineError,
    NotNef,
    OkounkovEngine,
    PicardLattice,
    RationalPolytope,
    SectionEngine,
    Unstable,
    ValidationError,
    WeylWord,
    bs_character,
    multiplicity_asymptotics,
    weighted_semigroup,
)
from bottsam import okounkov, polyhedra, rootsys
from bottsam.okounkov import GradedValuationPoint
from bottsam.polyhedra import polytope_payload
from bottsam.valuation import adapted_basis, valuation

from oracles import (convex_hull_2d, hirzebruch_count, minkowski_points,
                     order_polytope_points, raw_point_body, raw_point_image)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

GOLDEN_RAYS_12 = ((0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 1, 0))


def can(*coords):
    return DivisorClass(coords, Basis.CANONICAL)


def recorded_sources(monkeypatch):
    """Record (class, source) for each Minkowski sum an engine starts."""
    pairs = []
    source = OkounkovEngine._source

    def recorded(self, mc, weight):
        prev = source(self, mc, weight)
        pairs.append((mc, prev))
        return prev

    monkeypatch.setattr(OkounkovEngine, "_source", recorded)
    return pairs


def test_base_semigroup(okounkov_a1):
    got = okounkov_a1.semigroup(can(1), 2)
    assert set(got) == {
        GradedValuationPoint((0,), 1), GradedValuationPoint((1,), 1),
        GradedValuationPoint((0,), 2), GradedValuationPoint((1,), 2),
        GradedValuationPoint((2,), 2)}


def test_base_body_is_a_segment(okounkov_a1):
    body = okounkov_a1.body(can(3), 3)
    assert sorted(body.polytope.vertices) == [(0,), (3,)]
    assert body.truncation == 3
    assert body.divisor == can(3)


def test_base_global_cone(okounkov_a1):
    approx = okounkov_a1.global_cone(2, 3)
    assert approx.cone.rays == ((0, 1), (1, 1))
    assert approx.rays == approx.cone.rays
    assert approx.saturated
    assert approx.level_cap == 2 and approx.box_cap == 3


def test_zero_box_gives_the_zero_cone(okounkov_a1):
    approx = okounkov_a1.global_cone(1, 0)
    assert approx.cone.rays == ()
    assert not approx.saturated


def test_level_one_points_match_sections(okounkov_a2_12):
    points = okounkov_a2_12.valuation_points(can(1, 1))
    assert sorted(points) == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)]


def test_counting_identity_small(okounkov_a2_12, a2):
    for c1 in range(3):
        for c2 in range(3):
            for level in range(1, 4):
                points = okounkov_a2_12.valuation_points(can(c1, c2), level)
                scaled = (level * c1, level * c2)
                expected = bs_character(a2, [1, 2], scaled).dimension()
                assert len(points) == len(set(points)) == expected
                assert expected == hirzebruch_count(*scaled)


def test_body_of_the_fiber_class(okounkov_a2_12):
    body = okounkov_a2_12.body(can(0, 1), 4)
    assert sorted(body.polytope.vertices) == [(0, 0), (0, 1), (1, 1)]
    assert body.polytope.volume() == Fraction(1, 2)


def test_body_of_a_non_nef_class_can_degenerate(okounkov_a2_12):
    body = okounkov_a2_12.body(can(-1, 1), 4)
    assert body.polytope.vertices == ((0, 1),)


@pytest.mark.parametrize("lattice, low, top", [
    ("lattice_a2_12", -2, 3),
    ("lattice_b2_12", -2, 3),
    ("lattice_a2_121", 0, 2),
])
def test_bodies_of_class_hulls_match_the_raw_points(request, lattice, low,
                                                    top):
    """A body hulled from the memoized hull vertices of its level sets, and
    a restriction image hulled from the vertices with first entry 0, equal
    the hulls of every valuation point: the same vertices, inequalities
    and equations.  The classes include ones off the nef cone and ones
    whose body is lower dimensional."""
    lattice = request.getfixturevalue(lattice)
    seen = {"off_nef": 0, "flat": 0, "image": 0}

    @settings(max_examples=25)
    @given(st.tuples(*[st.integers(low, top)] * lattice.n),
           st.integers(1, 4))
    def check(mc, levels):
        divisor = can(*mc)
        if not lattice.is_effective(divisor):
            return
        engine = OkounkovEngine(lattice)
        body = engine.body(divisor, levels).polytope
        assert polytope_payload(body) \
            == polytope_payload(raw_point_body(engine, divisor, levels))
        seen["off_nef"] += min(mc) < 0
        seen["flat"] += bool(body.equations)
        if min(mc) >= 0:
            report = engine.restriction_check(divisor, levels)
            image = raw_point_image(engine, divisor, levels)
            assert report["image_vertices"] == image.vertices
            assert report["equal"] == (image == engine._truncated_engine(
                ).body(can(*mc[1:]), levels).polytope)
            seen["image"] += 1

    check()
    assert seen["flat"] and seen["image"]
    assert seen["off_nef"] or low == 0


def test_body_hulls_the_class_vertices(lattice_a2_12, monkeypatch):
    """Work pin: the level-8 body of can:(1,1) on A2 (1,2) hulls the 32
    scaled hull vertices of its level sets, not all 404 valuation points.
    The three hulls before it are those of the two slots' valuation sets
    and of the slot corner sums on the support of (1, 1); the eight level
    sets are plain, so their vertices are read off that hull's vertex
    list (from eight hulls of summed vertices, of 4, 5, 6, 6, 6, 6, 6 and
    6 points)."""
    engine = OkounkovEngine(lattice_a2_12)
    sizes = []
    build = RationalPolytope.from_points.__func__

    def counted(cls, points, ambient=None):
        sizes.append(len(points))
        return build(cls, points, ambient)

    monkeypatch.setattr(RationalPolytope, "from_points", classmethod(counted))
    body = engine.body(can(1, 1), 8)
    assert sizes == [2, 3, 4, 32]
    assert body.polytope == raw_point_body(engine, can(1, 1), 8)


def test_body_requires_an_effective_class(okounkov_a2_12):
    with pytest.raises(ValidationError):
        okounkov_a2_12.body(can(1, -1), 3)


def test_level_counts_above_the_guard_are_refused_at_once(okounkov_a2_12):
    """Every level of an effective class holds a point, so a level count
    above the level-set guard is refused before any level is computed."""
    huge = 10 ** 20
    with pytest.raises(Unstable):
        okounkov_a2_12.body(can(1, 1), huge)
    with pytest.raises(Unstable):
        okounkov_a2_12.semigroup(can(1, 1), huge)
    with pytest.raises(Unstable):
        okounkov_a2_12.global_cone(huge, 1)
    with pytest.raises(Unstable):
        okounkov_a2_12.global_cone(2, huge)


def test_hulls_past_the_ambient_caps_are_refused_before_any_work():
    """A cone on 2n > 9 coordinates is refused before the basis change,
    and a body on n > 8 before any level set or basis change, in each call
    that hulls one."""
    a5 = OkounkovEngine(PicardLattice(CartanDatum.from_type("A5"),
                                      WeylWord([1, 2, 3, 4, 5])))
    with pytest.raises(ValidationError,
                       match=r"^cone ambient dimension must be 1\.\.9$"):
        a5.global_cone(1, 1)
    assert a5.lattice._change is None
    nine = OkounkovEngine(PicardLattice(CartanDatum.from_type("A9"),
                                        WeylWord(range(1, 10))))
    ones = DivisorClass((1,) * 9, Basis.EFFECTIVE)
    for call, args in ((nine.body, (ones, 3)),
                       (nine.volume_check, (ones, 3)),
                       (nine.restriction_check, (ones, 3)),
                       (multiplicity_asymptotics,
                        (nine.lattice, ones, (0,) * 9, 3))):
        with pytest.raises(ValidationError, match=r"^polytope ambient "
                           r"dimension must be 1\.\.8$"):
            call(*args)
    assert list(nine._sums) == [(0,) * 9] and not nine._points
    assert nine.lattice._change is None


@pytest.mark.parametrize("engine, coords, last", [
    ("okounkov_a2_12", (1, 1), 340),
    ("okounkov_a2_12", (-1, 3), 245),
    ("okounkov_b2_12", (-1, 3), 245),
], ids=["nef", "monomial-a2", "monomial-b2"])
def test_run_guard_sums_the_levels(request, engine, coords, last):
    """The run guard sums the level-set sizes of levels 1..L, Demazure
    dimensions on the nef cone and order-polytope boxes on the monomial
    route, and refuses the first L whose sum passes the guard."""
    engine = request.getfixturevalue(engine)
    assert len(engine._run(can(*coords), last)) == last
    with pytest.raises(Unstable):
        engine._run(can(*coords), last + 1)


def test_glue_route_run_is_refused_by_its_top_level_box(a2):
    """A class on the glue route has no level-set sum, but the first degree
    box of level k grows with k, so a run whose top level's doubled box
    passes the cap is refused at once with the cap's message: A2 (1,2,1)
    can:-1,1,1 runs 15 levels and is refused from 16 on.  Refused only at
    its last level, body over 1000 levels took about a minute of CPU.
    The one level set computed is level 1's: the effectiveness test solves
    it, and a run that passes its checks reads it."""
    engine = OkounkovEngine(PicardLattice(a2, WeylWord((1, 2, 1))))
    start = time.process_time()
    assert len(engine._run(can(-1, 1, 1), 15)) == 15
    for levels in (16, 1000):
        with pytest.raises(Unstable, match=r"^glue dimensions kept growing "
                           r"past the degree-box cap \(64\)$"):
            engine.body(can(-1, 1, 1), levels)
    assert time.process_time() - start < 1.0
    assert list(engine._points) == [(-1, 1, 1)]
    assert engine.lattice._change is None


def test_glue_route_run_solves_each_level_once(a2, monkeypatch):
    """A body of A2 (1,2,1) can:-1,1,1 over 4 levels solves each level's
    section space once: the run's effectiveness test reads level 1's level
    set, which the body then reuses.  Asking the lattice's is_effective
    solved level 1 twice, 5 glue calls in all."""
    solved = []
    glue = SectionEngine.section_basis_glue

    def counted(self, can=None, eff=None):
        solved.append(can)
        return glue(self, can, eff)

    monkeypatch.setattr(SectionEngine, "section_basis_glue", counted)
    engine = OkounkovEngine(PicardLattice(a2, WeylWord((1, 2, 1))))
    engine.body(can(-1, 1, 1), 4)
    assert solved == [(-k, k, k) for k in range(1, 5)]


RUN_APIS = {
    "semigroup": lambda engine, d, levels: engine.semigroup(d, levels),
    "body": lambda engine, d, levels: engine.body(d, levels),
    "volume_check": lambda engine, d, levels: engine.volume_check(d, levels),
    "restriction_check":
        lambda engine, d, levels: engine.restriction_check(d, levels),
    "weighted_semigroup":
        lambda engine, d, levels: weighted_semigroup(engine, d, levels),
    "multiplicity_asymptotics": lambda engine, d, levels:
        multiplicity_asymptotics(engine.lattice, d, (0, 0), levels),
}


@pytest.mark.parametrize("api", list(RUN_APIS))
def test_every_run_is_checked_before_any_level_set(a2, monkeypatch, api):
    """The six walks over levels 1..L of a class go through one checked
    run, so each refuses 0 levels, and a class it cannot run on, before
    any level set or basis change is built: an identity report a class
    off the nef cone, the others a class that is not effective."""
    if api.endswith("_check"):
        bad = (can(-1, 1), 3, NotNef,
               rf"^{api[:-6]} identities need a nef class")
    else:
        bad = (DivisorClass((-1, 1), Basis.EFFECTIVE), 3, ValidationError,
               r"^divisor class is not effective")
    zero = (can(1, 1), 0, ValidationError,
            r"^levels must be a positive integer$")
    computed = []
    monkeypatch.setattr(OkounkovEngine, "_compute_level",
                        lambda self, mc: computed.append(mc))
    for divisor, levels, kind, text in (zero, bad):
        engine = OkounkovEngine(PicardLattice(a2, WeylWord((1, 2))))
        with pytest.raises(kind, match=text):
            RUN_APIS[api](engine, divisor, levels)
        assert computed == [] and engine.lattice._change is None


def test_restriction_check_refuses_a_run_past_the_guard(lattice_a2_12):
    """restriction_check walks levels 1..L of its class like body, so it is
    refused at the first L that the run guard refuses (341 on A2 (1,2)
    can:1,1) before any level set is computed."""
    engine = OkounkovEngine(lattice_a2_12)
    with pytest.raises(Unstable):
        engine.restriction_check(can(1, 1), 341)
    assert list(engine._sums) == [(0, 0)] and not engine._points
    assert engine._truncated is None


def test_volume_check_report(okounkov_a2_12):
    report = okounkov_a2_12.volume_check(can(1, 1), 8)
    assert report["hull_volume"] == Fraction(3, 2)
    assert report["target_volume"] == Fraction(3, 2)
    assert report["gap"] == 0
    assert report["stabilized"] and report["certified"]
    rows = report["levels"]
    assert [row["level"] for row in rows] == list(range(1, 9))
    assert all(row["count_match"] for row in rows)
    assert all(row["dilation_match"] for row in rows)


def test_volume_check_on_b2(okounkov_b2_12):
    report = okounkov_b2_12.volume_check(can(1, 1), 8)
    assert report["hull_volume"] == report["target_volume"] == Fraction(3, 2)
    assert report["certified"]


def test_volume_check_requires_nef(okounkov_a2_12):
    with pytest.raises(NotNef):
        okounkov_a2_12.volume_check(can(-1, 1), 4)


def test_global_cone_golden_rays(okounkov_a2_12):
    approx = okounkov_a2_12.global_cone(6, 3)
    assert approx.cone.rays == GOLDEN_RAYS_12
    assert approx.saturated


def test_b2_shares_the_golden_rays(okounkov_b2_12):
    approx = okounkov_b2_12.global_cone(6, 3)
    assert approx.cone.rays == GOLDEN_RAYS_12
    assert approx.saturated


def test_global_cone_validation(okounkov_a1):
    with pytest.raises(ValidationError):
        okounkov_a1.global_cone(0, 2)
    with pytest.raises(ValidationError):
        okounkov_a1.global_cone(2, -1)


SURFACE_WORDS = [
    ("A2", (1, 2)), ("B2", (1, 2)), ("A2", (2, 1)), ("B2", (2, 1)),
    ("G2", (1, 2)), ("G2", (2, 1)), ("C2", (1, 2)), ("A3", (1, 2)),
    ("A3", (1, 3)),
]


@pytest.mark.parametrize("name, word", SURFACE_WORDS, ids=[
    f"{name}-{''.join(map(str, word))}" for name, word in SURFACE_WORDS])
def test_surface_recipe_matches_the_saturated_cone(name, word):
    engine = OkounkovEngine(PicardLattice(CartanDatum.from_type(name),
                                          WeylWord(word)))
    generators, cone = engine.indok_generators_surface()
    approx = engine.global_cone(6, 3)
    assert approx.saturated
    assert cone.rays == approx.cone.rays
    assert cone.lineality == approx.cone.lineality == ()
    assert generators


def test_surface_recipe_is_read_off_the_basis_change(okounkov_b2_12):
    """On B2 (2, 1) the inverse basis change has an off-diagonal 2, and
    the nef-ray generators carry it."""
    engine = OkounkovEngine(PicardLattice(CartanDatum.from_type("B2"),
                                          WeylWord((2, 1))))
    assert engine.lattice.change.inverse == ((1, 2), (0, 1))
    generators, _ = engine.indok_generators_surface()
    assert generators == [(0, 0, 1, 0), (0, 0, 2, 1), (0, 1, 0, 1),
                          (0, 1, 2, 1), (1, 0, 1, 0)]
    generators, _ = okounkov_b2_12.indok_generators_surface()
    assert generators == [(0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 1),
                          (0, 1, 1, 1), (1, 0, 1, 0)]


def test_surface_recipe_needs_a_surface(okounkov_a1, okounkov_a2_121):
    for engine in (okounkov_a1, okounkov_a2_121):
        with pytest.raises(ValidationError, match="length 2"):
            engine.indok_generators_surface()


def test_package_runs_without_sympy():
    """The package has no runtime dependency: with sympy made unimportable
    the surface recipe and the quick verification battery still run."""
    script = (
        "import sys; sys.modules['sympy'] = None\n"
        "from bottsam import (CartanDatum, OkounkovEngine, PicardLattice,\n"
        "                     WeylWord, cli)\n"
        "engine = OkounkovEngine(PicardLattice(CartanDatum.from_type('A2'),\n"
        "                                      WeylWord((1, 2))))\n"
        "generators, _ = engine.indok_generators_surface()\n"
        "assert len(generators) == 5, generators\n"
        "sys.exit(cli.main(['verify', '--quick']))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_restriction_identity(okounkov_a2_12):
    for divisor in (can(0, 1), can(1, 1), can(1, 0), can(2, 1)):
        report = okounkov_a2_12.restriction_check(divisor)
        assert report["contained"]
        assert report["equal"]
        assert report["truncation"] >= 1
        assert report["image_vertices"] and report["intrinsic_vertices"]


def test_semigroup_points_live_at_every_level(okounkov_a2_121, a2):
    divisor = DivisorClass((0, 1, 1), Basis.CANONICAL)
    for level in range(1, 4):
        points = okounkov_a2_121.valuation_points(divisor, level)
        expected = bs_character(
            a2, [1, 2, 1], (0, level, level)).dimension()
        assert len(points) == expected


def test_repeated_letter_body_has_full_dimension(okounkov_a2_121):
    body = okounkov_a2_121.body(DivisorClass((0, 1, 1), Basis.CANONICAL), 4)
    polytope = body.polytope
    assert polytope.ambient == 3
    assert not polytope.equations
    assert polytope.volume() == 1


@pytest.mark.parametrize("lattice, low, top", [
    ("lattice_a2_12", -2, 3),
    ("lattice_b2_12", -2, 3),
    ("lattice_a2_121", 0, 2),
])
def test_grown_level_sets_and_hulls_match_the_spanning_route(request,
                                                             monkeypatch,
                                                             lattice, low,
                                                             top):
    """Level sets grown from cached classes, level sets read off monomial
    exponents, and hulls grown from cached vertices agree with the valuations
    of an adapted basis of the routed section space and with a plain hull.

    Each example queries distinct small classes in a random order on a
    fresh engine, so the cached class each level set grows from changes
    from example to example.  On the words without a repeated letter the
    classes include negative canonical ones, which take the monomial route.
    """
    lattice = request.getfixturevalue(lattice)
    sources = recorded_sources(monkeypatch)
    off_nef = 0
    classes = st.lists(st.tuples(*[st.integers(low, top)] * lattice.n),
                       min_size=1, max_size=6, unique=True)

    @settings(max_examples=30)
    @given(classes)
    def check(order):
        nonlocal off_nef
        engine = OkounkovEngine(lattice)
        for mc in order:
            points = engine.valuation_points(can(*mc))
            basis = lattice.engine.section_basis(can=mc)
            assert points == sorted(valuation(s) for s in adapted_basis(basis))
            if not points:
                continue
            assert engine._hull_vertices(mc) == list(
                RationalPolytope.from_points(points,
                                             ambient=lattice.n).vertices)
            off_nef += min(mc) < 0

    check()
    assert any(any(prev) for _, prev in sources)
    assert off_nef or low == 0


@pytest.mark.parametrize("engine", ["okounkov_a2_12", "okounkov_a2_121"])
def test_hull_prefilter_keeps_the_vertices(request, engine):
    """Dropping the points strictly inside an axis-parallel line of the
    set leaves the hull vertices of the whole set, degenerate sets
    included."""
    engine = request.getfixturevalue(engine)
    point = st.tuples(*[st.integers(-3, 3)] * engine.n)

    @settings(max_examples=60)
    @given(st.lists(point, min_size=1, max_size=25, unique=True))
    def check(points):
        assert engine._hull(points) == list(
            RationalPolytope.from_points(points, ambient=engine.n).vertices)

    check()


def test_monomial_level_sets_run_no_double_description(lattice_a2_12,
                                                       monkeypatch):
    """Off the nef cone of a word without a repeated letter, a level set is
    read off the order matrices by back-substitution: no double
    description runs."""
    engine = OkounkovEngine(lattice_a2_12)
    sweeps = 0
    sweep = polyhedra._dual_description

    def counted(rows, dim):
        nonlocal sweeps
        sweeps += 1
        return sweep(rows, dim)

    monkeypatch.setattr(polyhedra, "_dual_description", counted)
    for coords in [(-1, 1), (-2, 3), (-1, 4), (-3, 5)]:
        assert lattice_a2_12.engine.section_route(can=coords) == "monomial"
        for level in (1, 2, 3):
            assert engine.valuation_points(can(*coords), level)
    assert sweeps == 0


@pytest.mark.parametrize("cartan", ["A2", "B2"])
def test_sweep_builds_each_class_hull_once(cartan, monkeypatch):
    """Work regression for the A2 (1,2) sweep (4,2), (6,3), (8,4), and for
    the B2 (1,2) sweep that the benchmark's cone session also runs.

    Without the vertex memo, every sweep step and its saturation run
    rebuilt each class hull from the whole level set: 715 hulls from 59,454
    points.  With memoized vertices and hulls of summed vertices it builds
    341 from 10,399; 8,498 of those points belong to the 113 classes off
    the nef cone, whose level sets come from the monomial route and are
    hulled whole.  Keeping only the ends of each axis-parallel line of a
    set leaves 1,964 points for those 341 hulls.  Reading the monomial
    route's exponents off the triangular order matrix, with no order
    polytope built by double description, leaves 228 hulls from 1,679
    points.  Each hull took two double-description sweeps, one to the
    facets and one back to the vertices: 468 sweeps with the 12 of the
    cones.  Reading the vertices off the first sweep's tight-facet masks
    leaves 240.  The 140 nef classes are plain sums of the slot valuation
    sets, so their vertices are read off one hull of slot corner sums per
    support, with no hull of their own: 91 hulls from 1,066 points, and
    103 sweeps.  The level set of a class off the nef cone is the lattice
    points of its order polytope, so its vertices are that polytope's,
    read off one sweep over its rows while they are integral (on A2 and
    B2 (1,2) they always are), and no point is enumerated: 5 hulls from
    14 points, and still 103 sweeps, since a box holding one point takes
    none (130 sweeps without that shortcut).  The B2 case, added with the
    order polytope, does the same work.

    The 113 classes off the nef cone list no monomial exponents (113
    calls before the order polytope), and build no monomial section basis
    and no adapted basis (113 of each before that).  The nef dimensions
    need only the character of each of the 28 tail classes, one Demazure
    operator each (280 operators when each class built its full
    character, 140 when each built its tail's).  The section engine keeps
    that memo, so the 4 tails that the probe run already counted are not
    built again: 24 operators.  A fresh lattice keeps other tests' tails
    out of the count.  Counts are deterministic where a time bound would
    be flaky.
    """
    lattice = PicardLattice(CartanDatum.from_type(cartan), WeylWord((1, 2)))
    assert lattice.change
    engine = OkounkovEngine(lattice)
    calls = points_in = 0
    build = RationalPolytope.from_points.__func__

    def counted(cls, points, ambient=None):
        nonlocal calls, points_in
        calls += 1
        points_in += len(points)
        return build(cls, points, ambient)

    work = {"demazure_operator": 0, "adapted_basis": 0,
            "monomial_section_basis": 0, "monomial_exponents": 0,
            "_dual_description": 0}

    def tallied(name, fn):
        def wrapper(*args, **kwargs):
            work[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(RationalPolytope, "from_points", classmethod(counted))
    for module, name in ((rootsys, "demazure_operator"),
                         (okounkov, "adapted_basis"),
                         (SectionEngine, "monomial_section_basis"),
                         (SectionEngine, "monomial_exponents")):
        monkeypatch.setattr(module, name, tallied(name, getattr(module, name)))
    monkeypatch.setattr(polyhedra, "_dual_description",
                        tallied("_dual_description",
                                polyhedra._dual_description))
    for levels, box in ((4, 2), (6, 3), (8, 4)):
        assert engine.global_cone(levels, box).rays == GOLDEN_RAYS_12
    assert calls == 5
    assert points_in == 14
    assert work == {"demazure_operator": 24, "adapted_basis": 0,
                    "monomial_section_basis": 0, "monomial_exponents": 0,
                    "_dual_description": 103}


# Words without a repeated letter, on which every class with a negative
# entry takes the monomial route.  Only on G2 (1,2) does an order polytope
# have a fractional vertex.
ORDER_WORDS = (("A2", (1, 2)), ("B2", (1, 2)), ("G2", (1, 2)),
               ("A3", (1, 2, 3)), ("B3", (1, 2, 3)), ("C3", (3, 2, 1)),
               ("A3", (2, 1, 3)))


@pytest.mark.parametrize(
    "cartan, word", ORDER_WORDS,
    ids=[f"{t}-{''.join(map(str, w))}" for t, w in ORDER_WORDS])
def test_off_nef_vertices_are_the_hull_vertices(monkeypatch, cartan, word):
    """The vertices a class off the nef cone reads off its order polytope
    equal the hull vertices of its monomial exponents, and on a length-2
    word those of the planar oracle hull of the order polytope's points.
    Points are listed for the hull only when a vertex is fractional,
    which happens on G2 (1,2) and nowhere else."""
    lattice = PicardLattice(CartanDatum.from_type(cartan), WeylWord(word))
    sections = lattice.engine
    n = lattice.n
    listed = 0
    exponents = SectionEngine.monomial_exponents

    def counted(self, mc):
        nonlocal listed
        listed += 1
        return exponents(self, mc)

    monkeypatch.setattr(SectionEngine, "monomial_exponents", counted)
    hulled = []

    @settings(max_examples=50)
    @given(st.tuples(*[st.integers(-3, 6)] * n).filter(
        lambda mc: min(mc) < 0))
    def check(mc):
        engine = OkounkovEngine(lattice)
        before = listed
        verts = engine._hull_vertices(mc)
        if listed > before:
            hulled.append(mc)
        points = sections.monomial_exponents(mc)
        assert verts == list(RationalPolytope.from_points(
            points, ambient=n).vertices)
        if n == 2:
            planar, _ = order_polytope_points(
                sections.slot_order_matrix(),
                sections.coordinate_order_matrix(), mc)
            assert verts == sorted(convex_hull_2d(planar))

    check()
    assert bool(hulled) == (cartan == "G2")


def test_slot_set_without_the_zero_valuation_is_refused(a2, monkeypatch):
    """Minkowski steps grow from a copy of their source, which holds only
    while every slot set holds the zero valuation; a slot set without it
    raises EngineError before any sum."""
    lattice = PicardLattice(a2, WeylWord((1, 2)))
    slots = lattice.engine.slot_polynomials
    monkeypatch.setattr(lattice.engine, "slot_polynomials",
                        lambda k: [p for p in slots(k) if any(valuation(p))])
    with pytest.raises(EngineError, match="^slot 1 has no section of zero "
                       "valuation$"):
        OkounkovEngine(lattice).level_count(can(1, 1))


# (type, word, top): nef classes with coordinates in 0..top.
SUM_WORDS = (("A2", (1, 2), 4), ("B2", (1, 2), 4), ("G2", (1, 2), 3),
             ("A2", (1, 2, 1), 2), ("B2", (1, 2, 1), 2),
             ("A3", (1, 2, 3), 2))
SUM_IDS = [f"{t}-{''.join(map(str, w))}" for t, w, _ in SUM_WORDS]


def nef_orders(n, top):
    return st.lists(st.tuples(*[st.integers(0, top)] * n), min_size=1,
                    max_size=6, unique=True)


@pytest.mark.parametrize("cartan, word, top", SUM_WORDS, ids=SUM_IDS)
def test_level_sets_are_counted_then_decoded_to_the_plain_sums(monkeypatch,
                                                                cartan, word,
                                                                top):
    """On random nef classes visited in random orders, so that each level
    set grows from a varying cached class, the count is read without
    decoding any point and equals the length of the plain per-slot sum,
    and the decoded level set equals that sum."""
    lattice = PicardLattice(CartanDatum.from_type(cartan), WeylWord(word))
    sources = recorded_sources(monkeypatch)

    @settings(max_examples=30)
    @given(nef_orders(lattice.n, top))
    def check(order):
        engine = OkounkovEngine(lattice)
        for mc in order:
            expected = minkowski_points(lattice, mc)
            assert engine.level_count(can(*mc)) == len(expected)
            assert mc not in engine._points
            assert engine.valuation_points(can(*mc)) == expected

    check()
    assert any(any(prev) for _, prev in sources)


@pytest.mark.parametrize("cartan, word, top", SUM_WORDS, ids=SUM_IDS)
def test_plain_class_vertices_are_the_hull_vertices(cartan, word, top):
    """The vertices a plain class reads off the vertex list of its
    support equal the hull vertices of its level set, on classes with
    every pattern of zero entries."""
    lattice = PicardLattice(CartanDatum.from_type(cartan), WeylWord(word))
    supports = set()

    @settings(max_examples=30)
    @given(nef_orders(lattice.n, top))
    def check(order):
        engine = OkounkovEngine(lattice)
        for mc in order:
            points = engine.valuation_points(can(*mc))
            assert mc in engine._sums
            assert engine._hull_vertices(mc) == list(
                RationalPolytope.from_points(points,
                                             ambient=lattice.n).vertices)
            supports.add(tuple(c > 0 for c in mc))

    check()
    assert len(supports) == 2 ** lattice.n


@pytest.mark.parametrize("cartan, word, top", SUM_WORDS, ids=SUM_IDS)
def test_plain_bodies_are_sums_of_slot_hulls(cartan, word, top):
    """When levels 1..L of a nef class m are all plain, level k has the
    hull k (m_1 conv(N_1) + ... + m_n conv(N_n)), so the body is that sum
    of slot hulls for every L."""
    lattice = PicardLattice(CartanDatum.from_type(cartan), WeylWord(word))
    plain = []

    @settings(max_examples=20)
    @given(st.tuples(*[st.integers(0, top)] * lattice.n).filter(any),
           st.integers(1, 3))
    def check(mc, levels):
        engine = OkounkovEngine(lattice)
        body = engine.body(can(*mc), levels)
        assume(all(tuple(k * c for c in mc) in engine._sums
                   for k in range(1, levels + 1)))
        plain.append(mc)
        corners = [hull for _, hull in engine._slot_sets()]
        sums = {tuple(sum(c * v for c, v in zip(mc, column))
                      for column in zip(*choice))
                for choice in itertools.product(*corners)}
        assert body.polytope == RationalPolytope.from_points(
            sorted(sums), ambient=lattice.n)

    check()
    assert plain


def test_no_sum_grows_from_a_section_route_class(lattice_a2_12,
                                                monkeypatch):
    """A nef class whose sum does not certify takes the route rule and is
    not kept, so later sums grow from kept sums only: every kept sum is
    plain and reads its vertices off its support, and the other class's
    hull is taken of its level set."""
    engine = OkounkovEngine(lattice_a2_12)
    summed = OkounkovEngine._sum_level
    monkeypatch.setattr(OkounkovEngine, "_sum_level",
                        lambda self, mc: mc != (1, 1) and summed(self, mc))
    sources = recorded_sources(monkeypatch)
    order = [(1, 1), (2, 1), (2, 3)]
    points = {mc: engine.valuation_points(can(*mc)) for mc in order}
    assert sources == [((2, 1), (0, 0)), ((2, 3), (2, 1))]
    assert (1, 1) not in engine._sums and (1, 1) in engine._points
    assert [r[1] for r in engine._ranked] == [(0, 0), (2, 1), (2, 3)]
    for mc in reversed(order):
        assert points[mc] == minkowski_points(lattice_a2_12, mc)
        assert (mc in engine._sums) == (mc != (1, 1))
        assert engine._hull_vertices(mc) == list(
            RationalPolytope.from_points(points[mc], ambient=2).vertices)


def test_an_uncertified_sum_falls_back_to_the_route_rule(lattice_a2_12):
    """With a point dropped from slot 1's valuation set, the sum for
    (2, 1) falls short of the character dimension, so it is not kept and
    the level set comes from the section route, the same 7 points as a
    fresh engine's certified sum."""
    expected = OkounkovEngine(lattice_a2_12).valuation_points(can(2, 1))
    assert len(expected) == 7
    engine = OkounkovEngine(lattice_a2_12)
    slots = engine._slot_sets()
    nus, hull = slots[0]
    slots[0] = (nus[:-1], hull)
    assert engine.valuation_points(can(2, 1)) == expected
    assert (2, 1) not in engine._sums and (2, 1) in engine._points
    assert engine.level_count(can(2, 1)) == 7


def test_engine_refusals(okounkov_a1, okounkov_a2_12):
    """A restriction needs a second letter, and a level set a positive
    level."""
    with pytest.raises(ValidationError,
                       match="^restriction needs a word of length at "
                             "least 2$"):
        okounkov_a1.restriction_check(can(1), 2)
    for query in (okounkov_a2_12.valuation_points,
                  okounkov_a2_12.level_count):
        with pytest.raises(ValidationError,
                           match="^level must be a positive integer$"):
            query(can(1, 1), 0)


def test_cone_session_decodes_no_point(lattice_a2_12):
    """Work pin for an A2 (1,2) session shaped like the benchmark's: the
    sweep (4,2), (6,3), (8,4), three level-8 volume checks and one
    restriction check read only counts and hull vertices, so no nef level
    set is decoded (27,084 points in 144 classes when every certified sum
    was decoded)."""
    engine = OkounkovEngine(lattice_a2_12)
    for levels, box in ((4, 2), (6, 3), (8, 4)):
        engine.global_cone(levels, box)
    for coords in ((1, 1), (2, 1), (1, 2)):
        assert engine.volume_check(can(*coords), 8)["certified"]
    engine.restriction_check(can(1, 1), 4)
    for each in (engine, engine._truncated_engine()):
        assert all(min(mc) < 0 for mc in each._points)
    assert len(engine._sums) + len(engine._truncated._sums) == 2 + 144
