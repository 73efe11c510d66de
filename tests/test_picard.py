"""Picard lattice: basis change, positivity tests, volumes, pullbacks."""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottsam import (
    Basis,
    BasisChange,
    CartanDatum,
    DivisorClass,
    EngineError,
    NoMatch,
    NotNef,
    OkounkovEngine,
    PicardLattice,
    SectionEngine,
    ValidationError,
    VerificationFailure,
    Weight,
    WeylWord,
    cli,
    format_divisor,
    parse_divisor,
    picard,
    sections,
)

from oracles import (
    dense_rank,
    divided_sections,
    divisible_part,
    interpolated_degree,
    nef_shift,
    searched_pullbacks,
    weyl_dim_a2,
)


def can(*coords):
    return DivisorClass(coords, Basis.CANONICAL)


def eff(*coords):
    return DivisorClass(coords, Basis.EFFECTIVE)


@pytest.mark.parametrize("build, message", [
    (lambda a2: DivisorClass((1, 0), "can"), "basis must be a Basis value"),
    (lambda a2: can(1.5, 1), "divisor class entry 1.5 is not an integer"),
    (lambda a2: eff(1, True), "divisor class entry True is not an integer"),
    (lambda a2: SectionEngine(a2, (1, 2)).section_basis_nef((1.9, 1)),
     "divisor class entry 1.9 is not an integer"),
    (lambda a2: SectionEngine(a2, (1, 2)).section_basis_glue(eff=(0, 0.5)),
     "divisor class entry 0.5 is not an integer"),
], ids=["basis", "fraction", "boolean", "nef-fraction", "glue-fraction"])
def test_divisor_class_validation(a2, build, message):
    """A coordinate that is not an integer is refused, never truncated."""
    with pytest.raises(ValidationError, match=message):
        build(a2)
    assert can(1, 0).scaled(3).coords == (3, 0)
    assert can(1, 0) != eff(1, 0)
    assert can(1.0, Fraction(2)).coords == (1, 2)


def test_parse_and_format_divisors():
    assert parse_divisor("can:1,1", 2) == can(1, 1)
    assert parse_divisor("eff:2,-1", 2) == eff(2, -1)
    assert format_divisor(can(1, -1)) == "can:1,-1"
    assert format_divisor(eff(0, 2)) == "eff:0,2"
    for bad in ("nef:1,1", "can:1", "can:1,2,3", "can:x,y", "1,1"):
        with pytest.raises(ValidationError):
            parse_divisor(bad, 2)


def test_basis_change_requires_integer_inverse():
    with pytest.raises(ValidationError):
        BasisChange(((2, 0), (0, 1)))
    with pytest.raises(ValidationError):
        BasisChange(((1, 1), (1, 1)))
    with pytest.raises(ValidationError):
        BasisChange(((1, 0, 0), (0, 1, 0)))
    change = BasisChange(((1, -1), (0, 1)))
    assert change.inverse == ((1, 1), (0, 1))


def test_basis_change_matrices(lattice_a1, lattice_a2_12, lattice_a2_121,
                               lattice_b2_12):
    assert lattice_a1.change.matrix == ((1,),)
    assert lattice_a2_12.change.matrix == ((1, -1), (0, 1))
    assert lattice_b2_12.change.matrix == ((1, -1), (0, 1))
    assert lattice_a2_121.change.matrix == ((1, -1, 1), (0, 1, -1), (0, 0, 1))


def _perturbations(n, wide):
    """Changes of the off-diagonal entries of an n x n matrix, as tuples of
    ((row, col), delta): every +-1 change of one entry and, when wide,
    every +-2 change of one entry and every +-1/+-1 change of two."""
    entries = list(itertools.permutations(range(n), 2))
    deltas = (1, -1, 2, -2) if wide else (1, -1)
    changes = [((entry, d),) for entry in entries for d in deltas]
    if wide:
        changes += [((first, d), (second, e))
                    for first, second in itertools.combinations(entries, 2)
                    for d in (1, -1) for e in (1, -1)]
    return changes


@pytest.mark.parametrize("fixture", ["lattice_a2_12", "lattice_b2_12",
                                     "lattice_a2_121", "lattice_b2_121"])
def test_perturbed_basis_changes_are_rejected(request, monkeypatch, fixture):
    """Mutation check: every +-1 change of one off-diagonal entry of the raw
    matrix fails verification, on words with and without a repeated letter.
    On A2 and B2 (1,2,1), whose glue calls solve the proven degree box,
    so do every +-2 change of one entry and every +-1/+-1 change of two,
    84 matrices per word: on A2 48 fail the integral-inverse check, 23 the
    boundary-section column check and 13 the probes; on B2 38, 34 and 12.
    """
    engine = request.getfixturevalue(fixture).engine
    raw = engine.effective_to_canonical_matrix()
    wide = not engine.is_multiplicity_free()
    changes = _perturbations(engine.n, wide)
    assert len(changes) == (84 if wide else 4)
    accepted = []
    for change in changes:
        matrix = [list(line) for line in raw]
        for (row, col), delta in change:
            matrix[row][col] += delta
        monkeypatch.setattr(engine, "effective_to_canonical_matrix",
                            lambda m=tuple(map(tuple, matrix)): m)
        try:
            picard.compute_basis_change(engine)
        except VerificationFailure:
            continue
        accepted.append(change)
    assert accepted == []


@pytest.mark.parametrize("matrix", [((1, 2), (2, 1)), ((1, 1), (1, 1))])
def test_non_unimodular_basis_changes_are_rejected(lattice_a2_12, monkeypatch,
                                                   capsys, matrix):
    """A unit-diagonal candidate of determinant -3, or a singular one, fails
    the integral-inverse check before any probe; the CLI exits 4 on one
    line."""
    engine = lattice_a2_12.engine
    monkeypatch.setattr(engine, "effective_to_canonical_matrix",
                        lambda: matrix)
    with pytest.raises(VerificationFailure, match="unimodular"):
        picard.compute_basis_change(engine)
    monkeypatch.setattr(SectionEngine, "effective_to_canonical_matrix",
                        lambda self: matrix)
    assert cli.main(["body", "--type", "A2", "--word", "1,2",
                     "--bundle", "eff:1,1"]) == 4
    err = capsys.readouterr().err
    assert "unimodular" in err and err.count("\n") == 1


def test_truncated_word_shares_the_leading_block(lattice_a2_12,
                                                 lattice_a2_121):
    big = lattice_a2_121.change.matrix
    small = lattice_a2_12.change.matrix
    assert tuple(row[:2] for row in big[:2]) == small


def test_basis_roundtrips(lattice_a2_12, lattice_a2_121):
    rng = random.Random(20260819)
    for lattice in (lattice_a2_12, lattice_a2_121):
        n = len(lattice.change.matrix)
        for _ in range(25):
            coords = tuple(rng.randint(-5, 5) for _ in range(n))
            start = DivisorClass(coords, Basis.CANONICAL)
            there = lattice.effective(start)
            assert lattice.canonical(there) == start
            start = DivisorClass(coords, Basis.EFFECTIVE)
            back = lattice.effective(lattice.canonical(start))
            assert back == start


def test_conversion_fixed_points(lattice_a2_12):
    assert lattice_a2_12.canonical(eff(1, 0)) == can(1, 0)
    assert lattice_a2_12.canonical(eff(0, 1)) == can(-1, 1)
    assert lattice_a2_12.effective(can(1, 1)) == eff(2, 1)


def test_positivity_tests(lattice_a2_12):
    assert lattice_a2_12.is_nef(can(1, 1))
    assert lattice_a2_12.is_nef(can(0, 0))
    assert not lattice_a2_12.is_nef(can(-1, 1))
    assert lattice_a2_12.is_effective(can(-1, 1))
    assert not lattice_a2_12.is_effective(can(1, -1))
    assert lattice_a2_12.is_effective(eff(0, 3))


def test_nef_implies_effective(lattice_a2_12, lattice_b2_12, lattice_a2_121):
    """The nef orthant lies in the effective cone.

    Checked through the verified basis change, because is_effective answers
    nef classes without it.
    """
    for lattice, span in ((lattice_a2_12, range(-2, 3)),
                          (lattice_b2_12, range(-2, 3)),
                          (lattice_a2_121, range(-1, 2))):
        for coords in itertools.product(span, repeat=lattice.n):
            divisor = DivisorClass(coords, Basis.CANONICAL)
            if lattice.is_nef(divisor):
                assert min(lattice.change.to_effective(divisor).coords) >= 0


@settings(max_examples=60)
@given(st.data())
def test_is_effective_agrees_with_the_basis_change(
        lattice_a2_12, lattice_b2_12, lattice_a2_121, data):
    lattice = data.draw(st.sampled_from(
        (lattice_a2_12, lattice_b2_12, lattice_a2_121)))
    coords = data.draw(st.lists(st.integers(-4, 4), min_size=lattice.n,
                                max_size=lattice.n))
    divisor = DivisorClass(coords, Basis.CANONICAL)
    assert lattice.is_effective(divisor) \
        == (min(lattice.change.to_effective(divisor).coords) >= 0)


class ProbeRun(Exception):
    """Raised in place of building the verified basis change."""


@pytest.fixture
def no_probe_run(monkeypatch):
    """Make every basis-change build raise; the list records each attempt."""
    attempts = []

    def refuse(engine):
        attempts.append(engine.word.indices)
        raise ProbeRun(f"basis change built for {engine.word.indices}")

    monkeypatch.setattr(picard, "compute_basis_change", refuse)
    return attempts


def test_nef_work_never_builds_the_basis_change(no_probe_run, a2, capsys):
    assert cli.main(["body", "--type", "A2", "--word", "1,2",
                     "--bundle", "can:1,1"]) == 0
    assert cli.main(["weights", "--type", "A2", "--word", "1,2,1",
                     "--bundle", "can:0,1,1", "--mu", "0,0"]) == 0
    capsys.readouterr()
    lattice = PicardLattice(a2, WeylWord([1, 2]))
    engine = OkounkovEngine(lattice)
    points = engine.semigroup(can(1, 1), 2)
    assert len(points) == sum(lattice.section_dimension(can(k, k))
                              for k in (1, 2))
    assert engine.volume_check(can(1, 1), 3)["certified"]
    assert engine.restriction_check(can(0, 1), 3)["equal"]
    assert no_probe_run == []


def test_conversions_still_build_the_basis_change(no_probe_run, a2):
    runs = (lambda lattice: OkounkovEngine(lattice).body(eff(1, 2), 2),
            lambda lattice: lattice.effective(can(1, -1)),
            lambda lattice: OkounkovEngine(lattice).global_cone(1, 1))
    for run in runs:
        with pytest.raises(ProbeRun):
            run(PicardLattice(a2, WeylWord([1, 2])))
    assert no_probe_run == [(1, 2)] * 3


def test_is_effective_never_builds_the_basis_change(no_probe_run, a2,
                                                    capsys):
    """A canonical class with a negative coordinate is effective exactly
    when it has a nonzero section; the route rule's section space answers
    that."""
    lattice = PicardLattice(a2, WeylWord([1, 2]))
    assert lattice.is_effective(can(-1, 1))
    assert not lattice.is_effective(can(1, -1))
    assert not lattice.is_effective(eff(1, -1))
    lattice = PicardLattice(a2, WeylWord([1, 2, 1]))
    assert lattice.is_effective(can(-1, 1, 0))
    assert not lattice.is_effective(can(0, 0, -1))
    assert cli.main(["body", "--type", "A2", "--word", "1,2",
                     "--bundle", "can:-1,1"]) == 0
    capsys.readouterr()
    assert no_probe_run == []


EFFECTIVE_WORDS = [("A2", (1, 2)), ("B2", (1, 2)), ("G2", (1, 2)),
                   ("A3", (1, 2, 3)), ("A2", (1, 2, 1))]


@settings(max_examples=60)
@given(st.sampled_from(EFFECTIVE_WORDS), st.data())
def test_is_effective_is_the_route_rule(case, data):
    """On canonical classes with a negative entry, is_effective, which asks
    the route rule, gives the answer of the canonical glue route."""
    name, word = case
    lattice = lattice_of(name, word)
    top = 3 if len(word) == 2 else 2
    coords = data.draw(st.tuples(*[st.integers(-top, top)] * len(word))
                       .filter(lambda c: min(c) < 0))
    assert lattice.is_effective(can(*coords)) \
        == bool(lattice.engine.section_basis_glue(can=coords))


def test_is_effective_reads_the_monomial_box(monkeypatch):
    """Work pin: the monomial basis of A3 (1,2,3) can:-3,40,40 has 73,021
    sections; is_effective answers from the corners of its exponent box
    (monomial_box) and builds none of them."""
    lattice = PicardLattice(CartanDatum.from_type("A3"), (1, 2, 3))
    assert len(lattice.engine.monomial_exponents((-3, 40, 40))) == 73_021

    def refused(self, can):
        raise AssertionError("is_effective built a monomial basis")

    monkeypatch.setattr(SectionEngine, "monomial_section_basis", refused)
    assert lattice.is_effective(can(-3, 40, 40))
    assert not lattice.is_effective(can(40, 40, -3))


MONOMIAL_WORDS = [("A2", (1, 2)), ("B2", (1, 2)), ("G2", (1, 2)),
                  ("A3", (1, 2, 3))]


def test_is_effective_is_a_nonempty_section_basis():
    """On words without a repeated letter, is_effective on a canonical
    class with a negative entry, which reads the monomial box, answers
    whether the route rule's section basis is nonempty."""
    answers = set()

    @settings(max_examples=80)
    @given(st.sampled_from(MONOMIAL_WORDS), st.data())
    def check(case, data):
        name, word = case
        lattice = lattice_of(name, word)
        coords = data.draw(st.tuples(*[st.integers(-6, 6)] * len(word))
                           .filter(lambda c: min(c) < 0))
        answer = lattice.is_effective(can(*coords))
        assert answer == bool(lattice.engine.section_basis(coords))
        answers.add(answer)

    check()
    assert answers == {True, False}


def test_off_nef_body_without_a_repeated_letter_makes_no_glue_call(
        monkeypatch, capsys):
    """Work pin: on A3 (1,2,3) can:-1,2,2 both the effectiveness test and
    every level take the monomial route, so the job makes no glue call and
    no nullspace call (1 and 2,812 when effectiveness asked the glue
    route)."""
    calls = {"section_basis_glue": 0, "nullspace": 0}
    glue, solve = SectionEngine.section_basis_glue, sections.nullspace

    def counted_glue(self, *args, **kwargs):
        calls["section_basis_glue"] += 1
        return glue(self, *args, **kwargs)

    def counted_solve(rows, ncols):
        calls["nullspace"] += 1
        return solve(rows, ncols)

    monkeypatch.setattr(SectionEngine, "section_basis_glue", counted_glue)
    monkeypatch.setattr(sections, "nullspace", counted_solve)
    assert cli.main(["body", "--type", "A3", "--word", "1,2,3", "--bundle",
                     "can:-1,2,2", "--max-level", "4"]) == 0
    capsys.readouterr()
    assert calls == {"section_basis_glue": 0, "nullspace": 0}


def same_span(polys_a, polys_b):
    """Both lists are independent and span the same space."""
    monos = sorted({m for poly in polys_a + polys_b for m in poly.terms})
    index = {m: i for i, m in enumerate(monos)}

    def rank(polys):
        return dense_rank([{index[m]: c for m, c in poly.terms.items()}
                           for poly in polys], len(monos))

    return rank(polys_a) == len(polys_a) and rank(polys_b) == len(polys_b) \
        and len(polys_a) == len(polys_b) == rank(polys_a + polys_b)


DIVISIBLE_WORDS = [("A2", (1, 2)), ("B2", (1, 2)), ("G2", (1, 2)),
                   ("A2", (1, 2, 1)), ("B2", (1, 2, 1)), ("A3", (1, 2, 3)),
                   ("A3", (2, 1, 3, 2))]


def test_divisible_part_spans_the_glue_space():
    """Off the nef cone the chart-free oracle divisible_part spans the glue
    route's space, on random classes.  Mutation check: dividing by
    t^(N - 1) wherever N_j > 0, in place of t^N, fails on some of them."""
    mutant_failures = []

    @settings(max_examples=60)
    @given(st.sampled_from(DIVISIBLE_WORDS), st.data())
    def check(case, data):
        name, word = case
        lattice = lattice_of(name, word)
        top = {2: 3, 3: 2, 4: 1}[len(word)]
        coords = data.draw(st.tuples(*[st.integers(-top, top)] * len(word))
                           .filter(lambda c: min(c) < 0))
        glue = [sp.poly
                for sp in lattice.engine.section_basis_glue(can=coords)]
        assert same_span(divisible_part(lattice, coords), glue)
        shift, nef = nef_shift(lattice.change.matrix, coords)
        lowered = [max(0, e - 1) for e in shift]
        mutant = divided_sections(lattice.engine.section_basis_nef(nef),
                                  lowered)
        mutant_failures.append(not same_span(mutant, glue))

    check()
    assert any(mutant_failures)


def test_nef_shift_refuses_other_matrices():
    with pytest.raises(EngineError, match="unit upper triangular"):
        nef_shift(((1, 0), (1, 1)), (-1, 1))
    with pytest.raises(EngineError, match="unit upper triangular"):
        nef_shift(((2, 0), (0, 1)), (-1, 1))
    assert nef_shift(((1, -1), (0, 1)), (-1, -2)) == ((3, 2), (0, 0))


def test_section_dimensions(lattice_a2_12, lattice_a2_121, lattice_b2_12):
    assert lattice_a2_12.section_dimension(can(0, 1)) == 3
    assert lattice_a2_12.section_dimension(can(1, 1)) == 5
    assert lattice_a2_12.section_dimension(can(0, 2)) == 6
    assert lattice_a2_12.section_dimension(can(1, -1)) == 0
    assert lattice_a2_12.section_dimension(eff(2, 1)) == 5
    assert lattice_a2_121.section_dimension(DivisorClass(
        (0, 1, 1), Basis.CANONICAL)) == 8
    assert lattice_a2_121.section_dimension(DivisorClass(
        (1, 1, 1), Basis.CANONICAL)) == 13
    assert lattice_a2_121.section_dimension(DivisorClass(
        (1, 0, 0), Basis.CANONICAL)) == 2
    assert lattice_b2_12.section_dimension(can(1, 1)) == 5
    assert lattice_b2_12.section_dimension(can(2, 2)) == 12


def test_section_basis_matches_dimension(lattice_a2_12):
    basis = lattice_a2_12.section_basis(can(1, 1))
    assert len(basis) == lattice_a2_12.section_dimension(can(1, 1)) == 5


def test_volumes(lattice_a1, lattice_a2_12, lattice_b2_12):
    assert lattice_a1.volume(DivisorClass((3,), Basis.CANONICAL)) == 3
    assert lattice_a2_12.volume(can(0, 1)) == 1
    assert lattice_a2_12.volume(can(1, 1)) == 3
    assert lattice_b2_12.volume(can(1, 1)) == 3


def test_volume_homogeneity(lattice_a2_12):
    base = lattice_a2_12.volume(can(1, 1))
    for k in (2, 3):
        assert lattice_a2_12.volume(can(k, k)) == k * k * base


def test_volume_requires_nef(lattice_a2_12):
    with pytest.raises(NotNef):
        lattice_a2_12.volume(can(-1, 1))


def test_pullbacks(lattice_a1, lattice_a2_12, lattice_a2_121):
    for m in range(4):
        got = lattice_a1.pullback_from_flag_variety(Weight((m,)))
        assert got == DivisorClass((m,), Basis.CANONICAL)
    assert lattice_a2_12.pullback_from_flag_variety(Weight((0, 1))) == can(0, 1)
    assert lattice_a2_12.pullback_from_flag_variety(Weight((1, 0))) == can(1, 0)
    assert lattice_a2_12.pullback_from_flag_variety(Weight((1, 1))) == can(1, 1)
    assert lattice_a2_12.pullback_from_flag_variety(Weight((0, 0))) == can(0, 0)
    got = lattice_a2_121.pullback_from_flag_variety(Weight((1, 1)))
    assert got == DivisorClass((0, 1, 1), Basis.CANONICAL)


def test_pullback_dimension_is_the_demazure_dimension(lattice_a2_121):
    for a in range(3):
        for b in range(3):
            divisor = lattice_a2_121.pullback_from_flag_variety(Weight((a, b)))
            assert lattice_a2_121.section_dimension(divisor) \
                == weyl_dim_a2(a, b)


def test_pullback_rejects_nondominant_weights(lattice_a2_12):
    with pytest.raises(ValidationError):
        lattice_a2_12.pullback_from_flag_variety(Weight((-1, 0)))
    with pytest.raises(ValidationError):
        lattice_a2_12.pullback_from_flag_variety(Weight((0, -2)))


LOCALIZATION_WORDS = [("A1", (1,)), ("A2", (1, 2)), ("A2", (1, 2, 1)),
                      ("B2", (1, 2)), ("B2", (1, 2, 1)), ("B2", (1, 2, 1, 2)),
                      ("C2", (2, 1, 2)), ("G2", (1, 2, 1)), ("A3", (1, 2, 3)),
                      ("A3", (2, 1, 3, 2)), ("C3", (1, 2, 3))]


@functools.lru_cache(maxsize=None)
def lattice_of(name, word):
    return PicardLattice(CartanDatum.from_type(name), word)


@settings(max_examples=60)
@given(st.sampled_from(LOCALIZATION_WORDS), st.data())
def test_localization_equals_interpolation(case, data):
    """Torus localization gives the degree that character interpolation
    gives, on A-, B-, C- and G2-type words, zero degrees included."""
    name, word = case
    coords = data.draw(st.tuples(*[st.integers(0, 2)] * len(word)))
    lattice = lattice_of(name, word)
    assert lattice.volume(can(*coords)) == interpolated_degree(
        lattice.datum, word, coords)


PULLBACK_WORDS = [("A2", (1, 2)), ("A2", (2, 1, 2)), ("A3", (1, 2)),
                  ("A3", (2, 1, 3, 2)), ("A3", (3, 1, 2)), ("B2", (1, 2, 1)),
                  ("B2", (2,)), ("G2", (2, 1)), ("C3", (3, 2))]


@settings(max_examples=60)
@given(st.sampled_from(PULLBACK_WORDS), st.data())
def test_pullback_equals_the_character_search(case, data):
    """The closed-form pullback is the one class the character search
    finds, and NoMatch exactly when the search finds none."""
    name, word = case
    datum = CartanDatum.from_type(name)
    # The search takes seconds on rank-3 weights past 1.
    top = 2 if datum.rank == 2 else 1
    highest = data.draw(st.tuples(*[st.integers(0, top)] * datum.rank))
    found = searched_pullbacks(datum, word, highest)
    lattice = lattice_of(name, word)
    if found:
        assert [lattice.pullback_from_flag_variety(Weight(highest))] \
            == [can(*m) for m in found]
    else:
        with pytest.raises(NoMatch):
            lattice.pullback_from_flag_variety(Weight(highest))


def test_pullback_refuses_non_integral_weights(lattice_a2_12):
    with pytest.raises(ValidationError, match="not integral"):
        lattice_a2_12.pullback_from_flag_variety(Weight((Fraction(1, 2), 0)))


def test_wrong_length_inputs_are_rejected(lattice_a2_12):
    with pytest.raises(ValidationError):
        lattice_a2_12.is_nef(DivisorClass((1, 1, 1), Basis.CANONICAL))
    with pytest.raises(ValidationError):
        lattice_a2_12.pullback_from_flag_variety(Weight((1, 0, 0)))


def test_lattice_word_must_be_reduced(a2):
    with pytest.raises(ValidationError):
        PicardLattice(a2, WeylWord([2, 2]))
