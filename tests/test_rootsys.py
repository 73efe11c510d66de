"""Root data, characters, and Demazure operators against closed forms."""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottsam import (
    CartanDatum,
    Character,
    EngineError,
    ValidationError,
    Weight,
    WeylWord,
    bs_character,
    demazure_dimension,
    demazure_operator,
    is_reduced,
    weyl_dimension,
)
from bottsam.rootsys import positive_roots

from oracles import (
    closure_length,
    closure_stays_finite,
    closure_weyl_dimension,
    demazure_by_division,
    demazure_closed_form,
    reflection_closure,
    weyl_dim_a1,
    weyl_dim_a2,
    weyl_dim_b2,
)


def test_builtin_cartan_matrices():
    assert CartanDatum.from_type("A1").matrix == ((2,),)
    assert CartanDatum.from_type("A2").matrix == ((2, -1), (-1, 2))
    assert CartanDatum.from_type("B2").matrix == ((2, -1), (-2, 2))
    assert CartanDatum.from_type("C2").matrix == ((2, -2), (-1, 2))
    assert CartanDatum.from_type("G2").matrix == ((2, -3), (-1, 2))
    b3 = CartanDatum.from_type("B3").matrix
    assert b3[2][1] == -2 and b3[1][2] == -1
    c3 = CartanDatum.from_type("C3").matrix
    assert c3[1][2] == -2 and c3[2][1] == -1
    d4 = CartanDatum.from_type("D4").matrix
    assert len(d4) == 4 and d4[0][1] == -1


def test_from_type_rejects_unknown_names():
    for name in ("E8", "A0", "H2", "B1", "", "A", "2A"):
        with pytest.raises(ValidationError):
            CartanDatum.from_type(name)


def test_from_matrix_file_roundtrip(tmp_path):
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps({"matrix": [[2, -1], [-2, 2]]}))
    datum = CartanDatum.from_matrix_file(str(path))
    assert datum.matrix == CartanDatum.from_type("B2").matrix


def test_invalid_cartan_matrix_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([[2, 1], [1, 2]]))
    with pytest.raises(ValidationError):
        CartanDatum.from_matrix_file(str(path))


def test_fractional_cartan_entries_are_refused():
    with pytest.raises(ValidationError, match="-1.5"):
        CartanDatum([[2, -1.5], [-1, 2]])
    with pytest.raises(ValidationError):
        CartanDatum([[2, "x"], [-1, 2]])
    with pytest.raises(ValidationError, match="False"):
        CartanDatum([[2, False], [False, 2]])
    assert CartanDatum([[2, -1.0], [Fraction(-1), 2]]).matrix \
        == CartanDatum.from_type("A2").matrix


def test_simple_roots_are_cartan_columns(a2):
    assert a2.simple_root(1).coords == (2, -1)
    assert a2.simple_root(2).coords == (-1, 2)
    assert a2.fundamental_weight(1).coords == (1, 0)


def test_weight_mixed_arithmetic_equality():
    assert Weight((Fraction(2), 0)) == Weight((2, Fraction(0)))
    assert hash(Weight((Fraction(2), 0))) == hash(Weight((2, 0)))
    assert Weight((1, -1)).is_integral()
    assert not Weight((Fraction(1, 2), 0)).is_integral()
    assert Weight((1, 0)).is_dominant() and not Weight((-1, 2)).is_dominant()
    assert Weight((1, 2)).scaled(3).coords == (3, 6)


def test_character_operations(a2):
    ch = Character.monomial(Weight((1, 1)), 2)
    assert ch.dimension() == 2
    assert ch.multiplicity(Weight((1, 1))) == 2
    assert ch.multiplicity(Weight((0, 0))) == 0
    zero = Character.zero()
    assert zero.dimension() == 0 and not zero.terms


@settings(max_examples=75)
@given(st.sampled_from(["A2", "B2", "G2", "C3"]), st.data())
def test_demazure_matches_closed_form_on_random_characters(name, data):
    """The package applies the closed rank-one rule term by term; it
    agrees with the exact division along root strings that it replaced,
    on weights with int and integral Fraction coordinates.  B2 and C3
    have a simple root divisible by 2."""
    datum = CartanDatum.from_type(name)
    coordinate = st.integers(-4, 4) | st.integers(-4, 4).map(Fraction)
    terms = data.draw(st.dictionaries(
        st.tuples(*[coordinate] * datum.rank),
        st.integers(-3, 3).filter(bool), min_size=1, max_size=5))
    ch = Character({Weight(c): m for c, m in terms.items()})
    for index in range(1, datum.rank + 1):
        got = demazure_operator(datum, index, ch)
        expected = demazure_by_division(datum.matrix, index, terms)
        assert {w.coords: m for w, m in got.terms.items()} == expected


def test_demazure_refuses_a_non_integral_pairing(a2, b2):
    for datum, coords in ((a2, (Fraction(1, 2), 0)),
                          (b2, (Fraction(-3, 2), Fraction(1, 3)))):
        with pytest.raises(EngineError, match="integral"):
            demazure_operator(datum, 1, Character.monomial(Weight(coords)))
    assert demazure_operator(b2, 2, Character.monomial(
        Weight((Fraction(1, 2), 1)))).dimension() == 2


@pytest.mark.parametrize("name, word", [
    ("A2", (1, 2)), ("B2", (1, 2)), ("A2", (1, 2, 1)), ("A3", (1, 2, 3)),
    ("B2", (1, 2, 1)),
])
def test_rank_one_dimension_matches_the_character(name, word):
    """The first letter's operator contributes its rank-one count: the
    dimension of the tail character, each weight lam counted
    <lam, alpha^vee> + m_1 + 1 times, is the whole character's dimension.
    On the length-1 word of each letter it is also the closed-form count.
    """
    datum = CartanDatum.from_type(name)

    @settings(max_examples=40)
    @given(st.tuples(*[st.integers(-4, 3)] * len(word)))
    def check(m):
        tail = bs_character(datum, word[1:], m[1:])
        assert demazure_dimension(datum, word[0], tail, m[0]) \
            == bs_character(datum, word, m).dimension()
        unit = bs_character(datum, (), ())
        for letter in set(word):
            closed = demazure_closed_form(
                datum.matrix, letter,
                {datum.fundamental_weight(letter).scaled(m[0]).coords: 1})
            assert demazure_dimension(datum, letter, unit, m[0]) \
                == sum(closed.values()) \
                == bs_character(datum, (letter,), m[:1]).dimension()

    check()


def test_demazure_is_idempotent(a2, b2):
    rng = random.Random(5)
    for datum in (a2, b2):
        for _ in range(10):
            coords = tuple(rng.randint(-3, 3) for _ in range(datum.rank))
            ch = Character.monomial(Weight(coords))
            for index in (1, 2):
                once = demazure_operator(datum, index, ch)
                twice = demazure_operator(datum, index, once)
                assert once.terms == twice.terms


def test_demazure_drops_pairing_minus_one(a2):
    ch = Character.monomial(Weight((-1, 2)))
    assert demazure_operator(a2, 1, ch).dimension() == 0


def test_bs_character_a1_line_bundles(a1):
    for m in range(6):
        ch = bs_character(a1, WeylWord([1]), (m,))
        assert ch.dimension() == weyl_dim_a1(m)
        assert ch.multiplicity(Weight((m,))) == 1


def test_bs_character_accepts_plain_sequences(a2):
    via_word = bs_character(a2, WeylWord([1, 2]), (1, 1))
    via_list = bs_character(a2, [1, 2], (1, 1))
    assert via_word.terms == via_list.terms


def test_longest_word_fold_equals_weyl_dimension(a2, b2):
    for a in range(4):
        for b in range(4):
            fold = bs_character(a2, [1, 2, 1], (0, b, a)).dimension()
            assert fold == weyl_dim_a2(a, b)
    for a in range(3):
        for b in range(3):
            fold = bs_character(b2, [1, 2, 1, 2], (0, 0, a, b)).dimension()
            assert fold == weyl_dim_b2(a, b)


def test_weyl_dimension_tables(a1, a2, b2):
    rng = random.Random(3)
    for _ in range(12):
        m = rng.randint(0, 9)
        assert weyl_dimension(a1, Weight((m,))) == weyl_dim_a1(m)
        a, b = rng.randint(0, 5), rng.randint(0, 5)
        assert weyl_dimension(a2, Weight((a, b))) == weyl_dim_a2(a, b)
        assert weyl_dimension(b2, Weight((a, b))) == weyl_dim_b2(a, b)
    g2 = CartanDatum.from_type("G2")
    assert weyl_dimension(g2, Weight((1, 0))) == 7
    assert weyl_dimension(g2, Weight((0, 1))) == 14


def test_weyl_dimension_is_demazure_fold_for_longest_word(b2):
    fold = bs_character(b2, [2, 1, 2, 1], (0, 0, 1, 1)).dimension()
    assert fold == weyl_dimension(b2, Weight((1, 1))) == 16


def test_is_reduced(a2, b2):
    assert is_reduced(a2, WeylWord([1, 2, 1]))
    assert not is_reduced(a2, WeylWord([1, 1]))
    assert not is_reduced(a2, WeylWord([1, 2, 1, 2]))
    assert is_reduced(b2, WeylWord([1, 2, 1, 2]))
    assert not is_reduced(b2, WeylWord([1, 2, 1, 2, 1]))


FINITE_TYPES = ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3", "D4", "A4",
                "B4", "C4", "D5"]


@pytest.mark.parametrize("name", FINITE_TYPES)
def test_root_strings_equal_the_reflection_closure(name):
    """Roots by height are the reflection closure's positive roots, and the
    positive roots of the transposed matrix are its coroots."""
    datum = CartanDatum.from_type(name)
    closure = reflection_closure(datum.matrix)
    assert positive_roots(datum) == tuple(root for root, _ in closure)
    dual = CartanDatum(tuple(zip(*datum.matrix)))
    assert sorted(positive_roots(dual)) == sorted(c for _, c in closure)


@settings(max_examples=80)
@given(st.sampled_from(FINITE_TYPES), st.data())
def test_weyl_dimension_equals_the_closure_product(name, data):
    datum = CartanDatum.from_type(name)
    highest = data.draw(st.tuples(*[st.integers(0, 2)] * datum.rank))
    assert weyl_dimension(datum, Weight(highest)) \
        == closure_weyl_dimension(datum.matrix, highest)


@settings(max_examples=150)
@given(st.sampled_from(["A1", "A2", "B2", "G2", "A3", "B3", "C3", "A4",
                        "B4", "D4"]), st.data())
def test_inversion_test_equals_the_closure_length(name, data):
    """A word is reduced exactly when its length is the number of positive
    roots its element sends negative."""
    datum = CartanDatum.from_type(name)
    word = data.draw(st.lists(st.integers(1, datum.rank), max_size=9))
    assert is_reduced(datum, word) \
        == (closure_length(datum.matrix, word) == len(word))


def test_root_enumeration_refuses_a_matrix_of_infinite_type():
    affine = CartanDatum([[2, -2], [-2, 2]])
    for call in (lambda: positive_roots(affine),
                 lambda: weyl_dimension(affine, Weight((1, 0)))):
        with pytest.raises(ValidationError, match=(
                "^root system is not finite; "
                "the Cartan matrix is not of finite type$")):
            call()
    assert is_reduced(affine, [1, 2, 1, 2, 1])
    assert not is_reduced(affine, [1, 2, 2])


E8 = [[2, 0, -1, 0, 0, 0, 0, 0],
      [0, 2, 0, -1, 0, 0, 0, 0],
      [-1, 0, 2, -1, 0, 0, 0, 0],
      [0, -1, -1, 2, -1, 0, 0, 0],
      [0, 0, 0, -1, 2, -1, 0, 0],
      [0, 0, 0, 0, -1, 2, -1, 0],
      [0, 0, 0, 0, 0, -1, 2, -1],
      [0, 0, 0, 0, 0, 0, -1, 2]]


def is_finite(matrix) -> bool:
    """Whether positive_roots accepts the matrix; a refusal must carry
    the one message for a matrix that is not of finite type."""
    try:
        positive_roots(CartanDatum(matrix))
    except ValidationError as exc:
        assert str(exc) == ("root system is not finite; "
                            "the Cartan matrix is not of finite type")
        return False
    return True


def cycle(rank):
    """The affine matrix of type A_{rank-1}^(1): a cycle of rank nodes."""
    matrix = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i in range(rank):
        matrix[i][(i + 1) % rank] = matrix[(i + 1) % rank][i] = -1
    return matrix


def test_finite_type_is_decided_from_the_matrix():
    """Finite type is decided by the count of positive roots: A100
    (5,050 positive roots) and E8 pass, the affine matrices and a
    hyperbolic one fail, and so does a matrix without a symmetrizer."""
    for name in ("A100", "B7", "C5", "D6", "G2"):
        assert is_finite(CartanDatum.from_type(name).matrix)
    assert is_finite(E8)
    for matrix in ([[2, -2], [-2, 2]],
                   [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
                   [[2, -3], [-3, 2]],
                   [[2, -1, -1], [-2, 2, -1], [-1, -1, 2]]):
        assert not is_finite(matrix)


def test_exceptional_root_counts_pass_the_internal_bound():
    """E8 has 120 positive roots, 15 per node, and B_r and C_r for
    r >= 15 have r^2: each sits exactly on the bound r max(r, 15) that
    decides finite type, so the refusal is a strict >.  D16 (240) sits
    below it, and G2 (6) far below."""
    for datum, count in ((CartanDatum(E8), 120),
                         (CartanDatum.from_type("B15"), 225),
                         (CartanDatum.from_type("C15"), 225),
                         (CartanDatum.from_type("B16"), 256),
                         (CartanDatum.from_type("C16"), 256)):
        assert len(positive_roots(datum)) == count \
            == datum.rank * max(datum.rank, 15)
    assert len(positive_roots(CartanDatum.from_type("D16"))) == 240 < 256
    assert len(positive_roots(CartanDatum.from_type("G2"))) == 6


def test_an_affine_cycle_of_rank_30_is_refused_quickly():
    """Refusing an infinite type enumerates roots up to the bound, 900 on
    rank 30; that takes well under half a second of CPU."""
    start = time.process_time()
    assert not is_finite(cycle(30))
    assert time.process_time() - start < 0.5


def test_finite_type_matches_the_closure_on_every_small_matrix():
    """On every generalized Cartan matrix of rank 2 or 3 with off-diagonal
    entries in -3..0, the root count accepts exactly the matrices whose
    reflection closure of the simple roots stays finite."""
    for rank in (2, 3):
        pairs = [(i, j) for i in range(rank) for j in range(i + 1, rank)]
        choices = [(0, 0)] + [(x, y) for x in range(-3, 0)
                              for y in range(-3, 0)]
        verdicts = set()
        for picks in itertools.product(choices, repeat=len(pairs)):
            matrix = [[2] * rank for _ in range(rank)]
            for (i, j), (x, y) in zip(pairs, picks):
                matrix[i][j], matrix[j][i] = x, y
            verdict = is_finite(matrix)
            assert verdict == closure_stays_finite(matrix), matrix
            verdicts.add(verdict)
        assert verdicts == {False, True}


def test_type_a30_roots_and_dimensions():
    a30 = CartanDatum.from_type("A30")
    assert len(positive_roots(a30)) == 465
    assert is_reduced(a30, [1]) and is_reduced(a30, range(30, 0, -1))
    assert weyl_dimension(a30, a30.fundamental_weight(15)) \
        == math.comb(31, 15)


def test_type_a100_middle_fundamental_dimension():
    """5,050 coroots are beyond the closure oracle's reach; the dimension
    of the middle fundamental representation is a binomial coefficient."""
    a100 = CartanDatum.from_type("A100")
    assert weyl_dimension(a100, a100.fundamental_weight(50)) \
        == math.comb(101, 50)


def test_weyl_dimension_refuses_bad_weights(a2):
    with pytest.raises(ValidationError, match="dominant"):
        weyl_dimension(a2, Weight((-1, 2)))
    with pytest.raises(EngineError, match="integral"):
        weyl_dimension(a2, Weight((Fraction(1, 2), 0)))


def test_weyl_word_validation():
    with pytest.raises(ValidationError):
        WeylWord([0, 1])
    with pytest.raises(ValidationError):
        WeylWord([-1])
    assert WeylWord([1, 2]).indices == (1, 2)
    assert list(WeylWord([2, 1])) == [2, 1]
