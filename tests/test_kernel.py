"""Exact linear algebra kernel against brute-force Fraction elimination."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bottsam import _kernel
from bottsam._kernel import (
    IMPLEMENTATION,
    IncrementalSpan,
    invert_dense,
    kernel_lattice_basis,
    nullspace,
    rank,
    solve_dense,
)

from oracles import (
    FractionSpan,
    apply_sparse,
    cofactor_inverse,
    dense_determinant,
    dense_rank,
    fraction_nullspace,
    fraction_solve,
    primitive_row,
)

PROPERTY = settings(max_examples=80)


@st.composite
def dense_systems(draw, max_rows=6, max_cols=6):
    """A small integer matrix as dense rows, with its column count."""
    ncols = draw(st.integers(1, max_cols))
    nrows = draw(st.integers(1, max_rows))
    entries = st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols)
    return [draw(entries) for _ in range(nrows)], ncols


@st.composite
def sparse_systems(draw, values=st.integers(-6, 6), max_rows=5, max_cols=6):
    """Sparse rows over a few columns: no rows, zero rows, one row or
    several, with nonzero values drawn from values."""
    ncols = draw(st.integers(1, max_cols))
    row = st.dictionaries(st.integers(0, ncols - 1), values.filter(bool),
                          max_size=ncols)
    return draw(st.lists(row, max_size=max_rows)), ncols


@st.composite
def deficient_rows(draw, nrows, ncols,
                   values=st.integers(-6, 6)
                   | st.fractions(-3, 3, max_denominator=4)):
    """Dense rational rows, each drawn freely, zero, or an integer
    combination of two earlier rows, so the rank often falls short."""
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(("free",) * 5 + ("zero", "combination")))
        if kind == "free":
            rows.append(draw(st.lists(values, min_size=ncols,
                                      max_size=ncols)))
        elif kind == "zero" or not rows:
            rows.append([0] * ncols)
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.append([s * x + t * y for x, y in zip(a, b)])
    return rows


@st.composite
def solve_systems(draw, max_rows=6, max_cols=5, max_rhs=4):
    """Rows with several right-hand sides: each is the image of a drawn
    rational vector, so consistent, or drawn freely, so often inconsistent
    when the rank falls short."""
    ncols = draw(st.integers(1, max_cols))
    nrows = draw(st.integers(1, max_rows))
    rows = draw(deficient_rows(nrows, ncols))
    columns = []
    for _ in range(draw(st.integers(1, max_rhs))):
        if draw(st.booleans()):
            x = draw(st.lists(st.fractions(-3, 3, max_denominator=3),
                              min_size=ncols, max_size=ncols))
            columns.append([sum(a * v for a, v in zip(row, x))
                            for row in rows])
        else:
            columns.append(draw(st.lists(st.integers(-6, 6),
                                         min_size=nrows, max_size=nrows)))
    return rows, columns


def sparse(dense_rows):
    return [{j: v for j, v in enumerate(row) if v} for row in dense_rows]


def random_rows(rng, nrows, ncols, density=0.5, bound=6):
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < density:
                value = rng.randint(-bound, bound)
                if value:
                    row[j] = value
        rows.append(row)
    return rows


def test_implementation_tag():
    assert IMPLEMENTATION == "python"


def test_rank_matches_dense_elimination():
    rng = random.Random(20260819)
    for _ in range(40):
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 7)
        rows = random_rows(rng, nrows, ncols)
        assert rank(rows) == dense_rank(rows, ncols)


def test_rank_of_duplicated_rows():
    rows = [{0: 1, 2: 3}, {0: 2, 2: 6}, {1: 1}]
    assert rank(rows) == 2


def test_nullspace_vectors_annihilate_and_span():
    rng = random.Random(7)
    for _ in range(30):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        rows = random_rows(rng, nrows, ncols)
        basis = nullspace(rows, ncols)
        r = dense_rank(rows, ncols)
        assert len(basis) == ncols - r
        for vector in basis:
            assert all(v == 0 for v in apply_sparse(rows, vector))
        assert dense_rank(basis, ncols) == len(basis)


def test_kernel_lattice_basis_is_integral():
    rows = [{0: 2, 1: -2}, {2: 3}]
    basis = kernel_lattice_basis(rows, 3)
    assert len(basis) == 1
    vector = basis[0]
    assert all(isinstance(v, int) for v in vector)
    assert vector[0] == vector[1] and vector[2] == 0 and vector[0] != 0


def test_solve_and_invert_roundtrip():
    rng = random.Random(13)
    solved = 0
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(n)]
                for _ in range(n)]
        inverse = invert_dense(rows)
        if dense_determinant(rows) == 0:
            assert inverse is None
            continue
        solved += 1
        for i in range(n):
            for j in range(n):
                entry = sum(rows[i][k] * inverse[k][j] for k in range(n))
                assert entry == (1 if i == j else 0)
        rhs = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        solution, = solve_dense(rows, [rhs])
        for i in range(n):
            assert sum(rows[i][k] * solution[k] for k in range(n)) == rhs[i]
    assert solved > 10


def test_solve_dense_reports_inconsistency():
    rows = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert solve_dense(rows, [[1, 3]]) == []
    assert solve_dense(rows, [[1, 2], [1, 3], [0, 0]]) == [[1, 0]]


@PROPERTY
@given(dense_systems())
def test_rank_and_nullspace_match_the_oracle(system):
    dense_rows, ncols = system
    rows = sparse(dense_rows)
    expected = dense_rank(rows, ncols)
    assert rank(rows) == expected
    basis = nullspace(rows, ncols)
    assert len(basis) == ncols - expected
    for vector in basis:
        assert all(v == 0 for v in apply_sparse(rows, vector))
    assert dense_rank(basis, ncols) == len(basis)


@PROPERTY
@given(dense_systems())
def test_incremental_span_tracks_the_rank(system):
    dense_rows, ncols = system
    rows = sparse(dense_rows)
    span = IncrementalSpan()
    for count, row in enumerate(rows, start=1):
        grew = dense_rank(rows[:count], ncols) > dense_rank(rows[:count - 1],
                                                            ncols)
        assert (span.add(row) is not None) == grew
    assert len(span) == rank(rows)


@settings(max_examples=200)
@given(solve_systems())
def test_solve_dense_solves_or_reports_inconsistency(system):
    """Each returned solution is the Fraction elimination's for its
    column, and the list stops exactly at the first column that the rank
    test and the Fraction elimination call inconsistent."""
    rows, columns = system
    ncols = len(rows[0])
    want = [fraction_solve(rows, b) for b in columns]
    stop = next((j for j, x in enumerate(want) if x is None), len(columns))
    for b, x in zip(columns, want):
        augmented = [row + [v] for row, v in zip(rows, b)]
        consistent = dense_rank(sparse(rows), ncols) \
            == dense_rank(sparse(augmented), ncols + 1)
        assert (x is not None) == consistent
    got = solve_dense(rows, columns)
    assert got == want[:stop]
    for solution, b in zip(got, columns):
        assert len(solution) == ncols
        assert all(v.__class__ is Fraction for v in solution)
        for row, v in zip(rows, b):
            assert sum(a * x for a, x in zip(row, solution)) == v


@settings(max_examples=150)
@given(st.integers(1, 4).flatmap(lambda n: deficient_rows(n, n)))
def test_invert_dense_matches_the_cofactor_inverse(rows):
    """The inverse is the adjugate over the determinant, and None comes
    back exactly when the determinant is 0."""
    inverse = invert_dense(rows)
    assert (inverse is None) == (dense_determinant(rows) == 0)
    assert inverse == cofactor_inverse(rows)


@settings(max_examples=300)
@given(sparse_systems())
@example(([], 1))
@example(([{}, {}], 1))
@example(([{1: -2}], 1))
@example(([{}, {0: -3}], 1))
def test_nullspace_matches_the_fraction_back_substitution(system):
    """The integer back-substitution returns the very vectors of the
    Fraction one, entry order included, and in the same order.  The
    examples are one-column systems, which skip elimination: no rows, only
    empty rows, a row that is zero at column 0, and a nonzero row."""
    rows, ncols = system
    got = nullspace(rows, ncols)
    want = fraction_nullspace(rows, ncols)
    assert [list(v.items()) for v in got] == [list(v.items()) for v in want]
    assert all(v.__class__ is int for vec in got for v in vec.values())


@st.composite
def one_column_rows(draw):
    """Rows of a one-column system: column 0 absent (other keys may be
    there), present, or present in several rows, always nonzero."""
    value = st.integers(-6, 6).filter(bool)
    others = st.dictionaries(st.integers(1, 3), value, max_size=2)
    with_zero = st.builds(lambda v, rest: {0: v, **rest}, value, others)
    return draw(st.lists(others | with_zero, max_size=5))


@settings(max_examples=200)
@given(one_column_rows())
@example([])
@example([{1: 4}, {2: -1}])
@example([{0: 2}, {0: -5, 1: 1}, {3: 1}])
def test_one_column_kernel_stays_clean(rows):
    """nullspace(rows, 1) reads its answer off the rows with no
    elimination, agrees with the Fraction back-substitution, and returns a
    fresh list and dict each time, so a caller that mutates one answer
    leaves the next one at [{0: 1}]."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "echelon", _no_elimination)
        got = nullspace(rows, 1)
        again = nullspace(rows, 1)
    assert got == fraction_nullspace(rows, 1)
    if got:
        assert got is not again and got[0] is not again[0]
        got[0][0] = 7
        got.append({0: 3})
        assert nullspace(rows, 1) == [{0: 1}]


def _no_elimination(rows):
    raise AssertionError("a one-column system needs no elimination")


@settings(max_examples=150)
@given(sparse_systems(st.integers(-6, 6)
                     | st.fractions(-6, 6, max_denominator=4)))
def test_integer_span_tracks_the_pivot_one_span(system):
    """The integer span keeps and drops the same rows as the pivot-1 span,
    on int or Fraction input; each kept row is primitive with a positive
    pivot and spans the line of the pivot-1 row, and is never the caller's
    own dict, though all-int rows skip the denominator pass."""
    rows, _ = system
    span, reference = IncrementalSpan(), FractionSpan()
    for row in rows:
        before = dict(row)
        got = span.add(row)
        want = reference.add(row)
        assert row == before
        assert (got is None) == (want is None)
        if got is not None:
            assert got is not row
            assert all(v.__class__ is int for v in got.values())
            assert got == primitive_row(got) == primitive_row(want)
    assert len(span) == len(reference.pivots)
