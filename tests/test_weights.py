"""Torus weights over the semigroup and asymptotic slice statistics."""

from __future__ import annotations

from fractions import Fraction

import pytest

from bottsam import (
    Basis,
    DivisorClass,
    NonIntegralAll,
    NotAffine,
    NotInterior,
    OkounkovEngine,
    WeightedSemigroup,
    bs_character,
    multiplicity_asymptotics,
    slice_lattice_count,
    weight_projection,
    weighted_semigroup,
)


def can(coords):
    return DivisorClass(coords, Basis.CANONICAL)


def test_base_weighted_semigroup(lattice_a1):
    semigroup = weighted_semigroup(lattice_a1, can((3,)), 2)
    assert semigroup.weight_dim == 1
    assert semigroup.levels == 2
    for nu, level, mu in semigroup.triples:
        assert mu == (3 * level - 2 * nu[0],)
    level_one = sorted(mu for nu, level, mu in semigroup.triples
                       if level == 1)
    assert level_one == [(-3,), (-1,), (1,), (3,)]


def test_base_weight_projection(lattice_a1):
    semigroup = weighted_semigroup(lattice_a1, can((3,)), 2)
    projection = weight_projection(semigroup)
    assert projection.matrix == ((Fraction(-2),),)
    assert projection.level_part == (Fraction(3),)
    assert projection.apply((1,), 1) == (Fraction(1),)
    assert projection.apply((0,), 2) == (Fraction(6),)


def test_weights_match_the_character(lattice_a2_12, a2):
    semigroup = weighted_semigroup(lattice_a2_12, can((1, 1)), 2)
    for level in (1, 2):
        counted: dict[tuple, int] = {}
        for nu, k, mu in semigroup.triples:
            if k == level:
                counted[mu] = counted.get(mu, 0) + 1
        character = bs_character(a2, [1, 2], (level, level))
        assert counted == {w.coords: m for w, m in character.terms.items()}


def test_slice_counts_partition_the_level(lattice_a2_12, okounkov_a2_12):
    divisor = can((1, 1))
    semigroup = weighted_semigroup(lattice_a2_12, divisor, 2)
    projection = weight_projection(semigroup)
    body = okounkov_a2_12.body(divisor, 4)
    level_one = [(nu, mu) for nu, level, mu in semigroup.triples
                 if level == 1]
    total = 0
    for mu in {mu for _, mu in level_one}:
        total += slice_lattice_count(body.polytope, projection, mu, 1)
    assert total == len(level_one) == 5


def test_inconsistent_weights_are_not_affine():
    """NotAffine names the first weight coordinate without an exact fit."""
    triples = frozenset({((0,), 1, (0,)), ((1,), 1, (5,)), ((2,), 1, (1,))})
    semigroup = WeightedSemigroup(can((1,)), 1, triples, 1)
    with pytest.raises(NotAffine, match="coordinate 1 "):
        weight_projection(semigroup)
    triples = frozenset({((0,), 1, (0, 0, 0)), ((1,), 1, (1, 5, 0)),
                         ((2,), 1, (2, 1, 1))})
    semigroup = WeightedSemigroup(can((1,)), 1, triples, 3)
    with pytest.raises(NotAffine, match="coordinate 2 "):
        weight_projection(semigroup)


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


def test_weighted_semigroup_reuses_an_engine(lattice_a2_12, okounkov_a2_12):
    report = multiplicity_asymptotics(
        lattice_a2_12, can((1, 1)), (0, 0), 3, okounkov=okounkov_a2_12,
        require_interior=False)
    assert [row["dimension"] for row in report["levels"]] == [1, 1, 1]
    assert not report["interior"]
