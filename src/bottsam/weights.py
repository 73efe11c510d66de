"""Torus weights over the valuation semigroup and their asymptotics.

Every section in an adapted basis is torus homogeneous, and its valuation
is one of its monomials, in which t_j has weight -alpha_{i_j}.  So the
weight of a level-k point nu is k b - sum_j nu_j alpha_{i_j}, b the bundle
weight of D: an affine map in (valuation, level), read off the one weight
rule SectionEngine.section_weight (weight_projection).  The weight polytope
is the image of the level sets' hull vertices under that map, divided by
their level, and slicing the Okounkov body along a fiber of the map gives
the polytope whose lattice-normalized volume governs the growth of
weight-space dimensions, each the number of points the map sends to its
weight; weighted_semigroup labels every point with it.  Both walk levels
1..L through the engine's one checked run (OkounkovEngine._run), so they
refuse the classes and level counts that body refuses, with the same errors.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import NonIntegralAll, NotInterior, ValidationError
from .okounkov import OkounkovEngine
from .picard import DivisorClass, PicardLattice
from .polyhedra import RationalPolytope
from .rootsys import Weight, _integer_entry


class WeightedSemigroup:
    """Valuation points labeled with torus weights, for one class."""

    __slots__ = ("divisor", "levels", "triples", "weight_dim")

    def __init__(self, divisor: DivisorClass, levels: int,
                 triples: Sequence[tuple], weight_dim: int):
        self.divisor = divisor
        self.levels = levels
        self.triples = tuple(triples)
        self.weight_dim = weight_dim


def _coerce_projection(torus_projection, rank: int):
    if torus_projection is None:
        return None
    if not all(isinstance(row, (list, tuple)) for row in torus_projection):
        raise ValidationError(
            "torus projection rows must be lists of integers")
    rows = tuple(tuple(_integer_entry(v, "torus projection") for v in row)
                 for row in torus_projection)
    if not rows:
        raise ValidationError("torus projection needs at least one row")
    if any(len(row) != rank for row in rows):
        raise ValidationError(
            f"torus projection rows must have length {rank}")
    return rows


def _project(weight: Weight, projection) -> tuple:
    if projection is None:
        return weight.coords
    return tuple(sum(row[j] * weight.coords[j] for j in range(len(row)))
                 for row in projection)


def weighted_semigroup(engine: OkounkovEngine, divisor: DivisorClass,
                       levels: int,
                       torus_projection=None) -> WeightedSemigroup:
    """Collect (valuation, level, weight) triples for levels 1..levels.

    The points are the engine's level sets, labeled by weight_projection,
    the map read off the weight rule of every section the package builds.
    The run is checked as the engine checks a body's: a level count below 1
    or a class that is not effective raises ValidationError, and a run
    whose level sets exceed the guard raises Unstable, each before level 1
    and before any change of basis.
    """
    lattice = engine.lattice
    rows = _coerce_projection(torus_projection, lattice.datum.rank)
    classes = engine._run(divisor, levels)
    projection = weight_projection(lattice, divisor, rows)
    triples = [(nu, k, projection.apply(nu, k))
               for k, mc in enumerate(classes, 1)
               for nu in engine._level_points(mc)]
    return WeightedSemigroup(divisor, levels, triples,
                             len(projection.level_part))


def _exact(value):
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class WeightProjection:
    """Exact affine weight map mu = C nu + k b on the graded semigroup, its
    integral entries kept as ints."""

    __slots__ = ("matrix", "level_part")

    def __init__(self, matrix, level_part):
        self.matrix = tuple(tuple(_exact(v) for v in row) for row in matrix)
        self.level_part = tuple(_exact(v) for v in level_part)

    def apply(self, nu: Sequence[int], level: int) -> tuple:
        return tuple(
            sum(row[j] * nu[j] for j in range(len(nu)))
            + self.level_part[i] * level
            for i, row in enumerate(self.matrix))


def weight_projection(lattice: PicardLattice, divisor: DivisorClass,
                      torus_projection=None) -> WeightProjection:
    """The weight map of the level sets of a class, read off the one
    weight rule.

    SectionEngine.section_weight labels a level-k point nu with
    k b - sum_j nu_j alpha_{i_j}, b the bundle weight of the class: b is
    its label at the zero exponent vector, and column j of C its label at
    the j-th unit vector minus b.  A projection maps both linearly.
    """
    projection = _coerce_projection(torus_projection, lattice.datum.rank)
    mc = lattice.canonical(divisor).coords
    label = lattice.engine.section_weight
    n = lattice.n
    base = _project(label(mc, (0,) * n), projection)
    columns = [_project(label(mc, tuple(int(i == j) for i in range(n))),
                        projection) for j in range(n)]
    return WeightProjection(
        [[column[i] - b for column in columns] for i, b in enumerate(base)],
        base)


def _in_relative_interior(polytope: RationalPolytope,
                          point: Sequence[Fraction]) -> bool:
    if polytope.is_empty:
        return False
    for row in polytope.equations:
        if row[0] + sum(a * x for a, x in zip(row[1:], point)) != 0:
            return False
    for row in polytope.inequalities:
        if row[0] + sum(a * x for a, x in zip(row[1:], point)) <= 0:
            return False
    return True


def slice_lattice_count(body_polytope: RationalPolytope,
                        projection: WeightProjection,
                        mu: Sequence[Fraction], level: int) -> int:
    """Count (1/level)-lattice points of the weight fiber inside a body."""
    slice_polytope = body_polytope.sliced(_fiber_equalities(projection, mu))
    return slice_polytope.lattice_point_count(level)


def _fiber_equalities(projection: WeightProjection,
                      mu: Sequence[Fraction]):
    return [
        (row, Fraction(mu[i]) - projection.level_part[i])
        for i, row in enumerate(projection.matrix)
    ]


def multiplicity_asymptotics(lattice: PicardLattice, divisor: DivisorClass,
                             mu, levels: int,
                             torus_projection=None,
                             require_interior: bool = True) -> dict:
    """Weight-space dimensions against the sliced Okounkov body.

    Reports dim W_{k mu} in H^0, on the nef cone and off it, for each level
    with k mu integral: the level-k points the weight map sends to k mu.
    Also the slice polytope of the weight fiber with its lattice-normalized
    volume, and the ratio sequence dim / k^(d - r) where d is the body
    dimension and r the weight-polytope dimension.  With
    require_interior=False, boundary weights are reported instead of
    rejected.  A body or a weight polytope
    past the polytope ambient cap is refused (ValidationError) before any
    level set, and the run is checked as a body's (OkounkovEngine._run).
    """
    coords = mu.coords if isinstance(mu, Weight) else tuple(mu)
    mu_coords = tuple(Fraction(v) for v in coords)
    mu_text = ",".join(map(str, mu_coords))
    projection_rows = _coerce_projection(torus_projection,
                                         lattice.datum.rank)
    expected_dim = len(projection_rows) if projection_rows \
        else lattice.datum.rank
    if len(mu_coords) != expected_dim:
        raise ValidationError(
            f"weight has {len(mu_coords)} coordinates, expected "
            f"{expected_dim}")
    RationalPolytope._check_ambient(expected_dim)
    RationalPolytope._check_ambient(lattice.n)
    engine = OkounkovEngine(lattice)
    classes = engine._run(divisor, levels)
    projection = weight_projection(lattice, divisor, projection_rows)
    # An affine map sends the hull of each level set onto the hull of its
    # image, so the level sets' hull vertices span the weight polytope.
    images = [tuple(Fraction(x, k) for x in projection.apply(vert, k))
              for k, mc in enumerate(classes, 1)
              for vert in engine._hull_vertices(mc)]
    weight_polytope = RationalPolytope.from_points(images,
                                                   ambient=expected_dim)
    interior = _in_relative_interior(weight_polytope, mu_coords)
    if require_interior and not interior:
        raise NotInterior(f"weight {mu_text} is not in the relative "
                          "interior of the weight polytope")
    body = engine._scaled_hull(classes)
    d = body.dim()
    r = weight_polytope.dim()
    step = lcm(*(v.denominator for v in mu_coords)) if mu_coords else 1
    usable = [k for k in range(1, levels + 1) if k % step == 0]
    if not usable:
        raise NonIntegralAll(
            f"no level up to {levels} makes {mu_text} integral")
    rows = []
    for k in usable:
        target = tuple((k * v).numerator for v in mu_coords)
        dimension = sum(projection.apply(nu, k) == target
                        for nu in engine._level_points(classes[k - 1]))
        ratio = Fraction(dimension, k ** (d - r))
        rows.append({"level": k, "dimension": dimension, "ratio": ratio})
    slice_polytope = body.sliced(_fiber_equalities(projection, mu_coords))
    slice_volume = Fraction(0) if slice_polytope.is_empty \
        else slice_polytope.lattice_volume()
    return {
        "levels": rows,
        "slice_vertices": slice_polytope.vertices,
        "slice_volume": slice_volume,
        "body_dimension": d,
        "weight_dimension": r,
        "codimension": d - r,
        "interior": interior,
    }
