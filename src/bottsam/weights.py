"""Torus weights over the valuation semigroup and their asymptotics.

Every section in an adapted basis is torus homogeneous, and its valuation
is one of its monomials, in which t_j has weight -alpha_{i_j}.  So the
weight of a level-k point nu is the bundle weight of k D minus
sum_j nu_j alpha_{i_j}: recording it next to the valuation gives a weighted
semigroup on which the weight map is affine by construction in
(valuation, level).  Slicing the Okounkov body along a fiber of that map
gives the polytope whose lattice-normalized volume governs the growth of
weight-space dimensions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from ._kernel import solve_dense
from .errors import NonIntegralAll, NotAffine, NotInterior, ValidationError
from .okounkov import OkounkovEngine, _check_levels, _check_run
from .picard import DivisorClass, PicardLattice
from .polyhedra import RationalPolytope
from .rootsys import Weight, _integer_entry, bs_character


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
    if not rows or any(len(row) != rank for row in rows):
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

    The points are the engine's level sets, each labeled by
    SectionEngine.section_weight in the canonical class of its level, the
    weight rule of every section the package builds.  A run whose level
    sets exceed the guard raises Unstable before level 1.
    """
    _check_levels(levels)
    lattice = engine.lattice
    projection = _coerce_projection(torus_projection, lattice.datum.rank)
    _check_run(engine, divisor, levels)
    label = lattice.engine.section_weight
    triples = []
    for k in range(1, levels + 1):
        mc = lattice.canonical(divisor.scaled(k)).coords
        triples.extend((nu, k, _project(label(mc, nu), projection))
                       for nu in engine.valuation_points(divisor, k))
    width = len(projection) if projection else lattice.datum.rank
    return WeightedSemigroup(divisor, levels, triples, width)


class WeightProjection:
    """Exact affine weight map mu = C nu + k b on the graded semigroup."""

    __slots__ = ("matrix", "level_part")

    def __init__(self, matrix, level_part):
        self.matrix = tuple(tuple(Fraction(v) for v in row)
                            for row in matrix)
        self.level_part = tuple(Fraction(v) for v in level_part)

    def apply(self, nu: Sequence[int], level: int) -> tuple[Fraction, ...]:
        return tuple(
            sum(row[j] * nu[j] for j in range(len(nu)))
            + self.level_part[i] * level
            for i, row in enumerate(self.matrix))


def weight_projection(semigroup: WeightedSemigroup) -> WeightProjection:
    """Fit the unique exact affine map (nu, k) -> mu through all triples.

    Degenerate directions that the data does not determine get coefficient
    zero; an inconsistent fit raises NotAffine.
    """
    if not semigroup.triples:
        raise ValidationError("weighted semigroup is empty")
    n = len(semigroup.triples[0][0])
    rows = [(*nu, k) for nu, k, _ in semigroup.triples]
    columns = [[mu[i] for _, _, mu in semigroup.triples]
               for i in range(semigroup.weight_dim)]
    fits = solve_dense(rows, columns)
    if len(fits) < len(columns):
        raise NotAffine(
            f"weight coordinate {len(fits) + 1} admits no exact affine fit "
            "in (valuation, level)")
    return WeightProjection([fit[:n] for fit in fits],
                            [fit[n] for fit in fits])


def _weight_polytope(semigroup: WeightedSemigroup) -> RationalPolytope:
    points = [tuple(Fraction(v, k) for v in mu)
              for _, k, mu in semigroup.triples]
    return RationalPolytope.from_points(points,
                                        ambient=semigroup.weight_dim)


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

    Reports dim W_{k mu} for each level with k mu integral, the slice
    polytope of the weight fiber with its lattice-normalized volume, and
    the ratio sequence dim / k^(d - r) where d is the body dimension and r
    the weight-polytope dimension.  With require_interior=False, boundary
    weights are reported instead of rejected.
    """
    _check_levels(levels)
    coords = mu.coords if isinstance(mu, Weight) else tuple(mu)
    mu_coords = tuple(Fraction(v) for v in coords)
    projection_rows = _coerce_projection(torus_projection,
                                         lattice.datum.rank)
    expected_dim = len(projection_rows) if projection_rows \
        else lattice.datum.rank
    if len(mu_coords) != expected_dim:
        raise ValidationError(
            f"weight has {len(mu_coords)} coordinates, expected "
            f"{expected_dim}")
    engine = OkounkovEngine(lattice)
    semigroup = weighted_semigroup(engine, divisor, levels, projection_rows)
    weight_polytope = _weight_polytope(semigroup)
    interior = _in_relative_interior(weight_polytope, mu_coords)
    if require_interior and not interior:
        raise NotInterior(
            f"weight {','.join(map(str, mu_coords))} is not in the relative "
            "interior of the weight polytope")
    projection = weight_projection(semigroup)
    body = engine.body(divisor, levels)
    d = body.polytope.dim()
    r = weight_polytope.dim()
    step = lcm(*(v.denominator for v in mu_coords)) if mu_coords else 1
    usable = [k for k in range(1, levels + 1) if k % step == 0]
    if not usable:
        raise NonIntegralAll(
            f"no level up to {levels} makes {mu_coords} integral")
    rows = []
    for k in usable:
        mc = lattice.canonical(divisor.scaled(k)).coords
        character = bs_character(lattice.datum, lattice.word, mc)
        target = tuple(k * v for v in mu_coords)
        if projection_rows is None:
            dimension = character.multiplicity(Weight(target))
        else:
            dimension = sum(
                mult for weight, mult in character.terms.items()
                if _project(weight, projection_rows) == target)
        ratio = Fraction(dimension, k ** (d - r))
        rows.append({"level": k, "dimension": dimension, "ratio": ratio})
    slice_polytope = body.polytope.sliced(
        _fiber_equalities(projection, mu_coords))
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
