"""Valuation semigroups, Okounkov bodies, and global cone approximations.

Semigroup points at level k are the valuation vectors of an adapted basis of
the k-th multiple of a class, so their count equals the section dimension by
construction.  Okounkov bodies are hulls of scaled semigroup points; the
global cone collects (valuation, class) pairs over a box of effective
classes and is certified by double stabilization in both the level cap and
the box.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, prod
from typing import NamedTuple

from .errors import NotNef, Unstable, ValidationError
from .picard import Basis, DivisorClass, PicardLattice
from .polyhedra import RationalCone, RationalPolytope
from .rootsys import bs_character, demazure_dimension
from .valuation import adapted_basis, valuation

# Bound on dimension x point-set sums for one level-set enumeration, each
# sum costing under a microsecond.  The test suite and the benchmark jobs stay
# below 500,000 even when every level set is summed from the zero class.
# Every level 1..L of an effective class holds at least one point, because
# multiplying by a section of (k - 1)D is injective, so the same bound caps
# a level count L and a global cone's levels x (box + 1)^n classes.  It also
# caps a whole run over levels 1..L (_check_run): the Demazure dimensions of
# kD for a nef class, and the order-polytope boxes that hold the level sets
# of a class on the monomial route, summed over the levels.
_LEVEL_SET_GUARD = 20_000_000


def _check_levels(levels: int) -> None:
    """Refuse a level count below 1 (ValidationError) or above the guard
    (Unstable), before any level is computed."""
    if levels < 1:
        raise ValidationError("levels must be a positive integer")
    if levels > _LEVEL_SET_GUARD:
        raise Unstable("level count exceeds the supported size")


def _check_run(engine: "OkounkovEngine", divisor: "DivisorClass",
               levels: int) -> None:
    """Refuse (Unstable) a run over levels 1..levels whose level sets
    together exceed _LEVEL_SET_GUARD points, before level 1 is computed.

    A nef class counts the engine's memoized dimensions of k * divisor; a
    class on the monomial route counts the points of each level's
    order-polytope box, which holds the level set and bounds its
    enumeration.  The sizes are summed only until the total passes the
    guard.  A class on the glue route is left to the degree-box cap of
    section_basis_glue, which its levels reach within a few dozen.
    """
    coords = engine.lattice.canonical(divisor).coords
    sections = engine.lattice.engine
    route = sections.section_route(can=coords)
    if route == "spanning":
        size = engine._dimension
    elif route == "monomial":
        def size(mc):
            box = sections.monomial_box(mc)
            return 0 if box is None else prod(
                high - low + 1 for low, high in zip(*box))
    else:
        return
    total = 0
    for k in range(1, levels + 1):
        total += size(tuple(k * c for c in coords))
        if total > _LEVEL_SET_GUARD:
            raise Unstable("level sets of the run exceed the supported size")


class GradedValuationPoint(NamedTuple):
    """A valuation vector realized by a section at a given level."""

    nu: tuple[int, ...]
    level: int


class OkounkovBody(NamedTuple):
    """Hull of level-scaled valuation points up to a truncation level."""

    polytope: RationalPolytope
    divisor: DivisorClass
    truncation: int


class GlobalConeApprox:
    """Empirical global valuation cone in valuation x class coordinates.

    Generators are realized (valuation, effective class) pairs; the
    saturated flag records that the extreme rays did not change when both
    the level cap and the class box grew by one.
    """

    __slots__ = ("generators", "cone", "saturated", "level_cap", "box_cap")

    def __init__(self, generators, cone, saturated, level_cap, box_cap):
        self.generators = tuple(generators)
        self.cone = cone
        self.saturated = bool(saturated)
        self.level_cap = level_cap
        self.box_cap = box_cap

    @property
    def rays(self):
        return self.cone.rays

    def __repr__(self) -> str:
        return (f"GlobalConeApprox(rays={len(self.cone.rays)}, "
                f"saturated={self.saturated})")


class OkounkovEngine:
    """Semigroup and body computations over one Picard lattice."""

    def __init__(self, lattice: PicardLattice):
        self.lattice = lattice
        self.n = lattice.n
        zero = (0,) * self.n
        # Per canonical class: its sorted level set, its hull vertices, its
        # Demazure dimension, and the cached class a certified Minkowski sum
        # started from.  The zero class seeds every sum.
        self._points: dict[tuple[int, ...], list[tuple[int, ...]]] = {
            zero: [zero]}
        self._vertices: dict[tuple[int, ...], list[tuple[int, ...]]] = {
            zero: [zero]}
        self._dims: dict[tuple[int, ...], int] = {}
        self._sources: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._slots: list[tuple[list, list]] | None = None
        self._truncated: "OkounkovEngine | None" = None

    # ----- semigroup points -------------------------------------------------

    def valuation_points(self, divisor: DivisorClass,
                         level: int = 1) -> list[tuple[int, ...]]:
        """Sorted valuation vectors of an adapted basis of level * divisor."""
        if level < 1:
            raise ValidationError("level must be a positive integer")
        total = self.lattice.canonical(divisor.scaled(level))
        points = self._points.get(total.coords)
        if points is None:
            points = self._compute_points(total.coords)
            self._points[total.coords] = points
        return points

    def _compute_points(self, mc: tuple[int, ...]) -> list[tuple[int, ...]]:
        """The level set of a canonical class, by the engine's route rule.

        A nef class is grown by Minkowski sums where they certify; a class
        on the monomial route reads its valuations off the exponents of its
        monomial basis; any other class takes the valuations of an adapted
        basis of its section space.
        """
        engine = self.lattice.engine
        route = engine.section_route(can=mc)
        if route == "spanning":
            sums = self._minkowski_points(mc)
            if sums is not None:
                return sums
        elif route == "monomial":
            return engine.monomial_exponents(can=mc)
        basis = engine.section_basis(can=mc)
        if not basis:
            return []
        return sorted(valuation(s) for s in adapted_basis(basis))

    def _minkowski_points(self, mc) -> list[tuple[int, ...]] | None:
        """Level set of a nef class grown from a cached class below it.

        Valuations add under products, so for a cached nef class prev <= mc
        the sums S(prev) + (mc - prev)_1 N_1 + ... + (mc - prev)_n N_n, with
        N_k the valuations of the k-th slot's sections, lie in the level set
        S(mc) and contain the plain per-slot sum mc_1 N_1 + ... + mc_n N_n.
        They are kept only when their count matches the character
        dimension, which makes them the whole level.  The sums start from
        the cached class that leaves the fewest of them; the zero class is
        always cached, and from it this is the plain per-slot sum.  An
        enumeration whose bound, dimension x point-set sums, exceeds
        _LEVEL_SET_GUARD raises Unstable instead of running.

        Valuations are nonnegative, so each point is packed into one int,
        its coordinates read as base-major digits in a base above any
        coordinate the sums reach: a sum of codes is then the code of the
        sum, and code order is lex order.  Points are decoded once, after
        the count certifies them.
        """
        target = self._dimension(mc)
        slots = [nus for nus, _ in self._slot_sets()]

        def sums_left(prev):
            return sum((b - a) * len(nus)
                       for a, b, nus in zip(prev, mc, slots))

        prev = min((p for p in self._points
                    if all(0 <= a <= b for a, b in zip(p, mc))),
                   key=sums_left)
        if target * sums_left(prev) > _LEVEL_SET_GUARD:
            raise Unstable("level set enumeration exceeds the supported size")
        start = self._points[prev]
        base = 1 + max(v for point in start for v in point) + sum(
            (b - a) * max(v for nu in nus for v in nu)
            for a, b, nus in zip(prev, mc, slots))

        def encode(point):
            code = 0
            for v in point:
                code = code * base + v
            return code

        codes = set(map(encode, start))
        for a, b, nus in zip(prev, mc, slots):
            steps = [encode(nu) for nu in nus]
            for _ in range(b - a):
                codes = {x + y for x in codes for y in steps}
        if len(codes) != target:
            return None
        self._sources[mc] = prev
        points = []
        for code in sorted(codes):
            digits = [0] * self.n
            for j in range(self.n - 1, -1, -1):
                code, digits[j] = divmod(code, base)
            points.append(tuple(digits))
        return points

    def _dimension(self, mc: tuple[int, ...]) -> int:
        """Demazure character dimension of a nef canonical class, memoized.

        Only the tail word's character is built; the first letter's
        operator contributes its rank-one count (demazure_dimension).
        """
        dimension = self._dims.get(mc)
        if dimension is None:
            datum, word = self.lattice.datum, self.lattice.word.indices
            dimension = demazure_dimension(
                datum, word[0], bs_character(datum, word[1:], mc[1:]), mc[0])
            self._dims[mc] = dimension
        return dimension

    def _slot_sets(self) -> list[tuple[list, list]]:
        """Per slot, its valuation set N_k and the hull vertices of N_k."""
        if self._slots is None:
            engine = self.lattice.engine
            self._slots = []
            for k in range(1, self.n + 1):
                nus = sorted({valuation(p)
                              for p in engine.slot_polynomials(k)})
                self._slots.append((nus, self._hull(nus)))
        return self._slots

    def _hull(self, points) -> list[tuple[int, ...]]:
        """Integer vertices of the hull of a nonempty set of integer points.

        A point strictly between two others on a line parallel to a
        coordinate axis is never a vertex, so for each axis in turn only
        the two ends of every such line are kept before the hull is built.
        """
        if len(points) == 1:
            return list(points)
        for j in range(self.n):
            ends: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
            for point in points:
                line = point[:j] + point[j + 1:]
                pair = ends.get(line)
                if pair is None:
                    ends[line] = [point, point]
                elif point[j] < pair[0][j]:
                    pair[0] = point
                elif point[j] > pair[1][j]:
                    pair[1] = point
            points = list(dict.fromkeys(p for pair in ends.values()
                                        for p in pair))
        hull = RationalPolytope.from_points(points, ambient=self.n)
        return [tuple(int(v) for v in vert) for vert in hull.vertices]

    def _hull_vertices(self, mc: tuple[int, ...]) -> list[tuple[int, ...]]:
        """Hull vertices of a cached nonempty level set, memoized per class.

        For a class certified as S(prev) + sum_k c_k N_k whose source prev
        has memoized vertices, the hull is taken of verts(prev) +
        sum_k c_k verts(conv N_k): the vertices of a Minkowski sum are sums
        of vertices, and those of c P are c times those of P.
        """
        verts = self._vertices.get(mc)
        if verts is None:
            prev = self._sources.get(mc)
            if prev in self._vertices:
                points = set(self._vertices[prev])
                for a, b, (_, corners) in zip(prev, mc, self._slot_sets()):
                    if b > a:
                        points = {tuple(x + (b - a) * y
                                        for x, y in zip(point, corner))
                                  for point in points for corner in corners}
            else:
                points = self._points[mc]
            verts = self._hull(points)
            self._vertices[mc] = verts
        return verts

    def _require_effective(self, divisor: DivisorClass) -> None:
        if not self.lattice.is_effective(divisor):
            raise ValidationError(
                "divisor class is not effective; its valuation semigroup "
                "is empty")

    def semigroup(self, divisor: DivisorClass,
                  levels: int) -> list[GradedValuationPoint]:
        """All (valuation, level) points for levels 1..levels."""
        _check_levels(levels)
        self._require_effective(divisor)
        _check_run(self, divisor, levels)
        out = []
        for k in range(1, levels + 1):
            out.extend(GradedValuationPoint(nu, k)
                       for nu in self.valuation_points(divisor, k))
        return out

    # ----- bodies -----------------------------------------------------------

    def body(self, divisor: DivisorClass, levels: int) -> OkounkovBody:
        """Hull of valuation points scaled by their level, up to a cap.

        It is taken of the memoized hull vertices of each level set, scaled
        by 1/k: the hull of a union of hulls is the hull of their vertices.
        A word longer than the polytope ambient cap is refused
        (ValidationError) before any level set is computed.
        """
        _check_levels(levels)
        RationalPolytope._check_ambient(self.n)
        self._require_effective(divisor)
        _check_run(self, divisor, levels)
        points = [tuple(Fraction(v, k) for v in vert)
                  for k in range(1, levels + 1)
                  for vert in self._level_vertices(divisor, k)]
        polytope = RationalPolytope.from_points(points, ambient=self.n)
        return OkounkovBody(polytope, divisor, levels)

    # ----- global cone ------------------------------------------------------

    def global_cone(self, levels: int, box: int) -> GlobalConeApprox:
        """Cone over (valuation, effective class) points in a class box.

        The saturation flag compares extreme rays against the run at
        (levels + 1, box + 1); only hull vertices of each per-class
        valuation set are kept as generators, which drops no extreme rays
        because points sharing a class part are convex combinations there.
        Level sets and hull vertices are memoized per class on the engine,
        so the saturation run and later calls build only the hulls of
        classes not seen before.  A word whose 2n coordinates exceed the
        cone ambient cap is refused (ValidationError) before the basis
        change or any level set.
        """
        if levels < 1 or box < 0:
            raise ValidationError("levels must be >= 1 and box >= 0")
        ambient = 2 * self.n
        RationalCone._check_ambient(ambient)
        gens = self._cone_generators(levels, box)
        cone = RationalCone.from_generators(gens, ambient=ambient)
        bigger = RationalCone.from_generators(
            self._cone_generators(levels + 1, box + 1), ambient=ambient)
        saturated = (cone.rays == bigger.rays
                     and cone.lineality == bigger.lineality)
        return GlobalConeApprox(gens, cone, saturated, levels, box)

    def _cone_generators(self, levels: int, box: int) -> list[tuple[int, ...]]:
        if levels * (box + 1) ** self.n > _LEVEL_SET_GUARD:
            raise Unstable("global cone class box exceeds the supported size")
        totals = sorted({
            tuple(k * c for c in cls)
            for cls in itertools.product(range(box + 1), repeat=self.n)
            for k in range(1, levels + 1)
        } - {(0,) * self.n})
        gens = set()
        for q in totals:
            gens.update(vert + q for vert in self._level_vertices(
                DivisorClass(q, Basis.EFFECTIVE)))
        return sorted(gens)

    def _level_vertices(self, divisor: DivisorClass,
                        level: int = 1) -> list[tuple[int, ...]]:
        """Memoized hull vertices of the level set of level * divisor; none
        when the level set is empty."""
        if not self.valuation_points(divisor, level):
            return []
        return self._hull_vertices(
            self.lattice.canonical(divisor.scaled(level)).coords)

    # ----- surface recipe -----------------------------------------------------

    def indok_generators_surface(self) -> tuple[list[tuple[int, ...]],
                                                RationalCone]:
        """Generator recipe for the global cone of a length-2 word.

        Read off the verified basis change M, with c_k the k-th column of
        M^-1: the effective coordinates of the canonical unit class e_k,
        which spans the k-th ray of the nef cone.  In (valuation, effective
        class) coordinates the generators are

          - (e_1, e_1) and (e_2, e_2): the boundary sections t_j, whose
            valuations are e_j, with their classes;
          - (0, c_1) and (0, c_2): a nef class is base-point free, so it has
            a section that vanishes neither on the first boundary curve
            Y_1 = P^1 nor at the flag point;
          - (e_2, c_2): the class e_k has degree [k = 2] on Y_1 (its second
            canonical coordinate, as M c_k = e_k), and restriction from a
            nef class onto Y_1 is surjective, so e_2 also has a section
            that vanishes once at the flag point and not on Y_1.

        The acceptance tests check that the cone they span equals the
        saturated global cone.
        """
        if self.n != 2:
            raise ValidationError("the surface recipe is implemented for "
                                  "words of length 2 only")
        inverse = self.lattice.change.inverse
        c1, c2 = (tuple(row[k] for row in inverse) for k in range(2))
        ordered = sorted({(1, 0, 1, 0), (0, 1, 0, 1),
                          (0, 0) + c1, (0, 0) + c2, (0, 1) + c2})
        return ordered, RationalCone.from_generators(ordered, ambient=4)

    # ----- identity reports ---------------------------------------------------

    def volume_check(self, divisor: DivisorClass, levels: int) -> dict:
        """Counting and volume identities for a nef class, as a report.

        Checks per level that semigroup points enumerate the section
        dimension and that the truncated body already accounts for the
        lattice points of its dilations; compares the exact hull volume
        against volume(D)/n!.
        """
        RationalPolytope._check_ambient(self.n)
        canonical = self.lattice.canonical(divisor)
        if min(canonical.coords, default=0) < 0:
            raise NotNef(f"volume identities need a nef class, got "
                         f"canonical coordinates {canonical.coords}")
        _check_levels(levels)
        body = self.body(divisor, levels)
        rows = []
        for k in range(1, levels + 1):
            points = self.valuation_points(divisor, k)
            dimension = self._dimension(
                tuple(k * c for c in canonical.coords))
            dilated = body.polytope.lattice_point_count(k)
            rows.append({
                "level": k,
                "points": len(points),
                "dimension": dimension,
                "count_match": len(points) == dimension,
                "dilation_points": dilated,
                "dilation_match": len(points) == dilated,
            })
        hull_volume = body.polytope.volume()
        target = Fraction(self.lattice.volume(divisor), factorial(self.n))
        stabilized = levels >= 2 and \
            self.body(divisor, levels - 1).polytope == body.polytope
        certified = (stabilized and hull_volume == target
                     and all(r["count_match"] and r["dilation_match"]
                             for r in rows))
        return {
            "levels": rows,
            "hull_volume": hull_volume,
            "target_volume": target,
            "gap": target - hull_volume,
            "stabilized": stabilized,
            "certified": certified,
        }

    def restriction_check(self, divisor: DivisorClass,
                          levels: int = 4) -> dict:
        """Compare the restricted body against the truncated-word body.

        The image side keeps valuation points with first entry zero and
        drops that entry; the intrinsic side computes the body of the tail
        class on the word with its first letter removed.
        """
        RationalPolytope._check_ambient(self.n)
        canonical = self.lattice.canonical(divisor)
        if min(canonical.coords, default=0) < 0:
            raise NotNef(f"restriction identities need a nef class, got "
                         f"canonical coordinates {canonical.coords}")
        if self.n < 2:
            raise ValidationError("restriction needs a word of length "
                                  "at least 2")
        _check_levels(levels)
        # Valuations are >= 0, so {nu_1 = 0} is a face of each level's hull,
        # spanned by the hull vertices on it.
        image_points = [tuple(Fraction(v, k) for v in vert[1:])
                        for k in range(1, levels + 1)
                        for vert in self._level_vertices(divisor, k)
                        if vert[0] == 0]
        image = RationalPolytope.from_points(image_points,
                                             ambient=self.n - 1)
        inner = self._truncated_engine()
        tail = DivisorClass(canonical.coords[1:], Basis.CANONICAL)
        intrinsic = inner.body(tail, levels).polytope
        contained = all(intrinsic.contains(v) for v in image.vertices)
        return {
            "image_vertices": image.vertices,
            "intrinsic_vertices": intrinsic.vertices,
            "contained": contained,
            "equal": image == intrinsic,
            "truncation": levels,
        }

    def _truncated_engine(self) -> "OkounkovEngine":
        if self._truncated is None:
            lattice = PicardLattice(self.lattice.datum,
                                    self.lattice.word.indices[1:],
                                    model=self.lattice.engine.model)
            self._truncated = OkounkovEngine(lattice)
        return self._truncated
