"""Valuation semigroups, Okounkov bodies, and global cone approximations.

Semigroup points at level k are the valuation vectors of an adapted basis of
the k-th multiple of a class, so their count equals the section dimension by
construction.  On the nef cone they are the plain Minkowski sums
m_1 N_1 + ... + m_n N_n of the slot valuation sets, certified against the
character count, kept as a count and packed codes and decoded into points
only when asked for; their hull vertices are read off one vertex list per
support of the class.  Each step of a sum grows from a copy of its source,
since every slot set holds the zero valuation.  A nef class whose sum does
not certify takes the route rule's section space instead, and no sum grows
from it.  Off the nef cone, on a word without a repeated letter, a level
set is the lattice points of an order polytope, so its hull vertices are
that polytope's when they are integral, read off one double-description
sweep, and its points are enumerated only when they or their count are
asked for.  Okounkov bodies are hulls of scaled semigroup points; the
global cone collects (valuation, class) pairs over a box of effective
classes, and is flagged saturated when its extreme rays do not change as
the level cap and the box both grow by one.  Every walk over levels 1..L
of one class, the semigroup, bodies, the identity reports and the weights
layer's, is one checked run (OkounkovEngine._run): the level count, the
class and the size of the run are checked once, before any level set, and
the canonical class of each level is converted once.
"""

from __future__ import annotations

import bisect
import itertools
from fractions import Fraction
from math import factorial, prod
from typing import NamedTuple

from .errors import EngineError, NotNef, Unstable, ValidationError
from .picard import Basis, DivisorClass, PicardLattice
from .polyhedra import RationalCone, RationalPolytope
# Unused here; the benchmark's tracer checks that it wraps this binding.
from .rootsys import bs_character  # noqa: F401
from .sections import _CANDIDATE_GUARD
from .valuation import adapted_basis, valuation

# Bound on dimension x point-set sums for one level-set enumeration, each
# sum costing under a microsecond.  The test suite and the benchmark jobs stay
# below 500,000 even when every level set is summed from the zero class.
# Every level 1..L of an effective class holds at least one point, because
# multiplying by a section of (k - 1)D is injective, so the same bound caps
# a level count L and a global cone's levels x (box + 1)^n classes.  It also
# caps a whole run over levels 1..L (OkounkovEngine._run): the Demazure
# dimensions of kD for a nef class, and the order-polytope boxes that hold
# the level sets of a class on the monomial route, summed over the levels.
_LEVEL_SET_GUARD = 20_000_000


def _width(top: int) -> int:
    """Bits per packed coordinate for coordinates up to top, in whole
    bytes, so that a sum grown from a smaller class seldom needs a wider
    code than its source and its source's codes seldom need repacking."""
    return -(-top.bit_length() // 8) * 8


def _pack(point: tuple[int, ...], bits: int) -> int:
    """One int holding a nonnegative point, bits per coordinate, first
    coordinate most significant."""
    code = 0
    for v in point:
        code = code << bits | v
    return code


def _unpack(code: int, bits: int, n: int) -> tuple[int, ...]:
    """The point of length n that _pack(point, bits) packed into code."""
    mask = (1 << bits) - 1
    return tuple(code >> (bits * j) & mask for j in range(n - 1, -1, -1))


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
        # Per canonical class: its level set as sorted points, or for a
        # certified Minkowski sum (always the plain sum
        # m_1 N_1 + ... + m_n N_n) as packed codes with their bit width and
        # a bound on their coordinates; and its hull vertices.  The sums
        # are ranked by weight (_source).  The zero class seeds every sum.
        self._points: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        self._sums: dict[tuple[int, ...], tuple[set[int], int, int]] = {
            zero: ({0}, 0, 0)}
        self._vertices: dict[tuple[int, ...], list[tuple[int, ...]]] = {
            zero: [zero]}
        self._ranked: list[tuple[int, tuple[int, ...]]] = [(0, zero)]
        # Per support of a summed class, the slot corners of each vertex.
        self._supports: dict[tuple[int, ...], list[tuple]] = {}
        self._slots: list[tuple[list, list]] | None = None
        # Per run, keyed by its tuple of classes: the scaled hull (body).
        self._bodies: dict[tuple, RationalPolytope] = {}
        self._truncated: "OkounkovEngine | None" = None

    # ----- semigroup points -------------------------------------------------

    def valuation_points(self, divisor: DivisorClass,
                         level: int = 1) -> list[tuple[int, ...]]:
        """Sorted valuation vectors of an adapted basis of level * divisor."""
        return self._level_points(self._class(divisor, level))

    def level_count(self, divisor: DivisorClass, level: int = 1) -> int:
        """Number of valuation points of level * divisor, which is the
        dimension of its section space, without decoding them."""
        return self._count(self._class(divisor, level))

    def _class(self, divisor: DivisorClass, level: int) -> tuple[int, ...]:
        """Canonical coordinates of level * divisor."""
        if level < 1:
            raise ValidationError("level must be a positive integer")
        return self.lattice.canonical(divisor.scaled(level)).coords

    def _level(self, mc: tuple[int, ...]) -> tuple[int, ...]:
        """A canonical class, its level set computed on first use."""
        if mc not in self._sums and mc not in self._points:
            self._compute_level(mc)
        return mc

    def _level_points(self, mc: tuple[int, ...]) -> list[tuple[int, ...]]:
        """Sorted points of the level set of a canonical class; a certified
        Minkowski sum is decoded from its codes here, once."""
        points = self._points.get(self._level(mc))
        if points is None:
            codes, bits, _ = self._sums[mc]
            points = [_unpack(code, bits, self.n) for code in sorted(codes)]
            self._points[mc] = points
        return points

    def _count(self, mc: tuple[int, ...]) -> int:
        """Size of the level set of a canonical class, read off its codes
        when it is a kept sum."""
        kept = self._sums.get(self._level(mc))
        return len(self._points[mc] if kept is None else kept[0])

    def _compute_level(self, mc: tuple[int, ...]) -> None:
        """Cache the level set of a canonical class, by the engine's route
        rule.

        A nef class is grown by Minkowski sums where they certify, and kept
        as codes; a class on the monomial route reads its valuations off the
        exponents of its monomial basis; any other class, a nef class whose
        sums do not certify included, takes the valuations of an adapted
        basis of its section space, and no sum grows from it.
        """
        engine = self.lattice.engine
        route = engine.section_route(mc)
        if route == "spanning" and self._sum_level(mc):
            return
        if route == "monomial":
            points = engine.monomial_exponents(mc)
        else:
            basis = engine.section_basis(mc)
            points = sorted(valuation(s) for s in adapted_basis(basis)) \
                if basis else []
        self._points[mc] = points

    def _sum_level(self, mc: tuple[int, ...]) -> bool:
        """Cache the level set of a nef class as a certified Minkowski sum
        grown from a kept sum below it; False when it does not certify.

        Valuations add under products, so the plain per-slot sum
        mc_1 N_1 + ... + mc_n N_n, with N_k the valuations of the k-th
        slot's sections, lies in the level set S(mc).  It is kept only when
        its count matches the character dimension, which makes it the
        whole level.  Every kept sum is plain, so for a kept sum prev <= mc
        it is S(prev) + (mc - prev)_1 N_1 + ... + (mc - prev)_n N_n, and it
        starts from the kept sum that leaves the fewest sums (_source); the
        zero class is always kept.  An enumeration whose bound,
        dimension x point-set sums, exceeds _LEVEL_SET_GUARD raises Unstable
        instead of running.

        Valuations are nonnegative, so each point is packed into one int,
        its coordinates read as base-major digits of a bit width above any
        coordinate the sums reach: a sum of codes is then the code of the
        sum, and code order is lex order.  The codes are kept as they are;
        only valuation_points decodes them.  Each slot set N_k holds the
        zero valuation (_slot_sets), so a step S + N_k is a copy of S
        updated with S + y for each nonzero code y of N_k.
        """
        slots = self._slot_sets()
        weight = self._weight(mc)
        prev = self._source(mc, weight)
        target = self.lattice.engine.nef_dimension(mc)
        if target * (weight - self._weight(prev)) > _LEVEL_SET_GUARD:
            raise Unstable("level set enumeration exceeds the supported size")
        codes, bits, top = self._sums[prev]
        top += sum((b - a) * max(map(max, nus))
                   for a, b, (nus, _) in zip(prev, mc, slots))
        width = _width(top)
        if width != bits:
            codes = {_pack(_unpack(code, bits, self.n), width)
                     for code in codes}
        for a, b, (nus, _) in zip(prev, mc, slots):
            steps = [_pack(nu, width) for nu in nus[1:]]
            for _ in range(b - a):
                grown = codes.copy()
                for y in steps:
                    grown.update([x + y for x in codes])
                codes = grown
        if len(codes) != target:
            return False
        self._sums[mc] = (codes, width, top)
        bisect.insort(self._ranked, (weight, mc), key=lambda r: r[0])
        return True

    def _weight(self, mc: tuple[int, ...]) -> int:
        """sum_k mc_k |N_k|: the slot points a sum up to mc adds."""
        return sum(c * len(nus) for c, (nus, _) in zip(mc, self._slot_sets()))

    def _source(self, mc: tuple[int, ...], weight: int) -> tuple[int, ...]:
        """The heaviest kept sum prev <= mc, which leaves the fewest
        sums, weight(mc) - weight(prev).  A class below mc is no
        heavier than mc, so the scan starts at mc's weight and walks down
        through lighter classes; the zero class heads the ranking and ends
        it."""
        ranked = self._ranked
        start = bisect.bisect_right(ranked, weight, key=lambda r: r[0])
        for index in range(start - 1, 0, -1):
            prev = ranked[index][1]
            if all(a <= b for a, b in zip(prev, mc)):
                return prev
        return ranked[0][1]

    def _slot_sets(self) -> list[tuple[list, list]]:
        """Per slot, its valuation set N_k, sorted, and the hull vertices of
        N_k.

        N_k holds the zero valuation, that of the constant section (the
        pairing with the highest-weight vector), so it heads the sorted
        set and _sum_level grows each step from a copy of its source; a
        slot set without it raises EngineError.
        """
        if self._slots is None:
            engine = self.lattice.engine
            zero = (0,) * self.n
            slots = []
            for k in range(1, self.n + 1):
                nus = sorted({valuation(p)
                              for p in engine.slot_polynomials(k)})
                if nus[:1] != [zero]:
                    raise EngineError(f"slot {k} has no section of zero "
                                      "valuation")
                slots.append((nus, self._hull(nus)))
            self._slots = slots
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
        """Hull vertices of the level set of a canonical class, memoized
        per class; none when the level set is empty.

        A class on the monomial route reads them off its order polytope
        (_order_vertices), with no point enumerated while its vertices are
        integral; a kept sum reads them off the vertex list of its support
        (_plain_vertices), with no hull; any other class hulls its points.
        """
        verts = self._vertices.get(mc)
        if verts is None:
            if self.lattice.engine.section_route(mc) == "monomial":
                verts = self._order_vertices(mc)
            elif self._level(mc) in self._sums:
                verts = self._plain_vertices(mc)
            else:
                points = self._points[mc]
                verts = self._hull(points) if points else []
            self._vertices[mc] = verts
        return verts

    def _order_vertices(self, mc: tuple[int, ...]) -> list[tuple[int, ...]]:
        """Hull vertices of the level set of a class on the monomial route.

        That level set is the set of lattice points of the order polytope
        {a >= 0, B a <= mc}, so when every vertex of the polytope is
        integral, those are the vertices, read off one double-description
        sweep over its rows (SectionEngine.monomial_inequalities).  A box
        (SectionEngine.monomial_box) with lo == hi holds its one point and
        an empty box none, with no sweep.  Only a fractional vertex, such
        as (0, 1/3) of can:-1,3 on G2 (1, 2), where B has the entry -3,
        makes the points be enumerated and hulled.
        """
        engine = self.lattice.engine
        box = engine.monomial_box(mc)
        if box is None:
            return []
        lo, hi = box
        if lo == hi:
            return [hi]
        verts, _ = RationalPolytope._vertices_from_hrep(
            engine.monomial_inequalities(mc), (), self.n)
        if all(v.denominator == 1 for vert in verts for v in vert):
            return sorted(tuple(v.numerator for v in vert) for vert in verts)
        return self._hull(self._level_points(mc))

    def _plain_vertices(self, mc: tuple[int, ...]) -> list[tuple[int, ...]]:
        """Hull vertices of a plain class, sum_k mc_k conv(N_k).

        On the support J of mc (the slots with mc_k > 0) the normal fan of
        sum_k m_k conv(N_k) is the same for every m positive on J: the
        common refinement of the slot normal fans.  So each vertex is
        sum_k mc_k v_k, for the slot corners v_k that one maximal cone of
        that fan selects.  The selections are read once per support off
        the hull of the corner sums at m = 1_J.  There each vertex
        decomposes uniquely, since it is the sum of the faces that the
        summands show in a direction singling it out, and those faces are
        points; a vertex reached twice raises EngineError.
        """
        support = tuple(k for k, c in enumerate(mc) if c)
        selections = self._supports.get(support)
        if selections is None:
            slots = self._slot_sets()
            sums: dict[tuple[int, ...], tuple | None] = {}
            for corners in itertools.product(*(slots[k][1]
                                               for k in support)):
                point = tuple(map(sum, zip(*corners)))
                sums[point] = None if point in sums else corners
            selections = [sums[vert] for vert in self._hull(list(sums))]
            if None in selections:
                raise EngineError("a vertex of a sum of slot hulls has two "
                                  "decompositions")
            self._supports[support] = selections
        scales = [mc[k] for k in support]
        return sorted({tuple(sum(c * v for c, v in zip(scales, column))
                             for column in zip(*corners))
                       for corners in selections})

    def _run(self, divisor: DivisorClass, levels: int,
             nef: str | None = None) -> list[tuple[int, ...]]:
        """Canonical coordinates of k * divisor, k = 1..levels, after the
        run's checks, in this order and before any level set: the level
        count (ValidationError below 1, Unstable above _LEVEL_SET_GUARD);
        the class, nef for the identity report that nef names (NotNef) and
        otherwise effective (ValidationError, tested before any change of
        basis, by _is_effective); and the run guard (Unstable).  The guard
        sums each level's nef_dimension on the nef cone, or the points of
        its order-polytope box on the monomial route, until the total
        passes _LEVEL_SET_GUARD; on the glue route it sums the candidates
        of each level's proven degree box (SectionEngine.proven_box), the
        one box its glue call solves, until the total passes the glue
        candidate guard.
        """
        if levels < 1:
            raise ValidationError("levels must be a positive integer")
        if levels > _LEVEL_SET_GUARD:
            raise Unstable("level count exceeds the supported size")
        if nef is None and not self._is_effective(divisor):
            raise ValidationError(
                "divisor class is not effective; its valuation semigroup "
                "is empty")
        coords = self.lattice.canonical(divisor).coords
        if nef is not None and min(coords, default=0) < 0:
            raise NotNef(f"{nef} identities need a nef class, got "
                         f"canonical coordinates {coords}")
        sections = self.lattice.engine
        route = sections.section_route(coords)
        guard = _LEVEL_SET_GUARD
        if route == "spanning":
            size = sections.nef_dimension
        elif route == "monomial":
            def size(mc):
                box = sections.monomial_box(mc)
                return 0 if box is None else prod(
                    high - low + 1 for low, high in zip(*box))
        else:
            guard = _CANDIDATE_GUARD

            def size(mc):
                return prod(b + 1 for b in sections.proven_box(mc))
        total = 0
        for k in range(1, levels + 1):
            total += size(tuple(k * c for c in coords))
            if total > guard:
                raise Unstable(
                    "level sets of the run exceed the supported size")
        return [tuple(k * c for c in coords) for k in range(1, levels + 1)]

    def _is_effective(self, divisor: DivisorClass) -> bool:
        """PicardLattice.is_effective, but a canonical class on the glue
        route is decided by its level set, which the run then reads: its
        section space is solved once, not once here and again at level 1.
        """
        if (divisor.basis is Basis.CANONICAL and len(divisor) == self.n
                and self.lattice.engine.section_route(divisor.coords)
                == "glue"):
            return self._count(divisor.coords) > 0
        return self.lattice.is_effective(divisor)

    def semigroup(self, divisor: DivisorClass,
                  levels: int) -> list[GradedValuationPoint]:
        """All (valuation, level) points for levels 1..levels."""
        return [GradedValuationPoint(nu, k)
                for k, mc in enumerate(self._run(divisor, levels), 1)
                for nu in self._level_points(mc)]

    # ----- bodies -----------------------------------------------------------

    def body(self, divisor: DivisorClass, levels: int) -> OkounkovBody:
        """Hull of valuation points scaled by their level, up to a cap.

        A word longer than the polytope ambient cap is refused
        (ValidationError) before any level set is computed.
        """
        RationalPolytope._check_ambient(self.n)
        return OkounkovBody(self._scaled_hull(self._run(divisor, levels)),
                            divisor, levels)

    def _scaled_hull(self, classes) -> RationalPolytope:
        """Hull of the level sets of the classes of levels 1, 2, ..., each
        scaled by 1/k, memoized per run.  It is taken of their memoized
        hull vertices: the hull of a union of hulls is the hull of their
        vertices."""
        key = tuple(classes)
        hull = self._bodies.get(key)
        if hull is None:
            hull = RationalPolytope.from_points(
                self._scaled_vertices(classes), ambient=self.n)
            self._bodies[key] = hull
        return hull

    def _scaled_vertices(self, classes) -> list[tuple[Fraction, ...]]:
        """The memoized hull vertices of the classes of levels 1, 2, ...,
        each scaled by 1/k."""
        return [tuple(Fraction(v, k) for v in vert)
                for k, mc in enumerate(classes, 1)
                for vert in self._hull_vertices(mc)]

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
        canonical = self.lattice.canonical
        for q in totals:
            gens.update(vert + q for vert in self._hull_vertices(
                canonical(DivisorClass(q, Basis.EFFECTIVE)).coords))
        return sorted(gens)

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
        against volume(D)/n!.  The body is the run's memoized scaled hull,
        so a volume check after body hulls nothing again.
        """
        RationalPolytope._check_ambient(self.n)
        classes = self._run(divisor, levels, nef="volume")
        polytope = self._scaled_hull(classes)
        rows = []
        for k, mc in enumerate(classes, 1):
            points = self._count(mc)
            dimension = self.lattice.engine.nef_dimension(mc)
            dilated = polytope.lattice_point_count(k)
            rows.append({
                "level": k,
                "points": points,
                "dimension": dimension,
                "count_match": points == dimension,
                "dilation_points": dilated,
                "dilation_match": points == dilated,
            })
        hull_volume = polytope.volume()
        target = Fraction(self.lattice.volume(divisor), factorial(self.n))
        # The hull of levels 1..L equals that of levels 1..L-1 exactly when
        # each of its vertices is one of the latter's generating points.
        stabilized = levels >= 2 and set(polytope.vertices) <= set(
            self._scaled_vertices(classes[:-1]))
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
        if self.n < 2:
            raise ValidationError("restriction needs a word of length "
                                  "at least 2")
        classes = self._run(divisor, levels, nef="restriction")
        # Valuations are >= 0, so {nu_1 = 0} is a face of each level's hull,
        # spanned by the hull vertices on it.
        image_points = [tuple(Fraction(v, k) for v in vert[1:])
                        for k, mc in enumerate(classes, 1)
                        for vert in self._hull_vertices(mc)
                        if vert[0] == 0]
        image = RationalPolytope.from_points(image_points,
                                             ambient=self.n - 1)
        inner = self._truncated_engine()
        tail = DivisorClass(classes[0][1:], Basis.CANONICAL)
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
