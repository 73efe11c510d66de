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
from math import factorial
from typing import NamedTuple

from .errors import ChamberResolutionFailure, NotNef, Unstable, ValidationError
from .picard import Basis, DivisorClass, PicardLattice
from .polyhedra import RationalCone, RationalPolytope
from .rootsys import bs_character
from .valuation import adapted_basis, valuation


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
        self._points: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
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
        if min(mc) >= 0:
            sums = self._minkowski_points(mc)
            if sums is not None:
                return sums
        basis = self.lattice.engine.section_basis(can=mc)
        if not basis:
            return []
        return sorted(valuation(s) for s in adapted_basis(basis))

    def _minkowski_points(self, mc) -> list[tuple[int, ...]] | None:
        """Per-slot valuation sums, kept only when the count certifies them.

        Every sum is realized by a product of slot sections, so the set is
        always contained in the semigroup; when its size matches the
        character dimension it enumerates the whole level.
        """
        engine = self.lattice.engine
        target = bs_character(self.lattice.datum, self.lattice.word,
                              mc).dimension()
        points = {(0,) * self.n}
        for k in range(1, self.n + 1):
            count = mc[k - 1]
            if count == 0:
                continue
            nus = sorted({valuation(p) for p in engine.slot_polynomials(k)})
            for _ in range(count):
                points = {tuple(a + b for a, b in zip(point, nu))
                          for point in points for nu in nus}
        if len(points) == target:
            return sorted(points)
        return None

    def _require_effective(self, divisor: DivisorClass) -> None:
        if not self.lattice.is_effective(divisor):
            raise ValidationError(
                "divisor class is not effective; its valuation semigroup "
                "is empty")

    def semigroup(self, divisor: DivisorClass,
                  levels: int) -> list[GradedValuationPoint]:
        """All (valuation, level) points for levels 1..levels."""
        if levels < 1:
            raise ValidationError("levels must be a positive integer")
        self._require_effective(divisor)
        out = []
        for k in range(1, levels + 1):
            out.extend(GradedValuationPoint(nu, k)
                       for nu in self.valuation_points(divisor, k))
        return out

    # ----- bodies -----------------------------------------------------------

    def body(self, divisor: DivisorClass, levels: int) -> OkounkovBody:
        """Hull of valuation points scaled by their level, up to a cap."""
        if levels < 1:
            raise ValidationError("levels must be a positive integer")
        self._require_effective(divisor)
        points = []
        for k in range(1, levels + 1):
            for nu in self.valuation_points(divisor, k):
                points.append(tuple(Fraction(v, k) for v in nu))
        polytope = RationalPolytope.from_points(points, ambient=self.n)
        return OkounkovBody(polytope, divisor, levels)

    # ----- global cone ------------------------------------------------------

    def global_cone(self, levels: int, box: int) -> GlobalConeApprox:
        """Cone over (valuation, effective class) points in a class box.

        The saturation flag compares extreme rays against the run at
        (levels + 1, box + 1); only hull vertices of each per-class
        valuation set are kept as generators, which drops no extreme rays
        because points sharing a class part are convex combinations there.
        """
        if levels < 1 or box < 0:
            raise ValidationError("levels must be >= 1 and box >= 0")
        ambient = 2 * self.n
        gens = self._cone_generators(levels, box)
        cone = RationalCone.from_generators(gens, ambient=ambient)
        bigger = RationalCone.from_generators(
            self._cone_generators(levels + 1, box + 1), ambient=ambient)
        saturated = (cone.rays == bigger.rays
                     and cone.lineality == bigger.lineality)
        return GlobalConeApprox(gens, cone, saturated, levels, box)

    def _cone_generators(self, levels: int, box: int) -> list[tuple[int, ...]]:
        totals = sorted({
            tuple(k * c for c in cls)
            for cls in itertools.product(range(box + 1), repeat=self.n)
            for k in range(1, levels + 1)
        } - {(0,) * self.n})
        gens = set()
        for q in totals:
            nus = self.valuation_points(DivisorClass(q, Basis.EFFECTIVE))
            if not nus:
                continue
            if len(nus) == 1:
                verts = list(nus)
            else:
                hull = RationalPolytope.from_points(nus, ambient=self.n)
                verts = [tuple(int(v) for v in vert)
                         for vert in hull.vertices]
            gens.update(vert + q for vert in verts)
        return sorted(gens)

    # ----- surface recipe -----------------------------------------------------

    def surface_chamber_data(self, peel_levels: int = 3) -> dict:
        """Nef-cone rays and boundary fixed-part data for a length-2 word.

        Each nef ray is reported in effective coordinates with the degree of
        its restriction to the first boundary divisor; each boundary class
        carries its section valuation and a linearity check of its fixed
        part across levels.
        """
        if self.n != 2:
            raise ValidationError("chamber data is implemented for words "
                                  "of length 2 only")
        change = self.lattice.change
        engine = self.lattice.engine
        rays = []
        for k in range(2):
            eff = tuple(change.inverse[j][k] for j in range(2))
            canonical = tuple(change.matrix[r][0] * eff[0]
                              + change.matrix[r][1] * eff[1]
                              for r in range(2))
            rays.append({"effective": eff,
                         "restriction_degree": canonical[1]})
        boundary = []
        for j in range(2):
            unit = tuple(1 if pos == j else 0 for pos in range(2))
            canonical = tuple(change.matrix[r][j] for r in range(2))
            try:
                peels = [engine.fixed_part_peel(canonical, level)[0].coords
                         for level in range(1, peel_levels + 1)]
            except Unstable as exc:
                raise ChamberResolutionFailure(
                    f"fixed-part peel of boundary class {j + 1} is "
                    f"unstable: {exc}") from exc
            base = peels[0]
            for level, got in enumerate(peels, start=1):
                if got != tuple(level * v for v in base):
                    raise ChamberResolutionFailure(
                        f"fixed part of boundary class {j + 1} does not "
                        f"scale linearly across levels: {peels}")
            boundary.append({
                "slot": j + 1,
                "valuation": valuation(engine.boundary_section(j + 1)),
                "effective": unit,
                "fixed_part": base,
            })
        return {"nef_rays": rays, "boundary": boundary}

    def indok_generators_surface(self, chamber: dict | None = None
                                 ) -> tuple[list[tuple[int, ...]],
                                            RationalCone]:
        """Generator recipe for the global cone of a length-2 word.

        Combines the first boundary divisor's defining section, the
        boundary fixed-part sections, and per nef ray the two lifted points
        coming from the restriction to the first boundary curve.  The
        resulting cone is meant to coincide with the saturated global cone;
        the acceptance tests assert that equality.
        """
        if chamber is None:
            chamber = self.surface_chamber_data()
        engine = self.lattice.engine
        gens = set()
        gens.add(valuation(engine.boundary_section(1)) + (1, 0))
        for entry in chamber["boundary"]:
            gens.add(tuple(entry["valuation"]) + tuple(entry["effective"]))
        for ray in chamber["nef_rays"]:
            eff = tuple(ray["effective"])
            degree = ray["restriction_degree"]
            gens.add((0, 0) + eff)
            gens.add((0, degree) + eff)
        ordered = sorted(gens)
        cone = RationalCone.from_generators(ordered, ambient=4)
        return ordered, cone

    # ----- identity reports ---------------------------------------------------

    def volume_check(self, divisor: DivisorClass, levels: int) -> dict:
        """Counting and volume identities for a nef class, as a report.

        Checks per level that semigroup points enumerate the section
        dimension and that the truncated body already accounts for the
        lattice points of its dilations; compares the exact hull volume
        against volume(D)/n!.
        """
        canonical = self.lattice.canonical(divisor)
        if min(canonical.coords, default=0) < 0:
            raise NotNef(f"volume identities need a nef class, got "
                         f"canonical coordinates {canonical.coords}")
        if levels < 1:
            raise ValidationError("levels must be a positive integer")
        body = self.body(divisor, levels)
        rows = []
        for k in range(1, levels + 1):
            points = self.valuation_points(divisor, k)
            dimension = bs_character(
                self.lattice.datum, self.lattice.word,
                tuple(k * c for c in canonical.coords)).dimension()
            dilated = len(body.polytope.lattice_points(k))
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
        canonical = self.lattice.canonical(divisor)
        if min(canonical.coords, default=0) < 0:
            raise NotNef(f"restriction identities need a nef class, got "
                         f"canonical coordinates {canonical.coords}")
        if self.n < 2:
            raise ValidationError("restriction needs a word of length "
                                  "at least 2")
        if levels < 1:
            raise ValidationError("levels must be a positive integer")
        image_points = []
        for k in range(1, levels + 1):
            for nu in self.valuation_points(divisor, k):
                if nu[0] == 0:
                    image_points.append(
                        tuple(Fraction(v, k) for v in nu[1:]))
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
