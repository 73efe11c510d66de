"""Exact rational convex geometry in small ambient dimension.

Everything here runs on int/Fraction arithmetic; no floating point enters.
The single core primitive is a double-description sweep (_dual_description)
that turns an inequality system {x : a.x >= 0} into extreme rays plus a
lineality basis.  Polytopes homogenize into that primitive for both
directions of the V/H conversion.  A hull of points takes one sweep, to its
facets and equations; its vertices are the points whose tight-facet masks
are maximal, so no second sweep runs back from the facets.

Lattice points of a dilation are listed and counted from one fiber scan:
all but the last coordinate run over the dilation's bounding box, and the
last coordinate's interval is read off the rows.  Both refuse a box of
more than _LATTICE_POINT_GUARD points.

Volumes come out of a pyramid recursion: with primitive integer facet
normals, the Euclidean volume of a full-dimensional polytope equals
(1/d) * sum over facets of (height of an apex over the facet) times the
facet volume normalized to the saturated hyperplane lattice.  Every
lattice-normalized volume, of a facet in the recursion or of a
lower-dimensional polytope, takes its lattice as the integer kernel of the
span's equation normals and runs the recursion in a basis of it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Sequence

from ._kernel import clear_denominators, kernel_lattice_basis, solve_dense
from .errors import (
    EngineError,
    Unstable,
    ValidationError,
    VerificationFailure,
)

Vector = tuple[Fraction, ...]

_MAX_POLYTOPE_DIM = 8
_MAX_CONE_DIM = _MAX_POLYTOPE_DIM + 1
_LATTICE_POINT_GUARD = 2_000_000


def _frac_vector(values: Iterable) -> Vector:
    return tuple(Fraction(v) for v in values)


def _idot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b))


def primitive_vector(values: Iterable) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, preserving direction.

    The zero vector comes back unchanged; callers treat it as degenerate.
    A vector of plain ints, what the double-description sweep makes, is
    divided by its gcd directly.
    """
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            break
    else:
        g = gcd(*values)
        return tuple([v // g for v in values]) if g > 1 else values
    exact = [v if isinstance(v, (int, Fraction)) else Fraction(v)
             for v in values]
    if not any(exact):
        return (0,) * len(exact)
    ints = clear_denominators(dict(enumerate(exact)))
    g = gcd(*ints.values())
    return tuple(v // g for v in ints.values())


def _dual_description(
    rows: Sequence[Sequence[int]], dim: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Extreme rays and lineality basis of {x : row . x >= 0 for each row}.

    Rays are primitive integer vectors, extreme modulo the lineality space;
    the lineality basis is an independent list of integer vectors.  The
    incremental cut keeps, for every ray, the bitmask of already-processed
    inequalities it satisfies with equality, and uses the combinatorial
    adjacency test (no third ray's tight set contains the common tight set)
    when pairing positive against negative rays.

    By polarity the same sweep run on generators returns the facet
    inequalities and span equations of the cone they generate.
    """
    lineality = [tuple(1 if k == i else 0 for k in range(dim))
                 for i in range(dim)]
    rays: list[list] = []
    seen_rows: set[tuple[int, ...]] = set()
    processed = 0
    for raw in rows:
        row = primitive_vector(raw)
        if not any(row) or row in seen_rows:
            continue
        seen_rows.add(row)
        bit = 1 << processed
        processed += 1
        values = [_idot(row, v) for v in lineality]
        pivot = next((k for k, v in enumerate(values) if v), None)
        if pivot is not None:
            v0 = lineality[pivot]
            c = values[pivot]
            if c < 0:
                v0 = tuple(-x for x in v0)
                c = -c
            lineality = [
                primitive_vector(tuple(c * x - values[k] * y
                                       for x, y in zip(vec, v0)))
                for k, vec in enumerate(lineality) if k != pivot
            ]
            new_rays = []
            for vec, mask in rays:
                t = _idot(row, vec)
                shifted = primitive_vector(tuple(c * x - t * y
                                                 for x, y in zip(vec, v0)))
                new_rays.append([shifted, mask | bit])
            new_rays.append([v0, bit - 1])
            rays = new_rays
            continue
        pos, zero, neg = [], [], []
        for vec, mask in rays:
            t = _idot(row, vec)
            if t > 0:
                pos.append((vec, mask, t))
            elif t < 0:
                neg.append((vec, mask, t))
            else:
                zero.append([vec, mask | bit])
        if not neg:
            rays = [[vec, mask] for vec, mask, _ in pos] + zero
            continue
        new_rays = [[vec, mask] for vec, mask, _ in pos] + zero
        fresh: set[tuple[int, ...]] = set()
        for vp, mp, tp in pos:
            for vn, mn, tn in neg:
                common = mp & mn
                blocked = False
                for vec, mask in rays:
                    if vec is vp or vec is vn:
                        continue
                    if mask & common == common:
                        blocked = True
                        break
                if blocked:
                    continue
                comb = primitive_vector(tuple(tp * b - tn * a
                                              for a, b in zip(vp, vn)))
                if any(comb) and comb not in fresh:
                    fresh.add(comb)
                    new_rays.append([comb, common | bit])
        rays = new_rays
    return [vec for vec, _ in rays], lineality


class RationalCone:
    """A polyhedral cone with exact V- and H-descriptions."""

    __slots__ = ("ambient", "rays", "lineality", "inequalities", "equations")

    def __init__(self, ambient, rays, lineality, inequalities, equations):
        self.ambient = ambient
        self.rays = tuple(sorted(rays))
        self.lineality = tuple(lineality)
        self.inequalities = tuple(sorted(inequalities))
        self.equations = tuple(equations)

    @staticmethod
    def _check_ambient(ambient: int) -> None:
        if not 1 <= ambient <= _MAX_CONE_DIM:
            raise ValidationError(
                f"cone ambient dimension must be 1..{_MAX_CONE_DIM}")

    @classmethod
    def from_generators(cls, vectors: Sequence[Sequence],
                        ambient: int | None = None) -> "RationalCone":
        vecs = [tuple(v) for v in vectors]
        if ambient is None:
            if not vecs:
                raise ValidationError(
                    "generator list is empty; pass the ambient dimension")
            ambient = len(vecs[0])
        cls._check_ambient(ambient)
        if any(len(v) != ambient for v in vecs):
            raise ValidationError("generators have mixed lengths")
        ineqs, eqs = _dual_description(vecs, ambient)
        rows = list(ineqs)
        for e in eqs:
            rows.append(e)
            rows.append(tuple(-x for x in e))
        rays, lin = _dual_description(rows, ambient)
        return cls(ambient, rays, lin, ineqs, eqs)

    def __repr__(self) -> str:
        return (f"RationalCone(ambient={self.ambient}, rays={len(self.rays)}, "
                f"lines={len(self.lineality)})")


class RationalPolytope:
    """A bounded rational polytope with exact V- and H-descriptions.

    Inequality rows are primitive integer vectors (a_0, a_1, ..., a_n)
    meaning a_0 + a . x >= 0; equation rows use the same shape with equality.
    The empty polytope is represented with no vertices and the single
    infeasible row (-1, 0, ..., 0).
    """

    __slots__ = ("ambient", "vertices", "inequalities", "equations")

    def __init__(self, ambient, vertices, inequalities, equations):
        self.ambient = ambient
        self.vertices = tuple(sorted(vertices))
        self.inequalities = tuple(sorted(inequalities))
        self.equations = tuple(equations)

    @staticmethod
    def _check_ambient(ambient: int) -> None:
        if not 1 <= ambient <= _MAX_POLYTOPE_DIM:
            raise ValidationError(
                f"polytope ambient dimension must be 1..{_MAX_POLYTOPE_DIM}")

    @classmethod
    def empty(cls, ambient: int) -> "RationalPolytope":
        cls._check_ambient(ambient)
        return cls(ambient, (), ((-1,) + (0,) * ambient,), ())

    @classmethod
    def from_points(cls, points: Sequence[Sequence],
                    ambient: int | None = None) -> "RationalPolytope":
        """The hull of finitely many points, from one double-description
        sweep.

        The sweep over the homogenized points (1, p) gives the facets and
        the equations of the affine span.  The vertices are read off the
        points themselves: a point is a vertex exactly when no other
        point is tight at every facet it is tight at, since a point
        inside a face of positive dimension is tight at fewer facets than
        each vertex of that face, and only the vertex itself lies on all
        the facets of a vertex.  With the tight-facet bitmasks sorted by
        popcount, each is tested against the masks kept so far.
        """
        pts = [tuple(p) for p in points]
        if not pts:
            if ambient is None:
                raise ValidationError(
                    "point list is empty; pass the ambient dimension")
            return cls.empty(ambient)
        if ambient is None:
            ambient = len(pts[0])
        cls._check_ambient(ambient)
        if any(len(p) != ambient for p in pts):
            raise ValidationError("points have mixed lengths")
        # A point of ints is its own primitive homogenization (1, p).
        homog = {(1, *p) if all(type(v) is int for v in p)
                 else primitive_vector((Fraction(1),) + _frac_vector(p)): p
                 for p in pts}
        ineqs, eqs = _dual_description(list(homog), ambient + 1)
        masks = []
        for h in homog:
            mask = 0
            for bit, row in enumerate(ineqs):
                if not _idot(row, h):
                    mask |= 1 << bit
            masks.append((mask.bit_count(), mask, homog[h]))
        masks.sort(key=lambda item: -item[0])
        kept: list[int] = []
        verts = []
        for _, mask, p in masks:
            if all(k & mask != mask for k in kept):
                kept.append(mask)
                verts.append(_frac_vector(p))
        return cls(ambient, verts, ineqs, eqs)

    @classmethod
    def from_inequalities(cls, rows: Sequence[Sequence],
                          equations: Sequence[Sequence] = (),
                          ambient: int | None = None) -> "RationalPolytope":
        ineq_rows = [tuple(r) for r in rows]
        eq_rows = [tuple(e) for e in equations]
        if ambient is None:
            if not ineq_rows and not eq_rows:
                raise ValidationError(
                    "no rows given; pass the ambient dimension")
            ambient = len((ineq_rows + eq_rows)[0]) - 1
        cls._check_ambient(ambient)
        verts, unbounded = cls._vertices_from_hrep(ineq_rows, eq_rows, ambient)
        if not verts:
            return cls.empty(ambient)
        if unbounded:
            raise ValidationError("inequality system describes an unbounded set")
        return cls.from_points(verts, ambient)

    @staticmethod
    def _vertices_from_hrep(ineq_rows, eq_rows, ambient):
        """Vertices of the homogenization; flags recession rays or lines.

        The rows are tuples; the sweep makes them primitive."""
        rows = [(1,) + (0,) * ambient]
        rows.extend(ineq_rows)
        for e in eq_rows:
            rows.append(e)
            rows.append(tuple(-x for x in e))
        rays, lineality = _dual_description(rows, ambient + 1)
        verts = []
        unbounded = bool(lineality)
        for ray in rays:
            if ray[0] > 0:
                verts.append(tuple(Fraction(x, ray[0]) for x in ray[1:]))
            elif any(ray[1:]):
                unbounded = True
        return verts, unbounded

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def dim(self) -> int:
        if self.is_empty:
            return -1
        return self.ambient - len(self.equations)

    def contains(self, point: Sequence) -> bool:
        if self.is_empty:
            return False
        p = (Fraction(1),) + _frac_vector(point)
        if len(p) != self.ambient + 1:
            return False
        return (all(_idot(a, p) >= 0 for a in self.inequalities)
                and all(_idot(e, p) == 0 for e in self.equations))

    def sliced(self, equalities: Sequence[tuple[Sequence, object]]
               ) -> "RationalPolytope":
        """Intersect with affine hyperplanes coeffs . x = value."""
        if self.is_empty:
            return self
        extra = [(-Fraction(value),) + _frac_vector(coeffs)
                 for coeffs, value in equalities]
        return RationalPolytope.from_inequalities(
            self.inequalities, tuple(self.equations) + tuple(extra),
            self.ambient)

    def volume(self) -> Fraction:
        """Euclidean volume in the ambient dimension; 0 when not full."""
        if self.is_empty or self.dim() < self.ambient:
            return Fraction(0)
        return _pyramid_volume(list(self.vertices), self.ambient)

    def lattice_volume(self) -> Fraction:
        """Volume normalized to the saturated lattice of the affine span,
        the integer kernel of the span's equation normals.

        A single point has lattice volume 1 by convention.
        """
        if self.is_empty:
            return Fraction(0)
        return _span_volume(list(self.vertices),
                            [e[1:] for e in self.equations], self.ambient)

    def _dilation_box(self, denominator: int) -> list[range] | None:
        """Integer ranges of the bounding box of the polytope dilated by
        denominator, or None when some range is empty.

        Raises Unstable when the box holds more than _LATTICE_POINT_GUARD
        points, so counting and listing refuse the same inputs.
        """
        if denominator < 1:
            raise ValidationError("denominator must be a positive integer")
        if self.is_empty:
            return None
        ranges = []
        total = 1
        for i in range(self.ambient):
            values = [v[i] * denominator for v in self.vertices]
            lo = math.ceil(min(values))
            hi = math.floor(max(values))
            if hi < lo:
                return None
            total *= hi - lo + 1
            if total > _LATTICE_POINT_GUARD:
                raise Unstable(
                    "lattice point enumeration exceeds the supported size")
            ranges.append(range(lo, hi + 1))
        return ranges

    def _fibers(self, k: int) -> Iterator[tuple[tuple[int, ...], int, int]]:
        """Yield (c, lo, hi) for each head point c of the k-th dilation's
        box with a nonempty fiber: the points of the dilation over c are
        c + (x,) for the integers lo <= x <= hi.

        The first d - 1 coordinates c of the box are scanned in
        lexicographic order; each row s + r x >= 0, with s its value at c
        and r its last entry, bounds the last coordinate x by an integer
        ceiling or floor, or holds or fails on c when r = 0.  An equation
        is the pair of opposite rows, so one with r != 0 pins x, and leaves
        no point when -s / r is not an integer.
        """
        ranges = self._dilation_box(k)
        if ranges is None:
            return
        *head, last = ranges
        rows = [(k * a[0], a[1:-1], a[-1]) for a in self.inequalities]
        for e in self.equations:
            rows.append((k * e[0], e[1:-1], e[-1]))
            rows.append((-k * e[0], tuple(-v for v in e[1:-1]), -e[-1]))
        for c in itertools.product(*head):
            lo, hi = last.start, last.stop - 1
            for base, row, r in rows:
                s = base + _idot(row, c)
                if r > 0:
                    lo = max(lo, -(s // r))
                elif r < 0:
                    hi = min(hi, s // -r)
                elif s < 0:
                    break
            else:
                if lo <= hi:
                    yield c, lo, hi

    def lattice_points(self, denominator: int = 1) -> list[Vector]:
        """All points of (1/denominator) Z^n inside the polytope, sorted.

        c / k lies in the polytope exactly when c lies in its k-th
        dilation, so the points are the fibers of _fibers(k) scaled by
        1/k; the scan runs in lexicographic order, which is the sorted
        order.
        """
        k = denominator
        points = []
        for c, lo, hi in self._fibers(k):
            head = tuple(Fraction(x, k) for x in c)
            points.extend(head + (Fraction(x, k),) for x in range(lo, hi + 1))
        return points

    def lattice_point_count(self, denominator: int = 1) -> int:
        """len(lattice_points(denominator)), summed off the fiber lengths
        of the same scan without listing the points."""
        return sum(hi - lo + 1 for _, lo, hi in self._fibers(denominator))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalPolytope):
            return NotImplemented
        return self.ambient == other.ambient and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash((self.ambient, self.vertices))

    def __repr__(self) -> str:
        return (f"RationalPolytope(ambient={self.ambient}, "
                f"vertices={len(self.vertices)})")


def _coordinates(points: Sequence[Vector], origin: Vector,
                 basis: Sequence[Sequence[int]]) -> list[Vector] | None:
    """Coordinates of each point minus origin in the given basis vectors,
    from one elimination; None when a point leaves their span."""
    rows = list(zip(*basis))
    solutions = solve_dense(rows, [[a - b for a, b in zip(p, origin)]
                                   for p in points])
    if len(solutions) < len(points):
        return None
    return [tuple(x) for x in solutions]


def _span_volume(points: Sequence[Vector], normals: Sequence[Sequence[int]],
                 ambient: int) -> Fraction:
    """Volume of the hull of points that span the affine space cut out by
    equations with the given integer normals, normalized to that span's
    saturated lattice: the integer kernel of the normals.

    The points are rewritten in a basis of that lattice, and the pyramid
    recursion runs there; the value does not depend on the basis.  An
    empty basis means a single point, of volume 1.
    """
    basis = kernel_lattice_basis(normals, ambient)
    if not basis:
        return Fraction(1)
    coords = _coordinates(points, points[0], basis)
    if coords is None:
        raise EngineError("vertex fell outside its own affine span")
    return _pyramid_volume(coords, len(basis))


def _pyramid_volume(vertices: list[Vector], d: int) -> Fraction:
    """Lattice-normalized volume of a full-dimensional polytope in Q^d,
    for d >= 1.

    A facet row (a_0, a) is primitive as a whole, but a need not be when
    the facet misses the lattice points, so the apex height is the value
    of the row divided by gcd(a).
    """
    if d == 1:
        values = [v[0] for v in vertices]
        return max(values) - min(values)
    homog = [primitive_vector((Fraction(1),) + v) for v in vertices]
    ineqs, eqs = _dual_description(homog, d + 1)
    if eqs:
        raise EngineError("volume recursion hit a degenerate facet")
    apex = vertices[0]
    total = Fraction(0)
    for row in ineqs:
        height = Fraction(row[0] + _idot(row[1:], apex), gcd(*row[1:]))
        if height == 0:
            continue
        facet = [v for v in vertices if row[0] + _idot(row[1:], v) == 0]
        total += height * _span_volume(facet, [row[1:]], d)
    return Fraction(total, d)


# ----- JSON payloads ---------------------------------------------------------
#
# All integers travel as decimal strings so arbitrary precision survives any
# JSON reader, and rationals as [numerator, denominator] string pairs.


def _pair(value) -> list[str]:
    q = Fraction(value)
    return [str(q.numerator), str(q.denominator)]


def _int_row(row: Sequence) -> list[str]:
    return [str(int(v)) for v in row]


def _parse_pair(item) -> Fraction:
    num, den = item
    return Fraction(int(num), int(den))


def _parse_int_row(row) -> tuple[int, ...]:
    return tuple(int(v) for v in row)


def polytope_payload(polytope: RationalPolytope) -> dict:
    return {
        "ambient": polytope.ambient,
        "vertices": [[_pair(c) for c in vertex]
                     for vertex in polytope.vertices],
        "inequalities": [_int_row(row) for row in polytope.inequalities],
        "equations": [_int_row(row) for row in polytope.equations],
    }


def polytope_from_payload(payload: dict) -> RationalPolytope:
    """Rebuild a polytope from its payload and re-validate both halves.

    The vertex list is authoritative; the stored inequality and equation
    rows must reproduce themselves from it exactly.
    """
    try:
        ambient = int(payload["ambient"])
        points = [tuple(_parse_pair(c) for c in vertex)
                  for vertex in payload["vertices"]]
        inequalities = tuple(_parse_int_row(row)
                             for row in payload["inequalities"])
        equations = tuple(_parse_int_row(row)
                          for row in payload["equations"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed polytope payload: {exc}") from exc
    polytope = RationalPolytope.empty(ambient) if not points \
        else RationalPolytope.from_points(points, ambient)
    if polytope.inequalities != inequalities \
            or polytope.equations != equations:
        raise VerificationFailure(
            "polytope payload fails its facet round-trip")
    return polytope


def cone_payload(cone: RationalCone) -> dict:
    return {
        "ambient": cone.ambient,
        "rays": [_int_row(ray) for ray in cone.rays],
        "lineality": [_int_row(row) for row in cone.lineality],
    }

