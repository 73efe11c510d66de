"""Independent closed-form oracles that tests freeze expected values against.

Everything here is computed from scratch: textbook formulas and brute-force
Fraction linear algebra, sharing no code with the package under test.  The
exceptions keep an older route of the package: order_polytope_points keeps
its double description, the monomial route as it was before
back-substitution; section_weight_triples keeps the section spaces and
adapted bases that weighted semigroups were read off before they labeled
the level sets; fitted_weight_projection and
fitted_multiplicity_asymptotics keep the weight map fitted through every
label and the weight polytope hulled from every label, before the map was
read off the weight rule and the polytope taken as the image of the level
hulls (the oracle counts each weight space among all the labels; it read
the counts off Demazure characters, which off the nef cone are Euler
characteristics, until the package counted the labeled level sets too);
dense_chart and dense_slot_sections keep the dense matrix
products that charts and slot sections came from before they were read off
sparse orbit vectors; raw_point_body and raw_point_image hull every
valuation point, as bodies did before they hulled memoized class hulls;
minkowski_points keeps the plain per-slot sum of the slot valuation sets,
packed, summed, count-checked and decoded into every point, as nef level
sets were kept before they were kept as counts and codes;
exterior_power_action and b2_action keep the hand-made fundamental
representations (exterior powers of C^(n+1) and data/B2.json) that the
group action came from before it was derived from the Cartan matrix;
reflection_closure, closure_weyl_dimension and closure_length keep the
root enumeration by reflection closure that Weyl dimensions and reduced
words were read off before root strings and inversion roots;
demazure_by_division keeps the Demazure operator as an exact division
along root strings, before it applied the rank-one string rule of
demazure_closed_form term by term;
interpolated_degree and searched_pullbacks keep the degree interpolated
from character dimensions and the pullback searched among characters,
before torus localization and the closed-form pullback;
glue_space_by_filters keeps the glue class loop that sent every
(class, chart) pair through the chart filter, before classes on monomial
charts were decided inline; glue_space_by_doubling keeps the loop that
doubled a canonical class's degree box until the glue dimension settled,
before words with a repeated letter solved one proven box;
two_sweep_vertices keeps the hull
vertices read off a second double-description sweep, before they were read
off the tight-facet masks of the first; direction_lattice_volume keeps the
lattice volume taken in a basis of the direction lattice (primitive
directions from the first vertex, then two integer kernels), before the
lattice was read off the span's equation normals.  gelfand_tsetlin_points
and gelfand_tsetlin_weight are the textbook Gelfand-Tsetlin patterns of
type A and their weights.  divisible_part is a
second route to an off-nef section space, off the spanning route's basis
of a nef class and the verified basis change, with no chart and no degree
box.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path


def demazure_closed_form(matrix, index, terms):
    """Isobaric divided-difference operator, applied weight by weight.

    ``matrix`` holds the Cartan integers, ``index`` is 1-based, ``terms``
    maps weight coordinate tuples to integer multiplicities.  Each weight
    is handled by the rank-one formula: a geometric string down the root
    for nonnegative pairing, zero at pairing -1, and a negated string up
    the root below that.
    """
    rank = len(matrix)
    i = index - 1
    root = tuple(matrix[r][i] for r in range(rank))
    out: dict[tuple, int] = {}

    def add(coords, mult):
        total = out.get(coords, 0) + mult
        if total:
            out[coords] = total
        else:
            out.pop(coords, None)

    for coords, mult in terms.items():
        pairing = coords[i]
        if pairing >= 0:
            for j in range(pairing + 1):
                add(tuple(coords[r] - j * root[r] for r in range(rank)),
                    mult)
        elif pairing <= -2:
            for j in range(1, -pairing):
                add(tuple(coords[r] + j * root[r] for r in range(rank)),
                    -mult)
    return out


def demazure_by_division(matrix, index, terms):
    """The Demazure operator as the package had it before the rank-one
    rule: (f - e^{-alpha} s_i f) / (1 - e^{-alpha}), divided exactly along
    alpha_i-strings.

    Same arguments as demazure_closed_form; coordinates may be ints or
    Fractions.  A string is keyed by the s_i-invariant
    2 lam - <lam, alpha_i^vee> alpha_i and the parity of the pairing, which
    tells lam from lam + alpha_i / 2 when alpha_i is divisible by 2.  The
    quotient is read off a running sum from the top of each string, which
    must end at zero; a nonzero remainder raises ArithmeticError.
    """
    rank = len(matrix)
    i = index - 1
    root = tuple(matrix[r][i] for r in range(rank))
    numerator: dict[tuple, int] = {}
    for coords, mult in terms.items():
        pairing = coords[i]
        reflected = tuple(coords[r] - (pairing + 1) * root[r]
                          for r in range(rank))
        for weight, m in ((tuple(coords), mult), (reflected, -mult)):
            total = numerator.get(weight, 0) + m
            if total:
                numerator[weight] = total
            else:
                numerator.pop(weight, None)
    strings: dict[tuple, list] = {}
    for coords, mult in numerator.items():
        pairing = coords[i]
        key = (tuple(Fraction(2 * coords[r] - pairing * root[r])
                     for r in range(rank)), pairing % 2)
        strings.setdefault(key, []).append((pairing, coords, mult))
    out: dict[tuple, int] = {}
    for members in strings.values():
        members.sort(key=lambda t: -t[0])
        top_pairing, top, _ = members[0]
        steps = {(top_pairing - pairing) // 2: mult
                 for pairing, _, mult in members}
        running = 0
        for k in range(max(steps) + 1):
            running += steps.get(k, 0)
            if running:
                coords = tuple(top[r] - k * root[r] for r in range(rank))
                total = out.get(coords, 0) + running
                if total:
                    out[coords] = total
                else:
                    del out[coords]
        if running:
            raise ArithmeticError("Demazure division was not exact")
    return out


def weyl_dim_a1(m):
    return m + 1


def weyl_dim_a2(a, b):
    return (a + 1) * (b + 1) * (a + b + 2) // 2


def weyl_dim_b2(a, b):
    """Highest weight a*omega_1 + b*omega_2 with alpha_1 the long root."""
    return (a + 1) * (b + 1) * (a + b + 2) * (2 * a + b + 3) // 6


def gelfand_tsetlin_points(highest):
    """The Gelfand-Tsetlin patterns of a dominant weight of sl(r + 1), in
    fundamental-weight coordinates (lam_1, ..., lam_r), sorted.

    The top row is the partition (lam_1 + ... + lam_r, ..., lam_r, 0), and
    each row below it interlaces the row above: x_{j+1} <= y_j <= x_j.  A
    pattern is the tuple of its rows below the top, top first, each read
    left to right."""
    r = len(highest)
    top = tuple(sum(highest[i:]) for i in range(r)) + (0,)
    patterns = []

    def descend(row, entries):
        if len(row) == 1:
            patterns.append(entries)
            return
        for below in itertools.product(*(range(row[j + 1], row[j] + 1)
                                         for j in range(len(row) - 1))):
            descend(below, entries + below)

    descend(top, ())
    return sorted(patterns)


def gelfand_tsetlin_weight(pattern, highest):
    """The weight (e_1, ..., e_{r+1}) in epsilon-coordinates of a
    Gelfand-Tsetlin pattern of gelfand_tsetlin_points(highest): e_i is the
    sum of the i-th row from the bottom less the sum of the row below."""
    r = len(highest)
    rows = [tuple(sum(highest[i:]) for i in range(r)) + (0,)]
    start = 0
    for length in range(r, 0, -1):
        rows.append(pattern[start:start + length])
        start += length
    sums = [0] + [sum(row) for row in reversed(rows)]
    return tuple(b - a for a, b in zip(sums, sums[1:]))


def hirzebruch_count(c1, c2):
    """Sections of the (c1, c2) bundle on the first Hirzebruch surface.

    The length-2 word in type A_2 realizes that surface; counting lattice
    points column by column under the canonical coordinates gives this
    closed form for nef classes.
    """
    return (c2 + 1) * (c1 + 1) + c2 * (c2 + 1) // 2


def _primitive(vector):
    from math import gcd

    g = 0
    for v in vector:
        g = gcd(g, abs(v))
    if g == 0:
        return None
    return tuple(v // g for v in vector)


def extreme_rays_2d(vectors):
    """Extreme rays of a pointed planar cone, by pairwise 2x2 solves.

    A primitive generator is extreme exactly when it is not a nonnegative
    combination of two other generators; in the plane that combination can
    always be taken over a pair, so exhaustive pairs decide it.
    """
    primitives = sorted({p for p in map(_primitive, vectors) if p})
    rays = []
    for v in primitives:
        others = [u for u in primitives if u != v]
        redundant = False
        for u, w in itertools.combinations(others, 2):
            det = u[0] * w[1] - u[1] * w[0]
            if det == 0:
                continue
            a = Fraction(v[0] * w[1] - v[1] * w[0], det)
            b = Fraction(u[0] * v[1] - u[1] * v[0], det)
            if a >= 0 and b >= 0:
                redundant = True
                break
        if not redundant:
            rays.append(v)
    return rays


def shoelace_area(ordered_vertices):
    """Area of a polygon whose vertices are listed in boundary order."""
    total = Fraction(0)
    count = len(ordered_vertices)
    for k in range(count):
        x1, y1 = ordered_vertices[k]
        x2, y2 = ordered_vertices[(k + 1) % count]
        total += Fraction(x1) * Fraction(y2) - Fraction(x2) * Fraction(y1)
    return abs(total) / 2


def convex_hull_2d(points):
    """Vertices of the convex hull of planar integer points in
    counterclockwise boundary order, by Andrew's monotone chain; collinear
    boundary points are dropped."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def chain(sequence):
        out = []
        for p in sequence:
            while len(out) >= 2:
                (x1, y1), (x2, y2) = out[-2], out[-1]
                if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) > 0:
                    break
                out.pop()
            out.append(p)
        return out

    return chain(pts)[:-1] + chain(reversed(pts))[:-1]


def dense_rank(rows, ncols):
    """Rank of sparse integer rows by plain Gaussian elimination."""
    matrix = [[Fraction(row.get(j, 0)) for j in range(ncols)]
              for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(matrix))
                      if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        lead = matrix[rank][col]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col] / lead
                matrix[r] = [matrix[r][j] - factor * matrix[rank][j]
                             for j in range(ncols)]
        rank += 1
        if rank == len(matrix):
            break
    return rank


def dense_determinant(rows):
    """Determinant by cofactor expansion; intended for tiny matrices."""
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [[rows[r][c] for c in range(n) if c != j]
                 for r in range(1, n)]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(rows[0][j]) * dense_determinant(minor)
    return total


def fraction_solve(rows, rhs):
    """Solve rows * x = rhs by Fraction Gauss-Jordan elimination; free
    unknowns get 0. None when the system is inconsistent."""
    m = [[Fraction(v) for v in row] + [Fraction(b)]
         for row, b in zip(rows, rhs)]
    ncols = len(m[0]) - 1 if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        lead = m[r][c]
        m[r] = [v / lead for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append((r, c))
        r += 1
    for i in range(r, len(m)):
        if m[i][ncols]:
            return None
    x = [Fraction(0)] * ncols
    for row, col in pivots:
        x[col] = m[row][ncols]
    return x


def cofactor_inverse(rows):
    """Inverse as the adjugate over the determinant; None if singular."""
    n = len(rows)
    det = dense_determinant(rows)
    if det == 0:
        return None
    if n == 1:
        return [[1 / det]]

    def cofactor(i, j):
        minor = [[rows[r][c] for c in range(n) if c != j]
                 for r in range(n) if r != i]
        return (-1) ** (i + j) * dense_determinant(minor)

    return [[cofactor(j, i) / det for j in range(n)] for i in range(n)]


def apply_sparse(rows, vector):
    """Multiply sparse integer rows against a sparse or dense vector."""
    if isinstance(vector, dict):
        entry = lambda j: Fraction(vector.get(j, 0))
    else:
        entry = lambda j: Fraction(vector[j])
    return [sum(Fraction(val) * entry(j) for j, val in row.items())
            for row in rows]


def primitive_row(row):
    """A sparse rational row scaled to coprime integers whose entry at the
    smallest key is positive; None for the zero row."""
    from math import gcd

    entries = {k: Fraction(v) for k, v in row.items() if v}
    if not entries:
        return None
    denom = 1
    for v in entries.values():
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = {k: int(v * denom) for k, v in entries.items()}
    g = 0
    for v in ints.values():
        g = gcd(g, v)
    if ints[min(ints)] < 0:
        g = -g
    return {k: v // g for k, v in ints.items()}


def _reference_combine(row, pivot_row, col, pivot_lead):
    factor = row[col]
    out = {c: v * pivot_lead for c, v in row.items()}
    for c, v in pivot_row.items():
        s = out.get(c, 0) - factor * v
        if s:
            out[c] = s
        else:
            out.pop(c, None)
    return primitive_row(out) or {}


def _reference_echelon(rows):
    """The fraction-free echelon form as first written: pivot on the
    shortest row of the smallest leading column, then sort by pivot."""
    work = [primitive_row(r) for r in rows if r]
    pivots, reduced = [], []
    while work:
        col = min(min(r) for r in work)
        best, best_len = -1, -1
        for idx, r in enumerate(work):
            if min(r) == col and (best < 0 or len(r) < best_len):
                best, best_len = idx, len(r)
        pivot_row = work.pop(best)
        lead = pivot_row[col]
        work = [_reference_combine(r, pivot_row, col, lead) if col in r
                else r for r in work]
        work = [r for r in work if r]
        reduced = [_reference_combine(r, pivot_row, col, lead) if col in r
                   else r for r in reduced]
        pivots.append(col)
        reduced.append(pivot_row)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [pivots[i] for i in order], [reduced[i] for i in order]


def fraction_nullspace(rows, ncols):
    """Right kernel basis by Fraction back-substitution: for each free
    column f, x_f = 1 and x_p = -row_p[f] / row_p[p] on the echelon rows,
    then made a primitive integer row."""
    pivots, reduced = _reference_echelon(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        entries = {free: Fraction(1)}
        for p, row in zip(pivots, reduced):
            v = row.get(free)
            if v:
                entries[p] = Fraction(-v, row[p])
        basis.append(primitive_row(entries))
    return basis


class FractionSpan:
    """A rational row space grown one row at a time whose stored rows are
    scaled to pivot coefficient 1; the pivot of a row is its smallest
    key."""

    def __init__(self):
        self.pivots = {}

    def add(self, row):
        """The reduced row if it is independent of the span, else None."""
        row = {k: Fraction(v) for k, v in row.items()}
        while row:
            lead = min(row)
            pivot = self.pivots.get(lead)
            if pivot is None:
                scale = row[lead]
                row = {k: v / scale for k, v in row.items()}
                self.pivots[lead] = row
                return row
            factor = row[lead]
            for k, v in pivot.items():
                s = row.get(k, 0) - factor * v
                if s:
                    row[k] = s
                else:
                    row.pop(k, None)
        return None


def order_polytope_points(a_rows, b_rows, can):
    """Lattice points of the order polytope {a >= 0, B a <= A can}, sorted,
    and the number of points in the bounding box of its vertices.

    The polytope comes by double description (from_inequalities goes H to
    V, then from V back to H), and every point of the vertex bounding box
    is tested against every facet.  An empty polytope has a box of 0.
    """
    from bottsam.polyhedra import RationalPolytope

    n = len(can)
    rhs = [sum(a_rows[l][k] * can[k] for k in range(n)) for l in range(n)]
    rows = [(0,) + tuple(int(pos == j) for pos in range(n))
            for j in range(n)]
    rows.extend((rhs[l],) + tuple(-b_rows[l][j] for j in range(n))
                for l in range(n))
    polytope = RationalPolytope.from_inequalities(rows, ambient=n)
    if polytope.is_empty:
        return [], 0
    ranges = []
    for i in range(n):
        values = [v[i] for v in polytope.vertices]
        ranges.append(range(math.ceil(min(values)),
                            math.floor(max(values)) + 1))
    points = [c for c in itertools.product(*ranges)
              if all(a[0] + sum(x * y for x, y in zip(a[1:], c)) >= 0
                     for a in polytope.inequalities)
              and all(e[0] + sum(x * y for x, y in zip(e[1:], c)) == 0
                      for e in polytope.equations)]
    return points, math.prod(len(r) for r in ranges)


def section_weight_triples(lattice, divisor, levels):
    """(valuation, level, weight coordinates) triples read off built
    sections, sorted.

    Each level's section space comes from the package's route rule and is
    triangularized to an adapted basis; every section carries the weight
    its route gave it, on the spanning route the sum of the representation
    model's weight vectors over its slot factors.
    """
    from bottsam.valuation import adapted_basis, valuation

    triples = []
    for k in range(1, levels + 1):
        mc = lattice.canonical(divisor.scaled(k)).coords
        for section in adapted_basis(lattice.engine.section_basis(can=mc)):
            triples.append((valuation(section), k, section.weight.coords))
    return sorted(triples)


def fitted_weight_projection(semigroup):
    """The exact affine map (nu, k) -> mu fitted through every triple of a
    weighted semigroup with solve_dense.

    Directions the data does not determine get coefficient zero; data no
    affine map fits raises ValueError naming the first such coordinate.
    """
    from bottsam import ValidationError, WeightProjection
    from bottsam._kernel import solve_dense

    if not semigroup.triples:
        raise ValidationError("weighted semigroup is empty")
    n = len(semigroup.triples[0][0])
    rows = [(*nu, k) for nu, k, _ in semigroup.triples]
    columns = [[mu[i] for _, _, mu in semigroup.triples]
               for i in range(semigroup.weight_dim)]
    fits = solve_dense(rows, columns)
    if len(fits) < len(columns):
        raise ValueError(
            f"weight coordinate {len(fits) + 1} admits no exact affine fit "
            "in (valuation, level)")
    return WeightProjection([fit[:n] for fit in fits],
                            [fit[n] for fit in fits])


def fitted_multiplicity_asymptotics(lattice, divisor, mu, levels,
                                    torus_projection=None,
                                    require_interior=True):
    """multiplicity_asymptotics by labeling every point of every level,
    hulling all the labels divided by their level, fitting the weight map
    through the labels and counting the labels equal to k mu; the same
    report, errors and messages."""
    from bottsam import (NonIntegralAll, NotInterior, OkounkovEngine,
                         RationalPolytope, ValidationError,
                         weighted_semigroup)
    from bottsam.weights import _coerce_projection

    mu = tuple(Fraction(v) for v in mu)
    rows = _coerce_projection(torus_projection, lattice.datum.rank)
    width = len(rows) if rows else lattice.datum.rank
    if len(mu) != width:
        raise ValidationError(
            f"weight has {len(mu)} coordinates, expected {width}")
    engine = OkounkovEngine(lattice)
    semigroup = weighted_semigroup(engine, divisor, levels, rows)
    weight_polytope = RationalPolytope.from_points(
        [tuple(Fraction(v, k) for v in label)
         for _, k, label in semigroup.triples], ambient=width)
    interior = not weight_polytope.is_empty and all(
        row[0] + sum(a * x for a, x in zip(row[1:], mu)) == 0
        for row in weight_polytope.equations) and all(
        row[0] + sum(a * x for a, x in zip(row[1:], mu)) > 0
        for row in weight_polytope.inequalities)
    text = ",".join(map(str, mu))
    if require_interior and not interior:
        raise NotInterior(f"weight {text} is not in the relative interior "
                          "of the weight polytope")
    projection = fitted_weight_projection(semigroup)
    body = engine.body(divisor, levels)
    d, r = body.polytope.dim(), weight_polytope.dim()
    step = math.lcm(*(v.denominator for v in mu))
    usable = [k for k in range(1, levels + 1) if k % step == 0]
    if not usable:
        raise NonIntegralAll(f"no level up to {levels} makes {text} "
                             "integral")
    level_rows = []
    for k in usable:
        target = tuple(k * v for v in mu)
        dimension = sum(level == k and tuple(label) == target
                        for _, level, label in semigroup.triples)
        level_rows.append({"level": k, "dimension": dimension,
                           "ratio": Fraction(dimension, k ** (d - r))})
    fiber = [(row, mu[i] - projection.level_part[i])
             for i, row in enumerate(projection.matrix)]
    slice_polytope = body.polytope.sliced(fiber)
    return {
        "levels": level_rows,
        "slice_vertices": slice_polytope.vertices,
        "slice_volume": Fraction(0) if slice_polytope.is_empty
        else slice_polytope.lattice_volume(),
        "body_dimension": d,
        "weight_dimension": r,
        "codimension": d - r,
        "interior": interior,
    }

def commutator_holds(weights, raising, lowering, j):
    """[e_j, f_j] = diag(weights[r][j - 1]) with dense matrices built from
    (to, from, coeff) triples, a repeated position keeping its last triple,
    multiplied entry by entry."""
    d = len(weights)
    e = [[0] * d for _ in range(d)]
    f = [[0] * d for _ in range(d)]
    for mat, triples in ((e, raising), (f, lowering)):
        for to, frm, coeff in triples:
            mat[to][frm] = coeff
    for r in range(d):
        for c in range(d):
            ef = sum(e[r][k] * f[k][c] for k in range(d))
            fe = sum(f[r][k] * e[k][c] for k in range(d))
            if ef - fe != (weights[r][j - 1] if r == c else 0):
                return False
    return True


def exterior_power_action(rank, k):
    """The k-th exterior power of the defining representation of
    SL(rank + 1) as (weights, highest index, lowering, raising): the basis
    is the sorted k-subsets of 1..rank+1, and f_j (e_j) moves j to j + 1
    (j + 1 to j) in a subset, every coefficient 1."""
    subsets = sorted(itertools.combinations(range(1, rank + 2), k))
    index = {s: i for i, s in enumerate(subsets)}
    weights = [tuple((1 if i in s else 0) - (1 if i + 1 in s else 0)
                     for i in range(1, rank + 1)) for s in subsets]
    lowering = {j: [] for j in range(1, rank + 1)}
    raising = {j: [] for j in range(1, rank + 1)}
    for s in subsets:
        for j in range(1, rank + 1):
            if j in s and j + 1 not in s:
                t = tuple(sorted(set(s) - {j} | {j + 1}))
                lowering[j].append((index[t], index[s], 1))
            if j + 1 in s and j not in s:
                t = tuple(sorted(set(s) - {j + 1} | {j}))
                raising[j].append((index[t], index[s], 1))
    return weights, index[tuple(range(1, k + 1))], lowering, raising


def b2_action(fundamental):
    """The hand-made B2 representation of data/B2.json as (weights,
    highest index, lowering, raising); alpha_1 is the long root."""
    data = json.loads((Path(__file__).parent / "data" / "B2.json")
                      .read_text(encoding="utf-8"))
    block = next(b for b in data["representations"]
                 if b["fundamental"] == fundamental)

    def actions(key):
        return {int(j): [tuple(t) for t in trips]
                for j, trips in block[key].items()}

    return ([tuple(w) for w in block["weights"]], block["highest"],
            actions("lowering"), actions("raising"))


def oracle_actions(name):
    """Every fundamental representation of type A_n or B2, from the
    hand-made builders above, keyed by fundamental weight."""
    rank = int(name[1:])
    if name[0] == "A":
        return {k: exterior_power_action(rank, k) for k in range(1, rank + 1)}
    if name == "B2":
        return {k: b2_action(k) for k in (1, 2)}
    raise ValueError(f"no hand-made representations of {name}")


def _dense_product(a, b):
    out = []
    for row in a:
        line = []
        for j in range(len(b[0])):
            acc = None
            for k, entry in enumerate(row):
                term = entry * b[k][j]
                acc = term if acc is None else acc + term
            line.append(acc)
        out.append(line)
    return out


def _dense_exp(triples, t, size, const):
    """exp(t X) for the nilpotent X with (to, from, coeff) triples, a
    repeated position keeping its last triple, by its power series."""
    action = [[0] * size for _ in range(size)]
    for to, frm, coeff in triples:
        action[to][frm] = coeff
    result = [[const(int(i == j)) for j in range(size)] for i in range(size)]
    power = [[int(i == j) for j in range(size)] for i in range(size)]
    for k in range(1, size + 1):
        power = _dense_product(power, action)
        if not any(any(row) for row in power):
            return result
        scalar = t ** k * Fraction(1, math.factorial(k))
        result = [[entry + scalar * p if p else entry
                   for entry, p in zip(line, prow)]
                  for line, prow in zip(result, power)]
    raise AssertionError("operator is not nilpotent")


def dense_prefixes(engine, flips):
    """Per letter of the word, the prefix products S_1 ... S_j (j = 0..n)
    of the chart's slot matrices in that letter's representation, with
    S_j = exp(x_j f) on an open slot and exp(x_j e) exp(f) exp(-e) exp(f)
    on a flipped one, all as dense matrices of polynomials."""
    from bottsam._poly import Polynomial

    n = len(flips)
    const = lambda c: Polynomial.constant(n, c)
    prefixes = {}
    for i in sorted(set(engine.word.indices)):
        rep = engine.model.rep(i)
        d = rep.dim
        chain = [[[const(int(r == c)) for c in range(d)] for r in range(d)]]
        for j, letter in enumerate(engine.word.indices):
            x = Polynomial.variable(n, j)
            if flips[j]:
                f = _dense_exp(rep.lowering[letter], Fraction(1), d, Fraction)
                e = _dense_exp(rep.raising[letter], Fraction(-1), d, Fraction)
                slot = _dense_product(
                    _dense_exp(rep.raising[letter], x, d, const),
                    _dense_product(_dense_product(f, e), f))
            else:
                slot = _dense_exp(rep.lowering[letter], x, d, const)
            chain.append(_dense_product(chain[-1], slot))
        prefixes[i] = chain
    return prefixes


def _f_index(rep, letter):
    return next(to for to, frm, _ in rep.lowering[letter]
                if frm == rep.highest)


def dense_chart(engine, flips):
    """(numerators, denominators, slot factors) of a chart read off two
    entries of the highest-weight column of consecutive dense prefix
    products: t_j = a_j / d_j - a_{j-1} / d_{j-1}, slot factor d_j."""
    prefixes = dense_prefixes(engine, flips)
    numerators, denominators, factors = [], [], []
    for j, letter in enumerate(engine.word.indices):
        rep = engine.model.rep(letter)
        hw, fidx = rep.highest, _f_index(rep, letter)
        before, now = prefixes[letter][j], prefixes[letter][j + 1]
        d_prev, a_prev = before[hw][hw], before[fidx][hw]
        d_now, a_now = now[hw][hw], now[fidx][hw]
        numerators.append(a_now * d_prev - a_prev * d_now)
        denominators.append(d_now * d_prev)
        factors.append(d_now)
    return tuple(numerators), tuple(denominators), tuple(factors)


def dense_slot_sections(engine, k):
    """(polynomial, weight coordinates) of each nonzero entry of the
    highest-weight column of the k-th open-cell prefix product."""
    letter = engine.word.indices[k - 1]
    rep = engine.model.rep(letter)
    column = dense_prefixes(engine, (0,) * len(engine.word))[letter][k]
    return [(column[r][rep.highest], rep.weights[r].coords)
            for r in range(rep.dim) if column[r][rep.highest]]


def raw_point_body(engine, divisor, levels):
    """The hull of every valuation point of levels 1..levels, each scaled
    by its level."""
    from bottsam.polyhedra import RationalPolytope

    points = [tuple(Fraction(v, k) for v in nu)
              for k in range(1, levels + 1)
              for nu in engine.valuation_points(divisor, k)]
    return RationalPolytope.from_points(points, ambient=engine.n)


def raw_point_image(engine, divisor, levels):
    """The hull of the valuation points of levels 1..levels with first
    entry 0, that entry dropped and each point scaled by its level."""
    from bottsam.polyhedra import RationalPolytope

    points = [tuple(Fraction(v, k) for v in nu[1:])
              for k in range(1, levels + 1)
              for nu in engine.valuation_points(divisor, k) if nu[0] == 0]
    return RationalPolytope.from_points(points, ambient=engine.n - 1)


def minkowski_points(lattice, mc):
    """Sorted points of mc_1 N_1 + ... + mc_n N_n, with N_k the valuations
    of the k-th slot's sections, or None when their count is not the
    dimension of the character of the nef class mc.

    Each point is packed into one int, its coordinates read as base-major
    digits in a base above any coordinate the sums reach, so a sum of codes
    is the code of the sum; the codes are decoded after the count check.
    """
    from bottsam.rootsys import bs_character
    from bottsam.valuation import valuation

    slots = [sorted({valuation(p)
                     for p in lattice.engine.slot_polynomials(k)})
             for k in range(1, lattice.n + 1)]
    base = 1 + sum(c * max(v for nu in nus for v in nu)
                   for c, nus in zip(mc, slots))

    def encode(point):
        code = 0
        for v in point:
            code = code * base + v
        return code

    codes = {0}
    for c, nus in zip(mc, slots):
        steps = [encode(nu) for nu in nus]
        for _ in range(c):
            codes = {x + y for x in codes for y in steps}
    target = bs_character(lattice.datum, lattice.word.indices,
                          mc).dimension()
    if len(codes) != target:
        return None
    points = []
    for code in sorted(codes):
        digits = [0] * lattice.n
        for j in range(lattice.n - 1, -1, -1):
            code, digits[j] = divmod(code, base)
        points.append(tuple(digits))
    return points


def reflection_closure(matrix):
    """Every positive root with its coroot, as sorted (root, coroot) pairs
    over the simple roots and simple coroots: the simple roots closed under
    every simple reflection, the route root enumeration took before it went
    by height.  Terminates only on a matrix of finite type."""
    rank = len(matrix)
    units = [tuple(int(k == i) for k in range(rank)) for i in range(rank)]
    seen = {(u, u) for u in units}
    frontier = list(seen)
    while frontier:
        new = []
        for b, c in frontier:
            for i in range(rank):
                pb = sum(matrix[i][j] * b[j] for j in range(rank))
                pc = sum(matrix[j][i] * c[j] for j in range(rank))
                pair = (tuple(v - (pb if k == i else 0) for k, v in enumerate(b)),
                        tuple(v - (pc if k == i else 0) for k, v in enumerate(c)))
                if pair not in seen:
                    seen.add(pair)
                    new.append(pair)
        frontier = new
    return sorted(p for p in seen if min(p[0]) >= 0)


def closure_stays_finite(matrix, cap=200):
    """Whether the real roots of reflection_closure stay within cap: the
    closure of a matrix that is not of finite type never ends, and a
    finite root system of rank 3 has at most 18 roots."""
    rank = len(matrix)
    seen = {tuple(int(k == i) for k in range(rank)) for i in range(rank)}
    frontier = list(seen)
    while frontier:
        new = []
        for b in frontier:
            for i in range(rank):
                pb = sum(matrix[i][j] * b[j] for j in range(rank))
                image = tuple(v - (pb if k == i else 0)
                              for k, v in enumerate(b))
                if image not in seen:
                    seen.add(image)
                    new.append(image)
        if len(seen) > cap:
            return False
        frontier = new
    return True


def closure_weyl_dimension(matrix, highest):
    """Weyl's dimension formula over the coroots of reflection_closure."""
    value = Fraction(1)
    for _, coroot in reflection_closure(matrix):
        value *= Fraction(sum((h + 1) * c for h, c in zip(highest, coroot)),
                          sum(coroot))
    return value


def closure_length(matrix, word):
    """Length of the Weyl group element a word multiplies out to: the
    number of positive roots of reflection_closure it sends negative."""
    rank = len(matrix)
    count = 0
    for root, _ in reflection_closure(matrix):
        for i in reversed(word):
            pairing = sum(matrix[i - 1][j] * root[j] for j in range(rank))
            root = tuple(v - (pairing if k == i - 1 else 0)
                         for k, v in enumerate(root))
        if max(root) <= 0:
            count += 1
    return count


def interpolated_degree(datum, word, canonical):
    """Degree of a nef class as the volume route had it before torus
    localization: interpolate k -> dim H^0(kD) from Demazure character
    dimensions at k = 0..n and take n! times the leading coefficient, with
    one oversample at k = n + 1 asserting the polynomial degree."""
    from bottsam.rootsys import bs_character

    n = len(word)
    values = [bs_character(datum, word, [k * c for c in canonical])
              .dimension() for k in range(n + 2)]
    for _ in range(n):
        values = [b - a for a, b in zip(values, values[1:])]
    assert values[0] == values[1], "oversample breaks degree n"
    return values[0]


def searched_pullbacks(datum, word, highest):
    """Every nonnegative canonical class whose character is the Demazure
    character of the dominant weight along the word, by the search the
    pullback took before its closed form: extend a prefix while the padded
    class has at most the target's dimension, compare full characters."""
    from bottsam.rootsys import Character, Weight, bs_character, \
        demazure_dimension, demazure_operator

    n = len(word)
    target = Character.monomial(Weight(highest))
    for i in reversed(word):
        target = demazure_operator(datum, i, target)
    goal = target.dimension()
    matches = []

    def search(prefix):
        if len(prefix) == n:
            if bs_character(datum, word, prefix) == target:
                matches.append(prefix)
            return
        value = 0
        while True:
            padded = prefix + (value,) + (0,) * (n - len(prefix) - 1)
            tail = bs_character(datum, word[1:], padded[1:])
            if demazure_dimension(datum, word[0], tail, padded[0]) > goal:
                return
            search(prefix + (value,))
            value += 1

    search(())
    return matches


def glue_space_by_filters(engine, can, eff, box, screened=None):
    """The glue space of a degree box with every (class, chart) pair sent
    through the engine's chart filter: the candidates grouped by torus
    weight per point, classes in weight order, charts by number of flips.

    screened, when given, is a list that gets (class, flips) for every
    pair of a class of two or more candidates and a monomial chart that
    is sent in with the unit vectors of distinct candidates."""
    from bottsam._poly import Polynomial
    from bottsam.sections import SectionPoly, _torus_weight

    classes = {}
    for a in itertools.product(*[range(b + 1) for b in box]):
        classes.setdefault(_torus_weight(a, engine._roots), []).append(a)
    charts = sorted((flips for flips in itertools.product((0, 1),
                                                          repeat=engine.n)
                     if any(flips)), key=lambda f: (sum(f), f))
    tables = {}
    result = []
    for key in sorted(classes):
        cands = classes[key]
        vectors = [{i: 1} for i in range(len(cands))]
        for flips in charts:
            if flips not in tables:
                tables[flips] = engine._chart_powers(flips, can, eff)
            if (screened is not None and len(cands) > 1
                    and tables[flips].checks is not None
                    and all(list(vec.values()) == [1] for vec in vectors)):
                screened.append((tuple(cands), flips))
            vectors = engine._chart_filter(tables[flips], cands, vectors)
            if not vectors:
                break
        weight = engine.section_weight(can, cands[0])
        for vec in vectors:
            poly = Polynomial(engine.n, {cands[i]: c for i, c in vec.items()})
            result.append(SectionPoly(poly.normalized(), weight))
    return result


def two_sweep_vertices(points, ambient):
    """Sorted hull vertices of a nonempty point list: one sweep from the
    homogenized points to facets and equations, a second from those back
    to the vertices of the homogenization."""
    from bottsam.polyhedra import RationalPolytope, _dual_description, \
        primitive_vector

    homog = [primitive_vector((Fraction(1),) + tuple(map(Fraction, p)))
             for p in points]
    ineqs, eqs = _dual_description(homog, ambient + 1)
    verts, unbounded = RationalPolytope._vertices_from_hrep(ineqs, eqs,
                                                            ambient)
    assert not unbounded
    return sorted(verts)


def direction_lattice_volume(polytope):
    """Lattice volume of a nonempty polytope: its vertices in a basis of
    the saturated lattice of the directions from the first vertex, the
    integer kernel of the integer kernel of those directions, then the
    pyramid recursion; a single point has volume 1."""
    from bottsam._kernel import kernel_lattice_basis
    from bottsam.polyhedra import _coordinates, _pyramid_volume, \
        primitive_vector

    origin = polytope.vertices[0]
    directions = [primitive_vector(tuple(a - b for a, b in zip(v, origin)))
                  for v in polytope.vertices[1:]]
    directions = [d for d in directions if any(d)]
    if not directions:
        return Fraction(1)
    orthogonal = kernel_lattice_basis(directions, polytope.ambient)
    basis = kernel_lattice_basis(orthogonal, polytope.ambient)
    coords = _coordinates(polytope.vertices, origin, basis)
    assert coords is not None
    return _pyramid_volume(coords, len(basis))


def nef_shift(matrix, can):
    """The effective N >= 0 that makes can + M N nef, M the unit upper
    triangular effective-to-canonical matrix: back-substitution, last
    coordinate first, N_k = max(0, -can_k - sum_{j>k} M_kj N_j).  Any other
    M is refused (EngineError), as the package's monomial_box refuses
    order matrices that are not unit triangular."""
    from bottsam.errors import EngineError

    n = len(can)
    if any(matrix[k][j] != (k == j) for k in range(n) for j in range(k + 1)):
        raise EngineError("the basis change is not unit upper triangular")
    shift = [0] * n
    for k in range(n - 1, -1, -1):
        shift[k] = max(0, -can[k] - sum(matrix[k][j] * shift[j]
                                        for j in range(k + 1, n)))
    nef = tuple(c + sum(matrix[k][j] * shift[j] for j in range(n))
                for k, c in enumerate(can))
    return tuple(shift), nef


def divided_sections(sections, exponents):
    """The combinations of the sections whose every monomial t^a has
    a >= exponents, divided by t^exponents, as Polynomials: the kernel of
    the coefficients of the monomials that fail the bound, by Fraction
    elimination."""
    from bottsam._poly import Polynomial

    polys = [sp.poly for sp in sections]
    low = sorted({mono for poly in polys for mono in poly.terms
                  if any(a < e for a, e in zip(mono, exponents))})
    rows = [{i: Fraction(poly.terms[mono]) for i, poly in enumerate(polys)
             if mono in poly.terms} for mono in low]
    out = []
    for vec in fraction_nullspace(rows, len(polys)):
        terms = {}
        for i, c in vec.items():
            for mono, coeff in polys[i].terms.items():
                key = tuple(a - e for a, e in zip(mono, exponents))
                terms[key] = terms.get(key, 0) + c * coeff
        out.append(Polynomial(len(exponents),
                              {m: c for m, c in terms.items() if c}))
    return out


def divisible_part(lattice, can):
    """A basis of the sections of a canonical class, read off the nef class
    can + M N of nef_shift with no chart and no degree box.

    t_j, the section of the j-th effective class, vanishes on the
    boundary divisor E_j, which meets the open cell in {t_j = 0}.  So the
    order of a section along E_j is the t_j-adic order of its cell
    polynomial, and multiplying by t^N maps the sections of can onto the
    sections of can + M N that t^N divides.  Those are the combinations of
    the spanning route's basis of can + M N whose monomials all have
    a >= N (divided_sections).
    """
    shift, nef = nef_shift(lattice.change.matrix, can)
    return divided_sections(lattice.engine.section_basis_nef(nef), shift)


def glue_space_by_doubling(engine, can):
    """The glue space of a canonical class by the doubling loop: the first
    box is 2 plus, per coordinate t_j, the sum over the positive entries
    c_k of c_k times the largest t_j-degree among slot k's sections; the
    box and the doubled box are solved, sharing the chart tables, until
    their spaces have the same dimension, and the smaller box's space is
    returned.  No cap: the proven box holds every section, so the loop
    stops once the box contains it."""
    box = tuple(2 + sum(c * max(sp.poly.max_degree_in(j)
                                for sp in engine.slot_polynomials(k))
                        for k, c in enumerate(can, 1) if c > 0)
                for j in range(engine.n))
    tables = {}
    basis = engine._glue_space(can, None, box, tables)
    while True:
        doubled = tuple(2 * b for b in box)
        check = engine._glue_space(can, None, doubled, tables)
        if len(check) == len(basis):
            return basis
        box, basis = doubled, check
