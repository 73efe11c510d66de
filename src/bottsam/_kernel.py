"""Exact linear algebra: the package's one elimination module.

Sparse rows are dicts mapping a key to a nonzero integer. echelon is the
package's only rational elimination: it reduces by cross-multiplication and
gcd normalization, so it builds no Fraction and stays exact at any size.
rank, nullspace and the dense solves (solve_dense, invert_dense) run on it,
and IncrementalSpan grows a row space by the same reduction step, clearing
the denominators of Fraction rows first. The one exception,
kernel_lattice_basis, does another job: a Hermite normal form for a
saturated lattice basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

# The benchmark records this tag with every result set.
IMPLEMENTATION = "python"


# ----- sparse integer elimination ---------------------------------------------


def normalize_row(row: dict[int, int]) -> dict[int, int]:
    """Divide by the content and make the leading coefficient positive."""
    if not row:
        return row
    g = 0
    for v in row.values():
        g = gcd(g, v)
    lead = row[min(row)]
    if g > 1:
        row = {c: v // g for c, v in row.items()}
        lead //= g
    if lead < 0:
        row = {c: -v for c, v in row.items()}
    return row


def _combine(row: dict[int, int], pivot_row: dict[int, int],
             col: int, pivot_lead: int) -> dict[int, int]:
    """Return pivot_lead*row - row[col]*pivot_row, gcd-normalized."""
    factor = row[col]
    out = {}
    for c, v in row.items():
        out[c] = v * pivot_lead
    for c, v in pivot_row.items():
        s = out.get(c, 0) - factor * v
        if s:
            out[c] = s
        else:
            out.pop(c, None)
    return normalize_row(out)


def echelon(rows: list[dict[int, int]]) -> tuple[list[int], list[dict[int, int]]]:
    """Reduced row echelon form over the integers.

    Returns (pivot columns ascending, reduced rows in the same order). Every
    returned row has its pivot as its smallest column, a positive pivot
    coefficient, and zeros in every other row's pivot column. Each step
    takes the smallest leading column left, so the pivots come out
    ascending.
    """
    work = [normalize_row(r) for r in rows if r]
    pivots: list[int] = []
    reduced: list[dict[int, int]] = []
    while work:
        if len(work) == 1:
            pivot_row = work.pop()
            col = min(pivot_row)
        else:
            # The smallest leading column, on its shortest row, the first.
            col, _, best = min([(min(r), len(r), idx)
                                for idx, r in enumerate(work)])
            pivot_row = work.pop(best)
        lead = pivot_row[col]
        if work:
            work = [_combine(r, pivot_row, col, lead) if col in r else r
                    for r in work]
            work = [r for r in work if r]
        if reduced:
            reduced = [_combine(r, pivot_row, col, lead) if col in r else r
                       for r in reduced]
        pivots.append(col)
        reduced.append(pivot_row)
    return pivots, reduced


def rank(rows: list[dict[int, int]]) -> int:
    return len(echelon(rows)[0])


def nullspace(rows: list[dict[int, int]], ncols: int) -> list[dict[int, int]]:
    """Primitive integer basis of the right kernel, one vector per free column.

    The basis is in bijection with the non-pivot columns (ascending); the
    vector for free column f is zero at every other free column, and its
    first nonzero entry is positive. It is the back-substitution x_f = 1,
    x_p = -row_p[f] / row_p[p], scaled by the lcm L of the pivot
    coefficients of the rows that touch f, so every entry is an integer:
    x_f = L and x_p = -row_p[f] * (L // row_p[p]).  A one-column system
    needs no elimination: one plain loop over the rows tells whether its
    kernel is everything or nothing, the whole cost of such a question.
    """
    if ncols == 1:
        for row in rows:
            if row.get(0):
                return []
        return [{0: 1}]
    pivots, reduced = echelon(rows)
    pivot_set = set(pivots)
    basis: list[dict[int, int]] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        touching = []
        scale = 1
        for p, row in zip(pivots, reduced):
            v = row.get(free)
            if v:
                d = row[p]
                touching.append((p, v, d))
                scale = scale * d // gcd(scale, d)
        entries = {free: scale}
        for p, v, d in touching:
            entries[p] = -v * (scale // d)
        basis.append(normalize_row(entries))
    return basis


def clear_denominators(row: Mapping) -> dict:
    """Scale a rational row by the lcm of its denominators.

    Values are ints or Fractions under any keys; the integer row spans the
    same rational line as the input.  A row of ints comes back as a copy,
    since normalize_row may store the row it is given.
    """
    for v in row.values():
        if type(v) is not int:
            break
    else:
        return dict(row)
    denom = 1
    for v in row.values():
        d = v.denominator
        if d != 1:
            denom = denom * d // gcd(denom, d)
    return {c: v.numerator * (denom // v.denominator) for c, v in row.items()}


class IncrementalSpan:
    """Row space with incremental insertion; pivots are minimal keys.

    Each stored row is primitive: integer entries without a common factor
    and a positive pivot coefficient. Rows with Fraction entries are
    scaled to integers first; the span is the same rational row space.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict = {}

    def add(self, row: dict) -> dict | None:
        """Reduce a row against the span; store and return it if independent.

        A reduction step is pivot_lead*row - row[lead]*pivot, then
        normalized, so the returned row is primitive with a positive pivot.
        """
        row = normalize_row(clear_denominators(row))
        while row:
            lead = min(row)
            pivot = self.pivots.get(lead)
            if pivot is None:
                self.pivots[lead] = row
                return row
            row = _combine(row, pivot, lead, pivot[lead])
        return None

    def __len__(self) -> int:
        return len(self.pivots)


# ----- dense rational helpers -------------------------------------------------


def solve_dense(rows: Sequence[Sequence],
                columns: Sequence[Sequence]) -> list[list[Fraction]]:
    """Solve rows * x = b exactly for each right-hand side b in columns.

    One echelon of the augmented matrix [rows | columns] serves every
    right-hand side; free unknowns get 0. Returns the solutions of the
    leading consistent columns, in order, and stops before the first
    inconsistent one: that is the first right-hand side that becomes a
    pivot. So the result is shorter than columns exactly when some column
    has no solution.
    """
    width = len(rows[0]) if rows else 0
    augmented = []
    for i, row in enumerate(rows):
        entries = [*row, *(b[i] for b in columns)]
        augmented.append(clear_denominators(
            {c: v for c, v in enumerate(entries) if v}))
    pivots, reduced = echelon(augmented)
    solved = len(columns)
    pivot_rows = []
    for p, row in zip(pivots, reduced):
        if p >= width:
            solved = p - width
            break
        pivot_rows.append((p, row))
    solutions = []
    for j in range(width, width + solved):
        x = [Fraction(0)] * width
        for p, row in pivot_rows:
            x[p] = Fraction(row.get(j, 0), row[p])
        solutions.append(x)
    return solutions


def invert_dense(rows: Sequence[Sequence]) -> list[list[Fraction]] | None:
    """Exact inverse of a square matrix, or None if singular."""
    n = len(rows)
    solutions = solve_dense(rows, [[int(i == j) for i in range(n)]
                                   for j in range(n)])
    if len(solutions) < n:
        return None
    return [list(row) for row in zip(*solutions)]


def kernel_lattice_basis(int_rows: Sequence[dict[int, int] | Sequence[int]],
                         ncols: int) -> list[list[int]]:
    """Basis of the saturated integer kernel lattice ker(A) (cap) Z^ncols.

    Row-HNF with a tracked unimodular transform on the transpose: the
    transform rows matching zero rows of the HNF form a basis of the kernel
    lattice itself, not merely a finite-index sublattice.
    """
    dense: list[list[int]] = []
    for row in int_rows:
        if isinstance(row, dict):
            dense.append([row.get(c, 0) for c in range(ncols)])
        else:
            dense.append(list(row))
    nrows = len(dense)
    # Work on A^T: columns of A become rows.
    a = [[dense[r][c] for r in range(nrows)] for c in range(ncols)]
    u = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    row = 0
    for col in range(nrows):
        while True:
            nonzero = [i for i in range(row, ncols) if a[i][col]]
            if not nonzero:
                break
            pivot = min(nonzero, key=lambda i: (abs(a[i][col]), i))
            if pivot != row:
                a[row], a[pivot] = a[pivot], a[row]
                u[row], u[pivot] = u[pivot], u[row]
            p = a[row][col]
            done = True
            for i in range(row + 1, ncols):
                if a[i][col]:
                    q = a[i][col] // p
                    a[i] = [x - q * y for x, y in zip(a[i], a[row])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[row])]
                    if a[i][col]:
                        done = False
            if done:
                break
        if any(a[i][col] for i in range(row, ncols)):
            row += 1
        if row == ncols:
            break
    basis = []
    for vec, image in zip(u, a):
        if not any(image):
            row = normalize_row({c: v for c, v in enumerate(vec) if v})
            basis.append([row.get(c, 0) for c in range(ncols)])
    return sorted(basis)
