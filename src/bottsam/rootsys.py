"""Root data, characters and Demazure operators.

Conventions, pinned by tests:
  - weights live in fundamental-weight coordinates;
  - the Cartan matrix satisfies A[i][j] = <alpha_j, alpha_i^vee>, so alpha_j
    is the j-th column of A read in fundamental-weight coordinates and
    s_i(omega_j) = omega_j - delta_ij alpha_i;
  - simple reflections act by s_i(lam) = lam - <lam, alpha_i^vee> alpha_i.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import EngineError, ValidationError


class Weight:
    """A weight in fundamental-weight coordinates (integers or rationals)."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable):
        self.coords = tuple(c if isinstance(c, (int, Fraction)) else Fraction(c)
                            for c in coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator:
        return iter(self.coords)

    def __getitem__(self, idx: int):
        return self.coords[idx]

    def __eq__(self, other) -> bool:
        if isinstance(other, Weight):
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coords)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(a - b for a, b in zip(self.coords, other.coords))

    def scaled(self, factor) -> "Weight":
        return Weight(factor * c for c in self.coords)

    def is_integral(self) -> bool:
        return all(Fraction(c).denominator == 1 for c in self.coords)

    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def __repr__(self) -> str:
        return f"Weight({list(self.coords)})"


def _integer_entry(value, what: str) -> int:
    """An integer matrix entry; a fractional, boolean or non-numeric one is
    refused, naming what it is an entry of, rather than truncated."""
    try:
        if not isinstance(value, bool) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"{what} entry {value!r} is not an integer")


def read_json(path: str):
    """The JSON value held in a file.  A file that cannot be opened, is not
    UTF-8, is not JSON, nests past the recursion limit or holds an integer
    past the interpreter's digit limit is invalid input, named by its path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


class CartanDatum:
    """A rank and a valid generalized Cartan matrix.

    The constructor checks the integer entries, the diagonal and the sign
    and zero pattern only.  Finite type is decided by the count of
    positive roots at their first enumeration (positive_roots, through
    weyl_dimension when a fundamental representation is built), which
    refuses a matrix with more roots than r max(r, 15).
    """

    __slots__ = ("rank", "matrix")

    def __init__(self, matrix: Sequence[Sequence[int]]):
        rows = tuple(tuple(_integer_entry(v, "Cartan matrix") for v in row)
                     for row in matrix)
        rank = len(rows)
        if rank == 0 or any(len(row) != rank for row in rows):
            raise ValidationError("Cartan matrix must be square and nonempty")
        for i in range(rank):
            if rows[i][i] != 2:
                raise ValidationError("Cartan matrix diagonal must be 2")
            for j in range(rank):
                if i != j:
                    if rows[i][j] > 0:
                        raise ValidationError(
                            "off-diagonal Cartan entries must be <= 0")
                    if (rows[i][j] == 0) != (rows[j][i] == 0):
                        raise ValidationError(
                            "Cartan matrix zero pattern must be symmetric")
        self.rank = rank
        self.matrix = rows

    @classmethod
    def from_type(cls, name: str) -> "CartanDatum":
        """Build a datum from a type string such as "A2", "B3" or "G2"."""
        name = name.strip().upper()
        family, digits = name[:1], name[1:]
        # str.isdigit alone admits superscripts such as "²", which int refuses.
        if len(name) < 2 or family not in "ABCDG" \
                or not (digits.isascii() and digits.isdigit()):
            raise ValidationError(f"unrecognized type string: {name!r}")
        try:
            rank = int(digits)
        except ValueError:  # past the interpreter's integer-string limit
            raise ValidationError(
                f"type rank has too many digits: {len(digits)}") from None
        if rank < 1:
            raise ValidationError("rank must be positive")
        if family == "G" and rank != 2:
            raise ValidationError("type G has rank 2 only")
        if family == "D" and rank < 3:
            raise ValidationError("type D needs rank >= 3")
        if family in ("B", "C") and rank < 2:
            raise ValidationError(f"type {family} needs rank >= 2")
        m = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        for i in range(rank - 1):
            m[i][i + 1] = -1
            m[i + 1][i] = -1
        if family == "B":
            # alpha_rank is short: <alpha_{r-1}, alpha_r^vee> = -2.
            m[rank - 1][rank - 2] = -2
        elif family == "C":
            # alpha_rank is long: <alpha_r, alpha_{r-1}^vee> = -2.
            m[rank - 2][rank - 1] = -2
        elif family == "D":
            m[rank - 2][rank - 1] = 0
            m[rank - 1][rank - 2] = 0
            m[rank - 3][rank - 1] = -1
            m[rank - 1][rank - 3] = -1
        elif family == "G":
            m[0][1] = -3
        return cls(m)

    @classmethod
    def from_matrix_file(cls, path: str) -> "CartanDatum":
        """Read a JSON file holding {"matrix": rows} or the bare rows."""
        data = read_json(path)
        matrix = data.get("matrix") if isinstance(data, dict) else data
        if not isinstance(matrix, list) or not all(
                isinstance(row, list) and all(type(v) is int for v in row)
                for row in matrix):
            raise ValidationError(
                f"{path} must hold {{\"matrix\": [[...], ...]}} with "
                "integer entries")
        return cls(matrix)

    def simple_root(self, i: int) -> Weight:
        """alpha_i in fundamental-weight coordinates (the i-th column)."""
        self._check_index(i)
        return Weight(self.matrix[k][i - 1] for k in range(self.rank))

    def fundamental_weight(self, i: int) -> Weight:
        self._check_index(i)
        return Weight(1 if k == i - 1 else 0 for k in range(self.rank))

    def zero_weight(self) -> Weight:
        return Weight((0,) * self.rank)

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.rank:
            raise ValidationError(f"simple index {i} out of range 1..{self.rank}")

    def __eq__(self, other) -> bool:
        if isinstance(other, CartanDatum):
            return self.matrix == other.matrix
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"CartanDatum(rank={self.rank})"


class WeylWord:
    """A word in the simple reflections, stored as 1-based indices."""

    __slots__ = ("indices",)

    def __init__(self, indices: Iterable[int]):
        idx = tuple(int(i) for i in indices)
        if any(i < 1 for i in idx):
            raise ValidationError("word indices are 1-based positive integers")
        self.indices = idx

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __getitem__(self, k: int) -> int:
        return self.indices[k]

    def __eq__(self, other) -> bool:
        if isinstance(other, WeylWord):
            return self.indices == other.indices
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.indices)

    def __repr__(self) -> str:
        return f"WeylWord({list(self.indices)})"


class Character:
    """A finite multiset of weights: a sparse map weight -> nonzero integer."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Weight, int] | None = None):
        clean: dict[Weight, int] = {}
        if terms:
            for w, m in terms.items():
                if m:
                    clean[w] = int(m)
        self.terms = clean

    @classmethod
    def monomial(cls, weight: Weight, mult: int = 1) -> "Character":
        return cls({weight: mult})

    @classmethod
    def zero(cls) -> "Character":
        return cls()

    def dimension(self) -> int:
        return sum(self.terms.values())

    def multiplicity(self, weight: Weight) -> int:
        return self.terms.get(weight, 0)

    def translated(self, shift: Weight) -> "Character":
        """Multiply by e^shift."""
        return Character({w + shift: m for w, m in self.terms.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, Character):
            return self.terms == other.terms
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        items = sorted(self.terms.items(), key=lambda kv: kv[0].coords)
        inner = ", ".join(f"{list(w.coords)}: {m}" for w, m in items[:5])
        tail = ", ..." if len(items) > 5 else ""
        return f"Character({{{inner}{tail}}})"


def simple_reflection(datum: CartanDatum, i: int, weight: Weight) -> Weight:
    """s_i(lam) = lam - <lam, alpha_i^vee> alpha_i."""
    pairing = weight[i - 1]
    if not pairing:
        return weight
    return weight - datum.simple_root(i).scaled(pairing)


def is_reduced(datum: CartanDatum, word: WeylWord | Sequence[int]) -> bool:
    """True when the word is a reduced expression. The empty word is reduced.

    Appending the letter i_j to w_{j-1} = s_{i_1} ... s_{i_{j-1}} adds one
    to the length exactly when w_{j-1}(alpha_{i_j}) is a positive root, so
    the word is reduced when each of its n such roots is positive.  That
    takes n(n - 1)/2 reflections of one root and no root enumeration.
    """
    indices = tuple(word)
    for i in indices:
        datum._check_index(i)
    for j, i in enumerate(indices):
        # w_{j-1}(alpha_{i_j}) in simple-root coordinates.
        root = [int(k == i - 1) for k in range(datum.rank)]
        for letter in reversed(indices[:j]):
            row = datum.matrix[letter - 1]
            root[letter - 1] -= sum(a * c for a, c in zip(row, root))
        if min(root) < 0:
            return False
    return True


@lru_cache(maxsize=None)
def positive_roots(datum: CartanDatum) -> tuple[tuple[int, ...], ...]:
    """All positive roots in simple-root coordinates, sorted.

    The roots are found by height.  The alpha_i-string through a root beta
    runs from beta - p alpha_i to beta + q alpha_i with
    p - q = <beta, alpha_i^vee>, and p is read off the roots of lower
    height, so beta + alpha_i is a root exactly when q > 0.  Only the
    letters i in or next to supp(beta) are stepped: for any other i both p
    and <beta, alpha_i^vee> are 0.  And p is 0 without a walk when
    beta_i = 0.

    The count of roots decides finite type; no other test runs.  A finite
    root system of rank r has r h / 2 positive roots per component, with
    Coxeter number h at most 2r on types A-D and at most 30 on the
    exceptional ones, so it has at most r max(r, 15) in all: E8 (120),
    and B_r and C_r for r >= 15 (r^2), meet the bound, so only a count
    strictly above it is refused.  Any other generalized Cartan matrix
    has infinitely many positive roots, and the enumeration finds each of
    them, imaginary roots too: a positive root of height > 1 is a root
    plus a simple root, and alpha_i-strings are unbroken with the same
    p - q (Kac, Infinite-dimensional Lie algebras, Lemma 1.6 and
    Prop. 3.6).  So its count passes the bound at some height, and the
    matrix is refused (ValidationError) there.  The bound grows with the
    rank; a fixed cap on the count would refuse a large finite type, as
    a cap of 10,000 roots once refused A100 (10,100 roots, 5,050 of them
    positive).
    """
    rank = datum.rank
    a = datum.matrix
    neighbors = [[(j, v) for j, v in enumerate(row) if v] for row in a]
    # touching[j]: the letters i with a[i][j] != 0, j itself among them.
    touching = [[i for i in range(rank) if a[i][j]] for j in range(rank)]
    level = [tuple(int(k == i) for k in range(rank)) for i in range(rank)]
    found = set(level)
    while level:
        above = []
        for beta in level:
            letters = sorted({i for j, v in enumerate(beta) if v
                              for i in touching[j]})
            for i in letters:
                p = 0
                if beta[i]:
                    lower = beta[:i] + (beta[i] - 1,) + beta[i + 1:]
                    while lower in found:
                        p += 1
                        lower = lower[:i] + (lower[i] - 1,) + lower[i + 1:]
                if p > sum(v * beta[j] for j, v in neighbors[i]):
                    up = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                    if up not in found:
                        found.add(up)
                        above.append(up)
        if len(found) > rank * max(rank, 15):
            raise ValidationError("root system is not finite; "
                                  "the Cartan matrix is not of finite type")
        level = above
    return tuple(sorted(found))


def demazure_operator(datum: CartanDatum, i: int, char: Character) -> Character:
    """The i-th Demazure operator (f - e^{-alpha_i} s_i f) / (1 - e^{-alpha_i}).

    It is applied term by term through the rank-one string rule, the rule
    demazure_dimension counts.  With h = <lam, alpha_i^vee>, D_i(e^lam) is
    e^lam + e^{lam - alpha_i} + ... + e^{s_i lam} when h >= 0, zero when
    h = -1, and -(e^{lam + alpha_i} + ... + e^{s_i lam - alpha_i}) when
    h <= -2.  A weight whose pairing is not an integer raises EngineError.
    """
    datum._check_index(i)
    alpha = datum.simple_root(i).coords
    out: dict[tuple, int] = {}
    for w, m in char.terms.items():
        h = int(w[i - 1])
        if h != w[i - 1]:
            raise EngineError(f"Demazure operator needs integral pairings, "
                              f"got <lam, alpha_{i}^vee> = {w[i - 1]}")
        # lam + k alpha_i over the string, with its sign; empty at h = -1.
        ks, m = (range(0, -h - 1, -1), m) if h >= 0 else (range(1, -h), -m)
        for k in ks:
            coords = tuple(c + k * a for c, a in zip(w.coords, alpha))
            out[coords] = out.get(coords, 0) + m
    return Character({Weight(c): m for c, m in out.items()})


def demazure_dimension(datum: CartanDatum, i: int, char: Character,
                       twist: int = 0) -> int:
    """Dimension of D_i(e^{twist * omega_i} char), without building it.

    It counts the rank-one string rule of demazure_operator: with
    h = <lam, alpha_i^vee>, D_i(e^lam) is a string of h + 1 weights when
    h >= 0, zero when h = -1, and minus a string of -h - 1 weights when
    h <= -2, so it has dimension h + 1 in every case and the count is
    linear in the character.
    """
    datum._check_index(i)
    return sum(m * (w[i - 1] + twist + 1) for w, m in char.terms.items())


def bs_character(datum: CartanDatum, word: WeylWord | Sequence[int],
                 multidegree: Sequence[int]) -> Character:
    """Demazure character attached to a word and a multidegree.

    The multidegree is in the canonical line-bundle basis: entry k twists by
    the k-th fundamental weight along the word. The recursion applies the
    Demazure operator of each letter from the innermost (last) letter out.
    On the nef cone (every entry >= 0) it is the character of the section
    space; off it, of the Euler characteristic sum_i (-1)^i H^i: for A2
    (1,2) and (-3, 3) its dimension is -2, where there is one section.
    """
    indices = tuple(word)
    degrees = tuple(int(m) for m in multidegree)
    if len(degrees) != len(indices):
        raise ValidationError("multidegree length must match word length")
    for i in indices:
        datum._check_index(i)
    char = Character.monomial(datum.zero_weight())
    for i, m in zip(reversed(indices), reversed(degrees)):
        shift = datum.fundamental_weight(i).scaled(m)
        char = demazure_operator(datum, i, char.translated(shift))
    return char


def weyl_dimension(datum: CartanDatum, highest: Weight) -> int:
    """Dimension of the irreducible module with the given dominant weight.

    Weyl's product of <lam + rho, beta^vee> / <rho, beta^vee> over the
    positive coroots beta^vee, which are the positive roots of the
    transposed Cartan matrix in simple-coroot coordinates (see
    positive_roots), so <omega_j, beta^vee> is the j-th coordinate.
    """
    if not highest.is_dominant():
        raise ValidationError("weyl_dimension needs a dominant weight")
    num = den = 1
    for coroot in positive_roots(CartanDatum(tuple(zip(*datum.matrix)))):
        num *= sum((h + 1) * c for h, c in zip(highest, coroot))
        den *= sum(coroot)
    value = Fraction(num, den)
    if value.denominator != 1:
        raise EngineError("Weyl dimension did not come out integral")
    return int(value)
