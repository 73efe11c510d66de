"""Exact Okounkov-body computations for Bott-Samelson varieties."""

from .errors import (
    EngineError,
    NoMatch,
    NonIntegralAll,
    NotInterior,
    NotNef,
    SpanDeficiency,
    Unstable,
    ValidationError,
    VerificationFailure,
)
from .okounkov import GlobalConeApprox, OkounkovBody, OkounkovEngine
from .picard import (
    Basis,
    BasisChange,
    DivisorClass,
    PicardLattice,
    compute_basis_change,
    format_divisor,
    parse_divisor,
)
from .polyhedra import RationalCone, RationalPolytope
from .rootsys import (
    CartanDatum,
    Character,
    Weight,
    WeylWord,
    bs_character,
    demazure_dimension,
    demazure_operator,
    is_reduced,
    weyl_dimension,
)
from .sections import GroupModel, SectionEngine, SectionPoly
from .valuation import adapted_basis, valuation
from .weights import (
    WeightedSemigroup,
    WeightProjection,
    multiplicity_asymptotics,
    slice_lattice_count,
    weight_projection,
    weighted_semigroup,
)

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "BasisChange",
    "CartanDatum",
    "Character",
    "DivisorClass",
    "EngineError",
    "GlobalConeApprox",
    "GroupModel",
    "NoMatch",
    "NonIntegralAll",
    "NotInterior",
    "NotNef",
    "OkounkovBody",
    "OkounkovEngine",
    "PicardLattice",
    "RationalCone",
    "RationalPolytope",
    "SectionEngine",
    "SectionPoly",
    "SpanDeficiency",
    "Unstable",
    "ValidationError",
    "VerificationFailure",
    "Weight",
    "WeightProjection",
    "WeightedSemigroup",
    "WeylWord",
    "adapted_basis",
    "bs_character",
    "compute_basis_change",
    "demazure_dimension",
    "demazure_operator",
    "format_divisor",
    "is_reduced",
    "multiplicity_asymptotics",
    "parse_divisor",
    "slice_lattice_count",
    "valuation",
    "weight_projection",
    "weighted_semigroup",
    "weyl_dimension",
]
