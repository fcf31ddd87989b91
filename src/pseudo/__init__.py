"""Exact symbolic computation with conformal algebras over the rationals.

Algebras and bimodules are finite free modules over a polynomial ring in
the translation generator; products are polynomial-valued and every axiom
check reduces to polynomial identities, so all verdicts are exact.  The
cohomology layer works degree-by-degree with explicit truncation windows
and reports whether coboundary dimensions stabilized under widening.
"""

__version__ = "0.1.0"

from .cfmodule import (
    BimoduleStructure,
    CLinearMap,
    UnfitModuleError,
    check_module_axioms,
)
from .cohomology import (
    Cochain,
    CochainIndex,
    CohomologyReport,
    ComplexInconsistencyError,
    TruncationOverflowError,
    TruncationWindow,
    cohomology_dimensions,
)
from .conformal import (
    ConformalAlgebra,
    LawCounterexample,
    NonAssociativeError,
    check_associativity,
)
from .constructions import (
    AbelianExtensionDatum,
    DeformationDatum,
    ExtensionDatum,
    build_abelian_extension,
    build_extension,
    deform,
    deformation_residuals,
    equivalent_deformations,
    equivalent_extensions,
    extension_residuals,
    find_deformation_witness,
    find_extension_witness,
    gamma_coboundary,
    search_deformation_witness,
    search_extension_witness,
)
from .polyring import Poly, PolyParseError, parse_poly, poly_to_str

__all__ = [
    "__version__",
    "AbelianExtensionDatum",
    "BimoduleStructure",
    "CLinearMap",
    "Cochain",
    "CochainIndex",
    "CohomologyReport",
    "ComplexInconsistencyError",
    "ConformalAlgebra",
    "DeformationDatum",
    "ExtensionDatum",
    "LawCounterexample",
    "NonAssociativeError",
    "Poly",
    "PolyParseError",
    "TruncationOverflowError",
    "TruncationWindow",
    "UnfitModuleError",
    "build_abelian_extension",
    "build_extension",
    "check_associativity",
    "check_module_axioms",
    "cohomology_dimensions",
    "deform",
    "deformation_residuals",
    "equivalent_deformations",
    "equivalent_extensions",
    "extension_residuals",
    "find_deformation_witness",
    "find_extension_witness",
    "gamma_coboundary",
    "parse_poly",
    "poly_to_str",
    "search_deformation_witness",
    "search_extension_witness",
]
