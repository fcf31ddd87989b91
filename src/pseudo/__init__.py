"""Exact symbolic computation with conformal algebras over the rationals.

Algebras and bimodules are finite free modules over a polynomial ring in
the translation generator; products are polynomial-valued and every axiom
check reduces to polynomial identities, so all verdicts are exact.  The
cohomology layer works degree-by-degree with explicit truncation windows
and reports whether coboundary dimensions stabilized under widening.

Importing the package loads none of its modules: each public name is
imported from its home module on first use (PEP 562) and kept here.
"""

__version__ = "0.1.0"

# home module -> the public names it defines
_PUBLIC = {
    "cfmodule": "BimoduleStructure CLinearMap UnfitModuleError check_module_axioms",
    "cohomology": "Cochain CochainIndex CohomologyReport ComplexInconsistencyError "
                  "TruncationOverflowError TruncationWindow cohomology_dimensions",
    "conformal": "ConformalAlgebra LawCounterexample NonAssociativeError check_associativity",
    "constructions": "AbelianExtensionDatum DeformationDatum ExtensionDatum "
                     "build_abelian_extension build_extension deform deformation_residuals "
                     "equivalent_deformations equivalent_extensions extension_residuals "
                     "find_deformation_witness find_extension_witness gamma_coboundary "
                     "search_deformation_witness search_extension_witness",
    "polyring": "Poly PolyParseError parse_poly poly_to_str",
}
_HOME = {name: home for home, names in _PUBLIC.items() for name in names.split()}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
