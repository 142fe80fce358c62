"""Exact Blanchfield pairings of knots and fibred 3-manifolds.

The package computes, in exact arithmetic over Z[t,t^-1] and Z (Q(t)
appears only as the reduced pairs num/den in which values are output):

  * the Blanchfield pairing presented by a Seifert matrix, by fibred
    monodromy data, or by general dual-surface inclusion data;
  * the hermitian presentation matrix M_K(t) with its symplectic
    normalization;
  * Alexander polynomials and Levine-Tristram signatures;

together with executable checks of the structural facts: the pairings
are well-defined, sesquilinear, hermitian and nonsingular, the classical
inverted-presentation formula is not well-defined, and sign(M_K(z))
recovers the Levine-Tristram signature.
"""

import importlib

# public name -> defining submodule, which __getattr__ imports on first use
_SUBMODULE = {name: module for module, names in {
    "catalog": "CatalogEntry EntryParseError builtin builtin_catalog load_entry random_seifert "
               "render_entry",
    "invariants": "IndeterminateSignatureError alexander_polynomial levine_tristram_signature "
                  "mk_signature signature_profile",
    "laurent": "LaurentPoly",
    "matrix": "LAURENT ZZ Matrix SingularMatrixError",
    "mkform": "MKAssemblyError MKForm mk_matrix standard_symplectic symplectic_normalize",
    "pairing": "DualSurfaceData FibredData InvariantViolation SeifertData as_laurent_vector "
               "basis_vector from_dual_surface from_fibred from_seifert kearton_value stabilize",
    "qmod": "QModLambda RationalFunction canonical_class",
    "verify": "CheckResult kearton_witness verify_entry verify_random",
}.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry", "CheckResult", "DualSurfaceData",
    "EntryParseError", "FibredData", "IndeterminateSignatureError",
    "InvariantViolation", "LAURENT", "LaurentPoly", "MKAssemblyError",
    "MKForm", "Matrix", "QModLambda",
    "RationalFunction", "SeifertData", "SingularMatrixError", "ZZ",
    "alexander_polynomial", "as_laurent_vector", "basis_vector", "builtin",
    "builtin_catalog", "canonical_class", "from_dual_surface", "from_fibred",
    "from_seifert", "kearton_value", "kearton_witness",
    "levine_tristram_signature", "load_entry", "mk_matrix", "mk_signature",
    "random_seifert", "render_entry", "signature_profile", "stabilize",
    "standard_symplectic", "symplectic_normalize", "verify_entry",
    "verify_random",
]


def __getattr__(name: str):
    """Bind a public name on first use (PEP 562)."""
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
