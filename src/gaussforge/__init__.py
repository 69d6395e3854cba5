"""Toolbox for pure N-mode Gaussian states with pairwise-correlated structure.

Engineer states from minimal linear-optics recipes, reduce them to the
block-diagonal standard form, quantify their entanglement, and compute
exact EPR-bond lower bounds for matrix product representations.

Submodules load on first use: ``import gaussforge`` imports none of them
(numpy included), and the first access to a public name imports its home
module and caches the name here, so later lookups are plain attribute reads.
"""

import importlib

_HOMES = {
    "engineering": (
        "Recipe",
        "RecipeValidation",
        "engineer_state",
        "parameter_count",
        "random_recipe",
        "validate_recipe",
    ),
    "entanglement": (
        "EntanglementReport",
        "bosonic_entropy",
        "entropy_one_vs_rest",
        "entropy_via_pairwise",
        "full_report",
        "log_negativity_pair",
        "schmidt_parameter",
    ),
    "errors": (
        "GaussForgeError",
        "InfeasibleError",
        "InputFormatError",
        "NotInGenericClassError",
        "NotPureError",
        "RecipeError",
    ),
    "gmps": (
        "BondAnalysis",
        "min_bonds_general",
        "min_bonds_invariant",
        "parity_table",
        "theta",
    ),
    "standard_form": (
        "StandardForm",
        "det_identity_residual",
        "extract_parameters",
        "harmonic_ground_state",
        "reconstruct_diagonal",
        "ring_potential",
        "standard_form_to_cm",
        "to_standard_form",
    ),
    "symplectic": (
        "CovarianceMatrix",
        "PurityResult",
        "SymplecticSpectrum",
        "is_bona_fide",
        "is_pure",
        "symplectic_form",
        "vacuum_cm",
        "williamson_spectrum",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
# the modules behind the public names, and the two they share, are attributes too
_SUBMODULES = (*_HOMES, "jsonio", "tolerances")


def __getattr__(name):
    if name in _SUBMODULES:  # importing a submodule binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


__all__ = sorted(_HOME)

__version__ = "0.1.0"
