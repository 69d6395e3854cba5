"""Toolbox for pure N-mode Gaussian states with pairwise-correlated structure.

Engineer states from minimal linear-optics recipes, reduce them to the
block-diagonal standard form, quantify their entanglement, and compute
exact EPR-bond lower bounds for matrix product representations.
"""

from .engineering import (
    Recipe,
    RecipeValidation,
    engineer_state,
    free_parameter_audit,
    parameter_count,
    random_recipe,
    validate_recipe,
)
from .entanglement import (
    EntanglementReport,
    bosonic_entropy,
    entropy_one_vs_rest,
    entropy_via_pairwise,
    full_report,
    log_negativity_pair,
    schmidt_parameter,
)
from .errors import (
    GaussForgeError,
    InfeasibleError,
    InputFormatError,
    NotInGenericClassError,
    NotPureError,
    RecipeError,
)
from .gmps import (
    BondAnalysis,
    min_bonds_general,
    min_bonds_invariant,
    parity_table,
    theta,
)
from .standard_form import (
    StandardForm,
    det_identity_residual,
    extract_parameters,
    harmonic_ground_state,
    reconstruct_diagonal,
    ring_potential,
    standard_form_to_cm,
    to_standard_form,
)
from .symplectic import (
    CovarianceMatrix,
    PurityResult,
    SymplecticMatrix,
    SymplecticSpectrum,
    apply_symplectic,
    beam_splitter,
    is_bona_fide,
    is_pure,
    reduced_cm,
    squeezer,
    symplectic_form,
    vacuum_cm,
    williamson_spectrum,
)

__all__ = [
    "BondAnalysis",
    "CovarianceMatrix",
    "EntanglementReport",
    "GaussForgeError",
    "InfeasibleError",
    "InputFormatError",
    "NotInGenericClassError",
    "NotPureError",
    "PurityResult",
    "Recipe",
    "RecipeError",
    "RecipeValidation",
    "StandardForm",
    "SymplecticMatrix",
    "SymplecticSpectrum",
    "apply_symplectic",
    "beam_splitter",
    "bosonic_entropy",
    "det_identity_residual",
    "engineer_state",
    "entropy_one_vs_rest",
    "entropy_via_pairwise",
    "extract_parameters",
    "free_parameter_audit",
    "full_report",
    "harmonic_ground_state",
    "is_bona_fide",
    "is_pure",
    "log_negativity_pair",
    "min_bonds_general",
    "min_bonds_invariant",
    "parameter_count",
    "parity_table",
    "random_recipe",
    "reconstruct_diagonal",
    "reduced_cm",
    "ring_potential",
    "schmidt_parameter",
    "squeezer",
    "standard_form_to_cm",
    "symplectic_form",
    "theta",
    "to_standard_form",
    "vacuum_cm",
    "validate_recipe",
    "williamson_spectrum",
]

__version__ = "0.1.0"
