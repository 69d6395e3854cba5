"""Residual tolerances used by the numerical checks.

All thresholds are stated in vacuum-normalized units (vacuum covariance
matrix = identity).  The environment variable ``GF_TOL_OVERRIDE`` scales
every residual tolerance by a positive finite factor, for exploratory use on
noisy inputs; when absent the defaults apply.
"""

import os

# symplectic eigenvalues within RANK of 1 count as vacuum normal modes
RANK = 1e-6

# largest covariance entry whose products in the purity identity stay finite
MAX_ENTRY = 1e150

# a potential's smallest eigenvalue must exceed this many units of eps times
# its largest: eigh resolves eigenvalues only to about eps * largest, and on
# rings (couplings 1e0..1e17, N in {3, 64}) the ground state's relative error
# grew as ~0.3 * eps * largest / smallest, so accepted states stay within
# ~3e-9; a conditioning limit, not a residual, so GF_TOL_OVERRIDE does not scale it
POTENTIAL_RESOLUTION = 1e8

# engineering restarts the running product of a splitter chain's cos factors
# once it falls below this, so the product and sin / product stay far inside
# the float range (a tiny product underflows, and its reciprocal overflows);
# a range limit, not a residual, so GF_TOL_OVERRIDE does not scale it
CHAIN_FLOOR = 1e-100

# transmittivities this close to 0 or 1 draw a recipe warning; a physical
# margin, not a residual, so GF_TOL_OVERRIDE does not scale it
DEGENERACY_MARGIN = 1e-3

# Newton solver budget for diagonal reconstruction
NEWTON_MAX_ITER = 200
NEWTON_MAX_BACKTRACK = 40


def scale() -> float:
    """Return the global tolerance scale from ``GF_TOL_OVERRIDE``."""
    raw = os.environ.get("GF_TOL_OVERRIDE")
    if raw is None:
        return 1.0
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"GF_TOL_OVERRIDE must be a positive float, got {raw!r}"
        ) from None
    if value <= 0.0:
        raise ValueError(f"GF_TOL_OVERRIDE must be positive, got {value}")
    if not value < float("inf"):  # inf, and nan, which compares false
        raise ValueError(f"GF_TOL_OVERRIDE must be positive and finite, got {raw!r}")
    return value


def purity(sigma_norm: float) -> float:
    """Tolerance on the purity-identity residual for a CM of given norm."""
    return 1e-9 * (1.0 + sigma_norm**2) * scale()


def block(sigma_norm: float) -> float:
    """Tolerance on residual q-p blocks and Williamson diagonal gaps after local normalization."""
    return 1e-8 * (1.0 + sigma_norm) * scale()


def symplectic(s_norm: float) -> float:
    """Tolerance on the symplectic-condition defect of a matrix of given norm."""
    return 1e-10 * max(1.0, s_norm) ** 2 * scale()


def rank() -> float:
    """Threshold separating unit from non-unit symplectic eigenvalues."""
    return RANK * scale()


def newton(d_norm: float) -> float:
    """Convergence tolerance for the diagonal-reconstruction Newton solve."""
    return 1e-12 * (1.0 + d_norm) * scale()


def unit_eigenvalue() -> float:
    """Distance above 1 within which a symplectic eigenvalue carries no entropy."""
    return 1e-12 * scale()


def rotation(block_norm: float) -> float:
    """Largest q-p entry of a 2x2 mode block that is left unrotated."""
    return 1e-14 * (1.0 + block_norm) * scale()
