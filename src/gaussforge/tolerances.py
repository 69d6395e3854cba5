"""Residual tolerances used by the numerical checks.

All thresholds are stated in vacuum-normalized units (vacuum covariance
matrix = identity).  The environment variable ``GF_TOL_OVERRIDE`` scales
every residual tolerance by a positive finite factor, for exploratory use on
noisy inputs; when absent the defaults apply.  The override is read at every
check, from the mapping behind ``os.environ``, so a change made through
``os.environ`` after import takes effect at the next check; a change made in C
through ``setenv`` is not seen, just as ``os.environ.get`` does not see it.  A
mapping put in place of ``os.environ`` is read too, through its ``get`` when it
is not an ``os._Environ``.
"""

import os
import sys

# symplectic eigenvalues within RANK of 1 count as vacuum normal modes
RANK = 1e-6

# largest covariance entry whose products in the purity identity stay finite
MAX_ENTRY = 1e150

# a potential's smallest eigenvalue must exceed this many units of eps times
# its largest.  The error model is the eigh route's: eigh resolves eigenvalues
# only to about eps * largest, and on rings (couplings 1e0..1e17, N in {3, 64})
# its ground state's relative error grew as ~0.3 * eps * largest / smallest, so
# accepted states stay within ~3e-9.  Exactly circulant potentials, rings
# among them, take the Fourier route, which is accurate to a few eps at every
# accepted coupling; the same limit applies to them, so the refusals do not
# depend on the route.  A conditioning limit, not a residual, so
# GF_TOL_OVERRIDE does not scale it
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

# the Fourier route's scalar Newton solve for a circulant's diagonal d stops once a
# step moves d by at most this fraction of d: a step that small is the roundoff of the
# sums that form it, at every coupling scale.  A stopping rule, like NEWTON_MAX_ITER,
# not a residual, so GF_TOL_OVERRIDE does not scale it; eps comes from sys, since gmps
# and --help load this module without numpy
CIRCULANT_STEP = 4.0 * sys.float_info.epsilon

# an exact symmetric circulant is certified positive definite, with no Cholesky test, once the
# least of its real-FFT eigenvalues exceeds CERTIFIED_SPECTRUM * N^2 * ||row||_1.  That bounds
# the FFT's error plus the least eigenvalue at which a Cholesky test can break down, about
# N (N + 1) (eps / 2) row[0] for a constant diagonal row[0] (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., ch. 10).  A conditioning limit, not a residual, so
# GF_TOL_OVERRIDE does not scale it
CERTIFIED_SPECTRUM = 8.0 * sys.float_info.epsilon


# the override's key as ``os.environ`` stores it in the dict behind it
_OVERRIDE_KEY = os.environ.encodekey("GF_TOL_OVERRIDE")


def scale() -> float:
    """Return the global tolerance scale from ``GF_TOL_OVERRIDE``.

    One lookup in ``os.environ._data``, the dict ``os.environ.get`` reads too:
    when the variable is unset, ``Mapping.get`` raises and catches two
    ``KeyError``s, an order of magnitude slower than the lookup.
    ``os.environ`` itself is looked up at each call, so one that a test puts
    in its place is read; a replacement with no such dict, such as a plain
    ``dict``, is read through its ``get``.
    """
    environ = os.environ
    try:
        raw = environ._data.get(_OVERRIDE_KEY)
    except AttributeError:  # not an os._Environ
        raw = environ.get("GF_TOL_OVERRIDE")
    else:
        raw = raw if raw is None else environ.decodevalue(raw)
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


def purity(sigma_norm: float, factor: float | None = None) -> float:
    """Tolerance on the purity-identity residual for a CM of given norm, at scale ``factor``."""
    return 1e-9 * (1.0 + sigma_norm**2) * (scale() if factor is None else factor)


def block(sigma_norm: float) -> float:
    """Tolerance on residual q-p blocks and Williamson diagonal gaps after local normalization."""
    return 1e-8 * (1.0 + sigma_norm) * scale()


def rank() -> float:
    """Threshold separating unit from non-unit symplectic eigenvalues."""
    return RANK * scale()


def entropy_window(factor: float | None = None) -> tuple:
    """The lowest symplectic eigenvalue an entropy accepts, ``1 - rank()``, and the
    distance above 1 within which one carries no entropy, from one read of the scale
    (``factor``, if the caller has read it)."""
    factor = scale() if factor is None else factor
    return 1.0 - RANK * factor, 1e-12 * factor


def newton(d_norm: float) -> float:
    """Convergence tolerance for the diagonal-reconstruction Newton solve."""
    return 1e-12 * (1.0 + d_norm) * scale()


def rotation(block_norm: float) -> float:
    """Largest q-p entry of a 2x2 mode block that is left unrotated."""
    return 1e-14 * (1.0 + block_norm) * scale()
