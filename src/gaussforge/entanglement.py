"""Bipartite entanglement measures for pure N-mode Gaussian states.

For a pure state the entanglement between one mode and the rest is a
function of the single-mode determinant alone; in standard form that
determinant splits into pairwise correlation contributions, so the same
entropy can be recovered from two-point data.  Pairwise entanglement
between mode pairs is quantified by the logarithmic negativity of the
reduced two-mode state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import _integer
from .standard_form import StandardForm, _strict_upper
from .symplectic import (
    CovarianceMatrix,
    _check_mode_indices,
    _mode_entry,
    _pair_blocks,
    _positive_mode_det,
    require_pure,
    symplectic_form,
)

_LN2 = math.log(2.0)


@dataclass(frozen=True, eq=False)
class EntanglementReport:
    """Per-mode and pairwise entanglement summary of a pure state.

    Attributes:
        per_mode_entropy: entropy of entanglement of each mode vs the rest,
            in ebits.
        schmidt_parameter: the single nontrivial Schmidt value for the
            designated one-vs-rest bipartition, at least 1.
        pairwise_logneg: symmetric N x N matrix of two-mode logarithmic
            negativities (zero diagonal), in ebits.
        pairwise_detblocks: symmetric N x N matrix of the determinants of
            the 2x2 cross-covariance blocks (zero diagonal).
    """

    per_mode_entropy: tuple
    schmidt_parameter: float
    pairwise_logneg: np.ndarray
    pairwise_detblocks: np.ndarray

    def to_dict(self) -> dict:
        return {
            "per_mode_entropy": list(self.per_mode_entropy),
            "schmidt_parameter": self.schmidt_parameter,
            "pairwise_logneg": self.pairwise_logneg.tolist(),
            "pairwise_detblocks": self.pairwise_detblocks.tolist(),
        }


def bosonic_entropy(nu: float, nats: bool = False) -> float:
    """Entropy contribution of one symplectic eigenvalue.

    ``f(nu) = ((nu+1)/2) log2((nu+1)/2) - ((nu-1)/2) log2((nu-1)/2)``,
    strictly increasing for nu > 1 with the limit f(1) = 0 taken
    explicitly (values within the unit tolerance of
    :func:`tolerances.entropy_window` above 1 map to 0).

    Args:
        nu: symplectic eigenvalue, at least 1 up to roundoff.
        nats: report in natural-log units instead of ebits.

    Raises:
        ValueError: if nu lies outside ``[1 - tolerances.rank(),
            tolerances.MAX_ENTRY]``, nan included: no valid state with entries
            bounded by ``MAX_ENTRY`` has such a symplectic eigenvalue.
    """
    value = _entropy(nu, *tolerances.entropy_window())
    return value * _LN2 if nats else value


def _entropy(nu: float, low: float, unit: float) -> float:
    """:func:`bosonic_entropy` in ebits, with the window of
    :func:`tolerances.entropy_window` given."""
    if not low <= nu <= tolerances.MAX_ENTRY:  # also refuses nan
        raise ValueError(
            f"symplectic eigenvalue {float(nu)!r} lies outside "
            f"[{low!r}, {tolerances.MAX_ENTRY:g}]"
        )
    if nu - 1.0 < unit:
        return 0.0
    up = (nu + 1.0) / 2.0
    down = (nu - 1.0) / 2.0
    return up * math.log2(up) - down * math.log2(down)


def _memo_entropy(owner, det: float, factor: float) -> float:
    """:func:`_entropy` of sqrt(det) at tolerance scale ``factor``, once per determinant: ``owner``
    keeps the accepted values of the scale of its last query, and a new scale replaces them."""
    scale, memo = owner._entropies
    if scale != factor:
        memo = {}
        vars(owner)["_entropies"] = factor, memo
    value = memo.get(det)
    if value is None:
        value = memo[det] = _entropy(math.sqrt(det), *tolerances.entropy_window(factor))
    return value


def _log_negativities(cm: CovarianceMatrix, i, j) -> np.ndarray:
    """Log-negativities in ebits of 0-based mode pairs (i[k], j[k]).

    Closed two-mode form (Adesso, Serafini and Illuminati, PRA 70, 022318):
    ``nu^2 = 2 det / (D + sqrt(D^2 - 4 det))`` with ``D = det A + det B -
    2 det C``.  The discriminant is expanded so that it keeps its accuracy
    where the two partially transposed eigenvalues meet.  Non-positive-definite
    pairs raise ValueError.
    """
    nu2 = (_block_nu2 if cm._qp_free else _dense_nu2)(cm, i, j)
    return np.where(nu2 < 1.0, -0.5 * np.log2(nu2), 0.0)


def _block_nu2(cm: CovarianceMatrix, i, j) -> np.ndarray:
    """nu^2 of pairs of a q-p-free state, elementwise on the V_Q and V_P entries."""
    vq, vp = cm._vq_vp
    return _nu2(vq[i, i], vq[j, j], vq[i, j], vp[i, i], vp[j, j], vp[i, j], np.all, _array_root)


def _array_root(discriminant: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(discriminant, 0.0))


def _float_root(discriminant: float) -> float:
    """The root of a float discriminant; nan, which no caller accepts, where the array route warns."""
    return math.sqrt(max(discriminant, 0.0)) if discriminant > -math.inf else math.nan


def _nu2(a, b, c, a_, b_, c_, every, root):
    """nu^2 from (a, b, c) = V_Q's (ii, jj, ij) entries of pairs and (a', b', c') = V_P's: arrays
    with ``np.all`` and :func:`_array_root`, or floats with ``bool`` and :func:`_float_root`.  The
    pair's determinant is (ab - c^2)(a'b' - c'^2) and the discriminant is
    ``(a a' - b b')^2 + 4 (c b' - a c')(c a' - b c')``, in operators only, for the same bits on both.
    """
    det_q, det_p = a * b - c * c, a_ * b_ - c_ * c_
    if not every((a > 0.0) & (det_q > 0.0) & (a_ > 0.0) & (det_p > 0.0)):
        raise ValueError("a two-mode reduction is not positive definite")
    spread = a * a_ - b * b_
    gap = root(spread * spread + 4.0 * (c * b_ - a * c_) * (c * a_ - b * c_))
    return 2.0 * det_q * det_p / (a * a_ + b * b_ - 2.0 * c * c_ + gap)


def _float_log_negativity(cm: CovarianceMatrix, i: int, j: int):
    """Log-negativity in ebits of the 0-based pair (i, j) of a q-p-free state, by :func:`_nu2` on
    floats; None, for the array route and its inf, nan and warnings, unless nu^2 is positive finite."""
    i, j = 2 * i, 2 * j
    entries = [cm.data.item(row + s, col + s) for s in (0, 1) for row, col in ((i, i), (j, j), (i, j))]
    try:
        nu2 = _nu2(*entries, bool, _float_root)
    except ZeroDivisionError:
        return None
    if not 0.0 < nu2 < math.inf:
        return None
    return float(-0.5 * np.log2(nu2)) if nu2 < 1.0 else 0.0


def _dense_nu2(cm: CovarianceMatrix, i, j) -> np.ndarray:
    """nu^2 of pairs of any state, from the stacked 4x4 reductions.

    The discriminant is ``(det A - det B)^2 - 4 det C (det A + det B) +
    4 tr(A w C w B w C^T w)``.
    """
    pairs = _pair_blocks(cm.data, i, j)
    try:
        np.linalg.cholesky(pairs)
    except np.linalg.LinAlgError:
        raise ValueError("a two-mode reduction is not positive definite") from None
    dets = cm._dets
    a, b, c = dets[i, i], dets[j, j], dets[i, j]
    w, cross = symplectic_form(1), pairs[:, :2, 2:]
    twist = pairs[:, :2, :2] @ w @ cross @ w @ pairs[:, 2:, 2:] @ w @ cross.swapaxes(1, 2) @ w
    discriminant = (a - b) ** 2 - 4.0 * c * (a + b) + 4.0 * np.trace(twist, 0, 1, 2)
    gap = np.sqrt(np.maximum(discriminant, 0.0))
    return 2.0 * np.linalg.det(pairs) / (a + b - 2.0 * c + gap)


def schmidt_parameter(cm: CovarianceMatrix, mode_index: int) -> float:
    """Nontrivial Schmidt value of the one-vs-rest split: sqrt(det sigma_i).

    Equals the single non-unit symplectic eigenvalue of the complementary
    (N-1)-mode reduction.

    Raises, in this order:
        ValueError: if ``GF_TOL_OVERRIDE`` is set but not a positive finite float.
        NotPureError: for mixed inputs.
        ValueError: if ``mode_index`` is not an integer in 1..N; bools and floats are not.
        ValueError: if det sigma_i is not positive (the purity identity lets such states through).
    """
    require_pure(cm)
    return math.sqrt(_positive_mode_det(cm, mode_index))


def entropy_one_vs_rest(
    cm: CovarianceMatrix, mode_index: int, nats: bool = False
) -> float:
    """Entropy of entanglement between one mode and the remaining N-1: the :func:`bosonic_entropy`
    of :func:`schmidt_parameter`, from one read of the tolerance scale, which the state computes
    once per det sigma_i and scale (:func:`_memo_entropy`): a ring's modes share one.

    Raises, in this order:
        ValueError: if ``GF_TOL_OVERRIDE`` is set but not a positive finite float.
        NotPureError: for mixed inputs.
        ValueError: if ``mode_index`` is not an integer in 1..N; bools and floats are not.
        ValueError: if det sigma_i is not positive.
        ValueError: if sqrt(det sigma_i) lies outside :func:`bosonic_entropy`'s window.
    """
    factor = tolerances.scale()
    require_pure(cm, factor)
    value = _memo_entropy(cm, _positive_mode_det(cm, mode_index), factor)
    return value * _LN2 if nats else value


def entropy_via_pairwise(
    sf: StandardForm, mode_index: int, nats: bool = False
) -> float:
    """One-vs-rest entropy recovered from pairwise correlations alone.

    Uses ``det sigma_i = 1 - sum_{j != i} det eps_ij`` on the standard
    form, where ``det eps_ij = vq_ij * vp_ij``; the sums of all modes are
    kept by the standard form, and so is the entropy of each accepted
    ``det sigma_i`` at the scale of its last query.

    Raises, in this order:
        ValueError: if ``mode_index`` is not an integer in 1..N; bools and floats are not.
        ValueError: if the accumulated determinant turns out negative.
        ValueError: if ``GF_TOL_OVERRIDE`` is set but not a positive finite float.
        ValueError: if its square root lies outside :func:`bosonic_entropy`'s window.
        Either determinant refusal signals numerically inconsistent input.
    """
    det_block = 1.0 - _mode_entry(sf._pairwise_sums, mode_index)
    if det_block < 0.0:
        raise ValueError(
            f"pairwise accounting gave a negative determinant ({det_block:.3e}); "
            "the standard form is numerically inconsistent"
        )
    value = _memo_entropy(sf, det_block, tolerances.scale())
    return value * _LN2 if nats else value


def log_negativity_pair(
    cm: CovarianceMatrix, mode_i: int, mode_j: int, nats: bool = False
) -> float:
    """Logarithmic negativity between two modes of a state.

    Evaluates ``max(0, -log2 nu_min)`` from the smallest symplectic
    eigenvalue of the partially transposed (i, j) reduction, in closed form.
    Both orders give the bits of :func:`full_report`, which takes i < j; a q-p-free state's
    pair is read as Python floats wherever its nu^2 is a positive finite float.
    """
    mode_i, mode_j = (_integer(mode, "mode index") for mode in (mode_i, mode_j))
    if mode_i == mode_j:
        raise ValueError(f"log negativity needs two distinct modes, got {mode_i} twice")
    _check_mode_indices(cm.n_modes, mode_i, mode_j)
    low, high = sorted((mode_i - 1, mode_j - 1))
    value = _float_log_negativity(cm, low, high) if cm._qp_free else None
    if value is None:
        value = float(_log_negativities(cm, np.array([low]), np.array([high]))[0])
    return value * _LN2 if nats else value


def full_report(cm: CovarianceMatrix, schmidt_mode: int = 1) -> EntanglementReport:
    """Assemble all per-mode and pairwise quantities for a pure state.

    Args:
        cm: pure covariance matrix.
        schmidt_mode: 1-based mode defining the reported one-vs-rest
            Schmidt parameter.

    Each distinct determinant's entropy is computed once, in mode order, as
    :func:`entropy_one_vs_rest` computes it: a ring's one.
    """
    factor = tolerances.scale()
    require_pure(cm, factor)
    n = cm.n_modes
    _check_mode_indices(n, schmidt_mode)
    dets = [_positive_mode_det(cm, k) for k in range(1, n + 1)]
    rows, cols = np.nonzero(_strict_upper(n))
    logneg = np.zeros((n, n))
    logneg[rows, cols] = logneg[cols, rows] = _log_negativities(cm, rows, cols)
    return EntanglementReport(
        per_mode_entropy=tuple(_memo_entropy(cm, det, factor) for det in dets),
        schmidt_parameter=math.sqrt(dets[schmidt_mode - 1]),
        pairwise_logneg=logneg,
        pairwise_detblocks=np.where(np.eye(n, dtype=bool), 0.0, cm._dets),
    )

