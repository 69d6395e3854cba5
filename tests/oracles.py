"""Dense 2N x 2N gate algebra: the reference the library's block routes are tested against.

The library builds and analyses every state on its two N x N blocks, V_Q and
V_P.  These oracles spell the same physics out on the full covariance matrix:
symplectic matrices for squeezers and beam splitters, congruences
``sigma -> S^T sigma S``, partial traces, 2x2 mode blocks and their
determinants, and the gate schedule behind the paper's N(N-1)/2 free
parameters.  They check their inputs with the library's own rules
(``_dense_data``, ``_check_mode_indices``, the ``GF_TOL_OVERRIDE`` scale of
``tolerances.scale``), so their refusals read as the library's; the tolerance
on a symplectic matrix's defect, which only these oracles draw, is here.  The
Williamson conditions of the diagonal reconstruction and their Jacobian are
here too, each from a fresh ``np.linalg.inv`` of V_Q, and so is that
reconstruction's Newton loop spelled out with numpy's wrapper functions, which
the library's loop must match bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from gaussforge import tolerances
from gaussforge.errors import InfeasibleError
from gaussforge.standard_form import (
    StandardForm,
    _cholesky,
    _circulant_completion,
    _factor_inverse,
    _newton_system,
    _strict_upper,
)
from gaussforge.symplectic import (
    CovarianceMatrix,
    _check_mode_indices,
    _dense_data,
    _omega,
    symplectic_form,
    vacuum_cm,
)


def _mode_rows(mode_index: int) -> slice:
    """Rows/columns of a 1-based mode in the interleaved ordering."""
    return slice(2 * (mode_index - 1), 2 * mode_index)


def mode_block(cm: CovarianceMatrix, mode_i: int, mode_j: int | None = None) -> np.ndarray:
    """2x2 block coupling two 1-based modes; by default the diagonal block of ``mode_i``."""
    mode_j = mode_i if mode_j is None else mode_j
    _check_mode_indices(cm.n_modes, mode_i, mode_j)
    return np.array(cm.data[_mode_rows(mode_i), _mode_rows(mode_j)])


def reconstruction_jacobian(vq: np.ndarray) -> np.ndarray:
    """Jacobian of ``diag(V_Q^{-1}) - d`` with respect to the diagonal d, as the library's
    Newton system reads it, at ``np.linalg.inv(vq)``.

    With W = V_Q^{-1}, perturbing d_j by e moves W by -e W e_j e_j^T W, so
    the (i, j) entry is ``-(W_ij)^2 - delta_ij``.
    """
    return -_newton_system(np.diag(vq), np.linalg.inv(vq))[1]


def condition_residual(vq: np.ndarray) -> np.ndarray:
    """Williamson condition residual ``diag(V_Q^{-1}) - diag(V_Q)``, by ``np.linalg.inv``."""
    return np.diag(np.linalg.inv(vq)) - np.diag(vq)


def reference_reconstruct(offdiag, n_modes: int, max_iter: int = tolerances.NEWTON_MAX_ITER):
    """``reconstruct_diagonal`` of finite off-diagonals, spelled out with ``np.fill_diagonal``,
    ``np.diag`` and ``np.max(np.abs(...))``, its Newton system read from ``vq``."""
    offdiag = np.asarray(offdiag, dtype=float)
    coupling = np.zeros((n_modes, n_modes))
    coupling[_strict_upper(n_modes)] = offdiag
    coupling = coupling + coupling.T

    with np.errstate(over="ignore"):
        d = 1.0 + np.sum(np.abs(coupling), axis=1)
    if not np.all(np.isfinite(d)):  # row sums overflowed: no finite start
        raise InfeasibleError(float("inf"), 0)
    completed = _circulant_completion(coupling)
    if completed is not None:
        return completed
    with np.errstate(over="ignore"):
        estimate = np.sqrt(1.0 + np.sum(coupling**2, axis=1))
    # the first step leads from the anchor d to the estimate, and is halved like a Newton step
    step = d - estimate if np.all(np.isfinite(estimate)) else np.zeros(n_modes)
    last_residual = float("inf")
    for iteration in range(max_iter + 1):
        for _ in range(tolerances.NEWTON_MAX_BACKTRACK + 1):
            candidate = d - step
            vq = coupling.copy()
            np.fill_diagonal(vq, candidate)
            factor = _cholesky(vq)
            if factor is not None:
                break
            step = step / 2.0
        else:
            raise InfeasibleError(last_residual, iteration)
        d = candidate
        try:
            inverse = _factor_inverse(vq, factor)
        except np.linalg.LinAlgError:  # singular or not finite, yet it passed Cholesky
            raise InfeasibleError(last_residual, iteration) from None
        negated_jacobian = inverse * inverse
        negated_jacobian.reshape(-1)[:: len(vq) + 1] += 1.0
        residual = np.diag(inverse) - np.diag(vq)
        last_residual = float(np.max(np.abs(residual)))
        if last_residual <= tolerances.newton(float(np.max(np.abs(d)))):
            # the coupling with diagonal d is exactly symmetric and passed the Cholesky above
            return StandardForm._with_inverse(n_modes, vq, inverse)
        if iteration == max_iter:
            break
        try:
            step = -np.linalg.solve(negated_jacobian, residual)
        except np.linalg.LinAlgError:  # the Jacobian rounded to singular
            raise InfeasibleError(last_residual, iteration) from None
    raise InfeasibleError(last_residual, max_iter)


def block_dets(sigma: np.ndarray, i, j) -> np.ndarray:
    """det of the 2x2 blocks of sigma at 0-based modes (i, j), over index arrays: four
    fancy-index gathers, the reference for the state's strided ``_dets``."""
    q, p = 2 * i, 2 * j
    return sigma[q, p] * sigma[q + 1, p + 1] - sigma[q, p + 1] * sigma[q + 1, p]


def symplectic_tolerance(s_norm: float) -> float:
    """Tolerance on the symplectic-condition defect of a matrix of given norm, scaled by
    ``GF_TOL_OVERRIDE`` as the library's residual tolerances are."""
    return 1e-10 * max(1.0, s_norm) ** 2 * tolerances.scale()


@dataclass(frozen=True, eq=False)
class SymplecticMatrix:
    """Phase-space action of a Gaussian unitary.

    The constructor refuses non-finite entries and enforces the symplectic
    condition up to roundoff:
    ``|S^T Omega S - Omega|_inf <= 1e-10 * max(1, |S|_inf)^2``.
    """

    n_modes: int
    data: np.ndarray

    def __post_init__(self):
        data = _dense_data(self)
        omega = symplectic_form(self.n_modes)
        norm = float(np.max(np.abs(data)))
        if not norm < np.inf:  # also refuses nan
            raise ValueError("symplectic matrix entries must be finite")
        defect = float(np.max(np.abs(data.T @ _omega(data) - omega)))
        if not defect <= symplectic_tolerance(norm):  # a nan defect is refused too
            raise ValueError(
                f"matrix is not symplectic: defect {defect:.3e} exceeds "
                f"{symplectic_tolerance(norm):.3e}"
            )
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "_inf_norm", norm)

    def inf_norm(self) -> float:
        return self._inf_norm

    def __matmul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        if self.n_modes != other.n_modes:
            raise ValueError(f"mode count mismatch: {self.n_modes} vs {other.n_modes}")
        return SymplecticMatrix(self.n_modes, self.data @ other.data)


def squeezer(n_modes: int, mode_index: int, s: float) -> SymplecticMatrix:
    """Squeeze one 1-based mode by ``s`` > 0: diag(s, 1/s) on its (q, p) pair."""
    _check_mode_indices(n_modes, mode_index)
    if not s > 0.0:
        raise ValueError(f"squeezing factor must be positive, got {s}")
    data = np.eye(2 * n_modes)
    data[_mode_rows(mode_index), _mode_rows(mode_index)] = np.diag([s, 1.0 / s])
    return SymplecticMatrix(n_modes, data)


def beam_splitter(n_modes: int, mode_i: int, mode_j: int, t: float) -> SymplecticMatrix:
    """Beam splitter of transmittivity ``t`` in (0, 1) between two distinct 1-based modes.

    On (q_i, p_i, q_j, p_j) it is ``((sqrt(t) I, sqrt(1-t) I), (-sqrt(1-t) I, sqrt(t) I))``:
    symplectic and orthogonal, acting alike on q and p.
    """
    _check_mode_indices(n_modes, mode_i, mode_j)
    if mode_i == mode_j:
        raise ValueError(f"beam splitter needs two distinct modes, got {mode_i} twice")
    if not 0.0 < t < 1.0:
        raise ValueError(f"transmittivity must lie strictly in (0, 1), got {t}")
    ct, st = np.sqrt(t), np.sqrt(1.0 - t)
    data = np.eye(2 * n_modes)
    rows = np.r_[_mode_rows(mode_i), _mode_rows(mode_j)]
    data[np.ix_(rows, rows)] = np.kron([[ct, st], [-st, ct]], np.eye(2))
    return SymplecticMatrix(n_modes, data)


def apply_symplectic(cm: CovarianceMatrix, s: SymplecticMatrix) -> CovarianceMatrix:
    """Transform a state by congruence, ``sigma -> S^T sigma S``, re-symmetrized."""
    if cm.n_modes != s.n_modes:
        raise ValueError(f"mode count mismatch: CM has {cm.n_modes}, symplectic has {s.n_modes}")
    transformed = s.data.T @ cm.data @ s.data
    return CovarianceMatrix(cm.n_modes, (transformed + transformed.T) / 2.0)


def reduced_cm(cm: CovarianceMatrix, mode_subset) -> CovarianceMatrix:
    """Partial trace onto a nonempty sequence of distinct 1-based modes, in the order given."""
    modes = list(mode_subset)
    if not modes:
        raise ValueError("mode subset must be nonempty")
    if len(set(modes)) != len(modes):
        raise ValueError(f"mode subset has repeated entries: {modes}")
    _check_mode_indices(cm.n_modes, *modes)
    rows = np.concatenate([[2 * (m - 1), 2 * m - 1] for m in modes])
    return CovarianceMatrix(len(modes), cm.data[np.ix_(rows, rows)])


def schedule(recipe):
    """Yield a recipe's gates in order as ``(mode, partner, value, free)``.

    ``partner`` None means a squeezer of factor ``value`` on ``mode``, else a
    beam splitter of transmittivity ``value`` between the two modes.  ``free``
    marks the values the recipe chooses; the mode-2 partner squeeze and the
    50:50 seed splitter are fixed.
    """
    # seed: squeeze modes 1 and 2 in orthogonal quadratures, mix 50:50
    yield 1, None, recipe.s, True
    yield 2, None, 1.0 / recipe.s, False  # fixed by s
    yield 1, 2, 0.5, False  # fixed 50:50
    # distribute: each new mode is squeezed, then mixed with modes 2..i-1
    for i in range(3, recipe.n_modes + 1):
        yield i, None, recipe.r[i], True
        for j in range(2, i):
            yield j, i, recipe.b[(j, i)], True


def free_parameter_audit(recipe) -> int:
    """Count the free parameters in the gate schedule of a valid recipe.

    The balancing squeezes are fixed by the state and are not scheduled.
    """
    return sum(free for *_, free in schedule(recipe))


def dense_engineer(recipe) -> CovarianceMatrix:
    """The engineered state: one dense congruence per scheduled gate, then one balancing
    squeeze per mode that makes its 2x2 block proportional to the identity."""
    n = recipe.n_modes
    cm = vacuum_cm(n)
    for mode, partner, value, _ in schedule(recipe):
        gate = squeezer(n, mode, value) if partner is None else beam_splitter(n, mode, partner, value)
        cm = apply_symplectic(cm, gate)
    for k in range(1, n + 1):
        block = mode_block(cm, k)
        cm = apply_symplectic(cm, squeezer(n, k, (block[1, 1] / block[0, 0]) ** 0.25))
    return cm
