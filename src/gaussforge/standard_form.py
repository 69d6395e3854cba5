"""Block-diagonal standard form for pure states with vanishing q-p correlations.

After per-mode Williamson normalization (a rotation followed by a
balancing squeeze on each mode), states in this class separate into a
direct sum V_Q (+) V_P over the (q1..qN, p1..pN) ordering.  Purity forces
V_P = V_Q^{-1} and the per-mode normalization matches the diagonals of
the two blocks, so the strict upper triangle of V_Q, i.e. the N(N-1)/2
two-point correlations <q_i q_j>, carries all the freedom.  The same
matrices arise as ground states of quadratic Hamiltonians
H = (sum p^2 + q^T V q)/2 with spring-like couplings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tolerances
from .errors import InfeasibleError, InputFormatError, NotInGenericClassError
from .symplectic import (
    CovarianceMatrix,
    SymplecticMatrix,
    _block_dets,
    _blocks,
    _check_mode_index,
    _from_blocks,
    _mode_rows,
    apply_symplectic,
    read_matrix,
    require_pure,
)


@dataclass(frozen=True, eq=False)
class StandardForm:
    """Pure-state standard form, held as the position-correlation matrix V_Q.

    Attributes:
        n_modes: number of modes N.
        vq: symmetric positive-definite N x N matrix of <q_i q_j>;
            the momentum block V_P = V_Q^{-1} is implied.

    The constructor enforces the Williamson diagonal conditions
    ``(V_Q^{-1})_ii = (V_Q)_ii`` within tolerance.
    """

    n_modes: int
    vq: np.ndarray

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {self.n_modes}")
        vq = np.array(self.vq, dtype=float)
        if vq.shape != (self.n_modes, self.n_modes):
            raise ValueError(
                f"expected a {self.n_modes}x{self.n_modes} matrix, got {vq.shape}"
            )
        if not np.array_equal(vq, vq.T):
            raise ValueError("vq must be symmetric")
        try:
            np.linalg.cholesky(vq)
        except np.linalg.LinAlgError:
            raise ValueError("vq must be positive definite") from None
        diag_gap = float(np.max(np.abs(np.diag(np.linalg.inv(vq)) - np.diag(vq))))
        if diag_gap > tolerances.williamson_diag():
            raise ValueError(
                f"Williamson diagonal conditions violated: |diag(vq^-1) - diag(vq)| "
                f"= {diag_gap:.3e} exceeds {tolerances.williamson_diag():.3e}"
            )
        vq.flags.writeable = False
        object.__setattr__(self, "vq", vq)

    @cached_property
    def vp(self) -> np.ndarray:
        """Momentum-correlation block V_P = V_Q^{-1}, symmetrized."""
        inverse = np.linalg.inv(self.vq)
        inverse = (inverse + inverse.T) / 2.0
        inverse.flags.writeable = False
        return inverse

    def to_dict(self) -> dict:
        return {"n_modes": self.n_modes, "vq": self.vq.tolist()}

    @classmethod
    def from_dict(cls, doc: dict) -> "StandardForm":
        return cls(*read_vq_document(doc))


def read_vq_document(doc) -> tuple:
    """Schema-check a ``{"n_modes", "vq"}`` document; return ``(n_modes, vq)``."""
    if not isinstance(doc, dict):
        raise InputFormatError("standard-form document must be a JSON object")
    for key in ("n_modes", "vq"):
        if key not in doc:
            raise InputFormatError(f"standard-form document missing key {key!r}")
    n_modes = doc["n_modes"]
    if not isinstance(n_modes, int) or isinstance(n_modes, bool) or n_modes < 1:
        raise InputFormatError("n_modes must be a positive integer")
    return n_modes, read_matrix(doc["vq"], "vq", n_modes)


def _local_rotation_angle(block: np.ndarray) -> float:
    """Angle of the determinant-+1 rotation diagonalizing a 2x2 symmetric block."""
    gamma = block[0, 1]
    # already diagonal: never rotate, so exact zero q-p structure survives
    if abs(gamma) <= tolerances.rotation(abs(block[0, 0]) + abs(block[1, 1])):
        return 0.0
    return 0.5 * np.arctan2(2.0 * gamma, block[0, 0] - block[1, 1])


def _local_normalization(cm: CovarianceMatrix) -> CovarianceMatrix:
    """Rotate and balance each mode so its 2x2 block becomes c_k * identity."""
    n = cm.n_modes
    rotation = np.eye(2 * n)
    for k in range(1, n + 1):
        theta = _local_rotation_angle(cm.mode_block(k))
        c, s = np.cos(theta), np.sin(theta)
        rotation[_mode_rows(k), _mode_rows(k)] = np.array([[c, -s], [s, c]])
    rotated = apply_symplectic(cm, SymplecticMatrix(n, rotation))

    balance = np.eye(2 * n)
    for k in range(1, n + 1):
        block = rotated.mode_block(k)
        t = (block[1, 1] / block[0, 0]) ** 0.25
        balance[2 * (k - 1), 2 * (k - 1)] = t
        balance[2 * k - 1, 2 * k - 1] = 1.0 / t
    return apply_symplectic(rotated, SymplecticMatrix(n, balance))


def to_standard_form(cm: CovarianceMatrix) -> StandardForm:
    """Reduce a pure state to its block-diagonal standard form.

    Performs per-mode Williamson normalization, checks that the q-p block
    vanishes, and verifies the momentum block against V_Q^{-1}.

    Raises:
        NotPureError: for mixed inputs.
        NotInGenericClassError: if local normalization cannot reach the
            block-diagonal form (possible for some pure states of 4 or
            more modes; the check is heuristic).
    """
    require_pure(cm)
    normalized = _local_normalization(cm)
    q_block, p_block, cross_block = _blocks(normalized.data)
    tol = tolerances.block(normalized.inf_norm())
    cross = float(np.max(np.abs(cross_block)))
    if cross > tol:
        raise NotInGenericClassError(cross, tol)
    vq = (q_block + q_block.T) / 2.0
    gap = float(np.max(np.abs(p_block - np.linalg.inv(vq))))
    if gap > tol:
        raise NotInGenericClassError(gap, tol)
    return StandardForm(cm.n_modes, vq)


def extract_parameters(sf: StandardForm) -> np.ndarray:
    """The strict upper triangle of V_Q in row-major order, length N(N-1)/2."""
    rows, cols = np.triu_indices(sf.n_modes, k=1)
    return sf.vq[rows, cols].copy()


def reconstruction_jacobian(vq: np.ndarray) -> np.ndarray:
    """Jacobian of ``diag(V_Q^{-1}) - d`` with respect to the diagonal d.

    With W = V_Q^{-1}, perturbing d_j by e moves W by -e W e_j e_j^T W, so
    the (i, j) entry is ``-(W_ij)^2 - delta_ij``.
    """
    inverse = np.linalg.inv(vq)
    return -(inverse**2) - np.eye(vq.shape[0])


def condition_residual(vq: np.ndarray) -> np.ndarray:
    """Williamson condition residual ``diag(V_Q^{-1}) - diag(V_Q)``."""
    return np.diag(np.linalg.inv(vq)) - np.diag(vq)


def reconstruct_diagonal(
    offdiag, n_modes: int, max_iter: int = tolerances.NEWTON_MAX_ITER
) -> StandardForm:
    """Complete a standard form from its off-diagonal correlations alone.

    Solves the N Williamson conditions ``(V_Q^{-1})_ii = d_i`` for the
    diagonal d by a damped Newton iteration with the analytic Jacobian of
    :func:`reconstruction_jacobian`, starting from the diagonally dominant
    point ``d_i = 1 + sum_j |v_ij|`` and halving any step that leaves the
    positive-definite cone.

    Args:
        offdiag: the N(N-1)/2 strict upper-triangle entries, row-major.
        n_modes: number of modes N.
        max_iter: Newton iteration budget.

    Raises:
        InfeasibleError: if the iteration budget is exhausted; existence
            and uniqueness of the completed diagonal are not guaranteed
            for arbitrary off-diagonal data, so no solution is claimed
            beyond the one found.
    """
    offdiag = np.asarray(offdiag, dtype=float)
    expected = n_modes * (n_modes - 1) // 2
    if offdiag.shape != (expected,):
        raise ValueError(
            f"expected {expected} off-diagonal values for {n_modes} modes, "
            f"got shape {offdiag.shape}"
        )
    coupling = np.zeros((n_modes, n_modes))
    rows, cols = np.triu_indices(n_modes, k=1)
    coupling[rows, cols] = offdiag
    coupling = coupling + coupling.T

    def assemble(d: np.ndarray) -> np.ndarray:
        return coupling + np.diag(d)

    def is_pd(matrix: np.ndarray) -> bool:
        try:
            np.linalg.cholesky(matrix)
            return True
        except np.linalg.LinAlgError:
            return False

    d = 1.0 + np.sum(np.abs(coupling), axis=1)
    residual = condition_residual(assemble(d))
    last_residual = float(np.max(np.abs(residual)))
    for iteration in range(max_iter + 1):
        if last_residual <= tolerances.newton(float(np.max(np.abs(d)))):
            vq = assemble(d)
            return StandardForm(n_modes, (vq + vq.T) / 2.0)
        if iteration == max_iter:
            break
        step = np.linalg.solve(reconstruction_jacobian(assemble(d)), residual)
        candidate = d - step
        backtrack = 0
        while not is_pd(assemble(candidate)):
            backtrack += 1
            if backtrack > tolerances.NEWTON_MAX_BACKTRACK:
                raise InfeasibleError(last_residual, iteration)
            step = step / 2.0
            candidate = d - step
        d = candidate
        residual = condition_residual(assemble(d))
        last_residual = float(np.max(np.abs(residual)))
    raise InfeasibleError(last_residual, max_iter)


def standard_form_to_cm(sf: StandardForm) -> CovarianceMatrix:
    """Assemble the full covariance matrix V_Q (+) V_Q^{-1} of a standard form."""
    return _from_blocks(sf.vq, sf.vp)


def det_identity_residual(cm: CovarianceMatrix, mode_index: int) -> float:
    """Residual of ``det sigma_i = 1 - sum_{j != i} det eps_ij``, read in place.

    The identity is the (i, i) 2x2 block of the purity condition
    ``sigma Omega sigma = Omega``, so it holds up to roundoff for every pure
    state, in the class or not, and each 2x2 block determinant is unchanged
    by local symplectics: the state is not normalized first.

    Raises:
        NotPureError: for mixed inputs.
    """
    _check_mode_index(mode_index, cm.n_modes)
    require_pure(cm)
    return float(np.sum(_block_dets(cm.data, mode_index - 1, np.arange(cm.n_modes))) - 1.0)


def harmonic_ground_state(potential: np.ndarray) -> CovarianceMatrix:
    """Ground-state CM of ``H = (sum_k p_k^2 + q^T V q) / 2``.

    The position block is V^{-1/2} and the momentum block V^{1/2}, both
    derived from one spectral decomposition, so the output is pure to
    machine precision.

    Args:
        potential: symmetric positive-definite N x N coupling matrix V, with
            entries at most ``tolerances.MAX_ENTRY`` in magnitude and its
            smallest eigenvalue above ``tolerances.POTENTIAL_RESOLUTION``
            times eps times its largest.
    """
    potential = np.asarray(potential, dtype=float)
    if potential.ndim != 2 or potential.shape[0] != potential.shape[1]:
        raise ValueError(f"potential must be square, got shape {potential.shape}")
    if not np.all(np.abs(potential) <= tolerances.MAX_ENTRY):
        raise ValueError(
            f"potential entries must be finite and at most {tolerances.MAX_ENTRY:g} in magnitude"
        )
    if not np.allclose(potential, potential.T):
        raise ValueError("potential must be symmetric")
    eigenvalues, eigenvectors = np.linalg.eigh((potential + potential.T) / 2.0)
    lowest, largest = eigenvalues[0], max(abs(eigenvalues[0]), abs(eigenvalues[-1]))
    resolution = tolerances.POTENTIAL_RESOLUTION * np.finfo(float).eps * largest
    if lowest < -resolution:
        raise ValueError(f"potential is not positive definite (min eigenvalue {lowest:.3e})")
    if lowest <= resolution:
        raise ValueError(
            f"potential is too ill-conditioned: its smallest eigenvalue {lowest:.3e} "
            f"is not resolved against its largest {largest:.3e}"
        )
    roots = np.sqrt(eigenvalues)
    return _from_blocks(
        (eigenvectors / roots) @ eigenvectors.T, (eigenvectors * roots) @ eigenvectors.T
    )


def ring_potential(n_modes: int, coupling: float) -> np.ndarray:
    """Spring-coupled ring potential: circulant with nearest-neighbor springs.

    Diagonal entries are ``1 + 2*coupling`` and nearest neighbors (with
    periodic wrap) carry ``-coupling``.  For two modes the wrap makes both
    neighbors coincide, so the off-diagonal accumulates to ``-2*coupling``.

    Args:
        n_modes: ring length, at least 2.
        coupling: spring constant, finite and nonnegative.
    """
    if n_modes < 2:
        raise ValueError(f"ring needs at least 2 modes, got {n_modes}")
    if not np.isfinite(coupling):
        raise ValueError(f"coupling must be finite, got {coupling}")
    if coupling < 0.0:
        raise ValueError(f"coupling must be nonnegative, got {coupling}")
    potential = np.diag(np.full(n_modes, 1.0 + 2.0 * coupling))
    for k in range(n_modes):
        potential[k, (k + 1) % n_modes] -= coupling
        potential[(k + 1) % n_modes, k] -= coupling
    return potential
