"""Phase-space linear algebra for N-mode Gaussian states.

Covariance matrices (CMs) are 2N x 2N real symmetric matrices over the
mode-interleaved quadrature ordering (q1, p1, ..., qN, pN), normalized so
that the vacuum CM is the identity.  Gaussian unitaries act on CMs by
congruence with symplectic matrices, i.e. matrices S with S^T Omega S =
Omega for the antisymmetric form Omega.

A CM whose q-p block is exactly zero is V_Q (+) V_P, and its purity
residual and Williamson spectrum are computed on those two N x N blocks;
every other CM is handled as the dense 2N x 2N matrix.  A ring's ground
state also keeps its two circulant blocks' first rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tolerances
from .errors import InputFormatError, NotPureError, _integer
from .jsonio import _read_header

ORDERING = "qpqp"


def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2N x 2N symplectic form, a direct sum of ((0, 1), (-1, 0)) blocks.

    Args:
        n_modes: number of modes N, at least 1.

    Returns:
        The antisymmetric matrix Omega with Omega @ Omega = -identity.
    """
    return _omega(np.eye(2 * _integer(n_modes, "n_modes", 1)))


def _omega(a: np.ndarray) -> np.ndarray:
    """``Omega @ a`` as an exact signed row swap: row 2k takes row 2k+1, row 2k+1 takes -row 2k."""
    return np.tile([1.0, -1.0], len(a) // 2)[:, None] * a[np.arange(len(a)) ^ 1]


def _check_mode_indices(n_modes: int, *indices) -> None:
    """Refuse, in order, each index that is not an integer in 1..n_modes."""
    for mode_index in indices:
        if not 1 <= _integer(mode_index, "mode index") <= n_modes:
            raise ValueError(f"mode index {mode_index} out of range for {n_modes} modes")


def _mode_entry(entries, mode_index):
    """``entries[mode_index - 1]``, one entry per mode, for a 1-based index refused as
    :func:`_check_mode_indices` refuses it; a plain ``int`` in range costs one compare."""
    if type(mode_index) is not int or not 0 < mode_index <= len(entries):
        _check_mode_indices(len(entries), mode_index)
    return entries[mode_index - 1]


def _bounded_norm(what: str, *matrices) -> float:
    """Largest absolute entry of the matrices, refused unless finite and at most ``tolerances.MAX_ENTRY``."""
    norms = [float(abs(matrix).max()) for matrix in matrices]
    norm = max(norms)  # which drops a nan that follows a number, so each norm is bounded
    if not all(value <= tolerances.MAX_ENTRY for value in norms):  # also refuses nan
        raise ValueError(
            f"{what} entries must be finite and at most {tolerances.MAX_ENTRY:g} in magnitude"
        )
    return norm


def _check_symmetric(what: str, matrix: np.ndarray) -> None:
    if not np.array_equal(matrix, matrix.T):
        raise ValueError(f"{what} must be symmetric")


def _cyclic_shifts(row: np.ndarray) -> np.ndarray:
    """Read-only strided view of the circulant matrix whose entry (i, j) is ``row[(j - i) % N]``."""
    n, step = len(row), row.itemsize  # row i starts at entry N - i of the doubled row
    shifts = np.ndarray((n, n), row.dtype, np.concatenate([row, row]), n * step, (-step, step))
    shifts.flags.writeable = False
    return shifts


def _mirror(row: np.ndarray) -> np.ndarray:
    """``row[(-k) % N]``: the first row of the transpose of the circulant of ``row``."""
    return np.concatenate((row[:1], row[:0:-1]))


def _blocks(sigma: np.ndarray) -> tuple:
    """Views of V_Q, V_P and the q-p cross block X (rows q, columns p) of a CM."""
    return sigma[0::2, 0::2], sigma[1::2, 1::2], sigma[0::2, 1::2]


def _from_blocks(vq: np.ndarray, vp: np.ndarray, circulant: bool = False) -> CovarianceMatrix:
    """The q-p block-diagonal state V_Q (+) V_P, each block symmetrized.

    With ``circulant``, ``vq`` and ``vp`` are first rows of circulants, each symmetrized as
    ``(row + _mirror(row)) / 2``, the bits of (X + X^T) / 2; unless either is diagonal, the
    state keeps them as ``_rows``, as :func:`_circulant_row` would find them.

    Only the constructor's bound check runs: symmetry and the zero q-p block
    hold by construction, so neither 4N^2 scan is repeated.
    """
    n = len(vq)
    flip = _mirror if circulant else np.transpose
    vq, vp = (vq + flip(vq)) / 2.0, (vp + flip(vp)) / 2.0
    norm = _bounded_norm("covariance matrix", vq, vp)  # the zero q-p blocks add nothing
    data = np.zeros((2 * n, 2 * n))
    data[0::2, 0::2] = _cyclic_shifts(vq) if circulant else vq
    data[1::2, 1::2] = _cyclic_shifts(vp) if circulant else vp
    data.flags.writeable = False
    cm = CovarianceMatrix.__new__(CovarianceMatrix)
    vars(cm).update(n_modes=n, data=data, _inf_norm=norm, _qp_free=True)
    if circulant and np.any(vq[1:]) and np.any(vp[1:]):
        vq.flags.writeable = vp.flags.writeable = False
        vars(cm)["_rows"] = vq, vp
    return cm


def _pair_blocks(sigma: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Stacked 4x4 reductions of sigma to the 0-based mode pairs (i[k], j[k])."""
    rows = np.stack([2 * i, 2 * i + 1, 2 * j, 2 * j + 1], axis=-1)
    return sigma[rows[:, :, None], rows[:, None, :]]


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Second moments of a zero-mean N-mode Gaussian state.

    Attributes:
        n_modes: number of modes N.
        data: 2N x 2N real symmetric matrix, interleaved ordering,
            vacuum variance 1, entries finite and at most
            ``tolerances.MAX_ENTRY`` in magnitude; read-only, as the object
            keeps its inf-norm, purity residual, 2x2 block determinants and
            their row sums, whether its q-p block is zero, a ring's first
            rows and the entropy of each det sigma_i at the tolerance scale
            of the last query (re-enabling writes leaves them stale).
    """

    n_modes: int
    data: np.ndarray

    # a ring's ground state keeps the read-only first rows of V_Q and V_P (see _from_blocks)
    _rows = None
    _entropies = (None, None)  # (scale, {det sigma_i: entropy in ebits}) of the last query

    def __post_init__(self):
        data = _dense_data(self)
        norm = _bounded_norm("covariance matrix", data)
        _check_symmetric("covariance matrix", data)
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "_inf_norm", norm)

    def inf_norm(self) -> float:
        """Largest absolute entry, measured once, at construction."""
        return self._inf_norm

    @cached_property
    def _qp_free(self) -> bool:
        """Whether the q-p block is exactly zero (-0.0 counts), so that sigma = V_Q (+) V_P."""
        return not np.any(self.data[0::2, 1::2])

    @cached_property
    def _vq_vp(self) -> tuple:
        """Strided views of V_Q and V_P, kept for the per-pair block routes."""
        return _blocks(self.data)[:2]

    @cached_property
    def _purity_residual(self) -> float:
        if self._qp_free:
            vq, vp = self._vq_vp  # a ring's circulant V_Q V_P: row 0 holds every entry
            return _block_purity_product(vq if self._rows is None else vq[:1], vp)
        return _purity_product(self.data)

    @cached_property
    def _dets(self) -> np.ndarray:
        """Read-only N x N matrix of 2x2 block determinants: entry (i, j) is det of block (i, j),
        from the four strided views of the blocks' entries."""
        d = self.data
        dets = d[0::2, 0::2] * d[1::2, 1::2] - d[0::2, 1::2] * d[1::2, 0::2]
        dets.flags.writeable = False
        return dets

    @cached_property
    def _mode_dets(self) -> tuple:
        """Each mode's det sigma_i as a float, from the block diagonals, as in ``_dets``."""
        d = self.data
        diagonal = d.diagonal()
        dets = diagonal[0::2] * diagonal[1::2] - d.diagonal(1)[0::2] * d.diagonal(-1)[0::2]
        return tuple(dets.tolist())

    @cached_property
    def _det_row_sums(self) -> tuple:
        """Each mode's sum_j det sigma_ij as a float: the bits of ``np.sum`` of its row of ``_dets``."""
        return tuple(self._dets.sum(axis=1).tolist())

    def to_dict(self) -> dict:
        """JSON-ready document: ``{"n_modes", "ordering", "data"}``."""
        return {
            "n_modes": self.n_modes,
            "ordering": ORDERING,
            "data": self.data.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CovarianceMatrix":
        """Build from a matrix-exchange document, validating the schema."""
        n_modes = _read_header(doc, "covariance", ("n_modes", "ordering", "data"), ordering=ORDERING)
        return cls(n_modes, read_matrix(doc["data"], "data", 2 * n_modes))


def _dense_data(owner) -> np.ndarray:
    """Store ``owner.n_modes`` as an ``int`` and return ``owner.data`` as a float 2N x 2N copy."""
    n_modes = _integer(owner.n_modes, "n_modes", 1)
    object.__setattr__(owner, "n_modes", n_modes)
    data = np.array(owner.data, dtype=float)
    dim = 2 * n_modes
    if data.shape != (dim, dim):
        raise ValueError(
            f"expected a {dim}x{dim} matrix for {n_modes} modes, got shape {data.shape}"
        )
    return data


def read_matrix(value, name: str, dim: int) -> np.ndarray:
    """Read a JSON array as a dim x dim float matrix with bounded entries.

    Raises:
        InputFormatError: if the value is not a numeric dim x dim array, or
            an entry is non-finite or above ``tolerances.MAX_ENTRY`` in
            magnitude.
    """
    try:
        matrix = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"{name} is not a numeric matrix: {exc}") from None
    if matrix.shape != (dim, dim):
        raise InputFormatError(f"{name} must be a {dim}x{dim} row-major array")
    try:
        _bounded_norm(name, matrix)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None
    return matrix


@dataclass(frozen=True)
class SymplecticSpectrum:
    """Williamson spectrum of a covariance matrix.

    Attributes:
        values: the N symplectic eigenvalues, sorted descending.
        rank: number of eigenvalues exceeding 1 beyond the rank tolerance
            (0 for pure states).
    """

    values: tuple
    rank: int


@dataclass(frozen=True)
class PurityResult:
    """Outcome of the purity-identity check; truthy iff the state is pure."""

    pure: bool
    residual: float

    def __bool__(self) -> bool:
        return self.pure


def vacuum_cm(n_modes: int) -> CovarianceMatrix:
    """Covariance matrix of the N-mode vacuum (the 2N x 2N identity)."""
    return CovarianceMatrix(n_modes, np.eye(2 * _integer(n_modes, "n_modes", 1)))


def symplectic_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Raw symplectic eigenvalues of a symmetric positive-definite matrix.

    With one Cholesky factor ``m = L L^T``, the real antisymmetric matrix
    ``L^T Omega L`` has eigenvalues +-i nu, so its singular values are the
    symplectic eigenvalues, each twice; the pairs are averaged to absorb
    roundoff splitting.  No clamping toward 1 is applied, so the result is
    meaningful for partially transposed matrices as well as physical CMs.
    Its relative error grows as eps * nu_max / nu_min.

    Returns:
        The N eigenvalues sorted descending.

    Raises:
        ValueError: if the matrix is not positive definite.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or not 0 < matrix.shape[0] == matrix.shape[1] or matrix.shape[0] % 2:
        raise ValueError(f"expected a 2N x 2N matrix, got shape {matrix.shape}")
    try:
        factor = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        raise ValueError(
            f"matrix is not positive definite (min eigenvalue {np.linalg.eigvalsh(matrix)[0]:.3e})"
        ) from None
    doubled = np.linalg.svd(factor.T @ _omega(factor), compute_uv=False)
    return (doubled[0::2] + doubled[1::2]) / 2.0


def _williamson_values(cm: CovarianceMatrix) -> np.ndarray:
    """Symplectic eigenvalues of a CM, sorted descending.

    For sigma = V_Q (+) V_P they are the square roots of the eigenvalues
    of V_Q V_P, i.e. the singular values of L_Q^T L_P for the Cholesky
    factors of the two blocks, each once.  Other CMs, and blocks without a
    Cholesky factor, go through :func:`symplectic_eigenvalues`, which
    names the smallest eigenvalue of a matrix that is not positive definite.
    """
    if cm._qp_free:
        vq, vp = cm._vq_vp
        try:
            factors = np.linalg.cholesky(vq).T @ np.linalg.cholesky(vp)
        except np.linalg.LinAlgError:
            pass
        else:
            return np.linalg.svd(factors, compute_uv=False)
    return symplectic_eigenvalues(cm.data)


def williamson_spectrum(cm: CovarianceMatrix) -> SymplecticSpectrum:
    """Williamson spectrum of a positive-definite covariance matrix.

    Eigenvalues within the rank tolerance below 1 are clamped up to 1;
    the rank counts eigenvalues exceeding 1 beyond the same tolerance.

    Raises:
        ValueError: if the matrix is not positive definite.
    """
    values = _williamson_values(cm)
    tol = tolerances.rank()
    clamped = np.where((values < 1.0) & (values >= 1.0 - tol), 1.0, values)
    rank = int(np.sum(clamped > 1.0 + tol))
    return SymplecticSpectrum(tuple(float(v) for v in clamped), rank)


def is_bona_fide(cm: CovarianceMatrix) -> bool:
    """Check the uncertainty condition ``sigma + i Omega >= 0``.

    Tested as all symplectic eigenvalues reaching 1 within the rank
    tolerance; positive definiteness is required first.
    """
    try:
        values = _williamson_values(cm)
    except ValueError:
        return False
    return bool(values[-1] >= 1.0 - tolerances.rank())


def _identity_residual(product: np.ndarray) -> float:
    """Inf-norm of ``product - I`` over the rows ``product`` holds; ``product`` is a fresh
    array and is changed in place."""
    product.flat[:: product.shape[1] + 1] -= 1.0  # entries (k, k), in row-major order
    return float(np.max(np.abs(product)))


def _purity_product(sigma: np.ndarray) -> float:
    """Inf-norm of -Omega sigma Omega sigma - I; -Omega sigma Omega is two exact signed swaps."""
    return _identity_residual(_omega(_omega(sigma).T) @ sigma)


def _block_purity_product(vq: np.ndarray, vp: np.ndarray) -> float:
    """Inf-norm of V_Q V_P - I over the rows of ``vq``: for sigma = V_Q (+) V_P,
    -Omega sigma Omega sigma - I is (V_P V_Q - I) (+) (V_Q V_P - I), and the two parts are
    transposes of each other."""
    return _identity_residual(vq @ vp)


def is_pure(cm: CovarianceMatrix) -> PurityResult:
    """Check the pure-state matrix identity ``-Omega sigma Omega sigma = 1``.

    Returns:
        A truthy :class:`PurityResult` carrying the residual norm; the
        verdict uses a tolerance that scales with the squared CM norm.
    """
    residual = cm._purity_residual
    return PurityResult(residual <= tolerances.purity(cm._inf_norm), residual)


def require_pure(cm: CovarianceMatrix, factor: float | None = None) -> None:
    """Raise :class:`NotPureError` unless ``cm`` passes :func:`is_pure` at tolerance scale
    ``factor``."""
    residual, tol = cm._purity_residual, tolerances.purity(cm._inf_norm, factor)
    if not residual <= tol:
        raise NotPureError(residual, tol)


def _positive_mode_det(cm: CovarianceMatrix, mode_index) -> float:
    """det sigma_i of a 1-based mode, read by :func:`_mode_entry`, refused unless positive:
    the purity identity alone passes indefinite states."""
    det = _mode_entry(cm._mode_dets, mode_index)
    if not det > 0.0:
        raise ValueError(f"mode {mode_index} has block determinant {det:.3e}, not a positive one")
    return det
