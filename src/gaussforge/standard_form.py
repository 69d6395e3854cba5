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
from .errors import InfeasibleError, NotInGenericClassError, _integer
from .jsonio import _read_header
from .symplectic import (
    CovarianceMatrix,
    _blocks,
    _bounded_norm,
    _check_symmetric,
    _cyclic_shifts,
    _from_blocks,
    _mirror,
    _mode_entry,
    _positive_mode_det,
    read_matrix,
    require_pure,
)


@dataclass(frozen=True, eq=False)
class StandardForm:
    """Pure-state standard form, held as the position-correlation matrix V_Q.

    Attributes:
        n_modes: number of modes N.
        vq: symmetric positive-definite N x N matrix of <q_i q_j>.
        vp: V_P = (W + W^T) / 2 for an inverse W of V_Q.

    The constructor checks its inputs at the boundary (``n_modes`` an
    integer, ``vq`` copied to a float N x N array, exactly symmetric and
    positive definite).  An exact circulant such as a ring's is certified
    positive definite by its real-FFT spectrum and inverted by one inverse real
    FFT (:func:`_circulant_inverse`), and its blocks are held as views of their
    first rows.  Any other V_Q, and a circulant whose spectrum does not clear
    the certificate's margin, passes a Cholesky test and is inverted by
    :func:`_inverse`: ``np.linalg.inv`` up to 32 modes, else from the Cholesky
    factor.  Builders inside the package skip the input checks: their V_Q is
    fresh, symmetric by construction and certified or Cholesky-tested, and
    they supply W themselves (by :func:`_inverse`, from a Newton iterate's
    factor, or by one inverse real FFT on a ring's rows).  Every route
    ends in :meth:`_seal`, which checks the class: entries at most
    ``tolerances.MAX_ENTRY``, then the Williamson diagonal conditions
    ``(V_Q^{-1})_ii = (V_Q)_ii`` within ``tolerances.block`` of the larger
    block norm.  The blocks are read-only, as the form keeps each mode's
    pairwise sum, a circulant's first rows and the entropy of each
    ``1 - sum_j det eps_ij`` at the tolerance scale of the last query.
    """

    n_modes: int
    vq: np.ndarray

    _rows = None  # a circulant's read-only first rows of V_Q and V_P (see _seal)
    _entropies = (None, None)  # (scale, {1 - sum_j det eps_ij: entropy in ebits}) of the last query

    def __post_init__(self):
        n = _integer(self.n_modes, "n_modes", 1)
        vq = np.array(self.vq, dtype=float)
        if vq.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got {vq.shape}")
        _check_symmetric("vq", vq)
        row = _circulant_row(vq)
        inverse_row = None if row is None else _circulant_inverse(row, np.fft.rfft(row).real)
        if inverse_row is not None:
            self._seal(n, row.copy(), inverse_row, circulant=True)  # not a view that keeps vq
            return
        factor = _cholesky(vq)
        if factor is None:
            raise ValueError("vq must be positive definite")
        self._seal(n, vq, _inverse(vq, factor))

    @classmethod
    def _with_inverse(cls, n_modes: int, vq, inverse, circulant: bool = False) -> "StandardForm":
        """Construct with only the class checks, from a fresh, exactly symmetric, positive-definite
        ``vq`` and an ``inverse`` W of it; with ``circulant``, both are first rows of circulants."""
        sf = cls.__new__(cls)
        sf._seal(n_modes, vq, inverse, circulant)
        return sf

    def _seal(self, n_modes: int, vq: np.ndarray, inverse: np.ndarray, circulant: bool = False) -> None:
        """Take ``vq`` without a copy and V_P = (W + W^T) / 2 from W = ``inverse``, both
        read-only; then refuse entries above ``tolerances.MAX_ENTRY`` and a Williamson gap.
        With ``circulant``, ``vq`` (symmetric) and W are the first rows of exact circulants,
        which the checks read; the form keeps the rows, and its blocks are cyclic-shift views."""
        if circulant:  # a row holds every entry of its circulant, and entry 0 is the diagonal
            vp = (inverse + _mirror(inverse)) / 2.0
            diagonals = vq[:1], vp[:1]
        else:
            vp = (inverse + inverse.T) / 2.0
            diagonals = vq.diagonal(), vp.diagonal()
        tol = tolerances.block(_bounded_norm("standard-form", vq, vp))
        diag_gap = float(abs(diagonals[1] - diagonals[0]).max())
        vq.flags.writeable = vp.flags.writeable = False
        if circulant:
            vars(self)["_rows"] = vq, vp
            vq, vp = _cyclic_shifts(vq), _cyclic_shifts(vp)
        object.__setattr__(self, "n_modes", n_modes)
        object.__setattr__(self, "vq", vq)
        object.__setattr__(self, "vp", vp)
        if diag_gap > tol:
            raise ValueError(
                f"Williamson diagonal conditions violated: |diag(vq^-1) - diag(vq)| "
                f"= {diag_gap:.3e} exceeds {tol:.3e}"
            )

    @cached_property
    def _pairwise_sums(self) -> tuple:
        """Each mode's ``sum_{j != i} vq_ij * vp_ij`` as a float."""
        products = self.vq * self.vp
        np.fill_diagonal(products, 0.0)
        return tuple(products.sum(axis=1).tolist())

    def to_dict(self) -> dict:
        return {"n_modes": self.n_modes, "vq": self.vq.tolist()}

    @classmethod
    def from_dict(cls, doc: dict) -> "StandardForm":
        return cls(*read_vq_document(doc))


def _cholesky(vq: np.ndarray):
    """The Cholesky factor of ``vq``, or None if it has none or is complex: balancing makes
    V_Q complex when a mode's q and p variances differ in sign, as in no positive state."""
    if np.isrealobj(vq):
        try:
            return np.linalg.cholesky(vq)
        except np.linalg.LinAlgError:
            pass
    return None


_DIRECT_INVERSE_MODES = 32  # np.linalg.inv takes V_Q and triangular blocks this small


def _factor_inverse(vq: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """V_Q^{-1} from the Cholesky factor L of V_Q, as L^{-T} L^{-1}; ``np.linalg.inv(vq)``
    up to ``_DIRECT_INVERSE_MODES``.  Raises ``LinAlgError`` if the result is not finite."""
    if len(vq) <= _DIRECT_INVERSE_MODES:
        return np.linalg.inv(vq)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, without a warning
        lower_inverse = _triangular_inverse(factor)
        inverse = lower_inverse.T @ lower_inverse
    if not np.isfinite(inverse).all():
        raise np.linalg.LinAlgError("the inverse of the Cholesky factor is not finite")
    return inverse


def _triangular_inverse(lower: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by halves, ``[[A, 0], [B, C]]^{-1} =
    [[A^{-1}, 0], [-C^{-1} B A^{-1}, C^{-1}]]`` (Du Croz and Higham, 1992).  Blocks of at most
    ``_DIRECT_INVERSE_MODES`` rows are inverted as their transpose, which LU factors with no
    row swap, so every entry above the diagonal of the result is an exact zero."""
    n = len(lower)
    if n <= _DIRECT_INVERSE_MODES:
        return np.linalg.inv(lower.T).T
    half = n // 2
    inverse = np.zeros_like(lower)
    inverse[:half, :half] = head = _triangular_inverse(lower[:half, :half])
    inverse[half:, half:] = tail = _triangular_inverse(lower[half:, half:])
    inverse[half:, :half] = -(tail @ (lower[half:, :half] @ head))
    return inverse


def _strict_upper(n_modes: int) -> np.ndarray:
    """Boolean mask of the strict upper triangle; indexing with it reads row-major order."""
    return ~np.tri(n_modes, dtype=bool)


def _circulant_row(matrix: np.ndarray):
    """Row 0 of ``matrix`` if it has at least 3 rows, is not diagonal, and each row is an exact
    cyclic shift of row 0; None otherwise.  Entry (1, 0), then row 1, reject most other matrices
    in O(1) and O(N) before the full compare.  Every 2x2 matrix with a constant diagonal is
    circulant, so two modes never qualify; nor does a diagonal matrix, which the dense routes
    keep exactly diagonal."""
    n = len(matrix)
    if n < 3:
        return None
    row = matrix[0]
    if matrix[1, 0] != row[-1] or not np.any(row[1:]):
        return None
    if not np.array_equal(matrix[1, 1:], row[:-1]) or not np.array_equal(matrix, _cyclic_shifts(row)):
        return None
    return row


def _circulant_inverse(row: np.ndarray, eigenvalues: np.ndarray, certify: bool = True):
    """The first row of the inverse of the exact symmetric circulant with first row ``row`` and
    real-FFT ``eigenvalues``, one inverse real FFT of their reciprocals; None unless it is finite
    and the least eigenvalue is positive or, with ``certify``, certifies the circulant positive
    definite by clearing ``tolerances.CERTIFIED_SPECTRUM * N^2 * ||row||_1``."""
    n = len(row)
    margin = tolerances.CERTIFIED_SPECTRUM * n * n * float(abs(row).sum()) if certify else 0.0
    if not eigenvalues.min() > margin:
        return None
    with np.errstate(all="ignore"):  # an overflow is refused below
        inverse = np.fft.irfft(1.0 / eigenvalues, n)
    return inverse if np.all(np.isfinite(inverse)) else None


def _inverse(vq: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """V_Q^{-1}: for an exact circulant with positive real-FFT eigenvalues, the circulant of one
    inverse real FFT of their reciprocals if it is finite; else :func:`_factor_inverse`."""
    row = _circulant_row(vq)
    inverse = None if row is None else _circulant_inverse(row, np.fft.rfft(row).real, certify=False)
    return _factor_inverse(vq, factor) if inverse is None else _cyclic_shifts(inverse)


def _circulant_diagonal(spectrum: np.ndarray, n_modes: int) -> float:
    """The root d of ``mean_k 1/(d + s_k) = d``, the mean over all N eigenvalues s_k of a
    symmetric circulant with zero diagonal, given its real FFT ``spectrum``.

    The left side minus d, f(d), is convex and strictly decreasing on (-min s, inf), from
    +inf; at 1 - min s every d + s_k is at least 1, so f is not positive there.  The root
    is bracketed by these two ends.  Newton's first step from the right end lands left of
    the root (f is convex), and from there climbs to it monotonically; a step that leaves
    the bracket, or is not finite, is replaced by bisection.  The loop stops once a step
    moves d by at most ``tolerances.CIRCULANT_STEP`` relative, whatever the scale of the
    coupling.
    """
    weights = np.full(len(spectrum), 2.0 / n_modes)  # k and N - k share s_k
    weights[0] = 1.0 / n_modes
    if n_modes % 2 == 0:
        weights[-1] = 1.0 / n_modes
    low = -float(spectrum.min())
    d = high = 1.0 + low
    with np.errstate(all="ignore"):  # an iterate near the lower end may overflow; bisected
        for _ in range(tolerances.NEWTON_MAX_ITER):
            reciprocals = 1.0 / (d + spectrum)
            value = float(weights @ reciprocals) - d
            if value > 0.0:
                low = d
            elif value < 0.0:
                high = d
            else:
                return d
            following = d + value / (float(weights @ (reciprocals * reciprocals)) + 1.0)
            if abs(following - d) <= tolerances.CIRCULANT_STEP * d:
                return following
            d = following if low < following < high else low + (high - low) / 2.0
    return d


def _circulant_completion(coupling: np.ndarray):
    """The standard form ``coupling + d I`` of an exactly circulant coupling, from the scalar
    condition of :func:`_circulant_diagonal`, built on first rows, with V_P from one inverse
    real FFT; None when the coupling is not circulant or the result cannot be certified (a
    spectrum that does not certify V_Q positive definite, a value that is not finite, a
    residual above ``tolerances.newton`` or a class check that fails)."""
    row = _circulant_row(coupling)
    if row is None:
        return None
    n = len(row)
    spectrum = np.fft.rfft(row).real
    d = _circulant_diagonal(spectrum, n)
    vq = row.copy()
    vq[0] = d
    inverse = _circulant_inverse(vq, d + spectrum)
    # entry 0 of the inverse row is diag(V_Q^{-1}) at every mode
    if inverse is None or not abs(inverse[0] - d) <= tolerances.newton(d):
        return None
    try:
        return StandardForm._with_inverse(n, vq, inverse, circulant=True)
    except ValueError:  # an entry above tolerances.MAX_ENTRY, or a Williamson gap
        return None


def read_vq_document(doc) -> tuple:
    """Schema-check a ``{"n_modes", "vq"}`` document; return ``(n_modes, vq)``."""
    n_modes = _read_header(doc, "standard-form", ("n_modes", "vq"))
    return n_modes, read_matrix(doc["vq"], "vq", n_modes)


def _balance(q: np.ndarray, p: np.ndarray) -> tuple:
    """Squeeze each mode by diag(t_k, 1/t_k) so that diag(V_Q) = diag(V_P), then symmetrize.

    ``t_k = (p_kk / q_kk) ** (1/4)`` scales entry (i, j) of V_Q as ``(t_i * entry) * t_j``
    and of V_P with 1/t: two single roundings, as the dense congruence makes them.
    Returns the balanced V_Q and V_P, and t.
    """
    # scalar pow: numpy's SIMD ** 0.25 differs from libm's in the last bit on some inputs
    t = np.array([ratio**0.25 for ratio in (p.diagonal() / q.diagonal()).tolist()])
    u = 1.0 / t
    q, p = t[:, None] * q * t, u[:, None] * p * u
    return (q + q.T) / 2.0, (p + p.T) / 2.0, t


def _ring_standard_form(cm: CovarianceMatrix):
    """:func:`to_standard_form` of a q-p-free state whose blocks are exact circulants, on their
    first rows: :func:`_balance`'s operations on the same numbers, with one t for every mode and
    the mirrored row for the transpose, and V_Q certified by its spectrum.  The rows are those a
    ring's ground state carries, else those :func:`_circulant_row` finds.  None, for the dense
    route to decide, if V_Q would turn complex or diagonal or its spectrum does not certify it."""
    q, p = cm._rows or cm._vq_vp
    if cm._rows is None:
        q = _circulant_row(q)
        p = None if q is None else _circulant_row(p)  # most states fail at q, in O(1)
        if p is None:
            return None
    ratio = float(p[0] / q[0])
    if not 0.0 < ratio < np.inf:
        return None
    t = ratio**0.25
    u = 1.0 / t
    q, p = (t * (q + 0.0)) * t, (u * (p + 0.0)) * u
    vq, p = (q + _mirror(q)) / 2.0, (p + _mirror(p)) / 2.0
    tol = tolerances.block(_bounded_norm("covariance matrix", vq, p))
    inverse = _circulant_inverse(vq, np.fft.rfft(vq).real) if np.any(vq[1:]) else None
    if inverse is None:
        return None
    gap = float(abs(p - inverse).max())
    if gap > tol:
        raise NotInGenericClassError(gap, tol)
    return StandardForm._with_inverse(cm.n_modes, vq, inverse, circulant=True)


def _local_normalization(cm: CovarianceMatrix) -> tuple:
    """Rotate and balance each mode so its 2x2 block becomes c_k * identity.

    The general route, for states with a q-p entry.  Works on the N x N blocks,
    with no 2N x 2N product.  A block with |qp| within ``tolerances.rotation`` is
    never rotated (exact zeros survive); only turned modes' rows, then columns,
    are mixed, and :func:`_balance` then squeezes each mode.  Each stage is
    symmetrized as (A + A^T) / 2, as the tests' dense reference symmetrizes each
    congruence S^T sigma S, so where no mode turns the bits are those of the
    dense congruences.  Returns the normalized V_Q, V_P and q-p block X.
    """
    # contiguous copies; + 0.0 turns -0 into +0, as the dense identity congruence does
    q, p, x, y = (block + 0.0 for block in (*_blocks(cm.data), cm.data[1::2, 0::2]))
    qq, pp, qp = np.diag(q), np.diag(p), np.diag(x)
    still = np.abs(qp) <= tolerances.rotation(np.abs(qq) + np.abs(pp))
    turned = np.flatnonzero(~still)
    theta = 0.5 * np.arctan2(2.0 * qp[turned], qq[turned] - pp[turned])
    c, s = np.cos(theta)[:, None], np.sin(theta)[:, None]
    for a, b in ((q, y), (x, p), (q.T, x.T), (y.T, p.T)):  # rows of turned modes, then columns
        a[turned], b[turned] = c * a[turned] + s * b[turned], c * b[turned] - s * a[turned]
    x = (x + y.T) / 2.0
    q, p, t = _balance((q + q.T) / 2.0, (p + p.T) / 2.0)
    u = 1.0 / t
    return q, p, (t[:, None] * x * u + x * u * t[:, None]) / 2.0


def to_standard_form(cm: CovarianceMatrix) -> StandardForm:
    """Reduce a pure state to its block-diagonal standard form.

    Performs per-mode Williamson normalization on the N x N blocks (O(N^2)),
    checks that the q-p block vanishes, and verifies the momentum block
    against V_Q^{-1}, inverted by :func:`_inverse` (from the Cholesky factor
    that tests V_Q) or, without a factor, by ``np.linalg.inv``.  A state whose
    q-p block is exactly zero (every state this package builds) is only
    balanced: no mode of it turns and its normalized q-p block is exactly
    zero, so the rotation stage and the cross-block check are skipped.  When
    both of its blocks are exact circulants, as a ring's are, every step runs
    on their first rows (:func:`_ring_standard_form`): V_Q's real-FFT spectrum
    certifies it positive definite with no Cholesky test, and one inverse real
    FFT inverts it, to the bits of the dense route; a spectrum inside the
    certificate's margin is left to the dense route and its Cholesky test.
    The result is built without the public constructor's boundary checks:
    V_Q is a fresh float array, symmetric by construction, and the
    positive-definiteness test runs here, since purity and the class checks
    pass the two-mode -I.

    Raises:
        NotPureError: for mixed inputs.
        NotInGenericClassError: if local normalization cannot reach the
            block-diagonal form.  The check is heuristic: it refuses states
            of the class in a generic local frame at every N >= 2 (see
            ROADMAP.md, item 2).
        ValueError: if a normalized entry exceeds ``tolerances.MAX_ENTRY``,
            or the normalized V_Q is not positive definite or its inverse not finite.
    """
    require_pure(cm)
    if cm._qp_free:
        ring = _ring_standard_form(cm)
        if ring is not None:
            return ring
        # no mode turns (its q-p diagonal is zero), so _local_normalization would mix no row and
        # return exact-zero cross terms: balancing alone gives its V_Q and V_P bit for bit.
        # + 0.0 turns -0 into +0, as the dense identity congruence does; the blocks are symmetric
        vq, p_block, _ = _balance(*(block + 0.0 for block in cm._vq_vp))
        tol = tolerances.block(_bounded_norm("covariance matrix", vq, p_block))
    else:
        vq, p_block, cross_block = _local_normalization(cm)
        tol = tolerances.block(_bounded_norm("covariance matrix", vq, p_block, cross_block))
        cross = float(abs(cross_block).max())
        if cross > tol:
            raise NotInGenericClassError(cross, tol)
    factor = _cholesky(vq)
    inverse = np.linalg.inv(vq) if factor is None else _inverse(vq, factor)
    gap = float(abs(p_block - inverse).max())
    if gap > tol:
        raise NotInGenericClassError(gap, tol)
    if factor is None:
        raise ValueError("vq must be positive definite")
    return StandardForm._with_inverse(cm.n_modes, vq, inverse)


def extract_parameters(sf: StandardForm) -> np.ndarray:
    """The strict upper triangle of V_Q in row-major order, length N(N-1)/2."""
    return sf.vq[_strict_upper(sf.n_modes)]


def _newton_system(d: np.ndarray, inverse: np.ndarray) -> tuple:
    """Condition residual at the diagonal ``d`` and its negated Jacobian W∘W + I, from W = ``inverse``."""
    negated_jacobian = inverse * inverse
    negated_jacobian.reshape(-1)[:: len(d) + 1] += 1.0
    return inverse.diagonal() - d, negated_jacobian


def reconstruct_diagonal(
    offdiag, n_modes: int, max_iter: int = tolerances.NEWTON_MAX_ITER
) -> StandardForm:
    """Complete a standard form from its off-diagonal correlations alone.

    Solves the N Williamson conditions ``(V_Q^{-1})_ii = d_i`` for the
    diagonal d.  They are the stationarity conditions of the strictly
    concave ``log det(C + diag d) - |d|^2 / 2`` (C the off-diagonal part),
    which tends to minus infinity at the edge of its positive-definite
    domain and at infinity, so the completed diagonal exists and is unique
    for every symmetric off-diagonal input.  It is found by a damped Newton
    iteration that starts at ``d_i = sqrt(1 + sum_j v_ij^2)``: the pure-state
    identity ``det sigma_i = 1 - sum_j det eps_ij`` with ``det eps_ij`` at its
    leading order ``-v_ij^2``.  That start is the first step from the
    diagonally dominant anchor ``d_i = 1 + sum_j |v_ij|``, and it is halved
    toward the anchor, as any Newton step is, while it leaves the
    positive-definite cone.  Each iterate is factored once, by that cone's
    Cholesky test, and inverted once from the factor; its residual and the
    Jacobian W∘W + I of :func:`_newton_system` are both read from that
    inverse, and the converged iterate's inverse becomes ``vp``.

    An exactly circulant coupling of at least 3 modes, such as a
    translation-invariant ring's, takes the Fourier route instead: by
    symmetry its diagonal is one number d, and its N conditions are the one
    scalar equation ``mean_k 1/(d + c_k) = d`` over the coupling's
    eigenvalues c_k, one real FFT of its first row (see
    :func:`_circulant_diagonal`).  Then the spectrum d + c_k certifies
    V_Q = C + d I positive definite, with no Cholesky test, and ``vp`` is the
    circulant of one inverse real FFT of ``1/(d + c_k)``, both built on first
    rows.  A result that cannot be certified (a spectrum inside the
    certificate's margin, a value that is not finite, a residual above
    ``tolerances.newton``) falls back to the Newton solve.  Every argument check and the anchor's overflow
    refusal run first, on both routes.

    Args:
        offdiag: the N(N-1)/2 strict upper-triangle entries, row-major, finite.
        n_modes: number of modes N, at least 1.
        max_iter: iteration budget of the Newton solve, an integer >= 0; the
            Fourier route does not draw on it.

    Raises:
        ValueError: for ``n_modes`` not an integer >= 1, ``max_iter`` not an integer >= 0, or
            off-diagonals of the wrong count or not finite.
        InfeasibleError: if the anchor overflows, a step stays outside the
            positive-definite cone after ``tolerances.NEWTON_MAX_BACKTRACK``
            halvings, an iterate or its Jacobian cannot be inverted, or the
            iteration budget is exhausted.  This is a failure of the solver,
            not of the data: it is raised for valid standard forms of
            strongly squeezed states (see the README).
    """
    n_modes = _integer(n_modes, "n_modes", 1)
    max_iter = _integer(max_iter, "max_iter", 0)
    offdiag = np.asarray(offdiag, dtype=float)
    expected = n_modes * (n_modes - 1) // 2
    if offdiag.shape != (expected,):
        raise ValueError(
            f"expected {expected} off-diagonal values for {n_modes} modes, "
            f"got shape {offdiag.shape}"
        )
    if not np.all(np.isfinite(offdiag)):
        raise ValueError("off-diagonal values must be finite")
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
            vq.reshape(-1)[:: n_modes + 1] = candidate
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
        residual, negated_jacobian = _newton_system(d, inverse)
        last_residual = float(abs(residual).max())
        if last_residual <= tolerances.newton(float(abs(d).max())):
            # the coupling with diagonal d is exactly symmetric and passed the Cholesky above
            return StandardForm._with_inverse(n_modes, vq, inverse)
        if iteration == max_iter:
            break
        try:
            step = -np.linalg.solve(negated_jacobian, residual)
        except np.linalg.LinAlgError:  # the Jacobian rounded to singular
            raise InfeasibleError(last_residual, iteration) from None
    raise InfeasibleError(last_residual, max_iter)


def standard_form_to_cm(sf: StandardForm) -> CovarianceMatrix:
    """Assemble the full covariance matrix V_Q (+) V_Q^{-1} of a standard form; a circulant
    form's from its first rows, which the state then keeps."""
    return _from_blocks(*sf._rows, circulant=True) if sf._rows else _from_blocks(sf.vq, sf.vp)


def det_identity_residual(cm: CovarianceMatrix, mode_index: int) -> float:
    """Residual of ``det sigma_i = 1 - sum_{j != i} det eps_ij``, read in place.

    The identity is the (i, i) 2x2 block of the purity condition
    ``sigma Omega sigma = Omega``, so it holds up to roundoff for every pure
    state, in the class or not, and each 2x2 block determinant is unchanged
    by local symplectics: the state is not normalized first.  The state
    keeps the row sums of its block determinants, so a call is a lookup.

    Raises, in this order:
        ValueError: if ``mode_index`` is not an integer in 1..N; bools and floats are not.
        ValueError: if ``GF_TOL_OVERRIDE`` is set but not a positive finite float.
        NotPureError: for mixed inputs.
        ValueError: if det sigma_i is not positive (the purity identity lets such states through).
    """
    row_sum = _mode_entry(cm._det_row_sums, mode_index)
    require_pure(cm)
    _positive_mode_det(cm, mode_index)
    return row_sum - 1.0


def harmonic_ground_state(potential: np.ndarray) -> CovarianceMatrix:
    """Ground-state CM of ``H = (sum_k p_k^2 + q^T V q) / 2``.

    The position block is V^{-1/2} and the momentum block V^{1/2}, both
    derived from one spectral decomposition, so the output is pure to
    machine precision.  A general V is decomposed by ``np.linalg.eigh``.  An
    exactly circulant V of at least 3 modes, such as a ring's, is decomposed
    by the Fourier transform: its eigenvalues are one real FFT of its first
    row, and the first rows of both blocks are inverse real FFTs of their
    powers -1/2 and 1/2.  Both blocks are then exactly symmetric circulants,
    whose N(N-1)/2 correlations take floor(N/2) values (``gmps.theta``).  The
    conditioning rule of ``tolerances.POTENTIAL_RESOLUTION`` and its
    refusals are the same on both routes.

    Args:
        potential: symmetric positive-definite N x N coupling matrix V, with
            entries at most ``tolerances.MAX_ENTRY`` in magnitude and its
            smallest eigenvalue above ``tolerances.POTENTIAL_RESOLUTION``
            times eps times its largest.
    """
    potential = np.asarray(potential, dtype=float)
    if potential.ndim != 2 or not 0 < potential.shape[0] == potential.shape[1]:
        raise ValueError(f"potential must be nonempty and square, got shape {potential.shape}")
    _bounded_norm("potential", potential)
    _check_symmetric("potential", potential)
    row = _circulant_row(potential)
    if row is None:
        eigenvalues, eigenvectors = np.linalg.eigh(potential)
    else:  # half of the spectrum: the eigenvalues at k and N - k coincide
        eigenvalues = np.fft.rfft(row).real
    lowest = eigenvalues.min()
    largest = max(abs(lowest), abs(eigenvalues.max()))
    resolution = tolerances.POTENTIAL_RESOLUTION * np.finfo(float).eps * largest
    if lowest < -resolution:
        raise ValueError(f"potential is not positive definite (min eigenvalue {lowest:.3e})")
    if lowest <= resolution:
        raise ValueError(
            f"potential is too ill-conditioned: its smallest eigenvalue {lowest:.3e} "
            f"is not resolved against its largest {largest:.3e}"
        )
    roots = np.sqrt(eigenvalues)
    if row is not None:  # _from_blocks makes each circulant exactly symmetric, and keeps the rows
        n = len(row)
        return _from_blocks(np.fft.irfft(1.0 / roots, n), np.fft.irfft(roots, n), circulant=True)
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
    if _integer(n_modes, "n_modes") < 2:
        raise ValueError(f"ring needs at least 2 modes, got {n_modes}")
    if not np.isfinite(coupling):
        raise ValueError(f"coupling must be finite, got {coupling}")
    if coupling < 0.0:
        raise ValueError(f"coupling must be nonnegative, got {coupling}")
    here = np.arange(n_modes)
    after = (here + 1) % n_modes
    potential = np.diag(np.full(n_modes, 1.0 + 2.0 * coupling))
    # unbuffered, so the two N = 2 wraps onto one entry both land
    np.subtract.at(potential, (np.r_[here, after], np.r_[after, here]), coupling)
    return potential
