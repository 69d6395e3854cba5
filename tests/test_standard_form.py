"""Tests for standard-form reduction, reconstruction, and harmonic ground states."""

import warnings

import numpy as np
import pytest

from gaussforge import standard_form, symplectic, tolerances
from gaussforge.engineering import Recipe, engineer_state, random_recipe
from gaussforge.entanglement import (
    entropy_one_vs_rest,
    entropy_via_pairwise,
    full_report,
    log_negativity_pair,
)
from gaussforge.gmps import theta
from gaussforge.errors import (
    InfeasibleError,
    InputFormatError,
    NotInGenericClassError,
    NotPureError,
)
from gaussforge.standard_form import (
    StandardForm,
    det_identity_residual,
    extract_parameters,
    harmonic_ground_state,
    reconstruct_diagonal,
    ring_potential,
    standard_form_to_cm,
    to_standard_form,
)
from gaussforge.symplectic import CovarianceMatrix, is_pure, symplectic_eigenvalues, vacuum_cm

from conftest import (
    block_route_states,
    count_fills,
    forbid,
    random_local_symplectic,
    random_spd,
    record_calls,
)
from oracles import (
    SymplecticMatrix,
    apply_symplectic,
    block_dets,
    condition_residual,
    mode_block,
    reconstruction_jacobian,
    reduced_cm,
    reference_reconstruct,
)

def graded_ring(n: int, coupling: float) -> np.ndarray:
    """A ring potential with on-site terms graded from 0 to 0.3: not circulant, so its
    ground state and reconstruction take the dense routes, as every generic state does."""
    return ring_potential(n, coupling) + np.diag(np.linspace(0.0, 0.3, n))


TMS = Recipe(2, np.sqrt(2.0))  # two-mode squeezed state with a = 1.25, c = 0.75


def cz_state() -> CovarianceMatrix:
    """A phase-space CZ on the vacuum: pure, with q-p cross terms no local scaling removes."""
    mixer = np.eye(4)
    mixer[1, 2] = mixer[3, 0] = 0.7
    return apply_symplectic(vacuum_cm(2), SymplecticMatrix(2, mixer))


def rotated_engineered_state() -> CovarianceMatrix:
    """``random_recipe(4, seed=3)`` with mode 1 rotated by 0.7: in the class, but
    the per-mode normalization cannot see the rotation."""
    rotation = np.eye(8)
    c, s = np.cos(0.7), np.sin(0.7)
    rotation[0:2, 0:2] = [[c, -s], [s, c]]
    return apply_symplectic(engineer_state(random_recipe(4, seed=3)), SymplecticMatrix(4, rotation))


def per_mode_normalization(cm: CovarianceMatrix) -> CovarianceMatrix:
    """The former per-mode loop, kept as the bit-level reference for the one-pass step."""
    n = cm.n_modes
    rotation = np.eye(2 * n)
    for k in range(n):
        block = cm.data[2 * k : 2 * k + 2, 2 * k : 2 * k + 2]
        theta = 0.0
        if abs(block[0, 1]) > tolerances.rotation(abs(block[0, 0]) + abs(block[1, 1])):
            theta = 0.5 * np.arctan2(2.0 * block[0, 1], block[0, 0] - block[1, 1])
        c, s = np.cos(theta), np.sin(theta)
        rotation[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = np.array([[c, -s], [s, c]])
    rotated = apply_symplectic(cm, SymplecticMatrix(n, rotation))
    balance = np.eye(2 * n)
    for k in range(n):
        block = rotated.data[2 * k : 2 * k + 2, 2 * k : 2 * k + 2]
        t = (block[1, 1] / block[0, 0]) ** 0.25
        balance[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = np.diag([t, 1.0 / t])
    return apply_symplectic(rotated, SymplecticMatrix(n, balance))


def normalized_row_dots(cm: CovarianceMatrix) -> np.ndarray:
    """Reference det identity by the former route, for every mode at once.

    Normalize each mode locally and take ``sum_j vq_ij vp_ij - 1`` as the dot
    product of row i of the normalized V_Q with row i of the normalized V_P.
    Only meaningful for states in the class.
    """
    vq, vp, cross = standard_form._local_normalization(cm)
    assert np.max(np.abs(cross)) <= 1e-8 * (1.0 + max(np.max(np.abs(b)) for b in (vq, vp, cross)))
    return np.einsum("ij,ij->i", vq, vp) - 1.0


class TestToStandardForm:
    def test_two_mode_squeezed(self):
        sf = to_standard_form(engineer_state(TMS))
        np.testing.assert_allclose(sf.vq, [[1.25, 0.75], [0.75, 1.25]], atol=1e-14)
        np.testing.assert_allclose(sf.vp, [[1.25, -0.75], [-0.75, 1.25]], atol=1e-13)

    def test_vacuum(self):
        sf = to_standard_form(vacuum_cm(3))
        np.testing.assert_allclose(sf.vq, np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_engineered_states_succeed(self, n):
        cm = engineer_state(random_recipe(n, seed=n * 7 + 3))
        sf = to_standard_form(cm)
        gap = np.max(np.abs(sf.vp - np.linalg.inv(sf.vq)))
        assert gap <= 1e-8
        diag_gap = np.max(np.abs(np.diag(sf.vp) - np.diag(sf.vq)))
        assert diag_gap <= 1e-8

    def test_strongly_squeezed_state_meets_the_scaled_diagonal_tolerance(self):
        """The Williamson diagonal gap grows with the norm, as the class check's residuals do."""
        sf = to_standard_form(engineer_state(random_recipe(3, 3, s_max=100.0)))
        diag_gap = np.max(np.abs(np.diag(sf.vp) - np.diag(sf.vq)))
        norm = max(np.max(np.abs(sf.vq)), np.max(np.abs(sf.vp)))
        assert 1e-8 < diag_gap <= tolerances.block(norm)

    def test_rejects_mixed_state(self):
        with pytest.raises(NotPureError):
            to_standard_form(CovarianceMatrix(1, np.diag([2.0, 2.0])))

    def test_rejects_cross_qp_correlations(self):
        """A phase-space CZ creates q-p cross terms no local scaling removes."""
        state = cz_state()
        assert is_pure(state)
        with pytest.raises(NotInGenericClassError, match="local unitaries"):
            to_standard_form(state)

    def test_normalizes_local_squeeze_rotations(self):
        """Per-mode squeeze-rotation combinations leave visible tilts that the
        local Williamson step undoes; the recovered diagonal is LU-invariant.
        Local squeezes are kept > 1 so every mode lands on the same rotation
        branch (larger variance on q), which the closed-form angle assumes."""
        cm = engineer_state(random_recipe(3, 88))
        local = np.eye(6)
        for k, (theta, d) in enumerate([(0.3, 1.4), (-1.1, 1.3), (2.2, 1.9)]):
            c, s = np.cos(theta), np.sin(theta)
            block = np.diag([d, 1.0 / d]) @ np.array([[c, -s], [s, c]])
            local[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = block
        moved = apply_symplectic(cm, SymplecticMatrix(3, local))
        sf_direct = to_standard_form(cm)
        sf_moved = to_standard_form(moved)
        np.testing.assert_allclose(np.diag(sf_moved.vq), np.diag(sf_direct.vq), atol=1e-10)

    def test_outer_rotation_on_degenerate_blocks_is_undetectable(self):
        """Once blocks are proportional to the identity, an extra local rotation
        hides from the per-mode normalization but still tilts the cross blocks,
        so the heuristic class test reports a failure (with its caveat)."""
        cm = engineer_state(random_recipe(3, 88))
        rotation = np.eye(6)
        c, s = np.cos(0.4), np.sin(0.4)
        rotation[0:2, 0:2] = [[c, -s], [s, c]]
        rotated = apply_symplectic(cm, SymplecticMatrix(3, rotation))
        with pytest.raises(NotInGenericClassError, match="local unitaries"):
            to_standard_form(rotated)

    @pytest.mark.xfail(strict=True, raises=NotInGenericClassError)
    def test_exact_local_unitary_normalisation_of_two_modes(self):
        """ROADMAP.md item 2: every generic local frame is refused today, already at two modes.

        The comparison is modulo the residual gauge (a sign per mode and the
        V_Q <-> V_P swap), which in two modes only flips the off-diagonal's sign.
        """
        cm = engineer_state(random_recipe(2, 0))
        moved = apply_symplectic(cm, random_local_symplectic(2, np.random.default_rng(0)))
        np.testing.assert_allclose(
            np.abs(to_standard_form(moved).vq), np.abs(to_standard_form(cm).vq), atol=1e-8
        )

    @pytest.mark.xfail(strict=True, raises=NotInGenericClassError)
    def test_strongly_squeezed_q_p_free_state(self):
        """ROADMAP.md item 15: an exactly q-p-free pure state squeezed to 1e3 is refused today
        (gap 4.5e-2 against a tolerance of 4.7e-4), though balancing alone normalises it.

        Its standard form keeps each mode's entropy, as local unitaries do.
        """
        cm = engineer_state(random_recipe(2, 3, 1e3))
        rebuilt = standard_form_to_cm(to_standard_form(cm))
        for k in (1, 2):
            assert entropy_one_vs_rest(rebuilt, k) == pytest.approx(entropy_one_vs_rest(cm, k))

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_round_trip_preserves_reduction_spectra(self, n):
        """cm -> sf -> cm agrees with the original up to local symplectics."""
        cm = engineer_state(random_recipe(n, seed=100 + n))
        rebuilt = standard_form_to_cm(to_standard_form(cm))
        for k in range(1, n + 1):
            before = symplectic_eigenvalues(reduced_cm(cm, [k]).data)
            after = symplectic_eigenvalues(reduced_cm(rebuilt, [k]).data)
            np.testing.assert_allclose(after, before, atol=1e-7)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                before = symplectic_eigenvalues(reduced_cm(cm, [i, j]).data)
                after = symplectic_eigenvalues(reduced_cm(rebuilt, [i, j]).data)
                np.testing.assert_allclose(after, before, atol=1e-7)


class TestLocalNormalization:
    """The block-space per-mode step keeps the bits of the former dense per-mode loop."""

    @staticmethod
    def assert_matches_per_mode_loop(cm):
        blocks = standard_form._local_normalization(cm)
        dense = symplectic._blocks(per_mode_normalization(cm).data)
        assert all(np.array_equal(block, ref) for block, ref in zip(blocks, dense))

    def test_engineered_states(self):
        """Engineered blocks have qp = 0 and qq - pp of a few ulp either way, so
        arctan2 alone would turn some modes by pi/2; the never-rotate rule keeps them."""
        swapped = 0
        for n in range(2, 11):
            for idx in range(0, 100, 10):
                cm = engineer_state(random_recipe(n, seed=1000 * n + idx))
                qq, pp, qp = (np.diag(block) for block in symplectic._blocks(cm.data))
                swapped += int(np.sum((qq < pp) & (qp == 0.0)))
                self.assert_matches_per_mode_loop(cm)
        assert swapped > 0

    @pytest.mark.parametrize("n", [3, 5, 9, 31, 64])
    @pytest.mark.parametrize("coupling", [0.1, 2.0, 1e3, 1e6])
    def test_rings(self, n, coupling):
        self.assert_matches_per_mode_loop(harmonic_ground_state(ring_potential(n, coupling)))

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 10, 20])
    def test_random_local_frames(self, n):
        """Frames tilt every block, so every mode takes the rotating branch.  The dense
        loop's BLAS sums in an order of its own, so the blocks agree to a few ulp of the
        largest entry, and the class verdict is the same."""
        eps = np.finfo(float).eps
        for seed in range(5):
            cm = engineer_state(random_recipe(n, seed))
            moved = apply_symplectic(cm, random_local_symplectic(n, np.random.default_rng(seed)))
            dense = per_mode_normalization(moved)
            blocks = standard_form._local_normalization(moved)
            for block, ref in zip(blocks, symplectic._blocks(dense.data)):
                assert np.max(np.abs(block - ref)) <= 16 * eps * dense.inf_norm()
            q_block, p_block, cross_block = symplectic._blocks(dense.data)
            tol = tolerances.block(dense.inf_norm())
            gap = np.max(np.abs(p_block - np.linalg.inv(q_block)))
            refused = np.max(np.abs(cross_block)) > tol or gap > tol
            try:
                to_standard_form(moved)
            except NotInGenericClassError:
                assert refused
            else:
                assert not refused

    @pytest.mark.parametrize(
        "make, fourier",
        [
            (lambda: harmonic_ground_state(ring_potential(101, 0.5)), True),
            (lambda: harmonic_ground_state(ring_potential(160, 2.0)), True),
            (lambda: engineer_state(random_recipe(48, seed=48)), False),
            (lambda: engineer_state(random_recipe(80, seed=80)), False),
            (
                lambda: harmonic_ground_state(
                    ring_potential(64, 0.5) + np.diag(np.linspace(0.0, 3.0, 64))
                ),
                False,
            ),
            (lambda: vacuum_cm(3), False),
            (lambda: CovarianceMatrix(3, np.where(np.eye(6) == 1.0, 1.0, -0.0)), False),
            (lambda: harmonic_ground_state(ring_potential(9, 0.0)), False),
            (lambda: harmonic_ground_state(np.diag([1.0, 4.0, 0.25, 9.0])), False),
        ],
        ids=[
            "ring-101",
            "ring-160",
            "engineered-48",
            "engineered-80",
            "disordered-64",
            "vacuum-3",
            "vacuum-3-negative-zeros",
            "ring-uncoupled",
            "product",
        ],
    )
    def test_standard_form_bits_at_lattice_sizes(self, make, fourier):
        """vq, vp and the normalized momentum block byte for byte, signed zeros included,
        and vp as the public constructor's.  vp is the inverse from V_Q's Cholesky factor,
        or, for a coupled ring, whose balanced V_Q is an exact circulant, the circulant of
        one inverse real FFT of the reciprocal spectrum, within 1e-13 of the factor's."""
        cm = make()
        n = cm.n_modes
        q_block, p_block, _ = symplectic._blocks(per_mode_normalization(cm).data)
        vq = (q_block + q_block.T) / 2.0
        inverse = standard_form._factor_inverse(vq, np.linalg.cholesky(vq))
        if fourier:
            row = np.fft.irfft(1.0 / np.fft.rfft(vq[0]).real, n)
            fft_inverse = np.array([np.roll(row, i) for i in range(n)])
            scale = np.max(np.abs(inverse))
            assert np.max(np.abs(fft_inverse - inverse)) <= 1e-13 * scale
            inverse = fft_inverse
        sf = to_standard_form(cm)
        assert sf.vq.tobytes() == vq.tobytes()
        assert sf.vp.tobytes() == ((inverse + inverse.T) / 2.0).tobytes()
        assert sf.vp.tobytes() == StandardForm(n, sf.vq).vp.tobytes()
        normalized_p = standard_form._local_normalization(cm)[1]
        assert normalized_p.tobytes() == ((p_block + p_block.T) / 2.0).tobytes()

    @pytest.mark.parametrize("n", [2, 7, 16])
    def test_block_views_only_and_no_dense_congruence(self, n, monkeypatch):
        """All modes are read from the block diagonals, not through the 2x2 block
        determinants or pair gathers, and every matrix factored or inverted is N x N,
        not 2N x 2N."""
        forbid(monkeypatch, symplectic, "_pair_blocks", "_purity_product")
        det_fills = count_fills(monkeypatch, CovarianceMatrix, "_dets")
        shapes = []
        for name in ("cholesky", "inv"):
            original = getattr(np.linalg, name)

            def recorded(matrix, *args, _original=original, **kwargs):
                shapes.append(np.shape(matrix))
                return _original(matrix, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        cm = engineer_state(random_recipe(n, seed=n))
        to_standard_form(cm)
        assert shapes and set(shapes) == {(n, n)}
        assert det_fills == []


class TestOneInverse:
    """V_Q is inverted once per standard form: the inverse the class check or the
    Newton solve has just computed becomes vp, with the constructor's bits."""

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_to_standard_form_inverts_once(self, n, monkeypatch):
        cm = engineer_state(random_recipe(n, seed=n))
        calls = record_calls(monkeypatch, np.linalg, "inv")
        sf = to_standard_form(cm)
        sf.vp  # read inside the count, so a lazily computed inverse would show
        assert [matrix.shape for matrix in calls] == [(n, n)]
        monkeypatch.undo()
        np.testing.assert_array_equal(sf.vp, StandardForm(n, sf.vq).vp)

    @pytest.mark.parametrize("n, coupling", [(5, 0.1), (31, 2.0)])
    def test_ring_vp_has_the_constructors_bits(self, n, coupling):
        sf = to_standard_form(harmonic_ground_state(ring_potential(n, coupling)))
        np.testing.assert_array_equal(sf.vp, StandardForm(n, sf.vq).vp)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_reconstructed_vp_has_the_constructors_bits(self, n):
        sf = to_standard_form(engineer_state(random_recipe(n, seed=40 + n)))
        rebuilt = reconstruct_diagonal(extract_parameters(sf), n)
        np.testing.assert_array_equal(rebuilt.vp, StandardForm(n, rebuilt.vq).vp)

    def test_cached_arrays_are_read_only(self):
        sf = to_standard_form(engineer_state(random_recipe(4, seed=2)))
        for array in (sf.vq, sf.vp):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        assert type(sf._pairwise_sums) is tuple  # immutable, one float per mode
        assert all(type(value) is float for value in sf._pairwise_sums)


class TestQpFreeRoute:
    """States with an exactly zero q-p block are balanced without the rotation stage,
    with the bits of the general route, and built into a standard form with one Cholesky,
    or none for a ring, whose spectrum certifies it."""

    def test_same_bits_as_rotation_then_balance(self, monkeypatch):
        """The V_Q and V_P that to_standard_form balances, as its class bound reads them, are the
        general route's, bit for bit; a ring's are read there as the first rows of circulants."""
        states = block_route_states()
        general = [standard_form._local_normalization(cm) for cm in states]
        balanced = []
        original = standard_form._bounded_norm

        def recorded(what, *blocks):
            balanced.append(blocks)
            return original(what, *blocks)

        monkeypatch.setattr(standard_form, "_bounded_norm", recorded)
        forbid(monkeypatch, standard_form, "_local_normalization")
        rings = 0
        for cm, (general_q, general_p, cross) in zip(states, general):
            to_standard_form(cm)
            vq, vp = balanced[0]  # the balanced blocks, before the seal's bound
            balanced.clear()
            if vq.ndim == 1:
                rings += 1
                vq, vp = standard_form._cyclic_shifts(vq), standard_form._cyclic_shifts(vp)
            assert vq.tobytes() == general_q.tobytes()
            assert vp.tobytes() == general_p.tobytes()
            assert not np.any(cross) and not np.any(np.signbit(cross))
        assert rings == 12  # every ring of block_route_states, and nothing else

    def test_negative_zero_qp_block_takes_the_free_route(self, monkeypatch):
        cm = CovarianceMatrix(3, np.where(np.eye(6) == 1.0, 1.0, -0.0))
        forbid(monkeypatch, standard_form, "_local_normalization")
        sf = to_standard_form(cm)
        assert sf.vq.tobytes() == np.eye(3).tobytes()  # +0.0 off the diagonal, as the general route

    def test_one_qp_entry_takes_the_general_route(self, monkeypatch):
        data = np.eye(4)
        data[0, 3] = data[3, 0] = 1e-300
        calls = record_calls(monkeypatch, standard_form, "_local_normalization")
        sf = to_standard_form(CovarianceMatrix(2, data))
        assert len(calls) == 1
        assert sf.vq.tobytes() == np.eye(2).tobytes()

    @pytest.mark.parametrize(
        "make, choleskys",
        [
            (lambda: engineer_state(random_recipe(2, seed=2)), 1),
            (lambda: engineer_state(random_recipe(16, seed=16, s_max=30.0)), 1),
            (lambda: harmonic_ground_state(ring_potential(31, 0.5)), 0),
        ],
        ids=["engineered-2", "engineered-16", "ring-31"],
    )
    def test_no_rotation_and_one_cholesky(self, make, choleskys, monkeypatch):
        cm = make()
        forbid(monkeypatch, standard_form, "_local_normalization")
        forbid(monkeypatch, np, "arctan2")
        calls = record_calls(monkeypatch, np.linalg, "cholesky")
        sf = to_standard_form(cm)
        assert len(calls) == choleskys and all(call is sf.vq for call in calls)

    def test_two_mode_minus_identity_is_refused_by_the_cholesky(self):
        """-I passes purity and the class checks; the Cholesky is its only refusal."""
        with pytest.raises(ValueError, match=r"^vq must be positive definite$"):
            to_standard_form(CovarianceMatrix(2, -np.eye(4)))

    def test_indefinite_40_mode_states_are_refused_after_the_class_check(self):
        """Above 32 modes a V_Q without a factor is still inverted for the class check and
        refused after it: a real indefinite V_Q whose diagonals and its inverse's stay
        positive, and one that balancing turns complex."""
        n = 40
        ones = np.ones(n) / np.sqrt(n)
        real = np.eye(n) - 6.0 * np.outer(ones, ones)  # eigenvalues -5 and 1
        turned = np.eye(n)
        turned[:2, :2] = [[1.0, 2.0], [2.0, 1.0]]
        for vq in (real, turned):
            state = symplectic._from_blocks(vq, np.linalg.inv(vq))
            assert is_pure(state)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=r"^vq must be positive definite$"):
                    to_standard_form(state)

    def test_indefinite_pure_state_is_refused_without_complex_values(self):
        """Its modes' q and p variances differ in sign, so balancing turns V_Q complex;
        that V_Q is refused as not positive definite, with no cast to real and no warning."""
        vq = np.array([[1.0, 2.0], [2.0, 1.0]])
        state = symplectic._from_blocks(vq, np.linalg.inv(vq))
        assert is_pure(state)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^vq must be positive definite$"):
                to_standard_form(state)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: to_standard_form(harmonic_ground_state(graded_ring(31, 0.5))),
            lambda: to_standard_form(harmonic_ground_state(graded_ring(64, 2.0))),
            lambda: to_standard_form(engineer_state(random_recipe(8, seed=1, s_max=15.0))),
        ],
        ids=["ring-31", "ring-64", "engineered-8-squeezed"],
    )
    def test_reconstruction_factors_each_candidate_once(self, make, monkeypatch):
        """One Cholesky per candidate the Newton loop tries, and none in the constructor:
        every candidate that has a factor is inverted once, from that factor, and no
        other matrix is factored.  The rings are graded: an exact ring takes the circulant
        completion, which factors its one candidate and inverts none."""
        sf = make()
        factored, refused, inverted = [], [], []
        cholesky, factor_inverse = np.linalg.cholesky, standard_form._factor_inverse

        def recorded(matrix):
            try:
                factor = cholesky(matrix)
            except np.linalg.LinAlgError:
                refused.append(matrix)
                raise
            factored.append((matrix, factor))
            return factor

        def counted(vq, factor):
            inverted.append((vq, factor))
            return factor_inverse(vq, factor)

        monkeypatch.setattr(np.linalg, "cholesky", recorded)
        monkeypatch.setattr(standard_form, "_factor_inverse", counted)
        rebuilt = reconstruct_diagonal(extract_parameters(sf), sf.n_modes)
        assert len(factored) == len(inverted)
        assert all(a is c and b is d for (a, b), (c, d) in zip(factored, inverted))
        assert factored[-1][0] is rebuilt.vq


class TestFactorInverse:
    """V_Q^{-1} from V_Q's Cholesky factor: np.linalg.inv's bits up to 32 modes, and
    above them L^{-T} L^{-1} with L^{-1} inverted by halves."""

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 65, 101, 257])
    def test_triangular_inverse(self, n, rng):
        """Cholesky factors of random SPD matrices, rows scaled up to 10x so that entries below
        the diagonal exceed it (an LU of L would swap rows): exact zeros above the diagonal,
        and |L L^-1 - I| within n eps cond(L)."""
        lower = np.logspace(0.0, 1.0, n)[:, None] * np.linalg.cholesky(random_spd(n, rng))
        inverse = standard_form._triangular_inverse(lower)
        assert not np.any(np.triu(inverse, 1))
        bound = n * np.finfo(float).eps * np.linalg.cond(lower, 1)
        assert np.max(np.abs(lower @ inverse - np.eye(n))) <= bound

    @pytest.mark.parametrize("n", [2, 16, 31, 32])
    def test_direct_inverse_bits_up_to_32_modes(self, n, rng):
        for vq in (random_spd(n, rng), to_standard_form(engineer_state(random_recipe(n, n))).vq):
            inverse = standard_form._factor_inverse(vq, np.linalg.cholesky(vq))
            assert inverse.tobytes() == np.linalg.inv(vq).tobytes()

    @pytest.mark.parametrize("n", [33, 64, 101, 160, 400])
    @pytest.mark.parametrize("coupling", [0.1, 0.5, 2.0, 1e3])
    def test_rings_close_to_direct_inverse(self, n, coupling):
        vq = to_standard_form(harmonic_ground_state(ring_potential(n, coupling))).vq
        direct = np.linalg.inv(vq)
        inverse = standard_form._factor_inverse(vq, np.linalg.cholesky(vq))
        assert np.max(np.abs(inverse - direct)) <= 1e-13 * np.max(np.abs(direct))

    @pytest.mark.parametrize("n", [48, 80])
    @pytest.mark.parametrize("s_max", [30.0, 100.0])
    def test_squeezed_momentum_block_no_less_accurate(self, n, s_max):
        """|V_Q V_P - I| of the symmetrized V_P is no larger than from np.linalg.inv."""
        vq = to_standard_form(engineer_state(random_recipe(n, n, s_max=s_max))).vq
        direct = StandardForm._with_inverse(n, vq, np.linalg.inv(vq)).vp
        inverse = StandardForm(n, vq).vp  # from the Cholesky factor
        identity = np.eye(n)
        assert np.max(np.abs(vq @ inverse - identity)) <= np.max(np.abs(vq @ direct - identity))

    def test_non_finite_inverse_is_a_lin_alg_error(self):
        """As np.linalg.inv refuses a singular matrix, and without a floating-point warning."""
        with pytest.raises(np.linalg.LinAlgError, match="not finite"):
            standard_form._factor_inverse(np.eye(40), np.diag(np.full(40, 1e-200)))

    def test_candidate_with_non_finite_inverse_is_infeasible(self, monkeypatch):
        """A candidate that passes Cholesky but whose factor inverse overflows ends the
        solve with the residual of the iterate before it, as a singular inverse does."""
        n = 40
        params = extract_parameters(to_standard_form(harmonic_ground_state(graded_ring(n, 0.5))))
        factored = []
        cholesky = np.linalg.cholesky

        def shrunk_after_the_first(matrix):
            factor = cholesky(matrix)
            factored.append(matrix)
            return factor if len(factored) == 1 else factor * 1e-300

        monkeypatch.setattr(np.linalg, "cholesky", shrunk_after_the_first)
        with pytest.raises(InfeasibleError) as info:
            reconstruct_diagonal(params, n)
        monkeypatch.undo()
        first = factored[0]
        inverse = standard_form._factor_inverse(first, np.linalg.cholesky(first))
        assert len(factored) == 2 and info.value.iterations == 1
        assert info.value.residual == float(np.max(np.abs(np.diag(inverse) - np.diag(first))))

    def test_squeezed_40_modes(self):
        """A V_Q of condition ~5e7 builds with the constructor's vp bytes, and its
        reconstruction is refused by name, as it is with np.linalg.inv's inverses."""
        sf = to_standard_form(engineer_state(random_recipe(40, 0, s_max=100.0)))
        assert np.linalg.cond(sf.vq) > 1e7
        assert sf.vp.tobytes() == StandardForm(40, sf.vq).vp.tobytes()
        assert np.max(np.abs(sf.vq @ sf.vp - np.eye(40))) <= 1e-8
        with pytest.raises(InfeasibleError, match="did not converge"):
            reconstruct_diagonal(extract_parameters(sf), 40)


class TestExtractParameters:
    def test_two_mode_squeezed(self):
        sf = to_standard_form(engineer_state(TMS))
        np.testing.assert_allclose(extract_parameters(sf), [0.75], atol=1e-14)

    def test_vacuum_all_zero(self):
        np.testing.assert_array_equal(extract_parameters(to_standard_form(vacuum_cm(4))), np.zeros(6))

    def test_four_modes_give_six_values(self):
        sf = to_standard_form(engineer_state(random_recipe(4, 44)))
        assert extract_parameters(sf).shape == (6,)

    def test_row_major_upper_triangle(self):
        vq = np.array([[2.0, 0.1, 0.2], [0.1, 2.0, 0.3], [0.2, 0.3, 2.0]])
        # bypass the Williamson check: build the expected order directly
        rows, cols = np.triu_indices(3, k=1)
        np.testing.assert_array_equal(vq[rows, cols], [0.1, 0.2, 0.3])


class TestReconstructDiagonal:
    def test_two_mode_closed_form(self):
        """For one pair the conditions collapse to d = sqrt(1 + c^2)."""
        sf = reconstruct_diagonal([0.75], 2)
        np.testing.assert_allclose(np.diag(sf.vq), [1.25, 1.25], atol=1e-12)
        for c in [0.1, 0.9, 2.5]:
            sf = reconstruct_diagonal([c], 2)
            np.testing.assert_allclose(
                np.diag(sf.vq), np.sqrt(1.0 + c * c) * np.ones(2), atol=1e-10
            )

    def test_zero_offdiagonals_give_vacuum(self):
        for n in (2, 3, 6):
            sf = reconstruct_diagonal(np.zeros(n * (n - 1) // 2), n)
            np.testing.assert_allclose(sf.vq, np.eye(n), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_round_trip_from_engineered_states(self, n):
        for seed in range(10):
            cm = engineer_state(random_recipe(n, seed=1000 * n + seed))
            sf = to_standard_form(cm)
            rebuilt = reconstruct_diagonal(extract_parameters(sf), n)
            np.testing.assert_allclose(np.diag(rebuilt.vq), np.diag(sf.vq), atol=1e-6)

    @pytest.mark.xfail(strict=True, raises=InfeasibleError)
    def test_round_trip_of_a_squeezed_sixteen_mode_state(self):
        """ROADMAP.md item 3: the Newton solve exhausts its budget on this ladder state today."""
        sf = to_standard_form(engineer_state(random_recipe(16, 0, 30.0)))
        rebuilt = reconstruct_diagonal(extract_parameters(sf), 16)
        np.testing.assert_allclose(np.diag(rebuilt.vq), np.diag(sf.vq), rtol=1e-6)

    def test_jacobian_matches_finite_differences(self):
        cm = engineer_state(random_recipe(5, 99))
        vq = to_standard_form(cm).vq.copy()
        analytic = reconstruction_jacobian(vq)
        h = 1e-6
        numeric = np.zeros_like(analytic)
        for j in range(5):
            plus, minus = vq.copy(), vq.copy()
            plus[j, j] += h
            minus[j, j] -= h
            numeric[:, j] = (condition_residual(plus) - condition_residual(minus)) / (2 * h)
        assert np.max(np.abs(analytic - numeric)) <= 1e-5 * np.max(np.abs(analytic))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="expected 3"):
            reconstruct_diagonal([0.1, 0.2], 3)

    def test_budget_exhaustion_is_infeasible(self):
        with pytest.raises(InfeasibleError, match="did not converge"):
            reconstruct_diagonal([0.9, 0.8, 0.7], 3, max_iter=1)

    @pytest.mark.parametrize(
        "offdiag, n_modes, error, match",
        [
            ([], 0, ValueError, "n_modes must be >= 1, got 0"),
            ([0.1], -1, ValueError, "n_modes must be >= 1, got -1"),
            ([np.nan], 2, ValueError, "must be finite"),
            ([np.inf], 2, ValueError, "must be finite"),
            ([0.1, -np.inf, 0.2], 3, ValueError, "must be finite"),
            # the anchor 1 + |v| and the estimate sqrt(1 + v^2) both round to |v|: no start
            ([1e200], 2, InfeasibleError, "after 0 iterations"),
            ([1e149], 2, InfeasibleError, "after 0 iterations"),
            # the row sums overflow, so there is no finite start
            ([1e308] * 3, 3, InfeasibleError, r"after 0 iterations \(last residual inf\)"),
            # an iterate's Jacobian -(W * W) - I rounds to singular
            ([-1.27e8, -6.2e7, 4e6], 3, InfeasibleError, r"did not converge after \d+ iterations"),
        ],
        ids=[
            "zero-modes", "negative-modes", "nan", "inf", "minus-inf", "1e200", "1e149",
            "row-sum-overflow", "singular-jacobian",
        ],
    )
    def test_boundary_inputs_raise_named_errors(self, offdiag, n_modes, error, match):
        with pytest.raises(error, match=match):
            reconstruct_diagonal(offdiag, n_modes)

    def test_failure_after_an_iteration_reports_a_finite_residual(self):
        """An iterate that passes Cholesky yet cannot be inverted reports the residual before it."""
        sf = to_standard_form(engineer_state(random_recipe(16, 0, s_max=100.0)))
        with pytest.raises(InfeasibleError) as info:
            reconstruct_diagonal(extract_parameters(sf), 16)
        assert info.value.iterations > 0
        assert np.isfinite(info.value.residual)

    def test_one_inverse_per_iterate(self, monkeypatch):
        """k Newton iterations invert k + 1 iterates; the last inverse becomes V_P."""
        n = 8
        params = extract_parameters(
            to_standard_form(engineer_state(random_recipe(n, 3, s_max=8.0)))
        )
        # smallest converging budget; more iterations only extend the same path
        low, high = 0, tolerances.NEWTON_MAX_ITER
        while low < high:
            middle = (low + high) // 2
            try:
                reconstruct_diagonal(params, n, max_iter=middle)
                high = middle
            except InfeasibleError:
                low = middle + 1
        assert low >= 3
        calls = record_calls(monkeypatch, np.linalg, "inv")
        reconstruct_diagonal(params, n)
        assert len(calls) == low + 1

    @pytest.mark.parametrize("n", [31, 64])
    @pytest.mark.parametrize("coupling", [0.1, 0.5, 2.0])
    def test_ring_reconstruction_inverts_at_most_four_iterates(self, monkeypatch, n, coupling):
        """The start sqrt(1 + sum_j v_ij^2) leaves a graded ring at most three Newton steps."""
        ring = harmonic_ground_state(graded_ring(n, coupling))
        params = extract_parameters(to_standard_form(ring))
        calls = record_calls(monkeypatch, standard_form, "_factor_inverse")
        reconstruct_diagonal(params, n)
        assert 1 <= len(calls) <= 4

    def test_start_that_is_not_positive_definite_is_halved_toward_the_anchor(self, monkeypatch):
        """The first candidate is the estimate; without a Cholesky factor it moves halfway to d0."""
        n = 3
        sf = to_standard_form(engineer_state(random_recipe(n, seed=5, s_max=4.0)))
        coupling = sf.vq - np.diag(np.diag(sf.vq))
        anchor = 1.0 + np.sum(np.abs(coupling), axis=1)
        estimate = np.sqrt(1.0 + np.sum(coupling**2, axis=1))
        tried = record_calls(monkeypatch, np.linalg, "cholesky")
        rebuilt = reconstruct_diagonal(extract_parameters(sf), n)
        monkeypatch.undo()
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(coupling + np.diag(estimate))
        np.testing.assert_array_equal(np.diag(tried[0]), estimate)
        np.testing.assert_array_equal(np.diag(tried[1]), anchor - (anchor - estimate) / 2.0)
        np.testing.assert_allclose(np.diag(rebuilt.vq), np.diag(sf.vq), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 33, 40])
    def test_newton_loop_keeps_the_reference_bits(self, n):
        """The loop without wrapper calls gives the written-out loop's V_Q and V_P bytes, or
        its refusal text, on ladder states that converge and states that exhaust the solver."""
        converged = 0
        for seed in range(8):
            for s_max in (4.0, 15.0, 30.0, 100.0):
                sf = to_standard_form(engineer_state(random_recipe(n, seed, s_max)))
                params = extract_parameters(sf)
                try:
                    want = reference_reconstruct(params, n)
                except InfeasibleError as exc:
                    with pytest.raises(InfeasibleError) as info:
                        reconstruct_diagonal(params, n)
                    assert str(info.value) == str(exc)
                    continue
                got = reconstruct_diagonal(params, n)
                assert got.vq.tobytes() == want.vq.tobytes()
                assert got.vp.tobytes() == want.vp.tobytes()
                converged += 1
        assert converged >= 8  # every s_max = 4 state converges


class TestStandardFormToCm:
    def test_identity_gives_vacuum(self):
        cm = standard_form_to_cm(StandardForm(3, np.eye(3)))
        np.testing.assert_array_equal(cm.data, np.eye(6))

    def test_two_mode_squeezed_assembly(self):
        sf = to_standard_form(engineer_state(TMS))
        cm = standard_form_to_cm(sf)
        np.testing.assert_allclose(cm.data, engineer_state(TMS).data, atol=1e-13)

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_output_is_pure(self, n):
        sf = to_standard_form(engineer_state(random_recipe(n, seed=6 * n)))
        cm = standard_form_to_cm(sf)
        result = is_pure(cm)
        assert result.pure and result.residual <= 1e-9


def block_det_row_residual(cm: CovarianceMatrix, mode_index: int) -> float:
    """Reference det identity by the former per-call route: gather the mode's row of
    block determinants, sum it, subtract 1."""
    row = block_dets(cm.data, mode_index - 1, np.arange(cm.n_modes))
    return float(np.sum(row) - 1.0)


class TestDetIdentity:
    def test_two_mode_squeezed_values(self):
        """det sigma_1 = 1.5625 balances det eps_12 = -0.5625 exactly."""
        cm = engineer_state(TMS)
        assert np.linalg.det(mode_block(cm, 1)) == pytest.approx(1.5625, abs=1e-12)
        assert np.linalg.det(mode_block(cm, 1, 2)) == pytest.approx(-0.5625, abs=1e-12)
        assert det_identity_residual(cm, 1) == pytest.approx(0.0, abs=1e-12)

    def test_vacuum(self):
        assert det_identity_residual(vacuum_cm(2), 1) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_sweep(self, n):
        for seed in range(8):
            cm = engineer_state(random_recipe(n, seed=50 * n + seed))
            for k in range(1, n + 1):
                assert abs(det_identity_residual(cm, k)) <= 1e-8

    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_normalized_route_on_acceptance_sweep(self, n):
        for idx in range(100):
            cm = engineer_state(random_recipe(n, 1000 * n + idx))
            residuals = [det_identity_residual(cm, k) for k in range(1, n + 1)]
            np.testing.assert_allclose(residuals, normalized_row_dots(cm), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [5, 31, 64])
    @pytest.mark.parametrize("coupling", [0.1, 0.5, 2.0])
    def test_matches_normalized_route_on_rings(self, n, coupling):
        cm = harmonic_ground_state(ring_potential(n, coupling))
        residuals = [det_identity_residual(cm, k) for k in range(1, n + 1)]
        np.testing.assert_allclose(residuals, normalized_row_dots(cm), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("make", [cz_state, rotated_engineered_state])
    def test_holds_for_pure_states_the_normalization_refuses(self, make):
        """The identity is a block of sigma Omega sigma = Omega, so class membership
        does not matter; to_standard_form still refuses these states."""
        cm = make()
        with pytest.raises(NotInGenericClassError):
            to_standard_form(cm)
        for k in range(1, cm.n_modes + 1):
            assert abs(det_identity_residual(cm, k)) <= 1e-12

    def test_invariant_under_local_symplectics(self, rng):
        cm = engineer_state(random_recipe(6, 17))
        moved = apply_symplectic(cm, random_local_symplectic(6, rng))
        for k in range(1, 7):
            assert abs(det_identity_residual(moved, k)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 32])
    def test_bits_match_per_call_route_on_engineered_states(self, n):
        for seed in range(3):
            for s_max in (4.0, 30.0):
                cm = engineer_state(random_recipe(n, seed, s_max))
                for k in range(1, n + 1):
                    assert det_identity_residual(cm, k) == block_det_row_residual(cm, k)

    @pytest.mark.parametrize("n", [3, 31, 64])
    @pytest.mark.parametrize("coupling", [0.1, 2.0, 1e3])
    def test_bits_match_per_call_route_on_rings(self, n, coupling):
        cm = harmonic_ground_state(ring_potential(n, coupling))
        for k in range(1, n + 1):
            assert det_identity_residual(cm, k) == block_det_row_residual(cm, k)

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_bits_match_per_call_route_in_local_frames(self, n, rng):
        cm = engineer_state(random_recipe(n, seed=70 + n))
        for _ in range(3):
            moved = apply_symplectic(cm, random_local_symplectic(n, rng))
            for k in range(1, n + 1):
                assert det_identity_residual(moved, k) == block_det_row_residual(moved, k)

    @pytest.mark.parametrize("n", [2, 7, 16])
    def test_one_purity_check_and_no_normalization(self, n, monkeypatch):
        """One purity verdict: ``require_pure`` decides from the cached residual without ``is_pure``."""
        calls = {"require_pure": 0, "is_pure": 0}
        for name in calls:
            original = getattr(symplectic, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in (symplectic, standard_form):
                monkeypatch.setattr(module, name, counted, raising=False)
        forbid(monkeypatch, standard_form, "_local_normalization", "_balance")
        cm = engineer_state(random_recipe(n, seed=n))
        det_identity_residual(cm, n)
        assert calls == {"require_pure": 1, "is_pure": 0}

    def test_rejects_mixed_state(self):
        with pytest.raises(NotPureError):
            det_identity_residual(CovarianceMatrix(2, 2.0 * np.eye(4)), 1)

    @pytest.mark.parametrize("mode", [0, 3])
    def test_rejects_out_of_range_mode(self, mode):
        with pytest.raises(ValueError, match="out of range"):
            det_identity_residual(vacuum_cm(2), mode)


class TestHarmonicGroundState:
    def test_identity_potential_gives_vacuum(self):
        np.testing.assert_allclose(harmonic_ground_state(np.eye(4)).data, np.eye(8), atol=1e-14)

    def test_three_mode_ring_against_circulant_oracle(self):
        """Fourier-diagonalize the N=3 ring by hand and compare spectral functions."""
        kappa = 0.5
        potential = ring_potential(3, kappa)
        eigenvalues = np.linalg.eigvalsh(potential)
        np.testing.assert_allclose(np.sort(eigenvalues), [1.0, 2.5, 2.5], atol=1e-12)
        # circulant eigenvectors: plane waves over the ring
        n = 3
        fourier = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
        lam = np.array([1.0 + 2 * kappa - 2 * kappa * np.cos(2 * np.pi * k / n) for k in range(n)])
        q_expected = (fourier * (lam**-0.5)) @ fourier.conj().T
        p_expected = (fourier * (lam**0.5)) @ fourier.conj().T
        cm = harmonic_ground_state(potential)
        np.testing.assert_allclose(cm.data[0::2, 0::2], q_expected.real, atol=1e-12)
        np.testing.assert_allclose(cm.data[1::2, 1::2], p_expected.real, atol=1e-12)

    @pytest.mark.parametrize("n, kappa", [(3, 0.5), (4, 1.0), (6, 2.0), (5, 0.0)])
    def test_pure_and_in_class(self, n, kappa):
        cm = harmonic_ground_state(ring_potential(n, kappa))
        assert is_pure(cm)
        sf = to_standard_form(cm)
        assert sf.n_modes == n

    def test_translational_invariance_of_blocks(self):
        cm = harmonic_ground_state(ring_potential(7, 1.3))
        dets = [np.linalg.det(mode_block(cm, k)) for k in range(1, 8)]
        assert max(dets) - min(dets) <= 1e-10

    def test_rejects_indefinite_potential(self):
        with pytest.raises(ValueError, match="positive definite"):
            harmonic_ground_state(np.diag([1.0, -2.0]))

    @pytest.mark.parametrize("n", [3, 64])
    @pytest.mark.parametrize("exponent", range(0, 8))
    def test_resolved_ring_couplings_build(self, n, exponent):
        potential = ring_potential(n, 10.0**exponent)
        vq = harmonic_ground_state(potential).data[0::2, 0::2]
        assert np.max(np.abs(vq @ vq @ potential - np.eye(n))) <= 1e-8

    @pytest.mark.parametrize("n", [3, 64])
    @pytest.mark.parametrize("exponent", range(8, 18))
    def test_unresolved_ring_couplings_are_refused(self, n, exponent):
        """At 1e16 the stored 1 + 2c rounds to 2c, so the N=3 ring's smallest eigenvalue
        is 0, not 1 (the FFT reads 0; a dense eigh read -2)."""
        with pytest.raises(ValueError, match="ill-conditioned"):
            harmonic_ground_state(ring_potential(n, 10.0**exponent))

    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e151])
    def test_rejects_non_finite_or_huge_potential(self, value):
        with pytest.raises(ValueError, match="finite and at most 1e\\+150"):
            harmonic_ground_state(np.array([[2.0, value], [value, 2.0]]))

    def test_rejects_empty_potential(self):
        with pytest.raises(ValueError, match="nonempty"):
            harmonic_ground_state(np.zeros((0, 0)))

    def test_rejects_asymmetric_potential(self):
        with pytest.raises(ValueError, match="symmetric"):
            harmonic_ground_state(np.array([[1.0, 0.2], [0.0, 1.0]]))

    def test_rejects_any_asymmetry(self):
        """Symmetry is exact, as for every other matrix input: no allclose slack."""
        potential = ring_potential(4, 0.5)
        potential[0, 1] += 1e-12
        with pytest.raises(ValueError, match="potential must be symmetric"):
            harmonic_ground_state(potential)


RING_MODES = [3, 4, 5, 9, 31, 64]
RING_COUPLINGS = [0.1, 0.5, 2.0]


def ring_standard_form(n: int, coupling: float) -> StandardForm:
    return to_standard_form(harmonic_ground_state(ring_potential(n, coupling)))


def dense_form(vq: np.ndarray, vp: np.ndarray) -> StandardForm:
    """A standard form that holds the dense blocks as given, with no seal."""
    sf = StandardForm.__new__(StandardForm)
    for name, value in (("n_modes", len(vq)), ("vq", vq), ("vp", vp)):
        object.__setattr__(sf, name, value)
    return sf


def dense_completion(offdiag: np.ndarray, n: int) -> StandardForm:
    """The Fourier completion with dense blocks: the coupling copied with its diagonal filled
    by the scalar root, and V_P = (W + W^T) / 2 for the circulant W of the inverse row."""
    upper = np.zeros((n, n))
    upper[np.triu_indices(n, 1)] = offdiag  # row-major, as extract_parameters reads it
    coupling = upper + upper.T
    spectrum = np.fft.rfft(coupling[0]).real
    d = standard_form._circulant_diagonal(spectrum, n)
    vq = coupling.copy()
    np.fill_diagonal(vq, d)
    inverse = standard_form._cyclic_shifts(np.fft.irfft(1.0 / (d + spectrum), n))
    return dense_form(vq, (inverse + inverse.T) / 2.0)


def circulant_state(row: np.ndarray) -> CovarianceMatrix:
    """The pure q-p-free state whose V_Q is the circulant of a symmetric first ``row`` and
    V_P the circulant of one inverse real FFT of its reciprocal real-FFT eigenvalues."""
    inverse = np.fft.irfft(1.0 / np.fft.rfft(row).real, len(row))
    return symplectic._from_blocks(*map(standard_form._cyclic_shifts, (row, inverse)))


class TestCirculantRoute:
    """Exactly circulant potentials and couplings of at least 3 modes take the Fourier route:
    a real FFT for the ground state, and one scalar equation for the reconstruction."""

    @pytest.mark.parametrize("n", RING_MODES)
    @pytest.mark.parametrize("coupling", RING_COUPLINGS)
    def test_ring_has_theta_distinct_parameters(self, n, coupling):
        """The paper's count for a translation-invariant ring: its N(N-1)/2 correlations are
        theta(N) = floor(N/2) numbers r_k = r_{N-k}, gathered exactly by ring distance.

        The theta(N) values are distinct wherever they stand above the rounding of the
        Fourier sums.  A 64-mode ring at coupling 0.5 or below has correlations that decay
        below 1e-16 before half-way round; those are rounding, and two of them are exact
        zeros, so it shows fewer than theta(N) distinct values.
        """
        sf = ring_standard_form(n, coupling)
        params = extract_parameters(sf)
        row = sf.vq[0, 1 : theta(n) + 1]
        i, j = np.nonzero(np.triu(np.ones((n, n), dtype=bool), 1))  # row-major, as extracted
        distance = np.minimum(j - i, n - (j - i))
        assert np.array_equal(params, row[distance - 1])
        resolved = row[np.abs(row) > 1e-14 * sf.vq[0, 0]]
        assert len(np.unique(resolved)) == len(resolved)
        assert len(np.unique(params)) == len(np.unique(row))

    @pytest.mark.parametrize(
        "n, coupling",
        [(n, c) for n in (3, 4, 5, 9) for c in RING_COUPLINGS] + [(31, 0.5), (31, 2.0), (64, 2.0)],
    )
    def test_resolved_ring_has_exactly_theta_distinct_parameters(self, n, coupling):
        """Where every r_k stands above rounding, the count is exactly theta(N)."""
        params = extract_parameters(ring_standard_form(n, coupling))
        assert len(np.unique(params)) == theta(n)

    @pytest.mark.parametrize("n", RING_MODES)
    @pytest.mark.parametrize("coupling", RING_COUPLINGS + [1e3, 1e6])
    def test_ground_state_matches_the_closed_form_spectrum(self, n, coupling):
        """V_Q and V_P are the plane-wave sums of lambda_k^(-/+1/2), with the ring's
        spectrum lambda_k = 1 + 4c sin^2(pi k / N) written out, not computed from V."""
        k = np.arange(n)
        lam = 1.0 + 4.0 * coupling * np.sin(np.pi * k / n) ** 2
        waves = np.cos(2.0 * np.pi * np.outer(k, k) / n)  # real part of the DFT; lam_k = lam_(N-k)
        cm = harmonic_ground_state(ring_potential(n, coupling))
        for block, power in ((cm.data[0::2, 0::2], -0.5), (cm.data[1::2, 1::2], 0.5)):
            row = waves @ lam**power / n
            expected = np.array([np.roll(row, i) for i in range(n)])
            assert np.max(np.abs(block - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", RING_MODES)
    @pytest.mark.parametrize("coupling", RING_COUPLINGS + [1e3, 1e6])
    def test_scalar_completion_rebuilds_the_ring(self, n, coupling):
        sf = ring_standard_form(n, coupling)
        rebuilt = reconstruct_diagonal(extract_parameters(sf), n)
        assert np.max(np.abs(rebuilt.vq - sf.vq)) <= 1e-13 * np.max(np.abs(sf.vq))
        assert np.max(np.abs(rebuilt.vq @ rebuilt.vp - np.eye(n))) <= 1e-13

    @pytest.mark.parametrize("n", [3, 31, 64, 101])
    def test_exact_ring_inverts_nothing_and_takes_no_newton_iterate(self, n, monkeypatch):
        params = extract_parameters(ring_standard_form(n, 0.5))
        forbid(monkeypatch, standard_form, "_factor_inverse", "_newton_system")
        forbid(monkeypatch, np.linalg, "eigh", "inv")
        rebuilt = reconstruct_diagonal(params, n)
        cm = harmonic_ground_state(ring_potential(n, 0.5))
        for block in (rebuilt.vq, rebuilt.vp, *cm._vq_vp):  # exactly symmetric circulants
            assert standard_form._circulant_row(block) is not None
            assert np.array_equal(block, block.T)

    @pytest.mark.parametrize("n", [3, 31, 64])
    def test_non_circulant_potential_keeps_the_eigh_bits(self, n, monkeypatch):
        """One eigh, and the blocks (U L^(-/+1/2) U^T), symmetrized, to the bit."""
        potential = graded_ring(n, 0.5)
        eigenvalues, eigenvectors = np.linalg.eigh(potential)
        roots = np.sqrt(eigenvalues)
        calls = record_calls(monkeypatch, np.linalg, "eigh")
        cm = harmonic_ground_state(potential)
        assert len(calls) == 1
        for block, product in (
            (cm.data[0::2, 0::2], (eigenvectors / roots) @ eigenvectors.T),
            (cm.data[1::2, 1::2], (eigenvectors * roots) @ eigenvectors.T),
        ):
            assert block.tobytes() == ((product + product.T) / 2.0).tobytes()

    @pytest.mark.parametrize("coupling", [0.1, 2.0, 1e3])
    def test_two_modes_stay_on_eigh_and_newton(self, coupling, monkeypatch):
        """Every 2x2 matrix with a constant diagonal is circulant; two modes keep the
        dense routes, and their bits."""
        eighs = record_calls(monkeypatch, np.linalg, "eigh")
        sf = ring_standard_form(2, coupling)
        iterates = record_calls(monkeypatch, standard_form, "_newton_system")
        reconstruct_diagonal(extract_parameters(sf), 2)
        assert len(eighs) == 1 and len(iterates) >= 1

    @pytest.mark.parametrize(
        "spoil",
        [lambda d: d * (1.0 + 1e-9), lambda d: 5.0, None],
        ids=["residual-only", "class-check", "no-certificate"],
    )
    def test_uncertified_completion_falls_back_to_newton(self, spoil, monkeypatch):
        """A scalar root that fails certification is dropped for the Newton solve, with the
        Newton bits and no new error: off by 1e-9 relative it passes the class check and
        fails only the residual check, at 5 it fails the Williamson gap, and a V_Q whose
        spectrum does not certify it positive definite is not used either."""
        n = 31
        params = extract_parameters(ring_standard_form(n, 0.5))
        monkeypatch.setattr(standard_form, "_circulant_row", lambda matrix: None)
        newton = reconstruct_diagonal(params, n)
        monkeypatch.undo()
        if spoil is None:  # a margin that no spectrum clears
            monkeypatch.setattr(tolerances, "CERTIFIED_SPECTRUM", np.inf)
        else:
            root = standard_form._circulant_diagonal
            monkeypatch.setattr(
                standard_form,
                "_circulant_diagonal",
                lambda spectrum, n_modes: spoil(root(spectrum, n_modes)),
            )
        rebuilt = reconstruct_diagonal(params, n)
        assert rebuilt.vq.tobytes() == newton.vq.tobytes()
        assert rebuilt.vp.tobytes() == newton.vp.tobytes()

    def test_detection_is_exact(self):
        ring = ring_potential(7, 0.5)
        assert np.array_equal(standard_form._circulant_row(ring), ring[0])
        assert standard_form._circulant_row(ring_potential(2, 0.5)) is None
        assert standard_form._circulant_row(ring_potential(7, 0.0)) is None  # diagonal: kept exact
        toeplitz = ring.copy()
        toeplitz[0, -1] = toeplitz[-1, 0] = 0.0  # an open chain: row 1 already differs
        assert standard_form._circulant_row(toeplitz) is None
        last = ring.copy()
        last[-1, -1] = np.nextafter(last[-1, -1], 3.0)  # only the full compare sees it
        assert standard_form._circulant_row(last) is None

    @pytest.mark.parametrize("n", [3, 5, 31, 64, 101, 160])
    @pytest.mark.parametrize("coupling", [0.1, 0.5, 2.0, 1e3])
    def test_exact_ring_standard_form_inverts_by_one_fft(self, n, coupling, monkeypatch):
        """to_standard_form of a ring: V_Q is balanced as before, its spectrum certifies it
        positive definite with no Cholesky test, and vp is the symmetrized circulant of one
        inverse real FFT, with no dense inverse; the public constructor takes the same route,
        to the bit."""
        cm = harmonic_ground_state(ring_potential(n, coupling))
        forbid(monkeypatch, standard_form, "_factor_inverse", "_triangular_inverse")
        forbid(monkeypatch, np.linalg, "inv")
        factored = record_calls(monkeypatch, np.linalg, "cholesky")
        sf = to_standard_form(cm)
        assert not factored
        balanced = standard_form._balance(*(block + 0.0 for block in cm._vq_vp))[0]
        assert sf.vq.tobytes() == balanced.tobytes()
        row = sf.vp[0]
        assert np.array_equal(sf.vp, np.array([np.roll(row, i) for i in range(n)]))
        assert np.array_equal(sf.vp, sf.vp.T)
        assert sf.vp.tobytes() == StandardForm(n, sf.vq).vp.tobytes()

    @pytest.mark.parametrize("n", [3, 5, 9, 31, 64, 101, 160, 400])
    @pytest.mark.parametrize("coupling", [0.1, 0.5, 2.0, 1e3, 1e6])
    @pytest.mark.parametrize("jitter", [1.0, 1.0321], ids=["exact", "jittered"])
    def test_ring_rows_give_the_dense_bytes(self, n, coupling, jitter, monkeypatch):
        """Both ring routes work on first rows, with no Cholesky test, and every output has
        the bytes of the dense route: _balance, V_P = (W + W^T) / 2 of the inverse W, and the
        dense completion.

        The built ring carries its rows from the ground state; the same CM read back from its
        document carries none, and every query of the two has the same bytes.  Only their
        in-process purity residuals may differ (the ring's forms row 0 of V_Q V_P), and both
        stay far inside the purity tolerance."""
        cm = harmonic_ground_state(ring_potential(n, coupling * jitter))
        read = CovarianceMatrix.from_dict(cm.to_dict())
        assert cm._rows is not None and read._rows is None
        factored = record_calls(monkeypatch, np.linalg, "cholesky")
        sf = to_standard_form(cm)
        read_sf = to_standard_form(read)
        rebuilt = reconstruct_diagonal(extract_parameters(sf), n)
        assert not factored
        monkeypatch.undo()
        modes = range(1, n + 1)
        for query in (
            lambda state, form: state.data,
            lambda state, form: form.vq,
            lambda state, form: form.vp,
            lambda state, form: [entropy_one_vs_rest(state, k) for k in modes],
            lambda state, form: [entropy_via_pairwise(form, k) for k in modes],
            lambda state, form: [det_identity_residual(state, k) for k in modes],
            lambda state, form: full_report(state).per_mode_entropy,
            lambda state, form: full_report(state).schmidt_parameter,
            lambda state, form: full_report(state).pairwise_logneg,
            lambda state, form: full_report(state).pairwise_detblocks,
            lambda state, form: log_negativity_pair(state, 1, 2),
        ):
            assert np.array(query(cm, sf)).tobytes() == np.array(query(read, read_sf)).tobytes()
        tol = tolerances.purity(cm.inf_norm())
        assert read.inf_norm() == cm.inf_norm()
        assert max(cm._purity_residual, read._purity_residual) <= 1e-6 * tol
        vq = standard_form._balance(*(block + 0.0 for block in cm._vq_vp))[0]
        inverse = standard_form._inverse(vq, np.linalg.cholesky(vq))
        reference = dense_form(vq, (inverse + inverse.T) / 2.0)
        cases = ((sf, reference), (rebuilt, dense_completion(extract_parameters(reference), n)))
        for ours, dense in cases:
            for array, expected in (
                (ours.vq, dense.vq),
                (ours.vp, dense.vp),
                (np.array(ours._pairwise_sums), np.array(dense._pairwise_sums)),
                (extract_parameters(ours), extract_parameters(dense)),
                (standard_form_to_cm(ours).data, standard_form_to_cm(dense).data),
            ):
                assert array.tobytes() == expected.tobytes()
            entropies = [entropy_via_pairwise(form, k) for form in (ours, dense) for k in range(1, n + 1)]
            assert entropies[:n] == entropies[n:]

    @pytest.mark.parametrize("n", [3, 64])
    def test_ground_state_rows_skip_the_dense_passes(self, n, monkeypatch):
        """A ring's ground state keeps the symmetrized first rows of its blocks, read-only:
        the standard form reads them with no circulant detection, the purity check forms only
        row 0 of V_Q V_P, and the per-mode queries read no N x N block determinants."""
        cm = harmonic_ground_state(ring_potential(n, 0.5))
        q, p = cm._rows
        assert q.tobytes() == cm.data[0, 0::2].tobytes() and p.tobytes() == cm.data[1, 1::2].tobytes()
        assert not (q.flags.writeable or p.flags.writeable)
        forbid(monkeypatch, standard_form, "_circulant_row")
        fills = count_fills(monkeypatch, CovarianceMatrix, "_dets")
        products = record_calls(monkeypatch, symplectic, "_identity_residual")
        sf = to_standard_form(cm)
        for k in range(1, n + 1):
            entropy_one_vs_rest(cm, k)
            entropy_via_pairwise(sf, k)
        assert [product.shape for product in products] == [(1, n)]
        assert fills == []

    @pytest.mark.parametrize("n", [3, 31, 101])
    @pytest.mark.parametrize("coupling", [0.5, 1e3])
    def test_circulant_forms_rebuild_the_state_from_their_rows(self, n, coupling, monkeypatch):
        """Every circulant standard form (from to_standard_form, the Fourier completion and the
        public constructor) keeps its two symmetric first rows, read-only; standard_form_to_cm
        builds the state from them, with no dense (X + X^T) / 2, to the dense bytes, and the
        rebuilt state keeps the rows, so its own standard form skips the circulant detection."""
        sf = to_standard_form(harmonic_ground_state(ring_potential(n, coupling)))
        forms = [sf, reconstruct_diagonal(extract_parameters(sf), n), StandardForm(n, sf.vq)]
        for form in forms:
            q, p = form._rows
            assert q.tobytes() == form.vq[0].tobytes() and p.tobytes() == form.vp[0].tobytes()
            assert not (q.flags.writeable or p.flags.writeable)
            assert q.base is None or q.base.shape == q.shape  # not a view that keeps an N x N matrix
            dense = symplectic._from_blocks(form.vq, form.vp)
            mirrored = record_calls(monkeypatch, symplectic, "_mirror")
            forbid(monkeypatch, np, "transpose")
            rebuilt = standard_form_to_cm(form)
            monkeypatch.undo()
            assert [row.shape for row in mirrored] == [(n,), (n,)]
            assert rebuilt.data.tobytes() == dense.data.tobytes()
            assert rebuilt._rows[0].tobytes() == q.tobytes() and rebuilt._rows[1].tobytes() == p.tobytes()
            forbid(monkeypatch, standard_form, "_circulant_row")
            again = to_standard_form(rebuilt)
            monkeypatch.undo()
            assert again.vq.tobytes() == to_standard_form(dense).vq.tobytes()

    def test_dense_forms_keep_no_rows(self):
        """Forms that are not circulant rebuild their state from the dense blocks, as before."""
        for cm in (engineer_state(random_recipe(5, seed=3)), harmonic_ground_state(graded_ring(9, 0.5))):
            sf = to_standard_form(cm)
            assert sf._rows is None
            rebuilt = standard_form_to_cm(sf)
            assert rebuilt._rows is None
            assert rebuilt.data.tobytes() == symplectic._from_blocks(sf.vq, sf.vp).data.tobytes()

    @pytest.mark.parametrize(
        "q, p",
        [([2.0, 0.0, 0.0], [0.5, 0.0, 0.0]), ([2.0, 0.1, 0.1], [0.5, 0.0, 0.0]),
         ([2.0, 0.0, 0.0], [0.5, 0.1, 0.1])],
        ids=["both-diagonal", "p-diagonal", "q-diagonal"],
    )
    def test_diagonal_rows_are_not_kept(self, q, p):
        """Rows are kept only where _circulant_row would find both blocks: a diagonal block
        leaves the state to detection, which refuses it, and to the dense routes."""
        cm = symplectic._from_blocks(np.array(q), np.array(p), circulant=True)
        assert cm._rows is None
        assert any(standard_form._circulant_row(block) is None for block in cm._vq_vp)

    def test_indefinite_circulant_is_refused(self):
        """V_Q = I - 0.6 (S + S^T) on 5 modes, eigenvalues 1 - 1.2 cos(2 pi k / 5), -0.2 at k = 0,
        and V_P its exact circulant inverse: a pure q-p-free state whose blocks are exact
        circulants.  Its spectrum certifies nothing, and both builders refuse it as before."""
        shift = np.roll(np.eye(5), 1, axis=1)
        vq = np.eye(5) - 0.6 * (shift + shift.T)
        state = circulant_state(vq[0])
        assert is_pure(state) and np.array_equal(state._vq_vp[0], vq)
        assert all(standard_form._circulant_row(block) is not None for block in state._vq_vp)
        for build in (lambda: to_standard_form(state), lambda: StandardForm(5, vq)):
            with pytest.raises(ValueError, match=r"^vq must be positive definite$"):
                build()

    @pytest.mark.parametrize("least, choleskys", [(1e-13, 0), (2e-14, 1)])
    def test_spectrum_inside_the_margin_takes_the_dense_route(self, least, choleskys, monkeypatch):
        """Eigenvalues (least, 1, 1, 1, 1): 1e-13 clears the margin 8 N^2 eps ||row||_1 of the
        balanced V_Q and 2e-14 does not, so only the latter is handed to the dense route and
        its one Cholesky test.  Both are refused by the V_P gap (ROADMAP item 15), with the
        dense route's message."""
        state = circulant_state(np.fft.irfft([least, 1.0, 1.0], 5))
        calls = record_calls(monkeypatch, np.linalg, "cholesky")
        with pytest.raises(NotInGenericClassError) as refused:
            to_standard_form(state)
        assert len(calls) == choleskys
        monkeypatch.setattr(standard_form, "_ring_standard_form", lambda cm: None)
        with pytest.raises(NotInGenericClassError) as dense:
            to_standard_form(state)
        assert str(refused.value) == str(dense.value)

    @pytest.mark.parametrize("n", [5, 64])
    def test_margin_above_the_spectrum_keeps_the_bytes(self, n, monkeypatch):
        """A margin raised just above a ring's least eigenvalue hands it to the dense route:
        one Cholesky test, and the certified route's bytes."""
        cm = harmonic_ground_state(ring_potential(n, 0.5))
        certified = to_standard_form(cm)
        row = certified.vq[0]
        margin = np.fft.rfft(row).real.min() * (1.0 + 1e-9) / (n * n * abs(row).sum())
        monkeypatch.setattr(tolerances, "CERTIFIED_SPECTRUM", margin)
        calls = record_calls(monkeypatch, np.linalg, "cholesky")
        sf = to_standard_form(cm)
        assert len(calls) == 1
        assert sf.vq.tobytes() == certified.vq.tobytes()
        assert sf.vp.tobytes() == certified.vp.tobytes()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: harmonic_ground_state(graded_ring(31, 0.5)),
            lambda: harmonic_ground_state(graded_ring(101, 2.0)),
            lambda: engineer_state(random_recipe(5, seed=5)),
            lambda: harmonic_ground_state(ring_potential(2, 0.5)),
        ],
        ids=["graded-31", "graded-101", "engineered-5", "ring-2"],
    )
    def test_other_states_keep_the_factor_inverse_bits(self, make):
        """As TestLocalNormalization's lattice-size states, which include diagonal ones: the
        dense inverse's bits, on both sides of the direct-inverse size and at two modes."""
        cm = make()
        sf = to_standard_form(cm)
        inverse = standard_form._factor_inverse(sf.vq, np.linalg.cholesky(sf.vq))
        assert sf.vp.tobytes() == ((inverse + inverse.T) / 2.0).tobytes()

    @pytest.mark.parametrize("n", [3, 31, 101])
    @pytest.mark.parametrize("coupling", [1e3, 1e6])
    def test_spoiled_ring_momentum_block_is_refused(self, n, coupling, monkeypatch):
        """V_P scaled by 1 + 1e-6 still passes the purity check at these norms; the gap to the
        Fourier inverse refuses it."""
        cm = harmonic_ground_state(ring_potential(n, coupling))
        data = cm.data.copy()
        data[1::2, 1::2] *= 1.0 + 1e-6
        forbid(monkeypatch, standard_form, "_factor_inverse")
        with pytest.raises(NotInGenericClassError):
            to_standard_form(CovarianceMatrix(n, data))

    @pytest.mark.parametrize(
        "vq",
        [
            ring_potential(5, 0.5) - 1.5 * np.eye(5),  # an eigenvalue of -0.5
            np.full((3, 3), 1e-320) + np.diag(np.full(3, 1e-320)),  # 1 / 1e-320 overflows
        ],
        ids=["indefinite", "overflow"],
    )
    def test_circulant_inverse_falls_back_to_the_factor(self, vq, monkeypatch):
        """A circulant with an FFT eigenvalue that is not positive, or whose inverse row is
        not finite, is inverted from the factor, as before."""
        monkeypatch.setattr(standard_form, "_factor_inverse", lambda vq, factor: "factor")
        assert standard_form._circulant_row(vq) is not None
        assert standard_form._inverse(vq, None) == "factor"

    @pytest.mark.parametrize("n", [3, 4, 7, 100])
    def test_cyclic_shifts_match_the_sliding_window_reference(self, n, rng):
        row = rng.standard_normal(n)
        reference = np.lib.stride_tricks.sliding_window_view(np.concatenate([row, row]), n)[n:0:-1]
        shifts = standard_form._cyclic_shifts(row)
        assert shifts.shape == (n, n) and shifts.tobytes() == reference.tobytes()
        assert not shifts.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            shifts[0, 0] = 1.0


class TestRingPotential:
    def test_zero_coupling_is_identity(self):
        np.testing.assert_array_equal(ring_potential(5, 0.0), np.eye(5))

    def test_four_modes(self):
        expected = np.array(
            [
                [3.0, -1.0, 0.0, -1.0],
                [-1.0, 3.0, -1.0, 0.0],
                [0.0, -1.0, 3.0, -1.0],
                [-1.0, 0.0, -1.0, 3.0],
            ]
        )
        np.testing.assert_array_equal(ring_potential(4, 1.0), expected)

    def test_two_mode_wrap_accumulates(self):
        np.testing.assert_array_equal(
            ring_potential(2, 0.5), np.array([[2.0, -1.0], [-1.0, 2.0]])
        )

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_circulant_symmetry(self, n):
        potential = ring_potential(n, 0.7)
        for i in range(n):
            for j in range(n):
                assert potential[i, j] == potential[0, (j - i) % n]

    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ring_potential(4, -0.1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 31, 64, 1000])
    def test_matches_the_per_mode_loop_bit_for_bit(self, n):
        for coupling in [0.0, 1 / 3, 0.1, 0.5, 1.0, 2.0, 1e3, 1e6, 1e308]:
            with np.errstate(over="ignore"):  # two modes at 1e308: both reach -inf off the diagonal
                loop = np.diag(np.full(n, 1.0 + 2.0 * coupling))  # the earlier per-mode construction
                for k in range(n):
                    loop[k, (k + 1) % n] -= coupling
                    loop[(k + 1) % n, k] -= coupling
                potential = ring_potential(n, coupling)
            assert np.array_equal(potential, loop), coupling
            assert not np.signbit(potential[loop == 0.0]).any(), coupling

    def test_largest_coupling_forms_no_inf_times_zero(self):
        potential = ring_potential(4, 1e308)  # RuntimeWarnings are errors in this suite
        assert np.isinf(potential[0, 0]) and potential[0, 2] == 0.0

    @pytest.mark.parametrize("coupling", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_coupling(self, coupling):
        with pytest.raises(ValueError, match="coupling must be finite"):
            ring_potential(4, coupling)


class TestStandardFormType:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            StandardForm(2, np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            StandardForm(2, np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_williamson_violation(self):
        with pytest.raises(ValueError, match="Williamson"):
            StandardForm(2, np.array([[2.0, 0.75], [0.75, 2.0]]))

    def test_diagonal_gap_tolerance_scales_with_norm_and_override(self, monkeypatch):
        """The two-mode squeezed form with its first diagonal raised by 1e-7 misses
        the Williamson conditions by 2.6e-7, above 1e-8 * (1 + 1.25)."""
        vq = np.array([[1.25 + 1e-7, 0.75], [0.75, 1.25]])
        monkeypatch.delenv("GF_TOL_OVERRIDE", raising=False)
        with pytest.raises(ValueError, match=r"= 2\.562e-07 exceeds 2\.250e-08"):
            StandardForm(2, vq)
        monkeypatch.setenv("GF_TOL_OVERRIDE", "100")
        StandardForm(2, vq)

    def test_rejects_infinite_entries(self):
        with pytest.raises(ValueError, match="finite"):
            StandardForm(2, np.diag([np.inf, np.inf]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e160])
    def test_from_dict_rejects_non_finite_or_huge_as_input_error(self, value):
        with pytest.raises(InputFormatError, match="finite"):
            StandardForm.from_dict({"n_modes": 2, "vq": [[value, 0.1], [0.1, 1.0]]})

    def test_json_round_trip(self):
        sf = to_standard_form(engineer_state(random_recipe(3, 2)))
        clone = StandardForm.from_dict(sf.to_dict())
        np.testing.assert_array_equal(clone.vq, sf.vq)
