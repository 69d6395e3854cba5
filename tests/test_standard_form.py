"""Tests for standard-form reduction, reconstruction, and harmonic ground states."""

import numpy as np
import pytest

from gaussforge import standard_form, symplectic
from gaussforge.engineering import Recipe, engineer_state, random_recipe
from gaussforge.errors import (
    InfeasibleError,
    InputFormatError,
    NotInGenericClassError,
    NotPureError,
)
from gaussforge.standard_form import (
    StandardForm,
    condition_residual,
    det_identity_residual,
    extract_parameters,
    harmonic_ground_state,
    reconstruct_diagonal,
    reconstruction_jacobian,
    ring_potential,
    standard_form_to_cm,
    to_standard_form,
)
from gaussforge.symplectic import (
    CovarianceMatrix,
    SymplecticMatrix,
    apply_symplectic,
    is_pure,
    reduced_cm,
    symplectic_eigenvalues,
    vacuum_cm,
)

from conftest import random_local_symplectic

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


def normalized_row_dots(cm: CovarianceMatrix) -> np.ndarray:
    """Reference det identity by the former route, for every mode at once.

    Normalize each mode locally, regroup to (q1..qN, p1..pN), and take
    ``sum_j vq_ij vp_ij - 1`` as the dot product of row i of V_Q with row i
    of V_P.  Only meaningful for states in the class.
    """
    n = cm.n_modes
    data = standard_form._local_normalization(cm).data
    perm = np.concatenate([np.arange(0, 2 * n, 2), np.arange(1, 2 * n, 2)])
    grouped = data[np.ix_(perm, perm)]
    assert np.max(np.abs(grouped[:n, n:])) <= 1e-8 * (1.0 + np.max(np.abs(data)))
    return np.einsum("ij,ij->i", grouped[:n, :n], grouped[n:, n:]) - 1.0


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


class TestDetIdentity:
    def test_two_mode_squeezed_values(self):
        """det sigma_1 = 1.5625 balances det eps_12 = -0.5625 exactly."""
        cm = engineer_state(TMS)
        assert np.linalg.det(cm.mode_block(1)) == pytest.approx(1.5625, abs=1e-12)
        assert np.linalg.det(cm.cross_block(1, 2)) == pytest.approx(-0.5625, abs=1e-12)
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

    @pytest.mark.parametrize("n", [2, 7, 16])
    def test_one_purity_check_and_no_normalization(self, n, monkeypatch):
        calls = {"is_pure": 0, "apply_symplectic": 0}
        for name in calls:
            original = getattr(symplectic, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in (symplectic, standard_form):
                monkeypatch.setattr(module, name, counted, raising=False)
        cm = engineer_state(random_recipe(n, seed=n))
        det_identity_residual(cm, n)
        assert calls == {"is_pure": 1, "apply_symplectic": 0}

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
        dets = [np.linalg.det(cm.mode_block(k)) for k in range(1, 8)]
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
        """At 1e16 the computed smallest eigenvalue of the N=3 ring is -2, not 1."""
        with pytest.raises(ValueError, match="ill-conditioned"):
            harmonic_ground_state(ring_potential(n, 10.0**exponent))

    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e151])
    def test_rejects_non_finite_or_huge_potential(self, value):
        with pytest.raises(ValueError, match="finite and at most 1e\\+150"):
            harmonic_ground_state(np.array([[2.0, value], [value, 2.0]]))

    def test_rejects_asymmetric_potential(self):
        with pytest.raises(ValueError, match="symmetric"):
            harmonic_ground_state(np.array([[1.0, 0.2], [0.0, 1.0]]))


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e160])
    def test_from_dict_rejects_non_finite_or_huge_as_input_error(self, value):
        with pytest.raises(InputFormatError, match="finite"):
            StandardForm.from_dict({"n_modes": 2, "vq": [[value, 0.1], [0.1, 1.0]]})

    def test_json_round_trip(self):
        sf = to_standard_form(engineer_state(random_recipe(3, 2)))
        clone = StandardForm.from_dict(sf.to_dict())
        np.testing.assert_array_equal(clone.vq, sf.vq)
