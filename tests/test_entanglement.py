"""Tests for entanglement measures and their pairwise accounting."""

import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussforge import entanglement, symplectic, tolerances
from gaussforge.engineering import Recipe, engineer_state, random_recipe
from gaussforge.entanglement import (
    bosonic_entropy,
    entropy_one_vs_rest,
    entropy_via_pairwise,
    full_report,
    log_negativity_pair,
    schmidt_parameter,
)
from gaussforge.errors import NotInGenericClassError, NotPureError
from gaussforge.standard_form import (
    det_identity_residual,
    harmonic_ground_state,
    reconstruct_diagonal,
    ring_potential,
    standard_form_to_cm,
    to_standard_form,
)
from gaussforge.symplectic import CovarianceMatrix, is_pure, symplectic_eigenvalues, vacuum_cm

from conftest import (
    block_route_states,
    condition_number,
    count_fills,
    forbid,
    random_local_symplectic,
    random_spd,
    record_calls,
)
from oracles import apply_symplectic, block_dets, mode_block, reduced_cm, squeezer

TMS = Recipe(2, np.sqrt(2.0))  # a = 1.25, c = 0.75


def eigen_log_negativity(cm: CovarianceMatrix, mode_i: int, mode_j: int):
    """Per-pair eigen route: reduce to the pair, negate the second mode's
    momentum, take the smallest symplectic eigenvalue.

    Returns the log-negativity in ebits and the largest over the smallest
    eigenvalue, which times machine epsilon bounds this route's own
    first-order relative error (the singular values are resolved at the
    scale of the largest).
    """
    pair = reduced_cm(cm, (mode_i, mode_j))
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    values = symplectic_eigenvalues(flip @ pair.data @ flip)
    return max(0.0, -math.log2(values[-1])), values[0] / values[-1]


def assert_matches_eigen_route(cm: CovarianceMatrix, conditioned: bool = False):
    """full_report and log_negativity_pair against the per-pair eigen route.

    The gate is 1e-10; with ``conditioned`` it widens by the oracle's own
    error bound eps * nu_max / nu_min, which reaches ~1e-8 for pairs
    squeezed by ~100.
    """
    n = cm.n_modes
    report = full_report(cm)
    for i in range(1, n + 1):
        direct = bosonic_entropy(float(np.sqrt(np.linalg.det(mode_block(cm, i)))))
        assert abs(report.per_mode_entropy[i - 1] - direct) <= 1e-10 * (1.0 + direct)
        for j in range(i + 1, n + 1):
            expected, spread = eigen_log_negativity(cm, i, j)
            tol = 1e-10 + (np.finfo(float).eps * spread if conditioned else 0.0)
            assert abs(report.pairwise_logneg[i - 1, j - 1] - expected) <= tol
            assert abs(log_negativity_pair(cm, i, j) - expected) <= tol
            det = np.linalg.det(mode_block(cm, i, j))
            assert abs(report.pairwise_detblocks[i - 1, j - 1] - det) <= 1e-10 * (1.0 + abs(det))


def thermal_shannon_entropy(a: float, terms: int = 200) -> float:
    """Independent enumeration oracle: Shannon entropy of the photon-number
    distribution p_n = (1-x) x^n with x = nbar/(nbar+1), nbar = (a-1)/2."""
    nbar = (a - 1.0) / 2.0
    if nbar == 0.0:
        return 0.0
    x = nbar / (nbar + 1.0)
    total = 0.0
    for n in range(terms):
        p = (1.0 - x) * x**n
        total -= p * math.log2(p)
    return total


class TestSchmidtParameter:
    def test_vacuum(self):
        assert schmidt_parameter(vacuum_cm(2), 1) == pytest.approx(1.0, abs=1e-14)

    def test_two_mode_squeezed(self):
        assert schmidt_parameter(engineer_state(TMS), 1) == pytest.approx(1.25, abs=1e-12)

    def test_rejects_mixed(self):
        with pytest.raises(NotPureError):
            schmidt_parameter(CovarianceMatrix(1, np.diag([2.0, 2.0])), 1)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_matches_complementary_reduction_eigenvalue(self, n):
        from gaussforge.symplectic import williamson_spectrum

        cm = engineer_state(random_recipe(n, seed=13 * n))
        for k in range(1, n + 1):
            rest = [m for m in range(1, n + 1) if m != k]
            nontrivial = max(williamson_spectrum(reduced_cm(cm, rest)).values)
            assert schmidt_parameter(cm, k) == pytest.approx(nontrivial, abs=1e-7)


def indefinite_state(dense: bool) -> CovarianceMatrix:
    """V_Q = [[1, 2], [2, 1]] (+) V_Q^-1: pure by the identity, but both det sigma_i are -1/3."""
    vq = np.array([[1.0, 2.0], [2.0, 1.0]])
    cm = symplectic._from_blocks(vq, np.linalg.inv(vq))
    return CovarianceMatrix(2, cm.data) if dense else cm


class TestNonPositiveModeDeterminant:
    """A non-positive det sigma_i is refused by mode, with no nan, warning or math error."""

    @pytest.mark.parametrize("dense", [False, True], ids=["blocks", "dense"])
    @pytest.mark.parametrize(
        "query, mode",
        [
            (lambda cm: schmidt_parameter(cm, 2), 2),
            (lambda cm: entropy_one_vs_rest(cm, 1), 1),
            (lambda cm: entropy_one_vs_rest(cm, 2, nats=True), 2),
            (full_report, 1),
            (lambda cm: full_report(cm, schmidt_mode=2), 1),
            (lambda cm: det_identity_residual(cm, 1), 1),
            (lambda cm: det_identity_residual(cm, 2), 2),
        ],
        ids=[
            "schmidt-2", "entropy-1", "entropy-2-nats", "report", "report-schmidt-2",
            "det-identity-1", "det-identity-2",
        ],
    )
    def test_refused_naming_the_mode(self, query, mode, dense):
        cm = indefinite_state(dense)
        assert is_pure(cm)  # the purity identity alone lets it through (ROADMAP item 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as refusal:
                query(cm)
        assert str(refusal.value) == (
            f"mode {mode} has block determinant -3.333e-01, not a positive one"
        )

    def test_positive_determinants_unchanged(self):
        """The guard passes every mode of a pure positive-definite state untouched."""
        cm = engineer_state(random_recipe(5, seed=8))
        for k in range(1, 6):
            assert schmidt_parameter(cm, k) == float(np.sqrt(cm._dets[k - 1, k - 1]))
            assert det_identity_residual(cm, k) == cm._det_row_sums[k - 1] - 1.0


class TestBosonicEntropy:
    def test_unit_eigenvalue_is_zero(self):
        assert bosonic_entropy(1.0) == 0.0
        assert bosonic_entropy(1.0 + 1e-15) == 0.0

    def test_value_at_1_25_against_enumeration(self):
        assert bosonic_entropy(1.25) == pytest.approx(thermal_shannon_entropy(1.25), abs=1e-12)
        assert bosonic_entropy(1.25) == pytest.approx(0.5662, abs=5e-4)

    def test_strictly_increasing(self):
        grid = np.linspace(1.0 + 1e-9, 8.0, 200)
        values = [bosonic_entropy(a) for a in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_nats_flag(self):
        assert bosonic_entropy(1.7, nats=True) == pytest.approx(
            bosonic_entropy(1.7) * math.log(2.0), abs=1e-14
        )

    def test_unit_threshold_follows_tol_override(self, monkeypatch):
        assert bosonic_entropy(1.0 + 1e-9) > 0.0
        monkeypatch.setenv("GF_TOL_OVERRIDE", "1e4")
        assert bosonic_entropy(1.0 + 1e-9) == 0.0

    def test_window_edges(self):
        """nu from 1 - rank() to MAX_ENTRY is accepted; the next float out on either side is not."""
        low = 1.0 - tolerances.rank()
        assert bosonic_entropy(low) == 0.0
        assert math.isfinite(bosonic_entropy(tolerances.MAX_ENTRY))
        for nu in (np.nextafter(low, 0.0), np.nextafter(tolerances.MAX_ENTRY, math.inf)):
            with pytest.raises(ValueError, match=r"^symplectic eigenvalue .* lies outside"):
                bosonic_entropy(nu)

    @pytest.mark.xfail(strict=True, raises=AssertionError)
    def test_accurate_at_large_eigenvalues(self):
        """ROADMAP.md item 4 (CHANGES.md line 72): the two halves of the formula cancel above
        2^53, so nu = 1e16 gives 0.0 today; the log1p form keeps every digit."""
        nu = 1e16
        down = (nu - 1.0) / 2.0
        expected = math.log2((nu + 1.0) / 2.0) + down * math.log1p(1.0 / down) / math.log(2.0)
        assert expected == pytest.approx(53.5935, abs=1e-4)
        assert bosonic_entropy(nu) == pytest.approx(expected, rel=1e-12)

    def test_window_follows_tol_override_from_one_read(self, monkeypatch):
        """The lower edge scales with the override, read once per call for both thresholds."""
        with pytest.raises(ValueError, match=r"^symplectic eigenvalue 0\.99999 lies outside "):
            bosonic_entropy(1.0 - 1e-5)
        monkeypatch.setenv("GF_TOL_OVERRIDE", "100")
        reads = []
        scale = tolerances.scale
        monkeypatch.setattr(tolerances, "scale", lambda: reads.append(1) or scale())
        assert bosonic_entropy(1.0 - 1e-5) == 0.0
        assert bosonic_entropy(1.0 + 5e-11) == 0.0
        assert len(reads) == 2


class TestEntropyOneVsRest:
    def test_vacuum_zero(self):
        assert entropy_one_vs_rest(vacuum_cm(3), 2) == 0.0

    def test_two_mode_squeezed(self):
        assert entropy_one_vs_rest(engineer_state(TMS), 1) == pytest.approx(
            thermal_shannon_entropy(1.25), abs=1e-12
        )


class TestEntropyViaPairwise:
    def test_two_mode_squeezed(self):
        sf = to_standard_form(engineer_state(TMS))
        assert entropy_via_pairwise(sf, 1) == pytest.approx(
            thermal_shannon_entropy(1.25), abs=1e-10
        )

    def test_vacuum(self):
        sf = to_standard_form(vacuum_cm(3))
        assert entropy_via_pairwise(sf, 1) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_agrees_with_direct_entropy(self, n):
        for seed in range(6):
            cm = engineer_state(random_recipe(n, seed=300 * n + seed))
            sf = to_standard_form(cm)
            for k in range(1, n + 1):
                direct = entropy_one_vs_rest(cm, k)
                pairwise = entropy_via_pairwise(sf, k)
                assert abs(direct - pairwise) <= 1e-8

    @staticmethod
    def assert_inside_window(cm, sf):
        """The pairwise det sigma_i is within 1e-7 of the direct one, relatively.

        det sigma_i >= 1 on every mode of a pure state, so the pairwise value
        stays above 1 - 1e-7, far inside the entropy window's lower edge
        (1 - rank())^2 = 1 - 2e-6, below which entropy_via_pairwise refuses.
        """
        direct = np.diag(cm._dets)
        pairwise = 1.0 - np.array(sf._pairwise_sums)
        assert np.min(direct) >= 1.0
        assert np.max(np.abs(pairwise - direct) / direct) <= 1e-7
        assert np.min(pairwise) > (1.0 - tolerances.rank()) ** 2
        for k in range(1, cm.n_modes + 1):
            assert entropy_via_pairwise(sf, k) >= 0.0

    @pytest.mark.parametrize("s_max", [1e3, 1e4])
    def test_inside_the_entropy_window_at_large_squeezing(self, s_max):
        """Engineered states squeezed up to 1e3 and 1e4; the relative gap was at most
        1.3e-8 on them.  Most such states are refused by the standard form for
        residual q-p correlations, so only the ones it accepts are checked."""
        accepted = 0
        for n in (2, 3, 4, 6, 8, 12, 16):
            for seed in range(12):
                cm = engineer_state(random_recipe(n, seed, s_max))
                try:
                    sf = to_standard_form(cm)
                except NotInGenericClassError:
                    continue
                self.assert_inside_window(cm, sf)
                accepted += 1
        assert accepted >= 5

    @pytest.mark.parametrize("n", [5, 31, 101])
    def test_inside_the_entropy_window_on_rings(self, n):
        """Rings from coupling 1e-6, whose modes' det sigma_i sit 5e-13 above 1, to 1e6."""
        for coupling in (1e-6, 1e-3, 2.0, 1e6):
            cm = harmonic_ground_state(ring_potential(n, coupling))
            self.assert_inside_window(cm, to_standard_form(cm))


class TestLogNegativity:
    def test_two_mode_squeezed_closed_form(self):
        """For blocks a*I and diag(c, -c) the transposed minimum is a - c."""
        cm = engineer_state(TMS)
        assert log_negativity_pair(cm, 1, 2) == pytest.approx(-math.log2(0.5), abs=1e-10)

    def test_vacuum_pair_zero(self):
        assert log_negativity_pair(vacuum_cm(3), 1, 3) == 0.0

    def test_symmetric_in_modes(self):
        cm = engineer_state(random_recipe(4, 321))
        for i, j in [(1, 2), (2, 4), (1, 3)]:
            assert log_negativity_pair(cm, i, j) == pytest.approx(
                log_negativity_pair(cm, j, i), abs=1e-10
            )

    def test_rejects_equal_modes(self):
        with pytest.raises(ValueError, match="distinct"):
            log_negativity_pair(vacuum_cm(2), 1, 1)

    def test_nats_flag(self):
        cm = engineer_state(TMS)
        assert log_negativity_pair(cm, 1, 2, nats=True) == pytest.approx(
            math.log(2.0), abs=1e-10
        )

    @pytest.mark.parametrize("s", [1e-3, 0.1, 1.0 + 1e-9, 10.0, 100.0, 1e3])
    def test_squeezed_pair_exact_value(self, s):
        """Recipe(2, s) has blocks a*I and diag(c, -c) with a - c = 1/s^2, so
        E_N = 2 |log2 s|.  The entries a ~ c ~ s^2/2 carry rounding of
        eps * s^2 against a - c, which sets the reachable accuracy."""
        cm = engineer_state(Recipe(2, s))
        expected = 2.0 * abs(math.log2(s))
        tol = 1e-10 + np.finfo(float).eps * max(s, 1.0 / s) ** 4
        assert abs(log_negativity_pair(cm, 1, 2) - expected) <= tol
        assert abs(full_report(cm).pairwise_logneg[0, 1] - expected) <= tol

    def test_rejects_out_of_range_mode(self):
        with pytest.raises(ValueError, match="out of range"):
            log_negativity_pair(vacuum_cm(2), 1, 3)


class TestFullReport:
    def test_vacuum_all_zero(self):
        report = full_report(vacuum_cm(3))
        assert report.schmidt_parameter == pytest.approx(1.0, abs=1e-14)
        assert all(e == 0.0 for e in report.per_mode_entropy)
        np.testing.assert_array_equal(report.pairwise_logneg, np.zeros((3, 3)))
        np.testing.assert_array_equal(report.pairwise_detblocks, np.zeros((3, 3)))

    def test_three_mode_consistency(self):
        cm = engineer_state(random_recipe(3, 77))
        report = full_report(cm)
        sf = to_standard_form(cm)
        for k in range(1, 4):
            assert report.per_mode_entropy[k - 1] == pytest.approx(
                entropy_via_pairwise(sf, k), abs=1e-8
            )

    @pytest.mark.parametrize("n", [2, 8, 16, 33])
    def test_pairs_from_the_strict_upper_mask(self, n, monkeypatch):
        """The pair indices come from the strict upper mask, not np.triu_indices, and the
        report keeps the bits of the np.triu_indices route, on the block and dense routes."""
        cm = engineer_state(random_recipe(n, seed=n))
        moved = apply_symplectic(cm, random_local_symplectic(n, np.random.default_rng(n)))
        expected = []
        for state in (cm, moved):
            rows, cols = np.triu_indices(n, k=1)
            logneg = np.zeros((n, n))
            logneg[rows, cols] = logneg[cols, rows] = entanglement._log_negativities(state, rows, cols)
            expected.append(logneg.tobytes())
        forbid(monkeypatch, np, "triu_indices")
        assert [full_report(state).pairwise_logneg.tobytes() for state in (cm, moved)] == expected

    def test_two_mode_entangled_whenever_squeezed(self):
        for s in (0.5, 1.3, 2.0):
            report = full_report(engineer_state(Recipe(2, s)))
            assert report.pairwise_logneg[0, 1] > 0.0
        report = full_report(engineer_state(Recipe(2, 1.0)))
        assert report.pairwise_logneg[0, 1] == 0.0

    def test_rejects_mixed(self):
        with pytest.raises(NotPureError):
            full_report(CovarianceMatrix(1, np.diag([2.0, 2.0])))

    def test_non_positive_definite_pair_refused(self):
        """-I passes the purity identity; only the pair-block check refuses it,
        on the block route (its q-p block is zero) and on the dense one."""
        message = r"^a two-mode reduction is not positive definite$"
        minus = CovarianceMatrix(2, -np.eye(4))
        moved = apply_symplectic(minus, random_local_symplectic(2, np.random.default_rng(3)))
        assert is_pure(minus).residual == 0.0
        for cm, qp_free in ((minus, True), (moved, False)):
            assert cm._qp_free is qp_free
            assert is_pure(cm)
            with pytest.raises(ValueError, match=message):
                full_report(cm)
            for i, j in ((1, 2), (2, 1)):
                with pytest.raises(ValueError, match=message):
                    log_negativity_pair(cm, i, j)

    @pytest.mark.parametrize("n", [2, 7, 16])
    def test_one_purity_check_and_no_eigen_solves(self, n, monkeypatch):
        """One purity verdict: ``require_pure`` decides from the cached residual without ``is_pure``."""
        calls = {"require_pure": 0, "is_pure": 0, "symplectic_eigenvalues": 0, "_pair_blocks": 0}
        for name in calls:
            original = getattr(symplectic, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            # also on entanglement, in case it ever imports one of them by name
            for module in (symplectic, entanglement):
                monkeypatch.setattr(module, name, counted, raising=False)
        full_report(engineer_state(random_recipe(n, seed=n)))
        assert calls == {"require_pure": 1, "is_pure": 0, "symplectic_eigenvalues": 0, "_pair_blocks": 0}

    def test_one_purity_product_per_state_across_helpers(self, monkeypatch):
        """The state keeps its residual, so per-mode helpers share one product.

        The ring state has no q-p block and keeps its circulant rows, so that one product is
        row 0 of V_Q V_P.
        """
        calls = []
        for name in ("_purity_product", "_block_purity_product"):
            original = getattr(symplectic, name)

            def counted(*blocks, name=name, original=original):
                calls.append((name, blocks[0].shape[0]))
                return original(*blocks)

            monkeypatch.setattr(symplectic, name, counted)
        cm = harmonic_ground_state(ring_potential(31, 0.5))
        full_report(cm)
        for k in range(1, 32):
            entropy_one_vs_rest(cm, k)
            det_identity_residual(cm, k)
        to_standard_form(cm)
        assert calls == [("_block_purity_product", 1)]

    def test_one_block_determinant_pass_per_state_across_helpers(self, monkeypatch):
        """The state keeps its 2x2 block determinants, so per-mode helpers share one pass."""
        fills = count_fills(monkeypatch, CovarianceMatrix, "_dets")
        cm = harmonic_ground_state(ring_potential(31, 0.5))
        full_report(cm)
        for k in range(1, 32):
            det_identity_residual(cm, k)
            entropy_one_vs_rest(cm, k)
        log_negativity_pair(cm, 1, 2)
        assert fills == [31]

    @pytest.mark.parametrize("n", [16, 32, 101, 160])
    def test_strided_block_determinants_match_the_gathers(self, n):
        """The strided views multiply the same entries as the four fancy-index gathers,
        on a ring, an engineered state and the ring in a random local frame."""
        ring = harmonic_ground_state(ring_potential(n, 0.5))
        moved = apply_symplectic(ring, random_local_symplectic(n, np.random.default_rng(n)))
        modes = np.arange(n)
        for cm in (ring, engineer_state(random_recipe(n, seed=n)), moved):
            assert cm._dets.tobytes() == block_dets(cm.data, modes[:, None], modes).tobytes()

    def test_one_norm_per_state_across_helpers(self, monkeypatch):
        """The inf-norm is measured once, at construction, so no helper rescans the matrix."""
        cm = harmonic_ground_state(ring_potential(64, 0.5))
        assert is_pure(cm)
        norm = float(np.max(np.abs(cm.data)))
        s = squeezer(3, 2, 4.0)

        def refused(*args, **kwargs):
            raise AssertionError("np.abs called after construction")

        monkeypatch.setattr(np, "abs", refused)
        assert cm.inf_norm() == norm and s.inf_norm() == 4.0
        for k in range(1, 65):
            entropy_one_vs_rest(cm, k)
            det_identity_residual(cm, k)

    def test_rejects_out_of_range_schmidt_mode(self):
        with pytest.raises(ValueError, match="out of range"):
            full_report(vacuum_cm(2), schmidt_mode=3)

    def test_matrices_symmetric_zero_diagonal(self):
        report = full_report(engineer_state(random_recipe(4, 9)))
        np.testing.assert_array_equal(report.pairwise_logneg, report.pairwise_logneg.T)
        np.testing.assert_array_equal(np.diag(report.pairwise_logneg), np.zeros(4))
        np.testing.assert_array_equal(report.pairwise_detblocks, report.pairwise_detblocks.T)


class TestBlockRoute:
    """Pairs of a q-p-free state are read elementwise from V_Q and V_P."""

    def test_log_negativities_match_pair_stack(self):
        """Against the 4x4 stack formula, which the dense route keeps: measured at
        most 1.12 eps kappa(sigma) apart (ring N=31 at coupling 0.1); gate 8."""
        eps = np.finfo(float).eps
        for cm in block_route_states():
            rows, cols = np.triu_indices(cm.n_modes, k=1)
            nu2 = entanglement._dense_nu2(cm, rows, cols)
            stack = np.where(nu2 < 1.0, -0.5 * np.log2(nu2), 0.0)
            block = full_report(cm).pairwise_logneg[rows, cols]
            assert np.max(np.abs(block - stack)) <= 8.0 * eps * condition_number(cm)

    def test_no_pair_stack(self, monkeypatch):
        """full_report and log_negativity_pair build no 4x4 reduction and no 2N x 2N product."""
        cm = harmonic_ground_state(ring_potential(9, 0.5))
        forbid(monkeypatch, entanglement, "_pair_blocks", "_dense_nu2")
        forbid(monkeypatch, symplectic, "_purity_product")
        forbid(monkeypatch, np.linalg, "cholesky", "det", "svd")
        report = full_report(cm)
        assert log_negativity_pair(cm, 3, 2) == report.pairwise_logneg[1, 2] > 0.0

    def test_local_frames_take_the_pair_stack(self, monkeypatch):
        cm = engineer_state(random_recipe(4, seed=6))
        moved = apply_symplectic(cm, random_local_symplectic(4, np.random.default_rng(1)))
        assert not moved._qp_free
        forbid(monkeypatch, entanglement, "_block_nu2")
        rows, cols = np.triu_indices(4, k=1)
        nu2 = entanglement._dense_nu2(moved, rows, cols)
        np.testing.assert_array_equal(
            full_report(moved).pairwise_logneg[rows, cols],
            np.where(nu2 < 1.0, -0.5 * np.log2(nu2), 0.0),
        )


def per_call_schmidt(cm: CovarianceMatrix, mode_index: int) -> float:
    """Reference Schmidt value by the former per-call route: one block determinant."""
    k = mode_index - 1
    return float(np.sqrt(block_dets(cm.data, k, k)))


def masked_dot_entropy(sf, mode_index: int) -> float:
    """Reference pairwise entropy by the former per-call route: a masked row dot."""
    i = mode_index - 1
    others = np.arange(sf.n_modes) != i
    return bosonic_entropy(math.sqrt(1.0 - float(sf.vq[i, others] @ sf.vp[i, others])))


def determinant_states():
    """Engineered states, squeezed up to 30, and rings up to strong coupling."""
    states = [
        engineer_state(random_recipe(n, seed, s_max))
        for n in (2, 3, 5, 8, 16, 32)
        for seed in range(3)
        for s_max in (4.0, 30.0)
    ]
    states += [
        harmonic_ground_state(ring_potential(n, coupling))
        for n in (3, 31, 64)
        for coupling in (0.1, 2.0, 1e3)
    ]
    return states


class TestCachedDeterminants:
    """The helpers read one cached pass over the state's (or standard form's) blocks
    and give the per-call routes' bits (the pairwise sums up to summation order)."""

    def test_schmidt_and_report_bits(self):
        for cm in determinant_states():
            n = cm.n_modes
            reference = [per_call_schmidt(cm, k) for k in range(1, n + 1)]
            assert [schmidt_parameter(cm, k) for k in range(1, n + 1)] == reference
            report = full_report(CovarianceMatrix(n, cm.data), schmidt_mode=n)
            assert report.schmidt_parameter == reference[-1]
            assert report.per_mode_entropy == tuple(bosonic_entropy(v) for v in reference)

    def test_schmidt_bits_in_local_frames(self, rng):
        for n in (2, 5, 9):
            cm = engineer_state(random_recipe(n, seed=80 + n))
            for _ in range(3):
                moved = apply_symplectic(cm, random_local_symplectic(n, rng))
                for k in range(1, n + 1):
                    assert schmidt_parameter(moved, k) == per_call_schmidt(moved, k)

    def test_log_negativity_pair_reads_the_report_bits(self, rng):
        """Both orders of a pair give the report's bits, also in random local frames and on pure
        states squeezed until their entries reach about 1e150 or 1e-150."""
        states = determinant_states()[::3]
        states += [
            apply_symplectic(cm, random_local_symplectic(n, rng))
            for n in (3, 5, 9)
            for cm in [engineer_state(random_recipe(n, seed=90 + n))] * 2
        ]
        states.append(engineer_state(random_recipe(3, 0, 4.0)))  # (3, 1) once missed a bit
        states += squeezed_pure_states()
        assert {cm._qp_free for cm in states} == {True, False}
        for cm in states:
            logneg = full_report(cm).pairwise_logneg
            n = cm.n_modes
            for i, j in {(1, 2), (1, n), (2, n)} - {(2, 2)}:
                assert log_negativity_pair(cm, i, j) == logneg[i - 1, j - 1]
                assert log_negativity_pair(cm, j, i) == logneg[i - 1, j - 1]

    def test_log_negativity_pair_reads_the_report_bits_at_the_extremes(self, monkeypatch):
        """q-p-free states that are not pure, have entries near 1e150 or 1e-150, or have an
        indefinite two-mode reduction: both orders of every pair give the bits of the report's
        array route on that pair, or its ValueError text, with the same warnings.  A pair goes
        to the array route exactly when that route warns; every other pair is read as floats."""
        routed = record_calls(monkeypatch, entanglement, "_log_negativities")
        kinds = set()
        for cm in extreme_qp_free_states():
            assert cm._qp_free
            n = cm.n_modes
            for i, j in zip(*np.triu_indices(n, k=1)):
                expected = pair_outcome(
                    lambda: float(entanglement._log_negativities(cm, np.array([i]), np.array([j]))[0])
                )
                for a, b in ((i + 1, j + 1), (j + 1, i + 1)):
                    routed.clear()
                    assert pair_outcome(lambda: log_negativity_pair(cm, a, b)) == expected
                    assert len(routed) == bool(expected[1])
                kinds.add((type(expected[0]).__name__, bool(expected[1])))
        assert kinds == {("bytes", False), ("bytes", True), ("str", False)}

    def test_pairwise_entropy_matches_masked_dot(self):
        for cm in determinant_states():
            sf = to_standard_form(cm)
            for k in range(1, cm.n_modes + 1):
                assert entropy_via_pairwise(sf, k) == pytest.approx(
                    masked_dot_entropy(sf, k), rel=1e-12, abs=1e-12
                )

    def test_cached_determinants_are_read_only(self):
        cm = engineer_state(random_recipe(4, seed=5))
        full_report(cm)
        assert not cm._dets.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cm._dets[0, 0] = 1.0


def qp_free(q: np.ndarray, p: np.ndarray) -> CovarianceMatrix:
    """The state V_Q (+) V_P from two blocks, each symmetrized."""
    n = len(q)
    data = np.zeros((2 * n, 2 * n))
    data[0::2, 0::2], data[1::2, 1::2] = (q + q.T) / 2.0, (p + p.T) / 2.0
    return CovarianceMatrix(n, data)


def squeezed_pure_states():
    """Engineered pure states of 2, 3 and 4 modes with V_Q scaled by s and V_P by 1/s, for s that
    brings V_Q's largest entry to 1e140 or its smallest to 1e-140, and for s = 1e75 and 1e-75."""
    states = []
    for n in (2, 3, 4):
        vq, vp = (block + 0.0 for block in engineer_state(random_recipe(n, seed=n))._vq_vp)
        for scale in (1e140 / np.abs(vq).max(), 1e-140 / np.abs(vq).min(), 1e75, 1e-75):
            states.append(qp_free(vq * scale, vp / scale))
    return states


def extreme_qp_free_states():
    """q-p-free states at the edges of the pair route: the squeezed pure states, mixed ones with
    entries near 1e150 or 1e-150, whose nu^2 overflows or underflows, and pure or mixed ones
    with an indefinite two-mode reduction."""
    rng = np.random.default_rng(17)
    states = squeezed_pure_states()
    for n in (2, 3, 4):
        q, p = (random_spd(n, rng) for _ in range(2))
        q, p = q / np.abs(q).max(), p / np.abs(p).max()  # largest entry 1
        scales = [(1.0, 1.0), (1e150, 1e150), (1e77, 1e77), (1e-150, 1e-150), (1e-77, 1e-77)]
        for first, second in scales + [(1e150, 1e-150)]:
            states.append(qp_free(q * first, p * second))
        indefinite = np.eye(n) + 2.0 * np.roll(np.eye(n), 1, axis=1) + 2.0 * np.roll(np.eye(n), -1, axis=1)
        states.append(qp_free(indefinite, np.linalg.inv(indefinite)))
        states.append(qp_free(q, -p))
        states.append(qp_free(-q, p * 1e150))
    return states


def pair_outcome(query):
    """A query's bytes or its ValueError text, and the RuntimeWarnings it raised, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = np.float64(query()).tobytes()
        except ValueError as exc:
            result = f"{type(exc).__name__}: {exc}"
    return result, [f"{w.category.__name__}: {w.message}" for w in caught]


def entropy_outcome(query):
    """A query's float or its refusal, as ``outcome`` in test_symplectic: equal means equal bits."""
    try:
        return np.float64(query()).tobytes()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestPerModeQueries:
    """The four per-mode queries read the tolerance scale once per call, at every call, and
    take a plain int index by one compare, with every other index checked as before."""

    QUERIES = {
        "schmidt": lambda cm, sf, k: schmidt_parameter(cm, k),
        "entropy": lambda cm, sf, k: entropy_one_vs_rest(cm, k),
        "pairwise": lambda cm, sf, k: entropy_via_pairwise(sf, k),
        "det-identity": lambda cm, sf, k: det_identity_residual(cm, k),
    }

    @pytest.mark.parametrize("name", list(QUERIES))
    @pytest.mark.parametrize(
        "kind",
        [np.int64(2), np.int32(5), True, np.True_, 2.0, "1", 0, 6],
        ids=["int64", "int32", "True", "np.True_", "2.0", "str", "0", "N+1"],
    )
    def test_index_kinds(self, name, kind):
        """numpy integers give the plain int's bits; bools, floats and strings are not
        integers, and 0 and N + 1 are out of range, each with the message of before."""
        cm = harmonic_ground_state(ring_potential(5, 0.5))
        read = CovarianceMatrix.from_dict(cm.to_dict())
        query = self.QUERIES[name]
        if type(kind) in (int, np.int64, np.int32):
            expected = entropy_outcome(lambda: query(read, to_standard_form(read), int(kind)))
            if 1 <= kind <= 5:
                assert isinstance(expected, bytes)
            else:
                assert expected == f"ValueError: mode index {kind} out of range for 5 modes"
        else:
            expected = f"ValueError: mode index must be an integer, got {kind!r}"
        for state in (cm, read):
            assert entropy_outcome(lambda: query(state, to_standard_form(state), kind)) == expected

    def test_check_order(self):
        """A mixed state with an index out of range: the Schmidt value and the entropy refuse
        the state first, the det identity the index."""
        mixed = CovarianceMatrix(2, 2.0 * np.eye(4))
        for query in (schmidt_parameter, entropy_one_vs_rest):
            with pytest.raises(NotPureError):
                query(mixed, 3)
        with pytest.raises(ValueError, match=r"^mode index 3 out of range for 2 modes$"):
            det_identity_residual(mixed, 3)

    @staticmethod
    def single_mode(q: float, det: float) -> CovarianceMatrix:
        return CovarianceMatrix(1, np.diag([q, det / q]))

    def test_override_read_at_every_call(self, monkeypatch):
        """Each query on the same state flips its verdict when GF_TOL_OVERRIDE changes through
        os.environ between two calls: the purity refusal, the window's lower edge and its
        unit threshold all follow the scale of the call."""
        monkeypatch.setenv("GF_TOL_OVERRIDE", "1")  # restored at teardown
        # residual 2e-5 against 1e-9 (1 + 100^2) = 1.0e-5: mixed at scale 1, pure at 100
        impure = self.single_mode(100.0, 1.0 - 2e-5)
        # pure at scale 1, with nu = 0.99999 below the window at 1 and inside it at 100
        low = self.single_mode(1e3, 1.0 - 2e-5)
        # a two-mode squeezed state with nu - 1 = 1.8e-11: above the unit threshold 1e-12 at
        # scale 1, within 1e-10 at scale 100
        a, c = math.cosh(6e-6), math.sinh(6e-6)
        weak = CovarianceMatrix(
            2, [[a, 0, c, 0], [0, a, 0, -c], [c, 0, a, 0], [0, -c, 0, a]]
        )
        weak_sf = to_standard_form(weak)
        cases = [
            (lambda: schmidt_parameter(impure, 1), NotPureError),
            (lambda: entropy_one_vs_rest(impure, 1), NotPureError),
            (lambda: det_identity_residual(impure, 1), NotPureError),
            (lambda: entropy_one_vs_rest(low, 1), ValueError),
        ]
        for query, refusal in cases:
            os.environ["GF_TOL_OVERRIDE"] = "1"
            with pytest.raises(refusal):
                query()
            os.environ["GF_TOL_OVERRIDE"] = "100"
            assert math.isfinite(query())
        for query in (lambda: entropy_one_vs_rest(weak, 1), lambda: entropy_via_pairwise(weak_sf, 1)):
            os.environ["GF_TOL_OVERRIDE"] = "1"
            assert query() > 0.0
            os.environ["GF_TOL_OVERRIDE"] = "100"
            assert query() == 0.0

    def test_one_scale_read_per_call(self, monkeypatch):
        reads = []
        scale = tolerances.scale
        monkeypatch.setattr(tolerances, "scale", lambda: reads.append(1) or scale())
        cm = harmonic_ground_state(ring_potential(9, 0.5))
        sf = to_standard_form(cm)
        for query in self.QUERIES.values():
            reads.clear()
            query(cm, sf, 4)
            assert len(reads) == 1
        reads.clear()
        full_report(cm)
        assert len(reads) == 1

    @pytest.mark.parametrize("n", [3, 31, 160])
    def test_report_of_a_ring_computes_one_entropy(self, n, monkeypatch):
        """A ring's modes share one determinant, so the report takes one entropy, with the
        bytes of the same state read back from its document and of the per-mode query."""
        cm = harmonic_ground_state(ring_potential(n, 0.5))
        read = CovarianceMatrix.from_dict(cm.to_dict())
        calls = record_calls(monkeypatch, entanglement, "_entropy")
        entropies = full_report(cm).per_mode_entropy
        assert len(calls) == 1
        assert len(set(cm._mode_dets)) == 1 and cm._mode_dets == read._mode_dets
        monkeypatch.undo()
        assert np.array(entropies).tobytes() == np.array(full_report(read).per_mode_entropy).tobytes()
        assert entropies == tuple(entropy_one_vs_rest(cm, k) for k in range(1, n + 1))

    def test_mode_determinants_are_the_diagonal_of_the_block_determinants(self, rng):
        states = determinant_states() + [
            apply_symplectic(cm, random_local_symplectic(cm.n_modes, rng))
            for cm in determinant_states()[::5]
        ]
        for cm in states:
            assert np.array(cm._mode_dets).tobytes() == np.diag(cm._dets).tobytes()


def per_call_pairwise(sf, mode_index: int, nats: bool = False) -> float:
    """Reference pairwise entropy by the per-call formula: one bosonic_entropy a call."""
    det_block = 1.0 - symplectic._mode_entry(sf._pairwise_sums, mode_index)
    if det_block < 0.0:
        raise ValueError(f"pairwise accounting gave a negative determinant ({det_block:.3e})")
    return bosonic_entropy(math.sqrt(det_block), nats=nats)


def query_outcome(query):
    """A query's bytes, or its refusal's class and text."""
    try:
        return np.float64(query()).tobytes()
    except (ValueError, NotPureError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.fixture(scope="module")
def memo_states():
    """Rings N {3, 5, 9, 31, 64, 101, 160} x c {0.1, 0.5, 2, 1e3, 1e6}, engineered states
    N 2..16 x s_max {4, 1e2, 1e3, 1e4} and a two-mode squeezed state with nu - 1 = 1.8e-11,
    whose entropy is 0 only at scale 100, each with its standard form, or None where refused."""
    a, c = math.cosh(6e-6), math.sinh(6e-6)
    states = [CovarianceMatrix(2, [[a, 0, c, 0], [0, a, 0, -c], [c, 0, a, 0], [0, -c, 0, a]])]
    states += [
        harmonic_ground_state(ring_potential(n, coupling))
        for n in (3, 5, 9, 31, 64, 101, 160)
        for coupling in (0.1, 0.5, 2.0, 1e3, 1e6)
    ]
    states += [
        engineer_state(random_recipe(n, seed=n, s_max=s_max))
        for n in range(2, 17)
        for s_max in (4.0, 1e2, 1e3, 1e4)
    ]
    pairs = []
    for cm in states:
        try:
            pairs.append((cm, to_standard_form(cm)))
        except NotInGenericClassError:
            pairs.append((cm, None))
    return pairs


class TestEntropyMemo:
    """A state and a standard form keep the entropy of each accepted determinant at the tolerance
    scale of their last query: the per-call formula's bits, one entropy per distinct determinant,
    and a fresh one after a scale change or a refusal."""

    def test_per_call_bits(self, memo_states, monkeypatch):
        """Both queries, in ebits and nats, twice over every mode and at indices 0 and N + 1,
        on the same objects at each scale in turn: the bytes and refusal texts of the formula."""
        assert sum(sf is None for _, sf in memo_states) > 0
        for override in (None, "1", "100", "1e-3"):
            if override is None:
                monkeypatch.delenv("GF_TOL_OVERRIDE", raising=False)
            else:
                monkeypatch.setenv("GF_TOL_OVERRIDE", override)
            for cm, sf in memo_states:
                n = cm.n_modes
                for k in (0, *range(1, n + 1), *range(1, n + 1), n + 1):
                    for nats in (False, True):
                        assert query_outcome(lambda: entropy_one_vs_rest(cm, k, nats)) == query_outcome(
                            lambda: bosonic_entropy(schmidt_parameter(cm, k), nats=nats)
                        )
                        if sf is not None:
                            assert query_outcome(lambda: entropy_via_pairwise(sf, k, nats)) == query_outcome(
                                lambda: per_call_pairwise(sf, k, nats)
                            )
                for k in (0, n + 1):
                    refusal = f"ValueError: mode index {k} out of range for {n} modes"
                    if sf is not None:
                        assert query_outcome(lambda: entropy_via_pairwise(sf, k)) == refusal
                    if is_pure(cm):
                        assert query_outcome(lambda: entropy_one_vs_rest(cm, k)) == refusal

    @pytest.mark.parametrize("n", [3, 31, 64, 101, 160])
    @pytest.mark.parametrize("coupling", [0.1, 2.0])
    def test_one_entropy_per_distinct_determinant(self, n, coupling, monkeypatch):
        """A fresh ring's 2N queries take one direct entropy and one per distinct pairwise
        determinant; asking again takes none."""
        cm = harmonic_ground_state(ring_potential(n, coupling))
        sf = to_standard_form(cm)
        calls = record_calls(monkeypatch, entanglement, "_entropy")
        direct = [entropy_one_vs_rest(cm, k) for k in range(1, n + 1)]
        assert len(calls) == len(set(cm._mode_dets)) == 1
        pairwise = [entropy_via_pairwise(sf, k) for k in range(1, n + 1)]
        assert len(calls) == 1 + len({1.0 - value for value in sf._pairwise_sums})
        calls.clear()
        nats = [entropy_one_vs_rest(cm, k, nats=True) for k in range(1, n + 1)]
        assert nats == [value * math.log(2.0) for value in direct]
        assert [entropy_via_pairwise(sf, k) for k in range(1, n + 1)] == pairwise
        assert calls == []

    def test_scale_change_recomputes(self, monkeypatch):
        """Each scale change between two calls replaces the memo; an unchanged scale reads it."""
        cm = harmonic_ground_state(ring_potential(9, 0.5))
        sf = to_standard_form(cm)
        calls = record_calls(monkeypatch, entanglement, "_entropy")
        for override, fresh in (("1", 2), ("1", 0), ("100", 2), ("100", 0), ("1e-3", 2), ("1", 2)):
            monkeypatch.setenv("GF_TOL_OVERRIDE", override)
            calls.clear()
            values = entropy_one_vs_rest(cm, 3), entropy_via_pairwise(sf, 3)
            assert len(calls) == fresh
            assert values == (bosonic_entropy(schmidt_parameter(cm, 3)), per_call_pairwise(sf, 3))
            assert cm._entropies[0] == sf._entropies[0] == float(override)

    def test_refusals_are_not_kept(self, monkeypatch):
        """A refused entropy is computed again at the next call, with the same text."""
        monkeypatch.setenv("GF_TOL_OVERRIDE", "1")
        low = CovarianceMatrix(1, np.diag([1e3, (1.0 - 2e-5) / 1e3]))  # nu = 0.99999: below the window
        calls = record_calls(monkeypatch, entanglement, "_entropy")
        texts = {query_outcome(lambda: entropy_one_vs_rest(low, 1)) for _ in range(3)}
        assert len(calls) == 3 and len(texts) == 1 and "lies outside" in texts.pop()
        assert low._entropies == (1.0, {})


@pytest.fixture(scope="module")
def sweep_states():
    """The acceptance sweep: 100 recipes per N = 2..10."""
    return [
        engineer_state(random_recipe(n, 1000 * n + idx))
        for n in range(2, 11)
        for idx in range(100)
    ]


class TestEigenOracle:
    def test_acceptance_sweep(self, sweep_states):
        for cm in sweep_states:
            assert_matches_eigen_route(cm)

    @pytest.mark.parametrize("n", [5, 31, 64])
    @pytest.mark.parametrize("coupling", [0.1, 0.5, 2.0])
    def test_rings(self, n, coupling):
        assert_matches_eigen_route(harmonic_ground_state(ring_potential(n, coupling)))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        s_max=st.floats(min_value=1.0, max_value=100.0, exclude_min=True),
    )
    def test_random_recipes(self, n, seed, s_max):
        cm = engineer_state(random_recipe(n, seed, s_max))
        assert_matches_eigen_route(cm, conditioned=True)

    def test_partial_transpose_spectra_match_closed_form(self):
        """The smallest symplectic eigenvalue of a partially transposed pair is
        2^(-E_N), to 1e-7 relative, for entangled pairs squeezed up to 100."""
        flip = np.diag([1.0, 1.0, 1.0, -1.0])
        entangled = 0
        for n in (2, 3, 4):
            for seed in range(200):
                cm = engineer_state(random_recipe(n, seed, 100.0))
                logneg = log_negativity_pair(cm, 1, 2)
                if logneg == 0.0:
                    continue
                entangled += 1
                nu_min = symplectic_eigenvalues(flip @ reduced_cm(cm, (1, 2)).data @ flip)[-1]
                assert nu_min == pytest.approx(2.0**-logneg, rel=1e-7, abs=0.0)
        assert entangled >= 400


class TestLocalUnitaryInvariance:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_entropies_and_lognegs_invariant(self, n, rng):
        cm = engineer_state(random_recipe(n, seed=1000 + n))
        base = full_report(cm)
        for _ in range(5):
            moved = apply_symplectic(cm, random_local_symplectic(n, rng))
            report = full_report(moved)
            np.testing.assert_allclose(
                report.per_mode_entropy, base.per_mode_entropy, atol=1e-8
            )
            np.testing.assert_allclose(
                report.pairwise_logneg, base.pairwise_logneg, atol=1e-8
            )


class TestMonotoneResponse:
    def test_det_block_responds_to_one_correlation(self):
        """Raising one off-diagonal of V_Q strictly raises |det eps_ij| for that pair."""
        base = np.array([0.0, 0.3, 0.2])  # N=3 off-diagonals (12, 13, 23)
        dets = []
        for v in [0.0, 0.2, 0.4, 0.6, 0.8]:
            off = base.copy()
            off[0] = v
            state = standard_form_to_cm(reconstruct_diagonal(off, 3))
            dets.append(abs(np.linalg.det(mode_block(state, 1, 2))))
        assert all(b > a for a, b in zip(dets, dets[1:]))
