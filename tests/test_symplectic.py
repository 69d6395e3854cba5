"""Tests for the phase-space linear algebra core."""

import os

import click
import numpy as np
import pytest
from click.testing import CliRunner

from gaussforge import symplectic, tolerances
from gaussforge.engineering import engineer_state, random_recipe
from gaussforge.entanglement import full_report
from gaussforge.errors import InputFormatError, NotPureError
from gaussforge.standard_form import (
    det_identity_residual,
    harmonic_ground_state,
    ring_potential,
    to_standard_form,
)
from gaussforge.symplectic import (
    CovarianceMatrix,
    is_bona_fide,
    is_pure,
    require_pure,
    symplectic_eigenvalues,
    symplectic_form,
    vacuum_cm,
    williamson_spectrum,
)

from conftest import (
    block_route_states,
    condition_number,
    forbid,
    random_local_symplectic,
    random_spd,
)
from oracles import (
    SymplecticMatrix,
    apply_symplectic,
    beam_splitter,
    mode_block,
    reduced_cm,
    squeezer,
)


class TestSymplecticForm:
    def test_single_mode(self):
        np.testing.assert_array_equal(symplectic_form(1), [[0.0, 1.0], [-1.0, 0.0]])

    def test_two_modes_is_direct_sum(self):
        omega = symplectic_form(2)
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[2, 3] = 1.0
        expected[1, 0] = expected[3, 2] = -1.0
        np.testing.assert_array_equal(omega, expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_antisymmetric_and_squares_to_minus_identity(self, n):
        omega = symplectic_form(n)
        np.testing.assert_array_equal(omega.T, -omega)
        # entries are exactly 0/+1/-1, so this holds in exact arithmetic
        np.testing.assert_array_equal(omega @ omega, -np.eye(2 * n))

    def test_rejects_nonpositive_mode_count(self):
        with pytest.raises(ValueError):
            symplectic_form(0)


class TestVacuum:
    @pytest.mark.parametrize("n", [1, 3])
    def test_is_identity(self, n):
        np.testing.assert_array_equal(vacuum_cm(n).data, np.eye(2 * n))

    def test_spectrum_all_ones(self):
        spectrum = williamson_spectrum(vacuum_cm(4))
        assert spectrum.values == (1.0, 1.0, 1.0, 1.0)
        assert spectrum.rank == 0


class TestSqueezer:
    def test_squeezes_vacuum(self):
        cm = apply_symplectic(vacuum_cm(1), squeezer(1, 1, 2.0))
        np.testing.assert_allclose(cm.data, np.diag([4.0, 0.25]), atol=1e-15)

    def test_unit_squeezing_is_identity(self):
        np.testing.assert_array_equal(squeezer(3, 2, 1.0).data, np.eye(6))

    @pytest.mark.parametrize("s", [0.1, 0.5, 2.0, 7.3])
    def test_symplectic_and_unit_determinant(self, s):
        mat = squeezer(2, 1, s).data
        assert np.linalg.det(mat) == pytest.approx(1.0, abs=1e-12)
        omega = symplectic_form(2)
        np.testing.assert_allclose(mat.T @ omega @ mat, omega, atol=1e-14)

    def test_rejects_nonpositive_squeezing(self):
        with pytest.raises(ValueError, match="positive"):
            squeezer(1, 1, 0.0)
        with pytest.raises(ValueError, match="positive"):
            squeezer(1, 1, -2.0)

    def test_rejects_bad_mode_index(self):
        with pytest.raises(ValueError, match="out of range"):
            squeezer(2, 3, 1.5)


class TestBeamSplitter:
    def test_balanced_splitter_fixes_vacuum(self):
        cm = apply_symplectic(vacuum_cm(2), beam_splitter(2, 1, 2, 0.5))
        np.testing.assert_allclose(cm.data, np.eye(4), atol=1e-15)

    @pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
    def test_orthogonal_and_symplectic(self, t):
        mat = beam_splitter(2, 1, 2, t).data
        np.testing.assert_allclose(mat.T @ mat, np.eye(4), atol=1e-14)
        omega = symplectic_form(2)
        np.testing.assert_allclose(mat.T @ omega @ mat, omega, atol=1e-14)

    def test_two_mode_squeezed_composite(self):
        """Multiply the three step-1 matrices by hand: s^2 = 2 gives a = 1.25, c = 0.75."""
        s = np.sqrt(2.0)
        sq1 = np.diag([s, 1.0 / s, 1.0, 1.0])
        sq2 = np.diag([1.0, 1.0, 1.0 / s, s])
        h = np.sqrt(0.5)
        bs = np.array(
            [
                [h, 0.0, h, 0.0],
                [0.0, h, 0.0, h],
                [-h, 0.0, h, 0.0],
                [0.0, -h, 0.0, h],
            ]
        )
        total = sq1 @ sq2 @ bs
        sigma = total.T @ total  # congruence on the identity (vacuum)
        expected = np.array(
            [
                [1.25, 0.0, 0.75, 0.0],
                [0.0, 1.25, 0.0, -0.75],
                [0.75, 0.0, 1.25, 0.0],
                [0.0, -0.75, 0.0, 1.25],
            ]
        )
        np.testing.assert_allclose(sigma, expected, atol=1e-14)
        # the dense gate oracles reproduce the same state
        cm = vacuum_cm(2)
        cm = apply_symplectic(cm, squeezer(2, 1, s))
        cm = apply_symplectic(cm, squeezer(2, 2, 1.0 / s))
        cm = apply_symplectic(cm, beam_splitter(2, 1, 2, 0.5))
        np.testing.assert_allclose(cm.data, expected, atol=1e-14)

    @pytest.mark.parametrize("t", [0.0, 1.0, -0.2, 1.3])
    def test_rejects_boundary_transmittivity(self, t):
        with pytest.raises(ValueError, match="strictly in"):
            beam_splitter(2, 1, 2, t)

    def test_rejects_equal_modes(self):
        with pytest.raises(ValueError, match="distinct"):
            beam_splitter(2, 1, 1, 0.5)


class TestApplySymplectic:
    def test_identity_fixed_point(self):
        cm = vacuum_cm(3)
        out = apply_symplectic(cm, SymplecticMatrix(3, np.eye(6)))
        np.testing.assert_array_equal(out.data, cm.data)

    def test_congruence_composes(self, rng):
        cm = CovarianceMatrix(2, random_spd(4, rng))
        s1 = beam_splitter(2, 1, 2, 0.3)
        s2 = squeezer(2, 2, 1.7)
        chained = apply_symplectic(apply_symplectic(cm, s1), s2)
        combined = apply_symplectic(cm, s1 @ s2)
        np.testing.assert_allclose(chained.data, combined.data, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            apply_symplectic(vacuum_cm(2), squeezer(3, 1, 2.0))

    def test_output_exactly_symmetric(self, rng):
        cm = CovarianceMatrix(3, random_spd(6, rng))
        out = apply_symplectic(cm, random_local_symplectic(3, rng))
        np.testing.assert_array_equal(out.data, out.data.T)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_spectrum_invariant_under_congruence(self, n, rng):
        """Symplectic congruence preserves the symplectic spectrum."""
        cm = CovarianceMatrix(n, random_spd(2 * n, rng))
        before = symplectic_eigenvalues(cm.data)
        mover = random_local_symplectic(n, rng)
        if n >= 2:
            mover = mover @ beam_splitter(n, 1, n, 0.37) @ squeezer(n, 1, 1.9)
        after = symplectic_eigenvalues(apply_symplectic(cm, mover).data)
        np.testing.assert_allclose(after, before, atol=1e-8)


class TestSymplecticMatrixValidation:
    def test_rejects_nonsymplectic(self):
        with pytest.raises(ValueError, match="not symplectic"):
            SymplecticMatrix(1, np.diag([2.0, 2.0]))

    def test_defect_tolerance_follows_the_override(self, monkeypatch):
        """diag(2, 2) has defect 3 against 1e-10 * 2^2; GF_TOL_OVERRIDE scales that bound."""
        monkeypatch.delenv("GF_TOL_OVERRIDE", raising=False)
        with pytest.raises(ValueError) as info:
            SymplecticMatrix(1, np.diag([2.0, 2.0]))
        assert str(info.value) == "matrix is not symplectic: defect 3.000e+00 exceeds 4.000e-10"
        monkeypatch.setenv("GF_TOL_OVERRIDE", "1e10")
        assert SymplecticMatrix(1, np.diag([2.0, 2.0])).inf_norm() == 2.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        """A nan defect compares false with any tolerance, so it must not pass as small."""
        with pytest.raises(ValueError, match="must be finite"):
            SymplecticMatrix(1, [[bad, 0.0], [0.0, 1.0]])
        data = np.eye(4)
        data[0, 3] = bad
        with pytest.raises(ValueError, match="must be finite"):
            SymplecticMatrix(2, data)

    def test_products_of_primitives_stay_symplectic(self, rng):
        """Defect stays below 1e-10 relative for long primitive products."""
        n = 4
        omega = symplectic_form(n)
        total = SymplecticMatrix(n, np.eye(2 * n))
        for _ in range(60):
            if rng.uniform() < 0.5:
                total = total @ squeezer(n, int(rng.integers(1, n + 1)), float(np.exp(rng.uniform(-1.4, 1.4))))
            else:
                i, j = rng.choice(np.arange(1, n + 1), size=2, replace=False)
                total = total @ beam_splitter(n, int(i), int(j), float(rng.uniform(0.05, 0.95)))
            defect = np.max(np.abs(total.data.T @ omega @ total.data - omega))
            assert defect <= 1e-10 * max(1.0, total.inf_norm()) ** 2


class TestWilliamson:
    def test_squeezed_vacuum_stays_pure(self):
        cm = apply_symplectic(vacuum_cm(1), squeezer(1, 1, 3.0))
        assert williamson_spectrum(cm).values == (1.0,)

    def test_reduced_two_mode_squeezed_block(self):
        cm = CovarianceMatrix(1, np.diag([1.25, 1.25]))
        np.testing.assert_allclose(williamson_spectrum(cm).values, [1.25], atol=1e-12)

    def test_thermal_rank_one(self):
        cm = CovarianceMatrix(1, np.diag([2.0, 2.0]))
        spectrum = williamson_spectrum(cm)
        np.testing.assert_allclose(spectrum.values, [2.0], atol=1e-12)
        assert spectrum.rank == 1

    def test_rejects_non_positive_definite(self):
        cm = CovarianceMatrix(1, np.diag([1.0, -1.0]))
        with pytest.raises(
            ValueError, match=r"^matrix is not positive definite \(min eigenvalue -1\.000e\+00\)$"
        ):
            williamson_spectrum(cm)

    @pytest.mark.parametrize(
        "nus, gates",
        [
            ((1e6, 1.0), [beam_splitter(2, 1, 2, 0.3)]),
            ((1e6, 1.0), [squeezer(2, 2, 3.0), beam_splitter(2, 1, 2, 0.3)]),
            ((1.0, 1e5), [squeezer(2, 1, 3.0), beam_splitter(2, 1, 2, 0.7)]),
            (
                (1e6, 3.0, 1.0),
                [beam_splitter(3, 1, 2, 0.5), squeezer(3, 3, 10.0), beam_splitter(3, 2, 3, 0.2)],
            ),
            (
                (1e5, 1e5, 2.0, 1.0),
                [
                    beam_splitter(4, 1, 3, 0.4),
                    beam_splitter(4, 2, 4, 0.6),
                    squeezer(4, 3, 5.0),
                    beam_splitter(4, 3, 4, 0.5),
                ],
            ),
        ],
        ids=["split", "squeeze-split", "pure-mode-squeezed", "three-modes", "four-modes"],
    )
    def test_exact_spectrum_of_transformed_thermal_state(self, nus, gates):
        """sigma = S^T (+)nu_k I_2 S has spectrum nu; each value is resolved to
        eps * nu_max / nu_min, so a unit eigenvalue next to 1e6 stays bona fide."""
        cm = CovarianceMatrix(len(nus), np.diag(np.repeat(nus, 2)))
        for gate in gates:
            cm = apply_symplectic(cm, gate)
        values = symplectic_eigenvalues(cm.data)
        np.testing.assert_allclose(values, sorted(nus, reverse=True), rtol=1e-8, atol=0.0)
        assert is_bona_fide(cm)

    def test_one_cholesky_and_one_svd(self, monkeypatch):
        """An accepted matrix costs one factorization and one singular-value solve."""
        data = engineer_state(random_recipe(5, seed=2)).data
        calls = []
        for name in ("cholesky", "svd", "eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        symplectic_eigenvalues(data)
        assert calls == ["cholesky", "svd"]

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_pure_states_have_unit_spectrum(self, n):
        cm = engineer_state(random_recipe(n, seed=3 * n + 1))
        values = np.array(williamson_spectrum(cm).values)
        np.testing.assert_allclose(values, 1.0, atol=1e-8)
        assert williamson_spectrum(cm).rank == 0
        assert is_pure(cm)


def with_qp_block(cm, value, entry=None):
    """The state's data with its q-p block, or only one entry of it, set to value."""
    data = np.array(cm.data)
    rows, cols = (slice(0, None, 2), slice(1, None, 2)) if entry is None else entry
    data[rows, cols] = value
    data[cols, rows] = value
    return CovarianceMatrix(cm.n_modes, data)


class TestBlockRoute:
    """A CM with an exactly zero q-p block is V_Q (+) V_P, analysed on the two blocks."""

    def test_spectrum_matches_dense(self):
        """Singular values of L_Q^T L_P against the dense 2N x 2N route: measured at
        most 1.43 eps kappa(sigma) apart (ring N=64 at coupling 0.1); gate 8."""
        eps = np.finfo(float).eps
        for cm in block_route_states():
            assert cm._qp_free
            block = symplectic._williamson_values(cm)
            dense = symplectic_eigenvalues(cm.data)
            assert np.max(np.abs(block - dense)) <= 8.0 * eps * condition_number(cm)

    def test_no_dense_work(self, monkeypatch):
        """Every factorization or product is N x N: no 2N x 2N matrix is formed."""
        cm = engineer_state(random_recipe(6, seed=4))
        forbid(monkeypatch, symplectic, "_purity_product", "symplectic_eigenvalues")
        shapes = []
        for name in ("cholesky", "svd"):
            original = getattr(np.linalg, name)

            def recorded(matrix, *args, _original=original, **kwargs):
                shapes.append(np.shape(matrix))
                return _original(matrix, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        assert is_pure(cm)
        assert williamson_spectrum(cm).rank == 0
        assert is_bona_fide(cm)
        assert shapes == [(6, 6)] * 6

    @pytest.mark.parametrize("tiny", [1e-300, -1e-300])
    def test_one_tiny_qp_entry_takes_dense_route(self, tiny, monkeypatch):
        cm = with_qp_block(engineer_state(random_recipe(4, seed=1)), tiny, entry=(2, 5))
        assert not cm._qp_free
        forbid(monkeypatch, symplectic, "_block_purity_product")
        assert is_pure(cm).residual == symplectic._purity_product(cm.data)
        np.testing.assert_array_equal(
            symplectic._williamson_values(cm), symplectic_eigenvalues(cm.data)
        )
        assert is_bona_fide(cm)

    def test_negative_zero_qp_block_takes_block_route(self, monkeypatch):
        cm = engineer_state(random_recipe(5, seed=2))
        signed = with_qp_block(cm, -0.0)
        assert np.all(np.signbit(signed.data[0::2, 1::2]))
        assert signed._qp_free
        forbid(monkeypatch, symplectic, "_purity_product", "symplectic_eigenvalues")
        assert is_pure(signed).residual == is_pure(cm).residual
        assert williamson_spectrum(signed) == williamson_spectrum(cm)
        assert is_bona_fide(signed)

    def test_minus_identity_keeps_the_dense_refusal(self):
        """-I passes the purity identity; its blocks have no Cholesky factor, so the
        dense route names the smallest eigenvalue, as for every other CM."""
        cm = CovarianceMatrix(2, -np.eye(4))
        assert cm._qp_free and is_pure(cm)
        with pytest.raises(
            ValueError, match=r"^matrix is not positive definite \(min eigenvalue -1\.000e\+00\)$"
        ):
            williamson_spectrum(cm)
        assert not is_bona_fide(cm)


def outcome(compute):
    """What a computation gives, as bytes or its refusal: equal outcomes mean equal bits."""
    try:
        value = compute()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    return np.asarray(value).tobytes()


class TestFromBlocks:
    """States built from V_Q and V_P skip the constructor's scans and match it bit for bit."""

    def test_same_bits_as_the_dense_rebuild(self):
        """Every block-built state and its copy through the public constructor agree bit for bit.

        A ring keeps its rows and forms only row 0 of its circulant V_Q V_P for its purity
        residual, while the copy forms all of it: the ring's residual has the bits of the same
        row-0 product on the copy's blocks, and both residuals stay within the tolerance."""
        for cm in block_route_states():
            n = cm.n_modes
            queries = [
                lambda cm: cm._dets,
                lambda cm: williamson_spectrum(cm).values,
                lambda cm: [det_identity_residual(cm, k) for k in range(1, n + 1)],
                lambda cm: full_report(cm).per_mode_entropy,
                lambda cm: full_report(cm).pairwise_logneg,
                lambda cm: full_report(cm).pairwise_detblocks,
                lambda cm: to_standard_form(cm).vq,
            ]
            dense = CovarianceMatrix(n, cm.data)
            assert dense._qp_free and dense.inf_norm() == cm.inf_norm()
            assert [outcome(lambda: query(cm)) for query in queries] == [
                outcome(lambda: query(dense)) for query in queries
            ]
            assert dense._rows is None
            if cm._rows is None:
                assert cm._purity_residual == dense._purity_residual
            else:
                vq, vp = dense._vq_vp
                assert cm._purity_residual == symplectic._identity_residual(vq[:1] @ vp)
                tol = tolerances.purity(cm.inf_norm())
                assert max(cm._purity_residual, dense._purity_residual) <= 1e-6 * tol
            assert cm.data.tobytes() == dense.data.tobytes()
            assert not np.any(np.signbit(cm.data[0::2, 1::2]))  # its q-p zeros are +0.0

    def test_no_symmetry_or_qp_scan(self, monkeypatch):
        forbid(monkeypatch, symplectic, "_check_symmetric", "_dense_data")
        cm = harmonic_ground_state(ring_potential(7, 0.5))
        assert vars(cm)["_qp_free"]  # set by construction, not by the cached scan

    def test_data_and_blocks_are_read_only(self):
        cm = harmonic_ground_state(ring_potential(5, 0.5))
        for array in (*cm._vq_vp, cm.data):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 2.0

    @pytest.mark.parametrize("huge", [1e160, np.nan, np.inf])
    def test_bound_refused_with_the_constructor_message(self, huge):
        vq, vp = np.diag([1.0, huge]), np.eye(2)
        with pytest.raises(ValueError) as dense:
            CovarianceMatrix(2, np.diag([1.0, 1.0, huge, 1.0]))
        with pytest.raises(ValueError) as built:
            symplectic._from_blocks(vq, vp)
        assert str(built.value) == str(dense.value)

    @pytest.mark.parametrize("huge", [1e160, np.nan, np.inf])
    def test_bound_of_the_momentum_block_refused(self, huge):
        """Each block is bounded on its own: a nan in V_P, after V_Q's finite largest
        entry, is not dropped by the max over the two."""
        with pytest.raises(ValueError, match="covariance matrix entries must be finite"):
            symplectic._from_blocks(np.eye(2), np.diag([1.0, huge]))

    def test_norm_is_the_dense_inf_norm(self, rng):
        vq = random_spd(9, rng)
        cm = symplectic._from_blocks(vq, np.linalg.inv(vq))
        assert cm.inf_norm() == float(np.max(np.abs(cm.data)))


class TestBonaFide:
    def test_vacuum_and_squeezed_accepted(self):
        assert is_bona_fide(vacuum_cm(2))
        assert is_bona_fide(CovarianceMatrix(1, np.diag([4.0, 0.25])))

    def test_sub_vacuum_noise_rejected(self):
        assert not is_bona_fide(CovarianceMatrix(1, np.diag([0.5, 0.5])))
        assert not is_bona_fide(CovarianceMatrix(1, np.diag([4.0, 0.2])))

    def test_indefinite_rejected(self):
        assert not is_bona_fide(CovarianceMatrix(1, np.diag([1.0, -1.0])))


def dense_purity_residual(cm):
    """The purity residual as written, with the dense symplectic form."""
    omega = symplectic_form(cm.n_modes)
    residual = -omega @ cm.data @ omega @ cm.data - np.eye(2 * cm.n_modes)
    return float(np.max(np.abs(residual)))


def purity_oracle_states():
    rng = np.random.default_rng(7)
    states = [
        engineer_state(random_recipe(n, seed=n, s_max=s_max))
        for n in range(2, 17)
        for s_max in (4.0, 30.0)
    ]
    states += [harmonic_ground_state(ring_potential(n, 0.5)) for n in (31, 64)]
    states.append(apply_symplectic(states[5], random_local_symplectic(states[5].n_modes, rng)))
    states.append(CovarianceMatrix(2, np.diag([2.0, 2.0, 3.0, 3.0])))
    return states


class TestPurity:
    def test_vacuum_residual_zero(self):
        result = is_pure(vacuum_cm(3))
        assert result.pure
        assert result.residual == 0.0

    def test_thermal_not_pure(self):
        result = is_pure(CovarianceMatrix(1, np.diag([2.0, 2.0])))
        assert not result.pure
        # -Omega sigma Omega sigma = 4*identity, so the residual is 3
        assert result.residual == pytest.approx(3.0, abs=1e-14)

    @pytest.mark.xfail(strict=True, raises=AssertionError)
    def test_squeezed_thermal_not_pure(self):
        """ROADMAP.md item 4: the thermal state above, squeezed by 316, passes today, though its
        Williamson spectrum (2,) has rank 1; at a squeezing of 100 it is refused."""
        s = 316.0
        cm = CovarianceMatrix(1, np.diag([2.0 * s**2, 2.0 / s**2]))
        assert williamson_spectrum(cm).rank == 1
        assert not is_pure(cm).pure

    @pytest.mark.parametrize("seed", range(8))
    def test_engineered_states_pure(self, seed):
        cm = engineer_state(random_recipe(4, seed))
        result = is_pure(cm)
        assert result.pure
        assert result.residual <= 1e-9 * (1.0 + cm.inf_norm() ** 2)

    def test_bit_equal_to_dense_formula(self):
        """Index swaps reproduce -Omega sigma Omega exactly, so only one product is left.

        States with q-p terms keep that 2N x 2N product and its bits.  A
        q-p-free state takes max|V_Q V_P - I| instead, which sums in another
        order: on these states it moved by at most 0.31 eps (1 + |sigma|^2)
        and on 31 of the 33 not at all.  A diagonal state, such as the
        thermal one, has one nonzero term per product entry on both routes,
        so its residual keeps the dense bits.
        """
        eps = np.finfo(float).eps
        routes = set()
        for cm in purity_oracle_states():
            residual, dense = is_pure(cm).residual, dense_purity_residual(cm)
            diagonal = not np.any(cm.data - np.diag(np.diag(cm.data)))
            routes.add("diagonal" if diagonal else cm._qp_free)
            if diagonal:
                assert cm._qp_free
                assert residual == dense
            elif cm._qp_free:
                bound = 2.0 * eps * (1.0 + cm.inf_norm() ** 2)
                tol = tolerances.purity(cm.inf_norm())
                assert abs(residual - dense) <= bound
                assert (residual <= tol) == (dense <= tol)
            else:
                assert residual == dense
        assert routes == {True, False, "diagonal"}

    def test_verdict_follows_tol_override_after_caching(self, monkeypatch):
        """The residual is kept on the state; the tolerance is read at each check."""
        monkeypatch.delenv("GF_TOL_OVERRIDE", raising=False)
        cm = CovarianceMatrix(1, np.diag([1.0 + 1e-8, 1.0 + 1e-8]))
        assert not is_pure(cm)
        with pytest.raises(NotPureError):
            require_pure(cm)
        monkeypatch.setenv("GF_TOL_OVERRIDE", "100")
        assert is_pure(cm)
        require_pure(cm)
        monkeypatch.setenv("GF_TOL_OVERRIDE", "1")
        assert not is_pure(cm)
        os.environ["GF_TOL_OVERRIDE"] = "100"  # a plain write after import; teardown restores the variable
        assert is_pure(cm)
        del os.environ["GF_TOL_OVERRIDE"]
        assert not is_pure(cm)

    def test_tol_override_change_between_calls_takes_effect(self, monkeypatch):
        """The environment is read at every call, so a change after import takes effect."""
        monkeypatch.setenv("GF_TOL_OVERRIDE", "2")
        assert tolerances.scale() == 2.0
        monkeypatch.setenv("GF_TOL_OVERRIDE", "5e-1")
        assert tolerances.scale() == 0.5
        monkeypatch.delenv("GF_TOL_OVERRIDE")
        assert tolerances.scale() == 1.0
        monkeypatch.setenv("GF_TOL_OVERRIDE", "2")
        assert tolerances.scale() == 2.0

    @pytest.mark.parametrize("raw", ["wide", "0", "nan"])
    def test_invalid_tol_override_is_refused_every_time(self, raw, monkeypatch):
        """An invalid value is refused at every call, with the same message."""
        monkeypatch.setenv("GF_TOL_OVERRIDE", raw)
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError, match="GF_TOL_OVERRIDE must be") as refusal:
                tolerances.scale()
            messages.append(str(refusal.value))
        assert messages[0] == messages[1]
        monkeypatch.setenv("GF_TOL_OVERRIDE", "3")
        assert tolerances.scale() == 3.0

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_tol_override_is_refused(self, raw, monkeypatch):
        """An infinite scale would call a thermal state pure, and nan would zero its rank."""
        monkeypatch.setenv("GF_TOL_OVERRIDE", raw)
        thermal = CovarianceMatrix(1, np.diag([2.0, 2.0]))
        for check in (tolerances.scale, lambda: is_pure(thermal), lambda: williamson_spectrum(thermal)):
            with pytest.raises(ValueError, match="GF_TOL_OVERRIDE must be positive"):
                check()


# raw GF_TOL_OVERRIDE values in turn (None: unset) and the scale or refusal text each gives
OVERRIDE_SEQUENCE = [
    ("2", 2.0),
    ("5e-1", 0.5),
    (None, 1.0),
    ("wide", "GF_TOL_OVERRIDE must be a positive float, got 'wide'"),
    ("0", "GF_TOL_OVERRIDE must be positive, got 0.0"),
    ("inf", "GF_TOL_OVERRIDE must be positive and finite, got 'inf'"),
    ("3", 3.0),
]


def scale_or_refusal():
    try:
        return tolerances.scale()
    except ValueError as exc:
        return str(exc)


class TestOverrideRead:
    """``tolerances.scale()`` reads the dict behind ``os.environ`` in one lookup and
    sees every change made through ``os.environ``, as ``os.environ.get`` does."""

    def check(self, raw, expected):
        assert os.environ.get("GF_TOL_OVERRIDE") == raw
        for _ in range(2):  # the same answer, and the same refusal text, every time
            assert scale_or_refusal() == expected

    def test_through_os_environ(self, monkeypatch):
        # setenv records the variable as found, so teardown restores it after the plain writes
        monkeypatch.setenv("GF_TOL_OVERRIDE", "1")
        monkeypatch.delenv("GF_TOL_OVERRIDE")
        for raw, expected in OVERRIDE_SEQUENCE:
            if raw is None:
                del os.environ["GF_TOL_OVERRIDE"]
            else:
                os.environ["GF_TOL_OVERRIDE"] = raw
            self.check(raw, expected)

    def test_through_monkeypatch(self, monkeypatch):
        for raw, expected in OVERRIDE_SEQUENCE:
            if raw is None:
                monkeypatch.delenv("GF_TOL_OVERRIDE")
            else:
                monkeypatch.setenv("GF_TOL_OVERRIDE", raw)
            self.check(raw, expected)

    def test_through_cli_runner_env(self, monkeypatch):
        monkeypatch.delenv("GF_TOL_OVERRIDE", raising=False)
        seen = []

        @click.command()
        def probe():
            seen.append((os.environ.get("GF_TOL_OVERRIDE"), scale_or_refusal()))

        runner = CliRunner()
        for raw, _ in OVERRIDE_SEQUENCE:
            assert runner.invoke(probe, env={"GF_TOL_OVERRIDE": raw}).exit_code == 0
            assert scale_or_refusal() == 1.0  # the runner restores the environment
        assert seen == OVERRIDE_SEQUENCE

    @pytest.mark.parametrize("raw, expected", [("2", 2.0), (None, 1.0)])
    def test_no_mapping_get(self, raw, expected, monkeypatch):
        """With ``os._Environ.__getitem__`` raising, ``Mapping.get`` cannot answer; the
        scale still does, so it is read without that call."""
        monkeypatch.delenv("GF_TOL_OVERRIDE", raising=False)
        if raw is not None:
            monkeypatch.setenv("GF_TOL_OVERRIDE", raw)

        def refused(self, key):
            raise AssertionError(f"os.environ[{key!r}] was read")

        monkeypatch.setattr(os._Environ, "__getitem__", refused)
        with pytest.raises(AssertionError):
            os.environ.get("GF_TOL_OVERRIDE")
        assert tolerances.scale() == expected

    @pytest.mark.parametrize("kind", ["os._Environ", "dict"])
    def test_replaced_environ_is_read(self, kind, monkeypatch):
        """``os.environ`` is looked up at each call, not kept from import.  A plain ``dict``
        in its place, as ``mock.patch("os.environ", {...})`` puts there, has no backing
        dict and is read through its ``get``."""
        environ = os.environ
        for raw, expected in OVERRIDE_SEQUENCE:
            variables = {} if raw is None else {"GF_TOL_OVERRIDE": raw}
            if kind == "os._Environ":
                variables = os._Environ(
                    {environ.encodekey(k): environ.encodevalue(v) for k, v in variables.items()},
                    environ.encodekey, environ.decodekey, environ.encodevalue, environ.decodevalue,
                )
            monkeypatch.setattr(os, "environ", variables)
            assert scale_or_refusal() == expected


class TestReducedCm:
    def test_full_subset_identity(self):
        cm = engineer_state(random_recipe(3, 11))
        np.testing.assert_array_equal(reduced_cm(cm, [1, 2, 3]).data, cm.data)

    def test_one_mode_of_two_mode_squeezed(self):
        from gaussforge.engineering import Recipe

        cm = engineer_state(Recipe(2, np.sqrt(2.0)))
        np.testing.assert_allclose(
            reduced_cm(cm, [2]).data, np.diag([1.25, 1.25]), atol=1e-14
        )

    def test_rejects_empty_and_out_of_range(self):
        cm = vacuum_cm(2)
        with pytest.raises(ValueError, match="nonempty"):
            reduced_cm(cm, [])
        with pytest.raises(ValueError, match="out of range"):
            reduced_cm(cm, [3])
        with pytest.raises(ValueError, match="repeated"):
            reduced_cm(cm, [1, 1])

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_dropping_one_mode_gives_rank_one(self, n):
        """Any (N-1)-mode reduction of a pure state has exactly one non-unit eigenvalue."""
        cm = engineer_state(random_recipe(n, seed=91 + n))
        for dropped in range(1, n + 1):
            kept = [m for m in range(1, n + 1) if m != dropped]
            sub = reduced_cm(cm, kept)
            spectrum = williamson_spectrum(sub)
            assert spectrum.rank == 1
            expected = np.sqrt(np.linalg.det(mode_block(cm, dropped)))
            assert max(spectrum.values) == pytest.approx(expected, abs=1e-8)


class TestCovarianceMatrixType:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            CovarianceMatrix(1, np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="expected"):
            CovarianceMatrix(2, np.eye(2))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            CovarianceMatrix(1, np.array([[np.inf, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("value", [1e160, -1e160, 2e150])
    def test_rejects_entries_beyond_max_entry(self, value):
        """Such entries would overflow the purity tolerance's squared norm."""
        with pytest.raises(ValueError, match="at most 1e\\+150"):
            CovarianceMatrix(1, np.diag([value, 1.0 / value]))

    def test_accepts_entries_at_max_entry(self):
        cm = CovarianceMatrix(1, np.diag([1e150, 1e-150]))
        assert is_pure(cm)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e160])
    def test_from_dict_rejects_non_finite_or_huge_as_input_error(self, value):
        doc = {"n_modes": 1, "ordering": "qpqp", "data": [[value, 0.0], [0.0, 1.0]]}
        with pytest.raises(InputFormatError, match="finite"):
            CovarianceMatrix.from_dict(doc)

    def test_data_is_read_only(self):
        cm = vacuum_cm(1)
        with pytest.raises(ValueError):
            cm.data[0, 0] = 5.0

    def test_json_round_trip(self):
        cm = engineer_state(random_recipe(3, 5))
        clone = CovarianceMatrix.from_dict(cm.to_dict())
        np.testing.assert_array_equal(clone.data, cm.data)
