"""Acceptance suite: one test per criterion, each printing a PASS line.

The shared sweep draws 100 random recipes per mode count N in 2..10 with
squeezings log-uniform in [1/4, 4] and transmittivities uniform in
[0.05, 0.95], the ranges the library's recipe generator enforces.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from gaussforge.engineering import (
    engineer_state,
    parameter_count,
    random_recipe,
    validate_recipe,
)
from gaussforge.entanglement import (
    bosonic_entropy,
    entropy_one_vs_rest,
    entropy_via_pairwise,
    full_report,
    log_negativity_pair,
)
from gaussforge.gmps import parity_table
from gaussforge.standard_form import (
    det_identity_residual,
    extract_parameters,
    harmonic_ground_state,
    reconstruct_diagonal,
    ring_potential,
    to_standard_form,
)
from gaussforge.symplectic import is_pure, williamson_spectrum

from conftest import random_local_symplectic
from oracles import (
    apply_symplectic,
    condition_residual,
    free_parameter_audit,
    mode_block,
    reconstruction_jacobian,
    reduced_cm,
)

SWEEP_MODES = range(2, 11)
SWEEP_SIZE = 100


@pytest.fixture(scope="module")
def sweep():
    """Engineered states for 100 seeded recipes per N in 2..10."""
    states = {}
    for n in SWEEP_MODES:
        for idx in range(SWEEP_SIZE):
            recipe = random_recipe(n, seed=1000 * n + idx)
            states[(n, idx)] = engineer_state(recipe)
    return states


def _report(number: int, detail: str):
    print(f"ACCEPTANCE {number} PASS: {detail}")


def test_criterion_1_parameter_count():
    """Audited free-parameter count equals N(N-1)/2 for N = 2..12, and so does the count
    of entries the recipe check builds from: every one is needed, none is extra."""
    start = time.perf_counter()
    for n in range(2, 13):
        recipe = random_recipe(n, seed=n)
        expected = n * (n - 1) // 2
        assert parameter_count(n) == expected
        assert free_parameter_audit(recipe) == expected
        pairs = validate_recipe(recipe)._transmittivity
        assert pairs.shape == ((n - 1) * (n - 2) // 2,)
        assert 1 + (n - 2) + len(pairs) == expected
        for i in recipe.r:
            dropped = dict(recipe.r)
            del dropped[i]
            check = validate_recipe(dataclasses.replace(recipe, r=dropped))
            assert check.errors == (f"missing mode squeezing r[{i}]",)
        for j, i in recipe.b:
            dropped = dict(recipe.b)
            del dropped[(j, i)]
            check = validate_recipe(dataclasses.replace(recipe, b=dropped))
            assert check.errors == (f"missing pair ({j}, {i})",)
        sf = to_standard_form(engineer_state(recipe))
        assert extract_parameters(sf).shape == (expected,)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"counts exact for N=2..12 in {elapsed:.2f}s")


def test_criterion_2_purity_identity(sweep):
    """|-Omega sigma Omega sigma - 1|_inf <= 1e-9 (1 + |sigma|_inf^2) across the sweep."""
    start = time.perf_counter()
    worst = 0.0
    for cm in sweep.values():
        result = is_pure(cm)
        bound = 1e-9 * (1.0 + cm.inf_norm() ** 2)
        assert result.residual <= bound
        worst = max(worst, result.residual / bound)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, f"900 states pure; worst residual at {worst:.2e} of bound, {elapsed:.2f}s")


def test_criterion_3_schmidt_spectrum(sweep):
    """Reduced (2..N) spectrum is {a, 1, ..., 1} with a = sqrt(det sigma_1), dev <= 1e-7."""
    worst = 0.0
    for (n, _), cm in sweep.items():
        a = math.sqrt(np.linalg.det(mode_block(cm, 1)))
        values = np.sort(williamson_spectrum(reduced_cm(cm, range(2, n + 1))).values)
        expected = np.sort(np.concatenate([[a], np.ones(n - 2)]))
        worst = max(worst, float(np.max(np.abs(values - expected))))
    assert worst <= 1e-7
    _report(3, f"max spectrum deviation {worst:.2e}")


def test_criterion_4_det_identity(sweep):
    """det sigma_i = 1 - sum det eps_ij within 1e-8 for every mode of every state."""
    worst = 0.0
    for (n, _), cm in sweep.items():
        for k in range(1, n + 1):
            worst = max(worst, abs(det_identity_residual(cm, k)))
    assert worst <= 1e-8
    _report(4, f"max identity residual {worst:.2e}")


def test_criterion_5_reconstruction_round_trip():
    """Off-diagonals alone rebuild the diagonal within 1e-6; Jacobian matches FD."""
    worst_diag = 0.0
    for idx in range(100):
        n = 2 + idx % 7  # cycles through N = 2..8
        cm = engineer_state(random_recipe(n, seed=7000 + idx))
        sf = to_standard_form(cm)
        rebuilt = reconstruct_diagonal(extract_parameters(sf), n)
        worst_diag = max(
            worst_diag, float(np.max(np.abs(np.diag(rebuilt.vq) - np.diag(sf.vq))))
        )
    assert worst_diag <= 1e-6

    worst_jacobian = 0.0
    for n in (2, 4, 6, 8):
        vq = to_standard_form(engineer_state(random_recipe(n, seed=n * 31))).vq.copy()
        analytic = reconstruction_jacobian(vq)
        numeric = np.zeros_like(analytic)
        h = 1e-6
        for j in range(n):
            plus, minus = vq.copy(), vq.copy()
            plus[j, j] += h
            minus[j, j] -= h
            numeric[:, j] = (condition_residual(plus) - condition_residual(minus)) / (2 * h)
        gap = float(np.max(np.abs(analytic - numeric)) / np.max(np.abs(analytic)))
        worst_jacobian = max(worst_jacobian, gap)
    assert worst_jacobian <= 1e-5
    _report(
        5,
        f"diag gap {worst_diag:.2e} over 100 recipes; jacobian rel err {worst_jacobian:.2e}",
    )


def test_criterion_6_gmps_thresholds():
    """Bond bounds bracket their inequality for N = 2..100 with the stated landmarks."""
    start = time.perf_counter()
    rows = parity_table(2, 100)
    for row in rows:
        n, m = row.n_modes, row.min_bonds_general
        assert n - 1 <= 2 * m * (2 * m + 1)
        assert m == 1 or 2 * (m - 1) * (2 * m - 1) < n - 1
        if n <= 7:
            assert m == 1
        if n == 8:
            assert m == 2
        if 50 <= n <= 100:
            assert 0.40 <= row.scaling_ratio <= 0.75
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(6, f"thresholds and sqrt scaling verified for N=2..100 in {elapsed:.2f}s")


def test_criterion_7_ring_parity_probe():
    """Odd-ring frustration: N=5 nearest-neighbor log-negativity sits strictly
    below the interpolation of its even neighbors N=4 and N=6 at kappa = 0.5."""
    start = time.perf_counter()
    kappa = 0.5
    values = {}
    for n in (4, 5, 6):
        cm = harmonic_ground_state(ring_potential(n, kappa))
        values[n] = log_negativity_pair(cm, 1, 2)
    interpolated = (values[4] + values[6]) / 2.0
    assert values[5] < interpolated
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(
        7,
        f"N=5 value {values[5]:.6f} < interpolated {interpolated:.6f} in {elapsed:.2f}s",
    )


def test_criterion_8_entropy_consistency(sweep):
    """Direct and pairwise entropies agree within 1e-8; f(1.25) = 0.5662(5e-4)."""
    worst = 0.0
    for (n, idx), cm in sweep.items():
        sf = to_standard_form(cm)
        for k in range(1, n + 1):
            gap = abs(entropy_one_vs_rest(cm, k) - entropy_via_pairwise(sf, k))
            worst = max(worst, gap)
    assert worst <= 1e-8
    assert bosonic_entropy(1.25) == pytest.approx(0.5662, abs=5e-4)
    _report(8, f"max entropy gap {worst:.2e}; f(1.25) = {bosonic_entropy(1.25):.6f}")


def test_criterion_9_local_unitary_invariance():
    """Entropies and pairwise log-negativities move less than 1e-8 under 20
    random local single-mode symplectics per state."""
    rng = np.random.default_rng(424242)
    worst = 0.0
    for n in SWEEP_MODES:
        cm = engineer_state(random_recipe(n, seed=90_000 + n))
        base = full_report(cm)
        for _ in range(20):
            moved = apply_symplectic(cm, random_local_symplectic(n, rng))
            report = full_report(moved)
            worst = max(
                worst,
                float(
                    np.max(
                        np.abs(
                            np.array(report.per_mode_entropy)
                            - np.array(base.per_mode_entropy)
                        )
                    )
                ),
                float(np.max(np.abs(report.pairwise_logneg - base.pairwise_logneg))),
            )
    assert worst <= 1e-8
    _report(9, f"max invariance drift {worst:.2e} over 180 transformed states")
