"""Tests for the exact integer EPR-bond lower bounds."""

import math

import numpy as np
import pytest

from gaussforge.gmps import (
    min_bonds_general,
    min_bonds_invariant,
    parity_table,
    table_csv,
    theta,
)


class TestMinBondsGeneral:
    @pytest.mark.parametrize(
        "n, expected",
        [(2, 1), (3, 1), (7, 1), (8, 2), (21, 2), (22, 3), (43, 3), (44, 4)],
    )
    def test_threshold_values(self, n, expected):
        assert min_bonds_general(n) == expected

    def test_rejects_single_mode(self):
        with pytest.raises(ValueError):
            min_bonds_general(1)

    def test_defining_inequality_dense_range(self):
        for n in range(2, 20001):
            m = min_bonds_general(n)
            assert 2 * m * (2 * m + 1) >= n - 1
            assert m == 1 or 2 * (m - 1) * (2 * m - 1) < n - 1

    def test_defining_inequality_up_to_one_million(self):
        """Vectorized bracket check against an independent threshold table."""
        sizes = np.arange(2, 10**6 + 1, dtype=np.int64)
        bonds = np.arange(1, 1001, dtype=np.int64)
        thresholds = 2 * bonds * (2 * bonds + 1)  # capacity of M bonds
        m = np.searchsorted(thresholds, sizes - 1, side="left") + 1
        assert np.all(2 * m * (2 * m + 1) >= sizes - 1)
        assert np.all((m == 1) | (2 * (m - 1) * (2 * m - 1) < sizes - 1))
        # the integer search agrees with the table on a dense prefix and random samples
        for n in range(2, 3000):
            assert min_bonds_general(n) == m[n - 2]
        rng = np.random.default_rng(7)
        for n in rng.integers(2, 10**6 + 1, size=500):
            assert min_bonds_general(int(n)) == m[n - 2]

    def test_nondecreasing(self):
        values = [min_bonds_general(n) for n in range(2, 500)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestTheta:
    @pytest.mark.parametrize("n, expected", [(1, 0), (2, 1), (4, 2), (5, 2), (8, 4), (9, 4)])
    def test_values(self, n, expected):
        assert theta(n) == expected

    def test_parity_identity(self):
        for k in range(1, 200):
            assert theta(2 * k) == k
            assert theta(2 * k + 1) == k


class TestMinBondsInvariant:
    @pytest.mark.parametrize("n, expected", [(2, 1), (7, 1), (8, 2), (21, 2), (22, 3)])
    def test_threshold_values(self, n, expected):
        assert min_bonds_invariant(n) == expected

    def test_defining_inequality(self):
        for n in range(2, 20001):
            m = min_bonds_invariant(n)
            assert m * (2 * m + 1) >= theta(n)
            assert m == 1 or (m - 1) * (2 * m - 1) < theta(n)


class TestBoundsCoincide:
    def test_general_and_invariant_bounds_are_one_search(self):
        """2M(2M+1) is even, so 2M(2M+1) >= N - 1 iff M(2M+1) >= floor(N/2) = theta(N).

        Checked against two independent threshold tables, then on the public names.
        """
        sizes = np.concatenate([np.arange(2, 10**5 + 1), np.arange(10**6 - 10, 10**6 + 1)])
        bonds = np.arange(1, 1001, dtype=np.int64)
        general = np.searchsorted(2 * bonds * (2 * bonds + 1), sizes - 1, side="left") + 1
        invariant = np.searchsorted(bonds * (2 * bonds + 1), sizes // 2, side="left") + 1
        np.testing.assert_array_equal(general, invariant)
        for n, m in zip(sizes.tolist(), general.tolist()):
            assert min_bonds_general(n) == min_bonds_invariant(n) == m

    def test_table_rows_carry_both_bounds(self):
        for row in parity_table(2, 3000):
            assert row.min_bonds_general == min_bonds_general(row.n_modes)
            assert row.min_bonds_invariant == min_bonds_invariant(row.n_modes)


class TestParityTable:
    def test_small_range_thresholds(self):
        rows = parity_table(2, 9)
        generals = {row.n_modes: row.min_bonds_general for row in rows}
        assert all(generals[n] == 1 for n in range(2, 8))
        assert generals[8] == 2 and generals[9] == 2

    def test_even_theta_dominates_odd_neighbors(self):
        rows = {row.n_modes: row for row in parity_table(2, 60)}
        for k in range(2, 30):
            assert rows[2 * k].theta >= rows[2 * k - 1].theta
            if 2 * k + 1 in rows:
                assert rows[2 * k].theta >= rows[2 * k + 1].theta

    def test_scaling_ratio_brackets_closed_form(self):
        """4M stays within the integer-rounding window of sqrt(4N-3) - 1."""
        for row in parity_table(2, 400):
            root = math.sqrt(4 * row.n_modes - 3)
            assert root - 1 <= 4 * row.min_bonds_general <= root + 3

    def test_nondecreasing_within_parity_classes(self):
        rows = parity_table(2, 300)
        for field in ("min_bonds_general", "min_bonds_invariant"):
            evens = [getattr(r, field) for r in rows if r.parity_note == "even"]
            odds = [getattr(r, field) for r in rows if r.parity_note == "odd"]
            assert all(b >= a for a, b in zip(evens, evens[1:]))
            assert all(b >= a for a, b in zip(odds, odds[1:]))

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            parity_table(1, 5)
        with pytest.raises(ValueError):
            parity_table(5, 4)

    def test_row_fields(self):
        (row,) = parity_table(7, 7)
        assert row.n_modes == 7
        assert row.theta == 3
        assert row.min_bonds_general == 1
        assert row.min_bonds_invariant == 1
        assert row.parity_note == "odd"
        assert row.scaling_ratio == pytest.approx(1 / math.sqrt(7))


class TestCsv:
    def test_columns(self):
        text = table_csv(parity_table(2, 4))
        lines = text.strip().split("\n")
        assert lines[0] == "N,theta,M_general,M_invariant,parity"
        assert lines[1] == "2,1,1,1,even"
        assert lines[3] == "4,2,1,1,even"
