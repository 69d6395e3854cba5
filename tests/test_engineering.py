"""Tests for the state-engineering pipeline."""

import warnings

import numpy as np
import pytest

from gaussforge.engineering import (
    Recipe,
    _schedule,
    engineer_state,
    free_parameter_audit,
    parameter_count,
    random_recipe,
    validate_recipe,
)
from gaussforge.errors import InputFormatError, RecipeError
from gaussforge.symplectic import (
    apply_symplectic,
    beam_splitter,
    is_pure,
    reduced_cm,
    squeezer,
    vacuum_cm,
    williamson_spectrum,
)


def dense_engineer(recipe):
    """Reference pipeline: one dense 2N x 2N congruence per gate, in recipe order.

    Written out gate by gate rather than from the library's gate schedule,
    so a schedule error cannot hide in both.
    """
    n = recipe.n_modes
    cm = vacuum_cm(n)
    cm = apply_symplectic(cm, squeezer(n, 1, recipe.s))
    cm = apply_symplectic(cm, squeezer(n, 2, 1.0 / recipe.s))
    cm = apply_symplectic(cm, beam_splitter(n, 1, 2, 0.5))
    for i in range(3, n + 1):
        cm = apply_symplectic(cm, squeezer(n, i, recipe.r[i]))
        for j in range(2, i):
            cm = apply_symplectic(cm, beam_splitter(n, j, i, recipe.b[(j, i)]))
    for k in range(1, n + 1):
        block = cm.mode_block(k)
        cm = apply_symplectic(cm, squeezer(n, k, (block[1, 1] / block[0, 0]) ** 0.25))
    return cm


class TestParameterCount:
    @pytest.mark.parametrize("n, expected", [(1, 0), (2, 1), (3, 3), (4, 6), (12, 66)])
    def test_values(self, n, expected):
        assert parameter_count(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            parameter_count(0)


class TestValidateRecipe:
    def test_complete_three_mode_recipe(self):
        recipe = Recipe(3, 1.5, {3: 1.2}, {(2, 3): 0.6})
        check = validate_recipe(recipe)
        assert check.ok and not check.warnings

    def test_missing_pair_is_named(self):
        recipe = Recipe(3, 1.5, {3: 1.2}, {})
        check = validate_recipe(recipe)
        assert not check.ok
        assert any("missing pair (2, 3)" in e for e in check.errors)

    def test_degenerate_transmittivity_warns_but_passes(self):
        recipe = Recipe(3, 1.5, {3: 1.2}, {(2, 3): 0.9999})
        check = validate_recipe(recipe)
        assert check.ok
        assert any("degenerates" in w for w in check.warnings)

    def test_out_of_range_values(self):
        recipe = Recipe(3, -1.0, {3: 0.0}, {(2, 3): 1.5})
        check = validate_recipe(recipe)
        messages = " ".join(check.errors)
        assert "s must be positive" in messages
        assert "r[3] must be positive" in messages
        assert "strictly in (0, 1)" in messages

    def test_unexpected_entries(self):
        recipe = Recipe(3, 1.5, {3: 1.2, 4: 1.1}, {(2, 3): 0.6, (2, 4): 0.5})
        check = validate_recipe(recipe)
        messages = " ".join(check.errors)
        assert "unexpected mode squeezing r[4]" in messages
        assert "unexpected pair (2, 4)" in messages

    def test_many_missing_entries_are_counted(self):
        """An empty 300-mode recipe names five of each kind and counts the rest."""
        check = validate_recipe(Recipe(300, 1.5))
        assert check.errors == (
            "missing mode squeezing r[3]",
            "missing mode squeezing r[4]",
            "missing mode squeezing r[5]",
            "missing mode squeezing r[6]",
            "missing mode squeezing r[7]",
            "293 more missing mode squeezings not listed",
            "missing pair (2, 3)",
            "missing pair (2, 4)",
            "missing pair (3, 4)",
            "missing pair (2, 5)",
            "missing pair (3, 5)",
            f"{299 * 298 // 2 - 5} more missing pairs not listed",
        )

    def test_missing_entries_listed_in_schedule_order_after_present_ones(self):
        b = {(j, i): 0.5 for i in range(3, 41) for j in range(2, i) if (j, i) != (7, 40)}
        check = validate_recipe(Recipe(41, 1.5, {i: 1.1 for i in range(3, 42)}, b))
        assert check.errors == (
            "missing pair (7, 40)",
            "missing pair (2, 41)",
            "missing pair (3, 41)",
            "missing pair (4, 41)",
            "missing pair (5, 41)",
            "35 more missing pairs not listed",
        )

    def test_many_unexpected_entries_are_counted(self):
        recipe = Recipe(3, 1.5, {i: 1.1 for i in range(3, 103)}, {(2, 3): 0.6, (1, 2): 0.5})
        check = validate_recipe(recipe)
        assert check.errors == (
            "unexpected mode squeezing r[4] for 3 modes",
            "unexpected mode squeezing r[5] for 3 modes",
            "unexpected mode squeezing r[6] for 3 modes",
            "unexpected mode squeezing r[7] for 3 modes",
            "unexpected mode squeezing r[8] for 3 modes",
            "94 more unexpected mode squeezings not listed",
            "unexpected pair (1, 2) for 3 modes",
        )


class TestEngineerState:
    def test_two_mode_squeezed_blocks(self):
        """s^2 = 2 must give blocks 1.25*I and diag(0.75, -0.75)."""
        cm = engineer_state(Recipe(2, np.sqrt(2.0)))
        np.testing.assert_allclose(cm.mode_block(1), 1.25 * np.eye(2), atol=1e-14)
        np.testing.assert_allclose(cm.mode_block(2), 1.25 * np.eye(2), atol=1e-14)
        np.testing.assert_allclose(
            cm.cross_block(1, 2), np.diag([0.75, -0.75]), atol=1e-14
        )

    def test_three_mode_state_is_pure(self):
        cm = engineer_state(Recipe(3, 1.5, {3: 1.2}, {(2, 3): 0.6}))
        result = is_pure(cm)
        assert result.pure and result.residual <= 1e-9

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_qp_cross_covariances_vanish(self, n):
        """Every map acts identically or diagonally on q and p, so q-p entries stay 0."""
        cm = engineer_state(random_recipe(n, seed=17 * n))
        qp = cm.data[0::2, 1::2].copy()
        np.testing.assert_allclose(qp, 0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_single_mode_blocks_proportional_to_identity(self, n):
        cm = engineer_state(random_recipe(n, seed=23 * n + 1))
        for k in range(1, n + 1):
            block = cm.mode_block(k)
            c = block[0, 0]
            assert c >= 1.0 - 1e-12
            np.testing.assert_allclose(block, c * np.eye(2), atol=1e-10 * (1 + c))

    def test_rejects_invalid_recipe(self):
        with pytest.raises(RecipeError, match=r"missing pair \(2, 3\)"):
            engineer_state(Recipe(3, 1.5, {3: 1.2}, {}))

    @pytest.mark.parametrize(
        "s, r3", [(1e300, 1.2), (1e-300, 1.2), (1e100, 1.2), (1e-100, 1.2), (1.5, 1e300), (1.5, 1e-300)]
    )
    def test_extreme_squeezing_raises_recipe_error(self, s, r3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            with pytest.raises(RecipeError, match="squeezing too extreme"):
                engineer_state(Recipe(3, s, {3: r3}, {(2, 3): 0.6}))

    def test_large_squeezing_still_builds(self):
        assert is_pure(engineer_state(Recipe(3, 1e20, {3: 1.2}, {(2, 3): 0.6})))

    @pytest.mark.parametrize("n", list(range(2, 13)))
    def test_free_parameter_audit_matches_count(self, n):
        recipe = random_recipe(n, seed=n)
        assert free_parameter_audit(recipe) == parameter_count(n)

    def test_decoupling_limit(self):
        """r_i = 1 and b near 1 push modes 3..N back toward vacua."""
        n = 5
        recipe = Recipe(
            n,
            1.7,
            {i: 1.0 for i in range(3, n + 1)},
            {(j, i): 1.0 - 1e-6 for i in range(3, n + 1) for j in range(2, i)},
        )
        cm = engineer_state(recipe)
        for k in range(3, n + 1):
            det = np.linalg.det(cm.mode_block(k))
            assert det == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("n", [3, 4, 6, 8])
    def test_schmidt_spectrum_of_complement(self, n):
        """The (2..N) reduction carries the spectrum {a, 1, ..., 1} with a = sqrt(det sigma_1)."""
        cm = engineer_state(random_recipe(n, seed=5 * n + 2))
        a = np.sqrt(np.linalg.det(cm.mode_block(1)))
        spectrum = np.array(williamson_spectrum(reduced_cm(cm, range(2, n + 1))).values)
        expected = np.concatenate([[a], np.ones(n - 2)])
        np.testing.assert_allclose(np.sort(spectrum), np.sort(expected), atol=1e-7)


@pytest.mark.parametrize("n", range(2, 13))
def test_schedule_squeezes_each_mode_while_it_is_vacuum(n):
    """engineer_state moves every squeezer to the front, which needs this order."""
    squeezed = set()
    for mode, partner, _, _ in _schedule(random_recipe(n, seed=n)):
        if partner is None:
            assert mode not in squeezed, f"mode {mode} squeezed twice"
            squeezed.add(mode)
        else:
            assert {mode, partner} <= squeezed, f"splitter ({mode}, {partner}) before a squeezer"
    assert squeezed == set(range(1, n + 1))


class TestDenseOracle:
    """The block-space pipeline against dense per-gate congruences."""

    @staticmethod
    def assert_matches(recipe):
        got = engineer_state(recipe).data
        want = dense_engineer(recipe).data
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_acceptance_sweep_recipes(self, n):
        for idx in range(100):
            self.assert_matches(random_recipe(n, 1000 * n + idx))

    @pytest.mark.parametrize("n", [16, 32, 48])
    def test_large_registers(self, n):
        self.assert_matches(random_recipe(n, n))


class TestRandomRecipe:
    def test_deterministic_from_seed(self):
        assert random_recipe(5, 123) == random_recipe(5, 123)
        assert random_recipe(5, 123) != random_recipe(5, 124)

    def test_five_modes_have_ten_parameters(self):
        recipe = random_recipe(5, 7)
        assert 1 + len(recipe.r) + len(recipe.b) == 10

    def test_ranges(self):
        recipe = random_recipe(6, 99, s_max=4.0)
        values = [recipe.s] + list(recipe.r.values())
        assert all(0.25 <= v <= 4.0 for v in values)
        assert all(0.05 <= t <= 0.95 for t in recipe.b.values())

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="s_max"):
            random_recipe(3, 0, s_max=1.0)
        with pytest.raises(ValueError, match="n_modes"):
            random_recipe(1, 0)

    @pytest.mark.parametrize("seed", range(100))
    def test_purity_sweep_four_modes(self, seed):
        cm = engineer_state(random_recipe(4, seed))
        result = is_pure(cm)
        assert result.pure and result.residual <= 1e-9 * (1 + cm.inf_norm() ** 2)


class TestRecipeJson:
    def test_round_trip(self):
        recipe = random_recipe(4, 31)
        clone = Recipe.from_dict(recipe.to_dict())
        assert clone == recipe

    def test_document_shape(self):
        doc = Recipe(3, 1.5, {3: 1.2}, {(2, 3): 0.6}).to_dict()
        assert doc == {
            "n_modes": 3,
            "s": 1.5,
            "r": {"3": 1.2},
            "b": [{"j": 2, "i": 3, "t": 0.6}],
        }

    def test_b_list_order_does_not_matter(self):
        doc = {
            "n_modes": 4,
            "s": 1.2,
            "r": {"3": 1.1, "4": 0.9},
            "b": [
                {"j": 3, "i": 4, "t": 0.4},
                {"j": 2, "i": 3, "t": 0.5},
                {"j": 2, "i": 4, "t": 0.6},
            ],
        }
        recipe = Recipe.from_dict(doc)
        assert validate_recipe(recipe).ok

    def test_duplicate_pair_rejected(self):
        doc = {
            "n_modes": 3,
            "s": 1.2,
            "r": {"3": 1.1},
            "b": [{"j": 2, "i": 3, "t": 0.4}, {"j": 2, "i": 3, "t": 0.5}],
        }
        with pytest.raises(InputFormatError, match="duplicate"):
            Recipe.from_dict(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"n_modes": 3, "s": 1.2, "r": [1.2]}, "r must be an object"),
            ({"n_modes": 3, "s": 1.2, "b": 5}, "b must be an array"),
            ({"n_modes": 3, "s": 1.2, "b": {"j": 2, "i": 3, "t": 0.5}}, "b must be an array"),
            ({"n_modes": 3, "s": 10**400}, "s is beyond the float range"),
            ({"n_modes": 3, "s": 1.2, "r": {"3": -(10**400)}}, "r\\['3'\\] is beyond"),
            (
                {"n_modes": 3, "s": 1.2, "b": [{"j": 2, "i": 3, "t": 10**400}]},
                "b transmittivity t is beyond",
            ),
            ({"n_modes": 3, "s": 1.2, "r": {"3": 1.2, "03": 9.0}}, "duplicate mode squeezing r\\[3\\]"),
            ({"n_modes": 3, "s": 1.2, "b": [{"j": True, "i": 3, "t": 0.6}]}, "must be integers"),
            ({"n_modes": 3, "s": 1.2, "b": [{"j": 2, "i": False, "t": 0.6}]}, "must be integers"),
        ],
    )
    def test_wrong_container_or_overflowing_number(self, doc, message):
        with pytest.raises(InputFormatError, match=message):
            Recipe.from_dict(doc)

    def test_malformed_documents(self):
        with pytest.raises(InputFormatError):
            Recipe.from_dict({"s": 1.0})
        with pytest.raises(InputFormatError):
            Recipe.from_dict({"n_modes": 3, "s": "wide"})
        with pytest.raises(InputFormatError):
            Recipe.from_dict({"n_modes": 3, "s": 1.0, "r": {"x": 1.0}})
