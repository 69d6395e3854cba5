"""End-to-end tests of the command-line surface."""

import json
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from gaussforge import jsonio
from gaussforge.cli import main
from gaussforge.engineering import Recipe, random_recipe
from gaussforge.symplectic import CovarianceMatrix, vacuum_cm

RECIPE_N3 = {
    "n_modes": 3,
    "s": 1.5,
    "r": {"3": 1.2},
    "b": [{"j": 2, "i": 3, "t": 0.6}],
}


@pytest.fixture
def runner():
    return CliRunner()


def write(path, doc):
    path.write_text(jsonio.dumps(doc) + "\n")
    return str(path)


class TestEngineer:
    def test_valid_three_mode_recipe(self, runner, tmp_path):
        recipe = write(tmp_path / "r.json", RECIPE_N3)
        result = runner.invoke(main, ["engineer", "--recipe", recipe])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["n_modes"] == 3
        assert len(doc["data"]) == 6 and len(doc["data"][0]) == 6
        assert "3 parameters" in result.stderr
        assert "purity residual" in result.stderr

    def test_five_mode_recipe_reports_ten_parameters(self, runner, tmp_path):
        recipe = write(tmp_path / "r.json", random_recipe(5, 8).to_dict())
        result = runner.invoke(main, ["engineer", "--recipe", recipe])
        assert result.exit_code == 0
        assert "10 parameters" in result.stderr

    def test_missing_pair_exits_one_and_names_it(self, runner, tmp_path):
        doc = dict(RECIPE_N3, b=[])
        recipe = write(tmp_path / "r.json", doc)
        result = runner.invoke(main, ["engineer", "--recipe", recipe])
        assert result.exit_code == 1
        assert "(2, 3)" in result.stderr

    def test_malformed_json_exits_two(self, runner, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("{ this is not json")
        result = runner.invoke(main, ["engineer", "--recipe", str(path)])
        assert result.exit_code == 2

    def test_missing_file_exits_two(self, runner, tmp_path):
        result = runner.invoke(main, ["engineer", "--recipe", str(tmp_path / "absent.json")])
        assert result.exit_code == 2

    def test_out_file(self, runner, tmp_path):
        recipe = write(tmp_path / "r.json", RECIPE_N3)
        out = tmp_path / "cm.json"
        result = runner.invoke(main, ["engineer", "--recipe", recipe, "--out", str(out)])
        assert result.exit_code == 0
        assert result.stdout == ""
        assert json.loads(out.read_text())["n_modes"] == 3

    def test_out_into_missing_directory_exits_two(self, runner, tmp_path):
        recipe = write(tmp_path / "r.json", RECIPE_N3)
        out = tmp_path / "absent" / "cm.json"
        result = runner.invoke(main, ["engineer", "--recipe", recipe, "--out", str(out)])
        assert result.exit_code == 2
        errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith("error: cannot write")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("s", [1e300, 1e-300, 1e100, 1e-100])
    def test_extreme_squeezing_exits_one(self, runner, tmp_path, s):
        recipe = write(tmp_path / "r.json", dict(RECIPE_N3, s=s))
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # show numpy warnings even if seen before
            result = runner.invoke(main, ["engineer", "--recipe", recipe])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: squeezing too extreme")
        assert len(result.stderr.splitlines()) == 1

    def test_degenerate_transmittivity_warns(self, runner, tmp_path):
        doc = dict(RECIPE_N3, b=[{"j": 2, "i": 3, "t": 0.9999}])
        recipe = write(tmp_path / "r.json", doc)
        result = runner.invoke(main, ["engineer", "--recipe", recipe])
        assert result.exit_code == 0
        assert "warning" in result.stderr


class TestAnalyze:
    def test_vacuum(self, runner, tmp_path):
        cm = write(tmp_path / "cm.json", vacuum_cm(2).to_dict())
        result = runner.invoke(main, ["analyze", "--cm", cm])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["symplectic_rank"] == 0
        assert doc["pure"] is True
        assert all(e == 0.0 for e in doc["entanglement"]["per_mode_entropy"])

    def test_engineered_state(self, runner, tmp_path):
        recipe = write(tmp_path / "r.json", RECIPE_N3)
        engineered = runner.invoke(main, ["engineer", "--recipe", recipe])
        cm = tmp_path / "cm.json"
        cm.write_text(engineered.stdout)
        result = runner.invoke(main, ["analyze", "--cm", str(cm)])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["symplectic_rank"] == 0
        assert max(doc["entanglement"]["per_mode_entropy"]) > 0.0

    def test_thermal_not_pure(self, runner, tmp_path):
        doc = {"n_modes": 1, "ordering": "qpqp", "data": [[2.0, 0.0], [0.0, 2.0]]}
        cm = write(tmp_path / "cm.json", doc)
        result = runner.invoke(main, ["analyze", "--cm", cm])
        assert result.exit_code == 0
        parsed = json.loads(result.stdout)
        assert parsed["symplectic_rank"] == 1
        assert parsed["pure"] is False
        assert parsed["entanglement"] is None
        assert "not pure" in result.stderr

    def test_asymmetric_matrix_exits_one(self, runner, tmp_path):
        doc = {"n_modes": 1, "ordering": "qpqp", "data": [[2.0, 0.5], [0.0, 2.0]]}
        cm = write(tmp_path / "cm.json", doc)
        result = runner.invoke(main, ["analyze", "--cm", cm])
        assert result.exit_code == 1

    def test_not_positive_definite_exits_one(self, runner, tmp_path):
        doc = {"n_modes": 1, "ordering": "qpqp", "data": [[1.0, 0.0], [0.0, -1.0]]}
        cm = write(tmp_path / "cm.json", doc)
        result = runner.invoke(main, ["analyze", "--cm", cm])
        assert result.exit_code == 1

    def test_wrong_ordering_exits_two(self, runner, tmp_path):
        doc = {"n_modes": 1, "ordering": "qqpp", "data": [[1.0, 0.0], [0.0, 1.0]]}
        cm = write(tmp_path / "cm.json", doc)
        result = runner.invoke(main, ["analyze", "--cm", cm])
        assert result.exit_code == 2


class TestStandardForm:
    def test_two_mode_squeezed_offdiagonal(self, runner, tmp_path):
        from gaussforge.engineering import engineer_state

        cm = write(tmp_path / "cm.json", engineer_state(Recipe(2, np.sqrt(2.0))).to_dict())
        result = runner.invoke(main, ["standard-form", "--cm", cm])
        assert result.exit_code == 0
        vq = np.array(json.loads(result.stdout)["vq"])
        assert vq[0, 1] == pytest.approx(0.75, abs=1e-12)

    def test_reconstruct_zero_offdiagonals(self, runner, tmp_path):
        doc = {"n_modes": 3, "vq": np.zeros((3, 3)).tolist()}
        vq = write(tmp_path / "vq.json", doc)
        result = runner.invoke(main, ["standard-form", "--vq", vq, "--reconstruct"])
        assert result.exit_code == 0
        out = json.loads(result.stdout)
        np.testing.assert_allclose(out["standard_form"]["vq"], np.eye(3), atol=1e-10)
        np.testing.assert_allclose(out["cm"]["data"], np.eye(6), atol=1e-10)

    def test_round_trip_diagonals_agree(self, runner, tmp_path):
        from gaussforge.engineering import engineer_state

        state = engineer_state(random_recipe(4, 12))
        cm = write(tmp_path / "cm.json", state.to_dict())
        first = runner.invoke(main, ["standard-form", "--cm", cm])
        assert first.exit_code == 0
        sf_doc = json.loads(first.stdout)
        vq_path = write(tmp_path / "vq.json", sf_doc)
        second = runner.invoke(main, ["standard-form", "--vq", vq_path, "--reconstruct"])
        assert second.exit_code == 0
        rebuilt = np.array(json.loads(second.stdout)["standard_form"]["vq"])
        np.testing.assert_allclose(np.diag(rebuilt), np.diag(sf_doc["vq"]), atol=1e-6)

    def test_mixed_state_exits_one(self, runner, tmp_path):
        doc = {"n_modes": 1, "ordering": "qpqp", "data": [[2.0, 0.0], [0.0, 2.0]]}
        cm = write(tmp_path / "cm.json", doc)
        result = runner.invoke(main, ["standard-form", "--cm", cm])
        assert result.exit_code == 1
        assert "not pure" in result.stderr

    def test_requires_exactly_one_source(self, runner, tmp_path):
        result = runner.invoke(main, ["standard-form"])
        assert result.exit_code == 2
        cm = write(tmp_path / "cm.json", vacuum_cm(1).to_dict())
        result = runner.invoke(
            main, ["standard-form", "--cm", cm, "--vq", cm, "--reconstruct"]
        )
        assert result.exit_code == 2

    def test_vq_without_reconstruct_exits_two(self, runner, tmp_path):
        vq = write(tmp_path / "vq.json", {"n_modes": 2, "vq": [[1.0, 0.0], [0.0, 1.0]]})
        result = runner.invoke(main, ["standard-form", "--vq", vq])
        assert result.exit_code == 2


class TestGmps:
    def test_csv_table(self, runner):
        result = runner.invoke(main, ["gmps", "--n-min", "2", "--n-max", "9", "--format", "csv"])
        assert result.exit_code == 0
        lines = result.stdout.strip().split("\n")
        assert lines[0] == "N,theta,M_general,M_invariant,parity"
        row8 = dict(zip(lines[0].split(","), lines[7].split(",")))
        assert row8["N"] == "8" and row8["M_general"] == "2"

    def test_single_size_json(self, runner):
        result = runner.invoke(main, ["gmps", "--n-min", "7", "--n-max", "7"])
        assert result.exit_code == 0
        (row,) = json.loads(result.stdout)
        assert row["min_bonds_invariant"] == 1 and row["theta"] == 3

    def test_bad_range_exits_two(self, runner):
        result = runner.invoke(main, ["gmps", "--n-min", "9", "--n-max", "2"])
        assert result.exit_code == 2


class TestRing:
    def test_zero_coupling_is_vacuum(self, runner):
        result = runner.invoke(main, ["ring", "--n", "3", "--coupling", "0.0"])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        np.testing.assert_array_equal(doc["cm"]["data"], np.eye(6))
        assert all(e == 0.0 for e in doc["per_mode_entropy"])
        assert doc["nearest_neighbor_logneg"] == 0.0

    @pytest.mark.parametrize("n", [3, 4])
    def test_coupled_ring_is_pure_and_entangled(self, runner, n):
        result = runner.invoke(main, ["ring", "--n", str(n), "--coupling", "0.5"])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        cm = CovarianceMatrix.from_dict(doc["cm"])
        from gaussforge.symplectic import is_pure

        assert is_pure(cm)
        assert doc["nearest_neighbor_logneg"] > 0.0

    def test_bad_parameters_exit_two(self, runner):
        assert runner.invoke(main, ["ring", "--n", "2", "--coupling", "0.5"]).exit_code == 2
        assert runner.invoke(main, ["ring", "--n", "4", "--coupling", "-1.0"]).exit_code == 2

    def test_size_above_cap_exits_two(self, runner):
        result = runner.invoke(main, ["ring", "--n", "1001", "--coupling", "0.5"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "3 <= n <= 1000, got 1001" in result.stderr

    def test_one_purity_check(self, runner, monkeypatch):
        from gaussforge import symplectic

        calls = []
        original = symplectic.is_pure

        def counted(cm):
            calls.append(cm.n_modes)
            return original(cm)

        monkeypatch.setattr(symplectic, "is_pure", counted)
        result = runner.invoke(main, ["ring", "--n", "9", "--coupling", "0.5"])
        assert result.exit_code == 0
        assert calls == [9]

    @pytest.mark.parametrize("n", ["3", "64"])
    @pytest.mark.parametrize("coupling", ["1e16", "1e17", "1e308"])
    def test_unresolvable_coupling_exits_one(self, runner, n, coupling):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["ring", "--n", n, "--coupling", coupling])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert "positive definite" not in result.stderr

    @pytest.mark.parametrize("coupling", ["nan", "inf", "-inf"])
    def test_non_finite_coupling_exits_two(self, runner, coupling):
        result = runner.invoke(main, ["ring", "--n", "4", "--coupling", coupling])
        assert result.exit_code == 2
        assert "coupling must be finite" in result.stderr


def cm_doc(value: float) -> dict:
    return {"n_modes": 1, "ordering": "qpqp", "data": [[value, 0.0], [0.0, 1.0 / value]]}


def vq_doc(value: float) -> dict:
    return {"n_modes": 2, "vq": [[value, 0.1], [0.1, 1.0]]}


# every matrix document goes through one numeric reader, whatever the command
BAD_ENTRY_DOCUMENTS = [
    pytest.param(args, make(value), id=f"{label}-{value}")
    for label, args, make in (
        ("analyze", ["analyze", "--cm"], cm_doc),
        ("standard-form-cm", ["standard-form", "--cm"], cm_doc),
        ("standard-form-vq", ["standard-form", "--reconstruct", "--vq"], vq_doc),
    )
    for value in (float("nan"), float("inf"), float("-inf"), 1e160)
]


# a JSON integer beyond the float range
HUGE_INT = "1" + "0" * 400

BOOL_N_MODES_CM = {"n_modes": True, "ordering": "qpqp", "data": [[1.0, 0.0], [0.0, 1.0]]}


class TestCliContract:
    @pytest.mark.parametrize(
        "args, doc",
        [
            (["analyze", "--cm"], BOOL_N_MODES_CM),
            (["standard-form", "--cm"], BOOL_N_MODES_CM),
            (["standard-form", "--reconstruct", "--vq"], {"n_modes": True, "vq": [[1.0]]}),
        ],
    )
    def test_boolean_n_modes_exits_two(self, runner, tmp_path, args, doc):
        result = runner.invoke(main, args + [write(tmp_path / "doc.json", doc)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: n_modes must be a positive integer\n"

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param('{"n_modes": 3, "s": 1.5, "r": [1.2]}', id="r-not-object"),
            pytest.param('{"n_modes": 3, "s": 1.5, "b": 5}', id="b-not-array"),
            pytest.param(f'{{"n_modes": 3, "s": {HUGE_INT}}}', id="s-overflow"),
            pytest.param('{"n_modes": 3, "s": 1' + "0" * 5000 + "}", id="s-too-many-digits"),
            pytest.param(f'{{"n_modes": 3, "s": 1.5, "r": {{"3": {HUGE_INT}}}}}', id="r-overflow"),
            pytest.param(
                f'{{"n_modes": 3, "s": 1.5, "b": [{{"j": 2, "i": 3, "t": {HUGE_INT}}}]}}',
                id="t-overflow",
            ),
            pytest.param(
                '{"n_modes": 3, "s": 1.5, "r": {"3": 1.2, "03": 9.0}, '
                '"b": [{"j": 2, "i": 3, "t": 0.6}]}',
                id="r-duplicate-mode",
            ),
            pytest.param(
                '{"n_modes": 3, "s": 1.5, "r": {"3": 1.2}, "b": [{"j": true, "i": 3, "t": 0.6}]}',
                id="b-boolean-index",
            ),
        ],
    )
    def test_malformed_recipe_exits_two(self, runner, tmp_path, text):
        path = tmp_path / "recipe.json"
        path.write_text(text)
        result = runner.invoke(main, ["engineer", "--recipe", str(path)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1

    def test_large_empty_recipe_gives_a_short_error(self, runner, tmp_path):
        recipe = write(tmp_path / "r.json", {"n_modes": 300, "s": 1.5})
        result = runner.invoke(main, ["engineer", "--recipe", recipe])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert len(result.stderr) < 1000
        assert "44546 more missing pairs not listed" in result.stderr

    @pytest.mark.parametrize("args, doc", BAD_ENTRY_DOCUMENTS)
    def test_non_finite_or_huge_entries_exit_two(self, runner, tmp_path, args, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))  # NaN and Infinity as json.loads accepts them
        result = runner.invoke(main, args + [str(path)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert "finite and at most 1e+150" in result.stderr
        assert len(result.stderr.splitlines()) == 1

    def test_deterministic_stdout(self, runner, tmp_path):
        recipe = write(tmp_path / "r.json", RECIPE_N3)
        first = runner.invoke(main, ["engineer", "--recipe", recipe])
        second = runner.invoke(main, ["engineer", "--recipe", recipe])
        assert first.stdout == second.stdout

    def test_engineer_output_feeds_other_commands(self, runner, tmp_path):
        recipe = write(tmp_path / "r.json", RECIPE_N3)
        engineered = runner.invoke(main, ["engineer", "--recipe", recipe])
        cm = tmp_path / "cm.json"
        cm.write_text(engineered.stdout)
        assert runner.invoke(main, ["analyze", "--cm", str(cm)]).exit_code == 0
        assert runner.invoke(main, ["standard-form", "--cm", str(cm)]).exit_code == 0

    def test_stdout_is_pure_json(self, runner, tmp_path):
        recipe = write(tmp_path / "r.json", RECIPE_N3)
        result = runner.invoke(main, ["engineer", "--recipe", recipe])
        json.loads(result.stdout)  # raises if diagnostics leaked into stdout

    def test_precision_flag(self, runner, tmp_path):
        recipe = write(tmp_path / "r.json", RECIPE_N3)
        result = runner.invoke(main, ["engineer", "--recipe", recipe, "--precision", "3"])
        doc = json.loads(result.stdout)
        value = doc["data"][0][0]
        assert value == float(format(value, ".3g"))

    def test_tol_override_env_scales_purity_check(self, runner, tmp_path):
        near_pure = {
            "n_modes": 1,
            "ordering": "qpqp",
            "data": [[1.000001, 0.0], [0.0, 1.000001]],
        }
        cm = write(tmp_path / "cm.json", near_pure)
        default = runner.invoke(main, ["analyze", "--cm", cm])
        assert json.loads(default.stdout)["pure"] is False
        relaxed = runner.invoke(
            main, ["analyze", "--cm", cm], env={"GF_TOL_OVERRIDE": "1e5"}
        )
        assert json.loads(relaxed.stdout)["pure"] is True

    def test_invalid_tol_override_exits_two(self, runner):
        result = runner.invoke(
            main, ["gmps", "--n-min", "2", "--n-max", "3"], env={"GF_TOL_OVERRIDE": "wide"}
        )
        assert result.exit_code == 2
