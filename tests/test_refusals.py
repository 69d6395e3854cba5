"""The refusals of outside input: mode counts and indices, matrices, JSON documents and argv.

Each kind of input has one checker.  The golden table pins the exception type
and the exact text of every refusal those checkers make, including the order
in which a doubly bad input is refused.
"""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from gaussforge import jsonio
from gaussforge.cli import main
from gaussforge.engineering import Recipe, engineer_state, parameter_count, random_recipe
from gaussforge.entanglement import (
    bosonic_entropy,
    entropy_one_vs_rest,
    entropy_via_pairwise,
    full_report,
    log_negativity_pair,
    schmidt_parameter,
)
from gaussforge.errors import InputFormatError, NotPureError, RecipeError
from gaussforge.gmps import min_bonds_general, min_bonds_invariant, parity_table, theta
from gaussforge.standard_form import (
    StandardForm,
    det_identity_residual,
    harmonic_ground_state,
    read_vq_document,
    reconstruct_diagonal,
    ring_potential,
    to_standard_form,
)
from gaussforge.symplectic import CovarianceMatrix, _from_blocks, read_matrix, symplectic_form, vacuum_cm

from oracles import SymplecticMatrix, beam_splitter, mode_block, reduced_cm, squeezer

PURE = engineer_state(Recipe(2, np.sqrt(2.0)))
THERMAL = CovarianceMatrix(2, 2.0 * np.eye(4))
NAN = float("nan")
# V_Q (+) V_Q^-1 for an indefinite V_Q: it passes the purity identity, and each mode's
# block determinant is 0.5, positive, so the Schmidt values are 0.707, below any state's
BELOW_ONE = _from_blocks(np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([[0.5, 0.5], [0.5, -0.5]]))
BOUND = "entries must be finite and at most 1e+150 in magnitude"
NOT_PURE = "state is not pure: purity residual 3.000e+00 exceeds tolerance 5.000e-09"


class _Exit(Exception):
    """A CLI run's exit code and stderr, raised so that CLI rows have the table's shape."""


def _cli(args, stdin=None, env=None):
    result = CliRunner().invoke(main, args, input=stdin, env=env)
    assert result.stdout == ""
    raise _Exit(f"{result.exit_code} {result.stderr}")


def _vq_document(vq):
    return json.dumps({"n_modes": len(vq), "vq": vq})  # NaN as json.loads accepts it


GOLDEN = [
    # mode counts
    ("symplectic_form", lambda: symplectic_form(0), ValueError, "n_modes must be >= 1, got 0"),
    ("vacuum_cm", lambda: vacuum_cm(0), ValueError, "n_modes must be >= 1, got 0"),
    ("cm-count-first", lambda: CovarianceMatrix(0, [[NAN]]), ValueError, "n_modes must be >= 1, got 0"),
    ("cm-shape", lambda: CovarianceMatrix(1, np.eye(3)), ValueError,
     "expected a 2x2 matrix for 1 modes, got shape (3, 3)"),
    ("symplectic-count", lambda: SymplecticMatrix(-1, np.eye(2)), ValueError,
     "n_modes must be >= 1, got -1"),
    ("sf-count", lambda: StandardForm(0, [[1.0]]), ValueError, "n_modes must be >= 1, got 0"),
    ("sf-shape", lambda: StandardForm(2, np.eye(3)), ValueError, "expected a 2x2 matrix, got (3, 3)"),
    ("reconstruct", lambda: reconstruct_diagonal([], 0), ValueError, "n_modes must be >= 1, got 0"),
    ("reconstruct-max_iter-negative", lambda: reconstruct_diagonal([0.1], 2, max_iter=-1), ValueError,
     "max_iter must be >= 0, got -1"),
    ("reconstruct-max_iter-fraction", lambda: reconstruct_diagonal([0.1], 2, max_iter=2.5), ValueError,
     "max_iter must be an integer, got 2.5"),
    ("reconstruct-max_iter-bool", lambda: reconstruct_diagonal([0.1], 2, max_iter=True), ValueError,
     "max_iter must be an integer, got True"),
    ("reconstruct-count-before-max_iter", lambda: reconstruct_diagonal([], 0, max_iter=-1), ValueError,
     "n_modes must be >= 1, got 0"),
    ("parameter_count", lambda: parameter_count(0), ValueError, "n_modes must be >= 1, got 0"),
    ("random_recipe", lambda: random_recipe(1, 0), ValueError, "n_modes must be >= 2, got 1"),
    ("random_recipe-s_max-inf", lambda: random_recipe(3, 0, s_max=np.inf), ValueError,
     "s_max must be finite and exceed 1, got inf"),
    ("random_recipe-s_max-nan", lambda: random_recipe(3, 0, s_max=NAN), ValueError,
     "s_max must be finite and exceed 1, got nan"),
    ("random_recipe-s_max-one", lambda: random_recipe(3, 0, s_max=1.0), ValueError,
     "s_max must be finite and exceed 1, got 1.0"),
    ("theta", lambda: theta(0), ValueError, "n_modes must be >= 1, got 0"),
    ("min_bonds_general", lambda: min_bonds_general(1), ValueError, "n_modes must be >= 2, got 1"),
    ("min_bonds_invariant", lambda: min_bonds_invariant(1), ValueError, "n_modes must be >= 2, got 1"),
    ("parity-n_min", lambda: parity_table(1, 5), ValueError, "n_min must be >= 2, got 1"),
    ("parity-n_max", lambda: parity_table(5, 4), ValueError, "n_max (4) must be >= n_min (5)"),
    ("recipe-count", lambda: engineer_state(Recipe(1, 1.5)), RecipeError, "n_modes must be >= 2, got 1"),
    ("ring", lambda: ring_potential(1, 0.5), ValueError, "ring needs at least 2 modes, got 1"),
    # mode indices, each after or before its neighbouring checks as today
    ("cross_block", lambda: mode_block(PURE, 1, 0), ValueError, "mode index 0 out of range for 2 modes"),
    ("mode_block", lambda: mode_block(PURE, 3), ValueError, "mode index 3 out of range for 2 modes"),
    ("squeezer", lambda: squeezer(2, 3, -1.0), ValueError, "mode index 3 out of range for 2 modes"),
    ("splitter-index-first", lambda: beam_splitter(2, 3, 3, 0.5), ValueError,
     "mode index 3 out of range for 2 modes"),
    ("splitter-distinct", lambda: beam_splitter(2, 1, 1, 0.5), ValueError,
     "beam splitter needs two distinct modes, got 1 twice"),
    ("logneg-distinct-first", lambda: log_negativity_pair(PURE, 3, 3), ValueError,
     "log negativity needs two distinct modes, got 3 twice"),
    ("logneg-index", lambda: log_negativity_pair(PURE, 1, 0), ValueError,
     "mode index 0 out of range for 2 modes"),
    ("logneg-integer-before-distinct-bool", lambda: log_negativity_pair(PURE, 1, True), ValueError,
     "mode index must be an integer, got True"),
    ("logneg-integer-before-distinct-float", lambda: log_negativity_pair(PURE, 1, 1.0), ValueError,
     "mode index must be an integer, got 1.0"),
    ("logneg-integer-before-distinct-fraction", lambda: log_negativity_pair(PURE, 2.5, 2.5), ValueError,
     "mode index must be an integer, got 2.5"),
    ("logneg-integer-before-distinct-string", lambda: log_negativity_pair(PURE, "1", "1"), ValueError,
     "mode index must be an integer, got '1'"),
    ("reduced-empty", lambda: reduced_cm(PURE, []), ValueError, "mode subset must be nonempty"),
    ("reduced-repeated-first", lambda: reduced_cm(PURE, [5, 5]), ValueError,
     "mode subset has repeated entries: [5, 5]"),
    ("reduced-index", lambda: reduced_cm(PURE, [1, 5]), ValueError, "mode index 5 out of range for 2 modes"),
    ("schmidt-purity-first", lambda: schmidt_parameter(THERMAL, 5), NotPureError, NOT_PURE),
    ("entropy-index", lambda: entropy_one_vs_rest(PURE, 3), ValueError, "mode index 3 out of range for 2 modes"),
    ("report-purity-first", lambda: full_report(THERMAL, 0), NotPureError, NOT_PURE),
    ("report-index", lambda: full_report(PURE, 0), ValueError, "mode index 0 out of range for 2 modes"),
    ("det-identity-index-first", lambda: det_identity_residual(THERMAL, 5), ValueError,
     "mode index 5 out of range for 2 modes"),
    ("pairwise-index", lambda: entropy_via_pairwise(to_standard_form(PURE), 0), ValueError,
     "mode index 0 out of range for 2 modes"),
    # symplectic eigenvalues outside [1 - rank tolerance, MAX_ENTRY], named
    *(
        (f"entropy-nu-{nu!r}", lambda nu=nu: bosonic_entropy(nu), ValueError,
         f"symplectic eigenvalue {text} lies outside [0.999999, 1e+150]")
        for nu, text in ((0.5, "0.5"), (-3, "-3.0"), (NAN, "nan"), (np.inf, "inf"), (1e308, "1e+308"))
    ),
    ("entropy-schmidt-below-one", lambda: entropy_one_vs_rest(BELOW_ONE, 2), ValueError,
     "symplectic eigenvalue 0.7071067811865476 lies outside [0.999999, 1e+150]"),
    # matrices: the bound and the symmetry, in each owner's order
    ("cm-bound-first", lambda: CovarianceMatrix(1, [[NAN, 1.0], [0.0, 1.0]]), ValueError,
     f"covariance matrix {BOUND}"),
    ("cm-inf", lambda: CovarianceMatrix(1, [[np.inf, 0.0], [0.0, 1.0]]), ValueError,
     f"covariance matrix {BOUND}"),
    ("cm-symmetric", lambda: CovarianceMatrix(1, [[1.0, 2.0], [0.0, 1.0]]), ValueError,
     "covariance matrix must be symmetric"),
    ("sf-nan-is-asymmetric", lambda: StandardForm(1, [[NAN]]), ValueError, "vq must be symmetric"),
    ("sf-symmetric-first", lambda: StandardForm(2, [[1.0, 2e200], [0.0, 1.0]]), ValueError,
     "vq must be symmetric"),
    ("sf-definite", lambda: StandardForm(1, [[-1.0]]), ValueError, "vq must be positive definite"),
    ("sf-bound", lambda: StandardForm(1, [[1e160]]), ValueError, f"standard-form {BOUND}"),
    ("sf-inf", lambda: StandardForm(1, [[np.inf]]), ValueError, f"standard-form {BOUND}"),
    ("potential-bound-first", lambda: harmonic_ground_state([[NAN, 1.0], [0.0, 1.0]]), ValueError,
     f"potential {BOUND}"),
    ("potential-symmetric", lambda: harmonic_ground_state([[1.0, 2.0], [0.0, 1.0]]), ValueError,
     "potential must be symmetric"),
    ("read-shape-first", lambda: read_matrix([[NAN]], "vq", 2), InputFormatError,
     "vq must be a 2x2 row-major array"),
    ("read-bound", lambda: read_matrix([[1e151]], "data", 1), InputFormatError, f"data {BOUND}"),
    # JSON documents
    ("cm-doc-object", lambda: CovarianceMatrix.from_dict([]), InputFormatError,
     "covariance document must be a JSON object"),
    ("cm-doc-key", lambda: CovarianceMatrix.from_dict({"n_modes": True, "data": 1}), InputFormatError,
     "covariance document missing key 'ordering'"),
    ("cm-doc-ordering-first", lambda: CovarianceMatrix.from_dict(
        {"n_modes": True, "ordering": "qqpp", "data": [[NAN]]}), InputFormatError,
     "unsupported ordering 'qqpp'; expected 'qpqp'"),
    *(
        (f"cm-doc-n_modes-{value!r}", lambda value=value: CovarianceMatrix.from_dict(
            {"n_modes": value, "ordering": "qpqp", "data": [[NAN]]}), InputFormatError,
         "n_modes must be a positive integer")
        for value in (True, 0, 1.0, "1", None)
    ),
    ("cm-doc-data", lambda: CovarianceMatrix.from_dict(
        {"n_modes": 1, "ordering": "qpqp", "data": [[NAN, 0.0], [0.0, 1.0]]}), InputFormatError,
     f"data {BOUND}"),
    ("recipe-doc-object", lambda: Recipe.from_dict("x"), InputFormatError,
     "recipe document must be a JSON object"),
    ("recipe-doc-key-first", lambda: Recipe.from_dict({"n_modes": True}), InputFormatError,
     "recipe document missing key 's'"),
    *(
        (f"recipe-doc-n_modes-{value!r}", lambda value=value: Recipe.from_dict({"n_modes": value, "s": "x"}),
         InputFormatError, "n_modes must be an integer >= 2")
        for value in (True, 1, 2.0, "3", [])
    ),
    # recipes built in Python: entries that are not numbers or not pairs of integers
    ("recipe-t-string", lambda: engineer_state(Recipe(3, 1.5, {3: 1.2}, {(2, 3): "0.5"})), RecipeError,
     "transmittivity b[(2, 3)] must be a number, got '0.5'"),
    ("recipe-t-none", lambda: engineer_state(Recipe(3, 1.5, {3: 1.2}, {(2, 3): None})), RecipeError,
     "transmittivity b[(2, 3)] must be a number, got None"),
    ("recipe-s-string", lambda: engineer_state(Recipe(3, "1.5", {3: 1.2}, {(2, 3): 0.5})), RecipeError,
     "seed squeezing s must be a number, got '1.5'"),
    ("recipe-r-string", lambda: engineer_state(Recipe(3, 1.5, {3: "1.2"}, {(2, 3): 0.5})), RecipeError,
     "r[3] must be a number, got '1.2'"),
    ("recipe-s-r-t-in-order", lambda: engineer_state(Recipe(3, "1.5", {3: "1.2"}, {(2, 3): None})), RecipeError,
     "seed squeezing s must be a number, got '1.5'; r[3] must be a number, got '1.2'; "
     "transmittivity b[(2, 3)] must be a number, got None"),
    ("recipe-pair-string", lambda: engineer_state(Recipe(3, 1.5, {3: 1.2}, {("2", 3): 0.5})), RecipeError,
     "missing pair (2, 3); pair key ('2', 3) is not two integer mode indices"),
    ("recipe-pair-fraction", lambda: engineer_state(Recipe(3, 1.5, {3: 1.2}, {(2.5, 3): 0.5})), RecipeError,
     "missing pair (2, 3); pair key (2.5, 3) is not two integer mode indices"),
    ("recipe-pair-not-a-pair", lambda: engineer_state(Recipe(3, 1.5, {3: 1.2}, {3: 0.5, (2, 3, 4): 0.5})),
     RecipeError,
     "missing pair (2, 3); pair key 3 is not two integer mode indices; "
     "pair key (2, 3, 4) is not two integer mode indices"),
    ("recipe-r-key-string", lambda: engineer_state(Recipe(3, 1.5, {"3": 1.2}, {(2, 3): 0.5})), RecipeError,
     "missing mode squeezing r[3]; r key '3' is not an integer mode index"),
    ("vq-doc-object", lambda: read_vq_document(None), InputFormatError,
     "standard-form document must be a JSON object"),
    ("vq-doc-key", lambda: StandardForm.from_dict({"n_modes": 1}), InputFormatError,
     "standard-form document missing key 'vq'"),
    *(
        (f"vq-doc-n_modes-{value!r}", lambda value=value: read_vq_document({"n_modes": value, "vq": "x"}),
         InputFormatError, "n_modes must be a positive integer")
        for value in (False, -1, 1.5)
    ),
    ("vq-doc-bound", lambda: read_vq_document({"n_modes": 1, "vq": [[np.inf]]}), InputFormatError,
     f"vq {BOUND}"),
    # argv: exit code and stderr of one refusal line
    ("cli-range", lambda: _cli(["gmps", "--n-min", "5", "--n-max", "2"]), _Exit,
     "2 error: range must satisfy n_min <= n_max, got [5, 2]\n"),
    ("cli-int-range", lambda: _cli(["gmps", "--n-min", "1", "--n-max", "3"]), _Exit,
     "2 error: Invalid value for '--n-min': 1 is not in the range 2<=x<=1000000.\n"),
    ("cli-missing", lambda: _cli(["engineer"]), _Exit, "2 error: Missing option '--recipe'.\n"),
    ("cli-command", lambda: _cli(["no-such"]), _Exit, "2 error: No such command 'no-such'.\n"),
    ("cli-combination", lambda: _cli(["standard-form"]), _Exit,
     "2 error: provide exactly one of --cm or --vq\n"),
    ("cli-tolerance", lambda: _cli(["gmps", "--n-min", "2", "--n-max", "3"], env={"GF_TOL_OVERRIDE": "wide"}),
     _Exit, "2 error: GF_TOL_OVERRIDE must be a positive float, got 'wide'\n"),
    ("cli-vq-symmetric", lambda: _cli(["standard-form", "--vq", "-", "--reconstruct"],
                                      _vq_document([[1.0, 0.5], [0.2, 1.0]])),
     _Exit, "1 error: vq must be symmetric\n"),
    ("cli-vq-bound-first", lambda: _cli(["standard-form", "--vq", "-", "--reconstruct"],
                                        _vq_document([[1.0, NAN], [0.2, 1.0]])),
     _Exit, f"2 error: vq {BOUND}\n"),
    ("cli-n_modes", lambda: _cli(["analyze", "--cm", "-"], '{"n_modes": true, "ordering": "qpqp", "data": []}'),
     _Exit, "2 error: n_modes must be a positive integer\n"),
]


@pytest.mark.parametrize("call, kind, text", [row[1:] for row in GOLDEN], ids=[row[0] for row in GOLDEN])
def test_golden_refusal(call, kind, text):
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == text


@pytest.mark.parametrize(
    "call",
    [
        lambda: CovarianceMatrix(True, np.eye(2)),
        lambda: StandardForm(True, [[1.0]]),
        lambda: vacuum_cm(True),
        lambda: reconstruct_diagonal([], True),
        lambda: parameter_count(2.5),
        lambda: theta(4.0),
        lambda: parity_table(2, 5.0),
        lambda: entropy_one_vs_rest(PURE, 1.0),
        lambda: full_report(PURE, 2.0),
        lambda: log_negativity_pair(PURE, 1.5, 2),
        lambda: schmidt_parameter(PURE, True),
        lambda: reduced_cm(PURE, [True, 2]),
        lambda: ring_potential(2.5, 1.0),
    ],
    ids=[
        "cm", "standard-form", "vacuum", "reconstruct", "parameter-count", "theta", "parity-n_max",
        "entropy", "report", "logneg", "schmidt", "reduced", "ring",
    ],
)
def test_bools_and_non_integers_are_refused(call):
    with pytest.raises(ValueError, match=r"^(n_modes|n_max|mode index) must be an integer, got "):
        call()


def test_non_integer_recipe_count_is_a_recipe_error():
    recipe = Recipe(3.0, 1.5, {3: 1.2}, {(2, 3): 0.6})
    with pytest.raises(RecipeError, match=r"^n_modes must be an integer, got 3\.0$"):
        engineer_state(recipe)


def test_numpy_integers_are_stored_as_int():
    assert type(CovarianceMatrix(np.int64(1), np.eye(2)).n_modes) is int
    assert type(StandardForm(np.int32(1), [[1.0]]).n_modes) is int
    assert parameter_count(np.int64(4)) == 6
    assert entropy_one_vs_rest(PURE, np.int64(2)) == entropy_one_vs_rest(PURE, 2)
    text = jsonio.dumps(reconstruct_diagonal([0.1], np.int64(2)).to_dict())
    assert '"n_modes": 2,' in text
