"""What importing the package and launching the CLI load: numpy only for commands that compute."""

import os
import pathlib
import subprocess
import sys

import pytest

import gaussforge
from gaussforge import engineering

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# runs ``code`` in a fresh interpreter, then reports on stderr whether numpy was imported
PROBE = """
import sys
try:
{code}
finally:
    print("numpy loaded:", "numpy" in sys.modules, file=sys.stderr)
"""


def probe(code):
    body = "\n".join("    " + line for line in code.splitlines())
    return subprocess.run(
        [sys.executable, "-c", PROBE.format(code=body)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )


def run_cli(*args):
    return f"from gaussforge.cli import main\nmain({list(args)!r}, prog_name='gaussforge')"


@pytest.mark.parametrize(
    "code",
    [
        "import gaussforge",
        "import gaussforge.cli",
        run_cli("--help"),
        run_cli("engineer", "--help"),
        run_cli("gmps", "--n-min", "2", "--n-max", "50", "--format", "json"),
        run_cli("gmps", "--n-min", "2", "--n-max", "50", "--format", "csv"),
    ],
    ids=["import", "import-cli", "help", "engineer-help", "gmps-json", "gmps-csv"],
)
def test_no_numpy_where_none_is_needed(code):
    result = probe(code)
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines()[-1] == "numpy loaded: False"


def test_the_probe_sees_numpy_when_a_command_computes():
    result = probe(run_cli("ring", "--n", "3", "--coupling", "0.5"))
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("{")
    assert result.stderr.splitlines()[-1] == "numpy loaded: True"


def test_submodules_are_attributes_before_anything_imports_them():
    result = probe("import gaussforge\nassert gaussforge.symplectic.is_pure is gaussforge.is_pure")
    assert result.returncode == 0, result.stderr


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from gaussforge import *", namespace)
    assert set(gaussforge.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(gaussforge, name) for name in gaussforge.__all__)


def test_dir_lists_every_public_name():
    assert set(gaussforge.__all__) <= set(dir(gaussforge))


def test_names_are_their_home_modules_objects():
    assert gaussforge.engineer_state is gaussforge.engineering.engineer_state
    assert gaussforge.engineer_state is engineering.engineer_state
    assert gaussforge.GaussForgeError is gaussforge.errors.GaussForgeError


def test_first_access_caches_the_name_in_the_package():
    gaussforge.parity_table  # noqa: B018
    assert vars(gaussforge)["parity_table"] is gaussforge.gmps.parity_table


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        gaussforge.no_such_name  # noqa: B018
