"""Command-line interface.

Machine-readable output (JSON or CSV) goes to stdout only; diagnostics go
to stderr.  Exit codes: 0 success, 1 domain error (invalid recipe, state
outside the supported class, failed reconstruction, non-CM input matrix),
2 input error (malformed files, bad or missing arguments).  Every refusal
is one ``error: ...`` line on stderr with nothing on stdout, printed by
the command group's single handler.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys

import click

# numerical modules (numpy with them) load inside the commands that run them,
# so ``--help`` and ``gmps`` start without numpy
from . import jsonio, tolerances
from .errors import GaussForgeError, InputFormatError
from .gmps import parity_table, table_csv

_EXIT_DOMAIN = 1
_EXIT_INPUT = 2

# the ring output is the dense 2N x 2N CM, so time, memory and stdout grow as N^2 or faster
RING_MAX_MODES = 1000


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


class _Group(click.Group):
    """Prints every refusal, click's parse errors of the group's own options too, as one ``error:`` line."""

    def main(self, *args, **kwargs):
        try:
            return super().main(*args, standalone_mode=False, **kwargs)
        except click.exceptions.NoArgsIsHelpError as exc:  # a bare ``gaussforge`` shows its help
            exc.show()
            sys.exit(exc.exit_code)
        except click.Abort:  # Ctrl-C, reported as click reports it
            click.echo("Aborted!", err=True)
            sys.exit(1)
        except click.UsageError as exc:
            _fail(exc.format_message(), _EXIT_INPUT)
        except InputFormatError as exc:
            _fail(str(exc), _EXIT_INPUT)
        except (GaussForgeError, ValueError) as exc:  # numpy's LinAlgError is a ValueError
            _fail(str(exc), _EXIT_DOMAIN)


def _read_json(path: str):
    try:
        text = sys.stdin.read() if path == "-" else pathlib.Path(path).read_text()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except ValueError as exc:  # also integers beyond Python's digit limit
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from None


def _emit(text: str, out_path):
    if out_path is None or out_path == "-":
        click.echo(text, nl=False)
        return
    try:
        pathlib.Path(out_path).write_text(text)
    except OSError as exc:
        raise InputFormatError(f"cannot write {out_path}: {exc}") from None


_precision_option = click.option(
    "--precision",
    type=click.IntRange(1, 17),
    default=17,
    show_default=True,
    help="Significant digits for floats in the output.",
)


@click.group(cls=_Group)
def main():
    """Engineer, analyze, and convert pure N-mode Gaussian states."""
    try:
        tolerances.scale()
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None


@main.command("engineer")
@click.option("--recipe", "recipe_path", required=True, help="Recipe JSON (or - for stdin).")
@click.option("--out", "out_path", default=None, help="Write the CM JSON here instead of stdout.")
@_precision_option
def cmd_engineer(recipe_path, out_path, precision):
    """Build a pure state from a recipe and emit its covariance matrix."""
    from .engineering import Recipe, _engineer, parameter_count, validate_recipe
    from .symplectic import is_pure

    recipe = Recipe.from_dict(_read_json(recipe_path))
    check = validate_recipe(recipe)
    for warning in check.warnings:
        click.echo(f"warning: {warning}", err=True)
    cm = _engineer(recipe, check)
    click.echo(f"{parameter_count(recipe.n_modes)} parameters", err=True)
    click.echo(f"purity residual {is_pure(cm).residual:.3e}", err=True)
    _emit(jsonio.dumps(cm.to_dict(), precision) + "\n", out_path)


@main.command("analyze")
@click.option("--cm", "cm_path", required=True, help="Covariance-matrix JSON (or - for stdin).")
@_precision_option
def cmd_analyze(cm_path, precision):
    """Report spectrum, rank, purity, and entanglement of a state."""
    from .entanglement import full_report
    from .symplectic import CovarianceMatrix, is_pure, williamson_spectrum

    cm = CovarianceMatrix.from_dict(_read_json(cm_path))
    spectrum = williamson_spectrum(cm)
    purity = is_pure(cm)
    doc = {
        "n_modes": cm.n_modes,
        "symplectic_spectrum": list(spectrum.values),
        "symplectic_rank": spectrum.rank,
        "pure": purity.pure,
        "purity_residual": purity.residual,
        "entanglement": None,
    }
    if purity.pure:
        doc["entanglement"] = full_report(cm).to_dict()
    else:
        click.echo("state is not pure; entanglement report omitted", err=True)
    _emit(jsonio.dumps(doc, precision) + "\n", None)


@main.command("standard-form")
@click.option("--cm", "cm_path", default=None, help="Covariance-matrix JSON to normalize.")
@click.option("--vq", "vq_path", default=None, help="Standard-form JSON providing off-diagonals.")
@click.option("--reconstruct", is_flag=True, help="Complete the diagonal from --vq off-diagonals.")
@_precision_option
def cmd_standard_form(cm_path, vq_path, reconstruct, precision):
    """Convert a state to standard form, or rebuild one from correlations."""
    from .standard_form import (
        _strict_upper,
        read_vq_document,
        reconstruct_diagonal,
        standard_form_to_cm,
        to_standard_form,
    )
    from .symplectic import CovarianceMatrix, _check_symmetric

    if (cm_path is None) == (vq_path is None):
        raise click.UsageError("provide exactly one of --cm or --vq")
    if cm_path is not None:
        if reconstruct:
            raise click.UsageError("--reconstruct applies only to --vq input")
        sf = to_standard_form(CovarianceMatrix.from_dict(_read_json(cm_path)))
        _emit(jsonio.dumps(sf.to_dict(), precision) + "\n", None)
        return
    if not reconstruct:
        raise click.UsageError("--vq input requires --reconstruct")
    n_modes, vq = read_vq_document(_read_json(vq_path))
    _check_symmetric("vq", vq)
    sf = reconstruct_diagonal(vq[_strict_upper(n_modes)], n_modes)
    out = {"standard_form": sf.to_dict(), "cm": standard_form_to_cm(sf).to_dict()}
    _emit(jsonio.dumps(out, precision) + "\n", None)


@main.command("gmps")
@click.option("--n-min", type=click.IntRange(2, 10**6), required=True, help="Smallest chain size.")
@click.option("--n-max", type=click.IntRange(2, 10**6), required=True, help="Largest chain size.")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "csv"]),
    default="json",
    show_default=True,
)
@_precision_option
def cmd_gmps(n_min, n_max, fmt, precision):
    """Emit the EPR-bond lower-bound table over a size range."""
    if n_min > n_max:
        raise click.UsageError(f"range must satisfy n_min <= n_max, got [{n_min}, {n_max}]")
    rows = parity_table(n_min, n_max)
    if fmt == "csv":
        _emit(table_csv(rows), None)
    else:
        _emit(jsonio.dumps([row.to_dict() for row in rows], precision) + "\n", None)


@main.command("ring")
@click.option(
    "--n",
    "n_modes",
    type=click.IntRange(3, RING_MAX_MODES),
    required=True,
    help=f"Ring size, 3 to {RING_MAX_MODES}. At {RING_MAX_MODES} modes a run writes "
    "91 MB of JSON and takes about 4 s and 0.45 GB of memory (2-core Intel Xeon host).",
)
@click.option(
    "--coupling",
    type=float,
    required=True,
    help="Spring constant, nonnegative; above about 1e7 the potential is too "
    "ill-conditioned to resolve and the run exits with code 1.",
)
@_precision_option
def cmd_ring(n_modes, coupling, precision):
    """Ground state of a spring-coupled ring, with entanglement summary."""
    from .entanglement import entropy_one_vs_rest, log_negativity_pair
    from .standard_form import harmonic_ground_state, ring_potential

    if not (math.isfinite(coupling) and coupling >= 0.0):
        raise click.UsageError(f"coupling must be finite and nonnegative, got {coupling}")
    cm = harmonic_ground_state(ring_potential(n_modes, coupling))
    doc = {
        "n_modes": n_modes,
        "coupling": coupling,
        "cm": cm.to_dict(),
        "per_mode_entropy": [entropy_one_vs_rest(cm, k) for k in range(1, n_modes + 1)],
        "nearest_neighbor_logneg": log_negativity_pair(cm, 1, 2),
    }
    del cm  # freed before serialising, the step that sets the peak memory
    _emit(jsonio.dumps(doc, precision) + "\n", None)


if __name__ == "__main__":
    main()
