"""Linear-optics engineering of pure N-mode Gaussian states.

The pipeline consumes exactly N(N-1)/2 free parameters: one seed
squeezing shared antisymmetrically by the first two modes, one squeezing
per mode 3..N, and one transmittivity per mode pair (j, i) with
2 <= j < i <= N.  Each additional mode is squeezed and then mixed with
every earlier mode (except the first) through a chain of beam splitters,
so the two-mode entanglement created by the seed gets distributed across
the register.  A final, fully determined balancing squeeze on every mode
leaves all single-mode blocks proportional to the identity.  Each mode is
squeezed while still vacuum, so the squeezers act first: squeezed vacua
enter one orthogonal N x N beam-splitter network, and since no gate mixes
q with p the state is two N x N blocks, V_Q and V_P = V_Q^-1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import tolerances
from .errors import InputFormatError, RecipeError
from .symplectic import CovarianceMatrix, _from_blocks


def parameter_count(n_modes: int) -> int:
    """Number of free parameters for an N-mode state: N(N-1)/2, exactly."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    return n_modes * (n_modes - 1) // 2


@dataclass(frozen=True)
class Recipe:
    """Parameter set for the engineering pipeline.

    Attributes:
        n_modes: number of modes N, at least 2.
        s: seed squeezing shared by modes 1 and 2 (mode 2 gets 1/s).
        r: squeezing factor per mode, keyed by mode index 3..N.
        b: transmittivity per beam-splitter pair, keyed by (j, i) with
            2 <= j < i <= N; applied in ascending i, then ascending j.
    """

    n_modes: int
    s: float
    r: dict = field(default_factory=dict)
    b: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready document with string keys for ``r`` and a pair list for ``b``."""
        return {
            "n_modes": self.n_modes,
            "s": float(self.s),
            "r": {str(i): float(v) for i, v in sorted(self.r.items())},
            "b": [
                {"j": j, "i": i, "t": float(t)}
                for (j, i), t in sorted(self.b.items(), key=lambda kv: (kv[0][1], kv[0][0]))
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Recipe":
        """Parse the recipe document, validating the schema (not the physics)."""
        if not isinstance(doc, dict):
            raise InputFormatError("recipe document must be a JSON object")
        for key in ("n_modes", "s"):
            if key not in doc:
                raise InputFormatError(f"recipe document missing key {key!r}")
        n_modes = doc["n_modes"]
        if not isinstance(n_modes, int) or n_modes < 2:
            raise InputFormatError("n_modes must be an integer >= 2")
        s = _number(doc["s"], "s")
        if not isinstance(doc.get("r", {}), dict):
            raise InputFormatError("r must be an object keyed by mode index")
        if not isinstance(doc.get("b", []), list):
            raise InputFormatError("b must be an array of beam-splitter entries")
        r = {}
        for key, value in doc.get("r", {}).items():
            try:
                index = int(key)
            except (TypeError, ValueError):
                raise InputFormatError(f"r key {key!r} is not an integer") from None
            if index in r:
                raise InputFormatError(f"duplicate mode squeezing r[{index}]")
            r[index] = _number(value, f"r[{key!r}]")
        b = {}
        for entry in doc.get("b", []):
            if not isinstance(entry, dict) or not {"j", "i", "t"} <= set(entry):
                raise InputFormatError(
                    'each b entry must be an object with keys "j", "i", "t"'
                )
            j, i = entry["j"], entry["i"]
            if not all(isinstance(k, int) and not isinstance(k, bool) for k in (j, i)):
                raise InputFormatError("b indices j, i must be integers")
            t = _number(entry["t"], "b transmittivity t")
            if (j, i) in b:
                raise InputFormatError(f"duplicate beam-splitter pair ({j}, {i})")
            b[(j, i)] = t
        return cls(n_modes, s, r, b)


def _number(value, name: str) -> float:
    """A JSON number as a float; booleans and integers beyond float range are refused."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InputFormatError(f"{name} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise InputFormatError(f"{name} is beyond the float range") from None


# missing or unexpected recipe entries named one by one; the rest are counted
_LISTED = 5


@dataclass(frozen=True)
class RecipeValidation:
    """Validation outcome; truthy iff there are no errors (warnings allowed)."""

    errors: tuple
    warnings: tuple

    @property
    def ok(self) -> bool:
        return not self.errors

    def __bool__(self) -> bool:
        return self.ok


def validate_recipe(recipe: Recipe) -> RecipeValidation:
    """Check counts, ranges, and pair coverage of a recipe.

    Every pair (j, i) with 2 <= j < i <= N must appear exactly once, all
    squeezings must be positive, and transmittivities must lie strictly
    inside (0, 1).  Transmittivities within ``tolerances.DEGENERACY_MARGIN`` of the
    boundary only produce warnings: the state then degenerates toward a
    product across that link but remains valid.  Of each kind of missing or
    unexpected entry the first five are named and the rest only counted, so
    the cost and the message size follow the recipe's entries, not N.
    """
    errors = []
    warnings = []
    n = recipe.n_modes
    if n < 2:
        errors.append(f"n_modes must be >= 2, got {n}")
        return RecipeValidation(tuple(errors), tuple(warnings))
    if not recipe.s > 0.0:
        errors.append(f"seed squeezing s must be positive, got {recipe.s}")

    known_r = sorted(k for k in recipe.r if 3 <= k <= n)
    extra_r = sorted(k for k in recipe.r if not 3 <= k <= n)
    missing_r = (k for k in range(3, n + 1) if k not in recipe.r)
    errors += _itemized(
        (f"missing mode squeezing r[{k}]" for k in missing_r),
        n - 2 - len(known_r),
        "missing mode squeezings",
    )
    errors += _itemized(
        (f"unexpected mode squeezing r[{k}] for {n} modes" for k in extra_r),
        len(extra_r),
        "unexpected mode squeezings",
    )
    for index in known_r:
        if not recipe.r[index] > 0.0:
            errors.append(f"r[{index}] must be positive, got {recipe.r[index]}")

    def schedule_order(pair):
        return pair[1], pair[0]

    known_b = sorted((p for p in recipe.b if 2 <= p[0] < p[1] <= n), key=schedule_order)
    extra_b = sorted((p for p in recipe.b if not 2 <= p[0] < p[1] <= n), key=schedule_order)
    missing_b = ((j, i) for i in range(3, n + 1) for j in range(2, i) if (j, i) not in recipe.b)
    errors += _itemized(
        (f"missing pair ({j}, {i})" for j, i in missing_b),
        (n - 1) * (n - 2) // 2 - len(known_b),
        "missing pairs",
    )
    errors += _itemized(
        (f"unexpected pair ({j}, {i}) for {n} modes" for j, i in extra_b),
        len(extra_b),
        "unexpected pairs",
    )
    for j, i in known_b:
        t = recipe.b[(j, i)]
        if not 0.0 < t < 1.0:
            errors.append(
                f"transmittivity b[({j}, {i})] must lie strictly in (0, 1), got {t}"
            )
        elif t < tolerances.DEGENERACY_MARGIN or t > 1.0 - tolerances.DEGENERACY_MARGIN:
            warnings.append(
                f"b[({j}, {i})] = {t} is within {tolerances.DEGENERACY_MARGIN} of the boundary; "
                "the state degenerates toward a product across this link"
            )
    return RecipeValidation(tuple(errors), tuple(warnings))


def _itemized(messages, count: int, kind: str) -> list:
    """The first ``_LISTED`` of ``count`` lazily made messages, then one line counting the rest."""
    listed = list(itertools.islice(messages, _LISTED))
    if count > _LISTED:
        listed.append(f"{count - _LISTED} more {kind} not listed")
    return listed


def _schedule(recipe: Recipe):
    """Yield the gates in order as ``(mode, partner, value, free)``.

    ``partner`` None means a squeezer of factor ``value`` on ``mode``, else a
    beam splitter of transmittivity ``value`` between the two modes.
    """
    # seed: squeeze modes 1 and 2 in orthogonal quadratures, mix 50:50
    yield 1, None, recipe.s, True
    yield 2, None, 1.0 / recipe.s, False  # fixed by s
    yield 1, 2, 0.5, False  # fixed 50:50
    # distribute: each new mode is squeezed, then mixed with modes 2..i-1
    for i in range(3, recipe.n_modes + 1):
        yield i, None, recipe.r[i], True
        for j in range(2, i):
            yield j, i, recipe.b[(j, i)], True


def engineer_state(recipe: Recipe) -> CovarianceMatrix:
    """Build the pure N-mode state described by a recipe.

    The output is q-p block diagonal (all position-momentum covariances
    vanish) with every single-mode block proportional to the identity.

    Raises:
        RecipeError: if :func:`validate_recipe` reports errors, or if the
            squeezing is too extreme for the state to be represented.
    """
    check = validate_recipe(recipe)
    if not check:
        raise RecipeError("; ".join(check.errors))
    q = np.ones(recipe.n_modes)  # squared squeezings of the normal modes
    network = np.eye(recipe.n_modes)  # orthogonal matrix M of the beam-splitter chain
    with np.errstate(all="ignore"):  # extreme squeezing overflows; checked below
        for mode, partner, value, _ in _schedule(recipe):
            i = mode - 1
            if partner is None:  # the mode is still vacuum, so its squeezer acts first
                q[i] = value * value
            else:  # rotate rows (mode, partner) of M
                c, s = math.sqrt(value), math.sqrt(1.0 - value)
                a, b = network[i], network[partner - 1]
                network[i], network[partner - 1] = c * a - s * b, s * a + c * b
        # V_Q = M diag(q) M^T and V_P = M diag(1/q) M^T = V_Q^-1
        blocks = np.stack([(network * q) @ network.T, (network / q) @ network.T])
        # balance: per-mode squeezes fixed by the state itself, making every
        # single-mode block proportional to the identity
        t = (np.diagonal(blocks[1]) / np.diagonal(blocks[0])) ** 0.25
        blocks *= np.stack([np.outer(t, t), np.outer(1.0 / t, 1.0 / t)])
        largest = float(np.max(np.abs(blocks)))
    if not largest <= tolerances.MAX_ENTRY:
        raise RecipeError(
            f"squeezing too extreme: covariance entries reach {largest:.3e} "
            f"(limit {tolerances.MAX_ENTRY:.0e})"
        )
    return _from_blocks(*blocks)


def free_parameter_audit(recipe: Recipe) -> int:
    """Count the free parameters in the gate schedule of a valid recipe.

    Values fixed by other parameters (the mode-2 partner squeeze, the 50:50
    seed splitter) or by the state (the balancing squeezes) do not count.
    Nothing is computed and the values are not checked.
    """
    return sum(free for *_, free in _schedule(recipe))


def random_recipe(n_modes: int, seed: int, s_max: float = 4.0) -> Recipe:
    """Draw a valid recipe deterministically from a seed.

    Squeezings (seed and per-mode) are log-uniform on [1/s_max, s_max];
    transmittivities are uniform on [0.05, 0.95].

    Args:
        n_modes: number of modes, at least 2.
        seed: RNG seed; equal seeds give identical recipes.
        s_max: upper squeezing bound, strictly greater than 1.
    """
    if n_modes < 2:
        raise ValueError(f"n_modes must be >= 2, got {n_modes}")
    if not s_max > 1.0:
        raise ValueError(f"s_max must exceed 1, got {s_max}")
    rng = np.random.default_rng(seed)
    log_bound = np.log(s_max)

    def draw_squeezing() -> float:
        return float(np.exp(rng.uniform(-log_bound, log_bound)))

    s = draw_squeezing()
    r = {i: draw_squeezing() for i in range(3, n_modes + 1)}
    b = {
        (j, i): float(rng.uniform(0.05, 0.95))
        for i in range(3, n_modes + 1)
        for j in range(2, i)
    }
    return Recipe(n_modes, s, r, b)
