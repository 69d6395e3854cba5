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
q with p the state is two N x N blocks, V_Q and V_P = V_Q^-1.  The network
is built one new mode at a time: that mode's whole splitter chain is one
linear recurrence, solved in closed form by a running product and a running
sum, with the product rescaled in segments so it never leaves the float range.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from . import tolerances
from .errors import InputFormatError, RecipeError, _integer
from .jsonio import _read_header
from .symplectic import CovarianceMatrix, _from_blocks


def parameter_count(n_modes: int) -> int:
    """Number of free parameters for an N-mode state: N(N-1)/2, exactly."""
    n_modes = _integer(n_modes, "n_modes", 1)
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

    Unlike mode counts, the ``r`` and ``b`` keys are read as any integral
    real numbers: ``(2.0, 3)`` is the pair (2, 3), and ``(True, 3)`` the
    pair (1, 3), which :func:`validate_recipe` reports as unexpected.
    """

    n_modes: int
    s: float
    r: dict = field(default_factory=dict)
    b: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready document with string keys for ``r`` and a pair list for ``b``.

        The mode count and the keys are written as Python ``int``s, the keys as
        :func:`validate_recipe` reads them: ``3.0``, ``np.int64(3)`` and ``Fraction(3)`` all
        write as 3.  A key that the check calls malformed raises ``ValueError``.
        """
        r = {_index(key): float(v) for key, v in self.r.items()}
        b = {_pair_indices(key): float(t) for key, t in self.b.items()}
        if None in r or None in b:
            raise ValueError("r keys must be integral numbers and b keys pairs of them")
        return {
            "n_modes": operator.index(self.n_modes),
            "s": float(self.s),
            "r": {str(i): r[i] for i in sorted(r)},
            "b": [{"j": j, "i": i, "t": b[j, i]} for j, i in sorted(b, key=lambda pair: pair[::-1])],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Recipe":
        """Parse the recipe document, validating the schema (not the physics).

        Each entry is read once, so the cost follows the recipe's entries;
        the first bad entry decides the message.
        """
        n_modes = _read_header(doc, "recipe", ("n_modes", "s"), minimum=2)
        s = _number(doc["s"], "s")
        if not isinstance(doc.get("r", {}), dict):
            raise InputFormatError("r must be an object keyed by mode index")
        if not isinstance(doc.get("b", []), list):
            raise InputFormatError("b must be an array of beam-splitter entries")
        r = {}
        for key, value in doc.get("r", {}).items():
            if not (isinstance(key, str) and key.isascii() and key.isdigit()):
                raise InputFormatError(f"r key {key!r} is not a decimal mode index")
            index = int(key)
            if index in r:
                raise InputFormatError(f"duplicate mode squeezing r[{index}]")
            r[index] = _number(value, f"r[{key!r}]")
        b = {}
        shape = 'each b entry must be an object with keys "j", "i", "t"'
        for entry in doc.get("b", []):
            if not isinstance(entry, dict):
                raise InputFormatError(shape)
            try:
                j, i, t = entry["j"], entry["i"], entry["t"]
            except KeyError:
                raise InputFormatError(shape) from None
            if type(j) is not int or type(i) is not int:  # JSON integers are exactly int
                if not all(isinstance(k, int) and not isinstance(k, bool) for k in (j, i)):
                    raise InputFormatError("b indices j, i must be integers")
            if type(t) is not float:
                t = _number(t, "b transmittivity t")
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


# missing, unexpected or malformed recipe entries named one by one; the rest are counted
_LISTED = 5


@dataclass(frozen=True)
class RecipeValidation:
    """Validation outcome; truthy iff there are no errors (warnings allowed).

    Without errors it keeps the schedule-ordered transmittivities the state is built from.
    """

    errors: tuple
    warnings: tuple
    _transmittivity: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return not self.errors

    def __bool__(self) -> bool:
        return self.ok


def validate_recipe(recipe: Recipe) -> RecipeValidation:
    """Check counts, ranges, and coverage of a recipe: the package's only recipe check.

    Every mode 3..N needs one squeezing and every pair (j, i) with
    2 <= j < i <= N one transmittivity.  Squeezings must be positive numbers
    and transmittivities numbers strictly inside (0, 1); those within
    ``tolerances.DEGENERACY_MARGIN`` of the boundary only produce warnings:
    the state then degenerates toward a product across that link but remains
    valid.  Of each kind of missing, unexpected or malformed entry the first
    five are named and the rest only counted.  Squeezings and pairs share one
    coverage pass, which reads each key once, into its schedule slot; slots
    already in schedule order, as :meth:`Recipe.to_dict` writes them, are taken
    as they stand, others are sorted, and missing ones are looked for only when
    some are missing.  So the cost and the message size follow the recipe's
    entries, not N.  :func:`engineer_state` and ``gaussforge engineer`` run this
    check once per recipe and build from its outcome.
    """
    try:
        n = _integer(recipe.n_modes, "n_modes", 2)
    except ValueError as exc:
        return RecipeValidation((str(exc),), ())
    errors = []
    warnings = []
    if _real(recipe.s) is None:
        errors.append(f"seed squeezing s must be a number, got {recipe.s!r}")
    elif not recipe.s > 0.0:
        errors.append(f"seed squeezing s must be positive, got {recipe.s}")

    keys, values = list(recipe.r), list(recipe.r.values())
    order = _coverage(keys, n - 2, n, _SQUEEZINGS, errors)
    for k in order[~(_reals(values)[order] > 0.0)]:  # nan where not a number
        if _real(values[k]) is None:
            errors.append(f"r[{keys[k]}] must be a number, got {values[k]!r}")
        elif not values[k] > 0.0:
            errors.append(f"r[{keys[k]}] must be positive, got {values[k]}")

    keys, values = list(recipe.b), list(recipe.b.values())
    order = _coverage(keys, (n - 1) * (n - 2) // 2, n, _PAIRS, errors)
    t = _reals(values)[order]  # nan where not a number
    margin = tolerances.DEGENERACY_MARGIN
    for k in np.flatnonzero(~((t >= margin) & (t <= 1.0 - margin))):  # errors and warnings
        (j, i), value = keys[order[k]], values[order[k]]
        if _real(value) is None:
            errors.append(f"transmittivity b[({j}, {i})] must be a number, got {value!r}")
        elif not 0.0 < t[k] < 1.0:
            errors.append(f"transmittivity b[({j}, {i})] must lie strictly in (0, 1), got {value}")
        else:
            warnings.append(
                f"b[({j}, {i})] = {value} is within {margin} of the boundary; "
                "the state degenerates toward a product across this link"
            )
    return RecipeValidation(tuple(errors), tuple(warnings), None if errors else t)


def _coverage(keys: list, size: int, n: int, kind: tuple, errors: list) -> np.ndarray:
    """Positions of the scheduled ``keys`` in schedule order; the others are named in ``errors``.

    ``kind`` is ``_SQUEEZINGS`` or ``_PAIRS``.  Each key is read once, into a slot in 0..size-1 or
    a code.  Slots that are exactly 0..size-1 give the order as it stands (the count and end slots
    are compared first, in O(1)); others are sorted, and missing slots are looked for only if some
    are missing.
    """
    noun, name, slot_key, schedule_order, malformed, slots_of = kind
    slots = slots_of(keys, n)
    if len(slots) == size and slots[:1] == [0] and slots[-1] == size - 1 and slots == [*range(size)]:
        return np.arange(size)
    try:
        slots = np.fromiter(slots, np.int64, len(slots))
    except OverflowError:  # slots of registers beyond ~4e9 modes
        slots = np.array(slots, dtype=object)
    order = np.flatnonzero(slots >= 0)
    order = order[np.argsort(slots[order])]
    missing = size - len(order)
    taken = set(slots[order].tolist()) if missing else ()
    gaps = itertools.filterfalse(taken.__contains__, itertools.count())
    gaps = itertools.islice(gaps, min(missing, _LISTED))  # lazily, the missing slots to name
    extra = sorted((keys[k] for k in np.flatnonzero(slots == _UNEXPECTED)), key=schedule_order)
    bad = [keys[k] for k in np.flatnonzero(slots == _MALFORMED)]
    named = (f"missing {noun} {name(slot_key(k))}" for k in gaps)
    errors += _itemized(named, missing, f"missing {noun}s")
    named = (f"unexpected {noun} {name(key)} for {n} modes" for key in extra)
    errors += _itemized(named, len(extra), f"unexpected {noun}s")
    errors += _itemized(map(malformed.format, bad), len(bad), f"malformed {noun} keys")
    return order


_UNEXPECTED, _MALFORMED = -1, -2  # slot codes of keys that are not in the schedule


def _pair(slot: int) -> tuple:
    """The pair (j, i) of schedule slot (i-3)(i-2)/2 + (j-2), in closed form."""
    m = (1 + math.isqrt(1 + 8 * slot)) // 2  # i - 2: the m with m(m-1)/2 <= slot < m(m+1)/2
    return slot - m * (m - 1) // 2 + 2, m + 2


def _index(value):
    """An integral real number as an ``int``, else None; ``2.0`` and numpy integers are indices."""
    if not isinstance(value, numbers.Real):
        return None
    try:
        index = int(value)
    except (OverflowError, ValueError):  # inf, nan
        return None
    return index if index == value else None


def _mode_slot(key, n: int) -> int:
    """Schedule slot index - 3 of a squeezing key with 3 <= index <= n, else a code."""
    index = _index(key)
    if index is None:
        return _MALFORMED
    return index - 3 if 3 <= index <= n else _UNEXPECTED


def _pair_indices(key):
    """A pair key as two :func:`_index` ``int``s (j, i), else None."""
    if isinstance(key, tuple) and len(key) == 2:
        j, i = map(_index, key)
        if j is not None and i is not None:
            return j, i
    return None


def _slot(key, n: int) -> int:
    """Schedule slot (i-3)(i-2)/2 + (j-2) of a pair key (j, i) with 2 <= j < i <= n, else a code."""
    pair = _pair_indices(key)
    if pair is None:
        return _MALFORMED
    j, i = pair
    return (i - 3) * (i - 2) // 2 + j - 2 if 2 <= j < i <= n else _UNEXPECTED


def _slots(keys: list, n: int) -> list:
    """:func:`_slot` of every key; pairs of plain ints, as documents give, are read inline."""
    if set(map(type, keys)) <= {tuple}:
        try:
            return [
                ((i - 3) * (i - 2) // 2 + j - 2 if 2 <= j < i <= n else _UNEXPECTED)
                if type(j) is int and type(i) is int
                else _slot((j, i), n)
                for j, i in keys
            ]
        except ValueError:  # a tuple of another length
            pass
    return [_slot(key, n) for key in keys]


# each kind of entry: how messages name it (its noun, a key, the key of a schedule slot,
# the schedule order of unexpected keys, the text of a malformed key), and the slots of a
# key list, with plain int keys, as documents give, read inline
_SQUEEZINGS = (
    "mode squeezing",
    "r[{}]".format,
    lambda slot: slot + 3,
    _index,
    "r key {!r} is not an integer mode index",
    lambda keys, n: [
        (key - 3 if 3 <= key <= n else _UNEXPECTED) if type(key) is int else _mode_slot(key, n)
        for key in keys
    ],
)
_PAIRS = (
    "pair",
    lambda pair: "({}, {})".format(*pair),
    _pair,
    lambda pair: (_index(pair[1]), _index(pair[0])),
    "pair key {!r} is not two integer mode indices",
    _slots,
)


def _real(value):
    """A real number as a float (beyond the float range: +-inf), else None; bools are 0 and 1."""
    if not isinstance(value, numbers.Real):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _reals(values: list) -> np.ndarray:
    """``values`` as a float array, nan where a value is not a real number."""
    if set(map(type, values)) <= {float}:
        return np.fromiter(values, float, len(values))
    return np.array(list(map(_real, values)), dtype=float)  # None becomes nan


def _itemized(messages, count: int, kind: str) -> list:
    """The first ``_LISTED`` of ``count`` lazily made messages, then one line counting the rest."""
    listed = list(itertools.islice(messages, _LISTED))
    if count > _LISTED:
        listed.append(f"{count - _LISTED} more {kind} not listed")
    return listed


def _mix_new_mode(network: np.ndarray, i: int, c: np.ndarray, s: np.ndarray) -> None:
    """Apply mode i's splitters (j, i), j = 2..i-1, to M in place, in one recurrence.

    With c = sqrt(t) and s = sqrt(1 - t), splitter k (j = k + 1) sets
    M_k <- c_k M_k - s_k b_{k-1} and passes row i on as
    b_k = c_k b_{k-1} + s_k M_k, from b_0 = e_i; mode i is fresh, so only the
    first i columns are nonzero.  With P_k = c_1 ... c_k this solves to
    b_k = P_k (b_0 + sum_{l<=k} (s_l / P_l) M_l): one running product and one
    running sum.  The product restarts from the current b once it falls below
    ``tolerances.CHAIN_FLOOR``, so neither P nor s / P leaves the float range;
    a single factor cannot, as c >= sqrt(5e-324).
    """
    rows = network[1 : i - 1, :i]  # M_k, the rows of modes 2..i-1
    b = network[i - 1, :i]  # b_0 = e_i
    start = 0
    while start < i - 2:
        p = np.multiply.accumulate(c[start:])  # nonincreasing, as every c <= 1
        stop = i - 2
        if p[-1] < tolerances.CHAIN_FLOOR:  # restart after the last P above the floor
            stop = start + max(1, int(np.count_nonzero(p >= tolerances.CHAIN_FLOOR)))
            p = p[: stop - start]
        seg = slice(start, stop)
        walk = np.empty((stop - start + 1, i))  # b_{start}, ..., b_{stop}
        walk[0] = b
        np.multiply((s[seg] / p)[:, None], rows[seg], out=walk[1:])
        np.add.accumulate(walk, axis=0, out=walk)
        walk[1:] *= p[:, None]
        rows[seg] *= c[seg, None]
        rows[seg] -= s[seg, None] * walk[:-1]
        b, start = walk[-1], stop
    network[i - 1, :i] = b


def engineer_state(recipe: Recipe) -> CovarianceMatrix:
    """Build the pure N-mode state described by a recipe.

    The output is q-p block diagonal (all position-momentum covariances
    vanish) with every single-mode block proportional to the identity.  The
    recipe is checked once, by :func:`validate_recipe`, and the state is built
    from the schedule-ordered transmittivities that check keeps.

    Raises:
        RecipeError: if :func:`validate_recipe` reports errors, or if the
            squeezing is too extreme for the state to be represented.
    """
    return _engineer(recipe, validate_recipe(recipe))


def _engineer(recipe: Recipe, check: RecipeValidation) -> CovarianceMatrix:
    """:func:`engineer_state` of a recipe already checked: ``check`` is its :func:`validate_recipe`."""
    if not check:
        raise RecipeError("; ".join(check.errors))
    n = recipe.n_modes
    cos, sin = np.sqrt(check._transmittivity), np.sqrt(1.0 - check._transmittivity)
    network = np.eye(n)  # orthogonal matrix M of the beam-splitter network
    half = math.sqrt(0.5)  # the 50:50 seed splitter on modes 1 and 2
    network[:2, :2] = [[half, -half], [half, half]]
    for i in range(3, n + 1):  # each chain stays in range (see _mix_new_mode)
        first = (i - 3) * (i - 2) // 2
        _mix_new_mode(network, i, cos[first : first + i - 2], sin[first : first + i - 2])
    with np.errstate(all="ignore"):  # extreme squeezing overflows; checked below
        # squared squeezings of the normal modes: each mode is squeezed while still vacuum
        q = np.array([recipe.s, 1.0 / recipe.s] + [recipe.r[i] for i in range(3, n + 1)]) ** 2
        # V_Q = M diag(q) M^T and V_P = M diag(1/q) M^T = V_Q^-1
        blocks = np.stack([(network * q) @ network.T, (network / q) @ network.T])
        # balance: per-mode squeezes fixed by the state itself, making every
        # single-mode block proportional to the identity
        t = (np.diagonal(blocks[1]) / np.diagonal(blocks[0])) ** 0.25
        blocks *= np.stack([np.outer(t, t), np.outer(1.0 / t, 1.0 / t)])
        largest = float(abs(blocks).max())
    if not largest <= tolerances.MAX_ENTRY:
        raise RecipeError(
            f"squeezing too extreme: covariance entries reach {largest:.3e} "
            f"(limit {tolerances.MAX_ENTRY:.0e})"
        )
    return _from_blocks(*blocks)


def random_recipe(n_modes: int, seed: int, s_max: float = 4.0) -> Recipe:
    """Draw a valid recipe deterministically from a seed.

    Squeezings (seed and per-mode) are log-uniform on [1/s_max, s_max];
    transmittivities are uniform on [0.05, 0.95].

    Args:
        n_modes: number of modes, at least 2.
        seed: RNG seed; equal seeds give identical recipes.
        s_max: upper squeezing bound, finite and strictly greater than 1.
    """
    n_modes = _integer(n_modes, "n_modes", 2)
    if not 1.0 < s_max < math.inf:  # also refuses nan
        raise ValueError(f"s_max must be finite and exceed 1, got {s_max}")
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
