"""The one-pass recipe check against the three-pass check it replaced.

``reference_validate`` and ``reference_engineer`` are the earlier
``validate_recipe`` and ``engineer_state``: they sort the pair keys, look each
one up again, and look each one up a third time to build the transmittivities.
The library reads each entry once; errors, warnings and states must not change.
"""

import itertools
import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from click.testing import CliRunner

from gaussforge import cli, engineering, jsonio, tolerances
from gaussforge.engineering import (
    Recipe,
    _mix_new_mode,
    _pair,
    engineer_state,
    random_recipe,
    validate_recipe,
)
from gaussforge.errors import RecipeError, _integer
from gaussforge.symplectic import _from_blocks

LISTED = 5


def _itemized(messages, count, kind):
    listed = list(itertools.islice(messages, LISTED))
    if count > LISTED:
        listed.append(f"{count - LISTED} more {kind} not listed")
    return listed


def reference_validate(recipe):
    """The earlier three-pass check: sorted known and extra keys, lazy missing ones."""
    errors = []
    warnings = []
    try:
        n = _integer(recipe.n_modes, "n_modes", 2)
    except ValueError as exc:
        return (str(exc),), ()
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
    return tuple(errors), tuple(warnings)


def reference_engineer(recipe):
    """The earlier engineer_state: the transmittivities looked up pair by pair."""
    errors, _ = reference_validate(recipe)
    if errors:
        raise RecipeError("; ".join(errors))
    n = recipe.n_modes
    transmittivity = np.array([recipe.b[(j, i)] for i in range(3, n + 1) for j in range(2, i)])
    cos, sin = np.sqrt(transmittivity), np.sqrt(1.0 - transmittivity)
    network = np.eye(n)
    half = math.sqrt(0.5)
    network[:2, :2] = [[half, -half], [half, half]]
    for i in range(3, n + 1):
        first = (i - 3) * (i - 2) // 2
        _mix_new_mode(network, i, cos[first : first + i - 2], sin[first : first + i - 2])
    with np.errstate(all="ignore"):
        q = np.array([recipe.s, 1.0 / recipe.s] + [recipe.r[i] for i in range(3, n + 1)]) ** 2
        blocks = np.stack([(network * q) @ network.T, (network / q) @ network.T])
        t = (np.diagonal(blocks[1]) / np.diagonal(blocks[0])) ** 0.25
        blocks *= np.stack([np.outer(t, t), np.outer(1.0 / t, 1.0 / t)])
        largest = float(np.max(np.abs(blocks)))
    if not largest <= tolerances.MAX_ENTRY:
        raise RecipeError("squeezing too extreme")
    return _from_blocks(*blocks)


MARGIN = tolerances.DEGENERACY_MARGIN
# transmittivities at and around every boundary the check draws
SPECIAL_T = [
    math.nan, True, False, 0, 1, 0.0, -0.0, 1.0, -0.5, 1.5, math.inf, -math.inf, 10**400,
    5e-324, 1e-300, MARGIN, np.nextafter(MARGIN, 0.0), np.nextafter(MARGIN, 1.0),
    1.0 - MARGIN, np.nextafter(1.0 - MARGIN, 0.0), np.nextafter(1.0 - MARGIN, 1.0),
    np.nextafter(1.0, 0.0), np.float64(0.25), np.float64(1.0), 2,
]
SPECIAL_SQUEEZING = [math.nan, 0, 0.0, -1.0, True, 1e-300, np.float64(2.0), -math.inf]
EXTRA_PAIRS = [(1, 2), (0, 5), (5, 5), (4, 3), (-1, 7), (2, 10**30), (True, 3)]


def _int64(k):
    return np.int64(k) if abs(k) < 2**62 else k


def corpus_recipe(rng):
    """A random recipe with some pairs and squeezings dropped, added, shuffled or spoiled."""
    n = int(rng.integers(2, 14))
    base = random_recipe(n, int(rng.integers(2**31)))
    r, b = dict(base.r), dict(base.b)
    s = base.s
    if rng.random() < 0.3:
        for key in rng.permutation(list(b))[: rng.integers(0, len(b) + 1)]:
            del b[tuple(int(k) for k in key)]
    if rng.random() < 0.2:
        for key in list(r)[: rng.integers(0, len(r) + 1)]:
            del r[key]
    if rng.random() < 0.3:
        for _ in range(rng.integers(1, 12)):
            j = int(rng.integers(-2, n + 4))
            b[(j, int(rng.integers(j - 1, n + 6)))] = float(rng.uniform(0.05, 0.95))
        for pair in EXTRA_PAIRS[: rng.integers(0, len(EXTRA_PAIRS) + 1)]:
            b[pair] = 0.5
    if rng.random() < 0.2:
        for k in rng.integers(-3, n + 9, size=rng.integers(1, 9)):
            r[int(k)] = 1.1
    if b and rng.random() < 0.5:
        keys = list(b)
        for k in rng.integers(0, len(keys), size=rng.integers(1, 10)):
            b[keys[k]] = SPECIAL_T[rng.integers(len(SPECIAL_T))]
    if rng.random() < 0.2:
        s = SPECIAL_SQUEEZING[rng.integers(len(SPECIAL_SQUEEZING))]
    if r and rng.random() < 0.2:
        keys = list(r)
        for k in rng.integers(0, len(keys), size=rng.integers(1, 8)):
            r[keys[k]] = SPECIAL_SQUEEZING[rng.integers(len(SPECIAL_SQUEEZING))]
    kind = rng.integers(4)
    if kind == 1:  # numpy-integer keys, where they fit
        b = {(_int64(j), _int64(i)): t for (j, i), t in b.items()}
        r = {_int64(k): v for k, v in r.items()}
    elif kind == 2:  # integral float keys
        b = {(float(j), i): t for (j, i), t in b.items()}
        r = {float(k): v for k, v in r.items()}
    items = list(b.items())
    order = rng.permutation(len(items))
    return Recipe(n, s, r, dict(items[k] for k in order))


@pytest.mark.parametrize("seed", range(8))
def test_corpus_matches_the_three_pass_check(seed):
    rng = np.random.default_rng([seed, 14])
    for _ in range(150):
        recipe = corpus_recipe(rng)
        check = validate_recipe(recipe)
        assert (check.errors, check.warnings) == reference_validate(recipe), recipe


KEY_KINDS = ["int", "numpy", "float", "decimal"]


def scheduled_recipe(rng, kind):
    """A complete recipe with its keys in schedule order, some values spoiled or at the margins,
    one pair key and sometimes one squeezing key retyped as ``kind``."""
    n = int(rng.integers(2, 14))
    base = random_recipe(n, int(rng.integers(2**31)))
    s, r, b = base.s, dict(base.r), dict(base.b)
    if rng.random() < 0.2:
        s = SPECIAL_SQUEEZING[rng.integers(len(SPECIAL_SQUEEZING))]
    if r and rng.random() < 0.3:
        for key in rng.choice(list(r), size=rng.integers(1, len(r) + 1)):
            r[int(key)] = SPECIAL_SQUEEZING[rng.integers(len(SPECIAL_SQUEEZING))]
    if b and rng.random() < 0.6:
        keys = list(b)
        for k in rng.integers(0, len(keys), size=rng.integers(1, 10)):
            b[keys[k]] = SPECIAL_T[rng.integers(len(SPECIAL_T))]
    retype = {"int": int, "numpy": np.int64, "float": float, "decimal": Decimal}[kind]
    if r and rng.random() < 0.5:
        spoilt = int(rng.choice(list(r)))
        r = {(retype(k) if k == spoilt else k): v for k, v in r.items()}
    if b:
        spoilt = list(b)[rng.integers(len(b))]
        b = {((retype(j), i) if (j, i) == spoilt else (j, i)): t for (j, i), t in b.items()}
    return Recipe(n, s, r, b)


def same_outcome(check, other):
    """Equal errors, warnings and kept transmittivities, to the bit."""
    kept, other_kept = check._transmittivity, other._transmittivity
    return (check.errors, check.warnings) == (other.errors, other.warnings) and (
        kept is other_kept is None
        or kept is not None and other_kept is not None and kept.tobytes() == other_kept.tobytes()
    )


@pytest.mark.parametrize("kind", KEY_KINDS)
def test_retyped_keys_in_schedule_order_match_the_three_pass_check(kind):
    """Keys in schedule order give the outcome of the same keys reversed and of the three-pass
    check, whatever their numeric type.  A Decimal key equals its int, yet is not a real number
    to the check: it is malformed, which the three-pass check does not know."""
    rng = np.random.default_rng([KEY_KINDS.index(kind), 29])
    for recipe in (scheduled_recipe(rng, kind) for _ in range(150)):
        check = validate_recipe(recipe)
        backwards = Recipe(recipe.n_modes, recipe.s, dict(reversed(recipe.r.items())),
                           dict(reversed(recipe.b.items())))
        assert same_outcome(check, validate_recipe(backwards)), recipe
        if kind == "decimal":
            assert any(error.startswith(("pair key", "r key")) for error in check.errors) or not recipe.b
            continue
        assert (check.errors, check.warnings) == reference_validate(recipe), recipe
        if check:
            n = recipe.n_modes
            want = [recipe.b[(j, i)] for i in range(3, n + 1) for j in range(2, i)]
            assert np.array_equal(check._transmittivity, want)


def reordered(items, order, rng):
    """The (key, value) items in the given order; a shuffle moves the first key off the front."""
    if order == "reversed":
        return items[::-1]
    if order == "middle swapped":
        return items[:1] + items[2:3] + items[1:2] + items[3:]
    rest = [items[k] for k in 1 + rng.permutation(len(items) - 1)]
    return rest[: len(rest) // 2] + items[:1] + rest[len(rest) // 2 :]


@pytest.mark.parametrize("order", ["reversed", "shuffled", "middle swapped"])
def test_keys_in_any_order_are_read_once(order, monkeypatch):
    """Each key list is read into schedule slots once.  Complete keys reversed, or with the first
    key moved, miss the schedule on an end slot, in O(1): no list of every slot is built to compare
    with.  With the ends in place but two middle keys swapped, the full comparison misses instead.
    Either way the outcome is that of schedule order and of the three-pass check."""
    read, compared = [], []
    for name in ("_SQUEEZINGS", "_PAIRS"):
        *messages, slots_of = getattr(engineering, name)
        recorded = lambda keys, n, slots_of=slots_of: read.append(len(keys)) or slots_of(keys, n)  # noqa: E731
        monkeypatch.setattr(engineering, name, (*messages, recorded))
    rng = np.random.default_rng(29)
    for n in (6, 8, 16, 32, 48):
        base = random_recipe(n, n)
        want = validate_recipe(base)
        r = reordered(list(base.r.items()), order, rng)
        b = reordered(list(base.b.items()), order, rng)
        recipe = Recipe(n, base.s, dict(r), dict(b))
        read.clear(), compared.clear()
        # the schedule's slots 0..size-1, listed to compare with, are built only through range
        with monkeypatch.context() as patch:
            patch.setattr(engineering, "range", lambda size: compared.append(size) or range(size), raising=False)
            check = validate_recipe(recipe)
        assert read == [len(r), len(b)]
        assert compared == ([len(r), len(b)] if order == "middle swapped" else [])
        assert (check.errors, check.warnings) == reference_validate(recipe) == ((), ())
        assert same_outcome(check, want)


@st.composite
def keys_in_two_orders(draw):
    """A complete or spoiled recipe with well-formed keys listed in schedule order, and the same
    recipe with its ``r`` and ``b`` keys in any order: entries dropped, added out of range, and
    values at and around every boundary the check draws."""
    n = draw(st.integers(2, 16))
    base = random_recipe(n, draw(st.integers(0, 2**31 - 1)))
    s, r, b = base.s, dict(base.r), dict(base.b)
    if draw(st.booleans()):  # else every entry is there, once
        for entries in (r, b):
            for key in draw(st.sets(st.sampled_from(sorted(entries)), max_size=3)) if entries else ():
                del entries[key]
        for k in draw(st.lists(st.integers(-3, n + 8), max_size=3)):
            r[k] = 1.1
        pairs = st.tuples(st.integers(-2, n + 3), st.integers(-2, n + 5))
        for pair in draw(st.lists(st.one_of(pairs, st.sampled_from(EXTRA_PAIRS)), max_size=4)):
            b[pair] = 0.5
    if draw(st.booleans()):
        s = draw(st.sampled_from(SPECIAL_SQUEEZING))
    for entries, special in ((r, SPECIAL_SQUEEZING), (b, SPECIAL_T)):
        keys = sorted(entries)
        for key, value in draw(st.lists(st.tuples(st.sampled_from(keys), st.sampled_from(special)),
                                        max_size=4)) if keys else ():
            entries[key] = value
    r_items = sorted(r.items())
    b_items = sorted(b.items(), key=lambda item: item[0][::-1])
    ordered = Recipe(n, s, dict(r_items), dict(b_items))
    permuted = Recipe(n, s, dict(draw(st.permutations(r_items))), dict(draw(st.permutations(b_items))))
    return ordered, permuted


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(keys_in_two_orders())
def test_any_key_order_gives_the_outcome_of_schedule_order(recipes):
    ordered, permuted = recipes
    check = validate_recipe(ordered)
    assert same_outcome(validate_recipe(permuted), check)
    assert (check.errors, check.warnings) == reference_validate(permuted)
    if check:
        n = ordered.n_modes
        want = [ordered.b[(j, i)] for i in range(3, n + 1) for j in range(2, i)]
        assert np.array_equal(check._transmittivity, want)


@pytest.mark.parametrize(
    "recipe",
    [
        Recipe(300, 1.5),
        Recipe(41, 1.5, {i: 1.1 for i in range(3, 42)}, {(j, i): 0.5 for i in range(3, 40) for j in range(2, i)}),
        Recipe(3, 1.5, {i: 1.1 for i in range(3, 103)}, {(2, 3): 0.6, **{(j, 99): 0.5 for j in range(90)}}),
        Recipe(20, -1.0, {i: -1.0 for i in range(3, 21)},
               {(j, i): (0.0 if (i + j) % 2 else 0.9999) for i in range(3, 21) for j in range(2, i)}),
        Recipe(np.int64(9), 1.5, {np.int64(i): 1.1 for i in range(3, 10)},
               {(np.int64(j), np.int64(i)): np.float64(0.5) for i in range(3, 10) for j in range(2, i) if j != i - 1}),
        Recipe(2, 1.5, {}, {}),
        Recipe(2.0, 1.5),
        Recipe(True, 1.5),
        Recipe(2**40, 1.5, {}, {(3, 2**39): 1.5, (2, 2**39): -1.0, (2, 3): 0.5}),
    ],
    ids=["empty", "one-mode-short", "many-extra", "every-kind-many-times", "numpy", "two-modes",
         "float-count", "bool-count", "slots-beyond-int64"],
)
def test_edge_recipes_match_the_three_pass_check(recipe):
    check = validate_recipe(recipe)
    assert (check.errors, check.warnings) == reference_validate(recipe)


def shuffled(recipe, seed):
    items = list(recipe.b.items())
    order = np.random.default_rng(seed).permutation(len(items))
    return Recipe(recipe.n_modes, recipe.s, recipe.r, dict(items[k] for k in order))


@pytest.mark.parametrize("n", [2, 3, 8, 48, 100])
def test_states_are_bit_identical(n):
    for seed in range(4):
        recipe = shuffled(random_recipe(n, 11 * n + seed), seed)
        assert np.array_equal(engineer_state(recipe).data, reference_engineer(recipe).data)


@pytest.mark.parametrize("t", [1e-200, 0.9995])
def test_degenerate_chains_are_bit_identical(t):
    """Every t = 1e-200 restarts each chain's running product; both warn on every pair."""
    n = 6
    recipe = Recipe(n, 1.3, {i: 1.1 for i in range(3, n + 1)},
                    {(j, i): t for i in range(3, n + 1) for j in range(2, i)})
    assert len(validate_recipe(recipe).warnings) == 10
    assert np.array_equal(engineer_state(recipe).data, reference_engineer(recipe).data)


def test_float_numpy_keys_and_numpy_values_engineer_as_plain_ones():
    recipe = random_recipe(7, 3)
    plain = engineer_state(recipe).data
    floats = Recipe(7, recipe.s, {float(k): v for k, v in recipe.r.items()},
                    {(float(j), i): t for (j, i), t in recipe.b.items()})
    numpy = Recipe(np.int64(7), np.float64(recipe.s), {np.int64(k): np.float64(v) for k, v in recipe.r.items()},
                   {(np.int64(j), np.int32(i)): np.float64(t) for (j, i), t in recipe.b.items()})
    for other in (floats, numpy):
        assert validate_recipe(other).ok
        assert np.array_equal(engineer_state(other).data, plain)


def test_header_only_huge_recipe_is_checked_in_little_memory():
    """1.08e9 pairs are missing; the check names five and allocates nothing per pair."""
    recipe = Recipe(46490, 1.5)
    want = reference_validate(recipe)
    tracemalloc.start()
    try:
        check = validate_recipe(recipe)
        with pytest.raises(RecipeError) as info:
            engineer_state(recipe)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (check.errors, check.warnings) == want
    assert str(info.value) == "; ".join(want[0])
    assert peak < 2**20


def test_plain_keys_of_a_huge_register_build_no_schedule():
    """Keys in schedule order but too few: the counts differ, so no schedule list is built."""
    recipe = Recipe(46490, 1.5, {3: 1.1, 4: 1.2}, {(2, 3): 0.5, (2, 4): 0.5, (3, 4): 0.5})
    want = reference_validate(recipe)
    tracemalloc.start()
    try:
        check = validate_recipe(recipe)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (check.errors, check.warnings) == want
    assert peak < 2**20


def test_end_keys_of_a_huge_register_build_no_schedule(monkeypatch):
    """The first and last keys alone: their slots are the schedule's ends, but the counts differ,
    so no list of the 1.08e9 slots is built to compare with."""
    compared = []
    monkeypatch.setattr(engineering, "range", lambda size: compared.append(size) or range(0), raising=False)
    recipe = Recipe(46490, 1.5, {3: 1.1, 46490: 1.2}, {(2, 3): 0.5, (46489, 46490): 0.5})
    check = validate_recipe(recipe)
    assert compared == []
    assert (check.errors, check.warnings) == reference_validate(recipe)


def test_slot_to_pair_map_inverts_the_schedule_slot():
    slot = 0
    for i in range(3, 2001):
        for j in range(2, i):
            assert _pair(slot) == (j, i)
            slot += 1
    for i in (2**39 - 1, 2**39, 2**39 + 1, 2**62, 2**70 + 5):  # slots beyond int64
        for j in (2, 3, i // 2, i - 2, i - 1):
            assert _pair((i - 3) * (i - 2) // 2 + j - 2) == (j, i)


def counted_checks(monkeypatch):
    """Count calls of validate_recipe; the CLI reads it from ``engineering`` when a command runs."""
    calls = []
    original = engineering.validate_recipe

    def counted(recipe):
        calls.append(recipe.n_modes)
        return original(recipe)

    monkeypatch.setattr(engineering, "validate_recipe", counted)
    return calls


def four_mode_recipe(t):
    return Recipe(4, 1.5, {3: 1.1, 4: 0.9}, {(j, i): t for i in (3, 4) for j in range(2, i)})


def test_engineer_state_checks_once(monkeypatch):
    calls = counted_checks(monkeypatch)
    engineer_state(four_mode_recipe(0.5))
    assert calls == [4]


@pytest.mark.parametrize("t", [0.5, 0.9995])
def test_cli_engineer_checks_once(monkeypatch, t):
    """The one check also gives the warnings: three near-boundary pairs, three lines."""
    calls = counted_checks(monkeypatch)
    doc = jsonio.dumps(four_mode_recipe(t).to_dict())
    result = CliRunner().invoke(cli.main, ["engineer", "--recipe", "-"], input=doc)
    assert result.exit_code == 0
    assert result.stderr.count("warning: ") == (0 if t == 0.5 else 3)
    assert calls == [4]


def test_kept_transmittivities_are_private_to_the_outcome():
    """The schedule-ordered array the state is built from takes no part in repr or equality."""
    recipe = shuffled(random_recipe(5, 2), 1)
    check = validate_recipe(recipe)
    want = [recipe.b[(j, i)] for i in range(3, 6) for j in range(2, i)]
    assert np.array_equal(check._transmittivity, want)
    assert check == engineering.RecipeValidation((), ())
    assert repr(check) == "RecipeValidation(errors=(), warnings=())"
    assert validate_recipe(Recipe(5, 1.5))._transmittivity is None
