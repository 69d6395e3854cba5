"""Tests for float-exact JSON serialization."""

import json
import struct

import numpy as np
import pytest

from gaussforge import jsonio


def test_seventeen_digits_round_trip_exactly():
    rng = np.random.default_rng(3)
    values = list(rng.standard_normal(200)) + [1e-300, 1e300, 0.1, 2.0 / 3.0, -0.0]
    doc = {"values": [float(v) for v in values]}
    back = json.loads(jsonio.dumps(doc))
    for original, parsed in zip(doc["values"], back["values"]):
        assert struct.pack("<d", parsed) == struct.pack("<d", original)


def test_lower_precision_is_allowed_to_lose_digits():
    out = jsonio.dumps({"x": 2.0 / 3.0}, digits=4)
    assert json.loads(out)["x"] == pytest.approx(2.0 / 3.0, abs=1e-4)


def test_non_float_types_untouched():
    doc = {"n": 4, "name": "qpqp", "flag": True, "none": None, "nested": [1, 2.5]}
    back = json.loads(jsonio.dumps(doc))
    assert back == {"n": 4, "name": "qpqp", "flag": True, "none": None, "nested": [1, 2.5]}


def test_deterministic_output():
    doc = {"a": [0.1, 0.2], "b": {"c": 3.5}}
    assert jsonio.dumps(doc) == jsonio.dumps(doc)


def test_rejects_bad_digit_count():
    with pytest.raises(ValueError):
        jsonio.dumps({"x": 1.0}, digits=0)
    with pytest.raises(ValueError):
        jsonio.dumps({"x": 1.0}, digits=20)


GOLDEN_DOC = {
    "nested": {"empty_list": [], "empty_object": {}, "rows": [[1, 2.0], {"none": None}]},
    "floats": [-0.0, 1e22, 2.0, float("inf"), 2.0 / 3.0],
    "int": 7,
    "flags": [True, False],
    "text": "qpqp é→",
}

GOLDEN_FLOATS = {
    1: ["-0.0", "1e+22", "2.0", "inf.0", "0.7"],
    17: ["-0.0", "1e+22", "2.0", "inf.0", "0.66666666666666663"],
}


@pytest.mark.parametrize("digits", [1, 17])
def test_golden_text(digits):
    """The exact indent-2 text, including the float tokens at both precision ends."""
    floats = ",\n    ".join(GOLDEN_FLOATS[digits])
    expected = (
        "{\n"
        '  "nested": {\n'
        '    "empty_list": [],\n'
        '    "empty_object": {},\n'
        '    "rows": [\n'
        "      [\n"
        "        1,\n"
        "        2.0\n"
        "      ],\n"
        "      {\n"
        '        "none": null\n'
        "      }\n"
        "    ]\n"
        "  },\n"
        '  "floats": [\n'
        f"    {floats}\n"
        "  ],\n"
        '  "int": 7,\n'
        '  "flags": [\n'
        "    true,\n"
        "    false\n"
        "  ],\n"
        '  "text": "qpqp \\u00e9\\u2192"\n'
        "}"
    )
    assert jsonio.dumps(GOLDEN_DOC, digits) == expected


def test_golden_scalars_and_tuples():
    assert jsonio.dumps([]) == "[]"
    assert jsonio.dumps({}) == "{}"
    assert jsonio.dumps(1.0) == "1.0"
    assert jsonio.dumps((0.5, -1e-300)) == "[\n  0.5,\n  -1e-300\n]"


@pytest.mark.parametrize("doc", [{"x": object()}, {3: 1.0}, [np.int64(3)]])
def test_unserialisable_object_raises_type_error(doc):
    with pytest.raises(TypeError):
        jsonio.dumps(doc)
