"""JSON serialization with explicit control over float significant digits.

Writers emit decimal floats with 17 significant digits by default, which
round-trips every finite double exactly; the digit count can be lowered
for human-readable output.  The text is the ``json.dumps(..., indent=2)``
layout, written in one recursive pass.  Readers share one prelude that
checks a document's shape and its mode count.
"""

from json.encoder import encode_basestring_ascii as _string

from .errors import InputFormatError, _integer


def _read_header(doc, kind: str, keys: tuple, minimum: int = 1, **fixed) -> int:
    """``n_modes`` of an object with ``keys`` and ``fixed`` values; InputFormatError at the first miss."""
    if not isinstance(doc, dict):
        raise InputFormatError(f"{kind} document must be a JSON object")
    for key in keys:
        if key not in doc:
            raise InputFormatError(f"{kind} document missing key {key!r}")
    for key, expected in fixed.items():
        if doc[key] != expected:
            raise InputFormatError(f"unsupported {key} {doc[key]!r}; expected {expected!r}")
    try:
        return _integer(doc["n_modes"], "n_modes", minimum)
    except ValueError:
        wanted = "a positive integer" if minimum == 1 else f"an integer >= {minimum}"
        raise InputFormatError(f"n_modes must be {wanted}") from None


def dumps(doc, digits: int = 17) -> str:
    """Serialize ``doc`` to JSON, formatting floats with ``digits`` significant digits.

    ``doc`` is built from dicts with string keys, lists, tuples, strings, finite
    floats, ints, bools and None; inf and nan raise ``ValueError``, other types ``TypeError``.
    ``digits`` is an integer in 1..17 (numpy integers pass; bools and floats raise ``ValueError``).
    """
    digits = _integer(digits, "digits")
    if not 1 <= digits <= 17:
        raise ValueError(f"digits must be in 1..17, got {digits}")
    spec = f".{digits}g"

    def number(x: float) -> str:
        token = format(x, spec)
        if "." in token or "e" in token:
            return token
        if not token[-1].isdigit():  # "inf", "-inf" or "nan", which JSON cannot spell
            raise ValueError(f"non-finite float {x!r} is not valid JSON")
        return token + ".0"  # keep float typing (and the sign of -0.0)

    parts = []

    def write(obj, indent: str) -> None:
        # ``indent`` is the newline plus the indentation of obj's own line
        if isinstance(obj, float):
            parts.append(number(obj))
        elif isinstance(obj, (list, tuple)):
            if not obj:
                parts.append("[]")
                return
            inner = indent + "  "
            if all(isinstance(item, float) for item in obj):  # a matrix row: one chunk
                parts.append("[" + inner + ("," + inner).join(map(number, obj)) + indent + "]")
                return
            separator = "[" + inner
            for item in obj:
                parts.append(separator)
                write(item, inner)
                separator = "," + inner
            parts.append(indent + "]")
        elif isinstance(obj, dict):
            if not obj:
                parts.append("{}")
                return
            inner = indent + "  "
            separator = "{" + inner
            for key, value in obj.items():
                parts.append(separator)
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                parts.append(_string(key))
                parts.append(": ")
                write(value, inner)
                separator = "," + inner
            parts.append(indent + "}")
        elif isinstance(obj, str):
            parts.append(_string(obj))
        elif obj is None:
            parts.append("null")
        elif obj is True:
            parts.append("true")
        elif obj is False:
            parts.append("false")
        elif isinstance(obj, int):
            parts.append(int.__repr__(obj))
        else:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    write(doc, "\n")
    return "".join(parts)
