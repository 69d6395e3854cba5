"""JSON serialization with explicit control over float significant digits.

Writers emit decimal floats with 17 significant digits by default, which
round-trips every finite double exactly; the digit count can be lowered
for human-readable output.  The text is the ``json.dumps(..., indent=2)``
layout, written in one recursive pass.
"""

from json.encoder import encode_basestring_ascii as _string


def dumps(doc, digits: int = 17) -> str:
    """Serialize ``doc`` to JSON, formatting floats with ``digits`` significant digits.

    ``doc`` is built from dicts with string keys, lists, tuples, strings,
    floats, ints, bools and None; anything else raises ``TypeError``.
    """
    if not 1 <= digits <= 17:
        raise ValueError(f"digits must be in 1..17, got {digits}")
    spec = f".{digits}g"

    def number(x: float) -> str:
        token = format(x, spec)
        if "." in token or "e" in token:
            return token
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
