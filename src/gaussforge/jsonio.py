"""JSON serialization with explicit control over float significant digits.

Writers emit decimal floats with 17 significant digits by default, which
round-trips every finite double exactly; the digit count can be lowered
for human-readable output.
"""

import json
import re

_MARK = "\x00"
# json.dumps escapes the NUL marker to \\u0000, so match the escaped form
_TOKEN = re.compile(r'"\\u0000(.*?)\\u0000"')


def dumps(doc, digits: int = 17) -> str:
    """Serialize ``doc`` to JSON, formatting floats with ``digits`` significant digits."""
    if not 1 <= digits <= 17:
        raise ValueError(f"digits must be in 1..17, got {digits}")

    def convert(obj):
        if isinstance(obj, bool):
            return obj
        if isinstance(obj, float):
            token = format(obj, f".{digits}g")
            if "." not in token and "e" not in token and "E" not in token:
                token += ".0"  # keep float typing (and the sign of -0.0)
            return _MARK + token + _MARK
        if isinstance(obj, dict):
            return {key: convert(value) for key, value in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [convert(value) for value in obj]
        return obj

    return _TOKEN.sub(r"\1", json.dumps(convert(doc), indent=2))
