"""Deterministic JSON/CSV formatting helpers.

Complex numbers are serialized as ``{"re": x, "im": y}`` pairs of 64-bit
floats.  Floats are printed with 17 significant digits in JSON (lossless
round trip) and 12 in CSV.
"""

from __future__ import annotations

import reprlib

import numpy as np

from .errors import ValidationError

JSON_DIGITS = 17
CSV_DIGITS = 12


def fmt_float(x: float, digits: int = JSON_DIGITS) -> str:
    x = float(x)
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite float in output")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.{digits}g}"


def complex_obj(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def parse_complex(obj) -> complex:
    # reprlib cuts an echoed entry in depth and length: a deep or huge one
    # can neither recurse nor flood the message
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, dict) and set(obj) <= {"re", "im"}:
        try:
            return complex(float(obj.get("re", 0.0)), float(obj.get("im", 0.0)))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"malformed complex number {reprlib.repr(obj)}") from exc
    raise ValidationError(f"expected a number or {{re, im}} object, got {reprlib.repr(obj)}")


def cut_echo(message: str) -> str:
    """message, which may echo an input whole, escaped as repr escapes a
    string and cut in the middle to 200 characters by reprlib."""
    echo = reprlib.Repr()
    echo.maxstring = 200
    return echo.repr(message)[1:-1]


def matrix_obj(m: np.ndarray) -> list:
    return [[complex_obj(z) for z in row] for row in np.asarray(m)]


def parse_matrix(rows) -> np.ndarray:
    """Complex matrix from a list of equal-length rows of numbers or
    ``{re, im}`` objects."""
    try:
        parsed = [[parse_complex(z) for z in row] for row in rows]
    except TypeError as exc:
        raise ValidationError(f"a matrix must be a list of rows: {exc}") from exc
    if len({len(row) for row in parsed}) > 1:
        raise ValidationError("matrix rows must have equal length")
    return np.array(parsed, dtype=complex)


def parse_json(text: str, what: str):
    """Parsed JSON text, or a "malformed <what> JSON" ValidationError: json
    raises ValueError (bad syntax, an integer past the interpreter's digit
    limit) or RecursionError (nesting past its recursion limit)."""
    import json

    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"malformed {what} JSON: {exc}") from exc


# JSON forbids raw control characters (U+0000-U+001F) inside strings
_STRING_ESCAPES = str.maketrans(
    {'"': '\\"', "\\": "\\\\", **{chr(i): f"\\u{i:04x}" for i in range(0x20)}}
)


def dumps(obj) -> str:
    """Serialize to JSON with deterministic float formatting."""
    out: list[str] = []
    _write(obj, out)
    return "".join(out)


def _write(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt_float(obj))
    elif isinstance(obj, str):
        out.append('"' + obj.translate(_STRING_ESCAPES) + '"')
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            _write(str(k), out)
            out.append(": ")
            _write(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        out.append("[")
        for i, v in enumerate(list(obj)):
            if i:
                out.append(", ")
            _write(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
