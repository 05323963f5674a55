"""Number helpers for the dual float / exact-fraction arithmetic mode.

All closed-form operations in this package are written against plain Python
arithmetic, so they stay exact whenever every input is an ``int`` or a
:class:`fractions.Fraction` and fall back to ordinary float arithmetic
otherwise.  Config files may spell rationals as strings like ``"41/5"``.
"""

from __future__ import annotations

import math
from fractions import Fraction

Number = int | float | Fraction


def parse_number(value: object) -> Number:
    """Convert a config value to a number, keeping rationals exact.

    Accepts ints, floats, Fractions, and strings of the forms ``"41/5"``,
    ``"-3"``, ``"0.25"``.  Integers and slash/integer strings become exact
    Fractions (so closed-form results stay exact end to end); decimal
    strings and floats stay floats, and must be finite.
    """
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            if "/" in text:
                return Fraction(text)
            if text.lstrip("+-").isdigit():
                return Fraction(int(text))
            number = float(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse number {value!r}") from exc
    elif isinstance(value, float):
        number = value
    else:
        raise ValueError(f"expected a number, got {value!r}")
    if not math.isfinite(number):
        raise ValueError(f"cannot parse number {value!r}: not finite")
    return number


def is_exact(value: Number) -> bool:
    return isinstance(value, (int, Fraction))


def all_exact(*values: Number) -> bool:
    return all(is_exact(v) for v in values)


def _is_finite(value: Number) -> bool:
    # exact values always are; testing for float, not for the Fraction ABC, is cheap
    return not isinstance(value, float) or math.isfinite(value)


def _require_finite(**values: Number) -> None:
    """Raise ``ValueError`` naming the first keyword whose value is NaN or infinite."""
    for name, value in values.items():
        if not _is_finite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def format_number(value: Number) -> str:
    """Render a number for reports: exact values verbatim, floats at 17 sig digits."""
    if isinstance(value, (int, Fraction)):
        return str(value)
    return format(float(value), ".17g")


def rel_close(a: Number, b: Number, tol: float) -> bool:
    """Relative comparison that stays exact for exact inputs when tol allows."""
    diff = abs(a - b)
    scale = max(abs(a), abs(b))
    if scale == 0:
        return diff == 0
    return diff <= tol * scale


def ulp_distance(a: float, b: float) -> float:
    """Distance between two floats in units of the larger one's ulp."""
    if a == b:
        return 0.0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))
