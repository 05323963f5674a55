"""Number helpers for the dual float / exact-fraction arithmetic mode.

All closed-form operations in this package are written against plain Python
arithmetic, so they stay exact whenever every input is an ``int`` or a
:class:`fractions.Fraction` and fall back to ordinary float arithmetic
otherwise.  Config files may spell rationals as strings like ``"41/5"``.  The
number refusals live here, once each: :func:`_require_positive`,
:func:`_require_nonnegative`, :func:`_require_finite`.  The two sign rules read
an exact value's sign from its numerator (a ``Fraction``'s denominator is
positive): ``Fraction > 0`` goes through ``numbers.Rational`` dispatch, about 15
times the cost of the slot read, and every exact record construction makes
several such checks.  :func:`_reduce_by_init` pickles and copies a checked
record as a call of its constructor, and :func:`_from_dict` and
:func:`_to_dict` read and write a flat parameter record by its own field
names, so each record's dataclass is the one list of its fields.
"""

from __future__ import annotations

import math
import sys
from dataclasses import fields
from fractions import Fraction

Number = int | float | Fraction


def parse_number(value: object) -> Number:
    """Convert a config value to a number, keeping rationals exact.

    Accepts ints, floats, Fractions, and strings of the forms ``"41/5"``,
    ``"-3"``, ``"0.25"``.  Integers and slash/integer strings become exact
    Fractions (so closed-form results stay exact end to end), and their
    magnitude must not exceed the largest float, since every result is also
    reported as a float; decimal strings and floats stay floats, and must be
    finite.
    """
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    if isinstance(value, str):
        text = value.strip()
        try:
            if "/" in text:
                number = Fraction(text)
            elif text.lstrip("+-").isdigit():
                number = Fraction(int(text))
            else:
                number = float(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse number {value!r}") from exc
    elif isinstance(value, int):
        number = Fraction(value)
    elif isinstance(value, (float, Fraction)):
        number = value
    else:
        raise ValueError(f"expected a number, got {value!r}")
    if isinstance(number, Fraction):
        return _in_float_range(number)
    if not math.isfinite(number):
        raise ValueError(f"cannot parse number {value!r}: not finite")
    return number


def _in_float_range(exact: int | Fraction) -> int | Fraction:
    """``exact``, refused when its magnitude is above the largest float, where
    ``float()`` of it overflows (the value itself is not printed: it may have
    thousands of digits)."""
    if abs(exact) > sys.float_info.max:
        digits = math.log10(abs(exact.numerator)) - math.log10(exact.denominator)
        raise ValueError(
            f"number of magnitude 1e{math.floor(digits)} is above the float range"
        )
    return exact


def parse_fields(data: dict, names: tuple[str, ...]) -> dict[str, Number]:
    """:func:`parse_number` of each named entry of a config mapping; the
    ``ValueError`` for a mapping that lacks names lists every one of them, and
    one for an entry :func:`parse_number` refuses starts with its key."""
    missing = [name for name in names if name not in data]
    if missing:
        plural = "s" if len(missing) > 1 else ""
        raise ValueError(f"missing key{plural} " + ", ".join(map(repr, missing)))
    values = {}
    for name in names:
        try:
            values[name] = parse_number(data[name])
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    return values


def all_exact(*values: Number) -> bool:
    # every existence_report call runs this, so floats are refused first:
    # an isinstance test against the Fraction ABC costs 15 plain type tests
    for value in values:
        if isinstance(value, float) or not isinstance(value, (int, Fraction)):
            return False
    return True


def _is_finite(value: Number) -> bool:
    # float, then Fraction by type (no ABC test); exact values skip float(), which overflows
    if isinstance(value, float):
        return math.isfinite(value)
    return type(value) is Fraction or isinstance(value, (int, Fraction)) or math.isfinite(value)


def _require_finite(**values: Number) -> None:
    """Raise ``ValueError`` naming the first keyword whose value is NaN or infinite."""
    for name, value in values.items():
        if not _is_finite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _require_positive(**values: Number) -> None:
    """Raise ``ValueError`` naming the first keyword whose value is not
    strictly positive and finite (NaN and infinities of any real type)."""
    for name, value in values.items():
        # _numerator is the slot behind Fraction.numerator; subclasses take the generic test
        if not (value._numerator > 0 if type(value) is Fraction
                else value > 0 and _is_finite(value)):
            raise ValueError(f"{name} must be strictly positive and finite, got {value}")


def _require_nonnegative(**values: Number) -> None:
    """Raise ``ValueError`` naming the first keyword whose value is negative,
    NaN or infinite."""
    for name, value in values.items():
        if not (value._numerator >= 0 if type(value) is Fraction
                else value >= 0 and _is_finite(value)):
            raise ValueError(f"{name} must be nonnegative and finite, got {value}")


def _reduce_by_init(self):
    """Pickle and copy a record as a call of its constructor, so the copy
    passes the same checks and derives the rest anew (read-only arrays, a
    cached kernel)."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self))


def _from_dict(cls, data: dict):
    """A record's ``from_dict``: :func:`parse_fields` over its field names, in order."""
    return cls(**parse_fields(data, tuple(f.name for f in fields(cls))))


def _to_dict(self) -> dict:
    """A record's ``to_dict``: its fields by name, in order."""
    return {f.name: getattr(self, f.name) for f in fields(self)}


def _compare(lhs: Number, rhs: Number, tol: float) -> int:
    """Sign of lhs - rhs with a relative tie band of width tol: 0 is a tie.
    Exact inputs compare exactly, the band included: ``tol`` is read as
    the exact ratio of its float, so a scale above the float range does
    not overflow."""
    diff = lhs - rhs
    scale = max(abs(lhs), abs(rhs))
    if isinstance(diff, float):
        tie = abs(diff) <= tol * scale
    else:
        # |a / b| <= (n / d) (c / e), on integers with b, d, e > 0
        (a, b), (c, e), (n, d) = (v.as_integer_ratio() for v in (diff, scale, tol))
        tie = abs(a) * d * e <= n * c * b
    if tie:
        return 0
    return 1 if diff > 0 else -1
