"""Structured pass/fail reports and deterministic JSON rendering.

Margins are signed: nonnegative means the audited inequality holds, negative
says by how much it is violated.  JSON output is byte-deterministic (sorted
keys, two-space indent, strings escaped as the ``json`` module escapes them,
floats printed with 17 significant digits) so reports can be used as golden
files.

The two records are frozen dataclasses with hand-written ``__init__``s that
store their fields in the instance dict in one pass.  The generated frozen
``__init__`` calls ``object.__setattr__`` once per field: about 0.9 us per
record against about 0.5 us (CPython 3.11), and an existence audit builds
five records.  Fields, defaults, equality, ``repr``, ``replace``, ``asdict``
and pickling are the dataclass's own.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np


#: ``CheckItem``'s "no details given" default, as the generated ``__init__``
#: marks a ``default_factory``.
_NO_DETAILS: Any = object()


@dataclass(frozen=True, init=False)
class CheckItem:
    """One audited condition with its signed margin and extras."""

    name: str
    passed: bool
    margin: float
    details: Mapping[str, Any] = field(default_factory=dict)

    def __init__(self, name: str, passed: bool, margin: float,
                 details: Mapping[str, Any] = _NO_DETAILS):
        d = self.__dict__
        d["name"] = name
        d["passed"] = passed
        d["margin"] = margin
        d["details"] = {} if details is _NO_DETAILS else details


@dataclass(frozen=True, init=False)
class CheckReport:
    """A bundle of named checks plus an overall verdict."""

    title: str
    passed: bool
    items: tuple[CheckItem, ...]
    verdict: str = ""

    def __init__(self, title: str, passed: bool, items: tuple[CheckItem, ...],
                 verdict: str = ""):
        d = self.__dict__
        d["title"] = title
        d["passed"] = passed
        d["items"] = items
        d["verdict"] = verdict

    def item(self, name: str) -> CheckItem:
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)

    def to_json_dict(self) -> dict[str, Any]:
        checks = {
            it.name: {"pass": it.passed, "margin": it.margin, **dict(it.details)}
            for it in self.items
        }
        return {
            "title": self.title,
            "pass": self.passed,
            "verdict": self.verdict,
            "checks": checks,
        }


#: A string as JSON text, escaped as the ``json`` module escapes it.
_json_string = json.JSONEncoder(ensure_ascii=False).encode

#: Float text of every report and profile CSV: 17 digits, which round-trip a double.
FLOAT_SPEC = ".17g"


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value in report: {x}")
    return format(x, FLOAT_SPEC)


def render_json(value: Any, indent: int = 0) -> str:
    """Deterministic JSON text: sorted keys, fixed float formatting."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [inner + render_json(v, indent + 1) for v in value]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(value, Mapping):
        if not value:
            return "{}"
        parts = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            parts.append(f"{inner}{_json_string(key)}: " + render_json(value[key], indent + 1))
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


def write_json(path, value: Any) -> None:
    text = render_json(value) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def read_text(path) -> str:
    """The UTF-8 text of the file ``path``; bytes that are not UTF-8 are a
    ``ValueError`` naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}") from None


def read_json(path) -> Any:
    """The value in the JSON file ``path``; a file that is not UTF-8, does not
    parse, or nests deeper than the decoder recurses is a ``ValueError``
    naming the file (and the decoder's position or depth error)."""
    try:
        return json.loads(read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
