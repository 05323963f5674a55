"""Structured pass/fail reports and deterministic JSON rendering.

Margins are signed: nonnegative means the audited inequality holds, negative
says by how much it is violated.  JSON output is byte-deterministic (sorted
keys, two-space indent, strings escaped as the ``json`` module escapes them,
floats printed with 17 significant digits) so reports can be used as golden
files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np


@dataclass(frozen=True)
class CheckItem:
    """One audited condition with its signed margin and extras."""

    name: str
    passed: bool
    margin: float
    details: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CheckReport:
    """A bundle of named checks plus an overall verdict."""

    title: str
    passed: bool
    items: tuple[CheckItem, ...]
    verdict: str = ""

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


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value in report: {x}")
    return format(x, ".17g")


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
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def read_json(path) -> Any:
    """The value in the JSON file ``path``; a file that does not parse is a
    ``ValueError`` naming the file and the decoder's position."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
