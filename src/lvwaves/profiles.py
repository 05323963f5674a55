"""Sampled wave profiles on uniform grids, with CSV round-tripping.

CSV files carry a header row (``x,u,v`` or ``x,u,v,w`` or ``x,w``), comma
delimiters, LF line endings, and floats at 17 significant digits, so a
written profile reloads bit-identically.  I/O is per array, not per cell: a
write checks finiteness once and formats the whole body in one call, and a
read converts every cell in one call with the number syntax of ``float()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Relative tolerance on grid-spacing uniformity.
GRID_UNIFORMITY_TOL = 1e-12


def _check_grid(x: np.ndarray) -> None:
    if x.ndim != 1 or x.size < 2:
        raise ValueError("grid must be one-dimensional with at least two nodes")
    if not np.isfinite(x).all():
        raise ValueError("grid nodes must be finite")
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError("grid must be strictly increasing")
    h = (x[-1] - x[0]) / (x.size - 1)
    if np.max(np.abs(dx - h)) > GRID_UNIFORMITY_TOL * max(abs(h), 1.0):
        raise ValueError("grid spacing is not uniform")


def _check_samples(name: str, a: np.ndarray, nonneg: bool = True) -> None:
    if not np.isfinite(a).all():
        bad = float(a[~np.isfinite(a)][0])
        raise ValueError(f"{name} samples must be finite, got {bad}")
    if nonneg and np.any(a < 0):
        worst = float(np.min(a))
        raise ValueError(f"{name} samples must be nonnegative (min {worst})")


@dataclass(frozen=True)
class WaveProfile:
    """Densities (u, v[, w]) sampled on a uniform grid."""

    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.w is not None:
            object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        _check_grid(self.x)
        for name in ("u", "v"):
            arr = getattr(self, name)
            if arr.shape != self.x.shape:
                raise ValueError(f"{name} must match the grid shape")
            _check_samples(name, arr)
        if self.w is not None:
            if self.w.shape != self.x.shape:
                raise ValueError("w must match the grid shape")
            _check_samples("w", self.w)

    def to_csv(self, path) -> None:
        names = ["x", "u", "v"] + (["w"] if self.w is not None else [])
        cols = [self.x, self.u, self.v] + ([self.w] if self.w is not None else [])
        _write_csv(path, names, np.column_stack(cols))

    @classmethod
    def from_csv(cls, path) -> "WaveProfile":
        names, cols = _read_csv(path)
        if names not in (["x", "u", "v"], ["x", "u", "v", "w"]):
            raise ValueError(f"expected header x,u,v[,w], got {','.join(names)}")
        w = cols[3] if len(cols) > 3 else None
        return cls(x=cols[0], u=cols[1], v=cols[2], w=w)


@dataclass(frozen=True)
class ScalarProfile:
    """A single scalar field sampled on a uniform grid (used for w solutions)."""

    x: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        _check_grid(self.x)
        if self.w.shape != self.x.shape:
            raise ValueError("w must match the grid shape")
        _check_samples("w", self.w, nonneg=False)

    def to_csv(self, path) -> None:
        _write_csv(path, ["x", "w"], np.column_stack([self.x, self.w]))

    @classmethod
    def from_csv(cls, path) -> "ScalarProfile":
        names, cols = _read_csv(path)
        if names != ["x", "w"]:
            raise ValueError(f"expected header x,w, got {','.join(names)}")
        return cls(x=cols[0], w=cols[1])


def check_grid_bounds(x_min: float, x_max: float) -> None:
    """Raise ``ValueError`` unless both bounds are finite and ``x_min < x_max``."""
    for name, value in (("x_min", x_min), ("x_max", x_max)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not x_min < x_max:
        raise ValueError("x_min must be below x_max")


def uniform_grid(x_min: float, x_max: float, n: int) -> np.ndarray:
    if n < 2:
        raise ValueError("need at least two nodes")
    check_grid_bounds(x_min, x_max)
    return np.linspace(x_min, x_max, n)


def _write_csv(path, names: list[str], rows) -> None:
    """Write ``rows`` (one row per sample, one column per name) under a
    header line, every value at 17 significant digits."""
    data = np.asarray(rows, dtype=float).reshape(-1, len(names))
    bad = ~np.isfinite(data)
    if bad.any():
        raise ValueError(f"non-finite value in report: {float(data[bad][0])}")
    row = ",".join(["%.17g"] * len(names)) + "\n"
    body = "".join([row] * len(data)) % tuple(data.ravel().tolist())
    Path(path).write_text(",".join(names) + "\n" + body, newline="\n")


def _read_csv(path) -> tuple[list[str], list[np.ndarray]]:
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise ValueError(f"empty CSV {path}")
    names = [name.strip() for name in lines[0].split(",")]
    body = lines[1:]
    # one cell per name on every row, so a blank or ragged row is refused
    # before the cells are joined into one flat list
    if not body or any(line.count(",") != len(names) - 1 for line in body):
        raise ValueError(f"malformed CSV {path}")
    try:
        data = np.array(",".join(body).split(","), dtype=float)
    except ValueError as exc:
        raise ValueError(f"malformed CSV {path}: {exc}") from None
    data = data.reshape(len(body), len(names))
    if not np.isfinite(data).all():
        raise ValueError(f"non-finite value in CSV {path}")
    return names, list(data.T)
