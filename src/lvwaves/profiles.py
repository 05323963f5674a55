"""Sampled wave profiles on uniform grids, with CSV round-tripping.

CSV files carry a header row (``x,u,v`` or ``x,u,v,w`` or ``x,w``), comma
delimiters, LF line endings, and floats at 17 significant digits, so a
written profile reloads bit-identically.  I/O is per array, not per cell: a
write checks finiteness once and formats the whole body in one call, and a
read converts every cell in one call with the number syntax of ``float()``.

Each 17-digit value costs one correctly rounded conversion each way, so the
files of one snapshot directory convert their shared grid column once: the
writer formats the grid into a row template that every file fills with its
densities, and the reader parses a file's grid cells only when their text
differs from the previous file's.  Equal text parses to equal bits, so the
bytes written and the arrays read are those of one file at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rational import _require_finite
from .report import FLOAT_SPEC, read_text

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


def _read_only(values) -> np.ndarray:
    """``values`` as a read-only float view; a float array's memory is shared,
    not copied, and stays writable to its owner."""
    a = np.asarray(values, dtype=float).view()
    a.flags.writeable = False
    return a


def _set_samples(obj, fields: tuple[str, ...], nonneg: bool) -> None:
    """Store the grid ``x`` and the named fields of ``obj`` as read-only float
    views (:func:`_read_only`), then check the grid, then each field in turn:
    its shape, its samples finite, and with ``nonneg`` none negative."""
    for name in ("x", *fields):
        object.__setattr__(obj, name, _read_only(getattr(obj, name)))
    _check_grid(obj.x)
    for name in fields:
        a = getattr(obj, name)
        if a.shape != obj.x.shape:
            raise ValueError(f"{name} must match the grid shape")
        if not np.isfinite(a).all():
            bad = float(a[~np.isfinite(a)][0])
            raise ValueError(f"{name} samples must be finite, got {bad}")
        if nonneg and np.any(a < 0):
            raise ValueError(f"{name} samples must be nonnegative (min {float(np.min(a))})")


@dataclass(frozen=True)
class WaveProfile:
    """Densities (u, v[, w]) sampled on a uniform grid."""

    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray | None = None

    def __post_init__(self):
        _set_samples(self, self.components, nonneg=True)

    @property
    def components(self) -> tuple[str, ...]:
        """Names of the densities in order: ("u", "v"), plus "w" for three species."""
        return ("u", "v") if self.w is None else ("u", "v", "w")

    def to_csv(self, path) -> None:
        _write_wave_csvs([path], [self])

    @classmethod
    def from_csv(cls, path) -> "WaveProfile":
        return _read_wave_csvs([path])[0]


@dataclass(frozen=True)
class ScalarProfile:
    """A single scalar field sampled on a uniform grid (used for w solutions)."""

    x: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        _set_samples(self, ("w",), nonneg=False)

    def to_csv(self, path) -> None:
        _write_csv(path, ["x", "w"], np.column_stack([self.x, self.w]))

    @classmethod
    def from_csv(cls, path) -> "ScalarProfile":
        return _from_csv(path, cls, "x,w", ("x,w",))


def check_grid_bounds(x_min: float, x_max: float) -> None:
    """Raise ``ValueError`` unless both bounds are finite and ``x_min < x_max``."""
    _require_finite(x_min=x_min, x_max=x_max)
    if not x_min < x_max:
        raise ValueError("x_min must be below x_max")


def uniform_grid(x_min: float, x_max: float, n: int) -> np.ndarray:
    if n < 2:
        raise ValueError("need at least two nodes")
    check_grid_bounds(x_min, x_max)
    return np.linspace(x_min, x_max, n)


def _row_template(first: np.ndarray, n_rest: int) -> str:
    """A CSV body whose rows hold ``first``'s values at 17 significant digits,
    each followed by ``n_rest`` ``,%.17g`` slots.  A formatted finite float
    holds no ``%``, so one ``%`` over the other columns fills every slot."""
    row = "%" + FLOAT_SPEC + (",%%" + FLOAT_SPEC) * n_rest + "\n"
    return "".join([row] * len(first)) % tuple(first.tolist())


def _write_csv(path, names: list[str], rows, template: str | None = None) -> None:
    """Write ``rows`` (one row per sample, one column per name) under a
    header line, every value at 17 significant digits.  ``template`` is
    ``_row_template`` of the first column, for a caller that writes many
    files on one grid; without it the writer builds its own."""
    data = np.asarray(rows, dtype=float).reshape(-1, len(names))
    bad = ~np.isfinite(data)
    if bad.any():
        raise ValueError(f"non-finite value in report: {float(data[bad][0])}")
    if template is None:
        template = _row_template(data[:, 0], len(names) - 1)
    body = template % tuple(data[:, 1:].ravel().tolist())
    Path(path).write_text(",".join(names) + "\n" + body, newline="\n")


def _write_wave_csvs(paths, profiles) -> None:
    """``to_csv`` of each profile to its path, formatting the grid column only
    when its bits or the number of densities differ from the previous
    profile's (a grid equal in value but not in bits, -0.0 for 0.0, is
    formatted again)."""
    key = template = None
    for path, prof in zip(paths, profiles, strict=True):
        names = ["x", *prof.components]
        grid = (prof.x.tobytes(), len(names))
        if grid != key:
            key, template = grid, _row_template(prof.x, len(names) - 1)
        cols = np.column_stack([getattr(prof, name) for name in names])
        _write_csv(path, names, cols, template)


def _read_wave_csvs(paths) -> tuple[WaveProfile, ...]:
    """``WaveProfile.from_csv`` of each path, parsing a file's grid column only
    when its text differs from the previous file's."""
    grid: dict = {}
    return tuple(
        _from_csv(path, WaveProfile, "x,u,v[,w]", ("x,u,v", "x,u,v,w"), grid) for path in paths
    )


def _from_csv(path, cls, expected: str, headers: tuple[str, ...], grid: dict | None = None):
    """``cls`` of the columns of the CSV file ``path``, whose header must be one
    of ``headers``; the one place a profile file is read, so each refusal names
    it.  ``grid`` is passed on to ``_read_csv``."""
    names, cols = _read_csv(path, grid)
    try:
        if ",".join(names) not in headers:
            raise ValueError(f"expected header {expected}, got {','.join(names)}")
        return cls(*cols)
    except ValueError as exc:
        raise ValueError(f"{exc} in CSV {path}") from None


def _read_csv(path, grid: dict | None = None) -> tuple[list[str], list[np.ndarray]]:
    """The header names and columns of the CSV file ``path``.

    ``grid`` carries the first column from file to file: a file whose
    first-column cell texts equal ``grid["texts"]`` takes ``grid["x"]`` as
    that column and converts only its other cells; any other file converts
    every cell and leaves its own first-column texts and array in ``grid``.
    """
    lines = read_text(path).strip().splitlines()
    if not lines:
        raise ValueError(f"empty CSV {path}")
    names = [name.strip() for name in lines[0].split(",")]
    body = lines[1:]
    # one cell per name on every row, so a blank or ragged row is refused
    # before the cells are joined into one flat list
    if not body or any(line.count(",") != len(names) - 1 for line in body):
        raise ValueError(f"malformed CSV {path}")
    cells = ",".join(body).split(",")
    texts = cells[:: len(names)]
    reuse = grid is not None and texts == grid.get("texts")
    if reuse:
        del cells[:: len(names)]
    try:
        data = np.array(cells, dtype=float)
    except ValueError as exc:
        raise ValueError(f"malformed CSV {path}: {exc}") from None
    data = data.reshape(len(body), len(names) - reuse)
    if not np.isfinite(data).all():
        raise ValueError(f"non-finite value in CSV {path}")
    cols = list(data.T)
    if reuse:
        cols.insert(0, grid["x"])
    elif grid is not None:
        grid.update(texts=texts, x=cols[0])
    return names, cols
