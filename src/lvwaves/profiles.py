"""Sampled wave profiles on uniform grids: CSV files for single profiles,
one float64 array for a run's snapshots.

CSV files carry a header row (``x,u,v`` or ``x,u,v,w`` or ``x,w``), comma
delimiters, LF line endings, and floats at 17 significant digits, so a
written profile reloads bit-identically.  I/O is per array, not per cell: a
write checks finiteness once and formats the whole body in one call, and a
read converts every cell in one call with the number syntax of ``float()``.

A run's snapshots are one ``.npy`` file (format 1.0, little-endian float64,
C order) of shape (snapshots, 1 + species, n): row 0 of each snapshot is its
grid, the rows after it u, v[, w].  The array holds the bits themselves, so
it is as exact as the CSV text and costs no conversion.  The writer streams
each profile's rows after one header, so no stacked copy of the run is made;
the reader refuses any other dtype, memory order or shape, and builds each
profile from read-only row views of the one array it loads, through every
``WaveProfile`` check.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rational import _reduce_by_init, _require_finite
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

    __reduce__ = _reduce_by_init

    @property
    def components(self) -> tuple[str, ...]:
        """Names of the densities in order: ("u", "v"), plus "w" for three species."""
        return ("u", "v") if self.w is None else ("u", "v", "w")

    def to_csv(self, path) -> None:
        names = ["x", *self.components]
        _write_csv(path, names, np.column_stack([getattr(self, name) for name in names]))

    @classmethod
    def from_csv(cls, path) -> "WaveProfile":
        return _from_csv(path, cls, "x,u,v[,w]", ("x,u,v", "x,u,v,w"))


@dataclass(frozen=True)
class ScalarProfile:
    """A single scalar field sampled on a uniform grid (used for w solutions)."""

    x: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        _set_samples(self, ("w",), nonneg=False)

    __reduce__ = _reduce_by_init

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


def _write_csv(path, names: list[str], rows) -> None:
    """Write ``rows`` (one row per sample, one column per name) under a
    header line, every value at 17 significant digits."""
    data = np.asarray(rows, dtype=float).reshape(-1, len(names))
    bad = ~np.isfinite(data)
    if bad.any():
        raise ValueError(f"non-finite value in report: {float(data[bad][0])}")
    row = ",".join(["%" + FLOAT_SPEC] * len(names)) + "\n"
    body = "".join([row] * len(data)) % tuple(data.ravel().tolist())
    Path(path).write_text(",".join(names) + "\n" + body, newline="\n")


def _write_wave_npy(path, profiles) -> None:
    """Stream ``profiles`` (one grid size, one set of components) into the
    ``.npy`` file ``path``: the header, then each profile's x, u, v[, w]."""
    rows = ("x", *profiles[0].components)
    shape = (len(profiles), len(rows), profiles[0].x.size)
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(
            fh, {"descr": "<f8", "fortran_order": False, "shape": shape}
        )
        for prof in profiles:
            for name in rows:
                np.asarray(getattr(prof, name), dtype="<f8").tofile(fh)


def _read_wave_npy(path) -> tuple[WaveProfile, ...]:
    """The profiles of the snapshot array in ``path``, each on read-only row
    views of the loaded array; every refusal names the file."""
    try:
        with open(path, "rb") as fh:
            data = np.load(fh, allow_pickle=False)
            if not isinstance(data, np.ndarray):
                raise ValueError("expected a .npy array, got an .npz archive")
            if fh.read(1):
                raise ValueError("expected the file to end after the array")
        order = "C" if data.flags.c_contiguous else "Fortran"
        if (order, data.dtype.str) != ("C", "<f8"):
            raise ValueError(f"expected C-order <f8 data, got {order}-order {data.dtype.str}")
        if data.ndim != 3 or data.shape[1] not in (3, 4) or data.shape[2] < 2:
            raise ValueError(f"expected shape (snapshots, 3 or 4, n >= 2), got {data.shape}")
        data.flags.writeable = False
        return tuple(WaveProfile(*snap) for snap in data)
    except (EOFError, ValueError) as exc:
        raise ValueError(f"{exc} in snapshot array {path}") from None


def _from_csv(path, cls, expected: str, headers: tuple[str, ...]):
    """``cls`` of the columns of the CSV file ``path``, whose header must be one
    of ``headers``; the one place a profile file is read, so each refusal names
    it."""
    names, cols = _read_csv(path)
    try:
        if ",".join(names) not in headers:
            raise ValueError(f"expected header {expected}, got {','.join(names)}")
        return cls(*cols)
    except ValueError as exc:
        raise ValueError(f"{exc} in CSV {path}") from None


def _read_csv(path) -> tuple[list[str], list[np.ndarray]]:
    """The header names and columns of the CSV file ``path``."""
    lines = read_text(path).strip().splitlines()
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
