"""The profile CSV codec against the per-cell writer and reader it replaced, and the
snapshot array against ``np.save`` of the stacked run."""

import copy
import dataclasses
import json
import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lvwaves import figures
from lvwaves.numerics import Snapshots
from lvwaves.profiles import ScalarProfile, WaveProfile, _read_csv, _write_csv, uniform_grid
from lvwaves.report import format_float

from conftest import positive_rationals


def reference_write_csv(path, names, cols):
    """The per-cell writer: one ``format_float`` call per cell."""
    lines = [",".join(names)]
    for row in zip(*cols):
        lines.append(",".join(format_float(val) for val in row))
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def reference_write_points(path, pts):
    """The per-cell writer of the figure point sets."""
    lines = ["u,v"] + [f"{format_float(a)},{format_float(b)}" for a, b in pts]
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def reference_read_csv(path):
    """The per-cell reader: one Python ``float()`` per cell."""
    text = Path(path).read_text()
    rows = [line.split(",") for line in text.strip().splitlines()]
    if not rows:
        raise ValueError(f"empty CSV {path}")
    names = [name.strip() for name in rows[0]]
    data = np.array([[float(cell) for cell in row] for row in rows[1:]], dtype=float)
    if data.ndim != 2 or data.shape[1] != len(names):
        raise ValueError(f"malformed CSV {path}")
    if not np.isfinite(data).all():
        raise ValueError(f"non-finite value in CSV {path}")
    return names, [data[:, j] for j in range(len(names))]


def same_bits(a, b) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


# the awkward corners of .17g: subnormals, signed zeros, the largest finite
# values and integer-valued floats, mixed with arbitrary finite floats
EDGE_FLOATS = [5e-324, 1e-310, 2.2250738585072014e-308, 0.0, -0.0, 1e308, -1e308,
               1.7976931348623157e308, 1e16, 1e17, 0.1, 1 / 3]
cells = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.integers(min_value=-(2**60), max_value=2**60).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def tables(draw):
    """(names, columns) with 0, 1 or many rows and one to four columns."""
    k = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.sampled_from([0, 1, draw(st.integers(min_value=2, max_value=40))]))
    flat = draw(st.lists(cells, min_size=n * k, max_size=n * k))
    data = np.array(flat, dtype=float).reshape(n, k)
    return ["x", "u", "v", "w"][:k], [data[:, j] for j in range(k)]


codec_settings = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@codec_settings
@given(table=tables())
def test_writer_bytes_match_reference(tmp_path, table):
    names, cols = table
    _write_csv(tmp_path / "new.csv", names, np.column_stack(cols))
    reference_write_csv(tmp_path / "ref.csv", names, cols)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@codec_settings
@given(table=tables())
def test_reader_matches_reference(tmp_path, table):
    names, cols = table
    path = tmp_path / "t.csv"
    reference_write_csv(path, names, cols)
    if len(cols[0]) == 0:
        with pytest.raises(ValueError, match="malformed CSV"):
            reference_read_csv(path)
        with pytest.raises(ValueError, match=re.escape(f"malformed CSV {path}")):
            _read_csv(path)
        return
    ref_names, ref_cols = reference_read_csv(path)
    new_names, new_cols = _read_csv(path)
    assert new_names == ref_names == names
    assert len(new_cols) == len(ref_cols)
    for new, ref, col in zip(new_cols, ref_cols, cols):
        assert same_bits(new, ref) and same_bits(new, col)


def _spellings(value: float) -> list[str]:
    return [repr(value), f"{value:.17g}", f"{value:.3E}", f" {value!r} ", f"+{value!r}"]


# cell texts the reader may meet: float spellings, whitespace, Python-only
# literals (underscores, non-ASCII digits), non-finite words and garbage
cell_texts = st.one_of(
    cells.flatmap(lambda v: st.sampled_from(_spellings(v))),
    st.sampled_from(["1_0", "٣", "１", "1.", ".5", "-0", "0e0", "nan", "-inf", "Infinity",
                     "", " ", "abc", "1e999", "0x10", "1,5"]),
)


@codec_settings
@given(
    k=st.integers(min_value=1, max_value=3),
    rows=st.lists(st.lists(cell_texts, min_size=1, max_size=4), max_size=6),
    ending=st.sampled_from(["\n", "\r\n", "\n\n", ""]),
)
def test_reader_accepts_what_the_reference_accepts(tmp_path, k, rows, ending):
    path = tmp_path / "t.csv"
    lines = [",".join(["x", "u", "v"][:k])] + [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + ending, newline="")
    try:
        expected = reference_read_csv(path)
    except ValueError:
        with pytest.raises(ValueError, match=re.escape(str(path))):
            _read_csv(path)
        return
    names, cols = _read_csv(path)
    assert names == expected[0]
    assert all(same_bits(a, b) for a, b in zip(cols, expected[1], strict=True))


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "empty CSV"),
        ("x,u,v\n", "malformed CSV"),
        ("x,u,v", "malformed CSV"),
        ("x,u,v\n0,1,1\n\n1,1,1\n", "malformed CSV"),
        ("x\n0\n\n1\n", "malformed CSV"),
        ("x,u,v\n0,1,1\n1,1\n", "malformed CSV"),
        ("x,u,v\n0,1,1\n1,1\n2,1,1,1\n", "malformed CSV"),
        ("x,u,v\n0,1,abc\n", "malformed CSV"),
        ("x,u,v\n0,1,nan\n", "non-finite value in CSV"),
        ("x,u,v\n0,1,-inf\n", "non-finite value in CSV"),
    ],
)
def test_reader_refusals_name_the_file(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{message} {path}")):
        _read_csv(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_writer_refuses_non_finite_values(tmp_path, bad):
    with pytest.raises(ValueError, match=f"non-finite value in report: {bad}"):
        _write_csv(tmp_path / "t.csv", ["x", "u"], [[0.0, 1.0], [1.0, bad]])
    assert not (tmp_path / "t.csv").exists()


def test_profiles_round_trip_bit_identically(tmp_path):
    x = np.linspace(-1.0, 1.0, 5)
    u = np.array([0.0, 5e-324, 1e-310, 1e308, 0.1])
    prof = WaveProfile(x=x, u=u, v=u[::-1].copy(), w=np.full(5, 1 / 3))
    prof.to_csv(tmp_path / "p.csv")
    back = WaveProfile.from_csv(tmp_path / "p.csv")
    for name in "xuvw":
        assert same_bits(getattr(back, name), getattr(prof, name))
    scalar = ScalarProfile(x=x, w=np.array([-0.0, -1.5, 0.0, 2.0, -1e-310]))
    scalar.to_csv(tmp_path / "s.csv")
    assert same_bits(ScalarProfile.from_csv(tmp_path / "s.csv").w, scalar.w)


# uniform grids that hold a signed zero, subnormals or 1e308 as nodes
SNAPSHOT_GRIDS = {
    "subnormal": [-0.0, 5e-324, 1e-323],
    "huge": [-1e308, -0.0],
    "huge-positive": [0.0, 1e308],
    "plain": np.linspace(-1.0, 1.0, 9),
}


@pytest.mark.parametrize("species", [2, 3])
@pytest.mark.parametrize("x", list(SNAPSHOT_GRIDS.values()), ids=list(SNAPSHOT_GRIDS))
def test_snapshot_files_match_reference_writer(tmp_path, species, x):
    # the middle profile's grid has the same values with every zero positive,
    # so each snapshot's grid row must keep its own bits
    x = np.array(x, dtype=float)
    rng = np.random.default_rng(species)
    densities = np.array([0.0, -0.0, 5e-324, 1e-310, 1e308, 1.7976931348623157e308, 0.1, 1 / 3])
    profiles = tuple(
        WaveProfile(grid, *rng.choice(densities, size=(species, x.size)))
        for grid in (x, x + 0.0, x)
    )
    Snapshots(times=np.arange(3.0), profiles=profiles).to_dir(tmp_path / "snaps")
    stacked = np.stack([[getattr(p, n) for n in ("x", *p.components)] for p in profiles])
    np.save(tmp_path / "ref.npy", stacked)
    written = (tmp_path / "snaps" / "snapshots.npy").read_bytes()
    assert written == (tmp_path / "ref.npy").read_bytes()
    back = Snapshots.from_dir(tmp_path / "snaps")
    for got, prof in zip(back.profiles, profiles, strict=True):
        assert got.components == prof.components
        assert all(same_bits(getattr(got, n), getattr(prof, n)) for n in ("x", *prof.components))


def _snapshot_dir(path, grids):
    """A snapshot directory of one three-node (x, u, v) snapshot per grid."""
    path.mkdir()
    data = np.array([[grid, [1.0] * 3, [0.0, 1.0, 2.0]] for grid in grids], dtype=float)
    np.save(path / "snapshots.npy", data)
    (path / "manifest.json").write_text(
        json.dumps({"array": "snapshots.npy", "times": list(range(len(grids)))})
    )
    return path / "snapshots.npy"


def test_snapshot_grid_spelt_another_way_reads_the_same_bits(tmp_path):
    # grids equal in value but not in bits: each snapshot keeps its own row
    grids = [[-0.0, 0.5, 1.0], [0.0, 0.5, 1.0], [-0.0, 0.5, 1.0]]
    _snapshot_dir(tmp_path / "snaps", grids)
    snaps = Snapshots.from_dir(tmp_path / "snaps")
    for grid, prof in zip(grids, snaps.profiles, strict=True):
        assert same_bits(prof.x, np.array(grid))
        assert not prof.x.flags.writeable and not prof.u.flags.writeable


@pytest.mark.parametrize("node", ["0.50000000000000011", "0.49999999999999994"])
def test_snapshot_grid_of_other_values_is_refused(tmp_path, node):
    path = _snapshot_dir(tmp_path / "snaps", [[0.0, 0.5, 1.0], [0.0, float(node), 1.0]])
    with pytest.raises(ValueError) as info:
        Snapshots.from_dir(tmp_path / "snaps")
    manifest = tmp_path / "snaps" / "manifest.json"
    assert str(info.value) == f"snapshots are not all on one grid in {manifest} and {path}"


def test_records_rebuilt_by_pickle_and_copy_keep_their_checks():
    x = np.linspace(0.0, 1.0, 5)
    wave = WaveProfile(x, np.ones(5), np.zeros(5), np.full(5, 3.0))
    records = [
        wave,
        ScalarProfile(x, -x),
        Snapshots(times=[0.0, 1.0], profiles=(wave, WaveProfile(x, x, x, x))),
    ]
    for record in records:
        for rebuilt in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(rebuilt) is type(record)
            arrays = [getattr(rebuilt, f.name) for f in dataclasses.fields(rebuilt)]
            if isinstance(rebuilt, Snapshots):
                arrays = [rebuilt.times] + [
                    getattr(p, n) for p in rebuilt.profiles for n in ("x", *p.components)
                ]
            for got in arrays:
                assert isinstance(got, np.ndarray) and not got.flags.writeable
    # a record that fails its checks cannot be smuggled in through pickle
    bad = pickle.dumps(wave).replace(np.float64(3.0).tobytes(), np.float64(-3.0).tobytes())
    with pytest.raises(ValueError, match="w samples must be nonnegative"):
        pickle.loads(bad)


def test_empty_point_set_is_header_only(tmp_path):
    _write_csv(tmp_path / "new.csv", ["u", "v"], [])
    reference_write_points(tmp_path / "ref.csv", [])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes() == b"u,v\n"


@pytest.mark.parametrize(
    "which,case",
    [("fig1", case) for case in "abcdef"]
    + [(which, case) for which in ("fig2", "fig3") for case in "abcd"],
)
def test_figure_files_match_reference_writer(tmp_path, monkeypatch, which, case):
    figures.emit_figure_data(which, case, tmp_path / "new")

    def per_cell(path, names, rows):
        assert names == ["u", "v"]
        reference_write_points(path, rows)

    monkeypatch.setattr(figures, "_write_csv", per_cell)
    figures.emit_figure_data(which, case, tmp_path / "ref")
    ref_files = sorted(p.name for p in (tmp_path / "ref").iterdir())
    assert ref_files == sorted(p.name for p in (tmp_path / "new").iterdir())
    for name in ref_files:
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


def reference_line_points(a, b, c, u_max, n=201):
    """The per-sample loop over the first-quadrant points of a u + b v = c."""
    pts = []
    for u in np.linspace(0.0, u_max, n):
        v = (float(c) - float(a) * u) / float(b)
        if v >= 0:
            pts.append((float(u), float(v)))
    return pts


@given(
    a=st.one_of(positive_rationals, st.floats(1e-3, 1e3)),
    b=st.one_of(positive_rationals, st.floats(1e-3, 1e3)),
    c=st.one_of(positive_rationals, st.floats(-1e3, 1e3)),
    u_max=st.floats(0.0, 50.0),
    n=st.integers(1, 300),
)
def test_line_points_match_the_loop(a, b, c, u_max, n):
    got = figures._line_points(a, b, c, u_max, n)
    want = reference_line_points(a, b, c, u_max, n)
    assert [(x.hex(), y.hex()) for x, y in got] == [(x.hex(), y.hex()) for x, y in want]


@pytest.mark.parametrize("header", ["x,u,v,q,z", "x,u,v,q", "x,u,v,w,z", "x,v,u", "x,u"])
def test_wave_profile_takes_only_its_two_headers(tmp_path, header):
    path = tmp_path / "p.csv"
    n = header.count(",") + 1
    path.write_text(header + "\n" + "\n".join(",".join([str(i)] * n) for i in range(3)) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"expected header x,u,v[,w], got {header}")):
        WaveProfile.from_csv(path)


@pytest.mark.parametrize(
    "x, message",
    [
        ([0.0, 2.0, 1.0], "grid must be strictly increasing"),
        ([0.0, 0.0, 1.0], "grid must be strictly increasing"),
        ([0.0, 1.0, 3.0], "grid spacing is not uniform"),
        ([0.0], "grid must be one-dimensional with at least two nodes"),
    ],
)
def test_profiles_refuse_bad_grids(x, message):
    n = len(x)
    with pytest.raises(ValueError, match=re.escape(message)):
        WaveProfile(x=x, u=np.ones(n), v=np.ones(n))
    with pytest.raises(ValueError, match=re.escape(message)):
        ScalarProfile(x=x, w=np.ones(n))


@pytest.mark.parametrize(
    "x_min, x_max, n, message",
    [
        (0.0, 1.0, 1, "need at least two nodes"),
        (0.0, 1.0, 0, "need at least two nodes"),
        (1.0, 1.0, 5, "x_min must be below x_max"),
        (2.0, 1.0, 5, "x_min must be below x_max"),
    ],
)
def test_uniform_grid_refusals(x_min, x_max, n, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        uniform_grid(x_min, x_max, n)


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda x: WaveProfile(x, np.ones(5), np.ones(5)), "x"),
        (lambda x: WaveProfile(x, np.ones(5), np.ones(5)), "u"),
        (lambda x: ScalarProfile(x, np.ones(5)), "w"),
    ],
    ids=["WaveProfile.x", "WaveProfile.u", "ScalarProfile.w"],
)
def test_checked_samples_are_read_only(make, name):
    x = np.linspace(0.0, 1.0, 5)
    profile = make(x)
    with pytest.raises(ValueError, match="read-only"):
        getattr(profile, name)[2] = 0.9
    # the record shares the caller's memory, and the caller's array stays writable
    x[2] = 0.5
    assert profile.x[2] == 0.5


def test_scalar_profile_field_off_the_grid_shape():
    with pytest.raises(ValueError, match=re.escape("w must match the grid shape")):
        ScalarProfile(x=np.linspace(0.0, 1.0, 4), w=np.ones((4, 1)))


@pytest.mark.parametrize(
    "x, fields, message",
    [
        # the grid is checked before any field
        ([0.0, 2.0, 1.0], {"u": [1.0, 1.0], "v": [-1.0, 0.0, 0.0]}, "grid must be strictly"),
        # then u (shape, then samples), v and w in turn
        ([0.0, 1.0, 2.0], {"u": [1.0, 1.0]}, "u must match the grid shape"),
        ([0.0, 1.0, 2.0], {"v": [1.0, 1.0]}, "v must match the grid shape"),
        ([0.0, 1.0, 2.0], {"w": [[1.0, 1.0, 1.0]]}, "w must match the grid shape"),
        ([0.0, 1.0, 2.0], {"u": [-1.0, 0.0, 0.0], "v": [1.0, 1.0]}, "u samples must be nonneg"),
        ([0.0, 1.0, 2.0], {"u": [1.0, 1.0], "v": [np.nan, 0.0, 0.0]}, "u must match the grid"),
        ([0.0, 1.0, 2.0], {"v": [np.nan, 0.0, 0.0], "w": [1.0]}, "v samples must be finite"),
        ([0.0, 1.0, 2.0], {"w": [-2.0, 0.0, 0.0]}, "w samples must be nonnegative (min -2.0)"),
    ],
)
def test_wave_profile_checks_in_order(x, fields, message):
    values = {"u": [0.0, 0.0, 0.0], "v": [0.0, 0.0, 0.0], **fields}
    with pytest.raises(ValueError, match=re.escape(message)):
        WaveProfile(x=x, **values)


def test_scalar_profile_from_csv_refuses_other_headers(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("x,u\n0,1\n1,2\n")
    with pytest.raises(ValueError, match=re.escape("expected header x,w, got x,u")):
        ScalarProfile.from_csv(path)


@pytest.mark.parametrize(
    "text, refused",
    [
        ("x,u,v\n0,1,1\n1,-0.5,1\n2,1,1\n", "u samples must be nonnegative (min -0.5)"),
        ("x,u,q\n0,1,1\n1,1,1\n2,1,1\n", "expected header x,u,v[,w], got x,u,q"),
        ("x,u,v,w\n0,1,1,1\n1,1,1,1\n3,1,1,1\n", "grid spacing is not uniform"),
    ],
)
def test_wave_profile_refusals_name_the_file(tmp_path, text, refused):
    path = tmp_path / "p.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        WaveProfile.from_csv(path)
    assert str(info.value) == f"{refused} in CSV {path}"


@pytest.mark.parametrize(
    "text, refused",
    [
        ("x,u\n0,1\n1,2\n", "expected header x,w, got x,u"),
        ("x,w\n0,1\n2,1\n1,1\n", "grid must be strictly increasing"),
    ],
)
def test_scalar_profile_refusals_name_the_file(tmp_path, text, refused):
    path = tmp_path / "s.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        ScalarProfile.from_csv(path)
    assert str(info.value) == f"{refused} in CSV {path}"
