"""The profile CSV codec against the per-cell writer and reader it replaced."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lvwaves import figures
from lvwaves.profiles import ScalarProfile, WaveProfile, _read_csv, _write_csv
from lvwaves.report import format_float


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


@pytest.mark.parametrize("header", ["x,u,v,q,z", "x,u,v,q", "x,u,v,w,z", "x,v,u", "x,u"])
def test_wave_profile_takes_only_its_two_headers(tmp_path, header):
    path = tmp_path / "p.csv"
    n = header.count(",") + 1
    path.write_text(header + "\n" + "\n".join(",".join([str(i)] * n) for i in range(3)) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"expected header x,u,v[,w], got {header}")):
        WaveProfile.from_csv(path)
