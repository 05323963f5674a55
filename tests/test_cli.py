import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lvwaves as lv
from lvwaves import cli
from lvwaves.cli import main
from lvwaves.profiles import WaveProfile
from lvwaves.rational import parse_number

F = Fraction

PAPER_FREE = {
    "k1": 1, "k2": 1, "d1": 1, "d2": 1, "d3": 1,
    "theta": 3, "sigma1": 41, "sigma2": 41, "sigma3": 41,
}
STRONG = {"d1": 1, "d2": 1, "sigma1": 1, "sigma2": 1, "c11": 1, "c12": 2, "c21": 3, "c22": 1}
# every bundled illustration case: (which, case, conic kind, plot window)
FIGURE_CASES = [
    ("fig1", "a", "Hyperbola", 2.5),
    ("fig1", "b", "Hyperbola", 2.5),
    ("fig1", "c", "Parabola", 2.5),
    ("fig1", "d", "Parabola", 2.5),
    ("fig1", "e", "Ellipse", 2.5),
    ("fig1", "f", "Hyperbola", 8.0),
] + [(which, case, "Hyperbola", 2.5) for which in ("fig2", "fig3") for case in "abcd"]
COMMANDS = [
    "classify", "bounds", "barrier", "conic", "exact-wave", "two-wave", "simulate", "speed",
    "fisher", "check-existence", "check-nonexistence", "verify-profile", "evenness",
    "figure-data",
]
NONEXIST = {
    "d1": 1, "d2": 1, "d3": 1, "sigma1": 1, "sigma2": 1, "sigma3": 0.1,
    "c11": 1, "c12": 2, "c13": 0, "c21": 3, "c22": 1, "c23": 0,
    "c31": 1, "c32": 1, "c33": 1,
}

#: what a file of the bytes 0x80 0x81 is refused with, after its name
NOT_UTF8 = (
    " is not UTF-8 text: 'utf-8' codec can't decode byte 0x80 in position 0: "
    "invalid start byte\n"
)


def write_json(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def report(out_dir: Path) -> dict:
    return json.loads((out_dir / "report.json").read_text())


def _save_changed(path, data, index, value):
    data = data.copy()
    data[index] = value
    np.save(path, data)


def _save_truncated(path, data):
    np.save(path, data)
    path.write_bytes(path.read_bytes()[:-8])


def _save_npz(path, data):
    with open(path, "wb") as fh:  # under its own name: np.savez appends .npz to a path
        np.savez(fh, data)


def _csv_era_manifest(path, data):
    """The manifest of the per-snapshot CSV files that came before the array."""
    manifest = path.parent / "manifest.json"
    entries = json.loads(manifest.read_text())
    del entries["array"]
    entries["files"] = ["snapshot_0000.csv", "snapshot_0001.csv"]
    manifest.write_text(json.dumps(entries))


# damage done to a good two-snapshot array of shape (2, 3, 81), and the
# reason its refusal gives
BAD_SNAPSHOT_ARRAYS = {
    "object": (lambda path, d: np.save(path, d.astype(object), allow_pickle=True),
               "Object arrays cannot be loaded"),
    "big-endian": (lambda path, d: np.save(path, d.astype(">f8")), "got C-order >f8"),
    "float32": (lambda path, d: np.save(path, d.astype("<f4")), "got C-order <f4"),
    "fortran-order": (lambda path, d: np.save(path, np.asfortranarray(d)),
                      "got Fortran-order <f8"),
    "two-rows": (lambda path, d: np.save(path, d[:, :2]), "got (2, 2, 81)"),
    "five-rows": (lambda path, d: np.save(path, np.concatenate([d, d[:, 1:]], axis=1)),
                  "got (2, 5, 81)"),
    "one-node": (lambda path, d: np.save(path, d[:, :, :1]), "got (2, 3, 1)"),
    "flat": (lambda path, d: np.save(path, d.ravel()), "got (486,)"),
    "truncated": (_save_truncated, "Failed to read all data"),
    "trailing-bytes": (lambda path, d: path.write_bytes(path.read_bytes() + bytes(8)),
                       "expected the file to end after the array"),
    "npz-archive": (_save_npz, "got an .npz archive"),
    "one-snapshot-for-two-times": (lambda path, d: np.save(path, d[:1]),
                                   "2 times for 1 snapshots"),
    "non-uniform-grid": (lambda path, d: _save_changed(path, d, (1, 0, 3), d[1, 0, 3] + 0.01),
                         "grid spacing is not uniform"),
    "negative-density": (lambda path, d: _save_changed(path, d, (1, 1, 5), -1.0),
                         "u samples must be nonnegative"),
    "nan-density": (lambda path, d: _save_changed(path, d, (0, 2, 5), np.nan),
                    "v samples must be finite, got nan"),
    "csv-era-manifest": (_csv_era_manifest, "needs an 'array' file name"),
}


class TestExactWaveCommand:
    def test_paper_example(self, tmp_path):
        params = write_json(tmp_path / "free.json", PAPER_FREE)
        out = tmp_path / "out"
        assert main(["exact-wave", "--params", params, "--out", str(out)]) == 0
        data = report(out)
        assert data["c_exact"] == [
            ["41", "41/5", "31/5"],
            ["69", "34/5", "4/5"],
            ["51", "36/5", "6/5"],
        ]
        assert data["u_star_exact"] == "1/5"
        assert data["v_star_exact"] == "4"
        assert max(data["residuals"].values()) < 1e-10
        profile = WaveProfile.from_csv(out / "wave.csv")
        assert profile.w is not None

    def test_infeasible_free_params_exit_1(self, tmp_path):
        params = write_json(tmp_path / "free.json", {**PAPER_FREE, "theta": 41})
        assert main(["exact-wave", "--params", params, "--out", str(tmp_path / "o")]) == 1

    def test_override_flag(self, tmp_path):
        params = write_json(tmp_path / "free.json", {**PAPER_FREE, "theta": 41})
        out = tmp_path / "out"
        code = main(
            ["exact-wave", "--params", params, "--set", "theta=3", "--out", str(out)]
        )
        assert code == 0


class TestClosedFormCommands:
    def test_bounds_json(self, tmp_path):
        params = write_json(tmp_path / "p.json", STRONG)
        out = tmp_path / "out"
        assert main(["bounds", "--params", params, "--out", str(out)]) == 0
        data = report(out)
        assert data["q_lower"] == pytest.approx(1 / 3, abs=1e-15)
        assert data["q_upper"] == 1
        assert data["q_lower_exact"] == "1/3"

    def test_bounds_regime_failure_exit_1(self, tmp_path):
        params = write_json(tmp_path / "p.json", {**STRONG, "c12": 0.5})
        assert main(["bounds", "--params", params, "--out", str(tmp_path / "o")]) == 1

    def test_barrier_matches_tabulated_case(self, tmp_path):
        params = write_json(tmp_path / "p.json", {**STRONG, "d2": 2})
        out = tmp_path / "out"
        code = main(
            ["barrier", "--params", params, "--alpha", "17", "--beta", "18",
             "--side", "lower", "--out", str(out)]
        )
        assert code == 0
        data = report(out)
        assert data["lambda1_exact"] == "17/6"
        assert data["lambda2_exact"] == "17/3"
        assert data["eta_exact"] == "17/6"
        assert data["case_id"] == "i"

    def test_float_equal_diffusion_barrier(self, tmp_path):
        # the eight-case form rounded lambda1 above lambda2 here and exited 2
        params = write_json(tmp_path / "p.json", {**STRONG, "d1": "0.3", "d2": "0.3"})
        out = tmp_path / "out"
        code = main(
            ["barrier", "--params", params, "--alpha", "1", "--beta", "1",
             "--side", "lower", "--out", str(out)]
        )
        assert code == 0
        data = report(out)
        assert data["lambda1"] == data["lambda2"]

    def test_conic_classification(self, tmp_path):
        weak = {**STRONG, "c12": "1/2", "c21": "2/3"}
        params = write_json(tmp_path / "p.json", weak)
        out = tmp_path / "out"
        assert main(
            ["conic", "--params", params, "--alpha", "2", "--beta", "3", "--out", str(out)]
        ) == 0
        assert report(out)["kind"] == "Ellipse"

    def test_classify(self, tmp_path):
        params = write_json(tmp_path / "p.json", STRONG)
        out = tmp_path / "out"
        assert main(["classify", "--params", params, "--out", str(out)]) == 0
        assert report(out)["regime"] == "Strong"

    def test_dotted_matrix_override(self, tmp_path):
        params = write_json(tmp_path / "p.json", STRONG)
        out = tmp_path / "out"
        code = main(
            ["classify", "--params", params, "--set", "c.1.2=1/2", "--out", str(out)]
        )
        assert code == 0
        assert report(out)["regime"] == "ExclusionUWins"

    @pytest.mark.parametrize("override, key", [("sigm1=5", "sigm1"), ("c.1.3=7", "c13")])
    def test_override_of_a_key_not_in_the_file_is_usage_error(
        self, tmp_path, capsys, override, key
    ):
        # a misspelt key would otherwise be ignored and the report written
        # as if no override had been given
        params = write_json(tmp_path / "s.json", STRONG)
        out = tmp_path / "out"
        code = main(["bounds", "--params", params, "--set", override, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert repr(key) in err and params in err
        assert not (out / "report.json").exists()

    def test_evenness(self, tmp_path):
        out = tmp_path / "out"
        assert main(["evenness", "--u", "1", "--v", "3", "--out", str(out)]) == 0
        assert report(out)["J"] == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_evenness_domain_error_exit_1(self, tmp_path):
        assert main(["evenness", "--u", "0", "--v", "0", "--out", str(tmp_path / "o")]) == 1


class TestCheckCommands:
    def test_nonexistence_verdict(self, tmp_path):
        params = write_json(tmp_path / "p.json", NONEXIST)
        out = tmp_path / "out"
        assert main(["check-nonexistence", "--params", params, "--out", str(out)]) == 0
        data = report(out)
        assert data["verdict"] == "nonexistence predicted (literal A3 and variant both pass)"
        assert data["checks"]["A3_literal"]["pass"]

    def test_nonexistence_failure_exit_1(self, tmp_path):
        params = write_json(tmp_path / "p.json", {**NONEXIST, "sigma3": 1})
        assert main(
            ["check-nonexistence", "--params", params, "--out", str(tmp_path / "o")]
        ) == 1

    def test_existence_exit_1_and_margins(self, tmp_path, demo_two_wave):
        blk = {k: str(v) for k, v in demo_two_wave.params.to_dict().items()}
        cfgd = {
            **blk, "d3": 2, "sigma3": 10, "c31": "1/2", "c32": "1/100", "c33": 1,
            "theta": str(demo_two_wave.theta), "K_sub": 1, "K_super": 12,
        }
        params = write_json(tmp_path / "p.json", cfgd)
        out = tmp_path / "out"
        assert main(["check-existence", "--params", params, "--out", str(out)]) == 1
        data = report(out)
        assert data["checks"]["H2"]["pass"] and data["checks"]["H3"]["pass"]
        assert not data["checks"]["H1"]["pass"]

    @pytest.mark.parametrize("command, data, missing", [
        ("check-existence", {**STRONG, "d3": 1, "sigma3": 1, "c31": 1, "c32": 1, "c33": 1,
                             "theta": 1, "K_sub": 1}, ["K_super"]),
        ("check-existence", {"d1": 1, "sigma3": 1}, ["d2", "c22", "theta", "K_super"]),
        ("check-nonexistence", {k: v for k, v in NONEXIST.items() if k not in ("c13", "c33")},
         ["c13", "c33"]),
        ("classify", {"d1": 1}, ["d2", "sigma1", "c12", "c22"]),
        ("two-wave", {"d1": 1}, ["d2", "theta", "k1"]),
        ("exact-wave", {"d1": 1}, ["k1", "sigma3"]),
    ])
    def test_missing_key_names_every_key_and_the_file(
        self, tmp_path, capsys, command, data, missing
    ):
        params = write_json(tmp_path / "p.json", data)
        out = tmp_path / "out"
        assert main([command, "--params", params, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "missing key" in err and params in err
        assert all(repr(key) in err for key in missing)
        assert not any(repr(key) in err for key in data)
        assert not (out / "report.json").exists()


class TestProfileCommands:
    def test_verify_profile_pass_and_fail(self, tmp_path, paper_spec):
        block = {
            "d1": 1, "d2": 1, "sigma1": 41, "sigma2": 41,
            "c11": 41, "c12": "41/5", "c21": 69, "c22": "34/5",
        }
        params = write_json(tmp_path / "p.json", block)
        x = np.linspace(-40, 40, 2001)
        lv.wave_profile(paper_spec, x).to_csv(tmp_path / "wave.csv")
        out = tmp_path / "out"
        code = main(
            ["verify-profile", "--params", params, "--profile",
             str(tmp_path / "wave.csv"), "--out", str(out)]
        )
        assert code == 0
        data = report(out)
        assert data["pass"]
        assert data["checks"]["upper"]["margin"] == pytest.approx(float(F(311, 170)), abs=1e-12)

        bad = lv.WaveProfile(
            x=np.linspace(0, 1, 11),
            u=np.full(11, 7.0),
            v=np.full(11, 7.0),
        )
        bad.to_csv(tmp_path / "bad.csv")
        code = main(
            ["verify-profile", "--params", params, "--profile",
             str(tmp_path / "bad.csv"), "--out", str(out)]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "command,flag",
        [("verify-profile", "--profile"), ("simulate", "--init"), ("fisher", "--background")],
    )
    def test_empty_profile_csv_is_usage_error(self, tmp_path, paper_spec, capsys, command, flag):
        cfgd = {k: str(v) for k, v in paper_spec.params.to_dict().items()}
        cfgd.update({"theta": 3, "K_sub": 1, "K_super": 12})
        params = write_json(tmp_path / "p.json", cfgd)
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        argv = [command, "--params", params, flag, str(empty), "--out", str(tmp_path / "o")]
        if command == "simulate":
            argv += ["--t-end", "0.1"]
        assert main(argv) == 2
        assert "empty.csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flag",
        [("verify-profile", "--profile"), ("simulate", "--init"), ("fisher", "--background")],
    )
    def test_non_finite_profile_csv_is_usage_error(
        self, tmp_path, paper_spec, capsys, command, flag
    ):
        cfgd = {k: str(v) for k, v in paper_spec.params.to_dict().items()}
        cfgd.update({"theta": 3, "K_sub": 1, "K_super": 12})
        params = write_json(tmp_path / "p.json", cfgd)
        wave = tmp_path / "wave.csv"
        lv.wave_profile(paper_spec, np.linspace(-20, 20, 401)).to_csv(wave)
        lines = wave.read_text().splitlines()
        x, _, rest = lines[200].split(",", 2)
        lines[200] = f"{x},nan,{rest}"
        wave.write_text("\n".join(lines) + "\n")
        argv = [command, "--params", params, flag, str(wave), "--out", str(tmp_path / "o")]
        if command == "simulate":
            argv += ["--t-end", "0.1"]
        assert main(argv) == 2
        assert str(wave) in capsys.readouterr().err

    @pytest.mark.parametrize("defect", ["ragged row", "blank line"])
    def test_malformed_init_csv_is_usage_error(self, tmp_path, paper_spec, capsys, defect):
        three = {k: str(v) for k, v in paper_spec.params.to_dict().items()}
        params = write_json(tmp_path / "p.json", three)
        wave = tmp_path / "wave.csv"
        lv.wave_profile(paper_spec, np.linspace(-20, 20, 401)).to_csv(wave)
        lines = wave.read_text().splitlines()
        lines[200] = lines[200].rsplit(",", 1)[0] if defect == "ragged row" else ""
        wave.write_text("\n".join(lines) + "\n")
        argv = ["simulate", "--params", params, "--init", str(wave), "--t-end", "0.1",
                "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert f"malformed CSV {wave}" in capsys.readouterr().err

    def test_refused_init_samples_name_the_file(self, tmp_path, paper_spec, capsys):
        three = {k: str(v) for k, v in paper_spec.params.to_dict().items()}
        params = write_json(tmp_path / "p.json", three)
        wave = tmp_path / "wave.csv"
        lv.wave_profile(paper_spec, np.linspace(-20, 20, 401)).to_csv(wave)
        lines = wave.read_text().splitlines()
        x, _, rest = lines[200].split(",", 2)
        lines[200] = f"{x},-0.5,{rest}"
        wave.write_text("\n".join(lines) + "\n")
        argv = ["simulate", "--params", params, "--init", str(wave), "--t-end", "0.1",
                "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"usage error: u samples must be nonnegative (min -0.5) in CSV {wave}\n"
        )

    def test_grid_whose_step_squares_to_zero(self, tmp_path, capsys):
        # a uniform three-node grid that verify-profile reads, but whose
        # h**2 underflows, so no time step bound can be formed to simulate on it
        wave = tmp_path / "wave.csv"
        wave.write_text("x,u,v\n0,1,0\n1e-300,1,0\n2e-300,1,0\n")
        params = write_json(tmp_path / "p.json", STRONG)
        argv = ["verify-profile", "--params", params, "--profile", str(wave),
                "--out", str(tmp_path / "verify")]
        assert main(argv) in (0, 1)
        argv = ["simulate", "--params", params, "--init", str(wave), "--t-end", "0.1",
                "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "usage error: grid step h=1e-300 has no finite 1/h**2 (h**2 = 0.0)\n"
        )
        assert not (tmp_path / "o").exists()

    def test_initial_state_above_the_blowup_limit_is_refused_before_stepping(
        self, tmp_path, capsys
    ):
        # the reaction bound of this start overflowed into numpy warnings and
        # a step of 5.6e-201, then the run stopped at t=5.57e-201
        x = np.linspace(-10.0, 10.0, 41)
        WaveProfile(x, np.full(41, 1e200), np.full(41, 0.5)).to_csv(tmp_path / "big.csv")
        params = write_json(tmp_path / "p.json", STRONG)
        argv = ["simulate", "--params", params, "--init", str(tmp_path / "big.csv"),
                "--t-end", "1", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "usage error: max initial state = 1e+200 is above the admissible limit "
            "BLOWUP_LIMIT = 1e+12\n"
        )
        assert not (tmp_path / "o").exists()

    def test_profile_not_utf8_is_usage_error(self, tmp_path, capsys):
        params = write_json(tmp_path / "p.json", STRONG)
        bad = tmp_path / "wave.csv"
        bad.write_bytes(b"\x80\x81")
        argv = ["verify-profile", "--params", params, "--profile", str(bad),
                "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"usage error: {bad}" + NOT_UTF8

    def test_csv_roundtrip_lossless(self, tmp_path, paper_spec):
        x = np.linspace(-15, 15, 301)
        prof = lv.wave_profile(paper_spec, x)
        prof.to_csv(tmp_path / "wave.csv")
        back = WaveProfile.from_csv(tmp_path / "wave.csv")
        assert np.array_equal(back.x, prof.x)
        assert np.array_equal(back.u, prof.u)
        assert np.array_equal(back.v, prof.v)
        assert np.array_equal(back.w, prof.w)


class TestSimulationCommands:
    def test_simulate_then_speed(self, tmp_path, paper_spec):
        cfgd = {k: str(v) for k, v in paper_spec.params.to_dict().items()}
        params = write_json(tmp_path / "p.json", cfgd)
        x = np.linspace(-20, 20, 401)
        lv.wave_profile(paper_spec, x).to_csv(tmp_path / "init.csv")
        out = tmp_path / "out"
        code = main(
            ["simulate", "--params", params, "--init", str(tmp_path / "init.csv"),
             "--t-end", "0.5", "--n-snapshots", "5", "--boundary", "dirichlet",
             "--out", str(out)]
        )
        assert code == 0
        assert (out / "snapshots" / "manifest.json").exists()
        speed_out = tmp_path / "speed"
        code = main(
            ["speed", "--snapshots", str(out / "snapshots"), "--component", "u",
             "--level", "0.4", "--out", str(speed_out)]
        )
        assert code == 0
        assert report(speed_out)["speed"] == pytest.approx(3.0, rel=0.05)

    @pytest.mark.parametrize(
        "flags,field",
        [
            (["--t-end", "inf"], "t_end"),
            (["--t-end", "nan"], "t_end"),
            (["--t-end", "0.5", "--dt", "nan"], "dt"),
            (["--t-end", "0.5", "--dt", "abc"], "dt must be a number or 'auto', got 'abc'"),
            (["--t-end", "0.5", "--n-snapshots", "0"], "n_snapshots"),
            (["--t-end", "0.5", "--n-snapshots", "-3"], "n_snapshots"),
            (["--t-end", "0.001", "--n-snapshots", "3"], "n_snapshots=3 exceeds the 2"),
            # t_end / dt overflowed to inf, and counting its steps raised OverflowError
            (["--t-end", "1e308"],
             "t_end=1e+308 and dt=0.002487347424828819 give too many steps to count"),
            (["--t-end", "0.01", "--dt", "1e-320"],
             "t_end=0.01 and dt=1e-320 give too many steps to count"),
        ],
        ids=[
            "t_end-inf", "t_end-nan", "dt-nan", "dt-text", "n_snapshots-0", "n_snapshots-negative",
            "n_snapshots-beyond-steps", "steps-beyond-the-float-range-t_end",
            "steps-beyond-the-float-range-dt",
        ],
    )
    def test_bad_time_or_snapshot_count_is_usage_error(
        self, tmp_path, paper_spec, capsys, flags, field
    ):
        cfgd = {k: str(v) for k, v in paper_spec.params.to_dict().items()}
        params = write_json(tmp_path / "p.json", cfgd)
        lv.wave_profile(paper_spec, np.linspace(-20, 20, 401)).to_csv(tmp_path / "init.csv")
        code = main(
            ["simulate", "--params", params, "--init", str(tmp_path / "init.csv"), *flags,
             "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert field in capsys.readouterr().err

    def test_fisher_command(self, tmp_path, demo_two_wave):
        x = np.linspace(-40, 40, 801)
        lv.wave_profile(demo_two_wave, x).to_csv(tmp_path / "bg.csv")
        cfgd = {
            "d3": 2, "theta": 6, "sigma3": 10, "c31": 0.5, "c32": 0.01, "c33": 1,
            "K_sub": 1, "K_super": 12,
        }
        params = write_json(tmp_path / "p.json", cfgd)
        out = tmp_path / "out"
        code = main(
            ["fisher", "--params", params, "--background", str(tmp_path / "bg.csv"),
             "--relaxation", "15", "--out", str(out)]
        )
        assert code == 0
        data = report(out)
        assert data["solved"]
        assert data["iterations"] <= 200
        assert abs(data["w_left"]) < 1e-6 and abs(data["w_right"]) < 1e-6
        assert (out / "w.csv").exists()

    def test_fisher_zero_max_iter_is_usage_error(self, tmp_path, demo_two_wave, capsys):
        lv.wave_profile(demo_two_wave, np.linspace(-40, 40, 801)).to_csv(tmp_path / "bg.csv")
        cfgd = {
            "d3": 2, "theta": 6, "sigma3": 10, "c31": 0.5, "c32": 0.01, "c33": 1,
            "K_sub": 1, "K_super": 12,
        }
        params = write_json(tmp_path / "p.json", cfgd)
        code = main(
            ["fisher", "--params", params, "--background", str(tmp_path / "bg.csv"),
             "--relaxation", "15", "--max-iter", "0", "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert "max_iter" in capsys.readouterr().err

    @pytest.mark.parametrize("level", ["nan", "inf", "-inf"])
    def test_speed_at_a_non_finite_level_is_usage_error(
        self, tmp_path, demo_two_wave, capsys, level
    ):
        x = np.linspace(-40, 40, 801)
        ahead = lv.wave_profile(demo_two_wave, x - 3.0)
        snaps = lv.Snapshots(
            times=np.array([0.0, 1.0]),
            profiles=(lv.wave_profile(demo_two_wave, x), lv.WaveProfile(x=x, u=ahead.u, v=ahead.v)),
        )
        snaps.to_dir(tmp_path / "snapshots")
        code = main(
            ["speed", "--snapshots", str(tmp_path / "snapshots"), f"--level={level}",
             "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert capsys.readouterr().err == f"usage error: level must be finite, got {level}\n"
        assert not (tmp_path / "out").exists()

    def test_speed_of_missing_component_is_usage_error(self, tmp_path, demo_two_wave):
        x = np.linspace(-40, 40, 801)
        ahead = lv.wave_profile(demo_two_wave, x - 6.0)
        snaps = lv.Snapshots(
            times=np.array([0.0, 1.0]),
            profiles=(lv.wave_profile(demo_two_wave, x), lv.WaveProfile(x=x, u=ahead.u, v=ahead.v)),
        )
        with pytest.raises(ValueError, match="'w'"):
            lv.estimate_front_speed(snaps, "w", 0.4)
        snaps.to_dir(tmp_path / "snapshots")
        code = main(
            ["speed", "--snapshots", str(tmp_path / "snapshots"), "--component", "w",
             "--level", "0.4", "--out", str(tmp_path / "out")]
        )
        assert code == 2

    def test_speed_of_a_pulse_names_the_snapshot_and_the_crossings(
        self, tmp_path, paper_spec, capsys
    ):
        # w is a pulse: each level below its peak is crossed twice, and a
        # level above it not at all
        x = np.linspace(-20.0, 20.0, 401)
        profiles = tuple(
            lv.WaveProfile(x, *lv.evaluate_wave(paper_spec, x - 3.0 * t)) for t in (0.0, 0.5)
        )
        snaps = lv.Snapshots(times=np.array([0.0, 0.5]), profiles=profiles)
        snaps.to_dir(tmp_path / "snapshots")
        peak = float(np.max(snaps.profiles[0].w))
        for level, count in ((0.4 * peak, 2), (2.0 * peak, 0)):
            argv = ["speed", "--snapshots", str(tmp_path / "snapshots"), "--component", "w",
                    "--level", str(level), "--out", str(tmp_path / "out")]
            assert main(argv) == 1
            assert capsys.readouterr().err == (
                f"error: level {level} is crossed {count} times in the snapshot at t=0.0, "
                "not once: the component must be a monotone front, and a pulse (such as "
                "the paper's w) has no single level-set front\n"
            )
        assert not (tmp_path / "out").exists()

    def test_speed_refuses_snapshot_of_other_components(self, tmp_path, demo_two_wave, capsys):
        # a grid row and four density rows: no species count of the model
        x = np.linspace(-40, 40, 801)
        two = lv.wave_profile(demo_two_wave, x)
        lv.Snapshots(times=np.array([0.0, 1.0]), profiles=(two, two)).to_dir(tmp_path / "s")
        array = tmp_path / "s" / "snapshots.npy"
        np.save(array, np.stack([[x, two.u, two.v, two.u, two.v]] * 2))
        code = main(
            ["speed", "--snapshots", str(tmp_path / "s"), "--component", "w", "--level", "0.4",
             "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "usage error: expected shape (snapshots, 3 or 4, n >= 2), got (2, 5, 801) "
            f"in snapshot array {array}\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("x2", [np.linspace(-34, 46, 801), np.linspace(-80, 80, 801)],
                             ids=["shifted", "coarser"])
    def test_speed_refuses_snapshot_off_the_first_grid(
        self, tmp_path, demo_two_wave, capsys, x2
    ):
        # a standing front whose second snapshot is resampled on another grid
        x = np.linspace(-40, 40, 801)
        snaps = lv.Snapshots(
            times=np.array([0.0, 1.0]),
            profiles=(lv.wave_profile(demo_two_wave, x), lv.wave_profile(demo_two_wave, x)),
        )
        snaps.to_dir(tmp_path / "snapshots")
        moved = lv.wave_profile(demo_two_wave, x2)
        array = tmp_path / "snapshots" / "snapshots.npy"
        first = snaps.profiles[0]
        np.save(array, np.stack([[first.x, first.u, first.v], [moved.x, moved.u, moved.v]]))
        code = main(
            ["speed", "--snapshots", str(tmp_path / "snapshots"), "--level", "0.4",
             "--out", str(tmp_path / "out")]
        )
        assert code == 2
        manifest = tmp_path / "snapshots" / "manifest.json"
        assert capsys.readouterr().err == (
            f"usage error: snapshots are not all on one grid in {manifest} and {array}\n"
        )
        assert not (tmp_path / "out" / "report.json").exists()

    def test_speed_refuses_times_that_do_not_match_the_files(
        self, tmp_path, demo_two_wave, capsys
    ):
        x = np.linspace(-40, 40, 801)
        snaps = lv.Snapshots(
            times=np.array([0.0, 1.0]),
            profiles=(lv.wave_profile(demo_two_wave, x), lv.wave_profile(demo_two_wave, x)),
        )
        snaps.to_dir(tmp_path / "snapshots")
        manifest = tmp_path / "snapshots" / "manifest.json"
        data = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**data, "times": data["times"][:1]}))
        code = main(
            ["speed", "--snapshots", str(tmp_path / "snapshots"), "--level", "0.4",
             "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert "1 times for 2 snapshots" in capsys.readouterr().err

    def test_speed_refuses_an_empty_manifest(self, tmp_path, capsys):
        snapshots = tmp_path / "snapshots"
        snapshots.mkdir()
        np.save(snapshots / "snapshots.npy", np.zeros((0, 3, 5)))
        write_json(snapshots / "manifest.json", {"times": [], "array": "snapshots.npy"})
        code = main(
            ["speed", "--snapshots", str(snapshots), "--level", "0.4",
             "--out", str(tmp_path / "out")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "snapshots need at least one profile" in err
        assert str(snapshots / "manifest.json") in err

    @pytest.mark.parametrize(
        "manifest",
        [
            ["snapshots.npy"],
            {"times": ["0", "1"], "array": 5},
            {"times": None, "array": "snapshots.npy"},
            {"array": "snapshots.npy"},
            {"times": ["0"], "array": ["snapshots.npy"]},
        ],
        ids=["json-array", "numeric-name", "null-times", "no-times", "name-list"],
    )
    def test_speed_refuses_a_manifest_of_the_wrong_shape(
        self, tmp_path, demo_two_wave, capsys, manifest
    ):
        snapshots = tmp_path / "snapshots"
        profile = lv.wave_profile(demo_two_wave, np.linspace(-40, 40, 81))
        lv.Snapshots(times=np.array([0.0]), profiles=(profile,)).to_dir(snapshots)
        (snapshots / "manifest.json").write_text(json.dumps(manifest))
        code = main(
            ["speed", "--snapshots", str(snapshots), "--level", "0.4",
             "--out", str(tmp_path / "out")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == (
            f"usage error: {snapshots / 'manifest.json'} needs an 'array' file name "
            "and a 'times' list\n"
        )

    def test_speed_refuses_a_manifest_that_is_not_json(self, tmp_path, demo_two_wave, capsys):
        snapshots = tmp_path / "snapshots"
        profile = lv.wave_profile(demo_two_wave, np.linspace(-40, 40, 81))
        lv.Snapshots(times=np.array([0.0]), profiles=(profile,)).to_dir(snapshots)
        (snapshots / "manifest.json").write_text("not json")
        code = main(
            ["speed", "--snapshots", str(snapshots), "--level", "0.4",
             "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"usage error: {snapshots / 'manifest.json'} is not valid JSON: "
            "Expecting value: line 1 column 1 (char 0)\n"
        )

    def test_speed_refuses_a_manifest_that_is_not_utf8(self, tmp_path, demo_two_wave, capsys):
        snapshots = tmp_path / "snapshots"
        profile = lv.wave_profile(demo_two_wave, np.linspace(-40, 40, 81))
        lv.Snapshots(times=np.array([0.0]), profiles=(profile,)).to_dir(snapshots)
        (snapshots / "manifest.json").write_bytes(b"\x80")
        code = main(
            ["speed", "--snapshots", str(snapshots), "--level", "0.4",
             "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"usage error: {snapshots / 'manifest.json'}" + NOT_UTF8
        )

    @pytest.mark.parametrize("case", list(BAD_SNAPSHOT_ARRAYS), ids=list(BAD_SNAPSHOT_ARRAYS))
    def test_speed_refuses_a_bad_snapshot_array(self, tmp_path, demo_two_wave, capsys, case):
        profile = lv.wave_profile(demo_two_wave, np.linspace(-40, 40, 81))
        snapshots = tmp_path / "snapshots"
        lv.Snapshots(times=np.array([0.0, 1.0]), profiles=(profile, profile)).to_dir(snapshots)
        damage, reason = BAD_SNAPSHOT_ARRAYS[case]
        array = snapshots / "snapshots.npy"
        damage(array, np.load(array))
        named = snapshots / "manifest.json" if case == "csv-era-manifest" else array
        with pytest.raises(ValueError, match=re.escape(reason)) as info:
            lv.Snapshots.from_dir(snapshots)
        assert str(named) in str(info.value)
        code = main(
            ["speed", "--snapshots", str(snapshots), "--level", "0.4",
             "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert capsys.readouterr().err == f"usage error: {info.value}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("times", [["1", "0"], ["1", "1"], ["0", "nan"]],
                             ids=["swapped", "equal", "nan"])
    def test_speed_refuses_times_that_do_not_increase(
        self, tmp_path, demo_two_wave, capsys, times
    ):
        x = np.linspace(-40, 40, 801)
        ahead = lv.wave_profile(demo_two_wave, x - 6.0)
        profiles = (lv.wave_profile(demo_two_wave, x), lv.WaveProfile(x=x, u=ahead.u, v=ahead.v))
        values = np.array([float(t) for t in times])
        with pytest.raises(ValueError, match="must be finite and strictly increasing"):
            lv.Snapshots(times=values, profiles=profiles)
        lv.Snapshots(times=np.array([0.0, 1.0]), profiles=profiles).to_dir(tmp_path / "snaps")
        manifest = tmp_path / "snaps" / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "times": times}))
        code = main(
            ["speed", "--snapshots", str(tmp_path / "snaps"), "--level", "0.4",
             "--out", str(tmp_path / "out")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"strictly increasing: {values.tolist()} in {manifest}" in err

    def test_manifest_config_written_like_the_report(self, tmp_path, paper_spec):
        cfgd = {k: str(v) for k, v in paper_spec.params.to_dict().items()}
        params = write_json(tmp_path / "p.json", cfgd)
        lv.wave_profile(paper_spec, np.linspace(-20, 20, 201)).to_csv(tmp_path / "init.csv")
        out = tmp_path / "out"
        code = main(
            ["simulate", "--params", params, "--init", str(tmp_path / "init.csv"),
             "--t-end", "2", "--n-snapshots", "3", "--out", str(out)]
        )
        assert code == 0
        manifest = (out / "snapshots" / "manifest.json").read_text()
        written = (out / "report.json").read_text()
        for key in ("t_end", "dt", "scheme", "boundary", "space_order"):
            pattern = f'"{key}": (.*?),?\n'
            assert re.search(pattern, manifest)[1] == re.search(pattern, written)[1], key
        assert re.search('"t_end": (.*?),?\n', manifest)[1] == "2"
        snaps = lv.Snapshots.from_dir(out / "snapshots")
        assert snaps.times.tolist() == [0.0, 1.0, 2.0]

    def test_simulate_with_explicit_dt(self, tmp_path, paper_spec):
        cfgd = {k: str(v) for k, v in paper_spec.params.to_dict().items()}
        params = write_json(tmp_path / "p.json", cfgd)
        lv.wave_profile(paper_spec, np.linspace(-20, 20, 401)).to_csv(tmp_path / "init.csv")
        out = tmp_path / "out"
        code = main(
            ["simulate", "--params", params, "--init", str(tmp_path / "init.csv"),
             "--t-end", "0.01", "--dt", "0.001", "--n-snapshots", "11", "--out", str(out)]
        )
        assert code == 0
        assert report(out)["dt"] == 0.001
        times = lv.Snapshots.from_dir(out / "snapshots").times
        assert times == pytest.approx(np.arange(11) * 0.001, abs=1e-15)

    def test_fisher_failing_candidates_exit_1(self, tmp_path, demo_two_wave):
        lv.wave_profile(demo_two_wave, np.linspace(-40, 40, 801)).to_csv(tmp_path / "bg.csv")
        # K_super = 1 lies below the carrying level sigma3/c33, so it is no supersolution
        cfgd = {
            "d3": 2, "theta": 6, "sigma3": 10, "c31": 0.5, "c32": 0.01, "c33": 1,
            "K_sub": 1, "K_super": 1,
        }
        params = write_json(tmp_path / "p.json", cfgd)
        out = tmp_path / "out"
        code = main(
            ["fisher", "--params", params, "--background", str(tmp_path / "bg.csv"),
             "--out", str(out)]
        )
        assert code == 1
        data = report(out)
        assert data["solved"] is False
        assert data["sub_check"]["pass"] and not data["super_check"]["pass"]
        assert not (out / "w.csv").exists()

    @pytest.mark.parametrize("k_super", ["1e300", "1e200"])
    def test_fisher_amplitude_above_the_blowup_limit_is_usage_error(
        self, tmp_path, demo_two_wave, capsys, k_super
    ):
        # the super audit passed on an overflowed residual, with numpy
        # warnings, and the sweeps ran on NaN until "no convergence"
        lv.wave_profile(demo_two_wave, np.linspace(-40, 40, 801)).to_csv(tmp_path / "bg.csv")
        cfgd = {
            "d3": 2, "theta": 6, "sigma3": 10, "c31": 0.5, "c32": 0.01, "c33": 1,
            "K_sub": 1, "K_super": k_super,
        }
        params = write_json(tmp_path / "p.json", cfgd)
        code = main(
            ["fisher", "--params", params, "--background", str(tmp_path / "bg.csv"),
             "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"usage error: |amplitude| = {float(k_super)} is above the admissible limit "
            "BLOWUP_LIMIT = 1e+12\n"
        )
        assert not (tmp_path / "out").exists()

    def test_fisher_peclet_above_one_exits_1(self, tmp_path, demo_two_wave, capsys):
        lv.wave_profile(demo_two_wave, np.linspace(-40, 40, 401)).to_csv(tmp_path / "bg.csv")
        cfgd = {
            "d3": 0.2, "theta": 6, "sigma3": 10, "c31": 0.5, "c32": 0.01, "c33": 1,
            "K_sub": 0, "K_super": 12,
        }
        params = write_json(tmp_path / "p.json", cfgd)
        code = main(
            ["fisher", "--params", params, "--background", str(tmp_path / "bg.csv"),
             "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert "error: cell Peclet number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "n, flags, message",
        [
            (2, [], "grid needs at least three nodes"),
            (801, ["--relaxation", "nan"], "relaxation must be finite, got nan"),
            (801, ["--relaxation", "inf"], "relaxation must be finite, got inf"),
        ],
        ids=["two-node-background", "relaxation-nan", "relaxation-inf"],
    )
    def test_fisher_bad_input_is_usage_error(
        self, tmp_path, demo_two_wave, capsys, n, flags, message
    ):
        lv.wave_profile(demo_two_wave, np.linspace(-40, 40, n)).to_csv(tmp_path / "bg.csv")
        cfgd = {
            "d3": 2, "theta": 6, "sigma3": 10, "c31": 0.5, "c32": 0.01, "c33": 1,
            "K_sub": 1, "K_super": 12,
        }
        params = write_json(tmp_path / "p.json", cfgd)
        code = main(
            ["fisher", "--params", params, "--background", str(tmp_path / "bg.csv"), *flags,
             "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert message in capsys.readouterr().err


class TestFigureData:
    def test_fig2_case_a_levels(self, tmp_path):
        out = tmp_path / "out"
        assert main(["figure-data", "--which", "fig2", "--case", "a", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["barrier"]["lambda1"] == "17/6"
        assert manifest["barrier"]["lambda2"] == "17/3"
        assert manifest["barrier"]["eta"] == "17/6"

    @pytest.mark.parametrize(
        "which,case,kind,window",
        FIGURE_CASES,
        ids=[f"{which}-{case}" for which, case, _, _ in FIGURE_CASES],
    )
    def test_conic_points(self, tmp_path, which, case, kind, window):
        out = tmp_path / "out"
        assert main(["figure-data", "--which", which, "--case", case, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["conic"]["kind"] == kind
        rows = (out / "conic.csv").read_text().strip().splitlines()[1:]
        assert rows
        p = lv.TwoSpeciesParams.from_dict(manifest["params"])
        alpha = float(parse_number(manifest["alpha"]))
        beta = float(parse_number(manifest["beta"]))
        tol = 1e-12 * max(1.0, abs(alpha) + abs(beta))
        for row in rows:
            u, v = (float(part) for part in row.split(","))
            # each point solves F = 0 along a grid line, so the solved
            # coordinate is interior; the other may sit on the window edge
            assert 0.0 <= u <= window and 0.0 <= v <= window
            assert 0.0 < u < window or 0.0 < v < window
            assert abs(float(lv.F_value(p, alpha, beta, u, v))) <= tol

    def test_bad_case_is_usage_error(self, tmp_path):
        assert main(
            ["figure-data", "--which", "fig1", "--case", "z", "--out", str(tmp_path / "o")]
        ) == 2

    @pytest.mark.parametrize("which", ["fig2", "fig3"])
    def test_bad_barrier_case_is_usage_error(self, tmp_path, capsys, which):
        argv = ["figure-data", "--which", which, "--case", "e", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"usage error: {which} case must be one of ['a', 'b', 'c', 'd']\n"
        )


class TestContract:
    def test_reports_are_byte_deterministic(self, tmp_path):
        params = write_json(tmp_path / "p.json", STRONG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["bounds", "--params", params, "--out", str(out1)]) == 0
        assert main(["bounds", "--params", params, "--out", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_exact_wave_artifacts_deterministic(self, tmp_path):
        params = write_json(tmp_path / "free.json", PAPER_FREE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["exact-wave", "--params", params, "--out", str(out)]) == 0
        assert (out1 / "wave.csv").read_bytes() == (out2 / "wave.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_report_reparses_as_json(self, tmp_path):
        params = write_json(tmp_path / "p.json", STRONG)
        out = tmp_path / "out"
        main(["bounds", "--params", params, "--out", str(out)])
        data = report(out)
        assert isinstance(data, dict)

    def test_python_m_lvwaves_runs_the_cli(self):
        src = Path(lv.__file__).resolve().parents[1]
        run = subprocess.run(
            [sys.executable, "-m", "lvwaves", "--help"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("usage: lvwaves")

    def test_readme_flow_runs_as_separate_processes(self, tmp_path):
        # exact-wave, simulate and speed each in its own interpreter, so every
        # file one command leaves is read back by a fresh process
        src = Path(lv.__file__).resolve().parents[1]

        def lvwaves(*argv):
            run = subprocess.run(
                [sys.executable, "-m", "lvwaves", *argv],
                env={**os.environ, "PYTHONPATH": str(src)},
                capture_output=True,
                text=True,
            )
            assert run.returncode == 0, run.stderr

        lvwaves("exact-wave", "--params", write_json(tmp_path / "free.json", PAPER_FREE),
                "--x-min", "-20", "--x-max", "20", "--n", "401", "--out", str(tmp_path / "w"))
        three = {k: PAPER_FREE[k] for k in ("d1", "d2", "d3", "sigma1", "sigma2", "sigma3")}
        for i, row in enumerate(report(tmp_path / "w")["c_exact"], start=1):
            three.update({f"c{i}{j}": value for j, value in enumerate(row, start=1)})
        lvwaves("simulate", "--params", write_json(tmp_path / "three.json", three),
                "--init", str(tmp_path / "w" / "wave.csv"), "--t-end", "0.5",
                "--n-snapshots", "5", "--boundary", "dirichlet", "--out", str(tmp_path / "run"))
        lvwaves("speed", "--snapshots", str(tmp_path / "run" / "snapshots"), "--component", "u",
                "--level", "0.4", "--out", str(tmp_path / "speed"))
        assert report(tmp_path / "speed")["speed"] == pytest.approx(3.0, rel=0.02)

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["no-such-command"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as err:
            main([command, "--help"])
        assert err.value.code == 0
        assert f"usage: lvwaves {command}" in capsys.readouterr().out

    def test_nonpositive_weight_is_usage_error(self, tmp_path):
        params = write_json(tmp_path / "p.json", STRONG)
        code = main(
            ["bounds", "--params", params, "--alpha", "0", "--out", str(tmp_path / "o")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "data, extra, message",
        [
            (None, [], "this command requires --params FILE"),
            ([1, 2], [], "parameter file must hold a JSON object"),
            (STRONG, ["--set", "sigma1"], "override 'sigma1' is not of the form key=value"),
        ],
    )
    def test_parameter_file_refusals(self, tmp_path, capsys, data, extra, message):
        out = tmp_path / "o"
        argv = ["classify", "--out", str(out), *extra]
        if data is not None:
            argv += ["--params", write_json(tmp_path / "p.json", data)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, data, extra, refused",
        [
            # a number refusal starts with its key, for each kind of refusal
            ("classify", {**STRONG, "c12": "abc"}, [], "c12: cannot parse number 'abc'"),
            ("classify", STRONG, ["--set", "c12=abc"], "c12: cannot parse number 'abc'"),
            ("classify", {**STRONG, "c21": "-inf"}, [],
             "c21: cannot parse number '-inf': not finite"),
            ("classify", {**STRONG, "c22": True}, [], "c22: expected a number, got True"),
            ("classify", {**STRONG, "d1": 0}, [],
             "d1 must be strictly positive and finite, got 0"),
            ("two-wave", {"d1": 0, "d2": 1, "theta": 1, "sigma1": 41, "sigma2": 1, "k1": 1}, [],
             "d1 must be strictly positive and finite, got 0"),
            ("exact-wave", {**PAPER_FREE, "theta": -2}, [], "2*d1 + theta must be nonzero"),
            ("check-existence", {**STRONG, "d3": 1, "sigma3": 1, "c31": -1, "c32": 1, "c33": 1,
                                 "theta": 1, "K_sub": 1, "K_super": 2}, [],
             "c31 must be strictly positive and finite, got -1"),
            ("check-existence", {**STRONG, "d3": 1, "sigma3": 1, "c31": 1, "c32": 1, "c33": 1,
                                 "theta": 1, "K_sub": 1}, [], "missing key 'K_super'"),
            ("check-nonexistence", {**NONEXIST, "c13": -1}, [],
             "c13 must be nonnegative and finite, got -1"),
            ("check-nonexistence", {**NONEXIST, "c12": 0}, [],
             "nonexistence audit needs positive c12, c21, c31, c32"),
            # the parameters are read before the (here missing) profile
            ("simulate", {**STRONG, "sigma2": "1/0"}, ["--init", "none.csv", "--t-end", "1"],
             "sigma2: cannot parse number '1/0'"),
            ("fisher", {"d3": 2, "theta": 6, "sigma3": "x", "c31": 0.5, "c32": 0.01, "c33": 1,
                        "K_sub": 1, "K_super": 12}, ["--background", "none.csv"],
             "sigma3: cannot parse number 'x'"),
            ("fisher", {"d3": 0, "theta": 6, "sigma3": 10, "c31": 0.5, "c32": 0.01, "c33": 1,
                        "K_sub": 1, "K_super": 12}, ["--background", "none.csv"],
             "d3 must be strictly positive and finite, got 0"),
            ("fisher", {"d3": 2, "theta": 6, "sigma3": 10, "c31": 0.5, "c32": 0.01, "c33": 0,
                        "K_sub": 1, "K_super": 12}, ["--background", "none.csv"],
             "c33 must be strictly positive and finite, got 0"),
        ],
        ids=["bad-number", "bad-override", "non-finite", "not-a-number", "classify-d1-0",
             "two-wave-d1-0", "exact-wave-theta",
             "existence-c31", "existence-missing-key", "nonexistence-c13", "nonexistence-c12-0",
             "simulate-zero-denominator", "fisher-sigma3", "fisher-d3-0", "fisher-c33-0"],
    )
    def test_parameter_content_refusals_name_the_file(
        self, tmp_path, capsys, command, data, extra, refused
    ):
        params = write_json(tmp_path / "p.json", data)
        out = tmp_path / "o"
        assert main([command, "--params", params, *extra, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"usage error: {refused} in the parameter file {params}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, extra",
        [("classify", []), ("bounds", []), ("conic", []), ("barrier", ["--side", "lower"])],
    )
    def test_exact_integer_above_the_float_range_is_usage_error(
        self, tmp_path, capsys, command, extra
    ):
        # exact values stay exact, but every report gives them as floats too;
        # float() of this one raised an uncaught OverflowError
        params = write_json(tmp_path / "p.json", {**STRONG, "c22": 10**400})
        out = tmp_path / "o"
        assert main([command, "--params", params, *extra, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "usage error: c22: number of magnitude 1e400 is above the float range "
            f"in the parameter file {params}\n"
        )
        assert not out.exists()

    def test_exact_result_above_the_float_range_is_usage_error(self, tmp_path, capsys):
        # every input is in range, but sigma1/c11 = 10**400 and so is q_upper:
        # float() of it raised an uncaught OverflowError
        params = write_json(tmp_path / "p.json", {**STRONG, "c11": "1/1" + "0" * 400})
        weights = ["--alpha", "1", "--beta", "1"]
        out = tmp_path / "o"
        assert main(["bounds", "--params", params, *weights, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "usage error: q_upper: number of magnitude 1e400 is above the float range\n"
        )
        assert not out.exists()
        for command, extra in [("classify", []), ("conic", weights),
                               ("barrier", [*weights, "--side", "lower"])]:
            assert main([command, "--params", params, *extra, "--out", str(out)]) == 0

    def test_malformed_params_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["bounds", "--params", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"usage error: {bad} is not valid JSON: Expecting property name enclosed in "
            "double quotes: line 1 column 2 (char 1)\n"
        )

    def test_deeply_nested_json_is_usage_error(self, tmp_path, demo_two_wave, capsys):
        # deeper than the decoder recurses: refused as invalid JSON, not a traceback
        deep = "[" * 100_000 + "]" * 100_000
        params = tmp_path / "p.json"
        params.write_text(deep)
        assert main(["classify", "--params", str(params), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {params} is not valid JSON: maximum recursion depth")
        snapshots = tmp_path / "snapshots"
        profile = lv.wave_profile(demo_two_wave, np.linspace(-40, 40, 81))
        lv.Snapshots(times=np.array([0.0]), profiles=(profile,)).to_dir(snapshots)
        (snapshots / "manifest.json").write_text(deep)
        argv = ["speed", "--snapshots", str(snapshots), "--level", "0.4",
                "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        manifest = snapshots / "manifest.json"
        assert err.startswith(f"usage error: {manifest} is not valid JSON: maximum recursion depth")
        assert not (tmp_path / "o").exists()

    def test_params_not_utf8_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "p.json"
        bad.write_bytes(b"\x80\x81")
        assert main(["classify", "--params", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"usage error: {bad}" + NOT_UTF8

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        params = write_json(tmp_path / "p.json", STRONG)
        target = tmp_path / "env-out"
        monkeypatch.setenv("LVWAVES_OUT", str(target))
        assert main(["classify", "--params", params]) == 0
        assert (target / "report.json").exists()

    def test_two_wave_family_and_infeasible(self, tmp_path):
        good = write_json(
            tmp_path / "good.json",
            {"d1": 1, "d2": 1, "theta": "37/2", "sigma1": 41, "sigma2": "1977/4", "k1": 1},
        )
        out = tmp_path / "out"
        assert main(["two-wave", "--params", good, "--out", str(out)]) == 0
        data = report(out)
        assert data["u_star_exact"] == "33/41"
        assert max(data["residuals"].values()) < 1e-10

        bad = write_json(
            tmp_path / "bad.json",
            {"d1": 1, "d2": 1, "theta": 3, "sigma1": 41, "sigma2": 41, "k1": 1},
        )
        assert main(["two-wave", "--params", bad, "--out", str(tmp_path / "o2")]) == 1

    @pytest.mark.parametrize(
        "command,flags,field",
        [
            ("two-wave", ["--x-max", "inf"], "x_max"),
            ("evenness", ["--u", "nan", "--v", "1"], "'nan': not finite"),
            ("fisher", ["--tol", "nan"], "tol"),
        ],
        ids=["two-wave-x_max-inf", "evenness-u-nan", "fisher-tol-nan"],
    )
    def test_non_finite_input_is_usage_error(
        self, tmp_path, demo_two_wave, capsys, command, flags, field
    ):
        if command == "two-wave":
            params = {"d1": 1, "d2": 1, "theta": "37/2", "sigma1": 41, "sigma2": "1977/4",
                      "k1": 1}
            flags = ["--params", write_json(tmp_path / "p.json", params), *flags]
        elif command == "fisher":
            lv.wave_profile(demo_two_wave, np.linspace(-40, 40, 801)).to_csv(tmp_path / "bg.csv")
            params = {
                "d3": 2, "theta": 6, "sigma3": 10, "c31": 0.5, "c32": 0.01, "c33": 1,
                "K_sub": 1, "K_super": 12,
            }
            flags = ["--params", write_json(tmp_path / "p.json", params),
                     "--background", str(tmp_path / "bg.csv"), *flags]
        assert main([command, *flags, "--out", str(tmp_path / "out")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()


class TestSharedParser:
    """``main`` parses every command line of a process with one parser, built
    on its first call."""

    def test_an_override_does_not_reach_the_next_call(self, tmp_path):
        params = write_json(tmp_path / "p.json", STRONG)
        runs = {}
        for name, extra in (("before", []), ("override", ["--set", "c21=1/2"]), ("after", [])):
            out = tmp_path / name
            assert main(["classify", "--params", params, *extra, "--out", str(out)]) == 0
            runs[name] = report(out)["regime"]
        assert runs == {"before": "Strong", "override": "ExclusionVWins", "after": "Strong"}
        assert cli._parser().parse_args(["classify"]).set == []

    def test_a_usage_error_leaves_the_parser_usable(self, tmp_path, capsys):
        params = write_json(tmp_path / "p.json", STRONG)
        good = ["bounds", "--params", params, "--alpha", "2"]
        assert main([*good, "--out", str(tmp_path / "first")]) == 0
        assert main(["bounds", "--params", params, "--alpha", "0",
                     "--out", str(tmp_path / "refused")]) == 2
        with pytest.raises(SystemExit) as err:
            main(["bounds", "--params", params, "--no-such-flag"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            main(["barrier", "--params", params])  # --side is required
        assert err.value.code == 2
        capsys.readouterr()
        assert main([*good, "--out", str(tmp_path / "again")]) == 0
        assert (tmp_path / "again" / "report.json").read_bytes() == (
            tmp_path / "first" / "report.json"
        ).read_bytes()
        assert not (tmp_path / "refused").exists()

    def test_build_parser_returns_a_new_parser_each_call(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()
        assert cli._parser() is not cli.build_parser()


FISHER = {"d3": 2, "theta": 6, "sigma3": 10, "c31": 0.5, "c32": 0.01, "c33": 1,
          "K_sub": 1, "K_super": 12}
EXISTENCE = {**STRONG, "d3": 1, "sigma3": 1, "c31": 1, "c32": 1, "c33": 1,
             "theta": 1, "K_sub": 1, "K_super": 2}


def _tiny_grid_csv(path: Path, h: float) -> str:
    """Four nodes ``h`` apart, both densities 0.5."""
    half = np.full(4, 0.5)
    WaveProfile(h * np.arange(4.0), half, half).to_csv(path)
    return str(path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNumericsLimits:
    """Inputs that overflow a numerics limit end in a refusal that names the
    cause: no traceback, no numpy warning and no --out."""

    def refused(self, tmp_path, capsys, argv) -> tuple[int, str]:
        out = tmp_path / "out"
        code = main([*argv, "--out", str(out)])
        assert not out.exists()
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("case", ["grid-step-1e-154", "d1-1e308"])
    def test_a_time_step_of_zero_is_refused(self, tmp_path, capsys, case):
        # 16/3 d / h**2 overflows, so the auto step is 0.0
        if case == "grid-step-1e-154":
            init, data = _tiny_grid_csv(tmp_path / "init.csv", 1e-154), STRONG
        else:
            x = np.linspace(-20.0, 20.0, 401)
            WaveProfile(x, (1 - np.tanh(x)) / 2, (1 + np.tanh(x)) / 2).to_csv(tmp_path / "i.csv")
            init, data = str(tmp_path / "i.csv"), {**STRONG, "d1": "1e308"}
        params = write_json(tmp_path / "p.json", data)
        argv = ["simulate", "--params", params, "--init", init, "--t-end", "0.01"]
        assert self.refused(tmp_path, capsys, argv) == (
            2, "usage error: t_end=0.01 and dt=0.0 give too many steps to count\n"
        )

    @pytest.mark.parametrize("key", ["d1", "sigma3"])
    def test_a_step_near_1e_300_is_refused_before_stepping(
        self, tmp_path, capsys, paper_spec, key
    ):
        # d1 = 1e300 ran for longer than 10 s; sigma3 = 1e300 overflowed in
        # the RK4 passes and stopped at t = 2e-299
        data = {k: str(v) for k, v in paper_spec.params.to_dict().items()}
        params = write_json(tmp_path / "p.json", {**data, key: "1e300"})
        lv.wave_profile(paper_spec, np.linspace(-20, 20, 401)).to_csv(tmp_path / "wave.csv")
        argv = ["simulate", "--params", params, "--init", str(tmp_path / "wave.csv"),
                "--t-end", "0.01", "--boundary", "dirichlet"]
        code, err = self.refused(tmp_path, capsys, argv)
        found = re.fullmatch(
            r"usage error: t_end=0\.01 and dt=(\S+) give too many steps to count\n", err
        )
        assert code == 2 and found, err
        assert 0 < float(found[1]) < 1e-290

    def test_a_background_step_without_a_finite_inverse_square_is_refused(
        self, tmp_path, capsys
    ):
        background = _tiny_grid_csv(tmp_path / "bg.csv", 1e-300)
        params = write_json(tmp_path / "p.json", {**FISHER, "theta": 0})
        argv = ["fisher", "--params", params, "--background", background]
        assert self.refused(tmp_path, capsys, argv) == (
            2, "usage error: grid step h=1e-300 has no finite 1/h**2 (h**2 = 0.0)\n"
        )

    def test_an_overflowing_diffusion_term_is_a_domain_error(self, tmp_path, capsys):
        # d3 / h**2 = inf ended in "iterate fell below w_sub at sweep 1"
        background = _tiny_grid_csv(tmp_path / "bg.csv", 1e-154)
        params = write_json(tmp_path / "p.json", {**FISHER, "theta": 0})
        argv = ["fisher", "--params", params, "--background", background]
        assert self.refused(tmp_path, capsys, argv) == (
            1, "error: d3 / h**2 overflows for h=1e-154, d3=2.0: the iteration needs it "
               "finite\n"
        )

    def test_an_overflowing_candidate_residual_is_refused(
        self, tmp_path, capsys, demo_two_wave
    ):
        lv.wave_profile(demo_two_wave, np.linspace(-40, 40, 801)).to_csv(tmp_path / "bg.csv")
        params = write_json(tmp_path / "p.json", {**FISHER, "sigma3": "1e308"})
        argv = ["fisher", "--params", params, "--background", str(tmp_path / "bg.csv")]
        assert self.refused(tmp_path, capsys, argv) == (
            2, "usage error: supersolution residual of the constant candidate is not finite: "
               "the audit overflows on these coefficients\n"
        )

    def test_a_report_that_does_not_render_creates_no_out(
        self, tmp_path, capsys, demo_two_wave
    ):
        block = {k: str(v) for k, v in demo_two_wave.params.to_dict().items()}
        data = {**block, "d3": 1, "sigma3": 1, "c31": 1, "c32": "1/10",
                "theta": str(demo_two_wave.theta), "c33": "1e200", "K_sub": "1e200",
                "K_super": "1e200"}
        params = write_json(tmp_path / "p.json", data)
        assert self.refused(tmp_path, capsys, ["check-existence", "--params", params]) == (
            2, "usage error: non-finite value in report: inf\n"
        )

    @pytest.mark.parametrize(
        "command, data, audit",
        [
            ("check-existence", {**EXISTENCE, "c33": 10**200, "K_sub": 10**200,
                                 "K_super": 10**200}, "existence"),
            ("check-nonexistence", {**NONEXIST, "sigma3": "1/10", "sigma1": 10**300,
                                    "c13": 10**300, "c33": 10**300}, "nonexistence"),
        ],
        ids=["existence", "nonexistence"],
    )
    def test_an_exact_audit_above_the_float_range_is_refused(
        self, tmp_path, capsys, command, data, audit
    ):
        params = write_json(tmp_path / "p.json", data)
        assert self.refused(tmp_path, capsys, [command, "--params", params]) == (
            2, f"usage error: the {audit} audit has a value above the float range "
               f"in the parameter file {params}\n"
        )


#: the README's three_species.json: the worked example's induced coefficients
README_THREE_SPECIES = {
    k: str(v) for k, v in lv.induce_coefficients(lv.FreeParams(
        *map(Fraction, (1, 1, 1, 1, 1, 3, 41, 41, 41)))).params.to_dict().items()
}

#: what a parameter file can hold: small rationals, JSON integers up to 10**300,
#: decimal strings up to 1e+-300, zero, and negatives of each
_FILE_VALUES = st.one_of(
    st.fractions(-10, 10, max_denominator=10).map(str),
    st.builds(lambda sign, digits: sign * 10**digits, st.sampled_from((1, -1)),
              st.integers(0, 300)),
    st.builds("{}e{}".format, st.sampled_from(("1", "-1", "2.5", "-7")),
              st.integers(-300, 300)),
    st.just(0),
)


@st.composite
def _audited_runs(draw, background: str) -> list[str]:
    """The command, the JSON text of its README parameter file with one to four
    values redrawn, and its other flags: ``check-existence``,
    ``check-nonexistence`` or ``fisher``."""
    command, base, extra = draw(st.sampled_from([
        ("check-existence", EXISTENCE, []),
        ("check-nonexistence", README_THREE_SPECIES, []),
        ("fisher", FISHER, ["--background", background]),
    ]))
    changes = draw(st.dictionaries(st.sampled_from(sorted(base)), _FILE_VALUES,
                                   min_size=1, max_size=4))
    return [command, json.dumps({**base, **changes}), *extra]


@pytest.fixture(scope="module")
def readme_background(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("contract") / "background.csv"
    demo = lv.two_species_wave_family(Fraction(2), Fraction(1), Fraction(20), Fraction(1))
    lv.wave_profile(demo, np.linspace(-40, 40, 801)).to_csv(path)
    return str(path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_audited_commands_end_in_a_result_a_failed_check_or_a_named_refusal(
    readme_background,
):
    """Every run exits 0; or 1 with ``error: ...`` and no report, or with a
    failed check and its report; or 2 with ``usage error: ...`` and no --out.
    An uncaught exception or a numpy warning fails the test."""

    @settings(derandomize=True, max_examples=200, database=None)
    @given(_audited_runs(readme_background))
    def run(argv):
        command, data, *extra = argv
        with tempfile.TemporaryDirectory() as folder:
            params, out = Path(folder) / "p.json", Path(folder) / "out"
            params.write_text(data)
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main([command, "--params", str(params), *extra, "--out", str(out)])
            err, written = stderr.getvalue(), (out / "report.json").exists()
            if code == 2:
                assert err.startswith("usage error: ") and not out.exists(), err
            elif err:
                assert code == 1 and err.startswith("error: ") and not written, err
            else:
                assert code in (0, 1) and written

    run()
