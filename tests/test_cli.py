import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import lvwaves as lv
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


def write_json(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def report(out_dir: Path) -> dict:
    return json.loads((out_dir / "report.json").read_text())


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
            (["--t-end", "0.5", "--n-snapshots", "0"], "n_snapshots"),
            (["--t-end", "0.5", "--n-snapshots", "-3"], "n_snapshots"),
        ],
        ids=["t_end-inf", "t_end-nan", "dt-nan", "n_snapshots-0", "n_snapshots-negative"],
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
        demo_two_wave.profile(x).to_csv(tmp_path / "bg.csv")
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
        demo_two_wave.profile(np.linspace(-40, 40, 801)).to_csv(tmp_path / "bg.csv")
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

    def test_speed_of_missing_component_is_usage_error(self, tmp_path, demo_two_wave):
        x = np.linspace(-40, 40, 801)
        snaps = lv.Snapshots(
            times=np.array([0.0, 1.0]),
            profiles=(demo_two_wave.profile(x), demo_two_wave.profile(x - 6.0)),
        )
        with pytest.raises(ValueError, match="'w'"):
            lv.estimate_front_speed(snaps, "w", 0.4)
        snaps.to_dir(tmp_path / "snapshots")
        code = main(
            ["speed", "--snapshots", str(tmp_path / "snapshots"), "--component", "w",
             "--level", "0.4", "--out", str(tmp_path / "out")]
        )
        assert code == 2

    @pytest.mark.parametrize("x2", [np.linspace(-34, 46, 801), np.linspace(-40, 40, 401)],
                             ids=["shifted", "coarser"])
    def test_speed_refuses_snapshot_off_the_first_grid(
        self, tmp_path, demo_two_wave, capsys, x2
    ):
        # a standing front whose second file is resampled on another grid
        x = np.linspace(-40, 40, 801)
        snaps = lv.Snapshots(
            times=np.array([0.0, 1.0]),
            profiles=(demo_two_wave.profile(x), demo_two_wave.profile(x)),
        )
        snaps.to_dir(tmp_path / "snapshots")
        demo_two_wave.profile(x2).to_csv(tmp_path / "snapshots" / "snapshot_0001.csv")
        code = main(
            ["speed", "--snapshots", str(tmp_path / "snapshots"), "--level", "0.4",
             "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert "snapshot_0001.csv is not on the grid of" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_speed_refuses_times_that_do_not_match_the_files(
        self, tmp_path, demo_two_wave, capsys
    ):
        x = np.linspace(-40, 40, 801)
        snaps = lv.Snapshots(
            times=np.array([0.0, 1.0]),
            profiles=(demo_two_wave.profile(x), demo_two_wave.profile(x)),
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
        demo_two_wave.profile(np.linspace(-40, 40, 801)).to_csv(tmp_path / "bg.csv")
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
        demo_two_wave.profile(np.linspace(-40, 40, n)).to_csv(tmp_path / "bg.csv")
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

    def test_malformed_params_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["bounds", "--params", str(bad), "--out", str(tmp_path / "o")]) == 2

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
            demo_two_wave.profile(np.linspace(-40, 40, 801)).to_csv(tmp_path / "bg.csv")
            params = {
                "d3": 2, "theta": 6, "sigma3": 10, "c31": 0.5, "c32": 0.01, "c33": 1,
                "K_sub": 1, "K_super": 12,
            }
            flags = ["--params", write_json(tmp_path / "p.json", params),
                     "--background", str(tmp_path / "bg.csv"), *flags]
        assert main([command, *flags, "--out", str(tmp_path / "out")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()
