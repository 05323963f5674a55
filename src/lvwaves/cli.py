"""Command-line surface.

Every subcommand reads a JSON parameter file (field names match the type
definitions; rational strings like "41/5" are accepted), applies any
``--set key=value`` overrides, and writes a deterministic ``report.json``
plus CSV artifacts into the output directory.  Exit codes: 0 on success or a
passing check, 1 on a failed check or domain error, 2 on usage or parse
errors.  The environment variable ``LVWAVES_OUT`` provides the default
output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import exactwaves, figures, numerics
from .errors import LVError
from .hypotheses import ExistenceInputs, existence_report, nonexistence_report
from .model import (
    ThreeSpeciesParams,
    TwoSpeciesParams,
    classify_regime,
    evenness_index,
)
from .nbarrier import BoundSide, bounds, conic_classify, construct_barrier, verify_bounds_on_profile
from .profiles import WaveProfile, uniform_grid
from .rational import Number, is_exact, parse_number
from .report import write_json


@dataclass
class RunConfig:
    command: str
    params_file: str | None
    out_dir: Path
    overrides: list[str] = field(default_factory=list)
    options: dict = field(default_factory=dict)


def _num_entry(name: str, value: Number) -> dict:
    out = {name: float(value)}
    if is_exact(value):
        out[name + "_exact"] = str(value)
    return out


def _load_params(cfg: RunConfig) -> dict:
    if not cfg.params_file:
        raise ValueError("this command requires --params FILE")
    data = json.loads(Path(cfg.params_file).read_text())
    if not isinstance(data, dict):
        raise ValueError("parameter file must hold a JSON object")
    for entry in cfg.overrides:
        if "=" not in entry:
            raise ValueError(f"override {entry!r} is not of the form key=value")
        key, value = entry.split("=", 1)
        key = key.strip()
        if key.startswith("c.") and key.count(".") == 2:
            _, i, j = key.split(".")
            key = f"c{i}{j}"
        data[key] = value.strip()
    return data


def _write_report(cfg: RunConfig, payload: dict) -> Path:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / "report.json"
    write_json(path, {"command": cfg.command, **payload})
    return path


def _cmd_classify(cfg: RunConfig) -> int:
    p = TwoSpeciesParams.from_dict(_load_params(cfg))
    regime = classify_regime(p)
    _write_report(cfg, {"regime": regime.value})
    return 0


def _weights(cfg: RunConfig) -> tuple[Number, Number]:
    alpha = parse_number(cfg.options["alpha"])
    beta = parse_number(cfg.options["beta"])
    return alpha, beta


def _cmd_bounds(cfg: RunConfig) -> int:
    p = TwoSpeciesParams.from_dict(_load_params(cfg))
    alpha, beta = _weights(cfg)
    pair = bounds(p, alpha, beta)
    payload = {**_num_entry("q_lower", pair.q_lower), **_num_entry("q_upper", pair.q_upper)}
    payload.update(_num_entry("alpha", alpha))
    payload.update(_num_entry("beta", beta))
    _write_report(cfg, payload)
    return 0


def _cmd_barrier(cfg: RunConfig) -> int:
    p = TwoSpeciesParams.from_dict(_load_params(cfg))
    alpha, beta = _weights(cfg)
    side = BoundSide.LOWER if cfg.options["side"] == "lower" else BoundSide.UPPER
    lines = construct_barrier(p, alpha, beta, side)
    payload = {
        "side": lines.side.value,
        "case_id": lines.case_id,
        **_num_entry("lambda1", lines.lambda1),
        **_num_entry("lambda2", lines.lambda2),
        **_num_entry("eta", lines.eta),
    }
    _write_report(cfg, payload)
    return 0


def _cmd_conic(cfg: RunConfig) -> int:
    p = TwoSpeciesParams.from_dict(_load_params(cfg))
    alpha, beta = _weights(cfg)
    conic = conic_classify(p, alpha, beta)
    _write_report(
        cfg, {"kind": conic.kind.value, **_num_entry("discriminant", conic.discriminant)}
    )
    return 0


def _cmd_exact_wave(cfg: RunConfig) -> int:
    free = exactwaves.FreeParams.from_dict(_load_params(cfg))
    spec = exactwaves.induce_coefficients(free)
    p = spec.params
    matrix = p.competition_matrix()
    x = uniform_grid(cfg.options["x_min"], cfg.options["x_max"], cfg.options["n"])
    profile = exactwaves.wave_profile(spec, x)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    profile.to_csv(cfg.out_dir / "wave.csv")
    res_grid = uniform_grid(-10.0, 10.0, 2001)
    r1, r2, r3 = exactwaves.residual(spec, res_grid)
    payload = {
        "c": [[float(v) for v in row] for row in matrix],
        **_num_entry("u_star", spec.u_star),
        **_num_entry("v_star", spec.v_star),
        "residuals": {"eq1": r1, "eq2": r2, "eq3": r3},
        "wave_csv": "wave.csv",
    }
    if free.is_exact():
        payload["c_exact"] = [[str(v) for v in row] for row in matrix]
    _write_report(cfg, payload)
    return 0


def _cmd_two_wave(cfg: RunConfig) -> int:
    data = _load_params(cfg)
    args = {k: parse_number(data[k]) for k in ("d1", "d2", "theta", "sigma1", "sigma2", "k1")}
    wave = exactwaves.two_species_exact_wave(**args)
    x = uniform_grid(cfg.options["x_min"], cfg.options["x_max"], cfg.options["n"])
    profile = wave.profile(x)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    profile.to_csv(cfg.out_dir / "wave.csv")
    r1, r2 = wave.residual(uniform_grid(-10.0, 10.0, 2001))
    payload = {
        "params": {k: float(v) for k, v in wave.params.to_dict().items()},
        **_num_entry("theta", wave.theta),
        **_num_entry("u_star", wave.u_star),
        **_num_entry("v_star", wave.v_star),
        "residuals": {"eq1": r1, "eq2": r2},
        "wave_csv": "wave.csv",
    }
    if all(is_exact(v) for v in args.values()):
        payload["params_exact"] = {k: str(v) for k, v in wave.params.to_dict().items()}
    _write_report(cfg, payload)
    return 0


def _sim_params(data: dict):
    if "c33" in data or "d3" in data:
        return ThreeSpeciesParams.from_dict(data)
    return TwoSpeciesParams.from_dict(data)


def _cmd_simulate(cfg: RunConfig) -> int:
    p = _sim_params(_load_params(cfg))
    init = WaveProfile.from_csv(cfg.options["init"])
    boundary = (
        numerics.BoundaryKind.DIRICHLET_FROM_PROFILE
        if cfg.options["boundary"] == "dirichlet"
        else numerics.BoundaryKind.NEUMANN_ZERO
    )
    grid = numerics.GridSpec(
        x_min=float(init.x[0]), x_max=float(init.x[-1]), n=init.x.size, boundary=boundary
    )
    dt = cfg.options["dt"]
    sim = numerics.SimConfig(
        grid=grid,
        t_end=cfg.options["t_end"],
        dt="auto" if dt == "auto" else float(dt),
        scheme=(
            numerics.Scheme.EXPLICIT_EULER
            if cfg.options["scheme"] == "euler"
            else numerics.Scheme.RK4MOL
        ),
        n_snapshots=cfg.options["n_snapshots"],
        space_order=cfg.options["space_order"],
    )
    snaps = numerics.simulate_pde(p, init, sim)
    run_config = {
        "t_end": float(sim.t_end),
        "dt": sim.dt if isinstance(sim.dt, str) else float(sim.dt),
        "scheme": sim.scheme.value,
        "boundary": boundary.value,
        "space_order": sim.space_order,
    }
    snap_dir = cfg.out_dir / "snapshots"
    snaps.to_dir(snap_dir, config=run_config)
    _write_report(
        cfg,
        {"snapshots_dir": "snapshots", "n_snapshots": len(snaps.profiles), **run_config},
    )
    return 0


def _cmd_speed(cfg: RunConfig) -> int:
    snaps = numerics.Snapshots.from_dir(cfg.options["snapshots"])
    est = numerics.estimate_front_speed(
        snaps, cfg.options["component"], cfg.options["level"]
    )
    _write_report(
        cfg,
        {
            "speed": est.speed,
            "intercept": est.intercept,
            "fit_residual": est.fit_residual,
            "positions": [float(v) for v in est.positions],
            "times": [float(t) for t in est.times],
        },
    )
    return 0


def _cmd_fisher(cfg: RunConfig) -> int:
    data = _load_params(cfg)
    background = WaveProfile.from_csv(cfg.options["background"])
    ctx = numerics.FisherContext(
        d3=parse_number(data["d3"]),
        theta=parse_number(data["theta"]),
        sigma3=parse_number(data["sigma3"]),
        c31=parse_number(data["c31"]),
        c32=parse_number(data["c32"]),
        c33=parse_number(data["c33"]),
        background=background,
    )
    w_sub = numerics.tanh_pulse_candidate(float(parse_number(data["K_sub"])))
    w_super = numerics.constant_candidate(float(parse_number(data["K_super"])))
    sub_rep = numerics.check_sub_super(ctx, w_sub, numerics.Side.SUB, tol=1e-12)
    super_rep = numerics.check_sub_super(ctx, w_super, numerics.Side.SUPER, tol=1e-12)
    payload = {
        "sub_check": sub_rep.to_json_dict(),
        "super_check": super_rep.to_json_dict(),
    }
    if not (sub_rep.passed and super_rep.passed):
        payload["solved"] = False
        _write_report(cfg, payload)
        return 1
    relaxation = cfg.options.get("relaxation")
    solution = numerics.solve_fisher_bvp(
        ctx,
        w_sub,
        w_super,
        tol=cfg.options["tol"],
        max_iter=cfg.options["max_iter"],
        relaxation=None if relaxation is None else float(relaxation),
    )
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    solution.profile.to_csv(cfg.out_dir / "w.csv")
    payload.update(
        {
            "solved": True,
            "iterations": solution.iterations,
            "residual": solution.residual,
            "w_left": float(solution.profile.w[0]),
            "w_right": float(solution.profile.w[-1]),
            "w_max": float(np.max(solution.profile.w)),
            "w_csv": "w.csv",
        }
    )
    _write_report(cfg, payload)
    return 0


def _cmd_check_existence(cfg: RunConfig) -> int:
    inputs = ExistenceInputs.from_dict(_load_params(cfg))
    report = existence_report(inputs)
    _write_report(cfg, report.to_json_dict())
    return 0 if report.passed else 1


def _cmd_check_nonexistence(cfg: RunConfig) -> int:
    p = ThreeSpeciesParams.from_dict(_load_params(cfg))
    report = nonexistence_report(p)
    _write_report(cfg, report.to_json_dict())
    return 0 if report.passed else 1


def _cmd_verify_profile(cfg: RunConfig) -> int:
    p = TwoSpeciesParams.from_dict(_load_params(cfg))
    alpha, beta = _weights(cfg)
    profile = WaveProfile.from_csv(cfg.options["profile"])
    pair = bounds(p, alpha, beta)
    report = verify_bounds_on_profile(profile, alpha, beta, pair)
    payload = report.to_json_dict()
    payload.update(_num_entry("q_lower", pair.q_lower))
    payload.update(_num_entry("q_upper", pair.q_upper))
    _write_report(cfg, payload)
    return 0 if report.passed else 1


def _cmd_evenness(cfg: RunConfig) -> int:
    u = parse_number(cfg.options["u"])
    v = parse_number(cfg.options["v"])
    value = evenness_index(u, v)
    _write_report(cfg, {"J": value, **_num_entry("u", u), **_num_entry("v", v)})
    return 0


def _cmd_figure_data(cfg: RunConfig) -> int:
    manifest = figures.emit_figure_data(
        cfg.options["which"], cfg.options["case"], cfg.out_dir
    )
    _write_report(cfg, {"manifest": manifest})
    return 0


_HANDLERS = {
    "classify": _cmd_classify,
    "bounds": _cmd_bounds,
    "barrier": _cmd_barrier,
    "conic": _cmd_conic,
    "exact-wave": _cmd_exact_wave,
    "two-wave": _cmd_two_wave,
    "simulate": _cmd_simulate,
    "speed": _cmd_speed,
    "fisher": _cmd_fisher,
    "check-existence": _cmd_check_existence,
    "check-nonexistence": _cmd_check_nonexistence,
    "verify-profile": _cmd_verify_profile,
    "evenness": _cmd_evenness,
    "figure-data": _cmd_figure_data,
}


def _add_common(sub: argparse.ArgumentParser, params: bool = True) -> None:
    if params:
        sub.add_argument("--params", help="JSON parameter file")
        sub.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a parameter (dotted c.1.2 addresses the matrix)",
        )
    sub.add_argument("--out", help="output directory (default $LVWAVES_OUT or ./lvwaves-out)")


def _add_weights(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", default="1", help="weight on u (rational or float)")
    sub.add_argument("--beta", default="1", help="weight on v (rational or float)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lvwaves",
        description="Bounds, exact tanh waves, and numerical stress tests for "
        "competitive reaction-diffusion traveling waves.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name in ("classify",):
        sub = subs.add_parser(name, help="classify the competition regime")
        _add_common(sub)

    sub = subs.add_parser("bounds", help="two-sided bound on alpha*u + beta*v")
    _add_common(sub)
    _add_weights(sub)

    sub = subs.add_parser("barrier", help="explicit barrier-line levels (strong competition)")
    _add_common(sub)
    _add_weights(sub)
    sub.add_argument("--side", choices=("lower", "upper"), required=True)

    sub = subs.add_parser("conic", help="classify the weighted kinetics curve F=0")
    _add_common(sub)
    _add_weights(sub)

    sub = subs.add_parser("exact-wave", help="three-species tanh wave from free parameters")
    _add_common(sub)
    sub.add_argument("--x-min", dest="x_min", type=float, default=-20.0)
    sub.add_argument("--x-max", dest="x_max", type=float, default=20.0)
    sub.add_argument("--n", type=int, default=1601)

    sub = subs.add_parser("two-wave", help="two-species tanh wave")
    _add_common(sub)
    sub.add_argument("--x-min", dest="x_min", type=float, default=-20.0)
    sub.add_argument("--x-max", dest="x_max", type=float, default=20.0)
    sub.add_argument("--n", type=int, default=1601)

    sub = subs.add_parser("simulate", help="method-of-lines reaction-diffusion run")
    _add_common(sub)
    sub.add_argument("--init", required=True, help="initial profile CSV")
    sub.add_argument("--t-end", dest="t_end", type=float, required=True)
    sub.add_argument("--dt", default="auto")
    sub.add_argument("--scheme", choices=("euler", "rk4"), default="rk4")
    sub.add_argument("--boundary", choices=("neumann", "dirichlet"), default="neumann")
    sub.add_argument("--n-snapshots", dest="n_snapshots", type=int, default=11)
    sub.add_argument("--space-order", dest="space_order", type=int, choices=(2, 4), default=4)

    sub = subs.add_parser("speed", help="front speed from simulation snapshots")
    _add_common(sub, params=False)
    sub.add_argument("--snapshots", required=True, help="snapshot directory")
    sub.add_argument("--component", choices=("u", "v", "w"), default="u")
    sub.add_argument("--level", type=float, required=True)

    sub = subs.add_parser("fisher", help="monotone iteration for the invader equation")
    _add_common(sub)
    sub.add_argument("--background", required=True, help="background (u, v) profile CSV")
    sub.add_argument("--tol", type=float, default=1e-8)
    sub.add_argument("--max-iter", dest="max_iter", type=int, default=200)
    sub.add_argument("--relaxation", type=float, default=None)

    sub = subs.add_parser("check-existence", help="audit the existence hypotheses H1-H4")
    _add_common(sub)

    sub = subs.add_parser("check-nonexistence", help="audit the nonexistence hypotheses A1-A3")
    _add_common(sub)

    sub = subs.add_parser("verify-profile", help="audit bounds on a sampled profile")
    _add_common(sub)
    _add_weights(sub)
    sub.add_argument("--profile", required=True, help="profile CSV to audit")

    sub = subs.add_parser("evenness", help="species evenness index of two densities")
    _add_common(sub, params=False)
    sub.add_argument("--u", required=True)
    sub.add_argument("--v", required=True)

    sub = subs.add_parser("figure-data", help="emit point sets for the illustration cases")
    _add_common(sub, params=False)
    sub.add_argument("--which", choices=("fig1", "fig2", "fig3"), required=True)
    sub.add_argument("--case", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    options = vars(args)
    out_dir = Path(
        options.get("out") or os.environ.get("LVWAVES_OUT") or "lvwaves-out"
    )
    cfg = RunConfig(
        command=args.command,
        params_file=options.get("params"),
        out_dir=out_dir,
        overrides=options.get("set") or [],
        options=options,
    )
    try:
        return _HANDLERS[args.command](cfg)
    except LVError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
