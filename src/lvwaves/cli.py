"""Command-line surface.

Each subcommand is one declaration in :func:`build_parser`: its arguments,
the parser of its JSON parameter file if it takes one, and a handler that
takes the arguments and the file's record (None without a file) and returns
the report payload and whether the command's check passed.  A parameter
file's field names match the type definitions, rational strings like "41/5"
are accepted, and ``--set key=value`` overrides a key the file holds.
:func:`main` applies three policies to every command:

* the parameter file is read, and any refusal of it names the file, before
  the handler reads a profile or snapshot directory the command names;
* ``report.json`` is written into the output directory for every completed
  command, failed checks included, and never on a refusal or domain error;
* the exit code is 0 on success or a passing check, 1 on a failed check or
  domain error, 2 on a usage or parse error.

:func:`main` builds its parser once per process, on its first call, and
parses every later command line with the same parser: parsing leaves a
parser unchanged, so in-process callers (scripts, notebooks, the tests) pay
for the subcommand declarations once.  :func:`build_parser` returns a new
parser on each call.

The environment variable ``LVWAVES_OUT`` provides the default output directory.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import exactwaves, figures, numerics
from .errors import LVError
from .hypotheses import _INVADER_FIELDS, ExistenceInputs, existence_report, nonexistence_report
from .model import (
    ThreeSpeciesParams,
    TwoSpeciesParams,
    classify_regime,
    evenness_index,
)
from .nbarrier import BoundSide, bounds, conic_classify, construct_barrier, verify_bounds_on_profile
from .profiles import WaveProfile, uniform_grid
from .rational import Number, _in_float_range, all_exact, parse_fields, parse_number
from .report import CheckReport, read_json, write_json


def _exact(**values: Number) -> dict:
    """Each value as a float under its name, plus ``<name>_exact`` when it is
    exact; an exact value above the float range is refused by name (in-range
    inputs can give one: sigma1/c11 with c11 = 1/10**400)."""
    out = {}
    for name, value in values.items():
        if all_exact(value):
            try:
                out[name] = float(_in_float_range(value))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
            out[name + "_exact"] = str(value)
        else:
            out[name] = float(value)
    return out


def _load_params(args: argparse.Namespace, parse):
    """``parse`` of the --params file's JSON object after the --set overrides; a
    ``ValueError`` from ``parse`` (missing key, bad number, refused value) names the file."""
    if not args.params:
        raise ValueError("this command requires --params FILE")
    data = read_json(args.params)
    if not isinstance(data, dict):
        raise ValueError("parameter file must hold a JSON object")
    for entry in args.set:
        if "=" not in entry:
            raise ValueError(f"override {entry!r} is not of the form key=value")
        key, value = entry.split("=", 1)
        key = key.strip()
        if key.startswith("c.") and key.count(".") == 2:
            _, i, j = key.split(".")
            key = f"c{i}{j}"
        if key not in data:
            raise ValueError(f"override key {key!r} is not in the parameter file {args.params}")
        data[key] = value.strip()
    try:
        return parse(data)
    except ValueError as exc:
        raise ValueError(f"{exc} in the parameter file {args.params}") from None


def _weights(args: argparse.Namespace) -> tuple[Number, Number]:
    return parse_number(args.alpha), parse_number(args.beta)


def _float_or_text(text: str) -> float | str:
    """``text`` as a float when it is one, else as it is: ``SimConfig`` judges --dt."""
    try:
        return float(text)
    except ValueError:
        return text


def _write_wave(args: argparse.Namespace, wave: exactwaves.ExactWaveSpec) -> dict:
    """Write ``wave`` sampled on the --x-min/--x-max/--n grid to wave.csv;
    return the report entries for it and the max residual of each equation
    on [-10, 10]."""
    sampled = exactwaves.wave_profile(wave, uniform_grid(args.x_min, args.x_max, args.n))
    args.out.mkdir(parents=True, exist_ok=True)
    sampled.to_csv(args.out / "wave.csv")
    values = exactwaves.residual(wave, uniform_grid(-10.0, 10.0, 2001))
    return {
        "residuals": {f"eq{i}": r for i, r in enumerate(values, start=1)},
        "wave_csv": "wave.csv",
    }


def _cmd_classify(args: argparse.Namespace, p: TwoSpeciesParams) -> tuple[dict, bool]:
    return {"regime": classify_regime(p).value}, True


def _cmd_bounds(args: argparse.Namespace, p: TwoSpeciesParams) -> tuple[dict, bool]:
    alpha, beta = _weights(args)
    pair = bounds(p, alpha, beta)
    return _exact(q_lower=pair.q_lower, q_upper=pair.q_upper, alpha=alpha, beta=beta), True


def _cmd_barrier(args: argparse.Namespace, p: TwoSpeciesParams) -> tuple[dict, bool]:
    alpha, beta = _weights(args)
    side = BoundSide.LOWER if args.side == "lower" else BoundSide.UPPER
    lines = construct_barrier(p, alpha, beta, side)
    return {
        "side": lines.side.value,
        "case_id": lines.case_id,
        **_exact(lambda1=lines.lambda1, lambda2=lines.lambda2, eta=lines.eta),
    }, True


def _cmd_conic(args: argparse.Namespace, p: TwoSpeciesParams) -> tuple[dict, bool]:
    conic = conic_classify(p, *_weights(args))
    return {"kind": conic.kind.value, **_exact(discriminant=conic.discriminant)}, True


def _cmd_exact_wave(args: argparse.Namespace, free: exactwaves.FreeParams) -> tuple[dict, bool]:
    spec = exactwaves.induce_coefficients(free)
    matrix = spec.params.competition_matrix()
    payload = {
        "c": [[float(v) for v in row] for row in matrix],
        **_exact(u_star=spec.u_star, v_star=spec.v_star),
        **_write_wave(args, spec),
    }
    if all_exact(*vars(free).values()):
        payload["c_exact"] = [[str(v) for v in row] for row in matrix]
    return payload, True


def _two_wave(data: dict) -> tuple[dict, exactwaves.ExactWaveSpec]:
    free = parse_fields(data, ("d1", "d2", "theta", "sigma1", "sigma2", "k1"))
    return free, exactwaves.two_species_exact_wave(**free)


def _cmd_two_wave(args: argparse.Namespace, params: tuple) -> tuple[dict, bool]:
    free, wave = params
    payload = {
        "params": {k: float(v) for k, v in wave.params.to_dict().items()},
        **_exact(theta=wave.theta, u_star=wave.u_star, v_star=wave.v_star),
        **_write_wave(args, wave),
    }
    if all_exact(*free.values()):
        payload["params_exact"] = {k: str(v) for k, v in wave.params.to_dict().items()}
    return payload, True


def _simulate_params(data: dict) -> TwoSpeciesParams | ThreeSpeciesParams:
    three = "c33" in data or "d3" in data
    return (ThreeSpeciesParams if three else TwoSpeciesParams).from_dict(data)


def _cmd_simulate(
    args: argparse.Namespace, p: TwoSpeciesParams | ThreeSpeciesParams
) -> tuple[dict, bool]:
    init = WaveProfile.from_csv(args.init)
    boundary = (
        numerics.BoundaryKind.DIRICHLET_FROM_PROFILE
        if args.boundary == "dirichlet"
        else numerics.BoundaryKind.NEUMANN_ZERO
    )
    grid = numerics.GridSpec(
        x_min=float(init.x[0]), x_max=float(init.x[-1]), n=init.x.size, boundary=boundary
    )
    sim = numerics.SimConfig(
        grid=grid,
        t_end=args.t_end,
        dt=args.dt,
        scheme=(
            numerics.Scheme.EXPLICIT_EULER if args.scheme == "euler" else numerics.Scheme.RK4MOL
        ),
        n_snapshots=args.n_snapshots,
        space_order=args.space_order,
    )
    snaps = numerics.simulate_pde(p, init, sim)
    run_config = {
        "t_end": float(sim.t_end),
        "dt": sim.dt if isinstance(sim.dt, str) else float(sim.dt),
        "scheme": sim.scheme.value,
        "boundary": boundary.value,
        "space_order": sim.space_order,
    }
    snaps.to_dir(args.out / "snapshots", config=run_config)
    return {"snapshots_dir": "snapshots", "n_snapshots": len(snaps.profiles), **run_config}, True


def _cmd_speed(args: argparse.Namespace, _: None) -> tuple[dict, bool]:
    snaps = numerics.Snapshots.from_dir(args.snapshots)
    est = numerics.estimate_front_speed(snaps, args.component, args.level)
    return {
        "speed": est.speed,
        "intercept": est.intercept,
        "fit_residual": est.fit_residual,
        "positions": [float(v) for v in est.positions],
        "times": [float(t) for t in est.times],
    }, True


def _invader(data: dict) -> tuple[numerics.FisherContext, float, float]:
    """The invader record on a three-node stand-in background, and K_sub and
    K_super: the record refuses its parameters before --background is read."""
    values = parse_fields(data, _INVADER_FIELDS)
    k_sub, k_super = float(values.pop("K_sub")), float(values.pop("K_super"))
    stand_in = WaveProfile(np.arange(3.0), np.zeros(3), np.zeros(3))
    return numerics.FisherContext(**values, background=stand_in), k_sub, k_super


def _cmd_fisher(args: argparse.Namespace, params: tuple) -> tuple[dict, bool]:
    invader, k_sub, k_super = params
    ctx = replace(invader, background=WaveProfile.from_csv(args.background))
    w_sub = numerics.tanh_pulse_candidate(k_sub)
    w_super = numerics.constant_candidate(k_super)
    sub_rep = numerics.check_sub_super(ctx, w_sub, numerics.Side.SUB)
    super_rep = numerics.check_sub_super(ctx, w_super, numerics.Side.SUPER)
    payload = {
        "sub_check": sub_rep.to_json_dict(),
        "super_check": super_rep.to_json_dict(),
    }
    if not (sub_rep.passed and super_rep.passed):
        return {**payload, "solved": False}, False
    solution = numerics.solve_fisher_bvp(
        ctx, w_sub, w_super, tol=args.tol, max_iter=args.max_iter, relaxation=args.relaxation
    )
    args.out.mkdir(parents=True, exist_ok=True)
    solution.profile.to_csv(args.out / "w.csv")
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
    return payload, True


def _cmd_audit(args: argparse.Namespace, report: CheckReport) -> tuple[dict, bool]:
    return report.to_json_dict(), report.passed


def _cmd_verify_profile(args: argparse.Namespace, p: TwoSpeciesParams) -> tuple[dict, bool]:
    profile = WaveProfile.from_csv(args.profile)
    pair = bounds(p, *_weights(args))
    report = verify_bounds_on_profile(profile, pair)
    payload = {**report.to_json_dict(), **_exact(q_lower=pair.q_lower, q_upper=pair.q_upper)}
    return payload, report.passed


def _cmd_evenness(args: argparse.Namespace, _: None) -> tuple[dict, bool]:
    u, v = parse_number(args.u), parse_number(args.v)
    return {"J": evenness_index(u, v), **_exact(u=u, v=v)}, True


def _cmd_figure_data(args: argparse.Namespace, _: None) -> tuple[dict, bool]:
    return {"manifest": figures.emit_figure_data(args.which, args.case, args.out)}, True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lvwaves",
        description="Bounds, exact tanh waves, and numerical stress tests for "
        "competitive reaction-diffusion traveling waves.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, parse=None, weights=False, grid=False):
        """A subcommand; it takes --params and --set exactly when it has a ``parse``."""
        sub = subs.add_parser(name, help=help)
        sub.set_defaults(handler=handler, parse=parse)
        if parse is not None:
            sub.add_argument("--params", help="JSON parameter file")
            sub.add_argument(
                "--set",
                action="append",
                default=[],
                metavar="KEY=VALUE",
                help="override a parameter (dotted c.1.2 addresses the matrix)",
            )
        sub.add_argument("--out", help="output directory (default $LVWAVES_OUT or ./lvwaves-out)")
        if weights:
            sub.add_argument("--alpha", default="1", help="weight on u (rational or float)")
            sub.add_argument("--beta", default="1", help="weight on v (rational or float)")
        if grid:
            sub.add_argument("--x-min", dest="x_min", type=float, default=-20.0)
            sub.add_argument("--x-max", dest="x_max", type=float, default=20.0)
            sub.add_argument("--n", type=int, default=1601)
        return sub

    two = TwoSpeciesParams.from_dict
    command("classify", _cmd_classify, "classify the competition regime", two)
    command("bounds", _cmd_bounds, "two-sided bound on alpha*u + beta*v", two, weights=True)
    sub = command("barrier", _cmd_barrier, "explicit barrier-line levels (strong competition)",
                  two, weights=True)
    sub.add_argument("--side", choices=("lower", "upper"), required=True)
    command("conic", _cmd_conic, "classify the weighted kinetics curve F=0", two, weights=True)
    command("exact-wave", _cmd_exact_wave, "three-species tanh wave from free parameters",
            exactwaves.FreeParams.from_dict, grid=True)
    command("two-wave", _cmd_two_wave, "two-species tanh wave", _two_wave, grid=True)

    sub = command("simulate", _cmd_simulate, "method-of-lines reaction-diffusion run",
                  _simulate_params)
    sub.add_argument("--init", required=True, help="initial profile CSV")
    sub.add_argument("--t-end", dest="t_end", type=float, required=True)
    sub.add_argument("--dt", type=_float_or_text, default="auto")
    sub.add_argument("--scheme", choices=("euler", "rk4"), default="rk4")
    sub.add_argument("--boundary", choices=("neumann", "dirichlet"), default="neumann")
    sub.add_argument("--n-snapshots", dest="n_snapshots", type=int, default=11)
    sub.add_argument("--space-order", dest="space_order", type=int, choices=(2, 4), default=4)

    sub = command("speed", _cmd_speed, "front speed from simulation snapshots")
    sub.add_argument("--snapshots", required=True, help="snapshot directory")
    sub.add_argument("--component", choices=("u", "v", "w"), default="u")
    sub.add_argument("--level", type=float, required=True)

    sub = command("fisher", _cmd_fisher, "monotone iteration for the invader equation", _invader)
    sub.add_argument("--background", required=True, help="background (u, v) profile CSV")
    sub.add_argument("--tol", type=float, default=1e-8)
    sub.add_argument("--max-iter", dest="max_iter", type=int, default=200)
    sub.add_argument("--relaxation", type=float, default=None)

    # an audit runs in its parser, so its refusal of an input names the file too
    command("check-existence", _cmd_audit, "audit the existence hypotheses H1-H4",
            lambda data: existence_report(ExistenceInputs.from_dict(data)))
    command("check-nonexistence", _cmd_audit, "audit the nonexistence hypotheses A1-A3",
            lambda data: nonexistence_report(ThreeSpeciesParams.from_dict(data)))
    sub = command("verify-profile", _cmd_verify_profile, "audit bounds on a sampled profile",
                  two, weights=True)
    sub.add_argument("--profile", required=True, help="profile CSV to audit")

    sub = command("evenness", _cmd_evenness, "species evenness index of two densities")
    sub.add_argument("--u", required=True)
    sub.add_argument("--v", required=True)

    sub = command("figure-data", _cmd_figure_data, "emit point sets for the illustration cases")
    sub.add_argument("--which", choices=("fig1", "fig2", "fig3"), required=True)
    sub.add_argument("--case", required=True)

    return parser


# Built on the first ``main`` call, not at import, so importing ``lvwaves.cli``
# costs no parser.  Sharing it is safe: ``parse_args`` does not change the
# parser, the append action copies --set's default list before appending, and
# ``main`` writes only to the namespace it gets back.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    args.out = Path(args.out or os.environ.get("LVWAVES_OUT") or "lvwaves-out")
    try:
        params = None if args.parse is None else _load_params(args, args.parse)
        payload, passed = args.handler(args, params)
        write_json(args.out / "report.json", {"command": args.command, **payload})
    except LVError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
