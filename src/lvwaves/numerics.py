"""Time integration, method-of-lines simulation, front-speed estimation, and
the monotone sub/supersolution solver for the scalar invader equation.

Spatial discretization uses central differences on a uniform grid: a
fourth-order interior stencil by default (``space_order=4``), with
second-order closures at the cells beside each boundary, or plain
second-order everywhere (``space_order=2``).  The exact tanh waves ride on
a state that is linearly unstable to the invader, so simulation error grows
exponentially along the front; the fourth-order seed keeps tracking errors
within tolerance on coarse grids where the second-order seed cannot.
Zero-flux boundaries use ghost-node reflection.

Explicit schemes enforce dt <= 2 / lambda_max with lambda_max the spectral
bound of the discrete diffusion (4 d / h^2 at second order, giving the
classical dt <= h^2 / (2 max d); 16 d / (3 h^2) at fourth order), and
dt="auto" takes 80 percent of that bound.  Each simulation run is
sequential and deterministic; independent runs may execute in parallel.
Each step runs in buffers allocated once per run, with the interior stencil
on the flat (species * n) state buffer, and its results are bit-identical to
the straightforward allocating form of the same arithmetic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np
from scipy.linalg import solve_banded

from .errors import (
    BlowupDetectedError,
    CFLViolationError,
    DomainError,
    LevelNotCrossedError,
    MaxIterExceededError,
    NegativeDensityError,
    NotOrderedError,
)
from .model import ThreeSpeciesParams, TwoSpeciesParams, _require_positive
from .profiles import ScalarProfile, WaveProfile, check_grid_bounds, uniform_grid
from .rational import Number, _require_finite
from .report import CheckItem, CheckReport, format_float

BLOWUP_LIMIT = 1e12
#: Share of the diffusive stability bound 2/lambda_max used when dt="auto".
AUTO_DT_FRACTION = 0.8
#: Slack allowed when asserting monotone-iteration ordering (roundoff only).
ORDERING_SLACK = 1e-10
#: Negative samples beyond -NEGATIVITY_FLOOR * scale abort a simulation;
#: anything closer to zero is roundoff from the non-monotone fourth-order
#: stencil acting on underflowed tails and is snapped to zero.
NEGATIVITY_FLOOR = 1e-12


class BoundaryKind(Enum):
    NEUMANN_ZERO = "NeumannZero"
    DIRICHLET_FROM_PROFILE = "DirichletFromProfile"


class Scheme(Enum):
    EXPLICIT_EULER = "ExplicitEuler"
    RK4MOL = "RK4MOL"


@dataclass(frozen=True)
class GridSpec:
    x_min: float
    x_max: float
    n: int
    boundary: BoundaryKind = BoundaryKind.NEUMANN_ZERO

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("grid needs at least three nodes")
        check_grid_bounds(self.x_min, self.x_max)

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    def x(self) -> np.ndarray:
        return uniform_grid(self.x_min, self.x_max, self.n)


@dataclass(frozen=True)
class SimConfig:
    grid: GridSpec
    t_end: float
    dt: float | str = "auto"
    scheme: Scheme = Scheme.RK4MOL
    n_snapshots: int = 11
    space_order: int = 4

    def __post_init__(self):
        if self.space_order not in (2, 4):
            raise ValueError("space_order must be 2 or 4")
        if isinstance(self.dt, str) and self.dt != "auto":
            raise ValueError(f"dt must be a number or 'auto', got {self.dt!r}")
        for name in ("t_end", "dt"):
            value = getattr(self, name)
            if not isinstance(value, str) and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.n_snapshots < 1:
            raise ValueError(f"n_snapshots must be at least 1, got {self.n_snapshots}")

    def resolve_dt(self, max_diffusion: float) -> float:
        stencil_bound = 4.0 if self.space_order == 2 else 16.0 / 3.0
        lambda_max = stencil_bound * max_diffusion / self.grid.h**2
        cfl = 2.0 / lambda_max
        if self.dt == "auto":
            return AUTO_DT_FRACTION * cfl
        dt = float(self.dt)
        if dt > cfl:
            raise CFLViolationError(
                f"dt={dt} exceeds the diffusive CFL bound {cfl} for h={self.grid.h}"
            )
        return dt


@dataclass(frozen=True)
class OdeTrajectory:
    t: np.ndarray
    u: np.ndarray
    v: np.ndarray


def integrate_ode(
    p: TwoSpeciesParams,
    u0: float,
    v0: float,
    t_end: float,
    dt: float = 0.05,
) -> OdeTrajectory:
    """Classical fourth-order one-step integration of the diffusion-free kinetics.

    Zero components are allowed (the axis equilibria are admissible starts);
    negative ones are not.
    """
    if u0 < 0 or v0 < 0:
        raise ValueError("initial densities must be nonnegative")
    if t_end <= 0 or dt <= 0:
        raise ValueError("t_end and dt must be positive")
    _require_finite(u0=u0, v0=v0, t_end=t_end, dt=dt)
    s1, s2 = float(p.sigma1), float(p.sigma2)
    a11, a12 = float(p.c11), float(p.c12)
    a21, a22 = float(p.c21), float(p.c22)

    def f(u, v):
        return u * (s1 - a11 * u - a12 * v), v * (s2 - a21 * u - a22 * v)

    n_steps = max(1, round(t_end / dt))
    step = t_end / n_steps
    ts = np.empty(n_steps + 1)
    us = np.empty(n_steps + 1)
    vs = np.empty(n_steps + 1)
    u, v = float(u0), float(v0)
    ts[0], us[0], vs[0] = 0.0, u, v
    for k in range(n_steps):
        k1u, k1v = f(u, v)
        k2u, k2v = f(u + 0.5 * step * k1u, v + 0.5 * step * k1v)
        k3u, k3v = f(u + 0.5 * step * k2u, v + 0.5 * step * k2v)
        k4u, k4v = f(u + step * k3u, v + step * k3v)
        u += step * (k1u + 2 * k2u + 2 * k3u + k4u) / 6.0
        v += step * (k1v + 2 * k2v + 2 * k3v + k4v) / 6.0
        if abs(u) > BLOWUP_LIMIT or abs(v) > BLOWUP_LIMIT:
            raise BlowupDetectedError(f"state exceeded {BLOWUP_LIMIT} at t={ts[k] + step}")
        ts[k + 1], us[k + 1], vs[k + 1] = (k + 1) * step, u, v
    return OdeTrajectory(t=ts, u=us, v=vs)


@dataclass(frozen=True)
class Snapshots:
    """Solution snapshots of a simulation run at increasing times."""

    times: np.ndarray
    profiles: tuple[WaveProfile, ...]

    def __post_init__(self):
        if len(self.times) != len(self.profiles):
            raise ValueError(f"{len(self.times)} times for {len(self.profiles)} snapshots")

    @property
    def x(self) -> np.ndarray:
        return self.profiles[0].x

    def to_dir(self, out_dir, config: dict | None = None) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        files = []
        for idx, prof in enumerate(self.profiles):
            name = f"snapshot_{idx:04d}.csv"
            prof.to_csv(out / name)
            files.append(name)
        manifest = {
            "times": [format_float(t) for t in self.times],
            "files": files,
            "grid": {
                "n": int(self.x.size),
                "x_min": format_float(self.x[0]),
                "x_max": format_float(self.x[-1]),
            },
            "config": config or {},
        }
        (out / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", newline="\n"
        )

    @classmethod
    def from_dir(cls, out_dir) -> "Snapshots":
        out = Path(out_dir)
        manifest = json.loads((out / "manifest.json").read_text())
        paths = [out / f for f in manifest["files"]]
        profiles = tuple(WaveProfile.from_csv(path) for path in paths)
        for path, prof in zip(paths[1:], profiles[1:]):
            if not np.array_equal(prof.x, profiles[0].x):
                raise ValueError(f"snapshot {path} is not on the grid of {paths[0]}")
        times = np.array([float(t) for t in manifest["times"]])
        return cls(times=times, profiles=profiles)


def _kinetics(p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if isinstance(p, ThreeSpeciesParams):
        sigma = np.array([p.sigma1, p.sigma2, p.sigma3], dtype=float)
        comp = np.array(p.competition_matrix(), dtype=float)
        diff = np.array([p.d1, p.d2, p.d3], dtype=float)
    elif isinstance(p, TwoSpeciesParams):
        sigma = np.array([p.sigma1, p.sigma2], dtype=float)
        comp = np.array([[p.c11, p.c12], [p.c21, p.c22]], dtype=float)
        diff = np.array([p.d1, p.d2], dtype=float)
    else:
        raise TypeError(f"unsupported parameter type {type(p).__name__}")
    return diff, sigma, comp


def simulate_pde(p, init: WaveProfile, cfg: SimConfig) -> Snapshots:
    """Method-of-lines run of the reaction-diffusion system.

    ``init`` must be sampled on ``cfg.grid``; the species count follows the
    parameter type (``w`` samples required exactly for three species).  The
    scheme must keep densities nonnegative: any sample below
    ``-NEGATIVITY_FLOOR * scale`` aborts the run, while roundoff-scale
    negatives (the fourth-order stencil can shave underflowed tails by
    ~1e-19) are snapped back to zero.
    """
    diff, sigma, comp = _kinetics(p)
    n_species = sigma.size
    x = cfg.grid.x()
    if init.x.size != x.size or abs(init.x[0] - x[0]) > 1e-9 or abs(init.x[-1] - x[-1]) > 1e-9:
        raise ValueError("initial profile is not sampled on the configured grid")
    has_w = init.w is not None
    if has_w != (n_species == 3):
        raise ValueError("initial profile components do not match the parameter type")
    state = np.stack([init.u, init.v] + ([init.w] if has_w else [])).astype(float)

    h = cfg.grid.h
    dt = cfg.resolve_dt(float(np.max(diff)))
    n_steps = max(1, int(np.ceil(cfg.t_end / dt - 1e-12)))
    dt = cfg.t_end / n_steps

    dirichlet = cfg.grid.boundary is BoundaryKind.DIRICHLET_FROM_PROFILE
    inv_h2 = 1.0 / (h * h)
    d_col = diff[:, None]
    sigma_col = sigma[:, None]
    fourth = cfg.space_order == 4
    lap = np.empty_like(state)
    react = np.empty_like(state)
    # The interior stencil runs on the flat (species * n) buffers; the values
    # it leaves where two rows meet are the boundary columns the closures
    # below overwrite.
    lap_flat = lap.reshape(-1)
    tmp_flat = react.reshape(-1)

    def rhs(s: np.ndarray, out: np.ndarray) -> None:
        flat = s.reshape(-1)
        if fourth:
            mid, tmp = lap_flat[2:-2], tmp_flat[2:-2]
            np.negative(flat[:-4], out=mid)
            np.multiply(flat[1:-3], 16.0, out=tmp)
            np.add(mid, tmp, out=mid)
            np.multiply(flat[2:-2], 30.0, out=tmp)
            np.subtract(mid, tmp, out=mid)
            np.multiply(flat[3:-1], 16.0, out=tmp)
            np.add(mid, tmp, out=mid)
            np.subtract(mid, flat[4:], out=mid)
            np.multiply(mid, inv_h2 / 12.0, out=mid)
            # second-order closure beside each boundary
            lap[:, 1] = (s[:, 0] - 2.0 * s[:, 1] + s[:, 2]) * inv_h2
            lap[:, -2] = (s[:, -3] - 2.0 * s[:, -2] + s[:, -1]) * inv_h2
        else:
            mid, tmp = lap_flat[1:-1], tmp_flat[1:-1]
            np.multiply(flat[1:-1], 2.0, out=tmp)
            np.subtract(flat[:-2], tmp, out=mid)
            np.add(mid, flat[2:], out=mid)
            np.multiply(mid, inv_h2, out=mid)
        lap[:, 0] = 2.0 * (s[:, 1] - s[:, 0]) * inv_h2
        lap[:, -1] = 2.0 * (s[:, -2] - s[:, -1]) * inv_h2
        np.multiply(d_col, lap, out=lap)
        np.matmul(comp, s, out=react)
        np.subtract(sigma_col, react, out=react)
        np.multiply(s, react, out=react)
        np.add(lap, react, out=out)
        if dirichlet:
            out[:, 0] = 0.0
            out[:, -1] = 0.0

    if cfg.n_snapshots > 1:
        snap_steps = {
            round(j * n_steps / (cfg.n_snapshots - 1)) for j in range(cfg.n_snapshots)
        }
    else:
        snap_steps = {n_steps}
    times: list[float] = []
    profiles: list[WaveProfile] = []

    def record(step: int) -> None:
        times.append(step * dt)
        profiles.append(
            WaveProfile(
                x=x,
                u=state[0].copy(),
                v=state[1].copy(),
                w=state[2].copy() if has_w else None,
            )
        )

    if 0 in snap_steps:
        record(0)
    euler = cfg.scheme is Scheme.EXPLICIT_EULER
    half_dt = 0.5 * dt
    k, stage, acc = (np.empty_like(state) for _ in range(3))
    for step in range(1, n_steps + 1):
        # state + dt * k for Euler; for RK4 the stages are state + (dt/2) k1,
        # state + (dt/2) k2, state + dt k3 and the update is
        # state + (dt/6) (((k1 + 2 k2) + 2 k3) + k4); doubling k2 and k3 in
        # place is exact, so the sum rounds as the allocating form does
        if euler:
            rhs(state, k)
            np.multiply(k, dt, out=k)
        else:
            rhs(state, acc)
            np.multiply(acc, half_dt, out=stage)
            np.add(state, stage, out=stage)
            rhs(stage, k)
            np.multiply(k, half_dt, out=stage)
            np.add(state, stage, out=stage)
            np.multiply(k, 2.0, out=k)
            np.add(acc, k, out=acc)
            rhs(stage, k)
            np.multiply(k, dt, out=stage)
            np.add(state, stage, out=stage)
            np.multiply(k, 2.0, out=k)
            np.add(acc, k, out=acc)
            rhs(stage, k)
            np.add(acc, k, out=acc)
            np.multiply(acc, dt / 6.0, out=k)
        np.add(state, k, out=state)
        low, high = float(np.min(state)), float(np.max(state))
        # NaN fails both comparisons and +-inf one, so only a state that
        # needs clipping or has left the admissible range takes the slow path
        if not (low >= 0.0 and high <= BLOWUP_LIMIT):
            if low < 0.0:
                scale = max(1.0, float(np.max(np.abs(state))))
                if low < -NEGATIVITY_FLOOR * scale:
                    raise NegativeDensityError(
                        f"negative density {low} at t={step * dt}; reduce dt or refine the grid"
                    )
                np.maximum(state, 0.0, out=state)
            if not np.isfinite(state).all() or float(np.max(state)) > BLOWUP_LIMIT:
                raise BlowupDetectedError(
                    f"simulation left the admissible range at t={step * dt}"
                )
        if step in snap_steps:
            record(step)
    return Snapshots(times=np.array(times), profiles=tuple(profiles))


@dataclass(frozen=True)
class FrontSpeedEstimate:
    speed: float
    intercept: float
    fit_residual: float
    times: np.ndarray
    positions: np.ndarray


def _crossing_position(x: np.ndarray, f: np.ndarray, level: float) -> float:
    s = f - level
    hits = np.nonzero(s[:-1] * s[1:] < 0)[0]
    exact = np.nonzero(s == 0)[0]
    n_events = len(hits) + len(exact)
    if n_events == 0:
        raise LevelNotCrossedError(f"level {level} is not crossed")
    if n_events > 1:
        raise LevelNotCrossedError(f"level {level} is crossed more than once")
    if len(exact):
        return float(x[exact[0]])
    i = int(hits[0])
    x_lin = x[i] + (x[i + 1] - x[i]) * s[i] / (s[i] - s[i + 1])
    # local cubic refinement; falls back to the linear estimate at the edges
    lo = max(0, i - 1)
    hi = min(x.size, i + 3)
    if hi - lo == 4:
        coeffs = np.polyfit(x[lo:hi] - x[i], s[lo:hi], 3)
        roots = np.roots(coeffs)
        real = roots[np.abs(roots.imag) < 1e-9].real + x[i]
        inside = real[(real >= x[i] - 1e-12) & (real <= x[i + 1] + 1e-12)]
        if inside.size:
            return float(inside[np.argmin(np.abs(inside - x_lin))])
    return float(x_lin)


def estimate_front_speed(
    snapshots: Snapshots, component: str, level: float
) -> FrontSpeedEstimate:
    """Linear fit of the level-set position against time.

    Each snapshot must lie on the first one's grid and cross ``level``
    exactly once in x.  Positions are refined with a local cubic interpolant
    around the bracketing cell.
    """
    if len(snapshots.profiles) < 2:
        raise ValueError("need at least two snapshots")
    fields = [getattr(prof, component, None) for prof in snapshots.profiles]
    if any(f is None for f in fields):
        raise ValueError(f"snapshots carry no component {component!r}")
    if any(not np.array_equal(prof.x, snapshots.x) for prof in snapshots.profiles[1:]):
        raise ValueError("snapshots are not all on one grid")
    positions = np.array([_crossing_position(snapshots.x, f, level) for f in fields])
    slope, intercept = np.polyfit(snapshots.times, positions, 1)
    fit = slope * snapshots.times + intercept
    rms = float(np.sqrt(np.mean((fit - positions) ** 2)))
    return FrontSpeedEstimate(
        speed=float(slope),
        intercept=float(intercept),
        fit_residual=rms,
        times=snapshots.times,
        positions=positions,
    )


@dataclass(frozen=True)
class FisherContext:
    """Scalar invader equation with a frozen background (u, v) profile."""

    d3: Number
    theta: Number
    sigma3: Number
    c31: Number
    c32: Number
    c33: Number
    background: WaveProfile

    def __post_init__(self):
        _require_positive(self, ("c33", "d3"))
        _require_finite(theta=self.theta, sigma3=self.sigma3, c31=self.c31, c32=self.c32)
        if self.background.x.size < 3:
            raise ValueError("background grid needs at least three nodes")

    def linear_coefficient(self) -> np.ndarray:
        """sigma3 - c31 u - c32 v on the background grid."""
        return (
            float(self.sigma3)
            - float(self.c31) * self.background.u
            - float(self.c32) * self.background.v
        )


class Side(Enum):
    SUB = "Sub"
    SUPER = "Super"


@dataclass(frozen=True)
class Candidate:
    """Sub/supersolution candidate: a constant, the tanh pulse K (1 - tanh^2 x),
    or an arbitrary sampled field."""

    kind: str
    amplitude: float | None = None
    values: np.ndarray | None = None

    def sample(self, x: np.ndarray) -> np.ndarray:
        w, _, _ = self.fields(x)
        return w

    def fields(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(w, w', w'') on the grid; analytic except for sampled candidates."""
        if self.kind == "constant":
            k = float(self.amplitude)
            zero = np.zeros_like(x)
            return np.full_like(x, k), zero, zero
        if self.kind == "tanh_pulse":
            k = float(self.amplitude)
            t = np.tanh(x)
            s = 1.0 - t * t
            return k * s, -2.0 * k * t * s, -2.0 * k * s * (1.0 - 3.0 * t * t)
        if self.kind == "sampled":
            w = np.asarray(self.values, dtype=float)
            if w.shape != x.shape:
                raise ValueError("sampled candidate does not match the grid")
            h = float(x[1] - x[0])
            dw = np.gradient(w, h, edge_order=2)
            d2w = np.empty_like(w)
            d2w[1:-1] = (w[:-2] - 2.0 * w[1:-1] + w[2:]) / (h * h)
            d2w[0] = d2w[1]
            d2w[-1] = d2w[-2]
            return w, dw, d2w
        raise ValueError(f"unknown candidate kind {self.kind!r}")


def constant_candidate(amplitude: float) -> Candidate:
    return Candidate(kind="constant", amplitude=float(amplitude))


def tanh_pulse_candidate(amplitude: float) -> Candidate:
    return Candidate(kind="tanh_pulse", amplitude=float(amplitude))


def sampled_candidate(values: np.ndarray) -> Candidate:
    return Candidate(kind="sampled", values=np.asarray(values, dtype=float))


def check_sub_super(
    ctx: FisherContext, candidate: Candidate, side: Side, tol: float = 0.0
) -> CheckReport:
    """Pointwise sign audit of the sub/supersolution inequality.

    Evaluates R = d3 w'' + theta w' + w (sigma3 - c31 u - c32 v - c33 w) on
    the background grid.  A supersolution needs R <= tol everywhere, a
    subsolution R >= -tol.  The margin is min(R) for the sub side and
    -max(R) for the super side.
    """
    x = ctx.background.x
    w, dw, d2w = candidate.fields(x)
    residual = (
        float(ctx.d3) * d2w
        + float(ctx.theta) * dw
        + w * (ctx.linear_coefficient() - float(ctx.c33) * w)
    )
    if candidate.kind == "sampled":
        residual = residual[1:-1]
        x_used = x[1:-1]
    else:
        x_used = x
    if side is Side.SUB:
        idx = int(np.argmin(residual))
        margin = float(residual[idx])
    else:
        idx = int(np.argmax(residual))
        margin = float(-residual[idx])
    passed = margin >= -tol
    item = CheckItem(
        name=side.value.lower(),
        passed=passed,
        margin=margin,
        details={
            "side": side.value,
            "worst_x": float(x_used[idx]),
            "worst_residual": float(residual[idx]),
            "kind": candidate.kind,
        },
    )
    verdict = f"{side.value.lower()}solution inequality " + ("holds" if passed else "violated")
    return CheckReport(title="sub-super-check", passed=passed, items=(item,), verdict=verdict)


@dataclass(frozen=True)
class FisherSolution:
    profile: ScalarProfile
    iterations: int
    residual: float
    relaxation: float  # the constant M used in the linearized solves


def solve_fisher_bvp(
    ctx: FisherContext,
    w_sub: Candidate,
    w_super: Candidate,
    tol: float = 1e-8,
    max_iter: int = 200,
    relaxation: float | None = None,
) -> FisherSolution:
    """Monotone iteration between an ordered sub/supersolution pair.

    Starting from the supersolution, repeatedly solves

        (d3 Dxx + theta Dx - M) w_next = -M w - w (sigma3 - c31 u - c32 v - c33 w)

    where M defaults to sigma3 + 2 c33 max(w_super), raised if needed to the
    sup of |d reaction / d w| over the bracket so the iterates decrease
    pointwise and stay above the subsolution; both facts are asserted every
    sweep.  Any ``relaxation`` >= that sup keeps the scheme monotone; values
    closer to it converge in fewer sweeps.  The truncated
    domain carries homogeneous Dirichlet ends (tails are assumed to have
    decayed at the grid boundary).  Returns once the discrete residual drops
    below ``tol``; raises :class:`MaxIterExceededError` otherwise.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if relaxation is not None:
        _require_finite(relaxation=relaxation)
    x = ctx.background.x
    n = x.size
    h = float(x[1] - x[0])
    ws = w_sub.sample(x)
    wS = w_super.sample(x)
    if np.any(ws > wS):
        raise NotOrderedError("w_sub exceeds w_super somewhere on the grid")
    for cand, side in ((w_sub, Side.SUB), (w_super, Side.SUPER)):
        rep = check_sub_super(ctx, cand, side, tol=1e-12)
        if not rep.passed:
            raise DomainError(
                f"{side.value.lower()}solution check failed "
                f"(worst residual {rep.items[0].details['worst_residual']})"
            )

    g = ctx.linear_coefficient()
    d3 = float(ctx.d3)
    th = float(ctx.theta)
    c33 = float(ctx.c33)
    # monotonicity needs M >= |d reaction / d w| everywhere on the bracket
    slope_bound = float(
        np.max(np.maximum(g - 2.0 * c33 * ws, 2.0 * c33 * wS - g))
    )
    if relaxation is None:
        relax = max(float(ctx.sigma3) + 2.0 * c33 * float(np.max(wS)), slope_bound)
    else:
        relax = float(relaxation)
        if relax < slope_bound:
            raise ValueError(
                f"relaxation {relax} is below the reaction slope bound {slope_bound}"
            )

    lower = d3 / (h * h) - th / (2.0 * h)
    diag = -2.0 * d3 / (h * h) - relax
    upper = d3 / (h * h) + th / (2.0 * h)
    m = n - 2
    ab = np.zeros((3, m))
    ab[0, 1:] = upper
    ab[1, :] = diag
    ab[2, :-1] = lower

    def reaction(w: np.ndarray) -> np.ndarray:
        return w * (g - c33 * w)

    def discrete_residual(w: np.ndarray) -> float:
        interior = (
            d3 * (w[:-2] - 2.0 * w[1:-1] + w[2:]) / (h * h)
            + th * (w[2:] - w[:-2]) / (2.0 * h)
            + reaction(w)[1:-1]
        )
        return float(np.max(np.abs(interior)))

    w = wS.copy()
    scale = max(1.0, float(np.max(np.abs(wS))))
    for iteration in range(1, max_iter + 1):
        rhs = -(relax * w + reaction(w))[1:-1]
        w_next = np.zeros(n)
        w_next[1:-1] = solve_banded((1, 1), ab, rhs)
        if np.any(w_next > w + ORDERING_SLACK * scale):
            raise NotOrderedError(f"iterate increased at sweep {iteration}")
        if np.any(w_next < ws - ORDERING_SLACK * scale):
            raise NotOrderedError(f"iterate fell below w_sub at sweep {iteration}")
        w = w_next
        res = discrete_residual(w)
        if res < tol:
            return FisherSolution(
                profile=ScalarProfile(x=x, w=w),
                iterations=iteration,
                residual=res,
                relaxation=relax,
            )
    raise MaxIterExceededError(
        f"no convergence to tol={tol} within {max_iter} sweeps (residual {res})"
    )
