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

Explicit schemes enforce dt <= C / lambda, where C is the scheme's real
stability interval (2 for forward Euler, 2.785 for classical RK4) and
lambda = (4 or 16/3) max d / h^2 + R adds the spectral bound of the
discrete diffusion at second or fourth order to R, a Gershgorin bound on the
reaction Jacobian over the initial state's range.  dt="auto" takes 80
percent of that bound; an explicit dt above it is refused before the first
step, naming the term that binds.  A snapshot count above the run's
n_steps + 1 time levels is refused before the first step, as are a start
above BLOWUP_LIMIT and a t_end / dt that no array of time levels holds (a dt
of 0 included): one rule each, shared with ``integrate_ode`` and
``Candidate``.  Each simulation run is sequential and deterministic;
independent runs may execute in parallel.

Each step runs in buffers and slice views built once per run, with the
interior stencil on the flat (species * n) state buffer.  The diffusion and
growth coefficients are contiguous (species, n) arrays, so no pass
broadcasts a column, and one 16 s pass per right-hand side feeds both of the
fourth-order stencil's 16 s[i - 1] and 16 s[i + 1] terms.  One
second-difference rule serves both orders: it fills the whole interior at
second order and the closure columns beside each end at fourth.  A
fourth-order RK4 step makes 63 full-array passes.  Its results are
bit-identical to the straightforward allocating form of the same arithmetic.

The monotone solver refuses a grid whose cell Peclet number
|theta| h / (2 d3) exceeds 1, where its central-difference matrix stops
being monotone.  A sampled candidate is audited with the same differences,
every candidate at one slack, ``CANDIDATE_TOL``, and the solver admits only
a bracket whose samples pass that discrete audit.  On every grid the solver
accepts, its sweep matrix is diagonally dominant, so each sweep solves it
by elimination without row swaps: plain floats in LAPACK ``dgtsv``'s
operation order, with the pivots and multipliers computed once per solve.
The sweeps converge linearly; Newton steps on the discrete residual finish
the solve, with the Jacobian eliminated in the same order, factored anew
at each step.  Without row swaps that elimination is guaranteed stable only
for the sweep matrix, so a Newton step is kept only if it lowers the
residual inside the bracket.  The package needs no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    BlowupDetectedError,
    CFLViolationError,
    DomainError,
    LevelNotCrossedError,
    MaxIterExceededError,
    NegativeDensityError,
    NotOrderedError,
)
from .exactwaves import _tanh_pulse
from .model import ThreeSpeciesParams, TwoSpeciesParams
from .profiles import (
    ScalarProfile,
    WaveProfile,
    _read_only,
    _read_wave_npy,
    _write_wave_npy,
    check_grid_bounds,
    uniform_grid,
)
from .rational import (
    Number,
    _reduce_by_init,
    _require_finite,
    _require_nonnegative,
    _require_positive,
)
from .report import CheckItem, CheckReport, format_float, read_json, write_json

BLOWUP_LIMIT = 1e12
#: Share of the stability bound C / lambda used when dt="auto".
AUTO_DT_FRACTION = 0.8
#: Slack allowed when asserting monotone-iteration ordering (roundoff only).
ORDERING_SLACK = 1e-10
#: Negative samples beyond -NEGATIVITY_FLOOR * scale abort a simulation;
#: anything closer to zero is roundoff from the non-monotone fourth-order
#: stencil acting on underflowed tails and is snapped to zero.
NEGATIVITY_FLOOR = 1e-12
#: Residual slack of every sub/supersolution audit, the solver's own included.
CANDIDATE_TOL = 1e-12


class BoundaryKind(Enum):
    NEUMANN_ZERO = "NeumannZero"
    DIRICHLET_FROM_PROFILE = "DirichletFromProfile"


class Scheme(Enum):
    EXPLICIT_EULER = "ExplicitEuler"
    RK4MOL = "RK4MOL"


#: Real stability interval C of each scheme: a step dt is stable on the
#: eigenvalue -lambda when dt * lambda <= C (classical RK4: Hairer and
#: Wanner, Solving ODEs II, section IV.2).
STABILITY_INTERVAL = {Scheme.EXPLICIT_EULER: 2.0, Scheme.RK4MOL: 2.785}


def _step_ratio(t_end: float, dt: float) -> float:
    """``t_end / dt``, each integrator's step count before its own rounding;
    refused unless ``dt > 0`` and the ratio is below ``np.iinfo(np.intp).max``,
    the most steps an array of time levels can hold."""
    if not (dt > 0 and t_end / dt < np.iinfo(np.intp).max):
        raise ValueError(f"t_end={t_end} and dt={dt} give too many steps to count")
    return t_end / dt


def _require_below_blowup(what: str, peak: float) -> None:
    """Refuse a start or candidate whose ``peak`` is above ``BLOWUP_LIMIT``."""
    if peak > BLOWUP_LIMIT:
        raise ValueError(
            f"{what} = {peak} is above the admissible limit BLOWUP_LIMIT = {BLOWUP_LIMIT:g}"
        )


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
        h2 = self.h * self.h  # every time step bound divides by h**2
        if not (0 < h2 and 1 / h2 < math.inf):
            raise ValueError(f"grid step h={self.h} has no finite 1/h**2 (h**2 = {h2})")

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
        _require_positive(t_end=self.t_end)
        if not isinstance(self.dt, str):
            _require_positive(dt=self.dt)
        if self.n_snapshots < 1:
            raise ValueError(f"n_snapshots must be at least 1, got {self.n_snapshots}")

    def resolve_dt(self, max_diffusion: float, max_reaction: float) -> float:
        """The time step before rounding to whole steps: ``AUTO_DT_FRACTION``
        of C / lambda for dt="auto", else the explicit dt, which must not
        exceed C / lambda (``CFLViolationError``)."""
        stencil_bound = 4.0 if self.space_order == 2 else 16.0 / 3.0
        diffusion = stencil_bound * max_diffusion / self.grid.h**2
        bound = STABILITY_INTERVAL[self.scheme] / (diffusion + max_reaction)
        if self.dt == "auto":
            return AUTO_DT_FRACTION * bound
        dt = float(self.dt)
        if dt > bound:
            binding = "diffusion" if diffusion >= max_reaction else "reaction"
            raise CFLViolationError(
                f"dt={dt} exceeds the {self.scheme.value} stability bound {bound} "
                f"for h={self.grid.h}: diffusion term {diffusion}, reaction term "
                f"{max_reaction}; the {binding} term binds"
            )
        return dt


def reaction_bound(sigma: np.ndarray, comp: np.ndarray, state: np.ndarray) -> float:
    """Gershgorin bound on the reaction Jacobian J = diag(sigma - C s) - diag(s) C
    over the box between the per-species min and max of ``state``.

    It is the largest row sum of |J|.  The coefficients are nonnegative, so
    each diagonal entry falls and each off-diagonal entry grows with s, and
    the box's low and high corners bound every row.  A non-finite state has
    no bound: 0 is returned, and the step loop's range check reports the
    state.
    """
    lo, hi = state.min(axis=1), state.max(axis=1)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        return 0.0
    c_diag = np.diag(comp)
    diag_lo = sigma - comp @ lo - c_diag * lo
    diag_hi = sigma - comp @ hi - c_diag * hi
    off = hi * (comp.sum(axis=1) - c_diag)
    return float(np.max(np.maximum(diag_lo, -diag_hi) + off))


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
    negative ones are not.  The competitive kinetics keep the state in the
    box [0, max(u0, sigma1/c11)] x [0, max(v0, sigma2/c22)], and a step above
    RK4's stability bound for the reaction Jacobian over that box
    (:func:`reaction_bound`) is refused with ``CFLViolationError`` before the
    first step.
    """
    if not isinstance(p, TwoSpeciesParams):
        raise TypeError(f"integrate_ode takes TwoSpeciesParams, got {type(p).__name__}")
    _require_nonnegative(u0=u0, v0=v0)
    _require_positive(t_end=t_end, dt=dt)
    n_steps = max(1, round(_step_ratio(t_end, dt)))
    _, sigma, comp = _kinetics(p)
    s1, s2 = sigma.tolist()
    (a11, a12), (a21, a22) = comp.tolist()

    def f(u, v):
        return u * (s1 - a11 * u - a12 * v), v * (s2 - a21 * u - a22 * v)

    step = t_end / n_steps
    box = np.array([[0, max(u0, s1 / a11)], [0, max(v0, s2 / a22)]], dtype=float)
    reaction = reaction_bound(sigma, comp, box)
    limit = STABILITY_INTERVAL[Scheme.RK4MOL]
    if step * reaction > limit:
        raise CFLViolationError(
            f"dt={dt} (steps of {step}) exceeds the {Scheme.RK4MOL.value} stability bound "
            f"{limit / reaction} over the reachable states: reaction term {reaction}"
        )
    ts, us, vs = (np.empty(n_steps + 1) for _ in range(3))
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
    """Solution snapshots of a run at finite, strictly increasing times, all on one grid;
    ``times`` is kept as a read-only float view.  On disk: ``snapshots.npy``, the profiles
    as one float64 array (see :mod:`lvwaves.profiles`), and ``manifest.json``, which holds
    the times, a grid summary and the run config, and names the array file."""

    times: np.ndarray
    profiles: tuple[WaveProfile, ...]

    def __post_init__(self):
        t = _read_only(self.times)
        object.__setattr__(self, "times", t)
        if not self.profiles:
            raise ValueError("snapshots need at least one profile")
        if len(t) != len(self.profiles):
            raise ValueError(f"{len(t)} times for {len(self.profiles)} snapshots")
        if not (np.isfinite(t).all() and (np.diff(t) > 0).all()):
            raise ValueError(f"snapshot times must be finite and strictly increasing: {t.tolist()}")
        if any(not np.array_equal(prof.x, self.x) for prof in self.profiles[1:]):
            raise ValueError("snapshots are not all on one grid")
        if any(prof.components != self.profiles[0].components for prof in self.profiles[1:]):
            raise ValueError("snapshots do not all carry the same components")

    __reduce__ = _reduce_by_init

    @property
    def x(self) -> np.ndarray:
        return self.profiles[0].x

    def to_dir(self, out_dir, config: dict | None = None) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        array = "snapshots.npy"
        _write_wave_npy(out / array, self.profiles)
        manifest = {
            "times": [format_float(t) for t in self.times],
            "array": array,
            "grid": {
                "n": int(self.x.size),
                "x_min": format_float(self.x[0]),
                "x_max": format_float(self.x[-1]),
            },
            "config": config or {},
        }
        write_json(out / "manifest.json", manifest)

    @classmethod
    def from_dir(cls, out_dir) -> "Snapshots":
        out = Path(out_dir)
        manifest_path = out / "manifest.json"
        manifest = read_json(manifest_path)
        entries = manifest if isinstance(manifest, dict) else {}
        array, times = entries.get("array"), entries.get("times")
        if not (isinstance(array, str) and isinstance(times, list)):
            raise ValueError(f"{manifest_path} needs an 'array' file name and a 'times' list")
        if array != "snapshots.npy":
            raise ValueError(f"{manifest_path} names the array {array!r}, not 'snapshots.npy'")
        if any(isinstance(t, bool) for t in times):
            raise ValueError(f"snapshot times must be numbers, got {times} in {manifest_path}")
        path = out / array
        profiles = _read_wave_npy(path)
        try:
            return cls(times=[float(t) for t in times], profiles=profiles)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{exc} in {manifest_path} and {path}") from None


def _kinetics(p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float diffusions, growth rates and competition matrix, read as d{i}, sigma{i}, c{i}{j}."""
    if not isinstance(p, (TwoSpeciesParams, ThreeSpeciesParams)):
        raise TypeError(f"unsupported parameter type {type(p).__name__}")
    species = range(1, 3 if isinstance(p, TwoSpeciesParams) else 4)
    diff = np.array([getattr(p, f"d{i}") for i in species], dtype=float)
    sigma = np.array([getattr(p, f"sigma{i}") for i in species], dtype=float)
    comp = np.array([[getattr(p, f"c{i}{j}") for j in species] for i in species], dtype=float)
    return diff, sigma, comp


def simulate_pde(p, init: WaveProfile, cfg: SimConfig) -> Snapshots:
    """Method-of-lines run of the reaction-diffusion system.

    ``init`` must be sampled on ``cfg.grid`` and stay at or below
    ``BLOWUP_LIMIT`` (``ValueError`` before any step); the species count
    follows the parameter type (``w`` samples required exactly for three
    species).  The scheme must keep densities nonnegative: any sample below
    ``-NEGATIVITY_FLOOR * scale`` aborts the run, while roundoff-scale
    negatives (the fourth-order stencil can shave underflowed tails by
    ~1e-19) are snapped back to zero.
    """
    diff, sigma, comp = _kinetics(p)
    n_species = sigma.size
    x = cfg.grid.x()
    if init.x.size != x.size or abs(init.x[0] - x[0]) > 1e-9 or abs(init.x[-1] - x[-1]) > 1e-9:
        raise ValueError("initial profile is not sampled on the configured grid")
    if len(init.components) != n_species:
        raise ValueError("initial profile components do not match the parameter type")
    state = np.stack([getattr(init, name) for name in init.components])
    # a start above the limit would overflow the reaction bound into numpy
    # warnings and a step near zero before the loop's range check saw it
    _require_below_blowup("max initial state", float(state.max()))

    dt = cfg.resolve_dt(float(np.max(diff)), reaction_bound(sigma, comp, state))
    n_steps = max(1, int(np.ceil(_step_ratio(cfg.t_end, dt) - 1e-12)))
    dt = cfg.t_end / n_steps
    if cfg.n_snapshots > n_steps + 1:
        raise ValueError(
            f"n_snapshots={cfg.n_snapshots} exceeds the {n_steps + 1} time levels "
            f"of this run: n_steps={n_steps} at dt={dt}"
        )

    dirichlet = cfg.grid.boundary is BoundaryKind.DIRICHLET_FROM_PROFILE
    inv_h2 = 1.0 / (cfg.grid.h * cfg.grid.h)
    n = x.size
    # full-shape coefficients: the same products as a (species, 1) column,
    # without the broadcast that makes each pass about twice as slow
    d_full = np.repeat(diff[:, None], n, axis=1)
    sigma_full = np.repeat(sigma[:, None], n, axis=1)
    fourth = cfg.space_order == 4
    # The interior stencil runs on the flat (species * n) buffers; the values
    # it leaves where two rows meet are in end columns, which the Neumann
    # closure overwrites and Dirichlet zeroes in ``out``.  The stencil never
    # writes the first and last entries, so ``lap`` starts at zero: under
    # Dirichlet, garbage there could overflow before it is zeroed.
    lap = np.zeros_like(state)
    # the columns beside the ends (1 and n - 2, one column when n = 3), their
    # left and right neighbours, and the ends 0 and n - 1
    stride = max(n - 3, 1)
    inner = slice(1, n - 1, stride)
    left, right = slice(0, n - 2, stride), slice(2, n, stride)
    ends = slice(0, n, n - 1)
    lap_ends = lap[:, ends]
    # the small passes on the end columns write a contiguous buffer: with a
    # strided view of ``lap`` as their ``out``, each call costs about 0.3 us
    # more, and a fourth-order RK4 run about 2 percent more
    edge = np.empty((n_species, 2))
    if fourth:
        mid, tmp = lap.reshape(-1)[2:-2], np.empty(state.size - 4)
        # 16 s on the flat buffer without its first and last entries: 16 s[i - 1]
        # and 16 s[i + 1] of the fourth-order stencil are both shifted views of it
        sixteen = np.empty(state.size - 2)
        sixteen_left, sixteen_right = sixteen[:-2], sixteen[2:]
        # the second difference closes the stencil beside each end
        second_out = lap[:, inner]
        second = edge[:, : second_out.shape[1]]
    else:
        second = second_out = lap.reshape(-1)[1:-1]

    def views(s: np.ndarray) -> tuple:
        """The slices of ``s`` that ``rhs`` reads, built once per buffer."""
        flat = s.reshape(-1)
        # the fourth-order shifts, and s[i - 1], s[i], s[i + 1] under ``second``
        if fourth:
            shifts = (flat[1:-1], flat[:-4], flat[2:-2], flat[4:])
            return s, shifts, (s[:, left], s[:, inner], s[:, right]), s[:, inner], s[:, ends]
        return s, (), (flat[:-2], flat[1:-1], flat[2:]), s[:, inner], s[:, ends]

    def rhs(src: tuple, dst: tuple) -> None:
        s, shifts, (s_prev, s_here, s_next), s_inner, s_ends = src
        out, out_ends = dst
        if fourth:
            body, s0, s2, s4 = shifts
            # ((((-s0 + 16 s1) - 30 s2) + 16 s3) - s4) (inv_h2 / 12); scaling
            # by 16 is exact and 16 s1 - s0 is -s0 + 16 s1 exactly
            np.multiply(body, 16.0, out=sixteen)
            np.subtract(sixteen_left, s0, out=mid)
            np.multiply(s2, 30.0, out=tmp)
            np.subtract(mid, tmp, out=mid)
            np.add(mid, sixteen_right, out=mid)
            np.subtract(mid, s4, out=mid)
            np.multiply(mid, inv_h2 / 12.0, out=mid)
        # ((s[i - 1] - 2 s[i]) + s[i + 1]) inv_h2
        np.multiply(s_here, 2.0, out=second)
        np.subtract(s_prev, second, out=second)
        np.add(second, s_next, out=second)
        np.multiply(second, inv_h2, out=second_out)
        if not dirichlet:
            np.subtract(s_inner, s_ends, out=edge)
            np.multiply(edge, 2.0, out=edge)
            np.multiply(edge, inv_h2, out=lap_ends)
        np.multiply(d_full, lap, out=lap)
        # the reaction s (sigma - C s) is built in ``out``, so the final
        # lap + reaction is in place
        np.matmul(comp, s, out=out)
        np.subtract(sigma_full, out, out=out)
        np.multiply(s, out, out=out)
        np.add(lap, out, out=out)
        if dirichlet:
            out_ends.fill(0.0)

    last = cfg.n_snapshots - 1
    snap_steps = {round(j * n_steps / last) for j in range(cfg.n_snapshots)} if last else {n_steps}
    times: list[float] = []
    profiles: list[WaveProfile] = []

    def record(step: int) -> None:
        times.append(step * dt)
        # one copy per row: a single (species, n) block copy raised peak RSS
        profiles.append(WaveProfile(x, *(row.copy() for row in state)))

    if 0 in snap_steps:
        record(0)
    euler = cfg.scheme is Scheme.EXPLICIT_EULER
    half_dt = 0.5 * dt
    k, stage, acc = (np.empty_like(state) for _ in range(3))
    state_views, stage_views = views(state), views(stage)
    # rhs writes k or acc, and under Dirichlet zeroes their end columns
    k_views, acc_views = ((buf, buf[:, ends]) for buf in (k, acc))
    for step in range(1, n_steps + 1):
        # state + dt * k for Euler; for RK4 the stages are state + (dt/2) k1,
        # state + (dt/2) k2, state + dt k3 and the update is
        # state + (dt/6) (((k1 + 2 k2) + 2 k3) + k4); doubling k2 and k3 in
        # place is exact, so the sum rounds as the allocating form does
        if euler:
            rhs(state_views, k_views)
            np.multiply(k, dt, out=k)
        else:
            rhs(state_views, acc_views)
            np.multiply(acc, half_dt, out=stage)
            np.add(state, stage, out=stage)
            for stage_dt in (half_dt, dt):
                rhs(stage_views, k_views)
                np.multiply(k, stage_dt, out=stage)
                np.add(state, stage, out=stage)
                np.multiply(k, 2.0, out=k)
                np.add(acc, k, out=acc)
            rhs(stage_views, k_views)
            np.add(acc, k, out=acc)
            np.multiply(acc, dt / 6.0, out=k)
        np.add(state, k, out=state)
        low, high = float(state.min()), float(state.max())
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
    return Snapshots(times=times, profiles=tuple(profiles))


@dataclass(frozen=True)
class FrontSpeedEstimate:
    speed: float
    intercept: float
    fit_residual: float
    times: np.ndarray
    positions: np.ndarray


def _crossing_position(x: np.ndarray, f: np.ndarray, level: float, t: float) -> float:
    """Where the snapshot ``f`` at time ``t`` crosses ``level``, which it must
    do exactly once."""
    s = f - level
    # signs, not the product, which can underflow to -0.0 across a crossing
    hits = np.nonzero(np.sign(s[:-1]) * np.sign(s[1:]) < 0)[0]
    exact = np.nonzero(s == 0)[0]
    n_events = len(hits) + len(exact)
    if n_events != 1:
        raise LevelNotCrossedError(
            f"level {level} is crossed {n_events} times in the snapshot at t={t}, not once: "
            "the component must be a monotone front, and a pulse (such as the paper's w) "
            "has no single level-set front"
        )
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

    Each snapshot must cross ``level`` exactly once in x, so the component
    must be a monotone front: a pulse crosses a level twice or not at all.
    Positions are refined with a local cubic interpolant around the
    bracketing cell.
    """
    _require_finite(level=level)
    if len(snapshots.profiles) < 2:
        raise ValueError("need at least two snapshots")
    if any(component not in prof.components for prof in snapshots.profiles):
        raise ValueError(f"snapshots carry no component {component!r}")
    fields = [getattr(prof, component) for prof in snapshots.profiles]
    positions = np.array(
        [_crossing_position(snapshots.x, f, level, t) for f, t in zip(fields, snapshots.times)]
    )
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
        _require_positive(c33=self.c33, d3=self.d3)
        _require_finite(theta=self.theta, sigma3=self.sigma3, c31=self.c31, c32=self.c32)
        x = self.background.x  # GridSpec's rule: three nodes or more, a finite 1/h**2
        GridSpec(x_min=float(x[0]), x_max=float(x[-1]), n=x.size)

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
    or an arbitrary sampled field, at most ``BLOWUP_LIMIT`` in magnitude."""

    kind: str
    amplitude: float | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "tanh_pulse", "sampled"):
            raise ValueError(f"unknown candidate kind {self.kind!r}")
        if self.kind != "sampled":
            _require_finite(amplitude=self.amplitude)
            name, peak = "|amplitude|", abs(self.amplitude)
        else:
            values = np.asarray(self.values, dtype=float)
            if not np.isfinite(values).all():
                raise ValueError("sampled candidate values must be finite")
            name, peak = "max |values|", float(np.max(np.abs(values), initial=0.0))
        # beyond it the audit's w (g - c33 w) overflows
        _require_below_blowup(name, peak)

    def sample(self, x: np.ndarray) -> np.ndarray:
        if self.kind != "sampled":
            return self.fields(x)[0]
        w = np.asarray(self.values, dtype=float)
        if w.shape != x.shape:
            raise ValueError("sampled candidate does not match the grid")
        return w

    def fields(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Analytic (w, w', w'') on the grid; a sampled candidate has none."""
        if self.kind == "constant":
            k = float(self.amplitude)
            zero = np.zeros_like(x)
            return np.full_like(x, k), zero, zero
        if self.kind == "tanh_pulse":
            return _tanh_pulse(float(self.amplitude), np.tanh(x))
        raise ValueError(f"no analytic derivatives for candidate kind {self.kind!r}")


def constant_candidate(amplitude: float) -> Candidate:
    return Candidate(kind="constant", amplitude=float(amplitude))


def tanh_pulse_candidate(amplitude: float) -> Candidate:
    return Candidate(kind="tanh_pulse", amplitude=float(amplitude))


def sampled_candidate(values: np.ndarray) -> Candidate:
    return Candidate(kind="sampled", values=np.asarray(values, dtype=float))


def _invader_residual(w, g, c33: float, d3: float, theta: float, h: float) -> np.ndarray:
    """d3 w'' + theta w' + w (g - c33 w) at the interior nodes, by central differences."""
    return (
        d3 * (w[:-2] - 2.0 * w[1:-1] + w[2:]) / (h * h)
        + theta * (w[2:] - w[:-2]) / (2.0 * h)
        + (w * (g - c33 * w))[1:-1]
    )


def check_sub_super(ctx: FisherContext, candidate: Candidate, side: Side) -> CheckReport:
    """Pointwise sign audit of the sub/supersolution inequality.

    Evaluates R = d3 w'' + theta w' + w (sigma3 - c31 u - c32 v - c33 w) on
    the background grid, or for a sampled candidate at the interior nodes by
    the solver's own central differences.  A supersolution needs
    R <= CANDIDATE_TOL everywhere, a subsolution R >= -CANDIDATE_TOL.  The
    margin is min(R) for the sub side and -max(R) for the super side.
    """
    x = ctx.background.x
    d3, th, c33 = float(ctx.d3), float(ctx.theta), float(ctx.c33)
    with np.errstate(over="ignore", invalid="ignore"):
        g = ctx.linear_coefficient()
        if candidate.kind == "sampled":
            h = float(x[1] - x[0])
            residual, x_used = _invader_residual(candidate.sample(x), g, c33, d3, th, h), x[1:-1]
        else:
            w, dw, d2w = candidate.fields(x)
            residual, x_used = d3 * d2w + th * dw + w * (g - c33 * w), x
    if not np.isfinite(residual).all():
        raise ValueError(f"{side.value.lower()}solution residual of the {candidate.kind} "
                         "candidate is not finite: the audit overflows on these coefficients")
    sub = side is Side.SUB
    idx = int(np.argmin(residual) if sub else np.argmax(residual))
    margin = float(residual[idx] if sub else -residual[idx])
    passed = margin >= -CANDIDATE_TOL
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


def _tridiagonal_factors(
    lower: float, diag: list[float], upper: float
) -> tuple[list[float], list[float]] | None:
    """Pivots and multipliers of the tridiagonal matrix with constant
    ``lower`` and ``upper`` diagonals and the main diagonal ``diag``, one
    entry per row, eliminated without row swaps as LAPACK ``dgtsv``
    eliminates it: each multiplier is a division, ``lower / pivot``, not a
    product with a reciprocal.  None where a pivot is zero."""
    pivots, facts = [diag[0]], []
    for entry in diag[1:]:
        pivot = pivots[-1]
        if not pivot:
            return None
        fact = lower / pivot
        facts.append(fact)
        pivots.append(entry - fact * upper)
    return (pivots, facts) if pivots[-1] else None


def _tridiagonal_solve(
    pivots: list[float], facts: list[float], upper: float, rhs: list[float]
) -> list[float]:
    """Solve the matrix factored by :func:`_tridiagonal_factors` for ``rhs``
    in ``dgtsv``'s operation order, so where dgtsv swaps no rows the result is
    dgtsv's bit for bit.  The back substitution's ``0.0 *`` term, on the
    solution two nodes on, is dgtsv's zeroed fill-in entry: it can turn a
    -0.0 into +0.0."""
    y = rhs[0]
    b = [y]
    for fact, value in zip(facts, rhs[1:]):
        y = value - fact * y
        b.append(y)
    # from the last node back; x1 and x2 are the solution one and two nodes
    # on.  Past the last node x2 is +0.0, and subtracting 0.0 * 0.0 = +0.0
    # leaves every value, -0.0 included, as dgtsv's row without the term does
    x1, x2 = b[-1] / pivots[-1], 0.0
    x = [x1]
    for value, pivot in zip(b[-2::-1], pivots[-2::-1]):
        x1, x2 = (value - upper * x1 - 0.0 * x2) / pivot, x1
        x.append(x1)
    return x[::-1]


@dataclass(frozen=True)
class FisherSolution:
    profile: ScalarProfile
    iterations: int  # linear solves: monotone sweeps and Newton steps
    newton_steps: int  # how many of ``iterations`` were Newton steps
    residual: float
    relaxation: float  # the constant M used in the linearized solves
    # one per solve, of the iterate the solve left; the last is ``residual``
    residual_history: tuple[float, ...]


def _newton_step(
    w: np.ndarray, r: np.ndarray, g: np.ndarray, c33: float, lower: float, centre: float,
    upper: float,
) -> np.ndarray | None:
    """w + delta for J delta = -r, where r is the discrete residual of w and
    J = d3 D2 + theta D1 + diag(g - 2 c33 w) its Jacobian on the interior
    nodes (``centre`` is -2 d3 / h**2), eliminated without row swaps.  None
    where a pivot is zero or not finite, or delta is not finite."""
    factors = _tridiagonal_factors(lower, (centre + (g - 2.0 * c33 * w)[1:-1]).tolist(), upper)
    if factors is None or not np.isfinite(factors[0]).all():
        return None
    delta = np.array(_tridiagonal_solve(*factors, upper, (-r).tolist()))
    if not np.isfinite(delta).all():
        return None
    step = w.copy()
    step[1:-1] += delta
    return step


def solve_fisher_bvp(
    ctx: FisherContext,
    w_sub: Candidate,
    w_super: Candidate,
    tol: float = 1e-8,
    max_iter: int = 200,
    relaxation: float | None = None,
) -> FisherSolution:
    """Monotone iteration between an ordered sub/supersolution pair, finished
    by Newton's method on the discrete residual.

    Starting from the supersolution, each sweep solves

        (d3 Dxx + theta Dx - M) w_next = -M w - w (sigma3 - c31 u - c32 v - c33 w)

    where M defaults to the sup of |d reaction / d w| over the bracket, the
    smallest value for which the iterates decrease pointwise and stay above
    the subsolution; both facts are asserted every sweep.  Any
    ``relaxation`` >= that sup keeps the scheme monotone; values closer to
    it converge in fewer sweeps.  The matrix is monotone only
    while the cell Peclet number |theta| h / (2 d3) is at most 1; a coarser
    grid is refused with :class:`DomainError` before the first sweep, as is
    a candidate that is not a sub- or supersolution of the discrete operator
    the sweeps iterate (its sample audited by :func:`check_sub_super`).  The
    truncated domain carries homogeneous Dirichlet ends (tails are assumed to
    have decayed at the grid boundary).

    The sweeps converge linearly and are the globalisation: from a sweep
    iterate, Newton steps J delta = -R(w) on the discrete residual R follow,
    each with the Jacobian factored anew.  A Newton iterate is kept only if
    its pivots and values are finite, it lies between the subsolution and
    the last sweep iterate (each with ``ORDERING_SLACK`` times the bracket's
    scale), and its residual is below that of the iterate it started from.
    Otherwise it is discarded and the sweeps resume from the last sweep
    iterate; the next attempt waits until the sweep residual has halved.
    ``max_iter`` bounds the linear solves, sweeps and Newton steps together.
    Returns once the residual of the current iterate drops below ``tol``,
    with one ``residual_history`` entry per solve; raises
    :class:`MaxIterExceededError` otherwise.
    """
    _require_positive(tol=tol)
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if relaxation is not None:
        _require_finite(relaxation=relaxation)
    x = ctx.background.x
    n = x.size
    h = float(x[1] - x[0])
    d3, th = float(ctx.d3), float(ctx.theta)
    # central differences for theta w' give a negative off-diagonal, and the
    # iterates lose their ordering, once the cell Peclet number exceeds 1
    peclet = abs(th) * h / (2.0 * d3)
    if peclet > 1.0:
        raise DomainError(
            f"cell Peclet number |theta| h / (2 d3) = {peclet} exceeds 1 for h={h}, "
            f"d3={d3}, theta={th}: the monotone iteration needs h <= 2 d3 / |theta| "
            f"= {2.0 * d3 / abs(th)}"
        )
    if not d3 / (h * h) < math.inf:
        raise DomainError(f"d3 / h**2 overflows for h={h}, d3={d3}: the iteration needs it finite")
    ws, wS = w_sub.sample(x), w_super.sample(x)
    if np.any(ws > wS):
        raise NotOrderedError("w_sub exceeds w_super somewhere on the grid")
    # the ordering argument needs a bracket of the discrete operator the
    # sweeps iterate, not only of the continuous one
    for values, cand, side in ((ws, w_sub, Side.SUB), (wS, w_super, Side.SUPER)):
        item = check_sub_super(ctx, sampled_candidate(values), side).items[0]
        if not item.passed:
            raise DomainError(
                f"the {cand.kind} {side.value.lower()}solution is not a discrete "
                f"{side.value.lower()}solution: margin {item.margin} at x = "
                f"{item.details['worst_x']}, below -CANDIDATE_TOL = -{CANDIDATE_TOL:g}"
            )

    g, c33 = ctx.linear_coefficient(), float(ctx.c33)
    # monotonicity needs M >= |d reaction / d w| everywhere on the bracket
    slope_bound = float(np.max(np.maximum(g - 2.0 * c33 * ws, 2.0 * c33 * wS - g)))
    relax = slope_bound if relaxation is None else float(relaxation)
    if relax < slope_bound:
        raise ValueError(f"relaxation {relax} is below the reaction slope bound {slope_bound}")

    lower = d3 / (h * h) - th / (2.0 * h)
    centre = -2.0 * d3 / (h * h)
    upper = d3 / (h * h) + th / (2.0 * h)
    pivots, facts = _tridiagonal_factors(lower, [centre - relax] * (n - 2), upper)

    def solution(w: np.ndarray, res: float) -> FisherSolution:
        return FisherSolution(
            profile=ScalarProfile(x=x, w=w), iterations=iteration, newton_steps=newton_steps,
            residual=res, relaxation=relax, residual_history=tuple(history),
        )

    w = wS.copy()
    scale = max(1.0, float(np.max(np.abs(wS))))
    floor = ws - ORDERING_SLACK * scale
    history = []
    iteration = newton_steps = 0
    attempt_below = math.inf  # a sweep residual below this starts a Newton attempt
    while iteration < max_iter:
        iteration += 1
        sweep = iteration - newton_steps
        rhs = -(relax * w + w * (g - c33 * w))[1:-1]
        w_next = np.zeros(n)
        w_next[1:-1] = _tridiagonal_solve(pivots, facts, upper, rhs.tolist())
        if np.any(w_next > w + ORDERING_SLACK * scale):
            raise NotOrderedError(f"iterate increased at sweep {sweep}")
        if np.any(w_next < floor):
            raise NotOrderedError(f"iterate fell below w_sub at sweep {sweep}")
        w = w_next
        r = _invader_residual(w, g, c33, d3, th, h)
        res = float(np.max(np.abs(r)))
        history.append(res)
        if res < tol:
            return solution(w, res)
        if res >= attempt_below:
            continue
        # Newton steps from the sweep iterate, kept while each lowers the
        # residual and stays between the subsolution and that iterate
        ceiling = w + ORDERING_SLACK * scale
        v, v_r, v_res = w, r, res
        while iteration < max_iter:
            iteration += 1
            newton_steps += 1
            step = _newton_step(v, v_r, g, c33, lower, centre, upper)
            if step is not None and not (np.any(step < floor) or np.any(step > ceiling)):
                step_r = _invader_residual(step, g, c33, d3, th, h)
                step_res = float(np.max(np.abs(step_r)))
                if step_res < v_res:
                    v, v_r, v_res = step, step_r, step_res
                    history.append(v_res)
                    if v_res < tol:
                        return solution(v, v_res)
                    continue
            # discarded: the sweeps resume from w, and try again once they halve res
            history.append(res)
            attempt_below = 0.5 * res
            break
    raise MaxIterExceededError(
        f"no convergence to tol={tol} within {max_iter} linear solves (residual {history[-1]})"
    )
