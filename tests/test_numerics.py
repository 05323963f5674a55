import itertools
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lvwaves as lv
from lvwaves.errors import (
    BlowupDetectedError,
    CFLViolationError,
    DomainError,
    LevelNotCrossedError,
    MaxIterExceededError,
    NegativeDensityError,
    NotOrderedError,
)
from lvwaves.numerics import (
    BLOWUP_LIMIT,
    NEGATIVITY_FLOOR,
    BoundaryKind,
    FisherContext,
    GridSpec,
    Scheme,
    Side,
    SimConfig,
    Snapshots,
    _crossing_position,
    _tridiagonal_factors,
    _tridiagonal_solve,
)
from lvwaves.profiles import uniform_grid

from conftest import as_float, two_species_params

F = Fraction
# reaction-stiff block: the reaction term, not diffusion, sets the stable step
STIFF = lv.TwoSpeciesParams(
    d1=F(1), d2=F(1), sigma1=F(4000), sigma2=F(4000),
    c11=F(4000), c12=F(8000), c21=F(12000), c22=F(4000),
)


def stiff_start():
    grid = GridSpec(-10.0, 10.0, 41)
    x = grid.x()
    t = np.tanh(x)
    return grid, lv.WaveProfile(x=x, u=0.5 - 0.5 * t, v=0.5 + 0.5 * t)


def reference_simulate(p, init, cfg):
    """Straightforward allocating form of ``simulate_pde``: each rhs call and
    each RK4 stage builds new arrays.  Returns the snapshot states."""
    diff, sigma, comp = lv.numerics._kinetics(p)
    has_w = init.w is not None
    state = np.stack([init.u, init.v] + ([init.w] if has_w else [])).astype(float)
    h = cfg.grid.h
    dt = cfg.resolve_dt(float(np.max(diff)), lv.numerics.reaction_bound(sigma, comp, state))
    n_steps = max(1, int(np.ceil(cfg.t_end / dt - 1e-12)))
    dt = cfg.t_end / n_steps
    inv_h2 = 1.0 / (h * h)

    def rhs(s):
        lap = np.empty_like(s)
        if cfg.space_order == 4:
            lap[:, 2:-2] = (
                -s[:, :-4]
                + 16.0 * s[:, 1:-3]
                - 30.0 * s[:, 2:-2]
                + 16.0 * s[:, 3:-1]
                - s[:, 4:]
            ) * (inv_h2 / 12.0)
            lap[:, 1] = (s[:, 0] - 2.0 * s[:, 1] + s[:, 2]) * inv_h2
            lap[:, -2] = (s[:, -3] - 2.0 * s[:, -2] + s[:, -1]) * inv_h2
        else:
            lap[:, 1:-1] = (s[:, :-2] - 2.0 * s[:, 1:-1] + s[:, 2:]) * inv_h2
        lap[:, 0] = 2.0 * (s[:, 1] - s[:, 0]) * inv_h2
        lap[:, -1] = 2.0 * (s[:, -2] - s[:, -1]) * inv_h2
        out = diff[:, None] * lap + s * (sigma[:, None] - comp @ s)
        if cfg.grid.boundary is BoundaryKind.DIRICHLET_FROM_PROFILE:
            out[:, 0] = 0.0
            out[:, -1] = 0.0
        return out

    if cfg.n_snapshots > 1:
        snap_steps = {round(j * n_steps / (cfg.n_snapshots - 1)) for j in range(cfg.n_snapshots)}
    else:
        snap_steps = {n_steps}
    states = [state.copy()] if 0 in snap_steps else []
    for step in range(1, n_steps + 1):
        if cfg.scheme is Scheme.EXPLICIT_EULER:
            state = state + dt * rhs(state)
        else:
            k1 = rhs(state)
            k2 = rhs(state + 0.5 * dt * k1)
            k3 = rhs(state + 0.5 * dt * k2)
            k4 = rhs(state + dt * k3)
            state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        low = float(np.min(state))
        if low < 0.0:
            scale = max(1.0, float(np.max(np.abs(state))))
            if low < -NEGATIVITY_FLOOR * scale:
                raise NegativeDensityError(f"negative density {low}")
            np.maximum(state, 0.0, out=state)
        if not np.isfinite(state).all() or float(np.max(state)) > BLOWUP_LIMIT:
            raise BlowupDetectedError("simulation left the admissible range")
        if step in snap_steps:
            states.append(state.copy())
    return states


@pytest.fixture(scope="module")
def fisher_ctx(demo_two_wave):
    x = np.linspace(-40.0, 40.0, 801)
    background = lv.wave_profile(demo_two_wave, x)
    return FisherContext(
        d3=2.0, theta=6.0, sigma3=10.0, c31=0.5, c32=0.01, c33=1.0,
        background=background,
    )


def _manufactured_context(spec, n: int) -> FisherContext:
    """The invader equation on the tanh wave's own (u, v), with the wave's
    d3, theta, sigma3, c31, c32 and c33, on n nodes over [-20, 20]: the
    wave's w = k2 sech^2 x solves it exactly."""
    p = spec.params
    return FisherContext(
        d3=p.d3, theta=spec.theta, sigma3=p.sigma3, c31=p.c31, c32=p.c32, c33=p.c33,
        background=lv.wave_profile(spec, np.linspace(-20.0, 20.0, n)),
    )


@pytest.fixture(scope="module")
def manufactured_ladder(paper_spec):
    """Solves of the manufactured problem at h = 0.1, 0.05 and 0.025 from
    the zero subsolution and the constant supersolution 5.55, each with its
    sup error against the exact w."""
    ladder = []
    for n in (401, 801, 1601):
        ctx = _manufactured_context(paper_spec, n)
        sol = lv.solve_fisher_bvp(
            ctx, lv.constant_candidate(0.0), lv.constant_candidate(5.55),
            tol=1e-10, max_iter=4000,
        )
        ladder.append((sol, float(np.max(np.abs(sol.profile.w - ctx.background.w)))))
    return ladder


class TestIntegrateOde:
    def test_three_species_block_refused(self, paper_spec):
        with pytest.raises(
            TypeError, match="integrate_ode takes TwoSpeciesParams, got ThreeSpeciesParams"
        ):
            lv.integrate_ode(paper_spec.params, 0.5, 0.5, t_end=1.0)

    def test_weak_competition_reaches_coexistence(self, weak_params):
        eq = lv.coexistence_equilibrium(weak_params)
        traj = lv.integrate_ode(weak_params, 0.1, 0.1, t_end=200.0, dt=0.05)
        assert traj.u[-1] == pytest.approx(float(eq.u), abs=1e-4)
        assert traj.v[-1] == pytest.approx(float(eq.v), abs=1e-4)

    def test_exclusion_u_wins(self):
        p = lv.TwoSpeciesParams(
            d1=F(1), d2=F(1), sigma1=F(1), sigma2=F(1),
            c11=F(1), c12=F(1, 2), c21=F(3), c22=F(1),
        )
        traj = lv.integrate_ode(p, 0.5, 0.5, t_end=200.0, dt=0.05)
        assert traj.u[-1] == pytest.approx(1.0, abs=1e-4)
        assert traj.v[-1] == pytest.approx(0.0, abs=1e-4)

    def test_step_count_overflow_rejected(self, strong_params):
        with pytest.raises(ValueError, match=r"t_end=1e\+300 and dt=1e-10"):
            lv.integrate_ode(strong_params, 0.5, 0.5, t_end=1e300, dt=1e-10)

    @pytest.mark.parametrize("t_end", [1e20, 1e9])
    def test_step_count_beyond_an_array_rejected(self, strong_params, t_end):
        message = f"t_end={t_end} and dt=1e-10 give too many steps to count"
        with pytest.raises(ValueError, match=re.escape(message)):
            lv.integrate_ode(strong_params, 0.5, 0.5, t_end=t_end, dt=1e-10)

    def test_axis_equilibrium_is_stationary(self, strong_params):
        traj = lv.integrate_ode(strong_params, 1.0, 0.0, t_end=50.0, dt=0.05)
        assert np.max(np.abs(traj.u - 1.0)) < 1e-12
        assert np.max(np.abs(traj.v)) == 0.0

    def test_unstable_step_refused_before_the_first_step(self):
        # at dt = 0.05 this block used to run until the state passed BLOWUP_LIMIT at t = 0.45
        p = lv.TwoSpeciesParams(
            d1=F(1), d2=F(1), sigma1=F(100), sigma2=F(100),
            c11=F(100), c12=F(50), c21=F(200, 3), c22=F(100),
        )
        # the run stays in [0, 1] x [0, 1], where the reaction term reaches 233.3;
        # dt = 0.04 is under the bound at the start (0.0418), not over the run
        for dt in (0.05, 0.04):
            message = (
                rf"dt={re.escape(str(dt))} .* RK4MOL stability bound 0\.01193\d* "
                r"over the reachable states: reaction term 233\.3"
            )
            with pytest.raises(CFLViolationError, match=message):
                lv.integrate_ode(p, 0.5, 0.5, t_end=10.0, dt=dt)
        traj = lv.integrate_ode(p, 0.5, 0.5, t_end=1.0, dt=0.01)
        assert np.all(np.isfinite(traj.u)) and np.all(np.isfinite(traj.v))

    def test_negative_start_rejected(self, strong_params):
        with pytest.raises(ValueError):
            lv.integrate_ode(strong_params, -0.1, 0.5, t_end=1.0, dt=0.01)

    @pytest.mark.parametrize("t_end, dt", [(0.0, 0.01), (-1.0, 0.01), (1.0, 0.0), (1.0, -0.01)])
    def test_nonpositive_time_or_step_rejected(self, strong_params, t_end, dt):
        with pytest.raises(ValueError) as info:
            lv.integrate_ode(strong_params, 0.1, 0.5, t_end=t_end, dt=dt)
        name, value = ("dt", dt) if t_end > 0 else ("t_end", t_end)
        assert str(info.value) == f"{name} must be strictly positive and finite, got {value}"

    @pytest.mark.parametrize("name, value", [
        ("u0", np.nan), ("u0", np.inf), ("v0", np.nan), ("t_end", np.inf), ("t_end", np.nan),
        ("dt", np.nan), ("u0", -0.1), ("v0", -np.inf),
    ])
    def test_non_finite_argument_rejected(self, strong_params, name, value):
        kwargs = {"u0": 0.5, "v0": 0.5, "t_end": 1.0, "dt": 0.05, name: value}
        with pytest.raises(ValueError) as info:
            lv.integrate_ode(strong_params, **kwargs)
        # the start may sit on an axis; the time and the step are positive
        rule = "nonnegative and finite" if name in ("u0", "v0") else "strictly positive and finite"
        assert str(info.value) == f"{name} must be {rule}, got {value}"


@settings(max_examples=15, deadline=None)
@given(
    st.fractions(min_value=F(1, 4), max_value=F(4), max_denominator=8),
    st.fractions(min_value=F(1, 4), max_value=F(4), max_denominator=8),
    st.fractions(min_value=F(1, 4), max_value=F(4), max_denominator=8),
    st.fractions(min_value=F(1, 4), max_value=F(4), max_denominator=8),
    st.fractions(min_value=F(1, 4), max_value=F(4), max_denominator=8),
    st.fractions(min_value=F(1, 4), max_value=F(4), max_denominator=8),
)
def test_equilibria_conserved(s1, s2, c11, c12, c21, c22):
    p = lv.TwoSpeciesParams(
        d1=F(1), d2=F(1), sigma1=s1, sigma2=s2,
        c11=c11, c12=c12, c21=c21, c22=c22,
    )
    for eq in lv.model.equilibria(p):
        if eq.u < 0 or eq.v < 0:
            continue
        traj = lv.integrate_ode(p, float(eq.u), float(eq.v), t_end=100.0, dt=0.01)
        assert np.max(np.abs(traj.u - float(eq.u))) < 1e-10
        assert np.max(np.abs(traj.v - float(eq.v))) < 1e-10


class TestSimulatePde:
    def test_constant_coexistence_is_steady(self, strong_params):
        eq = lv.coexistence_equilibrium(strong_params)
        grid = GridSpec(-5.0, 5.0, 101)
        x = grid.x()
        init = lv.WaveProfile(
            x=x, u=np.full_like(x, float(eq.u)), v=np.full_like(x, float(eq.v))
        )
        snaps = lv.simulate_pde(
            strong_params, init, SimConfig(grid=grid, t_end=1.0, n_snapshots=3)
        )
        assert np.max(np.abs(snaps.profiles[-1].u - float(eq.u))) < 1e-10
        assert np.max(np.abs(snaps.profiles[-1].v - float(eq.v))) < 1e-10

    def test_zero_invader_stays_zero(self, paper_spec):
        grid = GridSpec(-10.0, 10.0, 201)
        x = grid.x()
        u, v, _ = lv.evaluate_wave(paper_spec, x)
        init = lv.WaveProfile(x=x, u=u, v=v, w=np.zeros_like(x))
        snaps = lv.simulate_pde(
            paper_spec.params, init, SimConfig(grid=grid, t_end=0.2, n_snapshots=3)
        )
        for prof in snaps.profiles:
            assert np.max(prof.w) == 0.0

    def test_cfl_violation(self, strong_params):
        grid = GridSpec(-5.0, 5.0, 101)
        x = grid.x()
        init = lv.WaveProfile(x=x, u=np.ones_like(x), v=np.ones_like(x))
        cfg = SimConfig(grid=grid, t_end=1.0, dt=1.0, scheme=Scheme.EXPLICIT_EULER)
        with pytest.raises(CFLViolationError):
            lv.simulate_pde(strong_params, init, cfg)

    def test_component_mismatch_rejected(self, paper_spec):
        grid = GridSpec(-5.0, 5.0, 101)
        x = grid.x()
        init = lv.WaveProfile(x=x, u=np.ones_like(x), v=np.ones_like(x))
        with pytest.raises(ValueError):
            lv.simulate_pde(paper_spec.params, init, SimConfig(grid=grid, t_end=0.1))

    def test_unsupported_parameter_type_rejected(self, strong_params):
        grid = GridSpec(-5.0, 5.0, 11)
        x = grid.x()
        init = lv.WaveProfile(x=x, u=np.ones_like(x), v=np.ones_like(x))
        with pytest.raises(TypeError, match="unsupported parameter type dict"):
            lv.simulate_pde(strong_params.to_dict(), init, SimConfig(grid=grid, t_end=0.1))

    def test_grid_of_two_nodes_rejected(self):
        with pytest.raises(ValueError, match="grid needs at least three nodes"):
            GridSpec(-1.0, 1.0, 2)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"space_order": 3}, "space_order must be 2 or 4"),
            ({"dt": "fast"}, "dt must be a number or 'auto', got 'fast'"),
        ],
    )
    def test_config_refusals(self, change, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SimConfig(grid=GridSpec(-1.0, 1.0, 11), t_end=1.0, **change)

    @pytest.mark.parametrize("x", [np.linspace(-5.0, 5.0, 51), np.linspace(-4.0, 6.0, 101)])
    def test_init_off_the_configured_grid_rejected(self, strong_params, x):
        init = lv.WaveProfile(x=x, u=np.ones_like(x), v=np.ones_like(x))
        cfg = SimConfig(grid=GridSpec(-5.0, 5.0, 101), t_end=0.1)
        with pytest.raises(ValueError, match="not sampled on the configured grid"):
            lv.simulate_pde(strong_params, init, cfg)

    def test_nonnegative_and_bounded_by_upper_bound(self, strong_params):
        # initial combined density at or below the closed-form ceiling
        grid = GridSpec(-20.0, 20.0, 401)
        x = grid.x()
        t = np.tanh(x)
        init = lv.WaveProfile(x=x, u=0.6 - 0.4 * t, v=0.1 * (1 + t) ** 2)
        q_up = float(lv.upper_bound(strong_params, F(1), F(1)))
        assert np.max(init.u + init.v) <= q_up + 1e-12
        snaps = lv.simulate_pde(
            strong_params, init, SimConfig(grid=grid, t_end=2.0, n_snapshots=5)
        )
        h = grid.h
        for prof in snaps.profiles:
            assert np.min(prof.u) >= 0 and np.min(prof.v) >= 0
            assert np.max(prof.u + prof.v) <= q_up + 10 * h * h

    def test_refinement_reduces_tracking_error(self, paper_spec):
        errors = {}
        for h in (0.2, 0.1):
            n = round(60.0 / h) + 1
            grid = GridSpec(-30.0, 30.0, n, BoundaryKind.DIRICHLET_FROM_PROFILE)
            x = grid.x()
            init = lv.wave_profile(paper_spec, x)
            snaps = lv.simulate_pde(
                paper_spec.params, init,
                SimConfig(grid=grid, t_end=0.5, n_snapshots=2),
            )
            mask = (x >= -20) & (x <= 20)
            ue, ve, we = lv.evaluate_wave(paper_spec, x - 3.0 * 0.5)
            prof = snaps.profiles[-1]
            errors[h] = max(
                np.max(np.abs(prof.u - ue)[mask]),
                np.max(np.abs(prof.v - ve)[mask]),
                np.max(np.abs(prof.w - we)[mask]),
            )
        assert errors[0.2] / errors[0.1] >= 3.0

    def test_second_order_scheme_available(self, strong_params):
        eq = lv.coexistence_equilibrium(strong_params)
        grid = GridSpec(-5.0, 5.0, 101)
        x = grid.x()
        init = lv.WaveProfile(
            x=x, u=np.full_like(x, float(eq.u)), v=np.full_like(x, float(eq.v))
        )
        cfg = SimConfig(grid=grid, t_end=0.5, n_snapshots=2, space_order=2)
        snaps = lv.simulate_pde(strong_params, init, cfg)
        assert np.max(np.abs(snaps.profiles[-1].u - float(eq.u))) < 1e-10

    def test_auto_dt_follows_stencil_bound(self):
        grid = GridSpec(-1.0, 1.0, 21)
        h2 = grid.h**2
        expected = {
            (Scheme.EXPLICIT_EULER, 2): 0.4, (Scheme.EXPLICIT_EULER, 4): 0.3,
            (Scheme.RK4MOL, 2): 0.557, (Scheme.RK4MOL, 4): 0.41775,
        }
        for (scheme, order), share in expected.items():
            cfg = SimConfig(grid=grid, t_end=1.0, scheme=scheme, space_order=order)
            assert cfg.resolve_dt(1.0, 0.0) == pytest.approx(share * h2)

    @pytest.mark.parametrize(
        "boundary,scheme,space_order,three",
        list(itertools.product(BoundaryKind, Scheme, (2, 4), (False, True))),
    )
    def test_in_place_step_matches_reference(
        self, paper_spec, demo_two_wave, boundary, scheme, space_order, three
    ):
        grid = GridSpec(-20.0, 20.0, 401, boundary)
        x = grid.x()
        if three:
            p, init = paper_spec.params, lv.wave_profile(paper_spec, x)
        else:
            p, init = demo_two_wave.params, lv.wave_profile(demo_two_wave, x)
        before = [c.copy() for c in (init.u, init.v, init.w) if c is not None]
        cfg = SimConfig(
            grid=grid, t_end=0.3, scheme=scheme, space_order=space_order, n_snapshots=4
        )
        snaps = lv.simulate_pde(p, init, cfg)
        expected = reference_simulate(p, init, cfg)
        assert len(snaps.profiles) == len(expected) == 4
        for prof, ref in zip(snaps.profiles, expected):
            got = np.stack([prof.u, prof.v] + ([prof.w] if three else []))
            assert np.array_equal(got, ref)
        after = [c for c in (init.u, init.v, init.w) if c is not None]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        fields = [f for prof in snaps.profiles for f in (prof.u, prof.v, prof.w) if f is not None]
        for a, b in itertools.combinations(fields, 2):
            assert not np.shares_memory(a, b)
        assert not any(np.shares_memory(f, c) for f in fields for c in after)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    @pytest.mark.parametrize("space_order", [2, 4])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_smallest_grids_match_reference(self, paper_spec, n, boundary, space_order, scheme):
        # the boundary columns are addressed by stride n - 3, which these grids
        # bring to one (n = 4), to zero (n = 3) and to the two-column case
        grid = GridSpec(-2.0, 2.0, n, boundary)
        init = lv.wave_profile(paper_spec, grid.x())
        cfg = SimConfig(
            grid=grid, t_end=0.01, scheme=scheme, space_order=space_order, n_snapshots=3
        )
        snaps = lv.simulate_pde(paper_spec.params, init, cfg)
        expected = reference_simulate(paper_spec.params, init, cfg)
        for prof, ref in zip(snaps.profiles, expected, strict=True):
            assert np.array_equal(np.stack([prof.u, prof.v, prof.w]), ref)

    def test_snapshot_count_beyond_the_time_levels_refused(self, strong_params):
        # t_end = 0.05 is one auto step on this grid: two time levels
        grid, init = stiff_start()
        one_step = SimConfig(grid=grid, t_end=0.05, n_snapshots=2)
        assert len(lv.simulate_pde(strong_params, init, one_step).profiles) == 2
        with pytest.raises(ValueError, match="n_snapshots=41 exceeds the 2 time levels.*n_steps=1"):
            lv.simulate_pde(strong_params, init, replace(one_step, n_snapshots=41))

    def test_leaving_the_admissible_range_aborts(self, strong_params):
        grid = GridSpec(-10.0, 10.0, 41)
        x = grid.x()
        cfg = SimConfig(grid=grid, t_end=0.1)
        t = np.tanh(x)
        init = lv.WaveProfile(x=x, u=0.5 - 0.5 * t, v=0.5 + 0.5 * t)
        stiff = lv.TwoSpeciesParams(
            d1=F(1), d2=F(1), sigma1=F(4000), sigma2=F(4000),
            c11=F(4000), c12=F(8000), c21=F(12000), c22=F(4000),
        )
        with pytest.raises(NegativeDensityError, match="at t=0.00143084.*; reduce dt"):
            lv.simulate_pde(stiff, init, cfg)
        # a profile refuses NaN samples and its arrays are read-only, so the
        # NaN is written after construction through the array passed in, and
        # the start is not recorded as a snapshot
        u = init.u.copy()
        nan = lv.WaveProfile(x=x, u=u, v=init.v)
        u[:] = np.nan
        final_only = SimConfig(grid=grid, t_end=0.1, n_snapshots=1)
        with pytest.raises(BlowupDetectedError, match="admissible range at t=0.1"):
            lv.simulate_pde(strong_params, nan, final_only)
        tiny = F(1, 10**15)
        runaway = lv.TwoSpeciesParams(
            d1=F(1), d2=F(1), sigma1=F(4000), sigma2=F(4000),
            c11=tiny, c12=tiny, c21=tiny, c22=tiny,
        )
        with pytest.raises(BlowupDetectedError, match="admissible range at t=0.00718"):
            lv.simulate_pde(runaway, init, cfg)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_stiff_kinetics_shrink_the_auto_step(self, scheme):
        grid, init = stiff_start()
        cfg = SimConfig(grid=grid, t_end=0.1, scheme=scheme, space_order=2)
        snaps = lv.simulate_pde(STIFF, init, cfg)
        assert snaps.times[-1] == pytest.approx(0.1)
        for prof in snaps.profiles:
            assert np.min(prof.u) >= 0.0 and np.min(prof.v) >= 0.0
            assert np.max(prof.u + prof.v) <= 1.0 + 1e-12

    def test_explicit_dt_above_the_bound_names_the_binding_term(self, strong_params):
        grid, init = stiff_start()
        cfg = SimConfig(grid=grid, t_end=0.1, dt=1e-3, space_order=2)
        with pytest.raises(CFLViolationError, match="RK4MOL.*the reaction term binds"):
            lv.simulate_pde(STIFF, init, cfg)
        fine = GridSpec(-10.0, 10.0, 401)
        flat = lv.WaveProfile(x=fine.x(), u=np.ones(401), v=np.ones(401))
        euler = SimConfig(grid=fine, t_end=0.1, dt=0.01, scheme=Scheme.EXPLICIT_EULER)
        with pytest.raises(CFLViolationError, match="ExplicitEuler.*the diffusion term binds"):
            lv.simulate_pde(strong_params, flat, euler)

    @settings(max_examples=30, deadline=None)
    @given(two_species_params(), st.lists(st.floats(0.0, 3.0), min_size=4, max_size=4))
    def test_reaction_bound_covers_the_jacobian_on_the_box(self, p, corners):
        _, sigma, comp = lv.numerics._kinetics(as_float(p))
        lo = np.minimum(corners[:2], corners[2:])
        hi = np.maximum(corners[:2], corners[2:])
        bound = lv.numerics.reaction_bound(sigma, comp, np.stack([lo, hi], axis=1))
        for s in itertools.product(*zip(lo, hi)):
            s = np.array(s)
            jac = np.diag(sigma - comp @ s) - s[:, None] * comp
            assert np.max(np.abs(jac).sum(axis=1)) <= bound * (1 + 1e-12)

    @pytest.mark.parametrize("h", [0.1, 0.05])
    def test_auto_step_error_is_below_the_tracking_error(self, paper_spec, h):
        # a quarter of the auto step moves the solution by under 1 % of its
        # distance to the exact wave, so the time step does not set the error
        grid = GridSpec(-30.0, 30.0, round(60.0 / h) + 1, BoundaryKind.DIRICHLET_FROM_PROFILE)
        x = grid.x()
        init = lv.wave_profile(paper_spec, x)
        auto = SimConfig(grid=grid, t_end=0.5, n_snapshots=1)
        _, sigma, comp = lv.numerics._kinetics(paper_spec.params)
        state = np.stack([init.u, init.v, init.w])
        dt = auto.resolve_dt(1.0, lv.numerics.reaction_bound(sigma, comp, state))
        quarter = replace(auto, dt=dt / 4.0)
        final = [
            lv.simulate_pde(paper_spec.params, init, cfg).profiles[-1] for cfg in (auto, quarter)
        ]
        mask = (x >= -20) & (x <= 20)
        exact = lv.evaluate_wave(paper_spec, x - 3.0 * 0.5)

        def sup(fields, others):
            return max(np.max(np.abs(f - g)[mask]) for f, g in zip(fields, others))

        got, finer = ((prof.u, prof.v, prof.w) for prof in final)
        assert sup(got, finer) < 0.01 * sup(got, exact)

    def test_non_finite_grid_bounds_rejected(self):
        with pytest.raises(ValueError, match="x_max must be finite, got inf"):
            GridSpec(-1.0, float("inf"), 11)
        with pytest.raises(ValueError, match="x_min must be finite, got nan"):
            GridSpec(float("nan"), 1.0, 11)
        with pytest.raises(ValueError, match="x_max must be finite"):
            uniform_grid(0.0, float("inf"), 11)

    @pytest.mark.parametrize(
        "x, u, match",
        [
            ([0.0, 1.0, 2.0], [1.0, np.nan, 1.0], "u samples must be finite, got nan"),
            ([0.0, 1.0, 2.0], [1.0, np.inf, 1.0], "u samples must be finite, got inf"),
            ([0.0, 1.0, 2.0], [1.0, -0.5, 1.0], r"u samples must be nonnegative \(min -0.5\)"),
            ([0.0, np.nan, 2.0], [1.0, 1.0, 1.0], "grid nodes must be finite"),
        ],
    )
    def test_profile_refuses_bad_samples(self, x, u, match):
        with pytest.raises(ValueError, match=match):
            lv.WaveProfile(x=x, u=u, v=np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_scalar_profile_refuses_non_finite_samples(self, bad):
        with pytest.raises(ValueError, match=f"w samples must be finite, got {bad}"):
            lv.ScalarProfile(x=[0.0, 1.0, 2.0], w=[0.0, bad, 1.0])
        # negative samples stay allowed: a scalar solution need not be a density
        assert lv.ScalarProfile(x=[0.0, 1.0, 2.0], w=[0.0, -1.0, 1.0]).w[1] == -1.0

    def test_snapshots_roundtrip(self, tmp_path, strong_params, paper_spec):
        grid = GridSpec(-5.0, 5.0, 51)
        x = grid.x()
        for params, w in ((strong_params, None), (paper_spec.params, np.ones_like(x))):
            init = lv.WaveProfile(x=x, u=np.ones_like(x), v=np.ones_like(x), w=w)
            snaps = lv.simulate_pde(params, init, SimConfig(grid=grid, t_end=0.1, n_snapshots=3))
            snaps.to_dir(tmp_path / "snaps")
            back = Snapshots.from_dir(tmp_path / "snaps")
            assert np.array_equal(back.times, snaps.times)
            for a, b in zip(back.profiles, snaps.profiles, strict=True):
                assert a.components == b.components
                for name in ("x", *b.components):
                    assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


class TestFrontSpeed:
    @staticmethod
    def _translated_snapshots(spec, dt_shift=0.21, n_shots=8):
        x = np.linspace(-20.0, 20.0, 801)
        times = np.arange(n_shots) * dt_shift
        profiles = []
        for t in times:
            u, v, w = lv.evaluate_wave(spec, x - 3.0 * t)
            profiles.append(lv.WaveProfile(x=x, u=u, v=v, w=w))
        return Snapshots(times=times, profiles=tuple(profiles))

    def test_exact_translation_speed(self, paper_spec):
        snaps = self._translated_snapshots(paper_spec)
        est = lv.estimate_front_speed(snaps, "u", 0.4)
        assert est.speed == pytest.approx(3.0, abs=1e-6)

    @pytest.mark.parametrize("frac", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_speed_recovery_across_levels(self, paper_spec, frac):
        # u spans (u*, 1); the level sweeps that range
        level = 0.2 + frac * 0.8
        snaps = self._translated_snapshots(paper_spec)
        est = lv.estimate_front_speed(snaps, "u", level)
        assert est.speed == pytest.approx(3.0, abs=1e-6)

    def test_constant_in_time_gives_zero_slope(self, paper_spec):
        x = np.linspace(-20.0, 20.0, 801)
        u, v, w = lv.evaluate_wave(paper_spec, x)
        profiles = tuple(lv.WaveProfile(x=x, u=u, v=v, w=w) for _ in range(4))
        snaps = Snapshots(times=np.arange(4.0), profiles=profiles)
        est = lv.estimate_front_speed(snaps, "u", 0.4)
        assert abs(est.speed) < 1e-12
        assert est.fit_residual < 1e-12

    def test_level_never_crossed(self, paper_spec):
        snaps = self._translated_snapshots(paper_spec, n_shots=2)
        with pytest.raises(LevelNotCrossedError, match="crossed 0 times in the snapshot at t=0.0"):
            lv.estimate_front_speed(snaps, "u", 2.0)

    def test_speed_refuses_the_grid_column(self, demo_two_wave):
        # the grid crosses 0.4 at x = 0.4 in every snapshot; read as a density
        # it gave a speed of about 1e-16
        x = np.linspace(-40.0, 40.0, 801)
        profiles = tuple(lv.WaveProfile(x, *lv.evaluate_wave(demo_two_wave, x - 3.0 * t)) for t in range(3))
        snaps = Snapshots(times=np.arange(3.0), profiles=profiles)
        assert lv.estimate_front_speed(snaps, "u", 0.4).speed == pytest.approx(3.0, rel=1e-6)
        with pytest.raises(ValueError, match="snapshots carry no component 'x'"):
            lv.estimate_front_speed(snaps, "x", 0.4)

    def test_pulse_crosses_twice(self, paper_spec):
        snaps = self._translated_snapshots(paper_spec, n_shots=2)
        with pytest.raises(LevelNotCrossedError, match="crossed 2 times .* a pulse"):
            lv.estimate_front_speed(snaps, "w", 0.5)

    def test_level_on_a_node_is_read_off_the_node(self):
        # u = max(0, 5 + t - x) meets the level 2 exactly at the node x = 3 + t
        x = np.linspace(0.0, 10.0, 11)
        profiles = tuple(
            lv.WaveProfile(x=x, u=np.maximum(0.0, 5.0 + t - x), v=np.zeros_like(x))
            for t in (0.0, 1.0)
        )
        snaps = Snapshots(times=np.array([0.0, 1.0]), profiles=profiles)
        est = lv.estimate_front_speed(snaps, "u", 2.0)
        assert est.positions.tolist() == [3.0, 4.0]
        assert est.speed == pytest.approx(1.0, abs=1e-12)

    def test_crossing_in_an_end_cell_is_linear(self):
        # the cubic refinement needs four nodes around the bracketing cell, so
        # a crossing in the first or the last cell is read off the chord
        x = np.linspace(0.0, 10.0, 11)
        profiles = tuple(
            lv.WaveProfile(x=x, u=np.exp(-(x - shift)), v=np.zeros_like(x)) for shift in (0.0, 9.0)
        )
        snaps = Snapshots(times=np.array([0.0, 1.0]), profiles=profiles)
        est = lv.estimate_front_speed(snaps, "u", 0.5)
        chords = []
        for prof, i in zip(profiles, (0, 9)):
            s = prof.u - 0.5
            chords.append(x[i] + (x[i + 1] - x[i]) * s[i] / (s[i] - s[i + 1]))
        assert est.positions.tolist() == chords

    def test_crossing_of_underflowing_product_is_found(self):
        # s[1] * s[2] = -5e-401 rounds to -0.0; the signs still differ
        x = np.linspace(0.0, 4.0, 5)
        f = np.array([3.0, 2.0, 0.5, 0.2, 0.1])
        position = _crossing_position(x, f * 1e-200, 1e-200, 0.0)
        assert 1.0 < position < 2.0
        assert position == pytest.approx(_crossing_position(x, f, 1.0, 0.0), rel=1e-12)

    @pytest.mark.parametrize("level", [np.nan, np.inf, -np.inf])
    def test_non_finite_level_refused(self, paper_spec, level):
        snaps = self._translated_snapshots(paper_spec, n_shots=2)
        with pytest.raises(ValueError) as info:
            lv.estimate_front_speed(snaps, "u", level)
        assert str(info.value) == f"level must be finite, got {level}"

    def test_single_snapshot_rejected(self, paper_spec):
        snaps = self._translated_snapshots(paper_spec, n_shots=1)
        with pytest.raises(ValueError, match="need at least two snapshots"):
            lv.estimate_front_speed(snaps, "u", 0.4)

    def test_snapshots_refuse_a_time_count_off_the_profile_count(self, paper_spec):
        snaps = self._translated_snapshots(paper_spec, n_shots=2)
        with pytest.raises(ValueError, match="1 times for 2 snapshots"):
            Snapshots(times=snaps.times[:1], profiles=snaps.profiles)

    def test_snapshots_keep_their_times_read_only(self, paper_spec):
        profiles = self._translated_snapshots(paper_spec, n_shots=2).profiles
        times = np.array([0.0, 1.0])
        snaps = Snapshots(times=times, profiles=profiles)
        assert snaps.times is not times and np.shares_memory(snaps.times, times)
        with pytest.raises(ValueError, match="read-only"):
            snaps.times[1] = -5.0
        listed = Snapshots(times=[0.0, 1.0], profiles=profiles)
        assert isinstance(listed.times, np.ndarray) and not listed.times.flags.writeable
        assert listed.times.tolist() == [0.0, 1.0]

    def test_from_dir_refuses_boolean_times(self, paper_spec, tmp_path):
        self._translated_snapshots(paper_spec, n_shots=2).to_dir(tmp_path)
        manifest = tmp_path / "manifest.json"
        data = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**data, "times": [False, True]}))
        with pytest.raises(ValueError) as info:
            Snapshots.from_dir(tmp_path)
        assert str(info.value) == f"snapshot times must be numbers, got [False, True] in {manifest}"

    def test_snapshots_refuse_an_empty_run(self):
        with pytest.raises(ValueError, match="snapshots need at least one profile"):
            Snapshots(times=np.array([]), profiles=())

    def test_speed_refuses_snapshots_on_two_grids(self, paper_spec):
        snaps = self._translated_snapshots(paper_spec, n_shots=2)
        first = snaps.profiles[0]
        for x in (first.x + 6.0, first.x[::2]):
            moved = lv.WaveProfile(x=x, u=first.u[: x.size], v=first.v[: x.size])
            with pytest.raises(ValueError, match="not all on one grid"):
                Snapshots(times=snaps.times, profiles=(first, moved))

    def test_snapshots_refuse_profiles_of_other_components(self, paper_spec):
        first = self._translated_snapshots(paper_spec, n_shots=1).profiles[0]
        two = lv.WaveProfile(x=first.x, u=first.u, v=first.v)
        for profiles in ((two, first), (first, two)):
            with pytest.raises(ValueError, match="snapshots do not all carry the same components"):
                Snapshots(times=np.array([0.0, 1.0]), profiles=profiles)


class TestSubSuper:
    def test_constant_super_at_replaced_background(self):
        # background held at the value achieving the lower bound
        x = np.linspace(-10.0, 10.0, 201)
        background = lv.WaveProfile(
            x=x, u=np.full_like(x, 0.05), v=np.zeros_like(x)
        )
        ctx = FisherContext(
            d3=1.0, theta=0.5, sigma3=1.0, c31=0.5, c32=0.01, c33=1.0,
            background=background,
        )
        # coupling = 0.5 * 0.05 = 0.025; amplitude satisfies the ceiling test
        report = lv.check_sub_super(ctx, lv.constant_candidate(1.0), Side.SUPER)
        assert report.passed
        assert report.item("super").margin == pytest.approx(0.025, abs=1e-12)

    def test_tanh_pulse_sub_when_discriminant_condition_holds(self, fisher_ctx):
        report = lv.check_sub_super(fisher_ctx, lv.tanh_pulse_candidate(1.0), Side.SUB)
        assert report.passed

    def test_zero_candidate_is_neutral_sub(self, fisher_ctx):
        report = lv.check_sub_super(fisher_ctx, lv.constant_candidate(0.0), Side.SUB)
        assert report.passed
        assert report.item("sub").margin == 0.0

    def test_sampled_candidate_uses_finite_differences(self, fisher_ctx):
        x = fisher_ctx.background.x
        values = 1.0 * (1.0 - np.tanh(x) ** 2)
        report = lv.check_sub_super(fisher_ctx, lv.sampled_candidate(values), Side.SUB)
        assert report.passed

    def test_sampled_candidate_off_the_grid_rejected(self, fisher_ctx):
        with pytest.raises(ValueError, match="sampled candidate does not match the grid"):
            lv.check_sub_super(fisher_ctx, lv.sampled_candidate(np.ones(5)), Side.SUB)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: lv.constant_candidate(np.nan), "amplitude must be finite, got nan"),
            (lambda: lv.tanh_pulse_candidate(np.inf), "amplitude must be finite, got inf"),
            (lambda: lv.sampled_candidate([0.0, np.nan]), "sampled candidate values must be finite"),
            (lambda: lv.numerics.Candidate(kind="bogus"), "unknown candidate kind 'bogus'"),
            # beyond BLOWUP_LIMIT the audit's residual overflowed into numpy warnings
            (lambda: lv.constant_candidate(1e300), "|amplitude| = 1e+300 is above the admissible "
             "limit BLOWUP_LIMIT = 1e+12"),
            (lambda: lv.tanh_pulse_candidate(-2e12), "|amplitude| = 2000000000000.0 is above"),
            (lambda: lv.sampled_candidate([0.0, 1e200]), "max |values| = 1e+200 is above"),
        ],
        ids=["constant-nan", "tanh_pulse-inf", "sampled-nan", "unknown-kind", "constant-1e300",
             "tanh_pulse-negative-2e12", "sampled-1e200"],
    )
    def test_candidate_refuses_what_cannot_be_audited(self, make, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()


class TestSolveFisher:
    def test_lvwaves_loads_no_scipy(self, tmp_path, demo_two_wave):
        # a fresh interpreter: this one loads scipy for the solve's oracle
        lv.wave_profile(demo_two_wave, np.linspace(-40.0, 40.0, 801)).to_csv(tmp_path / "bg.csv")
        (tmp_path / "p.json").write_text(json.dumps({
            "d3": 2, "theta": 6, "sigma3": 10, "c31": 0.5, "c32": 0.01, "c33": 1,
            "K_sub": 1, "K_super": 12,
        }))
        code = """
import sys
import numpy as np
import lvwaves as lv
from lvwaves.cli import main
x = np.linspace(-10.0, 10.0, 201)
background = lv.WaveProfile(x=x, u=np.full_like(x, 0.05), v=np.zeros_like(x))
ctx = lv.FisherContext(
    d3=1.0, theta=0.5, sigma3=1.0, c31=0.5, c32=0.01, c33=1.0, background=background
)
sol = lv.solve_fisher_bvp(ctx, lv.constant_candidate(0.0), lv.constant_candidate(1.0))
assert sol.residual < 1e-8
work = sys.argv[1]
argv = ["fisher", "--params", work + "/p.json", "--background", work + "/bg.csv",
        "--relaxation", "15", "--out", work + "/out"]
assert main(argv) == 0
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, f"lvwaves loaded {loaded}"
"""
        src = Path(__file__).resolve().parents[1] / "src"
        run = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
        assert run.returncode == 0, run.stderr
        assert json.loads((tmp_path / "out" / "report.json").read_text())["solved"]

    def test_residual_history_has_one_entry_per_sweep(self, fisher_ctx):
        for tol, max_iter in ((1e30, 1), (1e30, 3), (1e-8, 200)):
            sol = lv.solve_fisher_bvp(
                fisher_ctx, lv.tanh_pulse_candidate(1.0), lv.constant_candidate(12.0),
                tol=tol, max_iter=max_iter,
            )
            history = sol.residual_history
            assert len(history) == sol.iterations
            assert history[-1] == sol.residual
            assert all(res >= tol for res in history[:-1])

    def test_demo_instance_converges(self, fisher_ctx):
        w_sub = lv.tanh_pulse_candidate(1.0)
        w_super = lv.constant_candidate(12.0)
        sol = lv.solve_fisher_bvp(
            fisher_ctx, w_sub, w_super, tol=1e-8, max_iter=200, relaxation=15.0
        )
        assert sol.iterations <= 200
        assert sol.residual < 1e-8
        x = fisher_ctx.background.x
        sub_vals = w_sub.sample(x)
        assert np.all(sol.profile.w >= sub_vals - 1e-10)
        assert np.all(sol.profile.w <= 12.0 + 1e-10)
        assert abs(sol.profile.w[0]) < 1e-6 and abs(sol.profile.w[-1]) < 1e-6
        assert np.max(sol.profile.w) > 1.0

    def test_default_relaxation_is_the_slope_bound(self, fisher_ctx):
        # sup |d reaction / d w| on the bracket is 2 c33 12 - (sigma3 - c31) =
        # 14.5; the older default sigma3 + 2 c33 max(w_super) = 34 needed 319
        # sweeps, past the default max_iter of 200
        sol = lv.solve_fisher_bvp(
            fisher_ctx, lv.tanh_pulse_candidate(1.0), lv.constant_candidate(12.0)
        )
        print(f"default relaxation {sol.relaxation}: {sol.iterations} sweeps")
        assert sol.relaxation == pytest.approx(14.5, abs=1e-6)
        assert sol.iterations <= 200
        assert sol.residual < 1e-8

    def test_solution_profile_roundtrips_csv(self, tmp_path, fisher_ctx):
        sol = lv.solve_fisher_bvp(
            fisher_ctx, lv.tanh_pulse_candidate(1.0), lv.constant_candidate(12.0),
            tol=1e-6, max_iter=200, relaxation=15.0,
        )
        sol.profile.to_csv(tmp_path / "w.csv")
        back = lv.ScalarProfile.from_csv(tmp_path / "w.csv")
        assert np.array_equal(back.x, sol.profile.x)
        assert np.array_equal(back.w, sol.profile.w)

    def test_uniformly_negative_growth_gives_zero(self, demo_two_wave):
        x = np.linspace(-40.0, 40.0, 801)
        ctx = FisherContext(
            d3=2.0, theta=6.0, sigma3=0.05, c31=0.5, c32=0.01, c33=1.0,
            background=lv.wave_profile(demo_two_wave, x),
        )
        sol = lv.solve_fisher_bvp(
            ctx, lv.constant_candidate(0.0), lv.constant_candidate(0.2),
            tol=1e-10, max_iter=200,
        )
        assert np.max(np.abs(sol.profile.w)) < 1e-6

    @pytest.mark.parametrize("name", ["c33", "d3"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
    def test_context_refuses_bad_rates(self, fisher_ctx, name, value):
        with pytest.raises(ValueError, match=f"{name} must be strictly positive and finite"):
            replace(fisher_ctx, **{name: value})

    @pytest.mark.parametrize("name", ["theta", "sigma3", "c31", "c32"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_context_refuses_non_finite_fields(self, fisher_ctx, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
            replace(fisher_ctx, **{name: value})

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-8])
    def test_bad_tol_rejected(self, fisher_ctx, tol):
        with pytest.raises(ValueError) as info:
            lv.solve_fisher_bvp(
                fisher_ctx, lv.tanh_pulse_candidate(1.0), lv.constant_candidate(12.0), tol=tol
            )
        assert str(info.value) == f"tol must be strictly positive and finite, got {tol}"

    def test_not_ordered_rejected(self, fisher_ctx):
        with pytest.raises(NotOrderedError):
            lv.solve_fisher_bvp(
                fisher_ctx, lv.constant_candidate(2.0), lv.constant_candidate(1.0)
            )

    def test_invalid_sub_candidate_rejected(self, fisher_ctx):
        # an amplitude far above the carrying level is not a subsolution
        with pytest.raises(DomainError):
            lv.solve_fisher_bvp(
                fisher_ctx, lv.constant_candidate(11.0), lv.constant_candidate(12.0)
            )

    def test_max_iter_exceeded(self, fisher_ctx):
        with pytest.raises(MaxIterExceededError):
            lv.solve_fisher_bvp(
                fisher_ctx,
                lv.tanh_pulse_candidate(1.0),
                lv.constant_candidate(12.0),
                tol=1e-12,
                max_iter=2,
            )

    @pytest.mark.parametrize("relaxation", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_relaxation_rejected(self, fisher_ctx, relaxation):
        with pytest.raises(ValueError, match=f"relaxation must be finite, got {relaxation}"):
            lv.solve_fisher_bvp(
                fisher_ctx, lv.tanh_pulse_candidate(1.0), lv.constant_candidate(12.0),
                relaxation=relaxation,
            )

    def test_relaxation_below_slope_bound_rejected(self, fisher_ctx):
        with pytest.raises(ValueError, match="relaxation 1.0 is below the reaction slope bound"):
            lv.solve_fisher_bvp(
                fisher_ctx, lv.tanh_pulse_candidate(1.0), lv.constant_candidate(12.0),
                relaxation=1.0,
            )

    @pytest.mark.parametrize("theta", [6.0, -6.0])
    def test_coarse_grid_refused_by_cell_peclet_number(self, demo_two_wave, theta):
        # h = 0.2 and d3 = 0.2 give Peclet 3; unrefused, the iterates lose
        # their ordering at the first sweep, which does not name the cause
        ctx = FisherContext(
            d3=0.2, theta=theta, sigma3=10.0, c31=0.5, c32=0.01, c33=1.0,
            background=lv.wave_profile(demo_two_wave, np.linspace(-40.0, 40.0, 401)),
        )
        match = (
            r"cell Peclet number .* = 3\.0\d* exceeds 1 for h=0\.2\d*, d3=0\.2, "
            rf"theta={theta}: .* h <= 2 d3 / \|theta\| = 0\.0666"
        )
        with pytest.raises(DomainError, match=match):
            lv.solve_fisher_bvp(ctx, lv.constant_candidate(0.0), lv.constant_candidate(12.0))

    def test_context_refuses_background_of_two_nodes(self, fisher_ctx):
        x = np.array([0.0, 1.0])
        background = lv.WaveProfile(x=x, u=np.ones_like(x), v=np.zeros_like(x))
        with pytest.raises(ValueError, match="grid needs at least three nodes"):
            replace(fisher_ctx, background=background)

    def test_solution_audits_at_its_own_residual(self, fisher_ctx):
        # the audit of a returned profile, as a sampled candidate, uses the
        # solver's discrete operator: its worst residual is the solver's
        # residual bit for bit
        mismatched = []
        for sigma3, k_sub, max_iter in itertools.product(
            (9.5, 10.0, 10.5), (0.75, 1.0, 1.25), (1, 2, 5, 400)
        ):
            ctx = replace(fisher_ctx, sigma3=sigma3)
            sol = lv.solve_fisher_bvp(
                ctx, lv.tanh_pulse_candidate(k_sub), lv.constant_candidate(12.0),
                tol=1e-8 if max_iter == 400 else 1e30, max_iter=max_iter,
            )
            audited = lv.sampled_candidate(sol.profile.w)
            worst = max(
                abs(lv.check_sub_super(ctx, audited, side).items[0].details["worst_residual"])
                for side in Side
            )
            if worst != sol.residual:
                mismatched.append((sigma3, k_sub, max_iter, worst, sol.residual))
        assert not mismatched, f"{len(mismatched)} of 36 solves audit off their residual"

    def test_manufactured_solution_converges_at_second_order(self, manufactured_ladder):
        errors = [error for _, error in manufactured_ladder]
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        print(f"sup errors {errors}, observed orders {orders}")
        assert all(sol.residual < 1e-10 for sol, _ in manufactured_ladder)
        assert np.all((1.9 <= orders) & (orders <= 2.1)), orders

    def test_rejected_newton_attempts_resume_the_sweeps(self, manufactured_ladder):
        # the first attempt follows the first sweep; more sweeps than one
        # mean an attempt was discarded and the sweeps went on
        sol, _ = manufactured_ladder[0]
        sweeps = sol.iterations - sol.newton_steps
        print(f"{sweeps} sweeps and {sol.newton_steps} Newton steps")
        assert sol.newton_steps > 0 and sweeps > 1
        assert len(sol.residual_history) == sol.iterations
        slack = lv.numerics.ORDERING_SLACK * 5.55
        assert np.all(sol.profile.w >= -slack) and np.all(sol.profile.w <= 5.55 + slack)

    def test_demo_instance_takes_one_sweep_and_a_newton_finish(self, fisher_ctx):
        sol = lv.solve_fisher_bvp(
            fisher_ctx, lv.tanh_pulse_candidate(1.0), lv.constant_candidate(12.0),
            relaxation=16.0,
        )
        assert (sol.iterations, sol.newton_steps) == (8, 7)
        assert sol.residual < 1e-12
        # each kept Newton step lowers the residual
        assert all(b < a for a, b in zip(sol.residual_history, sol.residual_history[1:]))

    def test_bracket_the_discrete_operator_does_not_order_is_refused(self, paper_spec):
        # both analytic audits pass at h = 0.2, but the sampled pulse is not
        # a subsolution of the central differences the sweeps iterate; it
        # ended in "iterate fell below w_sub at sweep 1770"
        ctx = _manufactured_context(paper_spec, 201)
        sub, sup = lv.tanh_pulse_candidate(0.9), lv.constant_candidate(5.55)
        assert lv.check_sub_super(ctx, sub, Side.SUB).passed
        assert lv.check_sub_super(ctx, sup, Side.SUPER).passed
        match = (
            r"^the tanh_pulse subsolution is not a discrete subsolution: margin "
            r"-0\.02500\d* at x = -0\.79999\d*, below -CANDIDATE_TOL = -1e-12$"
        )
        with pytest.raises(DomainError, match=match):
            lv.solve_fisher_bvp(ctx, sub, sup, tol=1e-10, max_iter=4000)

    def test_iterates_decrease_monotonically(self, fisher_ctx):
        # the one-sweep result dominates the converged solution pointwise
        w_sub = lv.tanh_pulse_candidate(1.0)
        first = lv.solve_fisher_bvp(
            fisher_ctx, w_sub, lv.constant_candidate(12.0), tol=1e30, max_iter=1
        )
        final = lv.solve_fisher_bvp(
            fisher_ctx, w_sub, lv.constant_candidate(12.0),
            tol=1e-8, max_iter=200, relaxation=15.0,
        )
        assert np.all(final.profile.w <= first.profile.w + 1e-9)


def _tridiagonal_systems():
    """Seeded diagonally dominant systems as the solver builds them:
    (lower, diag, upper, rhs), with +0.0 and -0.0 right-hand-side entries."""
    rng = np.random.default_rng(19)
    for m in (1, 2, 3, 800):
        cases = [(1.0, 0.5, 4.0, 0.0), (1.0, 0.5, -4.0, 0.0)]  # Peclet exactly 1
        for _ in range(6):
            d3, h = rng.uniform(0.1, 4.0), rng.uniform(0.01, 0.5)
            theta = rng.uniform(-1.0, 1.0) * 2.0 * d3 / h
            cases.append((d3, h, theta, rng.choice([0.0, rng.uniform(0.0, 30.0)])))
        for d3, h, theta, relax in cases:
            lower = d3 / (h * h) - theta / (2.0 * h)
            diag = -2.0 * d3 / (h * h) - relax
            upper = d3 / (h * h) + theta / (2.0 * h)
            for zeros in (0.2, 0.8):
                rhs = rng.normal(size=m) * 10.0 ** rng.integers(-300, 100)
                draw = rng.random(m)
                rhs[draw < zeros] = 0.0
                rhs[draw < zeros / 2] = -0.0
                yield lower, diag, upper, rhs
            # -0.0 ahead of a sign change: with a zero superdiagonal only
            # dgtsv's 0.0 * x[i + 2] term turns the solution's -0.0 into +0.0
            rhs = np.full(m, -0.0)
            rhs[-2:] = (-1.0, 3.0)[-m:]
            yield lower, diag, upper, rhs


def _newton_systems():
    """Seeded systems shaped as a Newton step's Jacobian: the sweep matrix's
    constant off-diagonals and a diagonal -2 d3 / h**2 + g - 2 c33 w that
    varies per row (g - 2 c33 w drawn from [-40, 40], as on the solver's
    demo brackets), kept where dgtsv swaps no rows: each pivot is at least
    |lower| in magnitude.  Twenty of each size; right-hand sides carry +0.0
    and -0.0 entries."""
    rng = np.random.default_rng(29)
    for m in (1, 2, 3, 800):
        kept = 0
        while kept < 20:
            d3, h = rng.uniform(0.1, 4.0), rng.uniform(0.01, 0.5)
            theta = rng.uniform(-1.0, 1.0) * 2.0 * d3 / h
            lower = d3 / (h * h) - theta / (2.0 * h)
            upper = d3 / (h * h) + theta / (2.0 * h)
            diag = -2.0 * d3 / (h * h) + rng.uniform(-40.0, 40.0, size=m)
            pivot, swaps = diag[0], False
            for entry in diag[1:]:
                swaps |= not abs(pivot) >= abs(lower)
                pivot = entry - lower / pivot * upper
            if swaps or pivot == 0.0:
                continue
            rhs = rng.normal(size=m) * 10.0 ** rng.integers(-300, 100)
            draw = rng.random(m)
            rhs[draw < 0.2] = 0.0
            rhs[draw < 0.1] = -0.0
            kept += 1
            yield lower, diag, upper, rhs


class TestTridiagonalSolve:
    def test_matches_lapack_gtsv_bit_for_bit(self):
        # the oracle only: the package itself never imports scipy
        from scipy.linalg import solve_banded

        mismatched, count = [], 0
        for lower, diag, upper, rhs in _tridiagonal_systems():
            m = rhs.size
            band = np.zeros((3, m))
            band[0, 1:], band[1], band[2, :-1] = upper, diag, lower
            expected = solve_banded((1, 1), band, rhs)
            pivots, facts = _tridiagonal_factors(lower, [diag] * m, upper)
            got = np.array(_tridiagonal_solve(pivots, facts, upper, rhs.tolist()))
            count += 1
            if not np.array_equal(got.view(np.int64), expected.view(np.int64)):
                mismatched.append((m, lower, diag, upper))
        assert count == 96
        assert not mismatched, f"{len(mismatched)} of {count} solves differ from dgtsv"

    def test_newton_jacobians_match_lapack_gtsv_bit_for_bit(self):
        # a per-row diagonal, as a Newton step's Jacobian has, on systems
        # where dgtsv's partial pivoting swaps no rows; scipy is the oracle only
        from scipy.linalg import solve_banded

        mismatched, count, dominated = [], 0, 0
        for lower, diag, upper, rhs in _newton_systems():
            band = np.zeros((3, rhs.size))
            band[0, 1:], band[1], band[2, :-1] = upper, diag, lower
            expected = solve_banded((1, 1), band, rhs)
            pivots, facts = _tridiagonal_factors(lower, diag.tolist(), upper)
            got = np.array(_tridiagonal_solve(pivots, facts, upper, rhs.tolist()))
            count += 1
            dominated += bool(np.all(np.abs(diag) >= abs(lower) + abs(upper)))
            if not np.array_equal(got.view(np.int64), expected.view(np.int64)):
                mismatched.append((rhs.size, lower, upper))
        # unlike a sweep's matrix, most of these systems are not diagonally dominant
        assert count == 80 and dominated < count // 2, (count, dominated)
        assert not mismatched, f"{len(mismatched)} of {count} solves differ from dgtsv"

    def test_a_zero_pivot_ends_the_elimination(self):
        assert _tridiagonal_factors(1.0, [1.0, 1.0, 5.0], 1.0) is None
        assert _tridiagonal_factors(1.0, [2.0, 0.5], 1.0) is None
        assert _tridiagonal_factors(1.0, [-0.0], 1.0) is None
        assert _tridiagonal_factors(1.0, [2.0, 3.0], 1.0) == ([2.0, 2.5], [0.5])
