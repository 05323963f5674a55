import itertools
from dataclasses import replace
from fractions import Fraction

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
)
from lvwaves.profiles import uniform_grid

F = Fraction


def reference_simulate(p, init, cfg):
    """Straightforward allocating form of ``simulate_pde``: each rhs call and
    each RK4 stage builds new arrays.  Returns the snapshot states."""
    diff, sigma, comp = lv.numerics._kinetics(p)
    has_w = init.w is not None
    state = np.stack([init.u, init.v] + ([init.w] if has_w else [])).astype(float)
    h = cfg.grid.h
    dt = cfg.resolve_dt(float(np.max(diff)))
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
    background = demo_two_wave.profile(x)
    return FisherContext(
        d3=2.0, theta=6.0, sigma3=10.0, c31=0.5, c32=0.01, c33=1.0,
        background=background,
    )


class TestIntegrateOde:
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

    def test_axis_equilibrium_is_stationary(self, strong_params):
        traj = lv.integrate_ode(strong_params, 1.0, 0.0, t_end=50.0, dt=0.05)
        assert np.max(np.abs(traj.u - 1.0)) < 1e-12
        assert np.max(np.abs(traj.v)) == 0.0

    def test_negative_start_rejected(self, strong_params):
        with pytest.raises(ValueError):
            lv.integrate_ode(strong_params, -0.1, 0.5, t_end=1.0, dt=0.01)

    @pytest.mark.parametrize("name, value", [
        ("u0", np.nan), ("u0", np.inf), ("v0", np.nan), ("t_end", np.inf), ("t_end", np.nan),
        ("dt", np.nan),
    ])
    def test_non_finite_argument_rejected(self, strong_params, name, value):
        kwargs = {"u0": 0.5, "v0": 0.5, "t_end": 1.0, "dt": 0.05, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
            lv.integrate_ode(strong_params, **kwargs)


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
        second = SimConfig(grid=grid, t_end=1.0, space_order=2)
        fourth = SimConfig(grid=grid, t_end=1.0, space_order=4)
        h2 = grid.h**2
        assert second.resolve_dt(1.0) == pytest.approx(0.4 * h2)
        assert fourth.resolve_dt(1.0) == pytest.approx(0.3 * h2)

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
            p, init = demo_two_wave.params, demo_two_wave.profile(x)
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
        with pytest.raises(NegativeDensityError, match="at t=0.05; reduce dt"):
            lv.simulate_pde(stiff, init, cfg)
        # a profile refuses NaN samples, so the NaN is written in after
        # construction and the start is not recorded as a snapshot
        nan = lv.WaveProfile(x=x, u=init.u.copy(), v=init.v)
        nan.u[:] = np.nan
        final_only = SimConfig(grid=grid, t_end=0.1, n_snapshots=1)
        with pytest.raises(BlowupDetectedError, match="admissible range at t=0.05"):
            lv.simulate_pde(strong_params, nan, final_only)
        tiny = F(1, 10**15)
        runaway = lv.TwoSpeciesParams(
            d1=F(1), d2=F(1), sigma1=F(4000), sigma2=F(4000),
            c11=tiny, c12=tiny, c21=tiny, c22=tiny,
        )
        with pytest.raises(BlowupDetectedError, match="admissible range at t=0.1"):
            lv.simulate_pde(runaway, init, cfg)

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

    def test_snapshots_roundtrip(self, tmp_path, strong_params):
        grid = GridSpec(-5.0, 5.0, 51)
        x = grid.x()
        init = lv.WaveProfile(x=x, u=np.ones_like(x), v=np.ones_like(x))
        snaps = lv.simulate_pde(
            strong_params, init, SimConfig(grid=grid, t_end=0.1, n_snapshots=3)
        )
        snaps.to_dir(tmp_path / "snaps")
        back = Snapshots.from_dir(tmp_path / "snaps")
        assert np.array_equal(back.times, snaps.times)
        for a, b in zip(back.profiles, snaps.profiles):
            assert np.array_equal(a.u, b.u)
            assert np.array_equal(a.v, b.v)


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
        with pytest.raises(LevelNotCrossedError):
            lv.estimate_front_speed(snaps, "u", 2.0)

    def test_pulse_crosses_twice(self, paper_spec):
        snaps = self._translated_snapshots(paper_spec, n_shots=2)
        with pytest.raises(LevelNotCrossedError):
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

    def test_single_snapshot_rejected(self, paper_spec):
        snaps = self._translated_snapshots(paper_spec, n_shots=1)
        with pytest.raises(ValueError, match="need at least two snapshots"):
            lv.estimate_front_speed(snaps, "u", 0.4)

    def test_snapshots_refuse_a_time_count_off_the_profile_count(self, paper_spec):
        snaps = self._translated_snapshots(paper_spec, n_shots=2)
        with pytest.raises(ValueError, match="1 times for 2 snapshots"):
            Snapshots(times=snaps.times[:1], profiles=snaps.profiles)

    def test_speed_refuses_snapshots_on_two_grids(self, paper_spec):
        snaps = self._translated_snapshots(paper_spec, n_shots=2)
        first = snaps.profiles[0]
        for x in (first.x + 6.0, first.x[::2]):
            moved = lv.WaveProfile(x=x, u=first.u[: x.size], v=first.v[: x.size])
            two_grids = Snapshots(times=snaps.times, profiles=(first, moved))
            with pytest.raises(ValueError, match="not all on one grid"):
                lv.estimate_front_speed(two_grids, "u", 0.4)


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
        report = lv.check_sub_super(
            fisher_ctx, lv.sampled_candidate(values), Side.SUB, tol=0.05
        )
        assert report.passed


class TestSolveFisher:
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
            background=demo_two_wave.profile(x),
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
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            lv.solve_fisher_bvp(
                fisher_ctx, lv.tanh_pulse_candidate(1.0), lv.constant_candidate(12.0), tol=tol
            )

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

    def test_context_refuses_background_of_two_nodes(self, fisher_ctx):
        x = np.array([0.0, 1.0])
        background = lv.WaveProfile(x=x, u=np.ones_like(x), v=np.zeros_like(x))
        with pytest.raises(ValueError, match="grid needs at least three nodes"):
            replace(fisher_ctx, background=background)

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
