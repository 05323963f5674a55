"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines as they
happen.  Criterion 8's hypothesis search is implemented faithfully and fails
by design: the four existence hypotheses are mutually exclusive as
formulated (H3 forces the invader growth rate above the upper coupling
bound, H1 forces it below c31, and the bound is at least c31).  See the
README's known-limitations section.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import lvwaves as lv
from lvwaves.cli import main
from lvwaves.model import Regime
from lvwaves.nbarrier import BoundSide, ConicKind
from lvwaves.numerics import BoundaryKind, GridSpec, Scheme, SimConfig

F = Fraction


@contextmanager
def criterion(num, description, budget_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num:02d}] FAIL {description}")
        raise
    elapsed = time.monotonic() - start
    status = "PASS" if elapsed < budget_s else "FAIL (over budget)"
    print(f"\n[criterion {num:02d}] {status} {description} [{elapsed:.2f}s < {budget_s}s]")
    assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeds {budget_s}s"


PAPER_MATRIX = [
    [F(41), F(41, 5), F(31, 5)],
    [F(69), F(34, 5), F(4, 5)],
    [F(51), F(36, 5), F(6, 5)],
]


def test_criterion_01_coefficient_reproduction(tmp_path, paper_spec):
    with criterion(1, "coefficient matrix reproduction (exact and float)", 1.0):
        cfg = tmp_path / "free.json"
        cfg.write_text(json.dumps(
            {"k1": 1, "k2": 1, "d1": 1, "d2": 1, "d3": 1,
             "theta": 3, "sigma1": 41, "sigma2": 41, "sigma3": 41}
        ))
        out = tmp_path / "out"
        assert main(["exact-wave", "--params", str(cfg), "--out", str(out)]) == 0
        data = json.loads((out / "report.json").read_text())
        assert data["c_exact"] == [[str(v) for v in row] for row in PAPER_MATRIX]
        assert data["u_star_exact"] == "1/5"
        assert data["v_star_exact"] == "4"

        assert paper_spec.params.competition_matrix() == PAPER_MATRIX

        float_spec = lv.induce_coefficients(lv.FreeParams(
            k1=1.0, k2=1.0, d1=1.0, d2=1.0, d3=1.0,
            theta=3.0, sigma1=41.0, sigma2=41.0, sigma3=41.0,
        ))
        for row, expected_row in zip(
            float_spec.params.competition_matrix(), PAPER_MATRIX
        ):
            for got, expected in zip(row, expected_row):
                assert abs(got - float(expected)) <= 1e-14 * float(expected)
        assert abs(float_spec.u_star - 0.2) <= 1e-14
        assert abs(float_spec.v_star - 4.0) <= 1e-14 * 4


def test_criterion_02_exact_wave_residual(paper_spec):
    with criterion(2, "exact-wave residuals < 1e-10 on 2001 points", 1.0):
        grid = np.linspace(-10.0, 10.0, 2001)
        r1, r2, r3 = lv.residual(paper_spec, grid)
        assert r1 < 1e-10 and r2 < 1e-10 and r3 < 1e-10


def test_criterion_03_conic_classification(weak_params):
    with criterion(3, "conic classification at the tabulated weights", 1.0):
        for sign in (+1, -1):
            beta = 7.5 + sign * 3 * np.sqrt(6)
            conic = lv.conic_classify(weak_params, 2.0, beta)
            assert conic.kind is ConicKind.PARABOLA
            assert abs(conic.discriminant) < 1e-9
        assert lv.conic_classify(weak_params, F(1, 2), F(4)).kind is ConicKind.HYPERBOLA
        assert lv.conic_classify(weak_params, F(2), F(3, 20)).kind is ConicKind.HYPERBOLA
        assert lv.conic_classify(weak_params, F(2), F(3)).kind is ConicKind.ELLIPSE


def test_criterion_04_barrier_tables():
    with criterion(4, "all eight tabulated barrier triples exact", 1.0):
        def params(d2):
            return lv.TwoSpeciesParams(
                d1=F(1), d2=d2, sigma1=F(1), sigma2=F(1),
                c11=F(1), c12=F(2), c21=F(3), c22=F(1),
            )

        lower_cases = [
            (F(17), F(18), F(2), (F(17, 6), F(17, 3), F(17, 6))),
            (F(17), F(5), F(2), (F(5, 2), F(5), F(5, 2))),
            (F(17), F(18), F(2, 3), (F(34, 9), F(17, 3), F(17, 3))),
            (F(17), F(18), F(1, 2), (F(9, 4), F(9, 2), F(9, 2))),
        ]
        upper_cases = [
            (F(17), F(18), F(2), (F(72), F(36), F(36))),
            (F(17), F(5), F(2), (F(34), F(17), F(17))),
            (F(17), F(33), F(2, 3), (F(33), F(22), F(33))),
            (F(17), F(18), F(1, 2), (F(34), F(17), F(34))),
        ]
        for alpha, beta, d2, expected in lower_cases:
            b = lv.construct_barrier(params(d2), alpha, beta, BoundSide.LOWER)
            assert (b.lambda1, b.lambda2, b.eta) == expected
        for alpha, beta, d2, expected in upper_cases:
            b = lv.construct_barrier(params(d2), alpha, beta, BoundSide.UPPER)
            assert (b.lambda1, b.lambda2, b.eta) == expected


def test_criterion_05_density_ceiling_on_exact_wave(paper_spec):
    with criterion(5, "combined density of the exact wave under 205/34", 1.0):
        block = paper_spec.params.two_species_block()
        q_up = lv.upper_bound(block, F(1), F(1))
        assert q_up == F(205, 34)
        x = np.linspace(-40.0, 40.0, 8001)
        u, v, _ = lv.evaluate_wave(paper_spec, x)
        combined = u + v
        assert np.all(combined <= float(q_up) + 1e-12)
        margin = float(q_up) - float(np.max(combined))
        assert margin == pytest.approx(float(F(311, 170)), abs=1e-9)


def test_criterion_06_kinetic_regimes():
    with criterion(6, "kinetic limits per regime and bistable split", 5.0):
        def params(c12, c21):
            return lv.TwoSpeciesParams(
                d1=F(1), d2=F(1), sigma1=F(1), sigma2=F(1),
                c11=F(1), c12=c12, c21=c21, c22=F(1),
            )

        exclusion_u = params(F(1, 2), F(3))
        traj = lv.integrate_ode(exclusion_u, 0.5, 0.5, t_end=500.0, dt=0.05)
        assert abs(traj.u[-1] - 1.0) < 1e-4 and abs(traj.v[-1]) < 1e-4

        exclusion_v = params(F(3), F(1, 2))
        traj = lv.integrate_ode(exclusion_v, 0.5, 0.5, t_end=500.0, dt=0.05)
        assert abs(traj.u[-1]) < 1e-4 and abs(traj.v[-1] - 1.0) < 1e-4

        weak = params(F(1, 2), F(2, 3))
        eq = lv.coexistence_equilibrium(weak)
        traj = lv.integrate_ode(weak, 0.1, 0.1, t_end=500.0, dt=0.05)
        assert abs(traj.u[-1] - float(eq.u)) < 1e-4
        assert abs(traj.v[-1] - float(eq.v)) < 1e-4

        strong = params(F(2), F(3))
        assert lv.classify_regime(strong) is Regime.STRONG
        toward_u = lv.integrate_ode(strong, 0.5, 0.1, t_end=500.0, dt=0.05)
        assert abs(toward_u.u[-1] - 1.0) < 1e-4 and abs(toward_u.v[-1]) < 1e-4
        toward_v = lv.integrate_ode(strong, 0.1, 0.5, t_end=500.0, dt=0.05)
        assert abs(toward_v.u[-1]) < 1e-4 and abs(toward_v.v[-1] - 1.0) < 1e-4


def test_criterion_07_traveling_wave_tracking(paper_spec):
    with criterion(7, "PDE tracks the exact wave (1e-3) and its speed (2%)", 60.0):
        grid = GridSpec(-60.0, 60.0, 2401, BoundaryKind.DIRICHLET_FROM_PROFILE)
        x = grid.x()
        init = lv.wave_profile(paper_spec, x)
        cfg = SimConfig(grid=grid, t_end=2.0, dt="auto", scheme=Scheme.RK4MOL,
                        n_snapshots=11)
        snaps = lv.simulate_pde(paper_spec.params, init, cfg)
        mask = (x >= -40.0) & (x <= 40.0)
        worst = 0.0
        for t, prof in zip(snaps.times, snaps.profiles):
            ue, ve, we = lv.evaluate_wave(paper_spec, x - 3.0 * t)
            worst = max(
                worst,
                float(np.max(np.abs(prof.u - ue)[mask])),
                float(np.max(np.abs(prof.v - ve)[mask])),
                float(np.max(np.abs(prof.w - we)[mask])),
            )
        assert worst <= 1e-3, f"sup tracking error {worst}"
        est = lv.estimate_front_speed(snaps, "u", 0.4)
        assert abs(est.speed - 3.0) <= 0.02 * 3.0, f"speed {est.speed}"


def test_criterion_08_existence_lattice_search(demo_two_wave):
    with criterion(8, "existence hypotheses H1-H4 satisfiable on the lattice", 30.0):
        block = demo_two_wave.params
        theta = demo_two_wave.theta
        lattice = dict(
            d3=[F(1, 2), F(1), F(2)],
            sigma3=[F(1, 8), F(1, 4), F(1, 2), F(1), F(2), F(4), F(8), F(16)],
            c31=[F(1, 4), F(1, 2), F(1), F(2), F(4), F(8), F(16)],
            c32=[F(1, 100), F(1, 10), F(1, 2), F(1)],
            c33=[F(1, 2), F(1), F(2)],
            K_sub=[F(1, 4), F(1), F(2)],
            K_super=[F(2), F(6), F(12), F(24)],
        )
        passing = []
        partial = {"H1H2H4": 0, "H2H3H4": 0}
        for combo in itertools.product(*lattice.values()):
            values = dict(zip(lattice.keys(), combo))
            inputs = lv.ExistenceInputs(two_species=block, theta=theta, **values)
            report = lv.existence_report(inputs)
            ok = {item.name: item.passed for item in report.items}
            if ok["H1"] and ok["H2"] and ok["H4"]:
                partial["H1H2H4"] += 1
            if ok["H2"] and ok["H3"] and ok["H4"]:
                partial["H2H3H4"] += 1
            if report.passed:
                passing.append(values)
        # the search machinery finds every three-way corner ...
        assert partial["H1H2H4"] > 0
        assert partial["H2H3H4"] > 0
        # ... but the full conjunction is provably empty: H3 needs
        # sigma3 > q_upper >= c31 while H1 needs sigma3 < c31.  Recorded in
        # the ledger and README; this assertion is expected to fail.
        assert passing, (
            "no lattice point satisfies H1-H4 together; the hypothesis set is "
            "mutually exclusive as formulated (H3 forces sigma3 above the upper "
            "coupling bound, H1 below c31 <= that bound). The solver pipeline "
            "itself is demonstrated under H2-H4 in test_numerics.py."
        )
        inputs = lv.ExistenceInputs(two_species=block, theta=theta, **passing[0])
        x = np.linspace(-40.0, 40.0, 801)
        ctx = lv.FisherContext(
            d3=inputs.d3, theta=theta, sigma3=inputs.sigma3,
            c31=inputs.c31, c32=inputs.c32, c33=inputs.c33,
            background=lv.wave_profile(demo_two_wave, x),
        )
        sol = lv.solve_fisher_bvp(
            ctx,
            lv.tanh_pulse_candidate(float(inputs.K_sub)),
            lv.constant_candidate(float(inputs.K_super)),
            tol=1e-8,
            max_iter=200,
        )
        w_sub_vals = lv.tanh_pulse_candidate(float(inputs.K_sub)).sample(x)
        assert np.all(sol.profile.w >= w_sub_vals - 1e-10)
        assert np.all(sol.profile.w <= float(inputs.K_super) + 1e-10)
        assert abs(sol.profile.w[0]) < 1e-6 and abs(sol.profile.w[-1]) < 1e-6


def test_criterion_09_nonexistence_falsifier():
    with criterion(9, "invader bump decays on the nonexistence instance", 60.0):
        p = lv.ThreeSpeciesParams(
            d1=F(1), d2=F(1), d3=F(1),
            sigma1=F(1), sigma2=F(1), sigma3=F(1, 10),
            c11=F(1), c12=F(2), c13=F(0),
            c21=F(3), c22=F(1), c23=F(0),
            c31=F(1), c32=F(1), c33=F(1),
        )
        audit = lv.nonexistence_report(p)
        assert audit.passed, "the derived instance must satisfy A1-A3"

        eq = lv.coexistence_equilibrium(p.two_species_block())
        grid = GridSpec(-40.0, 40.0, 801)
        x = grid.x()
        t = np.tanh(x)
        u0 = 0.5 * (float(eq.u) + 1.0) + 0.5 * (float(eq.u) - 1.0) * t
        v0 = float(eq.v) / 4.0 * (1.0 + t) ** 2
        w0 = 0.05 * (1.0 - t * t)
        init = lv.WaveProfile(x=x, u=u0, v=v0, w=w0)
        cfg = SimConfig(grid=grid, t_end=20.0, n_snapshots=21)
        snaps = lv.simulate_pde(p, init, cfg)
        sup_w = np.array([float(np.max(prof.w)) for prof in snaps.profiles])
        assert sup_w[0] == pytest.approx(0.05, abs=1e-12)
        transient = max(1, len(sup_w) // 10)
        tail = sup_w[transient:]
        assert np.all(np.diff(tail) <= 1e-12), "sup w must decrease after the transient"
        assert sup_w[-1] < 0.1 * sup_w[0]


def test_criterion_10_randomized_invariant_suite(demo_two_wave):
    with criterion(10, "randomized invariant suites (>= 1000 cases)", 30.0):
        rng = random.Random(20240817)
        cases = 0

        def rand_frac(lo=1, hi=64):
            return F(rng.randint(lo, hi), rng.randint(lo, hi))

        # bounds: homogeneity, relabeling symmetry, ordering
        evaluated = 0
        while evaluated < 350:
            p = lv.TwoSpeciesParams(
                d1=rand_frac(), d2=rand_frac(), sigma1=rand_frac(), sigma2=rand_frac(),
                c11=rand_frac(), c12=rand_frac(), c21=rand_frac(), c22=rand_frac(),
            )
            if lv.classify_regime(p) not in (Regime.STRONG, Regime.WEAK):
                continue
            alpha, beta, k = rand_frac(), rand_frac(), rand_frac()
            lo, hi = lv.lower_bound(p, alpha, beta), lv.upper_bound(p, alpha, beta)
            assert lo <= hi
            assert lv.lower_bound(p, k * alpha, k * beta) == k * lo
            assert lv.upper_bound(p, k * alpha, k * beta) == k * hi
            q = p.swapped()
            assert lv.lower_bound(q, beta, alpha) == lo
            assert lv.upper_bound(q, beta, alpha) == hi
            evaluated += 1
        cases += evaluated

        # evenness: range, symmetry, scale invariance
        for _ in range(350):
            u, v, k = rand_frac(), rand_frac(), rand_frac()
            j = lv.evenness_index(u, v)
            assert 0.0 <= j <= 1.0 + 1e-15
            assert abs(lv.evenness_index(v, u) - j) < 1e-12
            assert abs(lv.evenness_index(k * u, k * v) - j) < 1e-12
            cases += 1

        # conic: strong competition always yields a hyperbola
        evaluated = 0
        while evaluated < 250:
            s1, s2, c11, c22 = rand_frac(), rand_frac(), rand_frac(), rand_frac()
            p = lv.TwoSpeciesParams(
                d1=rand_frac(), d2=rand_frac(), sigma1=s1, sigma2=s2,
                c11=c11, c22=c22,
                c21=(s2 * c11 / s1) * (1 + rand_frac()),
                c12=(s1 * c22 / s2) * (1 + rand_frac()),
            )
            assert lv.conic_classify(p, rand_frac(), rand_frac()).kind is ConicKind.HYPERBOLA
            evaluated += 1
        cases += evaluated

        # kinetics: equilibria are conserved
        for _ in range(40):
            p = lv.TwoSpeciesParams(
                d1=F(1), d2=F(1),
                sigma1=rand_frac(1, 4), sigma2=rand_frac(1, 4),
                c11=rand_frac(1, 4), c12=rand_frac(1, 4),
                c21=rand_frac(1, 4), c22=rand_frac(1, 4),
            )
            for eq in lv.model.equilibria(p):
                if eq.u < 0 or eq.v < 0:
                    continue
                traj = lv.integrate_ode(p, float(eq.u), float(eq.v), t_end=100.0, dt=0.02)
                assert np.max(np.abs(traj.u - float(eq.u))) < 1e-10
                assert np.max(np.abs(traj.v - float(eq.v))) < 1e-10
                cases += 1

        # monotone iteration: bracket ordering for randomized amplitudes
        x = np.linspace(-40.0, 40.0, 401)
        bg = lv.wave_profile(demo_two_wave, x)
        solver_cases = 0
        while solver_cases < 10:
            sigma3 = 9.0 + rng.random() * 2.0
            k_sub = 0.5 + rng.random()
            k_super = 11.0 + rng.random() * 3.0
            ctx = lv.FisherContext(
                d3=2.0, theta=6.0, sigma3=sigma3, c31=0.5, c32=0.01, c33=1.0,
                background=bg,
            )
            sub = lv.tanh_pulse_candidate(k_sub)
            sup = lv.constant_candidate(k_super)
            if not (
                lv.check_sub_super(ctx, sub, lv.Side.SUB).passed
                and lv.check_sub_super(ctx, sup, lv.Side.SUPER).passed
            ):
                continue
            sol = lv.solve_fisher_bvp(
                ctx, sub, sup, tol=1e-6, max_iter=400,
                relaxation=max(16.0, 2.0 * k_super - 8.0),
            )
            assert np.all(sol.profile.w >= sub.sample(x) - 1e-10)
            assert np.all(sol.profile.w <= k_super + 1e-10)
            solver_cases += 1
        cases += solver_cases

        assert cases >= 1000, f"only {cases} randomized cases were exercised"
        print(f"  randomized invariant cases exercised: {cases}")
