"""The benchmark's three closed-loop workloads.

Each workload builds its inputs from the seed in ``__init__`` (that is set-up
time) and runs one iteration per ``iteration`` call, checking every output it
produces.  A failed check, or an exception raised by the package, counts as a
failed operation in the iteration's :class:`Outcome`; it never aborts the run.
The package only ever sees the generated inputs, never the seed.

* ``wave_tracking`` - the criterion-7 run: the exact tanh wave on 2401 nodes,
  RK4 with the fourth-order stencil to t = 2, sup error and front speed.
* ``exact_audit`` - the criterion-8 lattice of ``existence_report`` calls in
  exact ``Fraction`` arithmetic and again in floats, plus criterion-10 style
  bounds, barrier, conic and nonexistence audits on seeded rationals.
* ``cli_session`` - the README walkthrough through ``lvwaves.cli.main``.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path

import numpy as np

import lvwaves as lv
from lvwaves import cli
from lvwaves.model import Regime
from lvwaves.nbarrier import BoundSide, ConicKind
from lvwaves.numerics import BoundaryKind, GridSpec, Scheme, SimConfig

#: Criterion-7 acceptance bounds.
TRACKING_TOL = 1e-3
SPEED_REL_TOL = 0.02
#: Criterion-2 bound on the exact wave's residual.
RESIDUAL_TOL = 1e-10
#: An exact margin this close to zero is a tie that float rounding may flip.
TIE_TOL = 1e-9


#: Nominal duration of :func:`speed_probe`; rescaled times refer to this speed.
PROBE_REFERENCE_S = 0.002
#: Python-bound work probes the interpreter's speed this often.
PROBE_INTERVAL_NS = 100_000_000


def speed_probe() -> float:
    """Time a fixed piece of interpreted ``Fraction`` arithmetic.

    On a shared machine the interpreter's speed changes by up to 1.7x for
    minutes at a time.  Pure-Python work slows in step with this probe:
    while 500-audit chunks of the criterion-8 lattice swung 2x in time,
    chunk time over probe time stayed within 2 %.  A probe timed next to
    the work lets a Python-bound measurement be rescaled to a fixed speed.
    """
    t0 = time.perf_counter()
    total = F(0)
    for i in range(1, 400):
        total += F(i, i + 7) * F(3, i)
    return time.perf_counter() - t0


@dataclass
class Outcome:
    """Checks made in one iteration, the accuracy and latency it measured,
    and the speed probes taken during it.

    Probes split a Python-bound iteration into chunks; ``chunks`` pairs each
    chunk's duration with the probe taken just before it.
    """

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)
    chunks: list[tuple[float, float]] = field(default_factory=list)
    open_probe_s: float | None = None
    chunk_start_ns: int = 0
    next_probe_ns: int = 0

    def probe_if_due(self, now_ns: int) -> None:
        if now_ns >= self.next_probe_ns:
            self.end_chunk(now_ns)
            self.open_probe_s = speed_probe()
            self.chunk_start_ns = time.perf_counter_ns()
            self.next_probe_ns = self.chunk_start_ns + PROBE_INTERVAL_NS

    def end_chunk(self, now_ns: int) -> None:
        """Close the chunk running since the last probe (call at the end of
        the iteration too)."""
        if self.open_probe_s is not None:
            self.chunks.append((self.open_probe_s, (now_ns - self.chunk_start_ns) / 1e9))
            self.open_probe_s = None

    @property
    def probe_s(self) -> list[float]:
        return [probe for probe, _ in self.chunks]

    def check(self, ok: bool, what) -> None:
        """Count one checked operation; ``what`` (a string, or a callable
        returning one, so hot loops format nothing) describes a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what() if callable(what) else what)


def rand_frac(rng: random.Random, lo: int = 1, hi: int = 64) -> F:
    return F(rng.randint(lo, hi), rng.randint(lo, hi))


def wave_free_params(seed: int) -> dict[str, F]:
    """Free parameters of the three-species tanh wave.

    Seed 0 is the paper's instance (k = d = 1, theta = 3, sigma = 41).  Other
    seeds vary the growth rates and amplitudes in a range where every
    induced coefficient stays positive and the criterion-7 bounds hold
    (worst sup error measured there: 6.9e-4).  The diffusions stay 1, so
    the grid, the time step and the step count are the same for every seed.
    """
    params = dict(k1=F(1), k2=F(1), d1=F(1), d2=F(1), d3=F(1), theta=F(3),
                  sigma1=F(41), sigma2=F(41), sigma3=F(41))
    if seed != 0:
        rng = random.Random(seed)
        for name in ("sigma1", "sigma2", "sigma3"):
            params[name] = F(rng.choice((40, 41, 42)))
        for name in ("k1", "k2"):
            params[name] = rng.choice((F(1), F(9, 8), F(5, 4)))
    return params


class WaveTracking:
    #: numpy-bound: its time barely moves with the interpreter's speed, so
    #: it is measured as plain wall time
    PYTHON_BOUND = False

    def __init__(self, seed: int, workdir: Path):
        self.free = lv.FreeParams(**wave_free_params(seed))
        grid = GridSpec(-60.0, 60.0, 2401, BoundaryKind.DIRICHLET_FROM_PROFILE)
        self.cfg = SimConfig(grid=grid, t_end=2.0, dt="auto", scheme=Scheme.RK4MOL,
                             n_snapshots=11)
        self.x = np.linspace(-60.0, 60.0, 2401)
        self.mask = np.abs(self.x) <= 40.0
        self.residual_grid = np.linspace(-10.0, 10.0, 2001)

    def iteration(self, tr, out: Outcome) -> None:
        theta = float(self.free.theta)
        try:
            spec = lv.induce_coefficients(self.free)
            init = lv.wave_profile(spec, self.x)
            snaps = lv.simulate_pde(spec.params, init, self.cfg)
            with tr.span("bench.check"):
                worst = 0.0
                for t, prof in zip(snaps.times, snaps.profiles):
                    exact = lv.evaluate_wave(spec, self.x - theta * t)
                    for got, ref in zip((prof.u, prof.v, prof.w), exact):
                        worst = max(worst, float(np.max(np.abs(got - ref)[self.mask])))
            speed = lv.estimate_front_speed(snaps, "u", 0.4).speed
            residual = max(lv.residual(spec, self.residual_grid))
        except Exception as exc:  # a package failure is a failed operation
            for what in ("tracking", "speed", "residual"):
                out.check(False, f"{what}: {exc!r}")
            return
        speed_err = abs(speed - theta) / theta
        out.values["max_abs_err"] = worst
        out.values["speed_rel_err"] = speed_err
        out.check(worst <= TRACKING_TOL, f"sup tracking error {worst}")
        out.check(speed_err <= SPEED_REL_TOL, f"front speed {speed}")
        out.check(residual < RESIDUAL_TOL, f"exact-wave residual {residual}")


#: The criterion-8 lattice over the invader's data (24,192 points).
LATTICE = dict(
    d3=[F(1, 2), F(1), F(2)],
    sigma3=[F(1, 8), F(1, 4), F(1, 2), F(1), F(2), F(4), F(8), F(16)],
    c31=[F(1, 4), F(1, 2), F(1), F(2), F(4), F(8), F(16)],
    c32=[F(1, 100), F(1, 10), F(1, 2), F(1)],
    c33=[F(1, 2), F(1), F(2)],
    K_sub=[F(1, 4), F(1), F(2)],
    K_super=[F(2), F(6), F(12), F(24)],
)


@dataclass(frozen=True)
class RandomCase:
    """One criterion-10 style draw: a strong or weak block, weights, a scale
    factor, and a three-species extension for the nonexistence audit."""

    regime: Regime
    params: lv.TwoSpeciesParams
    alpha: F
    beta: F
    k: F
    three: lv.ThreeSpeciesParams


def _random_case(rng: random.Random, regime: Regime) -> RandomCase:
    s1, s2, c11, c22 = (rand_frac(rng) for _ in range(4))
    gap1, gap2 = 1 + rand_frac(rng), 1 + rand_frac(rng)
    if regime is Regime.WEAK:
        gap1, gap2 = 1 / gap1, 1 / gap2
    # strong: s1 c21 > s2 c11 and s2 c12 > s1 c22; weak: both reversed
    block = dict(d1=rand_frac(rng), d2=rand_frac(rng), sigma1=s1, sigma2=s2,
                 c11=c11, c22=c22, c21=(s2 * c11 / s1) * gap1, c12=(s1 * c22 / s2) * gap2)
    three = lv.ThreeSpeciesParams(
        **block, d3=rand_frac(rng), sigma3=rand_frac(rng), c13=rand_frac(rng),
        c23=rand_frac(rng), c31=rand_frac(rng), c32=rand_frac(rng), c33=rand_frac(rng),
    )
    return RandomCase(regime, lv.TwoSpeciesParams(**block), rand_frac(rng),
                      rand_frac(rng), rand_frac(rng), three)


class ExactAudit:
    #: Interpreted Fraction arithmetic throughout, so its set-up and
    #: iteration times are rescaled by the speed probes taken alongside.
    PYTHON_BOUND = True
    #: Seeded criterion-10 style draws per regime and iteration.
    RANDOM_CASES = 400

    def __init__(self, seed: int, workdir: Path):
        # criterion 8's background wave; its lattice cost is the same for
        # every seed, which keeps solve_s comparable across seeds
        background = lv.two_species_wave_family(F(2), F(1), F(20), F(1))
        block, theta = background.params, background.theta
        float_block = lv.TwoSpeciesParams(**{k: float(v) for k, v in block.to_dict().items()})
        combos = [dict(zip(LATTICE, c)) for c in itertools.product(*LATTICE.values())]
        self.exact_inputs = [
            lv.ExistenceInputs(two_species=block, theta=theta, **c) for c in combos
        ]
        self.float_inputs = [
            lv.ExistenceInputs(two_species=float_block, theta=float(theta),
                               **{k: float(v) for k, v in c.items()})
            for c in combos
        ]
        rng = random.Random(seed)
        self.cases = [
            _random_case(rng, regime)
            for _ in range(self.RANDOM_CASES)
            for regime in (Regime.STRONG, Regime.WEAK)
        ]

    def iteration(self, tr, out: Outcome) -> None:
        clock = time.perf_counter_ns
        exact: list = []
        exact_ns: list[int] = []
        corners = {"H1H2H4": 0, "H2H3H4": 0}
        with tr.span("bench.exact_lattice"):
            for inputs in self.exact_inputs:
                out.probe_if_due(clock())
                t0 = clock()
                try:
                    report = lv.existence_report(inputs)
                except Exception as exc:
                    exact_ns.append(clock() - t0)
                    exact.append(None)
                    out.check(False, f"exact audit: {exc!r}")
                    continue
                exact_ns.append(clock() - t0)
                ok = [item.passed for item in report.items]
                exact.append((ok, [item.margin for item in report.items]))
                corners["H1H2H4"] += ok[0] and ok[1] and ok[3]
                corners["H2H3H4"] += ok[1] and ok[2] and ok[3]
                out.check(not (ok[0] and ok[2]), lambda: f"H1 and H3 both pass at {inputs}")
        for corner, hits in corners.items():
            out.check(hits > 0, f"three-way corner {corner} is empty")

        float_ns: list[int] = []
        with tr.span("bench.float_lattice"):
            for inputs, ref in zip(self.float_inputs, exact):
                out.probe_if_due(clock())
                t0 = clock()
                try:
                    report = lv.existence_report(inputs)
                except Exception as exc:
                    float_ns.append(clock() - t0)
                    out.check(False, f"float audit: {exc!r}")
                    continue
                float_ns.append(clock() - t0)
                agree = ref is not None and all(
                    item.passed == passed or abs(margin) <= TIE_TOL
                    for item, passed, margin in zip(report.items, *ref)
                )
                out.check(agree, lambda: f"exact and float verdicts differ at {inputs}")

        with tr.span("bench.random_cases"):
            for case in self.cases:
                out.probe_if_due(clock())
                try:
                    ok = self._random_case_holds(case)
                except Exception as exc:
                    out.check(False, f"random case: {exc!r}")
                else:
                    out.check(ok, lambda: f"bound, barrier or audit invariant fails on {case}")

        out.values["exact_us_p50"], out.values["exact_us_p99"] = (
            np.percentile(exact_ns, [50, 99]) / 1e3
        )
        out.values["float_us_p50"] = float(np.percentile(float_ns, 50)) / 1e3

    @staticmethod
    def _random_case_holds(case: RandomCase) -> bool:
        p, a, b, k = case.params, case.alpha, case.beta, case.k
        pair = lv.bounds(p, a, b)
        lo, hi = pair.q_lower, pair.q_upper
        swapped = p.swapped()
        ok = (
            lv.classify_regime(p) is case.regime
            and lo <= hi
            and lv.lower_bound(p, k * a, k * b) == k * lo
            and lv.upper_bound(p, k * a, k * b) == k * hi
            and lv.lower_bound(swapped, b, a) == lo
            and lv.upper_bound(swapped, b, a) == hi
        )
        conic = lv.conic_classify(p, a, b)
        if case.regime is Regime.STRONG:
            ok = ok and conic.kind is ConicKind.HYPERBOLA
            lv.construct_barrier(p, a, b, BoundSide.LOWER)
            lv.construct_barrier(p, a, b, BoundSide.UPPER)
        report = lv.nonexistence_report(case.three)
        holds = {item.name: item.passed for item in report.items}
        expected = holds["A1"] and holds["A2"] and (holds["A3_literal"] or holds["A3_variant"])
        return ok and report.passed == expected


class CliSession:
    #: mostly interpreted Python (CSV formatting and parsing, the figure
    #: scan), so its times are rescaled by speed probes between commands
    PYTHON_BOUND = True

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.work = workdir
        inputs = workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.free = wave_free_params(seed)
        self.theta = float(self.free["theta"])

        def write(name: str, data: dict) -> str:
            path = inputs / name
            path.write_text(json.dumps({k: str(v) for k, v in data.items()}))
            return str(path)

        s1, s2, c11, c22 = (rand_frac(rng) for _ in range(4))
        strong = dict(d1=rand_frac(rng), d2=rand_frac(rng), sigma1=s1, sigma2=s2, c11=c11,
                      c22=c22, c21=(s2 * c11 / s1) * (1 + rand_frac(rng)),
                      c12=(s1 * c22 / s2) * (1 + rand_frac(rng)))
        # criterion 8's background; theta and sigma2 are the ones it forces
        demo = dict(d1=F(2), d2=F(1), sigma1=F(20), sigma2=F(40), c11=F(20), c12=F(4),
                    c21=F(80), c22=F(6))
        existence = dict(demo, theta=F(6), d3=rand_frac(rng, 1, 8), sigma3=rand_frac(rng),
                         c31=rand_frac(rng), c32=rand_frac(rng), c33=rand_frac(rng))
        existence["K_sub"] = rand_frac(rng, 1, 8)
        existence["K_super"] = existence["K_sub"] * (1 + rand_frac(rng))
        nonexistence = dict(d1=1, d2=1, d3=1, sigma1=1, sigma2=1, c11=1, c12=2, c13=0,
                            c21=3, c22=1, c23=0, c31=1, c32=1, c33=1,
                            sigma3=rng.choice((F(1, 20), F(1, 10), F(1, 8))))
        k_super = rng.choice((F(12), F(13)))
        fisher = dict(d3=2, theta=6, c31=F(1, 2), c32=F(1, 100), c33=1, K_super=k_super,
                      sigma3=rng.choice((F(19, 2), F(10), F(21, 2))),
                      K_sub=rng.choice((F(3, 4), F(1), F(5, 4))))
        weights = ["--alpha", str(rand_frac(rng)), "--beta", str(rand_frac(rng))]
        evenness = ["--u", str(rand_frac(rng)), "--v", str(rand_frac(rng))]
        relaxation = str(max(16, 2 * k_super - 8))

        files = dict(
            free=write("free.json", self.free),
            two_wave=write("two_wave.json", dict(d1=2, d2=1, sigma1=20, k1=1, theta=6,
                                                 sigma2=40)),
            strong=write("strong.json", strong),
            existence=write("existence.json", existence),
            nonexistence=write("nonexistence.json", nonexistence),
            fisher=write("fisher.json", fisher),
        )
        self.commands = self._commands(files, weights, evenness, relaxation)
        self.reference: dict[int, bytes] = {}

    def _out(self, name: str) -> str:
        return str(self.work / "out" / name)

    def _derived_params(self) -> None:
        """Write the induced three-species set and its (u, v) block from the
        exact-wave report, as a user following the README would."""
        report = json.loads((Path(self._out("exact-wave")) / "report.json").read_text())
        three = {k: str(self.free[k]) for k in ("d1", "d2", "d3", "sigma1", "sigma2", "sigma3")}
        for i, row in enumerate(report["c_exact"], start=1):
            for j, value in enumerate(row, start=1):
                three[f"c{i}{j}"] = value
        block = {k: three[k] for k in ("d1", "d2", "sigma1", "sigma2", "c11", "c12", "c21",
                                       "c22")}
        inputs = self.work / "inputs"
        (inputs / "three_species.json").write_text(json.dumps(three))
        (inputs / "block.json").write_text(json.dumps(block))

    def _commands(self, f, weights, evenness, relaxation):
        """(command, argv, expected exit code); check-existence exits 1 by
        design, because H1 and H3 cannot hold together."""
        o, inputs = self._out, self.work / "inputs"
        wave_csv = str(Path(o("exact-wave")) / "wave.csv")
        return [
            ("exact-wave", ["--params", f["free"], "--x-min", "-60", "--x-max", "60",
                            "--n", "2401", "--out", o("exact-wave")], 0),
            ("two-wave", ["--params", f["two_wave"], "--x-min", "-40", "--x-max", "40",
                          "--n", "801", "--out", o("two-wave")], 0),
            ("classify", ["--params", f["strong"], "--out", o("classify")], 0),
            ("bounds", ["--params", f["strong"], *weights, "--out", o("bounds")], 0),
            ("barrier", ["--params", f["strong"], *weights, "--side", "lower",
                         "--out", o("barrier-lower")], 0),
            ("barrier", ["--params", f["strong"], *weights, "--side", "upper",
                         "--out", o("barrier-upper")], 0),
            ("conic", ["--params", f["strong"], *weights, "--out", o("conic")], 0),
            ("check-existence", ["--params", f["existence"], "--out", o("existence")], 1),
            ("check-nonexistence", ["--params", f["nonexistence"],
                                    "--out", o("nonexistence")], 0),
            ("verify-profile", ["--params", str(inputs / "block.json"), "--profile", wave_csv,
                                "--out", o("verify-profile")], 0),
            ("evenness", [*evenness, "--out", o("evenness")], 0),
            ("simulate", ["--params", str(inputs / "three_species.json"), "--init", wave_csv,
                          "--t-end", "0.25", "--boundary", "dirichlet", "--n-snapshots", "41",
                          "--out", o("simulate")], 0),
            ("speed", ["--snapshots", str(Path(o("simulate")) / "snapshots"),
                       "--component", "u", "--level", "0.4", "--out", o("speed")], 0),
            ("fisher", ["--params", f["fisher"], "--background",
                        str(Path(o("two-wave")) / "wave.csv"), "--relaxation", relaxation,
                        "--max-iter", "400", "--out", o("fisher")], 0),
            ("figure-data", ["--which", "fig1", "--case", "e", "--out", o("fig1")], 0),
            ("figure-data", ["--which", "fig2", "--case", "a", "--out", o("fig2")], 0),
            ("figure-data", ["--which", "fig3", "--case", "c", "--out", o("fig3")], 0),
        ]

    def iteration(self, tr, out: Outcome) -> None:
        for index, (command, argv, expected) in enumerate(self.commands):
            out.probe_if_due(time.perf_counter_ns())
            with tr.span(f"bench.cli.{command}"):
                try:
                    code = cli.main([command, *argv])
                except Exception as exc:
                    out.check(False, f"{command}: {exc!r}")
                    continue
            path = Path(argv[argv.index("--out") + 1]) / "report.json"
            report = path.read_bytes() if path.exists() else b""
            first = self.reference.setdefault(index, report)
            out.check(code == expected, f"{command} exited {code}, expected {expected}")
            out.check(report == first, f"{command} report.json changed between iterations")
            if command == "exact-wave" and code == 0:
                with tr.span("bench.derive_params"):
                    self._derived_params()
            elif command == "classify" and code == 0:
                out.check(json.loads(report)["regime"] == "Strong",
                          "classify missed a constructively strong block")
            elif command == "speed" and code == 0:
                speed_err = abs(json.loads(report)["speed"] - self.theta) / self.theta
                out.values["speed_rel_err"] = speed_err
                out.check(speed_err <= SPEED_REL_TOL, f"front speed error {speed_err}")


WORKLOADS = {
    "wave_tracking": WaveTracking,
    "exact_audit": ExactAudit,
    "cli_session": CliSession,
}
