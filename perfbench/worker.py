"""One measured run of one workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON record as its last line of output.
The BLAS and OpenMP pools are pinned to one thread before numpy is
imported, so every run measures a single-threaded, single-client closed
loop.  Set-up time (imports plus input generation) is counted from the first
line of this file.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR [--setup-only]
"""

import os
import time

_START = time.perf_counter()
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
from pathlib import Path

import numpy as np
import scipy

import lvwaves
import tracer as tracing
from workloads import PROBE_REFERENCE_S, WORKLOADS, Outcome, speed_probe

#: Iterations measured at least, however long they take.
MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 2

#: Spans whose self time is a per-layer metric ``<span>.self_s``.
SELF_TIMED = (
    "numerics.simulate_pde",
    "numerics.estimate_front_speed",
    "numerics.solve_fisher_bvp",
    "numerics.Snapshots.to_dir",
    "numerics.Snapshots.from_dir",
    "profiles.WaveProfile.to_csv",
    "profiles.WaveProfile.from_csv",
    "model.classify_regime",
    "model.coexistence_equilibrium",
    "nbarrier.lower_bound",
    "nbarrier.upper_bound",
    "nbarrier.construct_barrier",
    "nbarrier.F_value",
    "hypotheses.existence_report",
    "hypotheses.nonexistence_report",
    "exactwaves.induce_coefficients",
    "exactwaves.evaluate_wave",
    "exactwaves.residual",
    "figures.emit_figure_data",
    "figures.implicit_curve_points",
    "report.write_json",
    "report.format_float",
)
CLI_COMMANDS = (
    "exact-wave", "two-wave", "classify", "bounds", "barrier", "conic",
    "check-existence", "check-nonexistence", "verify-profile", "evenness",
    "simulate", "speed", "fisher", "figure-data",
)


def _count_steps(tr, args, dt):
    cfg = args[0]
    steps = max(1, int(np.ceil(cfg.t_end / dt - 1e-12)))
    tr.count("steps", steps)
    tr.count("node_steps", steps * cfg.grid.n)


def _count_file(counter):
    def hook(tr, args, result):
        tr.count(counter, os.path.getsize(args[1]))
    return hook


HOOKS = {
    "numerics.SimConfig.resolve_dt": _count_steps,
    "numerics.solve_fisher_bvp": lambda tr, args, sol: tr.count("sweeps", sol.iterations),
    "profiles.WaveProfile.to_csv": _count_file("bytes_written"),
    "profiles.WaveProfile.from_csv": _count_file("bytes_read"),
    "figures.implicit_curve_points": lambda tr, args, pts: tr.count("conic_points", len(pts)),
}


def environment() -> dict:
    def blas(config):
        dep = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy_blas": blas(scipy.show_config),
        "lvwaves": lvwaves.__version__,
        "machine": platform.machine(),
    }


def rescaled(work_s: float, probes: list[float]) -> float:
    """``work_s`` at the speed where :func:`speed_probe` takes its reference
    time; unchanged when no probe was taken (work that is not Python-bound)."""
    if not probes:
        return work_s
    return work_s * PROBE_REFERENCE_S / statistics.median(probes)


def rescaled_iteration(wall_s: float, out: Outcome) -> float:
    """An iteration's time without its probes, each chunk rescaled by the
    probe taken just before it."""
    if not out.chunks:
        return wall_s
    probed = sum(chunk for _, chunk in out.chunks)
    probes = sum(probe for probe, _ in out.chunks)
    unprobed = wall_s - probed - probes  # before the first probe
    return unprobed + sum(
        chunk * PROBE_REFERENCE_S / probe for probe, chunk in out.chunks
    )


def measure(workload, tr, budget_s, min_iterations, after=None):
    """Closed loop: iterations back to back until the next one would end
    past ``budget_s``.  Returns the wall time and outcome of each."""
    times, outcomes = [], []
    start = time.perf_counter()
    while True:
        out = Outcome()
        t0 = time.perf_counter()
        with tr.span("bench.iteration"):
            workload.iteration(tr, out)
            out.end_chunk(time.perf_counter_ns())
        times.append(time.perf_counter() - t0)
        outcomes.append(out)
        if after is not None:
            after()
        elapsed = time.perf_counter() - start
        if len(times) >= min_iterations and elapsed + statistics.median(times) > budget_s:
            return times, outcomes


def solve_times(times, outcomes) -> tuple[float, float]:
    """Median iteration time without the probes: as measured, and rescaled."""
    return (
        statistics.median(t - sum(out.probe_s) for t, out in zip(times, outcomes)),
        statistics.median(rescaled_iteration(t, out) for t, out in zip(times, outcomes)),
    )


def median_values(outcomes) -> dict[str, float]:
    keys = sorted({k for out in outcomes for k in out.values})
    return {
        k: statistics.median(out.values[k] for out in outcomes if k in out.values)
        for k in keys
    }


def layer_metrics(table: "tracing.SpanTable", iteration_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced iteration."""
    m = {f"{name}.self_s": table.self_s(name) for name in SELF_TIMED}
    c = table.counters
    m["numerics.simulate_pde.steps"] = c.get("steps", 0)
    m["numerics.simulate_pde.us_per_node_step"] = (
        1e6 * table.self_s("numerics.simulate_pde") / c["node_steps"]
        if c.get("node_steps") else 0.0
    )
    solves = table.calls("numerics.solve_fisher_bvp")
    m["numerics.solve_fisher_bvp.sweeps"] = c.get("sweeps", 0) / solves if solves else 0.0
    m["profiles.bytes_written"] = c.get("bytes_written", 0)
    m["profiles.bytes_read"] = c.get("bytes_read", 0)
    m["model.classify_regime.calls"] = table.calls("model.classify_regime")
    m["nbarrier.F_value.calls"] = table.calls("nbarrier.F_value")
    audits = table.calls("hypotheses.existence_report")
    m["hypotheses.existence_report.classify_per_call"] = (
        table.calls_under("hypotheses.existence_report", "model.classify_regime") / audits
        if audits else 0.0
    )
    points = c.get("conic_points", 0)
    m["figures.F_value_calls_per_point"] = (
        table.calls_under("figures.emit_figure_data", "nbarrier.F_value") / points
        if points else 0.0
    )
    for command in CLI_COMMANDS:
        m[f"cli.{command}.wall_s"] = table.total_s(f"bench.cli.{command}")
    bench_self = sum(
        table.self_s(name) for name in table.names if name.startswith("bench.")
    )
    listed = sum(m[f"{name}.self_s"] for name in SELF_TIMED)
    all_self = float(np.sum(table.self_time))
    m["bench.self_s"] = bench_self
    m["trace.other_self_s"] = all_self - listed - bench_self
    m["trace.accounted_frac"] = all_self / iteration_s
    m["trace.spans"] = len(table.name_ids)
    return m


def counts_of(table: "tracing.SpanTable") -> dict:
    calls = {name: entry["calls"] for name, entry in table.by_name().items()}
    return {"calls": calls, "counters": table.counters}


def run(args) -> dict:
    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    setup_wall_s = time.perf_counter() - _START
    probes = [speed_probe() for _ in range(15)] if workload.PYTHON_BOUND else []
    setup_s = rescaled(setup_wall_s, probes)
    if args.setup_only:
        return {"setup_s": setup_s, "setup_wall_s": setup_wall_s}

    null = tracing.NullTracer()
    warm = Outcome()
    workload.iteration(null, warm)  # warm-up, not timed
    budget = args.seconds / 2 if args.trace else args.seconds
    times, outcomes = measure(workload, null, budget, MIN_ITERATIONS)
    solve_wall_s, solve_s = solve_times(times, outcomes)
    values = median_values(outcomes)
    probes = [p for out in outcomes for p in out.probe_s]
    outcomes.insert(0, warm)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "iterations": len(times),
        "iteration_s": times,
        "solve_wall_s": solve_wall_s,
        "solve_s": solve_s,
        "probe_s_median": statistics.median(probes) if probes else None,
        "values": values,
    }

    if args.trace:
        tr = tracing.Tracer(HOOKS)
        tables = []

        def keep():
            tables.append(tr.snapshot())
            tr.reset()

        tr.install()
        try:
            traced_times, traced = measure(workload, tr, budget, MIN_TRACED_ITERATIONS, keep)
        finally:
            tr.uninstall()
        outcomes += traced
        per_iteration = [layer_metrics(t, s) for t, s in zip(tables, traced_times)]
        layers = {k: statistics.median(m[k] for m in per_iteration) for k in per_iteration[0]}
        first_counts = counts_of(tables[0])
        repeat = Outcome()
        for table in tables[1:]:
            repeat.check(counts_of(table) == first_counts,
                         "call counts differ between traced iterations")
        outcomes.append(repeat)
        traced_solve = solve_times(traced_times, traced)[1]
        layers.update({
            "trace.solve_s": traced_solve,
            "trace.untraced_solve_s": record["solve_s"],
            "trace.overhead_s": traced_solve - record["solve_s"],
            "numerics.max_abs_err": values.get("max_abs_err", 0.0),
            "numerics.speed_rel_err": values.get("speed_rel_err", 0.0),
            "hypotheses.existence_report.exact_us_p50": values.get("exact_us_p50", 0.0),
            "hypotheses.existence_report.exact_us_p99": values.get("exact_us_p99", 0.0),
            "hypotheses.existence_report.float_us_p50": values.get("float_us_p50", 0.0),
        })
        record.update(traced_iterations=len(traced_times), traced_iteration_s=traced_times,
                      spans_by_name=tables[len(tables) // 2].by_name())
        spans_path = Path(args.workdir).parent / f"spans-{args.workload}-seed{args.seed}.npz"
        np.savez(
            spans_path,
            names=np.array(tables[0].names),
            **{f"{key}_{i}": getattr(t, key)
               for i, t in enumerate(tables)
               for key in ("name_ids", "parents", "starts", "ends")},
        )
        record["spans_file"] = spans_path.name
        metrics = layers
    else:
        metrics = {
            "solve_s": record["solve_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    record["attempted"] = sum(o.attempted for o in outcomes)
    record["failed"] = sum(o.failed for o in outcomes)
    record["failures"] = [msg for o in outcomes for msg in o.failures][:10]
    record["metrics"] = metrics
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    print(json.dumps(run(args)))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
