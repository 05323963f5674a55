"""Benchmark entry point: run one workload with one seed and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the package is
imported from its ``src/`` directory.  The measured run happens in a fresh
interpreter (``worker.py``) with the BLAS and OpenMP pools pinned to one
thread.  With ``--trace 0`` the run is untraced and set-up is repeated in
further fresh interpreters, so ``setup_s`` is a median; with ``--trace 1``
the second half of the run is traced and the per-layer metrics are printed.

The metric names and units come from ``BENCHMARK.json``.  The last line of
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the full run record, which
is also written to ``.perfbench-out/`` together with the traced spans.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
#: Set-up is measured in the run's own worker and this many more.
SETUP_PROBES = 5
#: Every process this script starts must end within this many seconds of
#: its start.
DEADLINE_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def spawn(argv, env, deadline):
    """Run one worker to completion and return its JSON record."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for another worker")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(description="lvwaves benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "lvwaves" / "__init__.py").is_file():
        return fail(f"no lvwaves package under {ROOT / 'src'}")
    if not spec_path.is_file():
        return fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]
    deadline = start + DEADLINE_S
    try:
        record = spawn(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline
        )
        setups = [record]
        if not args.trace:
            for _ in range(SETUP_PROBES):
                shutil.rmtree(workdir, ignore_errors=True)
                setups.append(spawn(common + ["--setup-only"], env, deadline))
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(f"{args.workload} seed {args.seed}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["setup_samples_s"] = [r["setup_s"] for r in setups]
    record["setup_wall_samples_s"] = [r["setup_wall_s"] for r in setups]
    record["metrics"]["setup_s"] = statistics.median(record["setup_samples_s"])
    missing = [m["name"] for m in wanted if m["name"] not in record["metrics"]]
    if missing:
        return fail(f"worker did not report {', '.join(missing)}")
    metrics = {
        m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]} for m in wanted
    }
    record["fail_frac"] = record["failed"] / record["attempted"]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({k: v for k, v in record.items() if k != "spans_by_name"}))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
