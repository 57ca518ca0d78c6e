"""Benchmark of the jordanalg toolkit.

    python3 bench/run.py --workload catalog|dense|embed --seed N --seconds S --trace 0|1

With --trace 0 the workload runs untraced in a worker process and the last
line of output is a JSON object with the end-to-end metrics.  Set-up is
timed in that worker and in SETUP_PROBES further fresh processes, and
setup_s is the median.  With --trace 1 the workload runs TRACE_PASSES passes
twice, untraced and then traced, and the metrics are the per-layer ones plus
the tracing overhead.  Workloads, metrics and bounds are declared in
BENCHMARK.json at the root of the repository; bench/METRICS.md explains them.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("catalog", "dense", "embed")
SETUP_PROBES = 10
TRACE_PASSES = 1
# The whole run must end within 180 s, whatever the program does.
RUN_BUDGET_S = 165.0
END_TO_END = ("items_per_s", "item_p50_ms", "item_p90_ms", "certify_s",
              "setup_s", "peak_rss_mb")
UNITS = {"items_per_s": "1/s", "item_p50_ms": "ms", "item_p90_ms": "ms",
         "certify_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerFailed(Exception):
    pass


def worker(args, deadline: float, *extra: str) -> dict:
    """Run bench/worker.py to completion and return its JSON result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    timeout = deadline - time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerFailed(f"worker ran past the run's time budget: {exc}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def budget_left(deadline: float, share: float = 1.0) -> str:
    return f"{max(1.0, (deadline - time.monotonic() - 10.0) * share):.1f}"


def setup_probes(args, deadline: float, count: int) -> list[float]:
    return [worker(args, deadline, "--setup-only")["setup_s"] for _ in range(count)]


def untraced(args, deadline: float) -> tuple[dict, dict]:
    # Half the set-up probes run before the timed phase and half after it, so
    # that one burst of load on the host cannot slow all of them.
    setups = setup_probes(args, deadline, SETUP_PROBES // 2)
    run = worker(args, deadline, "--budget", budget_left(deadline, 0.85))
    setups += setup_probes(args, deadline, SETUP_PROBES - len(setups))
    if "metrics" not in run:
        raise WorkerFailed("worker attempted no item")
    m = run["metrics"]
    print(f"{args.workload}: {run['passes']} passes, {run['attempted']} items in"
          f" {run['wall_s']:.2f} s wall, {run['scaled_s']:.2f} s at reference speed;"
          f" latency percentiles over the median run of each of {m['item_samples']}"
          f" items, {m['item_p90_beyond']} beyond p90; setup_s median of"
          f" {len(setups) + 1} fresh processes")
    setups.append(m["setup_s"])
    m["setup_s"] = statistics.median(setups)
    return run, {k: {"value": m[k], "unit": UNITS[k]} for k in END_TO_END}


def traced(args, deadline: float) -> tuple[dict, dict]:
    passes = ("--passes", str(TRACE_PASSES))
    plain = worker(args, deadline, *passes, "--budget", budget_left(deadline, 0.4))
    run = worker(args, deadline, "--trace", "1", *passes, "--budget", budget_left(deadline))
    if plain["passes"] != TRACE_PASSES or run["passes"] != TRACE_PASSES:
        raise WorkerFailed("a worker ran out of time before its last pass")
    layers = dict(run["layers"])
    layers["trace.overhead_frac"] = run["scaled_s"] / plain["scaled_s"] - 1
    print(f"{args.workload}: {run['passes']} passes, {run['attempted']} items traced;"
          f" per-item figures are over {run['attempted']} items")
    combined = {k: plain[k] + run[k] for k in ("attempted", "failed")}
    return combined, {k: {"value": layers[k], "unit": LAYER_METRICS[k][0]}
                      for k in LAYER_METRICS}


def main(argv=None) -> int:
    deadline = time.monotonic() + RUN_BUDGET_S
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "jordanalg" / "__init__.py").is_file():
        print(f"error: no jordanalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run, metrics = (traced if args.trace else untraced)(args, deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
