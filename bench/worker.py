"""One workload in one process: set-up, then a closed loop of items.

One caller runs the items of a workload one after another; the next item
starts when the previous one returns.  The loop runs whole passes and stops
after the pass whose end lies closest to --seconds.  Every answer is compared
with the committed expected answer; a wrong answer, an exception, or
overrunning the per-item time limit fails the item.

Times are reported at a reference host speed.  Other tenants of a shared
machine slow it down by up to a factor of four, in bursts of a fraction of a
second to minutes, so set-up and every item are timed by a
`hostspeed.ReferenceClock`, which calibrates the host's speed around and
inside them.  An item's latency is the median of its runs in the timed phase.

Prints one JSON object as its last line of output.  `bench/run.py` starts
this script; run it directly only to debug a workload:

    python3 bench/worker.py --workload embed --seed 1 --seconds 5
"""

import time

import hostspeed

SETUP_CLOCK = hostspeed.ReferenceClock()
SETUP_CLOCK.start()  # set-up is timed from here, before jordanalg is imported

import argparse
import json
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path

from tracer import Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected"
SPANS = BENCH / "out"

ITEM_LIMIT_S = 30.0


class ItemTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ItemTimeout


def import_package():
    """Import jordanalg from this checkout's sources, and nowhere else."""
    if not (SRC / "jordanalg" / "__init__.py").is_file():
        raise SystemExit(f"error: no jordanalg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import jordanalg

    if Path(jordanalg.__file__).resolve().parent != SRC / "jordanalg":
        raise SystemExit(f"error: imported jordanalg from {jordanalg.__file__}")


def load_expected(name: str) -> dict:
    with open(EXPECTED / f"{name}.json") as f:
        return json.load(f)


def run_item(workload, item, expected: dict, limit: float,
             clock: hostspeed.ReferenceClock) -> tuple[bool, float]:
    """Run one item under a wall-time limit; (answer correct, latency in
    reference seconds)."""
    clock.start()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            result = workload.run(item.payload)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            clock.stop()
    except ItemTimeout:
        print(f"item {item.key}: over the {limit:.1f} s limit", file=sys.stderr)
        return False, clock.stop()
    except Exception:
        print(f"item {item.key}: raised", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return False, clock.stop()
    try:
        ok = workload.answer(item.payload, result) == expected.get(item.answer_key)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    if not ok:
        print(f"item {item.key}: wrong answer", file=sys.stderr)
    return ok, clock.stop()


def timed_phase(workload, expected: dict, seconds: float, budget_s: float,
                passes=None, tracer=None) -> dict:
    """Closed loop over whole passes.  With `passes` unset, stop after the
    pass whose end lies closest to `seconds`; `budget_s` is a hard stop."""
    signal.signal(signal.SIGALRM, _on_alarm)
    latencies: dict[str, list[float]] = {}  # in reference seconds
    attempted = failed = done = 0
    start = time.perf_counter()
    clock = hostspeed.ReferenceClock(None if tracer else hostspeed.INTERVAL_S)
    hard_end = start + budget_s
    cut = False
    while not cut:
        for item in workload.pass_order(done):
            remaining = hard_end - time.perf_counter()
            if remaining <= 0:
                cut = True
                break
            if tracer is not None:
                tracer.item = attempted
            ok, dt = run_item(workload, item, expected, min(ITEM_LIMIT_S, remaining), clock)
            latencies.setdefault(item.key, []).append(dt)
            attempted += 1
            failed += not ok
        else:
            done += 1
            elapsed = time.perf_counter() - start
            if passes is not None:
                cut = done >= passes
            else:
                cut = elapsed + 0.5 * elapsed / done >= seconds
    return {
        "attempted": attempted,
        "failed": failed,
        "passes": done,
        "wall_s": time.perf_counter() - start,
        "scaled_s": sum(sum(v) for v in latencies.values()),
        "latencies": latencies,
        "verdict": [it.key for it in workload.items if it.verdict],
    }


def end_to_end(run: dict, setup_s: float) -> dict:
    latency = {k: statistics.median(v) for k, v in run["latencies"].items()}
    lat_ms = sorted(x * 1e3 for x in latency.values())
    p90 = statistics.quantiles(lat_ms, n=10)[-1] if len(lat_ms) > 1 else lat_ms[0]
    return {
        "items_per_s": len(latency) / sum(latency.values()),
        "item_p50_ms": statistics.median(lat_ms),
        "item_p90_ms": p90,
        "item_samples": len(lat_ms),
        "item_p90_beyond": sum(1 for x in lat_ms if x > p90),
        "certify_s": sum(latency.get(k, 0.0) for k in run["verdict"]),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--passes", type=int, help="run exactly this many passes")
    p.add_argument("--budget", type=float, default=150.0,
                   help="hard limit in s on the timed phase")
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up and report its time")
    args = p.parse_args(argv)

    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    workload = WORKLOADS[args.workload](args.seed)
    expected = load_expected(args.workload)
    setup_s = SETUP_CLOCK.stop()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        with tracer:
            run = timed_phase(workload, expected, args.seconds, args.budget,
                              args.passes, tracer)
    else:
        run = timed_phase(workload, expected, args.seconds, args.budget, args.passes)
    out = {k: run[k] for k in ("attempted", "failed", "passes", "wall_s", "scaled_s")}
    if run["attempted"]:
        out["metrics"] = end_to_end(run, setup_s)
    if tracer is not None and run["passes"]:
        out["layers"] = layer_metrics(tracer, run["attempted"], run["passes"])
        tracer.write(SPANS / f"spans-{args.workload}.json",
                     {"workload": args.workload, "seed": args.seed,
                      "passes": run["passes"]})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
