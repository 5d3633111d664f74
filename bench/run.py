"""Run one workload of the logsod benchmark and print its result.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones, measured with tracing
off; with --trace 1 they are the per-layer ones from a traced run, which
first repeats the untraced loop to measure the tracing overhead.  See
bench/README.md for the workloads and metrics.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "bench", "results")
# A loop stops starting rounds after this long, so a run ends within its
# time limit even when the program has become much slower; a traced run
# makes two loops.
MAX_LOOP_S = 70.0


@dataclass
class Loop:
    times: list
    failed: int
    rounds: int
    elapsed: float

    @property
    def ops_per_s(self) -> float:
        return len(self.times) / self.elapsed


def run_loop(wl, seconds: float, min_ops: int, tracer=None) -> Loop:
    """Closed loop over whole rounds of the workload's steps, one operation
    at a time, until `seconds` have passed and `min_ops` were timed."""
    times, failed, rounds = [], 0, 0
    start = time.perf_counter()
    while True:
        order = list(wl.steps)
        wl.rng.shuffle(order)
        for step in order:
            t0 = time.perf_counter()
            try:
                out = step.run() if tracer is None else tracer.op(step.name, step.run)
                raised = False
            except Exception:  # counted as a failed operation
                out, raised = None, True
            times.append(time.perf_counter() - t0)
            if not raised:
                wl.observe(step, out)
            if raised or wl.failed(step, out):
                failed += 1
        rounds += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(times) >= min_ops) or elapsed >= MAX_LOOP_S:
            return Loop(times, failed, rounds, elapsed)


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if wl.in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "logsod", "cli.py")):
        print(f"bench: no logsod source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    os.makedirs(RESULTS, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, ROOT)
    try:
        wl.setup()
        setup_s = time.perf_counter() - _START
        if args.trace:
            plain = run_loop(wl, args.seconds, 0)
            wl.check()
            tracer = tracing.Tracer()
            wl.trace(tracer)
            traced = run_loop(wl, args.seconds, 0, tracer)
            overhead = (plain.ops_per_s / traced.ops_per_s - 1) * 100
            metrics = tracing.per_layer(tracer, traced.rounds, overhead)
            loops = (plain, traced)
        else:
            loop = run_loop(wl, args.seconds, wl.min_ops)
            ms = [t * 1000 for t in loop.times]
            metrics = {
                "setup_s": (setup_s, "s"),
                "ops_per_s": (loop.ops_per_s, "ops/s"),
                "op_ms_p50": (statistics.median(ms), "ms"),
                "op_ms_p90": (statistics.quantiles(ms, n=10)[-1], "ms"),
                "peak_rss_mb": (peak_rss_mb(wl), "MB"),
            }
            wl.check()
            loops = (loop,)
    finally:
        wl.close()
    problems = wl.problems
    for p in problems[:20]:
        print(f"bench: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(len(x.times) for x in loops),
        "failed": sum(x.failed for x in loops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  rounds=[x.rounds for x in loops], ops=[len(x.times) for x in loops])
    if args.trace:
        record.update(spans=tracer.spans, spans_not_stored=tracer.dropped)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
