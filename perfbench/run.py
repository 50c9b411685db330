#!/usr/bin/env python3
"""lenscert benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload triangle-sweep --seed 1 --seconds 20 --trace 0

Set-up (a fresh import of lenscert plus making the seeded inputs) runs
SETUP_REPS times and setup_s is the median.  The timed phase then runs
items until --seconds have passed and at least --min-items are done (the
workload's own minimum by default, 100 or more, so that p90 always has
ten samples beyond it).  Outputs are checked after the clock stops.
Counts that must repeat exactly for a seed (the cost-model means and the
certificate digest) come from the first --min-items items, which every
run completes.

Timings are calibrated for machine speed.  The host's speed drifts by
tens of percent within seconds, alike for all pure-Python work, so a
timer signal runs a fixed reference loop every SAMPLE_EVERY_S.  Each
timed interval loses the time its samples took and is scaled by the
median speed of the samples around it, relative to REFERENCE_NS, the
loop's median time on the 2-vCPU Intel Xeon VM the baseline came from.
Times are thus in ms (or s) at that nominal speed; the lines before the
JSON also give the uncalibrated throughput and p50.

--trace 0 reports the end-to-end metrics.  --trace 1 traces half the
items (see is_traced) and reports per-layer metrics as means per traced
item (self times uncalibrated, so they include the speed samples taken
inside a span), plus the calibrated tracing overhead of traced over
untraced items; the spans are written to perfbench/out/.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  The lines before it repeat every metric by name and unit,
with sample counts, failed_frac, the known-defect probe count and
digests of the inputs and of the emitted certificate bytes.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import random
import resource
import signal
import statistics
import sys
import time
import traceback

from bench_trace import PER_LAYER, Tracer
from bench_workloads import HERE, SRC, WORKLOADS, Outcome, load_lib

SETUP_REPS = 3
REFERENCE_NS = 690_000
SAMPLE_EVERY_S = 0.025
SAMPLE_WINDOW_NS = 100_000_000  # samples this close to an interval also count
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("verify_ms_p50", "ms"),
    ("verify_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("cert_bits_mean", "bit"),
    ("verify_mat_mults_mean", "count"),
    ("verify_field_ops_mean", "count"),
)
OUT_DIR = os.path.join(HERE, "out")
clock = time.perf_counter_ns


def reference_work() -> int:
    """Fixed pure-Python work, about 0.7 ms: the yardstick for machine speed."""
    acc, table = 1, {}
    for i in range(1500):
        key = (i % 61, acc % 1009)
        table[key] = table.get(key, 0) + 1
        acc = (acc * 31 + i) % 1000003
    return acc + len(table)


class Speedometer:
    """Times reference_work() from a SIGALRM handler while active."""

    def __init__(self):
        self.starts: list[int] = []
        self.durations: list[int] = []

    def _sample(self, signum, frame) -> None:
        t0 = clock()
        reference_work()
        self.starts.append(t0)
        self.durations.append(clock() - t0)

    def __enter__(self) -> "Speedometer":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def calibrated_ns(self, start: int, end: int) -> float:
        """[start, end) less the samples taken in it, at nominal speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        own = end - start - sum(self.durations[lo:hi])
        near = self.durations[
            bisect.bisect_left(self.starts, start - SAMPLE_WINDOW_NS):
            bisect.bisect_left(self.starts, end + SAMPLE_WINDOW_NS)
        ]
        return own * REFERENCE_NS / statistics.median(near) if near else float(own)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of sorted values."""
    return values[max(0, math.ceil(q * len(values)) - 1)]


def is_traced(index: int) -> bool:
    """Half the items: one of each consecutive pair, alternating sides.

    Consecutive items come from strata far apart in cost, so this split
    gives the traced and untraced halves the same mix."""
    return index % 2 != (index // 2) % 2


def drive(lib, workload, items, seconds, min_items, tracer=None):
    """Run items until the time is up and min_items are done; with a
    tracer, every item for which is_traced() holds runs traced.

    Returns (outcomes, elapsed seconds).  An exception is recorded as a
    failed item with its elapsed time, and the loop goes on.
    """
    outcomes: list[Outcome] = []
    begin = time.perf_counter()
    deadline = begin + seconds
    index = 0
    while index < len(items) and (time.perf_counter() < deadline or len(outcomes) < min_items):
        traced = tracer is not None and is_traced(index)
        t0 = clock()
        try:
            if traced:
                out = tracer.run_item(index, workload.run, lib, items[index])
            else:
                out = workload.run(lib, items[index])
        except Exception:  # a failed item is counted, not fatal
            out = Outcome(t0, None, clock(), error=traceback.format_exc(limit=3))
        out.traced = traced
        outcomes.append(out)
        index += 1
    return outcomes, time.perf_counter() - begin


def sha256(texts) -> str:
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode())
        digest.update(b"\0")
    return digest.hexdigest()


def item_ms(speed: Speedometer, outcomes) -> list[float]:
    return [speed.calibrated_ns(o.start_ns, o.end_ns) / 1e6 for o in outcomes]


def end_to_end(speed: Speedometer, outcomes, setup_s, prefix) -> dict[str, float]:
    latency = sorted(item_ms(speed, outcomes))
    verify = sorted(
        speed.calibrated_ns(o.verify_ns, o.end_ns) / 1e6 for o in outcomes if o.verify_ns is not None
    )
    reports = [o.report for o in outcomes[:prefix] if o.report is not None]
    return {
        "setup_s": setup_s,
        "throughput_per_s": 1e3 * len(latency) / sum(latency),
        "latency_ms_p50": statistics.median(latency),
        "latency_ms_p90": percentile(latency, 0.9),
        "verify_ms_p50": statistics.median(verify),
        "verify_ms_p90": percentile(verify, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cert_bits_mean": statistics.fmean(r.cert_bits for r in reports),
        "verify_mat_mults_mean": statistics.fmean(r.mat_mults for r in reports),
        "verify_field_ops_mean": statistics.fmean(r.field_ops for r in reports),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-items", type=int, help="default: the workload's own (100 or more)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "lenscert")):
        print(f"error: no lenscert sources at {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.min_items is None:
        args.min_items = workload.min_items
    if args.min_items < 2 or args.seconds < 0:
        parser.error("--min-items must be at least 2 and --seconds not negative")

    with Speedometer() as speed:
        setup_times = []
        for _ in range(SETUP_REPS):
            t0 = clock()
            lib = load_lib()
            inputs = workload.setup(lib, random.Random(args.seed), args.seconds, args.min_items)
            setup_times.append(speed.calibrated_ns(t0, clock()) / 1e9)
        items = inputs.items
        tracer = Tracer(lib) if args.trace else None
        outcomes, elapsed = drive(lib, workload, items, args.seconds, args.min_items, tracer)

    failed = 0
    for item, out in zip(items, outcomes):
        ok = False
        if not out.error:
            try:
                ok = workload.check(lib, item, out)
            except Exception:  # a check that raises is a failed item
                out.error = traceback.format_exc(limit=3)
        if not ok:
            failed += 1
            print(f"FAILED {item!r:.120}: {out.error.strip() or 'wrong output'}", file=sys.stderr)
    false_accepts = workload.false_accepts(lib, inputs.probes)
    prefix = args.min_items

    if args.trace:
        traced = [o for o in outcomes if o.traced]
        plain = [o for o in outcomes if not o.traced]
        metrics = tracer.layer_metrics(len(traced))
        metrics["certificate.verify.false_accepts"] = false_accepts
        metrics["trace_overhead_frac"] = (
            statistics.fmean(item_ms(speed, traced)) / statistics.fmean(item_ms(speed, plain)) - 1
        )
        units = dict(PER_LAYER)
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path)
    else:
        metrics = end_to_end(speed, outcomes, statistics.median(setup_times), prefix)
        units = dict(END_TO_END)

    n = len(outcomes)
    speeds = [REFERENCE_NS / d for d in speed.durations]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {n} items, {failed} failed "
          f"(failed_frac {failed / n:.6g}), setup runs {', '.join(f'{s:.3f}' for s in setup_times)} s")
    print(f"  latency and verify samples: {n}, "
          f"{sum(o.verify_ns is not None for o in outcomes)}; cost-model and digest prefix: {prefix}")
    print(f"  uncalibrated: {n / elapsed:.6g} items/s over {elapsed:.3f} s, latency p50 "
          f"{statistics.median(o.end_ns - o.start_ns for o in outcomes) / 1e6:.6g} ms; "
          f"machine speed over {len(speeds)} samples: median {statistics.median(speeds):.3f}, "
          f"min {min(speeds):.3f}, max {max(speeds):.3f}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  known-defect probes accepted: {false_accepts} of {len(inputs.probes)} "
          "(false certificates for cyclic groups)")
    print(f"  inputs_sha256 {sha256(map(repr, items))}")
    print(f"  certs_sha256 {sha256(workload.emitted(inputs, outcomes, prefix))}")
    if args.trace:
        print(f"  spans: {len(tracer.spans)} written to {os.path.relpath(spans_path)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
