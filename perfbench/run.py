"""superpoints benchmark: one workload per run, closed loop, one client, one thread.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload triangle-q --seed 2026 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` is the
separate traced run: it times the same inputs untraced and then traced,
reports per-layer counts and self times per op, and writes every span to
``perfbench/out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``attempted`` counts every op whose results were checked: the few untimed
warm-up ops and the timed ops.  Standard error names the number of timed ops
behind the latency percentiles, the raw (unscaled) throughput, and the
host-speed probe time; see hostspeed.py for why latencies are scaled.

The workloads, metrics and the predictions that tie them together are
described in README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402

try:
    import tracer
    import workloads
except ImportError as e:  # no superpoints sources next to the benchmark
    workloads = None
    IMPORT_ERROR = e

DEFAULT_SEED = 2026
SETUP_SAMPLES = 7
WARMUP_OPS = 5



def load_spec(trace):
    """(name, unit) of every metric the run prints, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="do the program set-up and exit (one setup_s sample)")
    return ap.parse_args(argv)


class Runner:
    """Runs ops of one workload and keeps the failure and route tallies."""

    def __init__(self, workload, state):
        self.workload = workload
        self.state = state
        self.attempted = 0
        self.failed = 0
        self.routes = []  # per-op dicts filled by triangle-q

    def op(self, item):
        self.attempted += 1
        routes = {}
        try:
            self.workload.op(self.state, item, routes)
        except Exception as e:  # any program error is a failed op, not a crash
            self.failed += 1
            if self.failed <= 3:
                print(f"op {self.attempted} failed: {e!r}", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
        if routes:
            self.routes.append(routes)

    def loop(self, items, seconds, start):
        """Closed loop from items[start] on, wrapping, for at least `seconds`.
        Returns per-op latencies and the host-speed probe timed before each
        op, both in seconds."""
        lat, probes = [], []
        i = start
        t_begin = time.perf_counter()
        while True:
            probes.append(hostspeed.probe())
            t0 = time.perf_counter()
            self.op(items[i % len(items)])
            t1 = time.perf_counter()
            lat.append(t1 - t0)
            i += 1
            if t1 - t_begin >= seconds:
                return lat, probes


def setup_seconds(name):
    """Median wall time of the set-up over fresh interpreters.  It is not
    scaled: the set-up followed the host-speed probe only loosely, in some
    runs not at all, and scaling did not narrow its spread."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls in 50 ms steps and quantizes the sample.
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", name, "--setup-only"],
                              cwd=ROOT, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise workloads.CheckFailed(f"set-up in a fresh interpreter exited {proc.returncode}")
    return statistics.median(samples)


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload, seed, seconds):
    setup_s = setup_seconds(workload.name)
    _, state = workloads.setup(workload)
    items = workload.inputs(state, random.Random(seed), workload.pool)
    runner = Runner(workload, state)
    for item in items[:WARMUP_OPS]:
        runner.op(item)
    raw, probes = runner.loop(items, seconds, start=WARMUP_OPS)
    lat = hostspeed.scaled(raw, probes)
    print(f"{workload.name}: {len(raw)} timed ops, raw {len(raw) / sum(raw):.2f} ops/s, "
          f"probe median {1e3 * statistics.median(probes):.3f} ms "
          f"(nominal {hostspeed.NOMINAL_MS} ms)", file=sys.stderr)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "op_ms.p50": 1e3 * statistics.median(lat),
        "op_ms.p90": 1e3 * percentile(lat, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return runner, metrics


def measure_traced(workload, seed, seconds, names):
    """Per-layer metrics.  A name "<layer>.calls_per_op" or
    "<layer>.self_ms_per_op" is read from the tracer's totals for span
    <layer>; the other names are computed one by one below."""
    load_s, state = workloads.setup(workload)
    items = workload.inputs(state, random.Random(seed), workload.trace_ops)
    runner = Runner(workload, state)
    for item in items:  # fills the memo tables, so every traced op reads them warm
        runner.op(item)
    runner.routes.clear()
    untraced_ops, t0 = 0, time.perf_counter()
    while untraced_ops == 0 or time.perf_counter() - t0 < seconds / 2:
        for item in items:
            runner.op(item)
        untraced_ops += len(items)
    untraced_rate = untraced_ops / (time.perf_counter() - t0)
    routes = {k: [r[k] for r in runner.routes] for k in ("module", "rewrite", "strip")}
    runner.routes.clear()

    spans = tracer.Tracer()
    t0 = time.perf_counter()
    with spans:
        for k, item in enumerate(items):
            spans.run_op(k, runner.op, item)
    traced_rate = len(items) / (time.perf_counter() - t0)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    spans.dump(os.path.join(HERE, "out", f"spans-{workload.name}-seed{seed}.json"))

    n = len(items)
    metrics = {}
    for name in names:
        layer, _, what = name.rpartition(".")
        if what == "calls_per_op":
            metrics[name] = spans.calls[layer] / n
        elif what == "self_ms_per_op":
            metrics[name] = 1e3 * spans.self_s[layer] / n
    metrics["gp.reorder_symbolic.rewrites_per_op"] = sum(r["rewrites"] for r in runner.routes) / n
    metrics["gp.reorder_symbolic.passes_max"] = max((r["passes"] for r in runner.routes), default=0)
    for route, values in routes.items():
        metrics[f"route.{route}_ms.p50"] = 1e3 * statistics.median(values) if values else 0.0
    metrics["serialize.load_ms"] = 1e3 * load_s
    metrics["trace.overhead_frac"] = 1 - traced_rate / untraced_rate
    return runner, metrics


def main(argv=None):
    args = parse_args(argv)
    if workloads is None:
        print(f"cannot import superpoints from {os.path.join(ROOT, 'src')}: {IMPORT_ERROR}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        if args.setup_only:
            workloads.setup(workload)
            return 0
        spec = load_spec(args.trace)
        if args.trace:
            runner, metrics = measure_traced(workload, args.seed, args.seconds,
                                             [name for name, _ in spec])
        else:
            runner, metrics = measure(workload, args.seed, args.seconds)
    except workloads.CheckFailed as e:
        print(f"set-up check failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
