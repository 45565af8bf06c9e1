"""One benchmark process.  ``run.py`` starts a fresh interpreter per role:

    worker.py generate WORKLOAD SEED
        Sample the run's queries from pool.json; print them as JSON.
    worker.py setup WORKLOAD < inputs.json
        Time the workload's set-up alone; print {"setup_s": ..., "raw": ...}.
    worker.py measure WORKLOAD (--seconds S | --passes N) [--trace PATH] < inputs.json
        Set up, then issue the queries one at a time (one client, closed
        loop) in whole passes over the list: N passes, or as many as it takes
        to reach S seconds and at least MIN_QUERIES queries.  Checks every
        answer against its recorded digest and prints one JSON result line.
        With --trace, wraps the layers first and writes the spans to PATH.

Times are scaled by the host's measured speed (see HostSpeed); the raw
figures are reported alongside under "raw".
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import random
import resource
import statistics
import sys
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, QueryFailed, digest  # noqa: E402

# The tail percentile (p90) needs at least ten samples beyond it.
MIN_QUERIES = 100
# Host-speed tracking: the reference work takes about REF_NOMINAL_S on an
# idle core of the 2-vCPU machine the baseline was recorded on.
REF_NOMINAL_S = 0.005
REF_EVERY_S = 0.25
# Hard stop so that a pathologically slow program still ends in time.
MAX_WALL_S = 140.0


def generate(workload, seed):
    with open(os.path.join(HERE, "pool.json"), encoding="utf-8") as fh:
        pool = json.load(fh)[workload]
    rng = random.Random(f"{workload}/{seed}")
    queries = []
    for stratum in pool["strata"]:
        queries.extend(rng.sample(stratum["queries"], stratum["take"]))
    rng.shuffle(queries)
    return {"fixed": pool["fixed"], "queries": queries}


class Runner:
    def __init__(self, workload, ctx):
        self.wl = WORKLOADS[workload]
        self.ctx = ctx
        self.tracer = None
        self.completed = 0
        self.attempted = 0
        self.failures = []

    def one(self, index, entry, timed=True):
        """Issue one query and return its latency in seconds.  A failure is
        recorded and never aborts the run."""
        q = entry["q"]
        if self.tracer:
            self.tracer.query = index
        t = perf_counter()
        try:
            raw = self.wl.call(self.ctx, q)
            error = None
        except Exception as exc:  # any escaping exception is a failed query
            error = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t
        if error is None:
            error = self._check(q, raw, entry["digest"])
        self.attempted += 1
        if timed:
            self.completed += error is None
        if error is not None:
            self.failures.append({"query": q, "error": error})
        return elapsed

    def _check(self, q, raw, expected):
        if self.tracer:
            self.tracer.paused = True
        try:
            value = self.wl.canon(self.ctx, q, raw)
        except QueryFailed as exc:
            return str(exc)
        except Exception as exc:  # a malformed answer is a failed query
            return f"unreadable answer: {type(exc).__name__}: {exc}"
        finally:
            if self.tracer:
                self.tracer.paused = False
        if digest(value) != expected:
            return "digest mismatch"
        return None


def reference():
    """Seconds taken by a fixed piece of pure-Python work (exact fractions and
    dict updates, like the library's inner loops), with the collector off so
    that the program's heap does not slow it."""
    gc.disable()
    try:
        t = perf_counter()
        total, seen = Fraction(0), {}
        for i in range(1, 700):
            total += Fraction(i % 7, 3) * Fraction(2, 5)
            seen[(i % 13, i % 5)] = total
        return perf_counter() - t
    finally:
        gc.enable()


class HostSpeed:
    """Tracks the host's speed while queries run.

    On a virtual machine that shares its cores with other tenants, speed
    drifts by a fifth or more over seconds to minutes.  The reference work is timed
    every REF_EVERY_S seconds between queries; a query's latency is scaled by
    REF_NOMINAL_S over the reference time around it, which cancels most of
    that drift.  Both runs compared by a check go through the same scaling.
    """

    def __init__(self):
        self.times, self.refs = [], []
        self.sample()

    def sample(self):
        self.times.append(perf_counter())
        self.refs.append(reference())

    def maybe_sample(self):
        if perf_counter() - self.times[-1] >= REF_EVERY_S:
            self.sample()

    def scale(self, t):
        """Factor for a query that started at t: nominal over the mean of
        the reference times just before and just after it."""
        i = bisect.bisect(self.times, t)
        near = self.refs[max(0, i - 1): i + 1]
        return REF_NOMINAL_S * len(near) / sum(near)


def timed_setup(workload, fixed):
    """Run the workload's set-up; return (context, scaled seconds, seconds)."""
    ref = statistics.median(reference() for _ in range(3))
    t0 = perf_counter()
    ctx = WORKLOADS[workload].setup(fixed)
    setup_s = perf_counter() - t0
    return ctx, setup_s * REF_NOMINAL_S / ref, setup_s


def measure(workload, doc, seconds, passes, trace_path):
    wl = WORKLOADS[workload]
    ctx, setup_s, raw_setup_s = timed_setup(workload, doc["fixed"])
    queries = doc["queries"]
    runner = Runner(workload, ctx)
    if wl.warm:
        for i, entry in enumerate(queries):
            runner.one(i, entry, timed=False)
    if trace_path:
        from tracer import Tracer

        runner.tracer = Tracer().install()
    host = HostSpeed()
    samples = []  # (start, latency)
    start = perf_counter()
    done = 0
    while done != passes:
        for i, entry in enumerate(queries):
            t = perf_counter()
            samples.append((t, runner.one(i, entry)))
            host.maybe_sample()
            if t - start >= MAX_WALL_S:
                break
        done += 1
        wall = perf_counter() - start
        if passes is None and (
            (wall >= seconds and len(samples) >= MIN_QUERIES) or wall >= MAX_WALL_S
        ):
            break
    host.sample()
    raw = sorted(lat for _, lat in samples)
    lat = sorted(x * host.scale(t) for t, x in samples)
    p90 = lambda v: statistics.quantiles(v, n=10, method="inclusive")[8]
    result = {
        "setup_s": setup_s,
        "queries": len(lat),
        "passes": done,
        # Per second spent inside queries; checking answers is not counted.
        "queries_per_s": runner.completed / sum(lat),
        "query_p50_ms": 1000 * statistics.median(lat),
        "query_p90_ms": 1000 * p90(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "raw": {
            "setup_s": raw_setup_s,
            "queries_per_s": runner.completed / sum(raw),
            "query_p50_ms": 1000 * statistics.median(raw),
            "query_p90_ms": 1000 * p90(raw),
            "reference_ms": 1000 * statistics.median(host.refs),
        },
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:5],
    }
    if runner.tracer:
        runner.tracer.paused = True
        result["layers"] = runner.tracer.metrics()
        runner.tracer.write(trace_path)
    return result


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("role", choices=["generate", "setup", "measure"])
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("seed", nargs="?", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--passes", type=int)
    p.add_argument("--trace")
    args = p.parse_args(argv)
    if args.role == "generate":
        json.dump(generate(args.workload, args.seed), sys.stdout)
        return 0
    doc = json.load(sys.stdin)
    if args.role == "setup":
        _, setup_s, raw_setup_s = timed_setup(args.workload, doc["fixed"])
        json.dump({"setup_s": setup_s, "raw": {"setup_s": raw_setup_s}}, sys.stdout)
        return 0
    result = measure(args.workload, doc, args.seconds, args.passes, args.trace)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
