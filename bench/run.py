"""Benchmark entry point; run from the repository root.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md): strong-cold, weak-warm, coxeter-growth,
topes-cones.  Every step runs in a fresh interpreter with a fixed
PYTHONHASHSEED, so module caches never leak from one step into the next:

1. a generator process samples the run's queries from pool.json by seed;
2. --trace 0: the measured process, between SETUP_REPS set-up-only
   processes, runs whole passes over the queries for at least S seconds.
   Prints the end-to-end metrics; setup_s is the median of all set-ups.
   Times are scaled by the host's measured speed (worker.HostSpeed); the
   unscaled figures are printed alongside.
3. --trace 1: one untraced and one traced pass over the same queries.
   Prints the per-layer metrics, and trace.overhead_ratio (traced against
   untraced queries per second).  Spans go to .bench_build/trace/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit status is non-zero, with no result
line, when the repository's sources are missing or a step fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from worker import REF_NOMINAL_S  # noqa: E402

WORKLOAD_NAMES = ("strong-cold", "weak-warm", "coxeter-growth", "topes-cones")
SETUP_REPS = 10
STEP_TIMEOUT_S = 170

UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class StepFailed(Exception):
    pass


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def step(args, env, stdin=None, timeout=STEP_TIMEOUT_S):
    """Run one worker process to completion and parse its JSON output."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(
            cmd, input=stdin, capture_output=True, text=True, env=env,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise StepFailed(f"{' '.join(args)}: timed out after {timeout} s") from exc
    if proc.returncode != 0:
        raise StepFailed(f"{' '.join(args)}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "twisted_bruhat", "__init__.py")):
        print("error: src/twisted_bruhat not found; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src)
    w = args.workload
    try:
        doc = json.dumps(step(["generate", w, str(args.seed)], env))
        if args.trace:
            trace_dir = os.path.abspath(os.path.join(".bench_build", "trace"))
            os.makedirs(trace_dir, exist_ok=True)
            trace_path = os.path.join(trace_dir, f"{w}-seed{args.seed}.spans")
            plain = step(["measure", w, "--passes", "1"], env, doc)
            res = step(["measure", w, "--passes", "1", "--trace", trace_path], env, doc)
            metrics = {
                name: {"value": value, "unit": layer_unit(name)}
                for name, value in res["layers"].items()
                if name != "trace.spans"
            }
            metrics["trace.overhead_ratio"] = {
                "value": res["queries_per_s"] / plain["queries_per_s"],
                "unit": "ratio",
            }
            print(f"{w}: {res['layers']['trace.spans']} spans written to {trace_path}")
        else:
            # Half the set-ups run before the measured process and half after,
            # so that one slow spell of the host does not decide the median.
            setups = [step(["setup", w], env, doc) for _ in range(SETUP_REPS // 2)]
            res = step(["measure", w, "--seconds", str(args.seconds)], env, doc)
            setups.append(res)
            setups += [step(["setup", w], env, doc) for _ in range(SETUP_REPS // 2)]
            res["setup_s"] = statistics.median(r["setup_s"] for r in setups)
            res["raw"]["setup_s"] = statistics.median(r["raw"]["setup_s"] for r in setups)
            metrics = {name: {"value": res[name], "unit": unit} for name, unit in UNITS.items()}
    except StepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, m in metrics.items():
        raw = res.get("raw", {}).get(name) if not args.trace else None
        note = f" (unscaled {raw:.6g})" if raw is not None else ""
        print(f"{w}: {name} = {m['value']:.6g} {m['unit']}{note}")
    if not args.trace:
        print(f"{w}: host reference work took {res['raw']['reference_ms']:.4g} ms "
              f"(nominal {1000 * REF_NOMINAL_S:g} ms)")
    failed_ratio = res["failed"] / res["attempted"]
    print(f"{w}: failed_ratio = {failed_ratio:.6g} ({res['failed']} of "
          f"{res['attempted']} queries; {res['queries']} timed in {res['passes']} passes)")
    for f in res["failures"]:
        print(f"{w}: failed query {json.dumps(f['query'])}: {f['error']}", file=sys.stderr)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
