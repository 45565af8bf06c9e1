"""Self-test of the benchmark at tiny size.

    python3 -m pytest -q bench/test_bench.py

Every workload generates its inputs and answers a few queries of each kind
with all digests matching; the printed metric names and units equal those
in BENCHMARK.json; failing queries are counted without aborting the run; and
the benchmark refuses to run without the repository's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORKLOAD_NAMES  # noqa: E402
from workloads import WORKLOADS, canonical_dot  # noqa: E402

ENV = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.join(ROOT, "src"))


def worker(*args, doc=None):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        input=None if doc is None else json.dumps(doc),
        capture_output=True, text=True, env=ENV, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def kind(q):
    return q["argv"][0] if "argv" in q else q["op"]


def test_workload_names_agree():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(WORKLOAD_NAMES) and set(names) == set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_workload_generates_and_answers(workload):
    doc = worker("generate", workload, "7")
    assert doc == worker("generate", workload, "7")
    assert doc != worker("generate", workload, "8")
    tiny, seen = [], set()
    for entry in doc["queries"]:
        if kind(entry["q"]) not in seen:
            seen.add(kind(entry["q"]))
            tiny.append(entry)
    res = worker("measure", workload, "--passes", "1",
                 doc={"fixed": doc["fixed"], "queries": tiny})
    assert res["failed"] == 0, res["failures"]
    assert res["queries"] == len(tiny)


def test_failures_are_counted_and_do_not_abort():
    doc = worker("generate", "strong-cold", "7")
    good = doc["queries"][0]
    wrong_digest = {"q": good["q"], "digest": "0" * 16}
    usage_error = {"q": {"argv": ["covers", "--type", "A2"]}, "digest": "0" * 16}
    res = worker("measure", "strong-cold", "--passes", "1",
                 doc={"fixed": doc["fixed"], "queries": [wrong_digest, usage_error, good]})
    assert res["attempted"] == 3 and res["failed"] == 2
    errors = [f["error"] for f in res["failures"]]
    assert errors == ["digest mismatch", "exit code 2"]


def test_canonical_dot_ignores_node_numbering_and_edge_order():
    a = ('digraph poset {\n  rankdir=BT;\n  n0 [label="e\\n0"];\n  n1 [label="1\\n1"];\n'
         '  n2 [label="2\\n1"];\n  n0 -> n1 [color=black, label="s[a]"];\n'
         '  n0 -> n2 [color=blue, label="s[b]"];\n}\n')
    b = ('digraph poset {\n  rankdir=BT;\n  n2 [label="e\\n0"];\n  n0 [label="2\\n1"];\n'
         '  n1 [label="1\\n1"];\n  n2 -> n0 [color=blue, label="s[b]"];\n'
         '  n2 -> n1 [color=black, label="s[a]"];\n}\n')
    assert canonical_dot(a) == canonical_dot(b)
    assert canonical_dot(a) != canonical_dot(a.replace("color=blue", "color=black"))


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = load_spec()
    proc = bench("--workload", "weak-warm", "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == expected
    if trace:
        # weak-warm bypasses cover search, the generic backend and the LP.
        bypassed = [k for k in expected if k.endswith(".calls") and k.startswith(
            ("orders.scan_ray", "orders.covers", "generic.", "linprog."))]
        assert bypassed and all(res["metrics"][k]["value"] == 0 for k in bypassed)
        assert res["metrics"]["orders.twisted_length.hit_ratio"]["value"] == 1.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "weak-warm", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
