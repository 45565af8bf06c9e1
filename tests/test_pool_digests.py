"""Every recorded benchmark answer: each query of `bench/pool.json` is
answered in-process through `bench/workloads.py`, with no exception, and
its canonical digest equals the recorded one.

The benchmark itself samples a few dozen queries per run, and its self-test
answers one query of each kind; this checks all of them, whatever the hash
seed."""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
POOL = json.loads((BENCH / "pool.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(POOL))
def test_pool_digests(name):
    wl = WORKLOADS.WORKLOADS[name]
    pool = POOL[name]
    ctx = wl.setup(pool["fixed"])
    entries = [entry for stratum in pool["strata"] for entry in stratum["queries"]]
    assert entries
    mismatches = [
        entry["q"]
        for entry in entries
        if WORKLOADS.digest(wl.canon(ctx, entry["q"], wl.call(ctx, entry["q"])))
        != entry["digest"]
    ]
    assert mismatches == []
