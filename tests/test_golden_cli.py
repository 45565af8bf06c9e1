"""CLI stdout stays byte-identical to the recorded outputs in tests/golden/.

The commands are the README `interval`/`covers`/`levels` examples,
`covers` plus a two-grade `interval --format dot` for A3, B2 and G2 under a
non-trivial twist, two larger A3 and G2 intervals (16 edges each, weak
and strong), the rank-2 tope figure as records and as DOT, and the
rank-2 alcove order's `hasse` figure (DOT and JSONL, and DOT at
`--bound 10`) and `poincare` series, and the `sect4` growth table of the
(2,3,inf) group at its default budgets.
The stdout of `demos/alcove_order_walkthrough.py`, which prints coset
decompositions and their predicted lengths, is recorded too.  The
`covers` and `interval` commands must also run without one affine group
product.  Re-record
only when an output is meant to change:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import subprocess
import sys
from pathlib import Path

import pytest

from twisted_bruhat import cli

from conftest import src_env

GOLDEN = Path(__file__).resolve().parent / "golden"
DEMOS = Path(__file__).resolve().parents[1] / "demos"
ALCOVE = "twist:e psi:e d1:{} d2:{}"
A3 = ("--type", "A3", "--biclosed", "twist:1.4 psi:2 d1:{1} d2:{3}")
B2 = ("--type", "B2", "--biclosed", "twist:3 psi:1 d1:{2} d2:{}")
G2 = ("--type", "G2", "--biclosed", "twist:3.1 psi:2 d1:{} d2:{1}")

COMMANDS = {
    "readme_interval": ("interval", "--type", "A2", "--biclosed", ALCOVE,
                        "--x", "e", "--y", "3"),
    "readme_covers": ("covers", "--type", "A2", "--biclosed", ALCOVE,
                      "--elem", "e"),
    "readme_levels": ("levels", "--type", "A2", "--biclosed", ALCOVE,
                      "--level", "0", "--radius", "6"),
    "a3_covers": ("covers", *A3, "--elem", "2.4"),
    "a3_interval_dot": ("interval", *A3, "--x", "3.2.4", "--y", "2.4.1",
                        "--format", "dot"),
    "b2_covers": ("covers", *B2, "--elem", "1.3"),
    "b2_interval_dot": ("interval", *B2, "--x", "3", "--y", "2.1.3",
                        "--format", "dot"),
    "g2_covers": ("covers", *G2, "--elem", "1.2"),
    "g2_interval_dot": ("interval", *G2, "--x", "1.3.2", "--y", "2.1.2",
                        "--format", "dot"),
    "topes": ("topes",),
    "topes_dot": ("topes", "--format", "dot"),
    "a2_hasse_dot": ("hasse",),
    "a2_hasse_jsonl": ("hasse", "--format", "jsonl"),
    "a2_poincare_even": ("poincare", "--parity", "even"),
    "a2_poincare_odd": ("poincare", "--parity", "odd"),
    "a3_interval_twisted_psi_dot": (
        "interval", "--type", "A3", "--biclosed",
        "twist:1.4 psi:1.3 d1:{1} d2:{3}", "--x", "3.4.3.2.1",
        "--y", "2.3.2.1", "--format", "dot"),
    "g2_interval_twisted_psi_dot": (
        "interval", "--type", "G2", "--biclosed",
        "twist:2.3 psi:1 d1:{} d2:{2}", "--x", "3.2.1.2.1.3", "--y", "2.1.3",
        "--format", "dot"),
    "a2_hasse_bound10_dot": ("hasse", "--bound", "10"),
    "sect4": ("sect4",),
}

#: recording name -> demo script whose stdout is recorded
DEMO_RUNS = {"a2_walkthrough": "alcove_order_walkthrough.py"}


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue().encode("utf-8")


def _demo_stdout(script):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        env=src_env(), capture_output=True, timeout=300,
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize(
    "name", [n for n, argv in COMMANDS.items() if argv[0] in ("covers", "interval")]
)
def test_covers_and_intervals_take_no_products(name, products):
    """The cover search builds each cover as an integer step along its ray,
    and words are walked the same way: no AffineWeylElement product runs
    in an in-process `covers` or `interval` call."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(COMMANDS[name])) == 0
    assert products == []


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_recording(name):
    code, out = _stdout(COMMANDS[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", sorted(DEMO_RUNS))
def test_demo_stdout_matches_recording(name):
    code, out = _demo_stdout(DEMO_RUNS[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    runs = {name: (_stdout, argv) for name, argv in COMMANDS.items()}
    runs.update((name, (_demo_stdout, script)) for name, script in DEMO_RUNS.items())
    for name, (run, arg) in runs.items():
        code, out = run(arg)
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        (GOLDEN / f"{name}.out").write_bytes(out)
