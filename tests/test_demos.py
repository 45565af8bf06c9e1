"""The demos run to completion.  Each runs in a fresh interpreter inside a
temporary directory, because figures.py writes its .dot files to the working
directory."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "demo", ["alcove_order_walkthrough.py", "figures.py", "infinite_interval.py"]
)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        cwd=tmp_path, env=src_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
