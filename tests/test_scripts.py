"""Smoke runs of the experiment scripts at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize("script,args,header,row_prefix", [
    ("run_pfc_distinguisher.py", ["--n", "3", "--trials", "2", "--k-blocks", "5", "--seed", "1"],
     0, "n=  3 "),
    ("coverage_sweep.py", ["--net-size", "5", "--samples", "5", "--eps", "0.5", "--seed", "1",
                           "--check-products"], 0, "{'eps': 0.5,"),
    ("bounds_table.py", ["--d", "4", "--t-mult", "1"], 1, "   4 "),
], ids=["run_pfc_distinguisher", "coverage_sweep", "bounds_table"])
def test_script_runs(script, args, header, row_prefix):
    # each script prints its header lines, then one row per input; here
    # there is one input
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == header + 1 and lines[-1].startswith(row_prefix), proc.stdout
