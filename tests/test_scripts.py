"""Smoke runs of the experiment scripts at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


def run_script(script, args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], env=env,
                          capture_output=True, text=True, timeout=120)


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
    proc = run_script(script, args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == header + 1 and lines[-1].startswith(row_prefix), proc.stdout


@pytest.mark.parametrize("script,args,message", [
    ("bounds_table.py", ["--d", "1"], "argument --d: must be in [2, 2^500], got 1"),
    ("coverage_sweep.py", ["--net-size", "0", "--seed", "1"],
     "argument --net-size: must be in [1, inf), got 0"),
    ("coverage_sweep.py", ["--seed", "-1"], "argument --seed: must be in [0, 2^64), got -1"),
    ("run_pfc_distinguisher.py", ["--n", "0", "--seed", "1"],
     "argument --n: must be in [1, 30], got 0"),
    ("bounds_table.py", ["--d", "1000000", "--t-mult", "1e300"],
     "argument --t-mult: 4 d^2 ln 4 * 1e+300 overflows a float at d = 1000000"),
], ids=["bounds_table-d", "coverage_sweep-net-size", "coverage_sweep-seed",
        "run_pfc_distinguisher-n", "bounds_table-t-mult"])
def test_bad_value_is_a_usage_error(script, args, message):
    # the exit contract of the prulab CLI: exit 1 and an error: line naming
    # the flag, never a traceback
    proc = run_script(script, args)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.splitlines()[0] == f"error: {message}", proc.stderr
    assert "Traceback" not in proc.stderr
