"""Smoke runs of the experiment scripts at tiny sizes, and their exit
contract on every numeric flag."""

import importlib.util
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import FUZZ_COUNTS, FUZZ_VALUES

from prulab.cli import exit_code
from prulab.linalg import memory_budget_bytes, set_memory_budget_bytes

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
    # t = 2.2e306: ln t! leaves float range, and the prior bound its other branch
    ("bounds_table.py", ["--d", "2", "--t-mult", "1e305"], 1, "   2 "),
], ids=["run_pfc_distinguisher", "coverage_sweep", "bounds_table", "bounds_table-t-mult-1e305"])
def test_script_runs(script, args, header, row_prefix):
    # each script prints its header lines, then one row per input; here
    # there is one input
    proc = run_script(script, args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == header + 1 and lines[-1].startswith(row_prefix), proc.stdout


@pytest.mark.parametrize("args", [
    ["--d", "2", "--t-mult", "1e305"],
    ["--d", "8", "12", "16", "20", "--t-mult", "1", "2", "4"],
    ["--d", "2", "--t-mult", "1e6", "1e7"],
], ids=["t-mult-1e305", "readme", "t-of-8-and-9-digits"])
def test_bounds_table_columns_line_up(args):
    # every column but the last, the winner's name, is as wide as its heading
    proc = run_script("bounds_table.py", args)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    width = len(header.rsplit("  ", 1)[0])
    assert rows and all(len(row.rsplit("  ", 1)[0]) == width for row in rows), proc.stdout


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


# a small valid command line per script, and its flags that take one unit
# of work per unit of value, which take FUZZ_COUNTS
SCRIPT_BASES = {
    "run_pfc_distinguisher.py": "--n 2 --trials 1 --k-blocks 2 --seed 1",
    "coverage_sweep.py": "--dim 2 --net-size 2 --samples 2 --eps 0.5 --seed 1 --check-products",
    "bounds_table.py": "--d 4 --t-mult 1",
}
SCRIPT_COUNT_FLAGS = {"--trials", "--k-blocks", "--samples", "--net-size"}


def numeric_flags(script):
    """The flags ``script`` declares with a type other than str."""
    source = (ROOT / "scripts" / script).read_text()
    return re.findall(r'add_argument\("(--[\w-]+)", type=(?!str\b)', source)


def script_main(script):
    spec = importlib.util.spec_from_file_location(script.removesuffix(".py"),
                                                  ROOT / "scripts" / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.mark.parametrize("script, flag, value", [
    pytest.param(script, flag, value, id=f"{script.removesuffix('.py')} {flag} {value}")
    for script in SCRIPT_BASES for flag in numeric_flags(script)
    for value in (FUZZ_COUNTS if flag in SCRIPT_COUNT_FLAGS else FUZZ_VALUES)])
def test_every_numeric_flag_keeps_the_exit_contract(script, flag, value, capsys):
    """Each value of FUZZ_VALUES (or FUZZ_COUNTS) on each numeric flag of a
    small valid command line ends in exit 0, 1 or 2, never in an exception
    out of main, and exit 1 prints an error: line.  A flag given twice keeps
    its last value, this one.  A 1 MiB budget bounds every allocation the
    script charges."""
    argv = [*shlex.split(SCRIPT_BASES[script]), flag, value]
    main = script_main(script)
    budget = memory_budget_bytes()
    set_memory_budget_bytes(1 << 20)
    try:
        code = exit_code(lambda: main(argv))
    finally:
        set_memory_budget_bytes(budget)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), argv
    if code == 1:
        assert err.startswith("error: "), (argv, err)


def test_numeric_flags_are_found():
    assert {script: numeric_flags(script) for script in SCRIPT_BASES} == {
        "run_pfc_distinguisher.py": ["--n", "--trials", "--k-blocks", "--seed"],
        "coverage_sweep.py": ["--dim", "--net-size", "--samples", "--eps", "--seed"],
        "bounds_table.py": ["--d", "--t-mult", "--delta", "--c-design"],
    }
