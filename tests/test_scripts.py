"""Smoke runs of the experiment scripts at tiny sizes, and their exit
contract on every numeric flag, also for the workflows of the retired
scripts, which README now runs as `prulab` commands."""

import argparse
import csv
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import FUZZ_COUNTS, FUZZ_VALUES

from prulab.cli import build_parser, exit_code, main as prulab_main
from prulab.linalg import memory_budget_bytes, set_memory_budget_bytes

ROOT = Path(__file__).parents[1]


def run_script(script, args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script,args,header,row_prefix", [
    ("coverage_sweep.py", ["--net-size", "5", "--samples", "5", "--eps", "0.5", "--seed", "1",
                           "--check-products"], 0, '{"eps": 0.5,'),
], ids=["coverage_sweep"])
def test_script_runs(script, args, header, row_prefix):
    # each script prints its header lines, then one row per input; here
    # there is one input
    proc = run_script(script, args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == header + 1 and lines[-1].startswith(row_prefix), proc.stdout
    for line in lines[header:]:
        json.loads(line)


def test_coverage_sweep_writes_its_rows_as_csv(tmp_path):
    # --out writes the rows stdout prints as JSON, one CSV row each
    out = tmp_path / "sweep.csv"
    proc = run_script("coverage_sweep.py", ["--net-size", "5", "--samples", "5", "--eps", "0.5",
                                            "0.9", "--seed", "1", "--check-products",
                                            "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [row["eps"] for row in rows] == [0.5, 0.9], proc.stdout
    with open(out, newline="") as fh:
        table = list(csv.DictReader(fh))
    assert list(table[0]) == ["eps", "eta_hat", "ci_half", "worst_pair_cover", "two_eps"]
    assert [{k: float(v) for k, v in row.items()} for row in table] == rows


@pytest.mark.parametrize("script,args,message", [
    ("coverage_sweep.py", ["--net-size", "0", "--seed", "1"],
     "argument --net-size: must be in [1, inf), got 0"),
    ("coverage_sweep.py", ["--seed", "-1"], "argument --seed: must be in [0, 2^64), got -1"),
], ids=["coverage_sweep-net-size", "coverage_sweep-seed"])
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
    "coverage_sweep.py": "--dim 2 --net-size 2 --samples 2 --eps 0.5 --seed 1 --check-products",
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


# the workflows of the retired scripts run_pfc_distinguisher.py and
# bounds_table.py, by the script's name: the small `prulab` command lines
# of README's replacement for each, and the numeric flags the script had
# that those commands keep (bounds_table.py's --t-mult is gone, as README
# gives t itself: 4 d^2 ln 4 = 88.7 at d = 4)
RETIRED_SCRIPT_LINES = {
    "run_pfc_distinguisher": ["pfc-distinguish --n 2 --trials 1 --k-blocks 2 --seed 1"],
    "bounds_table": ["bounds prior-support --d 4 --sweep-t 89 --log --format csv",
                     "bounds improved-support --d 4 --sweep-t 89 --log --format csv"],
}
RETIRED_SCRIPT_FLAGS = {
    "run_pfc_distinguisher": ["--n", "--trials", "--k-blocks", "--seed"],
    "bounds_table": ["--d", "--delta", "--c-design"],
}


def declares(line, flag):
    """Whether the `prulab` command that ``line`` names declares ``flag``."""
    parser = build_parser()
    for word in shlex.split(line):
        if word.startswith("-"):
            break
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[word]
    return flag in parser._option_string_actions


def workflow_runs(name, flag, value):
    """The argv and main of each run of workflow ``name`` with ``flag value``
    appended: the script's own, or each replacement line that declares
    ``flag``."""
    if name in RETIRED_SCRIPT_LINES:
        lines = [line for line in RETIRED_SCRIPT_LINES[name] if declares(line, flag)]
        assert lines, (name, flag)
        return [([*shlex.split(line), flag, value], prulab_main) for line in lines]
    script = f"{name}.py"
    main = script_main(script)
    return [([*shlex.split(SCRIPT_BASES[script]), flag, value],
             lambda argv: exit_code(lambda: main(argv)))]


@pytest.mark.parametrize("name, flag, value", [
    pytest.param(name, flag, value, id=f"{name} {flag} {value}")
    for name, flags in [
        *((script.removesuffix(".py"), numeric_flags(script)) for script in SCRIPT_BASES),
        *RETIRED_SCRIPT_FLAGS.items()]
    for flag in flags
    for value in (FUZZ_COUNTS if flag in SCRIPT_COUNT_FLAGS else FUZZ_VALUES)])
def test_every_numeric_flag_keeps_the_exit_contract(name, flag, value, capsys):
    """Each value of FUZZ_VALUES (or FUZZ_COUNTS) on each numeric flag of a
    small valid command line ends in exit 0, 1 or 2, never in an exception
    out of main, and exit 1 prints an error: line.  A flag given twice keeps
    its last value, this one.  A 1 MiB budget bounds every allocation the
    workflow charges."""
    for argv, main in workflow_runs(name, flag, value):
        budget = memory_budget_bytes()
        set_memory_budget_bytes(1 << 20)
        try:
            code = main(argv)
        finally:
            set_memory_budget_bytes(budget)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        if code == 1:
            assert err.startswith("error: "), (argv, err)


def test_numeric_flags_are_found():
    assert {script: numeric_flags(script) for script in SCRIPT_BASES} == {
        "coverage_sweep.py": ["--dim", "--net-size", "--samples", "--eps", "--seed"],
    }
