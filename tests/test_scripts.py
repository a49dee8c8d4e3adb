"""The exit contract on every numeric flag of the workflows that the
retired experiment scripts ran, which README now runs as `prulab`
commands.  Each case keeps its script's name: run_pfc_distinguisher,
bounds_table and coverage_sweep."""

import argparse
import shlex

import pytest
from helpers import FUZZ_COUNTS, FUZZ_VALUES, readme_commands

from prulab.cli import build_parser, main
from prulab.linalg import memory_budget_bytes, set_memory_budget_bytes

# the small `prulab` command lines of README's replacement for each script
# (bounds_table's t = ceil(4 d^2 ln 4) = 89 at d = 4; coverage_sweep's is
# README's `net-coverage ... --check-products` line at tiny sizes)
RETIRED_SCRIPT_LINES = {
    "run_pfc_distinguisher": ["pfc-distinguish --n 2 --trials 1 --k-blocks 2 --seed 1"],
    "bounds_table": ["bounds prior-support --d 4 --t 89 --log --format csv",
                     "bounds improved-support --d 4 --t 89 --log --format csv"],
    "coverage_sweep": ["net-coverage --haar-net-size 2 --dim 2 --eps 0.5 --samples 2 --seed 1 "
                       "--check-products"],
}
# flags each of whose units is a draw, which take FUZZ_COUNTS
COUNT_FLAGS = {"--trials", "--k-blocks", "--samples", "--haar-net-size"}


def leaf_parser(argv):
    """The parser of the `prulab` command that ``argv`` names."""
    parser = build_parser()
    for word in argv:
        if word.startswith("-"):
            break
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[word]
    return parser


def numeric_flags(argv):
    """The flags ``argv`` gives whose command declares them with a type other than str."""
    actions = leaf_parser(argv)._option_string_actions
    return [w for w in argv if w in actions and actions[w].type not in (None, str)]


def check_products_flags():
    (argv,) = [argv for argv in readme_commands() if "--check-products" in argv]
    return numeric_flags(argv)


# the numeric flags each script had that its replacement lines keep
# (bounds_table.py's --t-mult is gone, as README gives t itself)
RETIRED_SCRIPT_FLAGS = {
    "run_pfc_distinguisher": ["--n", "--trials", "--k-blocks", "--seed"],
    "bounds_table": ["--d", "--delta", "--c-design"],
    "coverage_sweep": check_products_flags(),
}


@pytest.mark.parametrize("name, flag, value", [
    pytest.param(name, flag, value, id=f"{name} {flag} {value}")
    for name, flags in RETIRED_SCRIPT_FLAGS.items()
    for flag in flags
    for value in (FUZZ_COUNTS if flag in COUNT_FLAGS else FUZZ_VALUES)])
def test_every_numeric_flag_keeps_the_exit_contract(name, flag, value, capsys):
    """Each value of FUZZ_VALUES (or FUZZ_COUNTS) on each numeric flag of
    each replacement line that declares it ends in exit 0, 1 or 2, never in
    an exception out of main, and exit 1 prints an error: line.  A flag
    given twice keeps its last value, this one.  A 1 MiB budget bounds
    every allocation the workflow charges."""
    lines = [shlex.split(line) for line in RETIRED_SCRIPT_LINES[name]]
    runs = [[*argv, flag, value] for argv in lines
            if flag in leaf_parser(argv)._option_string_actions]
    assert runs, (name, flag)
    for argv in runs:
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


@pytest.mark.parametrize("line", [
    pytest.param(line, id=line) for lines in RETIRED_SCRIPT_LINES.values() for line in lines])
def test_replacement_line_runs_as_written(line, capsys):
    # a base line that stopped parsing would turn every fuzz case above into
    # a usage error, which their exit contract allows
    assert main(shlex.split(line)) == 0, capsys.readouterr().err


def test_numeric_flags_are_found():
    # coverage_sweep's cases are README's --check-products line's numeric
    # flags, which its small line gives too
    (small,) = RETIRED_SCRIPT_LINES["coverage_sweep"]
    assert check_products_flags() == numeric_flags(shlex.split(small)) == [
        "--haar-net-size", "--dim", "--eps", "--samples", "--seed"]
