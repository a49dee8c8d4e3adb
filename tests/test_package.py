import ast
import functools
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import prulab
from prulab.distinguisher import pfc_distinguish_experiment
from prulab.linalg import RandomSeed

SRC = Path(prulab.__file__).parent
ROOT = Path(__file__).parents[1]
LAYERTRACE = ROOT / "perfbench" / "layertrace.py"
BENCH_SPEC = ROOT / "perfbench" / "spec.json"
HELPERS = ROOT / "tests" / "helpers.py"


def test_no_private_names_imported_across_modules():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "prulab"):
                offenders += [f"{path.name}: {node.module}.{a.name}"
                              for a in node.names if a.name.startswith("_")]
    assert offenders == []


def test_benchmark_trace_targets_resolve():
    # the traced benchmark run wraps these (module, attribute path) pairs
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    missing = []
    for _, module, path, _ in layertrace.TARGETS:
        try:
            functools.reduce(getattr, path.split("."), importlib.import_module(module))
        except AttributeError:
            missing.append(f"{module}.{path}")
    assert missing == []


def test_benchmark_modules_load_no_scipy():
    """The benchmark's set-up processes import these five modules.  In a
    fresh process on a 2-vCPU Xeon VM, ``import numpy, scipy.spatial``
    took 0.49-0.65 s and 64.4 MB max RSS, against 0.20 s and 32.3 MB for
    numpy and these modules, so a scipy.spatial import would add about
    0.35 s to nets-cover's setup_s (0.4 s) and 32 MB to its peak_rss_mb
    (47 MB), past both bounds."""
    code = ("import sys\n"
            "import prulab.distinguisher, prulab.linalg, prulab.nets, "
            "prulab.stabilizer, prulab.tomography\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_benchmark_call_binds():
    # the collide-n10 unit calls pfc_distinguish_experiment(seed=..., **params)
    # with its params from the benchmark spec; a renamed or dropped keyword
    # breaks that call, which binding here shows without running it
    params = json.loads(BENCH_SPEC.read_text())["workloads"]["collide-n10"]["params"]
    inspect.signature(pfc_distinguish_experiment).bind(seed=RandomSeed(0), **params)


#: public definitions in src/prulab that only tests/ call, each waiting for
#: a caller ROADMAP names: item 2's exact support-dimension law calls
#: stabilizer_state_count and replaces concentration_reference, and item 3's
#: reference two-qubit Clifford design calls symplectic_from_index and
#: tableau_to_unitary; a class member kept on purpose goes here as
#: ``Class.member``
TEST_ONLY_API = {
    "concentration_reference", "stabilizer_state_count", "symplectic_from_index",
    "tableau_to_unitary",
}


def _definitions(paths=None) -> list[tuple[str, str, Path, int, int]]:
    """(name, token, path, first line, last line) of every module-level
    function, class and assigned name in ``paths`` (default: src/prulab),
    and of every public method, property and classmethod of a public class,
    named ``Class.member`` with the member's name as its token; dunders,
    ``_``-prefixed members and members of ``_``-prefixed classes are left
    out."""
    out = []
    for path in paths or sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            out += [(name, name, path, node.lineno, node.end_lineno)
                    for name in names if not name.startswith("__")]
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                out += [(f"{node.name}.{m.name}", m.name, path, m.lineno, m.end_lineno)
                        for m in node.body
                        if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not m.name.startswith("_")]
    return out


def _referenced(folders, definitions) -> set[str]:
    """Names of ``definitions`` whose token some NAME token in the .py files
    under ``folders`` spells, outside every statement that defines that
    token; strings, docstrings and comments are other token types and never
    count.  A member shares its token with every other attribute of that
    name, so one use of ``x.draw`` marks every ``draw`` method used."""
    spans, names = {}, {}
    for name, token, path, first, last in definitions:
        spans.setdefault(token, []).append((path, first, last))
        names.setdefault(token, set()).add(name)
    found = set()
    for folder in folders:
        for path in sorted(folder.rglob("*.py")):
            with tokenize.open(path) as fh:
                for tok in tokenize.generate_tokens(fh.readline):
                    if tok.type == tokenize.NAME and tok.string in spans and not any(
                            p == path and first <= tok.start[0] <= last
                            for p, first, last in spans[tok.string]):
                        found |= names[tok.string]
    return found


def test_every_module_level_definition_is_used():
    # a definition whose name is no token outside its own statement, in src,
    # tests, scripts or perfbench, is dead code; class members included
    defined = _definitions()
    used = _referenced((SRC, ROOT / "tests", ROOT / "scripts", ROOT / "perfbench"), defined)
    assert sorted({name for name, *_ in defined} - used) == []


def test_every_test_oracle_is_used():
    # an oracle in tests/helpers.py that no test, other helper or benchmark
    # file names outside its own statement has outlived its last test
    defined = _definitions([HELPERS])
    used = _referenced((ROOT / "tests", ROOT / "perfbench"), defined)
    assert sorted({name for name, *_ in defined} - used) == []


def test_public_definitions_have_a_caller_outside_tests():
    """A public definition that only tests/ reach is a test oracle, which
    belongs in tests/helpers.py, or dead code, unless kept as API above; a
    listed name that gains a caller, or is gone, leaves the list.

    Members are matched by name alone: a member whose name another attribute
    or definition shares (``apply``, ``sample``, ``dim``, ``size``,
    ``matrix``, ``random``) counts as used wherever that name appears, so
    this guard misses test-only members with common names; those need a
    sweep by hand, grepping each attribute's uses.
    """
    defined = [d for d in _definitions() if not d[0].startswith("_")]
    used = _referenced((SRC, ROOT / "scripts", ROOT / "perfbench"), defined)
    test_only = {name for name, *_ in defined} - used
    assert sorted(test_only ^ TEST_ONLY_API) == []
