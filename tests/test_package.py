import ast
import functools
import importlib
import importlib.util
import re
from pathlib import Path

import prulab

SRC = Path(prulab.__file__).parent
ROOT = Path(__file__).parents[1]
LAYERTRACE = ROOT / "perfbench" / "layertrace.py"


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


def test_every_module_level_definition_is_used():
    # a function or class whose name is no token outside its own def/class
    # line, in src, tests, scripts or perfbench, is dead code
    defined = [(node.name, path, node.lineno)
               for path in sorted(SRC.glob("*.py"))
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    def_lines = {(path, lineno) for _, path, lineno in defined}
    used = set()
    for folder in (SRC, ROOT / "tests", ROOT / "scripts", ROOT / "perfbench"):
        for path in folder.rglob("*.py"):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if (path, lineno) not in def_lines:
                    used.update(re.findall(r"\w+", line))
    assert sorted({name for name, _, _ in defined} - used) == []
