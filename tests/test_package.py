import ast
import functools
import importlib
import importlib.util
from pathlib import Path

import prulab

SRC = Path(prulab.__file__).parent
LAYERTRACE = Path(__file__).parents[1] / "perfbench" / "layertrace.py"


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
