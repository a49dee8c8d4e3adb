import ast
import functools
import importlib
import importlib.util
import tokenize
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


#: public definitions in src/prulab that only tests/ call, kept as library
#: API: manifest and tableau writers and readers, net and ensemble
#: operations, closed forms and counts for callers of the package, and
#: concentration_reference until the exact support-dimension law replaces it
TEST_ONLY_API = {
    "concentration_reference", "net_membership_distinguisher",
    "symmetric_composition_check", "compose_nets", "dagger_net",
    "save_matrix_bin", "ensemble_to_json_dict", "net_to_json_dict",
    "circuit_to_json_dict", "dump_json", "symplectic_from_index", "gamma_state",
    "stabilizer_state_count", "tableau_to_json_dict", "tableau_from_json_dict",
    "diag_truncation_distance",
}


def _definitions() -> list[tuple[str, Path, int, int]]:
    """(name, path, first line, last line) of every module-level function,
    class and assigned name in src/prulab, dunders left out."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            out += [(name, path, node.lineno, node.end_lineno)
                    for name in names if not name.startswith("__")]
    return out


def _referenced(folders, definitions) -> set[str]:
    """Names of ``definitions`` that some NAME token in the .py files under
    ``folders`` spells, outside the definition's own statement; strings,
    docstrings and comments are other token types and never count."""
    spans = {}
    for name, path, first, last in definitions:
        spans.setdefault(name, []).append((path, first, last))
    found = set()
    for folder in folders:
        for path in sorted(folder.rglob("*.py")):
            with tokenize.open(path) as fh:
                for tok in tokenize.generate_tokens(fh.readline):
                    if tok.type == tokenize.NAME and tok.string in spans and not any(
                            p == path and first <= tok.start[0] <= last
                            for p, first, last in spans[tok.string]):
                        found.add(tok.string)
    return found


def test_every_module_level_definition_is_used():
    # a definition whose name is no token outside its own statement, in src,
    # tests, scripts or perfbench, is dead code
    defined = _definitions()
    used = _referenced((SRC, ROOT / "tests", ROOT / "scripts", ROOT / "perfbench"), defined)
    assert sorted({name for name, *_ in defined} - used) == []


def test_public_definitions_have_a_caller_outside_tests():
    # a public definition that only tests/ reach is a test oracle, which
    # belongs in tests/helpers.py, or dead code, unless kept as API above;
    # a listed name that gains a caller, or is gone, leaves the list
    defined = [d for d in _definitions() if not d[0].startswith("_")]
    used = _referenced((SRC, ROOT / "scripts", ROOT / "perfbench"), defined)
    test_only = {name for name, *_ in defined} - used
    assert sorted(test_only ^ TEST_ONLY_API) == []
