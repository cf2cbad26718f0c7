"""Package-level contracts that no single module test covers."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "cascfluor"


def test_package_imports_only_numpy_and_the_standard_library():
    files = sorted(SOURCE.glob("*.py"))
    assert files
    foreign = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "numpy" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}:{node.lineno}: {module}")
    assert not foreign, foreign


def _parsed_sources():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SOURCE.glob("*.py"))}


def test_one_parse_error_class():
    classes = [f"{name}:{node.name}" for name, tree in _parsed_sources().items()
               for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and node.name.endswith("ParseError")]
    assert classes == ["table.py:ParseError"]


def test_only_the_table_codec_opens_files():
    openers = set()
    for name, tree in _parsed_sources().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if ((isinstance(func, ast.Name) and func.id == "open")
                    or (isinstance(func, ast.Attribute)
                        and func.attr in ("open", "read_text", "write_text"))):
                openers.add(name)
    assert openers == {"table.py"}


def test_only_the_table_codec_parses_rows_in_bulk():
    callers = {name for name, tree in _parsed_sources().items() for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr in ("loadtxt", "genfromtxt")}
    assert callers == {"table.py"}


def test_only_spectrum_takes_grid_parameters():
    # the cascade model and the fits sample on fixed grids; only the
    # spectrum module (and so `cascfluor spectrum --span/--step`) sets one
    takers = []
    for name, tree in _parsed_sources().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                takers += [f"{name}:{node.name}({a.arg})" for a in params
                           if a.arg in ("grid_span", "grid_step")]
    assert takers and all(t.startswith("spectrum.py:") for t in takers), takers


def test_cli_import_loads_few_modules():
    # interpreter start plus this import is the set-up time of every
    # command, so the import stays as light as it is: no new module besides
    # numpy's
    code = """if True:
        import sys
        import numpy
        before = set(sys.modules)
        from cascfluor import cli
        print(" ".join(sorted({m.split(".")[0] for m in set(sys.modules) - before})))
    """
    paths = [str(SOURCE.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    loaded = set(out[0].split()) - {"numpy"}
    assert loaded <= {"argparse", "copy", "dataclasses", "gettext", "__future__", "cascfluor"}
