"""Source-layout rules checked by parsing, not by running the code."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "starfuse").glob("*.py"))


def _private_imports(source):
    """(module, name) of every underscore name the module ``source`` imports
    from another starfuse module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "starfuse":
            continue
        found += [(module, alias.name) for alias in node.names if alias.name.startswith("_")]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    assert _private_imports(path.read_text()) == []


def _traced_table():
    """The ``TRACED`` dict literal of the benchmark tracer."""
    source = (ROOT / "perfbench" / "tracing.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TRACED table")


def test_traced_functions_exist():
    missing = [f"{short}.{name}" for short, names in _traced_table().items()
               for name in names
               if not hasattr(importlib.import_module(f"starfuse.{short}"), name)]
    assert missing == []


def test_import_leaves_scipy_optimize_unloaded():
    """Only the Prelec fit needs scipy.optimize, so importing the package
    and its CLI must not pay for it."""
    code = ("import sys, starfuse, starfuse.cli; "
            "print('scipy.optimize' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
