"""The names the benchmark under ``perfbench/`` calls exist in the package.

The tracer wraps every ``TRACED`` name and the workloads call package
attributes; a name removed from the package would otherwise show up only
as an ``AttributeError`` in a benchmark run. Nothing here installs the
tracer or runs a workload.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import tensorpls

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = load_tracer().TRACED


def test_traced_names_are_functions():
    not_functions = [
        f"{mod}.{name}"
        for mod, names in TRACED.items()
        for name in names
        if not inspect.isfunction(getattr(importlib.import_module(f"tensorpls.{mod}"), name, None))
    ]
    assert not_functions == []


def package_attributes(tree):
    """The names ``x`` of every ``tp.x`` and ``self.tp.x`` in a module's AST."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id == "tp":
            yield node.attr
        elif (
            isinstance(base, ast.Attribute)
            and base.attr == "tp"
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
        ):
            yield node.attr


def test_workload_calls_only_package_names():
    tree = ast.parse((PERFBENCH / "workload.py").read_text())
    names = sorted(set(package_attributes(tree)))
    assert names, "no tp.<name> attribute found in workload.py"
    importlib.import_module("tensorpls.cli")  # the workloads reach tp.cli
    assert [n for n in names if not hasattr(tensorpls, n)] == []
