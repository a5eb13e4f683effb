"""Import direction inside the package, read off each module's syntax tree.

The layers are words -> agraph -> hyperbolicity -> folding -> complexes ->
experiments -> cli: a module imports only from layers below it, and
``errors`` from anywhere.  Imports sit at module level, so the dependency
graph is the one a reader sees at the top of each file.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import freebases

LAYERS = ["words", "agraph", "hyperbolicity", "folding", "complexes", "experiments", "cli"]
PACKAGE = Path(freebases.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}


def _imported(node):
    """Package modules named by one import statement."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
        return {n.split(".")[1] for n in names if n.startswith("freebases.")}
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            parts = (node.module or "").split(".")
            return {parts[1]} if parts[0] == "freebases" and len(parts) > 1 else set()
        if node.level == 1 and node.module:
            return {node.module.split(".")[0]}
        if node.level == 1:
            return {alias.name for alias in node.names}
    return set()


def test_every_module_has_a_layer():
    assert set(MODULES) == set(LAYERS) | {"__init__", "errors"}


def test_imports_point_down_the_layers():
    for name in LAYERS:
        below = set(LAYERS[: LAYERS.index(name)]) | {"errors"}
        for node in ast.walk(MODULES[name]):
            assert _imported(node) <= below, (name, ast.unparse(node))
    for node in ast.walk(MODULES["errors"]):
        assert not _imported(node), ast.unparse(node)


def test_the_metric_layer_imports_only_bfs_and_errors():
    imported = set().union(*map(_imported, ast.walk(MODULES["hyperbolicity"])))
    assert imported == {"agraph", "errors"}


def test_importing_the_package_loads_no_experiment_or_command_line():
    code = "import sys, freebases; print(*(m for m in sys.modules if 'freebases' in m))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    library = set(LAYERS) - {"experiments", "cli"} | {"errors"}
    assert set(out.split()) == {"freebases"} | {"freebases." + m for m in library}


def test_no_function_imports_a_package_module():
    for name, tree in MODULES.items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    assert not _imported(node), (name, func.name, ast.unparse(node))


def test_no_list_is_popped_from_the_front():
    """list.pop(0) shifts the whole list, so a queue read that way is
    quadratic; breadth-first searches go through agraph.bfs instead."""
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "pop" and len(node.args) == 1
                    and isinstance(node.args[0], ast.Constant) and node.args[0].value == 0):
                raise AssertionError("%s:%d: %s" % (name, node.lineno, ast.unparse(node)))
