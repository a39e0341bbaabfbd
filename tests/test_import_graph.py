"""The package's modules import one another at the top, in layers.

An import inside a function body hides a dependency from the module's
header and is the usual way round an import cycle, so neither is
allowed: every sibling import sits at module level, and the graph of
sibling imports has no cycle.  The check reads the sources, which are
not imported.
"""

import ast
import graphlib

from test_private_imports import PACKAGE, sibling_imports

MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _target(module, name):
    """The sibling module an import names: `from . import x` and
    `from lieb2b import x` name it in the alias, the others in the
    module path."""
    return name if module in (None, "lieb2b") else module.rsplit(".", 1)[-1]


def test_no_function_body_imports_a_sibling():
    offending = [f"{stem}.{node.name}: from {module} import {name}"
                 for stem, tree in _trees().items()
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for module, name in sibling_imports(node)]
    assert offending == []


def test_sibling_import_graph_is_acyclic():
    graph = {stem: {t for module, name in sibling_imports(tree)
                    if (t := _target(module, name)) in MODULES and t != stem}
             for stem, tree in _trees().items()}
    try:
        order = list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as err:
        raise AssertionError(f"sibling imports form a cycle: {err.args[1]}") from None
    assert set(order) == MODULES
