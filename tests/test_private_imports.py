"""No module of the package imports another module's private names.

A name with a leading underscore is free to change with its module, so
a sibling that imports one couples itself to those internals; a name
shared between modules is public.  The check reads the sources, which
are not imported.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "lieb2b"


def sibling_imports(tree):
    """(module, name) for each `from .x import name` or
    `from lieb2b.x import name` in the tree, nested imports included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "lieb2b"):
            for alias in node.names:
                yield node.module, alias.name


def test_no_module_imports_a_private_name_from_a_sibling():
    offending = [f"{path.name}: from {module} import {name}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for module, name in sibling_imports(ast.parse(path.read_text()))
                 if name.startswith("_")]
    assert offending == []
