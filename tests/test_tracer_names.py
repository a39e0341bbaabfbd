"""Every function the benchmark tracer wraps still exists in lieb2b.

The tracer (bench/tracer.py) looks its names up when a traced run
starts, so a rename or deletion in the package would crash that run;
this check fails first.  The names are read from the tracer's source,
which is not imported.
"""

import ast
import importlib
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def tracer_constant(name):
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER.name}")


def resolve(module, dotted):
    obj = module
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_timed_names_resolve():
    timed = tracer_constant("TIMED")
    assert timed
    for layer, names in timed.items():
        module = importlib.import_module("lieb2b." + layer)
        for name in names:
            assert callable(resolve(module, name)), f"lieb2b.{layer}.{name}"


def test_kernel_names_resolve():
    bethe = importlib.import_module("lieb2b.bethe")
    for name in tracer_constant("KERNEL"):
        assert callable(getattr(bethe, name)), f"lieb2b.bethe.{name}"
