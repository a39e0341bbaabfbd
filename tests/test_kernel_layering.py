"""Only `bethe` evaluates the Bethe residual kernel, apart from `exceptional`.

Newton's method on the residual at fixed coupling (`newton_correct`,
`newton_correct_array`, `newton_correct_with_step`, which also returns
the next Newton step) lives beside the kernel in `bethe`; every other
module takes those correctors instead of the kernel and its depth
switch.  `exceptional` is the exception: its collision function F(g)
is a different function built on the same terms.  The package's
`__init__` only re-exports public names.  The check reads the sources,
which are not imported.
"""

import ast

from test_private_imports import PACKAGE, sibling_imports

KERNEL = {"bethe_residual", "residual_terms", "unscaled_residual_terms",
          "terms_from_trig", "DEEP_IM_H"}
ALLOWED = {"bethe.py", "exceptional.py", "__init__.py"}


def test_only_bethe_and_exceptional_import_the_kernel():
    offending = [f"{path.name}: from {module} import {name}"
                 for path in sorted(PACKAGE.glob("*.py")) if path.name not in ALLOWED
                 for module, name in sibling_imports(ast.parse(path.read_text()))
                 if name in KERNEL]
    assert offending == []


def test_depth_switch_is_read_only_in_bethe():
    readers = sorted(path.name for path in PACKAGE.glob("*.py")
                     if "DEEP_IM_H" in path.read_text())
    assert readers == ["bethe.py"]
