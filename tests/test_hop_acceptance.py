"""Sheet rows and one-point walks keep a root by one rule.

`continuation._march_half` walks each sheet row with `walk_path` and
the array corrector; it calls neither the scalar corrector nor the
scalar hop, so no column of a sheet is moved by a second path.  The
row hop and `_scalar_hop` both accept through `_accepted`, and the
dJ/dk quotient that the scalar hop used to test is gone from the
package.  The check reads the sources, which are not imported.
"""

import ast

from test_private_imports import PACKAGE


def called_names(function: str) -> set:
    """Names called inside `continuation.<function>`, nested functions
    included."""
    tree = ast.parse((PACKAGE / "continuation.py").read_text())
    node = next(n for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef) and n.name == function)
    return {n.func.id for n in ast.walk(node)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}


def test_rows_take_the_array_corrector_only():
    calls = called_names("_march_half")
    assert {"walk_path", "newton_correct_array"} <= calls
    assert not calls & {"newton_correct", "_scalar_hop"}


def test_row_and_scalar_hops_share_the_acceptance_test():
    assert "_accepted" in called_names("_march_half")
    assert "_accepted" in called_names("_scalar_hop")


def test_no_dj_dk_quotient_in_the_package():
    assert [p.name for p in sorted(PACKAGE.glob("*.py")) if "dj_dk" in p.read_text()] == []
