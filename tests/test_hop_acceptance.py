"""Sheet rows and one-point walks keep a root by one rule, and frames
move by one step layout.

`continuation._march_rows` walks the rows of both half-sheets with
`walk_path` and the array corrector; it calls neither the scalar
corrector nor the scalar hop, so no column of a sheet is moved by a
second path.  The row hop and `_scalar_hop` both accept through
`_accepted`, and the dJ/dk quotient that the scalar hop used to test
is gone from the package.  In `holonomy`, `_run_steps` is the only
caller of the frame corrector `_advance_run`, and both frame movers,
`transport` and `_walk_frame`, go through it.  Both also step by one rule: they reach
`walk_path` only through `_walk_branches`, and their hops take the
factor after a kept step from `_kept_factor`.  One-root continuation
has one walker too: `sheet_value`, `continue_along` and
`conjugation_symmetry_check` reach `walk_path` only through
`_walk_root`, whose hop is `_scalar_hop`, and no module keeps a fixed
step cap `MAX_STEP`.  A one-root walk returns a root or raises, so no
trace, sample or status type and no `_vertical` wrapper is defined.  Every frame walk runs at one run size: no caller
hands `_walk_branches` one, no walk passes `walk_path` a step cap or a
growth, and transport's own batch size is gone.  A loop's permutation
is read one way: `transport` and `frame_monodromy` build it through
`_signed_permutation`, the only caller of `match_frames`, and no
dominance threshold, its error or its exit code is defined.  The
exceptional-point catalog has one home: `family_eps` and
`RUNG_DEPTH_MARGIN` are defined in `exceptional` alone, which is the
only module that calls `ladder_points` or `_ladder`; the sheet cuts,
the one-root walks and the entry corridor ask `family_eps`, and neither
a second ladder walk `_partner_points` nor a `failures` table of
errors kept in place exists.  The check reads the sources, which are not
imported; a call counts by its bare name or, module-qualified, by the
attribute it calls.
"""

import ast

from test_private_imports import PACKAGE


def call_name(node):
    """The name a call calls, ``f`` of ``f(...)`` and of ``module.f(...)``,
    or None for anything that is not such a call."""
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            return node.func.id
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
    return None


def names_called(node) -> set:
    """Names called inside an AST node, nested functions included."""
    return {call_name(n) for n in ast.walk(node)} - {None}


def name_uses(name: str) -> list:
    """Every place in the package that defines, imports or reads ``name``."""
    return [f"{path.name}:{node.lineno}"
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.alias) and node.name == name)]


def functions(module: str) -> dict:
    """The functions, methods and nested functions of a module by name."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}


def called_names(function: str, module: str = "continuation") -> set:
    """Names called inside `<module>.<function>`."""
    return names_called(functions(module)[function])


def reached_names(function: str, module: str = "continuation") -> set:
    """Names called from `<module>.<function>`, through the module's own
    functions that it calls, to any depth."""
    defined, reached, todo = functions(module), set(), [function]
    while todo:
        for name in names_called(defined[todo.pop()]) - reached:
            reached.add(name)
            if name in defined:
                todo.append(name)
    return reached


def test_rows_take_the_array_corrector_only():
    calls = called_names("_march_rows")
    assert {"walk_path", "newton_correct_array"} <= calls
    assert not calls & {"newton_correct", "_scalar_hop"}


def test_row_and_scalar_hops_share_the_acceptance_test():
    assert "_accepted" in called_names("_march_rows")
    assert "_accepted" in called_names("_scalar_hop")


def test_no_dj_dk_quotient_in_the_package():
    assert [p.name for p in sorted(PACKAGE.glob("*.py")) if "dj_dk" in p.read_text()] == []


def test_only_the_step_layout_calls_the_frame_corrector():
    # every function, method or nested hop of the package that calls it
    callers = {f"{path.stem}.{node.name}"
               for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef) and "_advance_run" in names_called(node)}
    assert callers == {"holonomy._run_steps"}


def test_transport_and_frame_walks_share_the_step_layout():
    for function in ("transport", "_walk_frame"):
        assert "_run_steps" in called_names(function, "holonomy")


def test_transport_and_frame_walks_share_the_step_rule():
    for function in ("transport", "_walk_frame"):
        calls = called_names(function, "holonomy")
        assert {"_walk_branches", "_kept_factor"} <= calls
        assert "walk_path" not in calls
    tree = ast.parse((PACKAGE / "holonomy.py").read_text())
    assert {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            and "walk_path" in names_called(node)} == {"_walk_branches"}


def test_one_root_walks_share_one_walker():
    for function in ("sheet_value", "continue_along", "conjugation_symmetry_check"):
        assert "walk_path" not in called_names(function)
        assert "_walk_root" in reached_names(function)
    walkers = {name for name, node in functions("continuation").items()
               if "walk_path" in names_called(node)}
    assert walkers == {"_walk_root", "_march_rows"}
    assert "_scalar_hop" in called_names("_walk_root")
    assert not called_names("_walk_root") & {"newton_correct_array", "_march_rows"}


def test_no_module_keeps_a_fixed_step_cap():
    assert name_uses("MAX_STEP") == []


def test_one_root_walks_keep_no_trace_or_status():
    for name in ("TraceStatus", "ContinuationTrace", "ContinuationSample", "_vertical"):
        assert name_uses(name) == [], name


def test_frame_walks_take_one_run_size():
    walk_branches = functions("holonomy")["_walk_branches"].args
    assert "lookahead" not in [a.arg for a in walk_branches.args + walk_branches.kwonlyargs]
    assert name_uses("_MAGNUS_BATCH") == []


def test_no_walk_passes_a_step_cap_or_a_growth():
    walk_path = functions("continuation")["walk_path"].args
    assert not {a.arg for a in walk_path.args + walk_path.kwonlyargs} & {"max_step", "growth"}
    passing = [f"{path.name}:{node.lineno}"
               for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if call_name(node) == "walk_path"
               and {kw.arg for kw in node.keywords} & {"max_step", "growth"}]
    assert passing == []


def test_loops_read_their_permutation_one_way():
    for function in ("transport", "frame_monodromy"):
        assert "_signed_permutation" in called_names(function, "holonomy")
    callers = {f"{path.stem}.{node.name}"
               for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef) and "match_frames" in names_called(node)}
    assert callers == {"holonomy._signed_permutation"}


def test_no_module_defines_a_dominance_threshold():
    defined = [f"{path.name}:{node.lineno}"
               for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if (isinstance(node, ast.ClassDef)
                   and node.name == "InconclusivePermutationError")
               or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                   and node.id in {"DOMINANCE", "EXIT_INCONCLUSIVE"})]
    assert defined == []


def definitions(name: str) -> list:
    """The modules that define ``name`` as a function or assign it."""
    return [path.stem
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if (isinstance(node, ast.FunctionDef) and node.name == name)
            or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                and node.id == name)]


def test_the_catalog_has_one_home():
    for name in ("family_eps", "RUNG_DEPTH_MARGIN"):
        assert definitions(name) == ["exceptional"], name
    walkers = {f"{path.stem}:{node.lineno}"
               for path in sorted(PACKAGE.glob("*.py")) if path.stem != "exceptional"
               for node in ast.walk(ast.parse(path.read_text()))
               if call_name(node) in {"ladder_points", "_ladder"}}
    assert walkers == set()
    assert "family_eps" in called_names("_branch_points")
    assert "family_eps" in called_names("build_sheet")
    assert "family_eps" in called_names("_corridor_slope", "holonomy")


def test_no_second_ladder_walk_or_failure_table():
    for name in ("_partner_points", "failures"):
        assert name_uses(name) == [], name
