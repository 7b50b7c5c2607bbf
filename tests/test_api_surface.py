"""No test-only API in src/: every public module-level function and every
public method of a class in stratakit has a caller in src/ or perfbench/,
or a reason to wait here.  A method is called only through attribute
access (``obj.name``); a bare name such as the builtin ``pow`` or a local
variable ``f`` does not call it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "stratakit").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))

_WEYL_FAMILIES = "weyl word family not yet checked against strata labels (ROADMAP item 2)"
ALLOWED = {
    "weyl.linear_index_set": _WEYL_FAMILIES,
    "weyl.linear_w_word": _WEYL_FAMILIES,
    "weyl.orthogonal_even_w_word": _WEYL_FAMILIES,
    "weyl.symplectic_w_lambda_word": _WEYL_FAMILIES,
    "weyl.symplectic_wprime_lambda_word": _WEYL_FAMILIES,
    "charts.predicates": "the paper's smoothness and Gorenstein criteria, no CLI command yet",
}


def _functions(body, prefix):
    """(own name, qualified name, node) of the functions in a module or
    class body, descending into class bodies."""
    for node in body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, f"{prefix}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}.{node.name}")


def _public_functions():
    """(qualified name, own name, whether it is a method)."""
    for path in SRC:
        for name, full, _ in _functions(ast.parse(path.read_text()).body, path.stem):
            if not name.startswith("_"):
                yield full, name, full.count(".") > 1


def _referenced_names():
    """The bare names and the attribute names used anywhere except inside
    the definition of the function or method of the same name (recursion
    is no caller)."""
    names, attrs = set(), set()
    for path in SRC + BENCH:
        tree = ast.parse(path.read_text())
        own = {id(node): name for name, _, node in _functions(tree.body, path.stem)}
        stack = [(tree, None)]
        while stack:
            node, inside = stack.pop()
            inside = own.get(id(node), inside)
            if isinstance(node, ast.Name) and node.id != inside:
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and node.attr != inside:
                attrs.add(node.attr)
            stack.extend((child, inside) for child in ast.iter_child_nodes(node))
    return names, attrs


def test_every_public_function_has_a_caller_or_a_reason():
    names, attrs = _referenced_names()
    uncalled = sorted(full for full, name, method in _public_functions()
                      if name not in attrs and (method or name not in names))
    assert uncalled == sorted(ALLOWED)


def test_budget_exceeded_is_constructed_only_by_the_gate():
    # every budget overrun goes through the one gate, space.gate
    sites = []
    for path in SRC:
        tree = ast.parse(path.read_text())
        own = {id(node): full for _, full, node in _functions(tree.body, path.stem)}
        stack = [(tree, path.stem)]
        while stack:
            node, inside = stack.pop()
            inside = own.get(id(node), inside)
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and "BudgetExceeded" in (
                    getattr(func, "id", None), getattr(func, "attr", None)):
                sites.append(inside)
            stack.extend((child, inside) for child in ast.iter_child_nodes(node))
    assert sites == ["space.gate"]
