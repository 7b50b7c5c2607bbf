"""No test-only API in src/: every public module-level function of
stratakit has a caller in src/ or perfbench/, or a reason to wait here."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "stratakit").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))

_WEYL_FAMILIES = "weyl word family not yet checked against strata labels (ROADMAP item 2)"
ALLOWED = {
    "weyl.linear_ctx": _WEYL_FAMILIES,
    "weyl.linear_index_set": _WEYL_FAMILIES,
    "weyl.linear_w_word": _WEYL_FAMILIES,
    "weyl.orthogonal_even_ctx": _WEYL_FAMILIES,
    "weyl.orthogonal_even_w_word": _WEYL_FAMILIES,
    "weyl.symplectic_w_lambda_word": _WEYL_FAMILIES,
    "weyl.symplectic_wprime_lambda_word": _WEYL_FAMILIES,
    "latcalc.induced_forms": "the residue forms of a vertex lattice, checked but not yet audited",
    "report.emit_stable_json": "the compact stable section, the view the round-trip tests compare",
    "charts.predicates": "the paper's smoothness and Gorenstein criteria, no CLI command yet",
}


def _public_functions():
    for path in SRC:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name


def _referenced_names():
    """Names and attributes used anywhere except inside the definition of
    the module-level function of the same name (recursion is no caller)."""
    seen = set()
    for path in SRC + BENCH:
        for top in ast.parse(path.read_text()).body:
            own = top.name if isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    seen.add(name)
    return seen


def test_every_public_function_has_a_caller_or_a_reason():
    used = _referenced_names()
    uncalled = sorted(full for full, name in _public_functions() if name not in used)
    assert uncalled == sorted(ALLOWED)
