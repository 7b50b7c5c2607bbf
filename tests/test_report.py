import ast
import pathlib

from stratakit import report
from stratakit.report import check, inconclusive

SRC = pathlib.Path(report.__file__).parent


def test_pass_drops_the_witness():
    assert check("c", ok=True, witness=[1, 2]) == {"name": "c", "status": "pass"}
    assert check("c", ok=True, witness="why", data={"n": 3}) == {
        "name": "c", "status": "pass", "data": {"n": 3}}


def test_witness_decides_when_ok_is_omitted():
    assert check("c", witness=[]) == {"name": "c", "status": "pass"}
    assert check("c") == {"name": "c", "status": "pass"}
    assert check("c", witness=[(0, 2)]) == {
        "name": "c", "status": "fail", "witness": [(0, 2)]}


def test_dict_witness_is_kept_on_failure():
    held = {"length": True, "minimal": False}
    assert check("c", ok=all(held.values()), witness=held) == {
        "name": "c", "status": "fail", "witness": held}
    assert check("c", ok=False, data={"n": 0}) == {
        "name": "c", "status": "fail", "data": {"n": 0}}


def test_inconclusive_shape():
    assert inconclusive("enumeration", witness="over budget") == {
        "name": "enumeration", "status": "inconclusive", "witness": "over budget"}
    assert inconclusive("worst", data={"worst_points": 0}) == {
        "name": "worst", "status": "inconclusive", "data": {"worst_points": 0}}
    rep = report.make_report({}, [], [check("a"), inconclusive("b")])
    assert report.exit_code(rep) == 3
    rep = report.make_report({}, [], [check("a", ok=False), inconclusive("b")])
    assert report.exit_code(rep) == 1


def test_status_key_only_in_report_module():
    # every check record is built by report.check or report.inconclusive
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "report.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            keys = node.keys if isinstance(node, ast.Dict) else (
                [node.slice] if isinstance(node, ast.Subscript) else [])
            if any(isinstance(k, ast.Constant) and k.value == "status" for k in keys):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders
    assert any(p.name == "strata.py" for p in SRC.glob("*.py"))
