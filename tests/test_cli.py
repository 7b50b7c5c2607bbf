import json

import pytest

from stratakit import space as spc, strata
from stratakit.cli import main
from stratakit.gf import FieldCtx
from stratakit.report import emit_stable_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_json_exit_zero(capsys):
    code, out = run(capsys, "strata", "verify", "--case", "z", "--q", "3",
                    "--k", "2", "--t", "4", "--h", "0")
    assert code == 0
    data = json.loads(out)
    assert data["stable"]["config"]["case"] == "Z"
    names = [c["name"] for c in data["stable"]["checks"]]
    assert "partition" in names and "kr_refinement" in names


def test_parity_error_exits_two(capsys):
    code, _ = run(capsys, "strata", "verify", "--case", "z", "--q", "3",
                  "--t", "3", "--h", "0")
    assert code == 2


@pytest.mark.parametrize("field", [("--q", "1"), ("--q", "4"), ("--e", "2")])
def test_charts_reject_non_prime_fields(field, capsys):
    # q = 1 used to divide by zero, q = 4 counted modulo 4 and --e 2 was ignored
    code, out = run(capsys, "charts", "reconcile", "--family", "Y", "--n", "4",
                    "--h", "2", "--t2", "0", *field)
    assert code == 2 and out == ""


def test_charts_sweep_uses_the_given_field(capsys):
    # --q without --family used to be ignored: the sweep ran over q = 3 and 5
    code, out = run(capsys, "charts", "reconcile", "--max-entries", "2", "--q", "7")
    assert code == 0
    labels = [c["label"] for c in json.loads(out)["stable"]["counts"]]
    assert labels and all("q=7" in label for label in labels)


def test_budget_exit_three(capsys):
    code, out = run(capsys, "strata", "verify", "--case", "z", "--q", "3",
                    "--k", "2", "--t", "6", "--h", "2", "--budget", "10")
    assert code == 3
    data = json.loads(out)
    assert data["stable"]["checks"][0]["status"] == "inconclusive"


def test_budget_exit_three_at_k3(capsys):
    code, out = run(capsys, "strata", "verify", "--case", "z", "--q", "3",
                    "--k", "3", "--t", "4", "--h", "0", "--budget", "10")
    assert code == 3
    data = json.loads(out)
    assert data["stable"]["checks"][0]["status"] == "inconclusive"


def test_budget_bounds_the_stable_scan(capsys):
    # k = 1 scans only the 40 stable planes, and --budget bounds them too
    code, out = run(capsys, "strata", "verify", "--case", "z", "--q", "3",
                    "--k", "1", "--t", "4", "--h", "0", "--budget", "10")
    assert code == 3
    assert json.loads(out)["stable"]["checks"][0]["status"] == "inconclusive"


def test_budget_met_exactly_by_the_nonsplit_scan(capsys):
    # no stable Lagrangians, then 10 stable lines times 10 lines of their
    # complement over GF(9): 100 candidates, 20 members
    code, out = run(capsys, "strata", "verify", "--case", "y", "--q", "3", "--k", "2",
                    "--n", "4", "--h", "4", "--t", "0", "--eps", "1", "--budget", "100")
    assert code == 0
    assert sum(c["count"] for c in json.loads(out)["stable"]["counts"]) == 20


def test_nonsplit_lagrangians_at_k3_exit_zero(capsys):
    # the non-split form stays non-split over GF(27): no isotropic planes
    code, out = run(capsys, "strata", "verify", "--case", "y", "--q", "3", "--k", "3",
                    "--n", "4", "--h", "4", "--t", "0", "--eps", "1")
    assert code == 0
    assert json.loads(out)["stable"]["counts"] == []


def test_latcalc_budget_exit_three(capsys):
    for argv in (("latcalc", "inclusions", "--n", "2", "--h", "2", "--budget", "5"),
                 ("latcalc", "dichotomy", "--n", "2", "--s", "2", "--exhaustive",
                  "--budget", "5")):
        code, out = run(capsys, *argv)
        assert code == 3, argv
        checks = json.loads(out)["stable"]["checks"]
        assert [(c["name"], c["status"]) for c in checks] == [("enumeration", "inconclusive")]


def test_budget_only_where_something_is_bounded(capsys):
    for argv in (("weyl", "audit", "--tmax", "2"), ("charts", "rzdim", "--n", "5", "--h", "0")):
        assert main(list(argv) + ["--budget", "5"]) == 2, argv
    capsys.readouterr()
    # the random dichotomy enumerates nothing: its --budget used to be ignored
    assert main(["latcalc", "dichotomy", "--n", "2", "--trials", "5", "--budget", "1"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.splitlines() == ["error: --budget bounds only an --exhaustive dichotomy"]


def test_flags_that_nothing_reads_are_refused(tmp_path, capsys):
    # each of these runs used to exit 0 with the stable JSON of the run
    # without the flag
    sp = spc.FormedSpace(FieldCtx(3, 1, 2), "symplectic", 4)
    U = spc.Subspace.from_rows(sp, [sp.e(1), sp.e(2)])
    path = tmp_path / "subspace.json"
    path.write_text(json.dumps(spc.subspace_to_json(U)))
    classify = ("strata", "classify", "--case", "z", "--k", "2", "--t", "4", "--h", "0",
                "--input", str(path))
    assert main(list(classify)) == 0
    for argv in (("weyl", "audit", "--tmax", "2", "--q", "7"),
                 ("weyl", "audit", "--tmax", "2", "--e", "2"),
                 ("charts", "rzdim", "--n", "5", "--h", "0", "--q", "7"),
                 ("charts", "rzdim", "--n", "5", "--h", "0", "--e", "3"),
                 ("charts", "rzdim", "--n", "5", "--h", "0", "--seed", "9"),
                 (*classify, "--seed", "5"),
                 ("charts", "reconcile", "--max-entries", "2", "--e", "1"),
                 # strata flags that the case does not read, chart shape
                 # flags without a family
                 ("strata", "verify", "--case", "z", "--k", "2", "--t", "4", "--h", "0",
                  "--n", "7", "--eps", "1", "--t1", "6"),
                 ("strata", "count", "--case", "zy", "--k", "2", "--t1", "4", "--h", "2",
                  "--t", "2"),
                 (*classify, "--eps", "-1"),
                 ("charts", "reconcile", "--max-entries", "2", "--n", "4", "--h", "2",
                  "--t1", "6")):
        assert main(list(argv)) == 2, argv
    _, err = capsys.readouterr()
    assert "error: --n --t1 --eps not read in case Z\n" in err
    assert "error: --n --h --t1 not read without --family\n" in err


def test_counts_that_audit_nothing_are_refused(capsys):
    # each of these runs used to exit 0 having audited nothing, or 3 on a
    # budget no run can meet
    z = ("strata", "count", "--case", "z", "--k", "2", "--t", "4", "--h", "2")
    for argv, flag in ((("latcalc", "dichotomy", "--n", "3", "--s", "2", "--trials", "0"),
                        "--trials must be at least 1"),
                       (("latcalc", "dichotomy", "--n", "3", "--s", "2", "--trials", "-3"),
                        "--trials must be at least 1"),
                       (("weyl", "audit", "--tmax", "0"), "--tmax must be at least 1"),
                       (("weyl", "audit", "--tmax", "-2"), "--tmax must be at least 1"),
                       ((*z, "--budget", "-5"), "--budget must be at least 0"),
                       (("latcalc", "inclusions", "--n", "2", "--h", "2", "--budget", "-1"),
                        "--budget must be at least 0")):
        assert main(list(argv)) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {flag}\n", argv
    # the least values still run: a zero budget is an overrun (exit 3)
    assert main([*z, "--budget", "0"]) == 3
    assert main(["weyl", "audit", "--tmax", "1"]) == 0


def test_rzdim_value(capsys):
    code, out = run(capsys, "charts", "rzdim", "--n", "5", "--h", "0", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[1] == '"rz_dim",2'


def test_counts_csv_rows(capsys):
    code, out = run(capsys, "strata", "count", "--case", "z", "--q", "3",
                    "--k", "2", "--t", "4", "--h", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "label,count"
    assert len(lines) == 1 + 3  # id, w, wprime


def test_count_fails_on_a_dropped_stable_member(monkeypatch, capsys):
    # the enumeration check compares the stable members with their
    # closed-form count, so a scan that loses one of them fails it
    argv = ("strata", "count", "--case", "y", "--q", "3", "--k", "2", "--n", "6",
            "--h", "4", "--t", "2", "--eps", "1")
    assert run(capsys, *argv)[0] == 0
    full = strata._blocks

    def drop_first(*args):
        # the first block holds the stable members; lose its first candidate
        blocks = full(*args)
        blk = next(blocks)
        yield blk._replace(which=blk.which[1:], y=blk.y[1:])
        yield from blocks

    monkeypatch.setattr(strata, "_blocks", drop_first)
    code, out = run(capsys, *argv)
    assert code == 1
    check = json.loads(out)["stable"]["checks"][0]
    assert (check["name"], check["status"]) == ("enumeration", "fail")


def test_classify_roundtrip(tmp_path, capsys):
    from stratakit.gf import FieldCtx
    from stratakit import space as spc

    sp = spc.FormedSpace(FieldCtx(3, 1, 2), "symplectic", 4)
    U = spc.Subspace.from_rows(sp, [sp.e(1), sp.e(2)])
    path = tmp_path / "subspace.json"
    path.write_text(json.dumps(spc.subspace_to_json(U)))
    code, out = run(capsys, "strata", "classify", "--case", "z", "--q", "3",
                    "--k", "2", "--t", "4", "--h", "0", "--input", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["stable"]["counts"][0]["label"] == "id(0,0)"
    assert data["stable"]["checks"][0]["data"]["kr_class"] == "id"


def test_classify_refuses_a_member_over_another_field(tmp_path, capsys):
    # a `w` member of Z t4 h0 over GF(81) is classified at k = 4 and
    # refused at k = 2, over whose field it does not live
    from stratakit import space as spc, strata

    cfg = strata.StrataConfig("Z", 3, k=4, t=4, h=0)
    U = next(U for U in strata.enumerate_members(cfg)
             if strata.classify(cfg, U)[0].kind == "w")
    path = tmp_path / "member.json"
    path.write_text(json.dumps(spc.subspace_to_json(U)))
    argv = ["strata", "classify", "--case", "z", "--q", "3", "--t", "4", "--h", "0",
            "--input", str(path), "--k"]
    code, out = run(capsys, *argv, "4")
    assert code == 0
    assert json.loads(out)["stable"]["counts"] == [{"label": "w(1,0)", "count": 1}]
    assert main(argv + ["2"]) == 2
    captured = capsys.readouterr()
    assert not captured.out and "does not live in the configured space" in captured.err


def test_report_determinism_and_roundtrip(capsys):
    args = ("strata", "verify", "--case", "zy", "--q", "3", "--k", "2",
            "--t1", "6", "--h", "2", "--t2", "0", "--seed", "7")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    s1 = json.dumps(json.loads(out1)["stable"], sort_keys=True)
    s2 = json.dumps(json.loads(out2)["stable"], sort_keys=True)
    assert s1 == s2
    # round-trip through the stable serializer
    rep = {"stable": json.loads(out1)["stable"], "wall_time_s": None}
    assert json.loads(emit_stable_json(rep)) == rep["stable"]


def test_markdown_has_tables(capsys):
    code, out = run(capsys, "weyl", "audit", "--tmax", "3", "--format", "md")
    assert code == 0
    assert "| check | status |" in out


def test_latcalc_dichotomy_cli(capsys):
    code, out = run(capsys, "latcalc", "dichotomy", "--n", "2", "--trials", "30",
                    "--seed", "3", "--s", "2")
    assert code == 0
    data = json.loads(out)
    names = {c["name"]: c["status"] for c in data["stable"]["checks"]}
    assert names["no_counterexamples"] == "pass"


def test_unknown_command_usage_error(capsys):
    assert main(["strata"]) == 2
    assert main(["bogus"]) == 2
    capsys.readouterr()


def test_missing_input_file_exits_two(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    code = main(["strata", "classify", "--case", "z", "--q", "3", "--k", "2",
                 "--t", "4", "--h", "0", "--input", str(missing)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "absent.json" in err


def test_malformed_input_exits_two(tmp_path, capsys):
    # a missing key, a short row, an entry of three coefficients over
    # GF(9), ragged rows, a top-level k that contradicts the space's, and
    # coefficients outside 0..p-1 or not integers: each is a usage error,
    # not a failed check
    from stratakit.gf import FieldCtx
    from stratakit import space as spc

    sp = spc.FormedSpace(FieldCtx(3, 1, 2), "symplectic", 4)
    good = spc.subspace_to_json(spc.Subspace.from_rows(sp, [sp.e(1), sp.e(2)]))
    row = good["rows"][0]
    path = tmp_path / "subspace.json"
    for data in ({}, {**good, "rows": [row[:2]]}, {**good, "rows": [[[1, 0, 1]] + row[1:]]},
                 {**good, "rows": [row, row[:3]]}, {**good, "k": 7},
                 {**good, "rows": [[[5, -1]] + row[1:]]}, {**good, "rows": [[[1.5]] + row[1:]]}):
        path.write_text(json.dumps(data))
        code = main(["strata", "classify", "--case", "z", "--q", "3", "--k", "2",
                     "--t", "4", "--h", "2", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_guard_trip_outside_a_trial_exits_three(monkeypatch, capsys):
    from stratakit import latcalc

    def trip(*args, **kwargs):
        raise latcalc.GuardError("lattice floor beyond the guard")

    monkeypatch.setattr(latcalc, "inclusion_report", trip)
    code, out = run(capsys, "latcalc", "inclusions", "--n", "2", "--h", "2")
    assert code == 3
    checks = json.loads(out)["stable"]["checks"]
    assert checks == [{"name": "guard", "status": "inconclusive",
                       "witness": "lattice floor beyond the guard"}]
