import json

from stratakit.cli import main
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
