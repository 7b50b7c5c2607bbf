"""Tests of the benchmark's own machinery (not part of the tier-1 suite).

    python3 -m pytest perfbench -q
"""

import json
import os
import time

import pytest

import run
import spans
import worker
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_add_up_to_root_spans():
    rec = spans.Recorder()

    def leaf():
        _busy(0.002)

    def gen():
        for i in range(3):
            leaf()
            yield i

    leaf = rec._wrap("linalg.rref", leaf)
    gen = rec._wrap("space.enumerate_subspaces", gen)

    def top():
        _busy(0.001)
        return list(gen())

    top = rec._wrap("strata.verify_decomposition", top)
    rec.begin_command()
    assert top() == [0, 1, 2]

    calls, incl, self_s, pair, roots = rec.aggregate()
    ids = rec._ids
    assert calls[ids["linalg.rref"]] == 3
    assert calls[ids["space.enumerate_subspaces"]] == 4  # 3 yields + exhaustion
    assert rec.yields[ids["space.enumerate_subspaces"], ids["strata.verify_decomposition"]] == 3
    assert sum(self_s) == pytest.approx(roots)
    assert self_s[ids["linalg.rref"]] == pytest.approx(incl[ids["linalg.rref"]])
    assert list(rec.command_of_spans()) == [0] * len(rec.name)


def test_benchmark_json_names_match_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == spans.METRICS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_closed_forms():
    assert workloads.gaussian_binomial(4, 1, 25) == 16276
    assert workloads.rank1_count(2, 2, 3) == 1 + 8 * 8 // 2
    spec = {"family": "Z", "q": 3, "n": 0, "h": 0, "t1": 4, "t2": 0}
    assert workloads.chart_shape(spec) == (2, 2)
    assert workloads.chart_closed_form(spec) == 3 ** 2  # the cone has q^dim points
    assert workloads.chart_matrices([{"label": "[family=Z,q=3,t1=4] chart"}]) == 3 ** 4


def _outcome(code, counts):
    stable = {"counts": counts, "checks": []}
    return {"exit": code, "stdout": json.dumps({"stable": stable})}


def test_known_failing_command_fails_without_making_the_run_wrong():
    frozen = {workloads.KNOWN_FAILING: {"counts": []}}
    cmd = workloads.Command(tuple(workloads.KNOWN_FAILING.split()), "members")
    res = workloads.check(cmd, _outcome(1, []), frozen)
    assert res["failed"] and not res["wrong"]
    fixed = workloads.check(cmd, _outcome(0, []), frozen)
    assert not fixed["failed"] and not fixed["wrong"]


def test_changed_counts_or_other_exit_codes_are_wrong():
    key = "strata verify --case z --q 5 --k 2 --t 4 --h 2"
    frozen = {key: {"counts": [{"label": "w(1,0)", "count": 16276}]}}
    cmd = workloads.Command(tuple(key.split()), "members")
    assert not workloads.check(cmd, _outcome(0, frozen[key]["counts"]), frozen)["failed"]
    assert workloads.check(cmd, _outcome(1, frozen[key]["counts"]), frozen)["wrong"]
    moved = [{"label": "w(1,0)", "count": 16275}]
    res = workloads.check(cmd, _outcome(0, moved), frozen)
    assert res["wrong"] and any("closed form" in p for p in res["problems"])
    assert workloads.check(cmd, {"error": "timeout", "seconds": 1.0}, frozen)["wrong"]
    garbled = workloads.check(cmd, {"exit": 0, "stdout": "not json"}, frozen)
    assert garbled["wrong"] and garbled["problems"][0].startswith("malformed report")


def test_times_are_scaled_by_the_reference_loop():
    class FakeCli:
        @staticmethod
        def main(argv):
            _busy(0.01)
            print("{}")
            return 0

    cmds = [workloads.Command(("x",), "none")] * 3
    outcomes, timing = worker.run_commands(FakeCli, cmds)
    assert [o["exit"] for o in outcomes] == [0, 0, 0]
    refs = timing["refs"]
    assert len(refs) == 2  # the three commands form one stretch
    assert timing["wall_s"] == pytest.approx(sum(o["seconds"] for o in outcomes))
    scale = worker.REF_SECONDS / ((refs[0] + refs[1]) / 2)
    assert timing["run_s"] == pytest.approx(timing["wall_s"] * scale)
