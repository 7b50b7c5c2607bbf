"""stratakit benchmark: run one workload and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load shape: a closed loop with one client.  Each repeat starts a fresh
interpreter (``worker.py``) that runs the workload's command list through
``stratakit.cli.main`` one command after another, as a CLI user would;
repeats run one after another until ``--seconds`` is spent (at least
``MIN_REPEATS``).  Every command's report is checked (see
``workloads.py``).

``--trace 0`` reports the end-to-end metrics, tracing off.  Times are
wall seconds scaled to a reference interpreter speed (see ``worker.py``);
the unscaled medians are printed beside them and kept in the record.

* ``run_s``: seconds for the workload's command list, from the first
  command to the end of the last, median over repeats;
* ``items_per_s``: work items per second of ``run_s``, median over repeats;
* ``setup_s``: interpreter start until the first command, median over
  every repeat plus ``SETUPS_PER_REPEAT`` set-up-only interpreters
  started before each repeat;
* ``peak_rss_mb``: peak resident memory of the workload process, median;
* ``pass_ratio``: commands that did not fail over commands attempted
  (``fail_ratio`` is its complement and is printed beside it).

``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics of ``spans.py`` (medians over traced repeats) plus
``trace.overhead_ratio``, traced over untraced median ``run_s``.  Metrics
of layers the workload never reaches are printed as 0 in the JSON line
and left out of the table.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A record with the environment (nproc, CPU
model, Python and numpy versions, seed) and every sample is written to
``.perfbench/results/``; traced runs also write their spans to
``.perfbench/spans/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_REPEATS = 3
SETUPS_PER_REPEAT = 3
# No repeat starts after this many seconds, and none may run past
# HARD_STOP_S, so a run ends well inside three minutes even if a command hangs.
LAST_START_S = 120.0
HARD_STOP_S = 170.0

END_TO_END = {
    "run_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}
ITEM_NAMES = {"strata-k2": "members", "strata-generic": "members",
              "lattice": "lattice instances", "charts-weyl": "chart matrices"}


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, trace: int, t_run: float, setup_only: bool = False,
          spans_out: str | None = None) -> dict:
    """Run one fresh interpreter; returns its JSON result."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    if spans_out:
        argv += ["--spans-out", spans_out]
    timeout = max(1.0, HARD_STOP_S - (time.monotonic() - t_run))
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(argv + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"repeat killed after {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise WorkerError(f"worker exited {proc.returncode}: {tail[0]}")
    return json.loads(lines[-1])


def environment(seed: int, worker_env: dict) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "seed": seed, **worker_env}


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    t_run = time.monotonic()
    spawn(workload, seed, 0, t_run, setup_only=True)  # fills the bytecode cache
    n_commands = len(workloads.commands(workload, seed))
    setups, plain, traced, errors = [], [], [], []
    spans_out = None
    if trace:
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        spans_out = os.path.join(OUT, "spans", f"{workload}-seed{seed}.npz")
    t_loop = time.monotonic()
    rounds = 0
    while not errors:
        try:
            if not trace:
                setups += [spawn(workload, seed, 0, t_run, setup_only=True)
                           for _ in range(SETUPS_PER_REPEAT)]
            for tr in ((0, 1) if trace else (0,)):
                res = spawn(workload, seed, tr, t_run, spans_out=spans_out if tr else None)
                (traced if tr else plain).append(res)
        except WorkerError as exc:
            errors.append(str(exc))
        rounds += 1
        elapsed = time.monotonic() - t_run
        per_round = (time.monotonic() - t_loop) / rounds
        if elapsed > LAST_START_S:
            break
        if rounds >= (1 if trace else MIN_REPEATS) and elapsed + per_round > seconds:
            break

    repeats = plain + traced
    attempted = n_commands * (len(repeats) + len(errors))
    failed = n_commands * len(errors)
    correct = not errors and bool(repeats)
    for res in repeats:
        failed += sum(c["failed"] for c in res["commands"])
        correct = correct and not any(c["wrong"] for c in res["commands"])

    med = statistics.median
    record = {
        "workload": workload, "trace": trace, "seconds": seconds,
        "env": environment(seed, repeats[0]["env"] if repeats else {}),
        "attempted": attempted, "failed": failed, "correct": correct,
        "errors": errors, "setup_samples": setups, "repeats": repeats,
    }
    metrics = {}
    if plain and not trace:
        metrics = {
            "run_s": med(r["run_s"] for r in plain),
            "items_per_s": med(r["items"] / r["run_s"] for r in plain),
            "setup_s": med(r["setup_s"] for r in setups + plain),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
            "pass_ratio": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    elif plain and traced:
        reached = {}
        for name, (unit, _) in spans.METRICS.items():
            values = [r["layers"][name] for r in traced if name in r["layers"]]
            reached[name] = bool(values)
            metrics[name] = {"value": med(values) if values else 0, "unit": unit}
        metrics["trace.overhead_ratio"]["value"] = (
            med(r["run_s"] for r in traced) / med(r["run_s"] for r in plain))
        reached["trace.overhead_ratio"] = True
        record["reached"] = reached
    record["metrics"] = metrics
    return record, table(record)


def table(record: dict) -> list[str]:
    """Human-readable summary lines."""
    env = record["env"]
    plain = [r for r in record["repeats"] if "layers" not in r]
    traced = [r for r in record["repeats"] if "layers" in r]
    lines = [
        f"workload {record['workload']}  seed {env['seed']}  trace {record['trace']}  "
        f"repeats {len(plain)} untraced, {len(traced)} traced",
        f"env nproc={env['nproc']} cpu={env['cpu_model']!r} python={env.get('python')} "
        f"numpy={env.get('numpy')}",
    ]
    for err in record["errors"]:
        lines.append(f"ERROR {err}")
    metrics = record["metrics"]
    if record["trace"] == 0 and metrics:
        n_items = plain[0]["items"]
        fail_ratio = record["failed"] / record["attempted"]
        setups = record["setup_samples"] + plain
        wall_run = statistics.median(r["wall_s"] for r in plain)
        wall_setup = statistics.median(r["wall_setup_s"] for r in setups)
        notes = {
            "run_s": f"median of {len(plain)} repeats; unscaled {wall_run:.4f} s",
            "items_per_s": f"{n_items} {ITEM_NAMES[record['workload']]} per repeat",
            "setup_s": f"median of {len(setups)} interpreters; unscaled {wall_setup:.4f} s",
            "peak_rss_mb": f"median of {len(plain)} repeats",
            "pass_ratio": "1 - fail_ratio",
        }
        for name, m in metrics.items():
            lines.append(f"  {name:<14} {m['value']:>14.6g} {m['unit']:<6} {notes[name]}")
        lines.append(f"  {'fail_ratio':<14} {fail_ratio:>14.6g} {'ratio':<6} "
                     f"{record['failed']} of {record['attempted']} commands failed")
    elif metrics:
        for name, m in metrics.items():
            if record["reached"][name]:
                lines.append(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    cmds = record["repeats"][0]["commands"] if record["repeats"] else []
    for _, group in itertools.groupby(cmds, key=lambda c: c["command"].split()[:2]):
        group = list(group)
        if len(group) > 8:  # a parameter sweep gets one line
            group = [{
                "command": f"{group[0]['command']} ... ({len(group)} commands)",
                "seconds": sum(c["seconds"] for c in group),
                "failed": any(c["failed"] for c in group),
                "problems": [p for c in group for p in c["problems"]],
            }]
        for c in group:
            status = "FAIL " + "; ".join(c["problems"]) if c["failed"] else "ok"
            lines.append(f"    {c['seconds']:8.3f} s  {c['command']}  [{status}]")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "stratakit", "cli.py")):
        print(f"error: no stratakit sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        record, lines = run(args.workload, args.seed, args.seconds, args.trace)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not record["metrics"]:
        print("error: no repeat completed: " + "; ".join(record["errors"]), file=sys.stderr)
        return 1
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
