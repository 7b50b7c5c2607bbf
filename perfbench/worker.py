"""One repeat of a workload in a fresh interpreter.

Run by ``run.py``; prints one JSON object as its last stdout line.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --spawned-at T

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this interpreter (CLOCK_MONOTONIC is shared by all processes),
so the set-up time covers interpreter start, importing stratakit and
building the command list.  ``--setup-only`` stops there.

Times are reported twice: as measured (``wall_*``) and scaled to a
reference interpreter speed (``setup_s``, ``run_s``).  The speed is the
time of a fixed pure-Python loop (``reference_seconds``), measured after
set-up and again whenever at least ``SEGMENT_S`` of commands have run;
each stretch of commands is scaled by ``REF_SECONDS`` over the mean of
the two loop times around it.  On a machine whose neighbours slow Python
bytecode by up to 2x for minutes at a time, this keeps the numbers tied
to the program rather than to the neighbours' load.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# A repeat that runs longer than this is cut; its unfinished commands fail.
REPEAT_DEADLINE_S = 100.0

# The reference loop and its time at reference speed: 300k iterations
# took 0.025 s on the 2-core Xeon VM the baseline was measured on, in a
# quiet period, so scaled times read as seconds on that box when quiet.
REF_LOOPS = 300_000
REF_SECONDS = 0.025
SEGMENT_S = 0.5


def reference_seconds() -> float:
    """Time of a fixed pure-Python loop that allocates no tracked objects,
    so neither the program's heap nor the garbage collector affects it."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc = (acc * 31 + i) & 0xFFFFF
    return time.perf_counter() - t0


class CommandTimeout(BaseException):
    """Raised by the alarm when a command overruns the repeat deadline."""


def _on_alarm(signum, frame):
    raise CommandTimeout()


def run_commands(cli, cmds, recorder=None) -> tuple[list[dict], dict]:
    """Run each command through ``cli.main``.

    Returns the outcomes and the timing: ``wall_s`` (the commands' wall
    time), ``run_s`` (the same scaled to reference speed) and ``refs``
    (every reference loop time, the first one taken before any command).
    """
    outcomes = []
    signal.signal(signal.SIGALRM, _on_alarm)
    refs = [reference_seconds()]
    deadline = time.perf_counter() + REPEAT_DEADLINE_S
    wall = scaled = segment = 0.0
    for n, cmd in enumerate(cmds, 1):
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            outcome = {"error": "repeat deadline passed before the command started",
                       "seconds": 0.0}
        else:
            outcome = _run_one(cli, cmd, remaining, recorder)
        outcomes.append(outcome)
        segment += outcome["seconds"]
        if segment >= SEGMENT_S or n == len(cmds):
            refs.append(reference_seconds())
            wall += segment
            scaled += segment * REF_SECONDS / ((refs[-2] + refs[-1]) / 2)
            segment = 0.0
    return outcomes, {"wall_s": wall, "run_s": scaled, "refs": refs}


def _run_one(cli, cmd, remaining: float, recorder) -> dict:
    out, err = io.StringIO(), io.StringIO()
    if recorder is not None:
        recorder.begin_command()
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, remaining)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(cmd.argv))
        outcome = {"exit": code, "stdout": out.getvalue()}
    except CommandTimeout:
        outcome = {"error": "timeout"}
    except Exception as exc:  # a traceback is a failed command, not a crash
        outcome = {"error": f"{type(exc).__name__}: {exc}"}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    outcome["seconds"] = time.perf_counter() - t0
    return outcome


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import numpy
    import stratakit
    from stratakit import cli

    if not os.path.abspath(stratakit.__file__).startswith(SRC + os.sep):
        print(f"stratakit imported from {stratakit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    cmds = workloads.commands(args.workload, args.seed)
    recorder = None
    if args.trace:
        import spans as tracing

        recorder = tracing.Recorder()
        recorder.install(stratakit)
    wall_setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        ref = reference_seconds()
        print(json.dumps({"wall_setup_s": wall_setup_s,
                          "setup_s": wall_setup_s * REF_SECONDS / ref}))
        return 0

    outcomes, timing = run_commands(cli, cmds, recorder)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    frozen = workloads.load_frozen()
    results = [workloads.check(c, o, frozen) for c, o in zip(cmds, outcomes)]
    for r, o in zip(results, outcomes):
        r["seconds"] = o["seconds"]
    out = {
        "env": {"python": platform.python_version(), "numpy": numpy.__version__},
        "wall_setup_s": wall_setup_s,
        "setup_s": wall_setup_s * REF_SECONDS / timing["refs"][0],
        **timing,
        "peak_rss_mb": peak_rss_mb,
        "items": sum(r["items"] for r in results),
        "commands": results,
    }
    if recorder is not None:
        inconclusive = sum(row["count"] for o in outcomes if o.get("stdout")
                           for row in json.loads(o["stdout"])["stable"]["counts"]
                           if row["label"] == "inconclusive")
        out["layers"] = tracing.layer_metrics(recorder, timing["wall_s"], inconclusive)
        if args.spans_out:
            recorder.dump(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
