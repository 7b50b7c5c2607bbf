"""Frozen counts and golden stable JSON.

    python3 perfbench/reference.py freeze          # write frozen.json
    python3 perfbench/reference.py golden-capture  # write golden/*.json
    python3 perfbench/reference.py golden-check    # compare byte for byte

``freeze`` runs every workload command that does not depend on the
benchmark seed and records its ``counts``; it refuses to
write when a count disagrees with an independent oracle
(``workloads.oracle_errors``).

The golden files hold the ``stable`` section of the nine README commands,
serialized with sorted keys and compact separators.  The ``strata
classify --input`` file is generated from ``--seed`` (default 0): member
number ``seed mod members`` of Z q3 k2 t4 h0, written with
``space.subspace_to_json``.  ``golden-check`` prints each command's
status and, last, a JSON line with the count ``report.golden_mismatch``;
a mismatch is reported, not treated as a failure, so that a correctness
fix that changes check data shows up without being rejected.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import run_commands  # noqa: E402

CLASSIFY_CFG = "--case z --q 3 --k 2 --t 4 --h 0"
README_COMMANDS = [
    ("strata-verify", f"strata verify {CLASSIFY_CFG}"),
    ("strata-count", "strata count --case y --q 3 --k 2 --n 6 --h 4 --t 0 --eps -1"),
    ("strata-classify", f"strata classify {CLASSIFY_CFG} --input {{input}}"),
    ("weyl-audit", "weyl audit --tmax 6"),
    ("charts-reconcile", "charts reconcile --max-entries 10"),
    ("charts-rzdim", "charts rzdim --n 5 --h 0"),
    ("latcalc-dichotomy-exhaustive", "latcalc dichotomy --n 2 --s 2 --exhaustive"),
    ("latcalc-dichotomy", "latcalc dichotomy --n 3 --trials 1000 --seed 0"),
    ("latcalc-inclusions", "latcalc inclusions --n 2 --h 2"),
]


def stable_text(stdout: str) -> str:
    stable = json.loads(stdout)["stable"]
    return json.dumps(stable, sort_keys=True, separators=(",", ":")) + "\n"


def classify_input(seed: int) -> str:
    """Write the seed's member of Z q3 k2 t4 h0 as a classify input file."""
    from stratakit import strata
    from stratakit.space import subspace_to_json

    members = list(strata.enumerate_members(strata.StrataConfig("Z", p=3, k=2, t=4, h=0)))
    U = members[seed % len(members)]
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench", f"subspace-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(subspace_to_json(U), fh)
    return path


def golden_path(name: str, seed: int) -> str:
    suffix = f".seed{seed}" if name == "strata-classify" else ""
    return os.path.join(GOLDEN, f"{name}{suffix}.json")


def run_readme(seed: int) -> list[tuple[str, dict]]:
    from stratakit import cli

    inp = os.path.relpath(classify_input(seed), ROOT)
    cmds = [workloads.Command(tuple(line.format(input=inp).split()), "none")
            for _, line in README_COMMANDS]
    outcomes, _ = run_commands(cli, cmds)
    return [(name, o) for (name, _), o in zip(README_COMMANDS, outcomes)]


def golden(mode: str, seed: int) -> int:
    mismatches = 0
    os.makedirs(GOLDEN, exist_ok=True)
    for name, outcome in run_readme(seed):
        path = golden_path(name, seed)
        if "error" in outcome:
            status, text = f"error: {outcome['error']}", None
        else:
            text = stable_text(outcome["stdout"])
        if mode == "capture" and text is not None:
            with open(path, "w") as fh:
                fh.write(text)
            status = "captured"
        elif text is not None:
            try:
                with open(path) as fh:
                    status = "match" if fh.read() == text else "MISMATCH"
            except FileNotFoundError:
                status = "MISSING golden file"
        if status != "match" and mode == "check":
            mismatches += 1
        print(f"{name:<30} exit {outcome.get('exit')}  {status}")
    if mode == "check":
        print(json.dumps({"seed": seed, "report.golden_mismatch": mismatches}))
    return 0


def freeze() -> int:
    from stratakit import cli

    frozen, problems = {}, []
    for wl in workloads.WORKLOADS:
        cmds = [c for c in workloads.commands(wl, seed=0) if not c.seeded]
        outcomes, _ = run_commands(cli, cmds)
        for cmd, o in zip(cmds, outcomes):
            if "error" in o:
                problems.append(f"{cmd.key}: {o['error']}")
                continue
            stable = json.loads(o["stdout"])["stable"]
            problems += [f"{cmd.key}: {e}" for e in workloads.oracle_errors(cmd, stable)]
            frozen[cmd.key] = {"counts": stable["counts"]}
            print(f"{o['seconds']:7.3f} s  exit {o['exit']}  {cmd.key}")
    if problems:
        print("not written:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 1
    with open(workloads.FROZEN_PATH, "w") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("mode", choices=("freeze", "golden-capture", "golden-check"))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.mode == "freeze":
        return freeze()
    return golden(args.mode.split("-")[1], args.seed)


if __name__ == "__main__":
    sys.exit(main())
