"""Workload definitions and the checks applied to each command's report.

A workload is a fixed list of ``stratakit`` command lines, run one after
another through ``stratakit.cli.main``.  Each command carries:

* ``item``: the unit of work it completes (members classified, lattice
  instances examined, chart matrices enumerated, or nothing);
* its expectation: frozen ``counts`` from ``frozen.json`` for commands
  that do not depend on the benchmark seed, invariants for the one seeded
  dichotomy, and an independent oracle (closed form) where one exists.

Why each workload exists is recorded in ``BENCHMARK.json`` and ``NOTES.md``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
FROZEN_PATH = os.path.join(HERE, "frozen.json")

# The one command known to exit 1 at baseline: reachable_at_k predicts
# w(1,0)+- at odd k, but a non-split plane has no isotropic line rational
# over an odd-degree extension, so 0 members is right and the prediction
# is wrong.  Its frozen counts are still checked; see NOTES.md.
KNOWN_FAILING = "strata verify --case y --q 3 --k 3 --n 2 --h 2 --t 0 --eps 1"

WORKLOADS = ("strata-k2", "strata-generic", "lattice", "charts-weyl")
SEEDED_TRIALS = 350
RZDIM_SWEEP = [(n, h) for n in range(2, 13) for h in range(0, n + 1, 2)]


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    item: str  # "members" | "instances" | "matrices" | "none"
    seeded: bool = False

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _cmd(line: str, item: str, seeded: bool = False) -> Command:
    return Command(tuple(line.split()), item, seeded)


def commands(workload: str, seed: int) -> list[Command]:
    """The workload's command list for this benchmark seed."""
    if workload == "strata-k2":
        return [
            _cmd("strata verify --case z --q 5 --k 2 --t 4 --h 2", "members"),
            _cmd("strata verify --case z --q 5 --k 2 --t 4 --h 0", "members"),
            _cmd("strata verify --case y --q 3 --k 2 --n 6 --h 4 --t 0 --eps -1", "members"),
            _cmd("strata verify --case y --q 3 --k 2 --n 6 --h 6 --t 0 --eps 1", "members"),
            _cmd("strata verify --case zy --q 3 --k 2 --t1 8 --h 4 --t2 0", "members"),
        ]
    if workload == "strata-generic":
        return [
            _cmd("strata verify --case z --q 3 --k 3 --t 4 --h 0", "members"),
            _cmd("strata verify --case z --q 3 --k 3 --t 4 --h 2", "members"),
            _cmd("strata verify --case y --q 3 --k 3 --n 4 --h 2 --t 0 --eps -1", "members"),
            _cmd(KNOWN_FAILING, "members"),
            _cmd("strata verify --case zy --q 3 --k 3 --t1 6 --h 2 --t2 0", "members"),
        ]
    if workload == "lattice":
        return [
            _cmd("latcalc dichotomy --n 3 --s 2 --trials 1000 --seed 0", "instances"),
            _cmd(f"latcalc dichotomy --n 4 --s 1 --trials {SEEDED_TRIALS} --seed {seed}",
                 "instances", seeded=True),
            _cmd("latcalc dichotomy --n 2 --s 2 --exhaustive", "instances"),
            _cmd("latcalc inclusions --n 3 --h 2", "instances"),
            _cmd("latcalc inclusions --n 4 --h 2 --s 1", "instances"),
        ]
    if workload == "charts-weyl":
        return [
            _cmd("charts reconcile --max-entries 9", "matrices"),
            _cmd("weyl audit --tmax 8", "none"),
        ] + [_cmd(f"charts rzdim --n {n} --h {h}", "none") for n, h in RZDIM_SWEEP]
    raise KeyError(workload)


# -- independent oracles -----------------------------------------------------

def gaussian_binomial(n: int, d: int, Q: int) -> int:
    """Number of d-dimensional subspaces of GF(Q)^n."""
    num = den = 1
    for i in range(d):
        num *= Q ** (n - i) - 1
        den *= Q ** (i + 1) - 1
    return num // den


def rank1_count(a: int, b: int, q: int) -> int:
    """a x b matrices over GF(q) of rank at most one."""
    return 1 + (q**a - 1) * (q**b - 1) // (q - 1)


# Member counts with a closed form.  For d = 1 every isotropic line is a
# member; all lines are isotropic in a symplectic space, and a split
# 4-dimensional quadratic space over GF(Q) has (Q + 1)^2 isotropic lines.
# In the formless 3-space every plane meets its Frobenius image in a line.
# A non-split plane stays anisotropic over odd-degree extensions.
MEMBER_ORACLES = {
    "strata verify --case z --q 5 --k 2 --t 4 --h 2": gaussian_binomial(4, 1, 25),
    "strata verify --case z --q 3 --k 3 --t 4 --h 2": gaussian_binomial(4, 1, 27),
    "strata verify --case y --q 3 --k 3 --n 4 --h 2 --t 0 --eps -1": (27 + 1) ** 2,
    "strata verify --case zy --q 3 --k 3 --t1 6 --h 2 --t2 0": gaussian_binomial(3, 2, 27),
    KNOWN_FAILING: 0,
}


def _chart_tag(label: str) -> dict:
    """Parse the ``[family=Z,h=0,q=3,t1=4]`` prefix of a merged report label."""
    tag = label[1:label.index("]")]
    fields = dict(kv.split("=", 1) for kv in tag.split(","))
    out = {k: int(fields.get(k, 0)) for k in ("q", "n", "h", "t1", "t2")}
    out["family"] = fields["family"]
    return out


def chart_shape(spec: dict) -> tuple[int, int] | None:
    """Chart matrix shape, as documented for each family in ``stratakit.charts``."""
    fam, n, h, t1, t2 = spec["family"], spec["n"], spec["h"], spec["t1"], spec["t2"]
    if fam == "Z":
        m = (t1 - h) // 2
        return m, m + h
    if fam == "Y":
        return (h - t2) // 2, n - h
    if fam == "ZY":
        return (t1 - h) // 2, (h - t2) // 2
    return None


def chart_closed_form(spec: dict) -> int:
    q = spec["q"]
    shape = chart_shape(spec)
    if shape is None:  # pi-modular: affine space of dimension n/2 - t2/2 - 1
        return q ** (spec["n"] // 2 - spec["t2"] // 2 - 1)
    a, b = shape
    if spec["family"] == "Z":
        # the adjoint-symmetric block forces rank-one points onto an
        # m x (h + 1) plain rank-one chart
        return rank1_count(a, spec["h"] + 1, q)
    return rank1_count(a, b, q)


def chart_matrices(counts: list) -> int:
    """Matrices a ``charts reconcile`` run enumerates by brute force."""
    total = 0
    for row in counts:
        spec = _chart_tag(row["label"])
        shape = chart_shape(spec)
        if shape is not None:
            total += spec["q"] ** (shape[0] * shape[1])
    return total


# -- checking ----------------------------------------------------------------

def load_frozen() -> dict:
    with open(FROZEN_PATH) as fh:
        return json.load(fh)


def items_of(cmd: Command, stable: dict) -> int:
    """Work items the command completed, read from its report."""
    counts = {row["label"]: row["count"] for row in stable["counts"]}
    if cmd.item == "members":
        return sum(counts.values())
    if cmd.item == "instances":
        if cmd.argv[1] == "inclusions":
            return sum(counts.values())  # catalog lattices, by vertex type
        return counts.get("trials", counts.get("instances", 0))
    if cmd.item == "matrices":
        return chart_matrices(stable["counts"])
    return 0


def oracle_errors(cmd: Command, stable: dict) -> list[str]:
    """Disagreements between a report and an independent value."""
    errors = []
    counts = stable["counts"]
    if cmd.key in MEMBER_ORACLES:
        got = sum(row["count"] for row in counts)
        if got != MEMBER_ORACLES[cmd.key]:
            errors.append(f"members {got} != closed form {MEMBER_ORACLES[cmd.key]}")
    if cmd.argv[:2] == ("charts", "reconcile"):
        for row in counts:
            want = chart_closed_form(_chart_tag(row["label"]))
            if row["count"] != want:
                errors.append(f"{row['label']}: {row['count']} != closed form {want}")
        for chk in stable["checks"]:
            data = chk.get("data", {})
            if "brute" in data and data["brute"] != data["closed"]:
                errors.append(f"{chk['name']}: brute {data['brute']} != {data['closed']}")
    if cmd.argv[:2] == ("weyl", "audit"):
        # the top word w(t, h, t, h) has Deligne-Lusztig dimension t + h
        for row in counts:
            t, h = (int(x.split("=")[1]) for x in row["label"].split()[-2:])
            if row["count"] != t + h:
                errors.append(f"{row['label']}: {row['count']} != {t + h}")
    if cmd.seeded:
        c = {row["label"]: row["count"] for row in counts}
        outcomes = sum(c[k] for k in ("hypothesis_rejected", "case_Y", "case_Z",
                                      "case_Both", "anomalous", "inconclusive"))
        if c["trials"] != SEEDED_TRIALS or outcomes != SEEDED_TRIALS:
            errors.append(f"trials {c['trials']}, outcomes {outcomes}, want {SEEDED_TRIALS}")
        if c["anomalous"] or c["same_index_failures"]:
            errors.append("anomalous or same-index failures")
    return errors


def check(cmd: Command, outcome: dict, frozen: dict) -> dict:
    """Classify one command's outcome.

    ``failed``: it raised, timed out, exited non-zero, printed a report
    that cannot be read, or returned counts that differ from the frozen
    ones or from an independent value.  ``wrong``: like ``failed`` except
    that a non-zero exit of ``KNOWN_FAILING`` is expected; a wrong result
    makes the run incorrect.
    """
    problems = []
    items = 0
    if outcome.get("error"):
        problems.append(outcome["error"])
    else:
        try:
            stable = json.loads(outcome["stdout"])["stable"]
            if not cmd.seeded:
                want = frozen.get(cmd.key)
                if want is None:
                    problems.append("no frozen counts")
                elif stable["counts"] != want["counts"]:
                    problems.append("counts differ from frozen counts")
            problems += oracle_errors(cmd, stable)
            items = items_of(cmd, stable)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"malformed report: {exc!r}")
    exit_bad = outcome.get("exit") not in (0, None)
    failed = bool(problems) or exit_bad
    wrong = bool(problems) or (exit_bad and cmd.key != KNOWN_FAILING)
    if exit_bad:
        problems.append(f"exit {outcome['exit']}")
    return {
        "command": cmd.key,
        "failed": failed,
        "wrong": wrong,
        "problems": problems,
        "items": items,
    }
