"""Command-line driver: run verification suites, emit reports.

Subcommands mirror the library layout::

    stratakit strata verify --case z --q 3 --k 2 --t 4 --h 0
    stratakit strata count  --case zy --q 3 --k 2 --t1 6 --h 2 --t2 0
    stratakit strata classify --case z --t 4 --h 0 --input subspace.json
    stratakit weyl audit --tmax 6
    stratakit charts reconcile --max-entries 10
    stratakit charts rzdim --n 5 --h 0
    stratakit latcalc dichotomy --n 3 --trials 1000 --seed 0
    stratakit latcalc inclusions --n 2 --h 2

Exit codes: 0 all checks passed, 1 some check failed, 2 usage or
parameter error, 3 no failures but at least one inconclusive result.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import charts, latcalc, report, strata, weyl
from .space import BudgetExceeded, subspace_from_json


def _given(args, names, allowed, where: str) -> dict:
    """The flags among ``names`` given on the command line, refusing any
    outside ``allowed``."""
    given = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    stray = [f"--{name}" for name in given if name not in allowed]
    if stray:
        raise ValueError(f"{' '.join(stray)} not read {where}")
    return given


def _strata_config(args) -> strata.StrataConfig:
    """The configuration of the given case flags, ``StrataConfig``'s
    defaults for the rest."""
    case = args.case.upper()
    return strata.StrataConfig(case, args.q, args.e, args.k, **_given(
        args, _STRATA_PARAMS, strata.CASE_PARAMS[case], f"in case {case}"))


def _run(args, body, config=None) -> int:
    """Time ``body()``, report its part and return the exit code.

    The part holds ``counts`` and ``checks`` and, unless the caller passes
    ``config``, its own ``config``.  A budget overrun anywhere in the body
    becomes an inconclusive ``enumeration`` check, and a truncation guard
    trip that no trial absorbed an inconclusive ``guard`` check (exit 3);
    a broken strata chain is a failed ``chain`` check (exit 1).
    """
    t0 = time.perf_counter()
    try:
        part = {"config": config, **body()}
    except (BudgetExceeded, latcalc.GuardError) as exc:
        name = "enumeration" if isinstance(exc, BudgetExceeded) else "guard"
        part = {"config": config, "counts": [],
                "checks": [report.inconclusive(name, witness=str(exc))]}
    except strata.ChainError as exc:
        part = {"config": config, "counts": [],
                "checks": [report.check("chain", ok=False, witness=str(exc))]}
    rep = report.make_report(part["config"], part["counts"], part["checks"],
                             seed=getattr(args, "seed", None),
                             wall_time_s=time.perf_counter() - t0)
    text = report.emit(rep, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text + ("\n" if not text.endswith("\n") else ""))
    return report.exit_code(rep)


def cmd_strata_verify(args) -> int:
    cfg = _strata_config(args)
    return _run(args, lambda: strata.verify_decomposition(cfg, budget=args.budget),
                config=cfg.describe())


def cmd_strata_count(args) -> int:
    cfg = _strata_config(args)

    def body():
        counts, _ = strata.stratum_counts(cfg, budget=args.budget)
        return {"counts": [{"label": l.key(), "count": c}
                           for l, c in sorted(counts.items(), key=lambda x: x[0].key())],
                "checks": [strata.stable_count_check(cfg, counts, "enumeration")]}

    return _run(args, body, config=cfg.describe())


def cmd_strata_classify(args) -> int:
    cfg = _strata_config(args)
    with open(args.input) as fh:
        U = subspace_from_json(json.load(fh))

    def body():
        if not strata.member(cfg, U):
            return {"counts": [], "checks": [report.check(
                "membership", ok=False,
                witness="subspace is not a member of the configured stratum space")]}
        label, chain_dims, kr = strata.classify(cfg, U)
        return {"counts": [{"label": label.key(), "count": 1}],
                "checks": [report.check("membership", ok=True,
                                        data={"label": label.key(), "kr_class": kr,
                                              "chain_dims": chain_dims})]}

    return _run(args, body, config=cfg.describe())


def cmd_weyl_audit(args) -> int:
    return _run(args, lambda: weyl.symplectic_audit(args.tmax))


def cmd_charts_reconcile(args) -> int:
    # without --q one family counts over GF(3) and the sweep over GF(3) and GF(5)
    qs = (3, 5) if args.q is None else (args.q,)
    shape = _given(args, _CHART_PARAMS, _CHART_PARAMS if args.family else (), "without --family")

    def body():
        if args.family:
            specs = [charts.ChartSpec(args.family, qs[0], **shape)]
        else:
            specs = charts.all_chart_specs(args.max_entries, qs=qs)
        parts = [charts.reconcile(spec, budget=args.budget) for spec in specs]
        return report.merge_reports(parts, {"command": "charts reconcile",
                                            "max_entries": args.max_entries})

    return _run(args, body)


def cmd_charts_rzdim(args) -> int:
    def body():
        value = charts.rz_dim(args.n, args.h, args.eps)
        oracle = charts.rz_dim_oracle(args.n, args.h, args.eps)
        return {"counts": [{"label": "rz_dim", "count": value}],
                "checks": [report.check("formula_matches_type_table_oracle",
                                        ok=value == oracle,
                                        data={"formula": value, "oracle": oracle})]}

    return _run(args, body, config={"command": "charts rzdim", "n": args.n, "h": args.h,
                                    "eps": args.eps})


def cmd_latcalc_dichotomy(args) -> int:
    if args.budget is not None and not args.exhaustive:
        raise ValueError("--budget bounds only an --exhaustive dichotomy")

    def body():
        if args.exhaustive:
            stats = latcalc.exhaustive_dichotomy(args.q, args.e, args.s, n=args.n,
                                                 seed=args.seed, N=args.bign,
                                                 budget=args.budget)
        else:
            stats = latcalc.dichotomy_trials(args.q, args.e, args.s, args.n,
                                             args.trials, seed=args.seed, N=args.bign)
        audited = stats["case_Y"] + stats["case_Z"] + stats["case_Both"]
        denom = max(1, audited + stats["inconclusive"])
        rate_ok = stats["inconclusive"] / denom < 0.05
        checks = [
            report.check("no_counterexamples", witness=stats["counterexamples"][:3]),
            report.check("no_anomalous_cases", ok=stats["anomalous"] == 0),
            report.check("same_index_lemma", ok=stats["same_index_failures"] == 0),
            # the counts behind the rate are reported only when it is too high
            report.check("inconclusive_rate_below_5_percent", ok=rate_ok, data=None if rate_ok
                         else {"inconclusive": stats["inconclusive"], "audited": audited}),
        ]
        return {"counts": [{"label": k, "count": v} for k, v in sorted(stats.items())
                           if isinstance(v, int)],
                "checks": checks}

    return _run(args, body, config={
        "command": "latcalc dichotomy", "p": args.q, "e": args.e, "s": args.s,
        "n": args.n, "N": args.bign, "trials": args.trials,
        "exhaustive": bool(args.exhaustive)})


def cmd_latcalc_inclusions(args) -> int:
    return _run(args, lambda: latcalc.inclusion_report(
        args.q, args.e, args.s, n=args.n, h=args.h, seed=args.seed, N=args.bign,
        budget=args.budget), config={"p": args.q, "e": args.e, "s": args.s, "n": args.n,
                                     "h": args.h, "N": args.bign})


_STRATA_PARAMS = ("n", "h", "t", "t1", "t2", "eps")
_CHART_PARAMS = ("n", "h", "t1", "t2")

_SHARED = {"q": {"default": 3, "help": "base field characteristic p"},
           "e": {"default": 1, "help": "base field degree (q = p^e)"},
           "seed": {"default": 0},
           "budget": {"default": None, "help": "enumeration budget; an overrun exits 3"}}


def _add_common(p, *flags: str) -> None:
    """--format, --out and the named ``_SHARED`` flags: a command takes
    only the flags it reads."""
    for flag in flags:
        p.add_argument(f"--{flag}", type=int, **_SHARED[flag])
    p.add_argument("--format", choices=("json", "csv", "md"), default="json")
    p.add_argument("--out", default=None)


_STRATA_FLAGS = {"case": dict(required=True, choices=("z", "y", "zy", "Z", "Y", "ZY")),
                 "k": dict(type=int, default=1),
                 # None marks a flag not given: a case refuses the ones it does not read
                 **{flag: dict(type=int, choices=(-1, 1) if flag == "eps" else None)
                    for flag in _STRATA_PARAMS}}
_LATCALC_FLAGS = {"s": dict(type=int, default=2, help="coefficient field degree over GF(q)"),
                  "n": dict(type=int, default=2),
                  "bign": dict(type=int, default=8, help="truncation guard N")}


def _commands() -> dict:
    """module -> (help, {command: (handler, its _SHARED flags, its own
    flags)}).  Built per call, so each handler is looked up when the parser
    is: a wrapper installed on a ``cmd_*`` function (the benchmark's
    spans) sees the command."""
    return {
        "strata": ("stratum membership and decomposition checks", {
            "verify": (cmd_strata_verify, ("q", "e", "seed", "budget"), _STRATA_FLAGS),
            "count": (cmd_strata_count, ("q", "e", "seed", "budget"), _STRATA_FLAGS),
            "classify": (cmd_strata_classify, ("q", "e"),
                         {**_STRATA_FLAGS, "input": dict(required=True)})}),
        "weyl": ("signed permutation calculus audits", {
            "audit": (cmd_weyl_audit, ("seed",), {"tmax": dict(type=int, default=6)})}),
        "charts": ("local chart counting and dimensions", {
            "reconcile": (cmd_charts_reconcile, ("seed", "budget"), {
                "q": dict(type=int, help="base field characteristic p; a sweep without it "
                                         "runs over 3 and 5, a --family over 3"),
                "family": dict(choices=("Z", "Y", "ZY", "pi-modular")),
                **{flag: dict(type=int) for flag in _CHART_PARAMS},
                "max-entries": dict(type=int, default=10)}),
            "rzdim": (cmd_charts_rzdim, (), {
                "n": dict(type=int, required=True), "h": dict(type=int, required=True),
                "eps": dict(type=int, default=1, choices=(-1, 1))})}),
        "latcalc": ("truncated lattice calculus", {
            "dichotomy": (cmd_latcalc_dichotomy, ("q", "e", "seed", "budget"), {
                **_LATCALC_FLAGS, "trials": dict(type=int, default=1000),
                "exhaustive": dict(action="store_true")}),
            "inclusions": (cmd_latcalc_inclusions, ("q", "e", "seed", "budget"),
                           {**_LATCALC_FLAGS, "h": dict(type=int, default=0)})}),
    }


def build_parser(argv) -> argparse.ArgumentParser:
    """Every module and command parser, so usage errors and ``--help`` list
    every choice, but flags (``-h`` too) only on the command ``argv``
    names: the parse reaches no other command, and filling all nine would
    more than double the time of a ``charts rzdim`` call's parse."""
    ap = argparse.ArgumentParser(prog="stratakit",
                                 description="finite-field stratification verifier")
    sub = ap.add_subparsers(dest="module", required=True)
    for module, (text, commands) in _commands().items():
        mod_sub = sub.add_parser(module, help=text).add_subparsers(dest="command", required=True)
        for name, (func, shared, flags) in commands.items():
            invoked = list(argv[:2]) == [module, name]
            p = mod_sub.add_parser(name, add_help=invoked)
            if invoked:
                _add_common(p, *shared)
                for flag, kwargs in flags.items():
                    p.add_argument(f"--{flag}", **kwargs)
                p.set_defaults(func=func)
    return ap


# the least value of each count flag: below it a run would audit nothing
# and pass, or report a budget overrun that no budget can cause
_FLOORS = {"trials": 1, "tmax": 1, "budget": 0}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        for name, floor in _FLOORS.items():
            if (value := getattr(args, name, None)) is not None and value < floor:
                raise ValueError(f"--{name} must be at least {floor}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
