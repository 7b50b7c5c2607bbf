"""Check records, report assembly and serialization.

A check record is ``{"name", "status"}`` plus an optional failure
``witness`` and optional ``data``; :func:`check` and :func:`inconclusive`
build every one, so the status strings live only here.

A report has a stable section (config echo, counts, checks, toolkit
version, seed) and a volatile wall-time field.  The stable section is
serialized with sorted keys and fixed separators so that identical runs
are byte-identical; wall time stays outside it.
"""

from __future__ import annotations

import io
import json

TOOLKIT_VERSION = "0.1.0"


def check(name: str, ok: bool | None = None, witness=None, data=None) -> dict:
    """One check record.

    It fails when ``ok`` is false, or when ``ok`` is omitted and
    ``witness`` is non-empty.  The witness is kept only on failure;
    ``data`` is kept always.
    """
    if ok is None:
        ok = not witness
    return _record(name, "pass" if ok else "fail", None if ok else witness, data)


def inconclusive(name: str, witness=None, data=None) -> dict:
    """A check record that could not be decided: a budget overrun, a guard
    trip, or nothing to check."""
    return _record(name, "inconclusive", witness, data)


def _record(name: str, status: str, witness, data) -> dict:
    rec = {"name": name, "status": status}
    if witness is not None:
        rec["witness"] = witness
    if data is not None:
        rec["data"] = data
    return rec


def make_report(config: dict, counts: list, checks: list, seed: int | None = None,
                wall_time_s: float | None = None) -> dict:
    stable = {
        "version": TOOLKIT_VERSION,
        "config": config,
        "counts": counts,
        "checks": checks,
    }
    if seed is not None:
        stable["seed"] = seed
    return {"stable": stable, "wall_time_s": wall_time_s}


def merge_reports(parts: list[dict], config: dict) -> dict:
    """One part (config, counts, checks) from several, each row tagged
    with its part's config."""
    counts = []
    checks = []
    for part in parts:
        prefix = part.get("config", {})
        tag = ",".join(f"{k}={v}" for k, v in sorted(prefix.items()) if v not in (None, 0, ""))
        for row in part.get("counts", []):
            counts.append({"label": f"[{tag}] {row['label']}", "count": row["count"]})
        for chk in part.get("checks", []):
            item = dict(chk)
            item["name"] = f"[{tag}] {chk['name']}"
            checks.append(item)
    return {"config": config, "counts": counts, "checks": checks}


def exit_code(report: dict) -> int:
    statuses = [c["status"] for c in report["stable"]["checks"]]
    if any(s == "fail" for s in statuses):
        return 1
    if any(s == "inconclusive" for s in statuses):
        return 3
    return 0


def emit_json(report: dict) -> str:
    stable = json.loads(emit_stable_json(report))
    return json.dumps({"stable": stable, "wall_time_s": report.get("wall_time_s")},
                      sort_keys=True, indent=2)


def emit_stable_json(report: dict) -> str:
    return json.dumps(report["stable"], sort_keys=True, separators=(",", ":"))


def emit_csv(report: dict) -> str:
    out = io.StringIO()
    out.write("label,count\n")
    for row in report["stable"]["counts"]:
        label = str(row["label"]).replace('"', '""')
        out.write(f'"{label}",{row["count"]}\n')
    return out.getvalue()


def emit_md(report: dict) -> str:
    st = report["stable"]
    lines = [f"# stratakit report (v{st['version']})", ""]
    lines.append("## Configuration")
    lines.append("")
    lines.append("| key | value |")
    lines.append("| --- | --- |")
    for k in sorted(st["config"]):
        lines.append(f"| {k} | {st['config'][k]} |")
    lines.append("")
    if st["counts"]:
        lines.append("## Counts")
        lines.append("")
        lines.append("| label | count |")
        lines.append("| --- | --- |")
        for row in st["counts"]:
            lines.append(f"| {row['label']} | {row['count']} |")
        lines.append("")
    lines.append("## Checks")
    lines.append("")
    lines.append("| check | status |")
    lines.append("| --- | --- |")
    for chk in st["checks"]:
        lines.append(f"| {chk['name']} | {chk['status']} |")
    lines.append("")
    if report.get("wall_time_s") is not None:
        lines.append(f"wall time: {report['wall_time_s']:.2f} s")
        lines.append("")
    return "\n".join(lines)


def emit(report: dict, fmt: str) -> str:
    if fmt == "json":
        return emit_json(report)
    if fmt == "csv":
        return emit_csv(report)
    if fmt == "md":
        return emit_md(report)
    raise ValueError(f"unknown format {fmt!r}")
