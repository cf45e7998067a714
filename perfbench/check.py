"""Golden-output check: compare what a report means, not its bytes.

A report is reduced to a summary of its verdicts, violation counts per
condition, estimated constants, each solver run's outcome and each
expectation's pass or fail.  Two summaries agree when the discrete parts
are equal, the estimates agree to a relative 1e-12 and the points to an
absolute 1e-9.  A change in the last bits of a float therefore still
agrees; it shows only as a different byte digest.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

ESTIMATE_RTOL = 1e-12
POINT_ATOL = 1e-9


def summarize(out_dir: Path, exit_code) -> tuple[dict, str]:
    """Summary and sha256 digest of the report written to out_dir."""
    raw = (out_dir / "report.json").read_bytes()
    data = json.loads(raw)
    summary: dict = {
        "exit_code": exit_code,
        "files": sorted(p.name for p in out_dir.iterdir()),
        "passed": data["passed"],
    }
    if "checks" in data:  # remark_2_5: exact counterexample arithmetic
        summary["checks"] = [[c["name"], c["passed"]] for c in data["checks"]]
        return summary, hashlib.sha256(raw).hexdigest()
    cls = data["classification"]
    records = cls["pairs"]
    violations = Counter(r["condition"] for r in records if r["satisfied"] is not True)
    est = cls["constants"]["estimates"]
    summary.update(
        verdicts=cls["verdicts"],
        violations=dict(sorted(violations.items())),
        pairs=len({tuple(r["pair"]) for r in records}),
        estimates=[est["xi"], est["eta"], est["lambda"]],
        runs=[{"status": r["status"], "iterations": r["iterations"],
               "point": r["point"], "restarted_from": r["restarted_from"]}
              for r in data["solver"]["runs"]],
        expectations=[[e["kind"], e["passed"]] for e in data["expectations"]],
    )
    return summary, hashlib.sha256(raw).hexdigest()


def _close(a, b, rtol=0.0, atol=0.0) -> bool:
    if a is None or b is None:
        return a is b
    if isinstance(a, list):
        return (isinstance(b, list) and len(a) == len(b)
                and all(_close(x, y, rtol, atol) for x, y in zip(a, b)))
    return math.isclose(a, b, rel_tol=rtol, abs_tol=atol)


def compare(summary: dict, golden: dict) -> list[str]:
    """Differences between a summary and its golden summary; empty if they agree."""
    diffs = [f"{key}: {summary.get(key)!r} != {golden.get(key)!r}"
             for key in sorted(set(summary) | set(golden))
             if key not in ("estimates", "runs") and summary.get(key) != golden.get(key)]
    if not _close(summary.get("estimates"), golden.get("estimates"), rtol=ESTIMATE_RTOL):
        diffs.append(f"estimates: {summary.get('estimates')} != {golden.get('estimates')}")
    runs, gruns = summary.get("runs") or [], golden.get("runs") or []
    if len(runs) != len(gruns):
        diffs.append(f"runs: {len(runs)} != {len(gruns)}")
    for i, (r, g) in enumerate(zip(runs, gruns)):
        for key in ("status", "iterations"):
            if r[key] != g[key]:
                diffs.append(f"run {i} {key}: {r[key]!r} != {g[key]!r}")
        for key in ("point", "restarted_from"):
            if not _close(r[key], g[key], atol=POINT_ATOL):
                diffs.append(f"run {i} {key}: {r[key]} != {g[key]}")
    return diffs


def load_golden(path: Path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)
