"""Regenerate golden.json: the expected outcome of every experiment variant.

    python3 perfbench/make_golden.py

Runs each variant of each workload slot once, at both scales, exactly as the
benchmark does, and records its summary (see check.py) and report digest.
Regenerate only when a change is meant to alter what reports say; a change
that only moves floats in the last bits keeps the summaries and shows as a
lower experiment.report_identical count instead.
"""

import json
import shutil
import sys

import check
import run
import workloads


def main() -> int:
    golden = {}
    for workload in workloads.WORKLOADS:
        scales = ("full",) if workload == "fixtures" else workloads.SCALES
        for scale in scales:
            for exp in workloads.pool(workload, scale):
                out = run.WORK / "golden"
                shutil.rmtree(out, ignore_errors=True)
                rc = run.execute(exp, out)
                summary, digest = check.summarize(out, rc)
                golden[exp.id] = {"summary": summary, "sha256": digest}
                shutil.rmtree(out, ignore_errors=True)
                print(exp.id, summary.get("verdicts", {}).get("overall", ""), flush=True)
    text = json.dumps(dict(sorted(golden.items())), indent=1) + "\n"
    (run.HERE / "golden.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
