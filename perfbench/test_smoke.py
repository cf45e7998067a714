"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs each workload once, untraced and traced, and checks that every metric
is printed with its unit.  A negative control corrupts one golden entry and
checks that the benchmark counts the failure.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3


def bench(workload: str, trace: int, *extra: str) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny", *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=300, check=True)
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines, result = bench(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[2] for line in lines
               if line.startswith("  ")}
    assert printed == {**expected, "failed_ratio": "ratio"}


def test_a_wrong_golden_entry_counts_as_a_failure(tmp_path):
    golden = check.load_golden(HERE / "golden.json")
    plan = workloads.plan("stalled_solver", SEED, "tiny")
    golden[plan[0].id]["summary"]["runs"][0]["iterations"] += 1
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden), encoding="utf-8")
    lines, result = bench("stalled_solver", 0, "--golden", str(path))
    assert not result["correct"]
    assert result["failed"] == 1
    assert f"  failed_ratio {1 / len(plan)!r} ratio" in lines


def test_last_bit_float_changes_still_agree_with_the_golden_summary():
    entry = check.load_golden(HERE / "golden.json")["fixtures/example_3_16"]["summary"]
    moved = json.loads(json.dumps(entry))
    moved["estimates"] = [v * (1 + 4e-16) for v in moved["estimates"]]
    moved["runs"][0]["point"] = [c + 1e-12 for c in moved["runs"][0]["point"]]
    assert check.compare(moved, entry) == []
    moved["runs"][0]["status"] = "max_iter"
    assert check.compare(moved, entry) == ["run 0 status: 'max_iter' != 'converged'"]
