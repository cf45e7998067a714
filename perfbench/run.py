"""End-to-end and per-layer benchmark of the mulfix certification pipeline.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 40 --trace 0

Runs one workload (see workloads.py) in a closed loop, one experiment at a
time in this process, in whole passes over the workload's fixed list of
experiments.  An untraced run makes a fixed number of passes, about
``--seconds`` of work on the reference machine; a traced run repeats passes
until the next one would overrun ``--seconds``.  Each
experiment's written report is checked against golden.json.  The last line
of standard output is one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced pass (``--trace 1``).
A copy of the result, stamped with the environment, and the spans of a
traced run are written under perfbench/results/.
"""

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if not (SRC / "mulfix" / "__init__.py").is_file():
    print(f"error: no mulfix sources under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

# Times are the process's CPU time (user plus system).  The pipeline is
# single-threaded and CPU-bound, so on an idle core that is the time a user
# waits.  The end-to-end times are then scaled to reference seconds (see
# calibrate), because on a shared machine the same work takes from one to
# two times as long, in stretches of seconds to minutes.
CLOCK = time.process_time

# setup_s times the program's import and the generation of the workload's
# configs: from here to the end of workloads.plan in a fresh interpreter.
_T0 = CLOCK()

import numpy  # noqa: E402

import mulfix  # noqa: E402
from mulfix import fixture_config, run_experiment, write_report  # noqa: E402
from mulfix.cli import main as cli_main  # noqa: E402

import workloads  # noqa: E402

_IMPORT_S = CLOCK() - _T0

from tracing import STAGES, Tracer, replay  # noqa: E402

# Close to the fastest CPU times of calibrate and page_touch on the 2-core
# reference sandbox, so a reference second is about a second of an
# uncontended core there.
CALIBRATION_REF_S = 0.010
PAGE_TOUCH_REF_S = 0.035

END_TO_END = {
    "setup_s": "s", "list_s": "s", "experiment_s.p50": "s", "experiment_s.tail": "s",
    "pairs_per_s": "1/s", "picard_iters_per_s": "1/s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "conditions.classify_s": "s", "conditions.estimate_constants_s": "s",
    "conditions.pairs": "count", "conditions.pairs_skipped": "count",
    "conditions.records": "count",
    "metrics.verify_axioms_s": "s", "metrics.verify_reverse_triangle_s": "s",
    "metrics.log_distance_calls": "count", "metrics.log_distance_calls_per_pair": "1/pair",
    "maps.sample_box_s": "s", "maps.map_calls": "count", "maps.map_calls_per_point": "1/point",
    "solver.picard_s": "s", "solver.iterations": "count", "solver.restarts": "count",
    "solver.stalled_runs": "count", "solver.uniqueness_probe_s": "s",
    "solver.verify_bound_s": "s",
    "sequences.detect_limit_point_s": "s", "sequences.limit_points_found": "count",
    "experiment.run_experiment_s": "s", "experiment.unattributed_s": "s",
    "experiment.write_report_s": "s", "experiment.report_bytes": "B",
    "experiment.report_identical": "count",
    "cli.main_s": "s",
    "trace.untraced_cpu_s": "s", "trace.traced_cpu_s": "s", "trace.overhead_ratio": "ratio",
}
SETUP_PROBES = 7
WORK = HERE / ".work"
RESULTS = HERE / "results"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=workloads.SCALES, default="full",
                   help="tiny shrinks the sample sizes and caps for a smoke test")
    p.add_argument("--golden", type=Path, default=HERE / "golden.json")
    p.add_argument("--setup-probe", action="store_true",
                   help="only time import plus config generation, print it and exit")
    return p.parse_args(argv)


def environment(args) -> dict:
    """The stamp every result carries."""
    commit = None
    git = ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"]
    try:
        out = subprocess.run(git, capture_output=True, text=True, timeout=30)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except OSError:
        pass
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), None)
    return {
        "git_commit": commit,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "mulfix": mulfix.__version__, "nproc": os.cpu_count(), "cpu_model": cpu,
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": bool(args.trace), "seconds": args.seconds,
    }


def calibrate() -> float:
    """CPU time of a fixed mix of scalar float work and small numpy calls.

    The mix is the pipeline's own: Python-level arithmetic with a numpy call
    every few steps.  A time ``t`` measured between calibrations with mean
    ``c`` reads ``t * CALIBRATION_REF_S / c`` reference seconds, which takes
    out how fast the machine happens to run at that moment.  The kernel is
    the benchmark's, so a faster program still reads faster.
    """
    a = numpy.linspace(0.0, 1.0, 64)
    s = 0.0
    t0 = CLOCK()
    for i in range(60_000):
        s += (i * 0.5) ** 0.5
        if i % 40 == 0:
            s += float(numpy.abs(a - s % 1.0).max())
    return CLOCK() - t0


def page_touch() -> float:
    """CPU time to allocate 64 MiB and write one byte to each of its pages.

    Importing is mostly loading and first-touching memory, which other
    tenants slow differently from arithmetic, so setup_s is scaled by this
    kernel rather than by calibrate.
    """
    t0 = CLOCK()
    buf = bytearray(64 << 20)
    for i in range(0, len(buf), 4096):
        buf[i] = 1
    return CLOCK() - t0


def setup_probe(args) -> float:
    """Import plus config generation in a fresh interpreter, in reference seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--scale", args.scale]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                         cwd=ROOT, check=True)
    setup, touch = map(float, out.stdout.split()[-2:])
    return setup * PAGE_TOUCH_REF_S / touch


def execute(exp, out: Path):
    """Run one experiment to a written report; returns the CLI exit code."""
    if exp.fixture is not None:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli_main(["fixture", exp.fixture, "--out", str(out)])
    write_report(run_experiment(exp.config), out)
    return None


class Runner:
    """Runs experiments, checks them against the golden file, counts failures."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.attempted = 0
        self.failures: list[dict] = []
        self._n = 0

    def fresh_dir(self) -> Path:
        self._n += 1
        return WORK / str(os.getpid()) / str(self._n)

    def checked(self, exp, out: Path, run) -> dict | None:
        """Call run(out); return the checked summary, or None on failure."""
        self.attempted += 1
        try:
            rc = run(out)
            summary, digest = check.summarize(out, rc)
            size = (out / "report.json").stat().st_size
        except Exception:  # an experiment that raises counts as failed
            self.failures.append({"id": exp.id, "error": traceback.format_exc()})
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        entry = self.golden.get(exp.id)
        diffs = (["no golden entry"] if entry is None
                 else check.compare(summary, entry["summary"]))
        if diffs:
            self.failures.append({"id": exp.id, "diffs": diffs})
            return None
        return {"summary": summary, "bytes": size,
                "identical": digest == entry["sha256"]}


def untraced_pass(runner: Runner, plan) -> dict:
    """One pass: each experiment's time in reference seconds.

    The raw CPU and wall-clock times and the calibrations are kept for the
    result file.
    """
    times, raw = {}, {}
    pairs = iters = 0
    for exp in plan:
        timing = {}

        def run(out, exp=exp, timing=timing):
            gc.collect()
            before = calibrate()
            w0, t0 = time.perf_counter(), CLOCK()
            rc = execute(exp, out)
            timing["cpu"], timing["wall"] = CLOCK() - t0, time.perf_counter() - w0
            timing["cal"] = (before + calibrate()) / 2
            return rc

        res = runner.checked(exp, runner.fresh_dir(), run)
        if res is not None:
            times[exp.id] = timing["cpu"] * CALIBRATION_REF_S / timing["cal"]
            raw[exp.id] = timing
            pairs += res["summary"].get("pairs", 0)
            iters += sum(r["iterations"] for r in res["summary"].get("runs", []))
    return {"times": times, "raw": raw, "pairs": pairs, "iters": iters}


# What mulfix.cli.main calls, spanned inside the traced call: the CLI's own
# work takes about a millisecond, far below the noise of a separate replay.
CLI_CALLS = {"run_experiment": "experiment.run_experiment",
             "write_report": "experiment.write_report",
             "run_fixture": "fixtures.run_fixture"}


def traced_pass(runner: Runner, tracer: Tracer, plan, pass_no: int) -> dict:
    """Each experiment untraced once, then traced, then replayed stage by stage."""
    counts = defaultdict(int)
    for exp in plan:
        def span(name, exp=exp):
            return tracer.span(name, exp.id, pass_no)

        def run(out, exp=exp):
            baseline = runner.fresh_dir()
            gc.collect()
            t0 = CLOCK()
            execute(exp, baseline)
            counts["untraced"] += CLOCK() - t0
            shutil.rmtree(baseline, ignore_errors=True)
            gc.collect()
            with tracer.counting():
                if exp.fixture is not None:
                    with tracer.spanning(mulfix.cli, CLI_CALLS, exp.id, pass_no), \
                            span("cli.main") as first:
                        rc = execute(exp, out)
                    last = first
                    config = (None if exp.fixture == "remark_2_5"
                              else fixture_config(exp.fixture))
                else:
                    rc, config = None, exp.config
                    with span("experiment.run_experiment") as first:
                        report = run_experiment(config)
                    with span("experiment.write_report") as last:
                        write_report(report, out)
                    del report  # free a large report before the replay
                counts["traced"] += last["end"] - first["start"]
                if config is not None:
                    with span("experiment.replay"):
                        for key, value in replay(tracer, config, exp.id, pass_no).items():
                            counts[key] += value
            return rc

        res = runner.checked(exp, runner.fresh_dir(), run)
        if res is not None:
            counts["report_bytes"] += res["bytes"]
            counts["report_identical"] += res["identical"]
    return counts


def per_layer_values(tracer: Tracer, counts: dict, pass_no: int) -> dict:
    dur, calls, maps = defaultdict(float), defaultdict(int), defaultdict(int)
    by_exp = defaultdict(lambda: defaultdict(float))
    for s in tracer.spans:
        if s["pass"] != pass_no:
            continue
        d = s["end"] - s["start"]
        dur[s["name"]] += d
        calls[s["name"]] += s["log_distance_calls"]
        maps[s["name"]] += s["map_calls"]
        by_exp[s["exp"]][s["name"]] += d
    cli_self = sum(t["cli.main"] - t["experiment.run_experiment"]
                   - t["experiment.write_report"] - t["fixtures.run_fixture"]
                   for t in by_exp.values() if "cli.main" in t) or 0.0
    pairs, points = counts["pairs"], counts["points"]
    return {
        "conditions.classify_s": dur["conditions.classify"]
        - dur["conditions.estimate_constants"],
        "conditions.estimate_constants_s": dur["conditions.estimate_constants"],
        "conditions.pairs": pairs,
        "conditions.pairs_skipped": counts["pairs_skipped"],
        "conditions.records": counts["records"],
        "metrics.verify_axioms_s": dur["metrics.verify_axioms"],
        "metrics.verify_reverse_triangle_s": dur["metrics.verify_reverse_triangle"],
        "metrics.log_distance_calls": calls["experiment.run_experiment"],
        "metrics.log_distance_calls_per_pair":
            calls["conditions.classify"] / pairs if pairs else 0.0,
        "maps.sample_box_s": dur["maps.sample_box"],
        "maps.map_calls": maps["experiment.run_experiment"],
        "maps.map_calls_per_point": maps["conditions.classify"] / points if points else 0.0,
        "solver.picard_s": dur["solver.picard"],
        "solver.iterations": counts["iterations"],
        "solver.restarts": counts["restarts"],
        "solver.stalled_runs": counts["stalled_runs"],
        "solver.uniqueness_probe_s": dur["solver.uniqueness_probe"],
        "solver.verify_bound_s": dur["solver.verify_bound"],
        "sequences.detect_limit_point_s": dur["sequences.detect_limit_point"],
        "sequences.limit_points_found": counts["limit_points_found"],
        "experiment.run_experiment_s": dur["experiment.run_experiment"],
        "experiment.unattributed_s": dur["experiment.run_experiment"]
        - sum(dur[name] for name in STAGES),
        "experiment.write_report_s": dur["experiment.write_report"],
        "experiment.report_bytes": counts["report_bytes"],
        "experiment.report_identical": counts["report_identical"],
        "cli.main_s": cli_self,
        "trace.untraced_cpu_s": counts["untraced"],
        "trace.traced_cpu_s": counts["traced"],
        "trace.overhead_ratio":
            counts["traced"] / counts["untraced"] if counts["untraced"] else 0.0,
    }


def tail(samples: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten samples beyond it.

    Nearest-rank.  With ten samples or fewer no percentile has ten beyond
    it, and the maximum is reported as percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100
    pct = math.floor(100 * (n - 10) / n)
    return xs[math.ceil(pct * n / 100) - 1], pct


def run_passes(seconds: float, one_pass) -> list:
    """Whole passes until the next one would overrun ``seconds``; at least one."""
    start = time.perf_counter()
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(one_pass(len(results)))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return results


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        t0 = CLOCK()
        workloads.plan(args.workload, args.seed, args.scale)
        print(_IMPORT_S + CLOCK() - t0, page_touch())
        return 0
    if not args.golden.is_file():
        print(f"error: golden file {args.golden} not found", file=sys.stderr)
        return 2
    env = environment(args)
    runner = Runner(check.load_golden(args.golden))
    plan = workloads.plan(args.workload, args.seed, args.scale)
    try:
        if args.trace:  # each experiment's untraced baseline warms up its traced call
            tracer = Tracer()
            passes = run_passes(args.seconds,
                                lambda k: traced_pass(runner, tracer, plan, k))
            per_pass = [per_layer_values(tracer, c, k) for k, c in enumerate(passes)]
            metrics = {name: statistics.median(p[name] for p in per_pass)
                       for name in PER_LAYER}
            units, extra = PER_LAYER, {"passes": len(passes)}
            tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            if args.scale == "full":  # warm-up, neither timed nor counted
                for exp in workloads.plan(args.workload, args.seed, "tiny"):
                    out = runner.fresh_dir()
                    execute(exp, out)
                    shutil.rmtree(out, ignore_errors=True)
            count = max(1, int(args.seconds // workloads.PASS_SECONDS[args.workload]))
            passes, setup_times = [], []
            for i in range(count):
                passes.append(untraced_pass(runner, plan))
                # spread the set-up probes evenly over the run's passes
                while len(setup_times) < SETUP_PROBES * (i + 1) / count:
                    setup_times.append(setup_probe(args))
            by_exp = defaultdict(list)
            for p in passes:
                for exp_id, t in p["times"].items():
                    by_exp[exp_id].append(t)
            samples = [t for ts in by_exp.values() for t in ts] or [0.0]
            list_s = statistics.median(sum(p["times"].values()) for p in passes)
            tail_value, tail_pct = tail(samples)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "list_s": list_s,
                "experiment_s.p50": statistics.fmean(
                    statistics.median(ts) for ts in by_exp.values()) if by_exp else 0.0,
                "experiment_s.tail": tail_value,
                "pairs_per_s": statistics.median(p["pairs"] for p in passes) / (list_s or 1),
                "picard_iters_per_s":
                    statistics.median(p["iters"] for p in passes) / (list_s or 1),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
            extra = {"passes": len(passes), "tail_percentile": tail_pct,
                     "samples": len(samples), "setup_times": setup_times,
                     "experiment_times": [p["times"] for p in passes],
                     "experiment_raw": [p["raw"] for p in passes]}
    finally:
        shutil.rmtree(WORK / str(os.getpid()), ignore_errors=True)

    failed = len(runner.failures)
    attempted = max(runner.attempted, 1)
    failed_ratio = failed / attempted
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{args.workload}: {extra['passes']} passes, {runner.attempted} experiments")
    for name, value in metrics.items():
        note = ""
        if name == "experiment_s.tail":
            note = f"  (p{extra['tail_percentile']} of {extra['samples']} samples)"
        print(f"  {name} {value!r} {units[name]}{note}")
    print(f"  failed_ratio {failed_ratio!r} ratio")
    for f in runner.failures:
        print(f"FAILED {f['id']}: {f.get('diffs') or f['error']}", file=sys.stderr)
    result = {
        "correct": failed == 0 and runner.attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"result-{stamp}.json").write_text(json.dumps(
        {**result, "env": env, "failed_ratio": failed_ratio, **extra,
         "failures": runner.failures}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
