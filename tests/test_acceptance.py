"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time

import numpy as np

import mulfix as mx
from mulfix.cli import main

LOG_EPS = 1e-9  # fixtures stop at eps = exp(1e-9)


def _criterion(name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_planar_scaling_reproduction():
    t0 = time.perf_counter()
    report = mx.run_fixture("example_3_15")
    elapsed = time.perf_counter() - t0
    runs = report.runs
    starts = {r.trace.points[0] for r in runs}
    ok = starts == {(3.0, 4.0), (-5.0, 2.0), (0.1, 0.1)}
    ok &= all(r.status is mx.Status.CONVERGED for r in runs)
    ok &= all(r.residual_logd <= 1e-8 for r in runs)
    metric = report.config.metric
    ok &= all(metric.log_distance(r.point, (0.0, 0.0)) <= 1e-8 for r in runs)
    xi_hat = report.classification.estimates.xi_hat
    ok &= abs(xi_hat - 2.0 / 3.0) <= 1e-9
    ok &= elapsed < 1.0
    _criterion("scaling-map reproduction", ok,
               f"xi_hat={xi_hat!r}, runtime={elapsed:.3f}s")


def _failing(cls, condition):
    """The records of ``cls`` that fail ``condition``, read from the records
    rather than from the flags ``condition_ok`` reads."""
    return [r for r in cls.records if r["condition"] == condition and not r["satisfied"]]


def test_criterion_2_reciprocal_offset_reproduction():
    t0 = time.perf_counter()
    report = mx.run_fixture("example_3_16")
    elapsed = time.perf_counter() - t0
    runs = report.runs
    ok = all(r.status is mx.Status.CONVERGED for r in runs)
    ok &= all(abs(r.point[0] - 0.4142135624) <= 1e-8 for r in runs)
    cls = report.classification
    ok &= cls.condition_ok("C2") and not _failing(cls, "C2")
    ok &= cls.condition_ok("C3") and not _failing(cls, "C3")
    ok &= report.config.constants.eta == 0.499
    ok &= report.config.constants.lam == 0.499
    ok &= cls.n_points == 50
    ok &= elapsed < 1.0
    _criterion("reciprocal-offset reproduction", ok,
               f"fixed point {runs[0].point[0]!r}, runtime={elapsed:.3f}s")


def test_criterion_3_inverse_sqrt_reproduction(report_3_17):
    runs = report_3_17.runs
    ok = all(r.status is mx.Status.CONVERGED for r in runs)
    ok &= all(abs(r.point[0] - 1.0) <= 1e-8 for r in runs)
    cls = report_3_17.classification
    ok &= cls.n_points == 100
    ok &= cls.condition_ok("PHI") and not _failing(cls, "PHI")
    phi_expect = [e for e in report_3_17.expectations if e.kind == "phi_holds"]
    ok &= bool(phi_expect) and phi_expect[0].passed
    _criterion("inverse-sqrt reproduction", ok,
               f"fixed point {runs[0].point[0]!r}")


def test_criterion_4_counterexample_arithmetic(remark_report):
    checks = {c["name"]: c for c in remark_report.checks}
    star = checks["star_product_is_not_an_ordinary_metric"]
    usual = checks["usual_metric_is_not_multiplicative"]
    ok = star["lhs"] == 7.5 and star["rhs"] == 9.0 and star["passed"]
    ok &= usual["lhs"] == 3.0 and usual["rhs"] == 4.0 and usual["passed"]
    ok &= checks["axiom_checker_flags_the_usual_metric"]["passed"]
    ok &= remark_report.passed
    _criterion("counterexample arithmetic", ok, "7.5 < 9 and 3 < 4, exact")


def test_criterion_5_apriori_bound_along_traces(report_3_15, report_3_16):
    ok = True
    for report in (report_3_15, report_3_16):
        delta = report.config.constants.delta
        metric = report.config.metric
        ok &= bool(report.bounds) and all(b.ok for b in report.bounds)
        for run in report.runs:
            trace = run.trace
            d1 = trace.step_logd[0]
            z = run.point
            for n, p in enumerate(trace.points):
                observed = metric.log_distance(p, z)
                ok &= observed <= d1 * delta ** n / (1 - delta) + 1e-10
    _criterion("a-priori geometric bound", ok)


def test_criterion_6_axiom_suite_all_metric_kinds():
    rng = np.random.default_rng(20260811)
    samples = {
        "star_product": (mx.MetricSpec.star_product(),
                         rng.uniform(0.1, 10.0, size=(200, 2))),
        "lifted": (mx.MetricSpec.lifted("euclidean", a=2.0),
                   rng.uniform(-5.0, 5.0, size=(200, 2))),
        "exp_abs": (mx.MetricSpec.exp_abs(2.0),
                    rng.uniform(-5.0, 5.0, size=(200, 1))),
        "exp_reciprocal": (mx.MetricSpec.exp_reciprocal(),
                           rng.uniform(0.5, 10.0, size=(200, 2))),
        "discrete": (mx.MetricSpec.discrete(3.0),
                     rng.integers(0, 4, size=(200, 2)).astype(float)),
    }
    ok = True
    details = []
    for kind, (metric, pts) in samples.items():
        sample = [tuple(p) for p in pts]
        axioms = mx.verify_axioms(metric, sample)
        reverse = mx.verify_reverse_triangle(metric, sample)
        ok &= axioms.ok and reverse.ok
        details.append(f"{kind}: {len(axioms.violations)}+{len(reverse.violations)}")
    _criterion("axiom suite, 200 random points per kind", ok, "; ".join(details))


def test_criterion_7_grid_oracle_matches_the_solver(report_3_16, report_3_17):
    ok = True
    details = []
    for report in (report_3_16, report_3_17):
        metric, T = report.config.metric, report.config.map
        (lo, hi), = report.config.domain.bounds
        grid = np.linspace(lo, hi, 10_000)
        residuals = [metric.log_distance((x,), T((x,))) for x in grid]
        oracle = grid[int(np.argmin(residuals))]
        cell = (hi - lo) / (len(grid) - 1)
        for run in report.runs:
            ok &= abs(run.point[0] - oracle) <= 2 * cell
        details.append(f"argmin {oracle:.6f}")
    _criterion("brute-force grid oracle", ok, "; ".join(details))


def test_criterion_8_converged_traces_are_cauchy(report_3_15, report_3_16,
                                                 report_3_17):
    ok = True
    checked = 0
    for report in (report_3_15, report_3_16, report_3_17):
        for run in report.runs:
            if run.status is mx.Status.CONVERGED:
                window = min(10, len(run.trace))
                ok &= mx.cauchy_indicator(run.trace, window) <= LOG_EPS
                checked += 1
    ok &= checked >= 9
    _criterion("convergent implies Cauchy", ok, f"{checked} traces")


def test_criterion_9_negative_controls(tmp_path):
    eps = math.exp(LOG_EPS)
    exp_abs = mx.MetricSpec.exp_abs(math.e)
    grid = mx.grid_points(mx.Box(((-2.0, 2.0),)), 21)

    id_verdict = mx.classify(exp_abs, mx.SelfMapSpec.identity(), grid).overall
    swap_verdict = mx.classify(exp_abs, mx.SelfMapSpec.negation(), grid).overall
    ok = id_verdict == "none" and swap_verdict == "none"

    configs = {
        "identity": {
            "metric": {"kind": "exp_abs", "a": math.e},
            "map": {"kind": "identity"},
            "domain": [[0.0, 1.0]],
            "sample_size": 11,
            "seed": 3,
            "solver": {"eps": eps, "max_iter": 200, "starts": [[0.2], [0.8]]},
            "sample_scheme": "grid",
            "expectations": ["unique_fixed_point"],
        },
        "negation": {
            "metric": {"kind": "exp_abs", "a": math.e},
            "map": {"kind": "negation"},
            "domain": [[-2.0, 2.0]],
            "sample_size": 21,
            "seed": 5,
            "solver": {"eps": eps, "max_iter": 200, "starts": [[1.0], [-0.5]]},
            "sample_scheme": "grid",
            "expectations": ["unique_fixed_point"],
        },
    }
    exit_codes = {}
    for name, data in configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        exit_codes[name] = main(["run", "--config", str(path)])
    ok &= exit_codes == {"identity": 1, "negation": 1}

    # the identity control converges start-dependently; the swap control cycles
    id_report = mx.run_experiment(mx.ExperimentConfig.from_json_dict(configs["identity"]))
    ok &= id_report.start_independence.verdict == "failed"
    neg_report = mx.run_experiment(mx.ExperimentConfig.from_json_dict(configs["negation"]))
    ok &= any(r.status is mx.Status.CYCLE_DETECTED for r in neg_report.runs)
    _criterion("negative controls", ok,
               f"verdicts none/none, exit codes {exit_codes}")
