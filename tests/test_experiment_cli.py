import csv
import dataclasses
import json
import math
import subprocess
import sys

import pytest

import mulfix as mx
from mulfix.cli import main
from mulfix.errors import ConfigError
from mulfix.experiment import dump_json, write_report

EPS = math.exp(1e-9)


def identity_config(tmp_path=None) -> dict:
    return {
        "metric": {"kind": "exp_abs", "a": math.e},
        "map": {"kind": "identity"},
        "domain": [[0.0, 1.0]],
        "sample_size": 11,
        "seed": 3,
        "solver": {"eps": EPS, "max_iter": 200, "starts": [[0.2], [0.8]]},
        "sample_scheme": "grid",
        "expectations": ["unique_fixed_point"],
    }


def negation_config() -> dict:
    return {
        "metric": {"kind": "exp_abs", "a": math.e},
        "map": {"kind": "negation"},
        "domain": [[-2.0, 2.0]],
        "sample_size": 21,
        "seed": 5,
        "solver": {"eps": EPS, "max_iter": 200, "starts": [[1.0], [-0.5]]},
        "sample_scheme": "grid",
        "expectations": ["unique_fixed_point"],
    }


# -- config handling -----------------------------------------------------------


def test_config_round_trip_produces_identical_reports(report_3_16):
    config = mx.fixture_config("example_3_16")
    reparsed = mx.ExperimentConfig.from_json_dict(
        json.loads(json.dumps(config.to_json_dict()))
    )
    assert reparsed == config
    report = mx.run_experiment(reparsed)
    assert report.to_json_dict() == report_3_16.to_json_dict()


def test_fixture_runner_equals_plain_experiment(report_3_15):
    direct = mx.run_experiment(mx.fixture_config("example_3_15"))
    assert direct.to_json_dict() == report_3_15.to_json_dict()


def test_config_errors_carry_the_field_name():
    data = identity_config()
    del data["metric"]
    with pytest.raises(ConfigError) as err:
        mx.ExperimentConfig.from_json_dict(data)
    assert err.value.field == "metric"

    data = identity_config()
    data["sample_size"] = 1
    with pytest.raises(ConfigError) as err:
        mx.ExperimentConfig.from_json_dict(data)
    assert err.value.field == "sample_size"

    data = identity_config()
    data["solver"]["starts"] = [[5.0]]  # outside the domain
    with pytest.raises(ConfigError) as err:
        mx.ExperimentConfig.from_json_dict(data)
    assert err.value.field == "solver.starts"

    data = identity_config()
    data["expectations"] = ["levitates"]
    with pytest.raises(ConfigError):
        mx.ExperimentConfig.from_json_dict(data)


@pytest.mark.parametrize("field, value", [
    ("constantz", {"xi": 0.5}),
    ("sample_size", 10.9),
    ("seed", True),
    ("enforce_domain", "false"),
])
def test_config_rejects_unknown_and_mistyped_fields(field, value):
    data = identity_config()
    data[field] = value
    with pytest.raises(ConfigError) as err:
        mx.ExperimentConfig.from_json_dict(data)
    assert err.value.field == field


@pytest.mark.parametrize("key, value", [("max_iters", 5), ("cycle_lookback", -3)])
def test_solver_config_rejects_unknown_keys_and_negative_lookback(tmp_path, capsys,
                                                                  key, value):
    data = identity_config()
    data["solver"][key] = value
    with pytest.raises(ConfigError) as err:
        mx.ExperimentConfig.from_json_dict(data)
    assert err.value.field == "solver" and key in str(err.value)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path)]) == 2
    assert key in capsys.readouterr().err


SOLVER = {"eps": EPS, "max_iter": 200, "starts": [[0.2], [0.8]]}


@pytest.mark.parametrize("field, value", [
    ("constants", {"xi": 0.0, "eta": 0.499, "lamda": 0.499}),
    ("constants", {"xi": 0.5, "delta": 0.25}),
    ("metric", {"kind": "exp_reciprocal", "bsae": "x"}),
    ("phi", {"kind": "power_product", "q": 0.5, "qq": 1}),
    ("solver", {**SOLVER, "max_iter": 20.5}),
    ("solver", {**SOLVER, "starts": [["a"]]}),
    ("map", {"kind": "rational", "b": "2"}),
    ("map", {"kind": "rational", "b": 2, "c": 3}),
    ("expectations", [{"kind": "conditions_hold"}]),
    ("expectations", [{"kind": "fixed_point"}]),
    ("expectations", [{"kind": "fixed_point", "point": [0.5], "tol": "x"}]),
    ("expectations", [{"kind": "verdict", "theorem": "t9"}]),
    ("expectations", [{"kind": "converged", "tol": 5}]),
    ("expectations", [{"kind": "conditions_hold", "conditions": ["C9"]}]),
    ("outputs", {"pairs": True}),
    ("outputs", {"dir": 5}),
    ("domain", [[0.1]]),
    ("domain", "x"),
])
def test_cli_rejects_mistyped_and_unread_config_values(tmp_path, capsys, field, value):
    data = {**identity_config(), field: value}
    with pytest.raises(ConfigError) as err:
        mx.ExperimentConfig.from_json_dict(data)
    assert err.value.field == field
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


def test_conditions_hold_fails_when_a_pair_was_not_evaluated():
    data = {**identity_config(), "map": {"kind": "rational", "b": 2.0},
            "domain": [[-2.0, 2.0]], "sample_size": 5,
            "solver": {"eps": EPS, "max_iter": 200, "starts": [[0.0]]},
            "expectations": [{"kind": "conditions_hold", "conditions": ["C1"]}]}
    (result,) = mx.run_experiment(mx.ExperimentConfig.from_json_dict(data)).expectations
    assert not result.passed
    assert result.detail == "C1: 0 violating pairs, 4 pairs not evaluated"


def test_config_json_syntax_errors_report_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\n  \"metric\": ,\n}\n")
    with pytest.raises(ConfigError) as err:
        mx.ExperimentConfig.from_json_file(path)
    assert "line 2" in str(err.value)


def test_unknown_fixture_name_rejected():
    with pytest.raises(mx.DomainError):
        mx.fixture_config("example_9_99")
    with pytest.raises(mx.DomainError):
        mx.run_fixture("example_9_99")


# -- determinism -----------------------------------------------------------------


def test_fixture_reports_are_byte_identical(report_3_16):
    again = mx.run_fixture("example_3_16")
    first = json.dumps(report_3_16.to_json_dict(), indent=2)
    second = json.dumps(again.to_json_dict(), indent=2)
    assert first == second
    # reports must be strict JSON: no NaN / Infinity constants
    json.loads(first, parse_constant=lambda s: pytest.fail(f"non-finite {s}"))


# -- negative controls -------------------------------------------------------------


def test_identity_control_fails_its_expectation(tmp_path):
    config = mx.ExperimentConfig.from_json_dict(identity_config())
    report = mx.run_experiment(config)
    assert not report.passed
    assert report.classification.overall == "none"
    assert report.start_independence.verdict == "failed"
    assert report.uniqueness.verdict == "failed"


def test_negation_control_reports_cycles(tmp_path):
    config = mx.ExperimentConfig.from_json_dict(negation_config())
    report = mx.run_experiment(config)
    assert not report.passed
    assert report.classification.overall == "none"
    statuses = {r.status for r in report.runs}
    assert mx.Status.CYCLE_DETECTED in statuses


def test_cli_exit_codes_for_controls(tmp_path, capsys):
    for builder in (identity_config, negation_config):
        path = tmp_path / f"{builder.__name__}.json"
        path.write_text(json.dumps(builder()))
        assert main(["run", "--config", str(path)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] unique_fixed_point" in out


# -- CLI ----------------------------------------------------------------------------


def test_cli_fixture_writes_reports_and_csv_traces(tmp_path, capsys):
    code = main(["fixture", "example_3_16", "--out", str(tmp_path / "out"),
                 "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    assert "fixture example_3_16: PASS" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is True
    trace_file = tmp_path / "out" / "trace_000.csv"
    rows = list(csv.reader(trace_file.open()))
    assert rows[0] == ["n", "x0", "step_logd"]
    assert len(rows) > 2


def test_cli_fixture_json_traces(tmp_path):
    code = main(["fixture", "example_3_15", "--out", str(tmp_path)])
    assert code == 0
    trace = json.loads((tmp_path / "trace_000.json").read_text())
    assert trace["columns"] == ["n", "x0", "x1", "step_logd"]
    assert trace["status"] == "converged"


def test_cli_remark_fixture(tmp_path, capsys):
    code = main(["fixture", "remark_2_5", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "7.5 < 9.0" in out
    assert "3.0 < 4.0" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True


def test_cli_run_with_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(identity_config()))
    # a run is still a run with overridden knobs; it fails its expectation
    assert main(["run", "--config", str(path), "--seed", "9",
                 "--eps", str(math.exp(1e-6)), "--max-iter", "50"]) == 1


def test_cli_classify_subcommand(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(identity_config()))
    code = main(["classify", "--config", str(path), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "none" in out
    data = json.loads((tmp_path / "condition_report.json").read_text())
    assert data["verdicts"]["overall"] == "none"


def test_cli_config_error_exit_code(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{}")
    assert main(["run", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "mulfix", "fixture", "remark_2_5"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "remark_2_5: PASS" in proc.stdout


def test_write_report_is_atomic_and_repeatable(tmp_path, report_3_16):
    files = write_report(report_3_16, tmp_path, fmt="csv")
    again = write_report(report_3_16, tmp_path, fmt="csv")
    assert files == again
    assert not list(tmp_path.glob("*.tmp"))
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["seed"] == 7


def test_map_failures_are_recorded_per_pair_not_fatal():
    config = mx.ExperimentConfig.from_json_dict({
        "metric": {"kind": "exp_abs", "a": math.e},
        "map": {"kind": "rational", "b": -1.0},  # pole at x = 1 inside the box
        "domain": [[0.0, 3.0]],
        "sample_size": 7,
        "seed": 1,
        "solver": {"eps": EPS, "max_iter": 40, "starts": [[2.0]]},
        "sample_scheme": "grid",
        "expectations": ["converged"],
    })
    report = mx.run_experiment(config)
    assert not report.passed
    errors = [r for r in report.classification.records if r.error]
    assert len(errors) == 6  # every pair touching the pole point
    text = json.dumps(report.to_json_dict())
    json.loads(text, parse_constant=lambda s: pytest.fail(f"non-finite {s}"))


def test_minimal_config_runs(tmp_path):
    config = mx.ExperimentConfig.from_json_dict({
        "metric": {"kind": "exp_abs", "a": 2.0},
        "map": {"kind": "scale", "c": 0.5},
        "domain": [[-1.0, 1.0]],
        "sample_size": 2,
        "seed": 0,
        "solver": {"eps": EPS, "max_iter": 500, "starts": [[0.5]]},
        "sample_scheme": "grid",
    })
    report = mx.run_experiment(config)
    assert report.passed  # no expectations declared
    assert report.runs[0].status is mx.Status.CONVERGED


def test_converged_runs_carry_bound_rows(report_3_15):
    for run in report_3_15.runs:
        assert run.bound_checks
        n, observed, predicted = run.bound_checks[0]
        assert n == 0 and observed <= predicted + 1e-10


def test_expectation_details_are_reported(report_3_16):
    data = report_3_16.to_json_dict()
    kinds = [e["kind"] for e in data["expectations"]]
    assert kinds[0] == "converged"
    assert all(e["passed"] for e in data["expectations"])
    assert data["solver"]["start_independence"]["verdict"] == "passed"
    assert data["solver"]["uniqueness"]["verdict"] == "passed"


def test_huge_coordinates_still_give_strict_json(tmp_path):
    sample = [(-1e308,), (1e308,), (0.0,)]
    metric = mx.MetricSpec.exp_abs(2.0)
    classification = mx.classify(metric, mx.SelfMapSpec.scale(0.5), sample)
    axioms = mx.verify_axioms(metric, sample)
    # the plain dump of both carries Infinity, which is not JSON
    assert "Infinity" in json.dumps(classification.to_json_dict())
    assert "Infinity" in json.dumps(axioms.to_json_dict())
    for data in (classification.to_json_dict(), axioms.to_json_dict()):
        strict = json.loads(dump_json(data),
                            parse_constant=lambda s: pytest.fail(f"non-finite {s}"))
        assert strict == json.loads(json.dumps(data), parse_constant=lambda s: None)
    first = json.loads(dump_json(classification.to_json_dict()))["pairs"][0]
    assert first == {"pair": [0, 1], "condition": "C1", "satisfied": True, "slack": None}


def test_apriori_bound_expectation_honours_its_tolerance():
    # xi = 0.5 understates the true ratio 2/3, so the bound is violated; the
    # largest excess over the bound is 1.244.
    base = mx.fixture_config("example_3_15")

    def judged(tol):
        config = dataclasses.replace(
            base, constants=mx.ZamfirescuConstants(xi=0.5),
            expectations=({"kind": "apriori_bound", "tol": tol},))
        return mx.run_experiment(config).expectations[0]

    strict = judged(1e-10)
    assert not strict.passed
    assert strict.detail == "3 traces checked, 171 violations"
    assert not judged(1.24).passed
    assert judged(1.25).passed
    assert judged(1e3).detail == "3 traces checked, 0 violations"
