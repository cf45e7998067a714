import contextlib
import csv
import dataclasses
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import mulfix as mx
from mulfix import cli, experiment
from mulfix.cli import main
from mulfix.errors import ConfigError
from mulfix.experiment import write_report
from mulfix.jsonconfig import dump_json
from mulfix.conditions import PSI_KINDS
from mulfix.metrics import DEFAULT_LOG_TOL, _proved_empty, _reference_margin
from scalar_reference import check_phi, reference_records, reference_tol
from test_jsonconfig import experiments

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


def test_reports_of_two_runs_compare_by_identity(report_3_15):
    # a field-by-field comparison of their arrays would be ambiguous
    a, b = report_3_15, mx.run_experiment(mx.fixture_config("example_3_15"))
    for x, y in ((a, b), (a.classification, b.classification),
                 (a.classification.rows, b.classification.rows)):
        assert x == x and x != y and len({x, y}) == 2


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


def test_a_config_with_no_start_exits_2_naming_solver_starts(tmp_path, capsys):
    data = identity_config()
    data["solver"]["starts"] = []
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: solver.starts: at least one start is required\n"


@pytest.mark.parametrize("key, value", [
    ("max_iters", 5), ("cycle_lookback", 3), ("window", 10), ("divergence_logd", 700.0),
])
def test_solver_config_rejects_unknown_keys(tmp_path, capsys, key, value):
    # the look-back and the window are the solver's constants; no step length diverges
    data = identity_config()
    data["solver"][key] = value
    with pytest.raises(ConfigError) as err:
        mx.ExperimentConfig.from_json_dict(data)
    assert err.value.field == "solver" and key in str(err.value)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: solver: {key}: unknown field\n"


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
    ("map", {"kind": "affine", "matrix": [[0.5, 0], [0, 0.5]], "offset": [1.0]}),
    ("map", {"kind": "affine", "matrix": [[0.5, 0], [0, 0.5]], "offset": [1, 2, 3]}),
    ("map", {"kind": "affine", "matrix": [[]], "offset": [1.0]}),
    ("map", {"kind": "affine", "matrix": [[0.5, 0], [0, 0.5]], "offset": [0.1, 0.1]}),
    ("map", {"kind": "constant", "value": [0.5, 0.5]}),
    ("map", {"kind": "affine", "matrix": [[0.5, 0]], "offset": [0.1]}),
    # a map takes no box: domain and enforce_domain declare the one Picard keeps to
    ("map", {"kind": "scale", "c": 0.5, "domain": [[1.0, 2.0]]}),
    ("expectations", [{"kind": "conditions_hold"}]),
    ("expectations", [{"kind": "fixed_point"}]),
    ("expectations", [{"kind": "fixed_point", "point": []}]),
    ("expectations", [{"kind": "fixed_point", "point": [0.5], "tol": "x"}]),
    ("expectations", [{"kind": "verdict", "theorem": "t9"}]),
    ("expectations", [{"kind": "converged", "tol": 5}]),
    ("expectations", [{"kind": "conditions_hold", "conditions": ["C9"]}]),
    ("expectations", [{"kind": "conditions_hold", "conditions": []}]),
    ("expectations", [{"kind": "constants"}]),
    ("expectations", [{"kind": "constants", "tol": 1e-9}]),
    ("expectations", [{"kind": "apriori_bound", "tol": 1e-10}]),
    ("outputs", {"pairs": True}),
    ("outputs", {"dir": 5}),
    ("outputs", {"dir": ""}),
    ("domain", [[0.1]]),
    ("domain", "x"),
    ("solver", {**SOLVER, "eps": 10**400}),
    ("metric", {"kind": "exp_abs", "a": 10**400}),
    ("sample_scheme", "sobol"),
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


@pytest.mark.parametrize("field, spec, make", [
    ("c", '"scale", "c": 1e999', mx.SelfMapSpec.scale),
    ("b", '"rational", "b": -1e999', mx.SelfMapSpec.rational),
    ("p", '"power", "p": 1e999', mx.SelfMapSpec.power),
    ("matrix", '"affine", "matrix": [[1e999]], "offset": [0.0]',
     lambda v: mx.SelfMapSpec.affine([[v]], [0.0])),
], ids=["scale", "rational", "power", "affine"])
def test_a_map_parameter_beyond_float_range_exits_2_naming_it(tmp_path, capsys, field,
                                                              spec, make):
    # json.load reads 1e999 as inf, and json.dumps would write Infinity
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**identity_config(), "map": "MAP"})
                    .replace('"MAP"', "{\"kind\": " + spec + "}"))
    assert main(["run", "--config", str(path)]) == 2
    inf = "-inf" if field == "b" else "inf"
    assert capsys.readouterr() == ("", f"error: map: parameter {field!r} must be finite, "
                                       f"got {inf}\n")
    with pytest.raises(mx.DomainError, match=f"^parameter {field!r} must be finite, got nan$"):
        make(math.nan)


@pytest.mark.parametrize("name", ["alpha", "beta"])
def test_a_non_finite_custom_table_exponent_exits_2_naming_it(tmp_path, capsys, name):
    # json.load reads 1e999 as inf, which phi(1, 1) once met as inf * 0
    phi = {"kind": "custom_table", "alpha": 1.0, "beta": 1.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**identity_config(), "phi": {**phi, name: "BIG"}})
                    .replace('"BIG"', "1e999"))
    assert main(["run", "--config", str(path)]) == 2
    message = f"custom_table exponent {name} must be finite and positive"
    assert capsys.readouterr() == ("", f"error: phi: {message}\n")
    with pytest.raises(mx.DomainError, match=f"^{message}$"):
        mx.PhiSpec(**{**phi, name: math.nan})


@pytest.mark.parametrize("command", ["run", "classify"])
@pytest.mark.parametrize("scheme", ["mixed", "grid"])
def test_a_box_whose_width_overflows_exits_2_naming_the_domain(tmp_path, capsys, scheme,
                                                               command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**identity_config(), "domain": [[-1e308, 1e308]],
                                "sample_scheme": scheme}))
    assert main([command, "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: domain: bad interval (-1e+308, 1e+308)\n")


def _judged_on_example_3_15(*expectations):
    data = {**mx.fixture_config("example_3_15").to_json_dict(),
            "expectations": list(expectations)}
    return mx.run_experiment(mx.ExperimentConfig.from_json_dict(data)).expectations


# example_3_15's estimated constants
@pytest.mark.parametrize("name, value", [("xi", 2 / 3), ("eta", 2.0), ("lambda", 0.4)])
def test_a_constants_expectation_naming_one_constant_checks_that_one(name, value):
    right, wrong = _judged_on_example_3_15({"kind": "constants", name: value},
                                           {"kind": "constants", name: value + 0.1})
    assert right.passed and not wrong.passed
    assert right.detail == wrong.detail
    assert right.detail.startswith(f"{name}=") and "," not in right.detail


def test_a_constants_expectation_allows_an_error_of_1e_9(report_3_15):
    xi = report_3_15.classification.estimates.xi_hat
    offsets = (0.99e-9, -0.99e-9, 1.01e-9, -1.01e-9)
    results = _judged_on_example_3_15(*({"kind": "constants", "xi": xi + d} for d in offsets))
    assert [r.passed for r in results] == [True, True, False, False]


@pytest.mark.parametrize("error, passed", [(0.99e-8, True), (-0.99e-8, True),
                                           (1.01e-8, False), (-1.01e-8, False)])
def test_a_fixed_point_expectation_allows_a_coordinate_error_of_1e_8(error, passed):
    # scale(0.5) stays at its fixed point 0 from the start 0
    data = {**identity_config(), "map": {"kind": "scale", "c": 0.5},
            "solver": {**SOLVER, "starts": [[0.0]]},
            "expectations": [{"kind": "fixed_point", "point": [error]}]}
    report = mx.run_experiment(mx.ExperimentConfig.from_json_dict(data))
    assert report.runs[0].point == (0.0,)
    (result,) = report.expectations
    assert result.passed is passed
    assert result.detail == f"max coordinate error {abs(error):.3e} (tol 1e-08)"


@pytest.mark.parametrize("spec", [{"kind": "fixed_point", "point": [0.0], "tol": 1e-8},
                                  {"kind": "constants", "xi": 0.5, "tol": 1e-9}],
                         ids=["fixed_point", "constants"])
def test_an_expectation_takes_no_tolerance(tmp_path, capsys, spec):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**identity_config(), "expectations": [spec]}))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: expectations: {spec['kind']} takes no 'tol'\n"


def test_a_verdict_expectation_with_empty_via_is_accepted_and_checked():
    # via [] is a claim about the conditions, unlike conditions_hold's []
    empty, c1 = _judged_on_example_3_15({"kind": "verdict", "theorem": "t2", "via": []},
                                        {"kind": "verdict", "theorem": "t2", "via": ["C1"]})
    assert not empty.passed and c1.passed
    assert empty.detail == "t2 applicable via C1"


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


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_config_files_reject_non_standard_number_literals(tmp_path, capsys, literal):
    data = {**identity_config(), "expectations": [{"kind": "residual", "max_logd": 0}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data).replace('"max_logd": 0', f'"max_logd": {literal}'))
    with pytest.raises(ConfigError) as err:
        mx.ExperimentConfig.from_json_file(path)
    assert f"{literal} is not a JSON value" in str(err.value)
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: invalid JSON: ")


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
    with trace_file.open() as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["n", "x0", "step_logd"]
    assert len(rows) > 2 and rows[-1][-1] == ""  # no step after the last point


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


def test_no_override_keeps_the_config_itself():
    config = mx.fixture_config("example_3_15")
    given = {"command": "fixture", "name": "example_3_15", "format": "csv"}
    assert cli._apply_overrides(config, given) is config  # not validated again
    changed = cli._apply_overrides(config, {**given, "seed": 9})
    assert changed.seed == 9 and changed.solver == config.solver


def test_cli_classify_subcommand(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(identity_config()))
    code = main(["classify", "--config", str(path), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "none" in out
    text = (tmp_path / "condition_report.json").read_text()
    data = json.loads(text)
    assert data["verdicts"]["overall"] == "none"
    # one line per pair record, and the value of the report's to_json_dict
    config = mx.ExperimentConfig.from_json_dict(identity_config())
    sample = mx.sample_box(config.domain, config.sample_size, config.seed,
                           config.sample_scheme)
    expected = mx.classify(config.metric, config.map, sample,
                           seed=config.seed).to_json_dict()
    lines = [line for line in text.splitlines() if '"pair": [' in line]
    assert len(lines) == len(expected["pairs"]) == 55 * 6  # no PHI without a phi
    assert [json.loads(line.rstrip().rstrip(",")) for line in lines] == expected["pairs"]
    assert data == expected


@pytest.mark.parametrize("flag, value", [("--eps", "5"), ("--max-iter", "3"),
                                         ("--format", "csv")])
def test_cli_classify_rejects_the_flags_it_never_reads(tmp_path, capsys, flag, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(identity_config()))
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--config", str(path), flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("flags, named", [
    (["--seed", "3"], "--seed"),
    (["--seed", "3", "--eps", "5", "--max-iter", "1"], "--seed, --eps, --max-iter"),
    (["--format", "csv"], "--format"),
    (["--pairs"], "--pairs"),
])
def test_cli_remark_fixture_rejects_overrides(tmp_path, capsys, flags, named):
    with pytest.raises(SystemExit) as exc:
        main(["fixture", "remark_2_5", "--out", str(tmp_path), *flags])
    assert exc.value.code == 2
    assert f"fixture remark_2_5 takes no {named}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{}")
    assert main(["run", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_a_negative_fixture_seed_exits_2_naming_the_seed(tmp_path, capsys):
    assert main(["fixture", "example_3_15", "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: seed: ")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["run", "classify"])
def test_a_negative_config_seed_exits_2_naming_the_seed(tmp_path, capsys, command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**identity_config(), "seed": -1}))
    with pytest.raises(ConfigError) as err:
        mx.ExperimentConfig.from_json_file(path)
    assert err.value.field == "seed"
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: seed: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", ["sample_size", "seed"])
@pytest.mark.parametrize("value", [10.0, True])
def test_an_integer_experiment_field_rejects_a_float_or_a_bool(field, value):
    # a float reached numpy's sampler; seed=True ran and wrote "seed": true
    config = mx.fixture_config("example_3_15")
    with pytest.raises(ConfigError, match=f"{field} must be an integer, got {value!r}") as err:
        dataclasses.replace(config, **{field: value})
    assert err.value.field == field


@pytest.mark.parametrize("field", ["sample_size", "seed"])
def test_a_numpy_integer_field_is_echoed_as_a_json_integer(field):
    config = dataclasses.replace(mx.fixture_config("example_3_15"), **{field: np.int64(12)})
    assert type(getattr(config, field)) is int
    tree = json.loads(dump_json(config.to_json_dict()))
    assert mx.ExperimentConfig.from_json_dict(tree) == config


def cli_args(tmp_path, command) -> list:
    if command == "fixture":
        return ["fixture", "example_3_15"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(identity_config()))
    return [command, "--config", str(path)]


@pytest.mark.parametrize("command", ["run", "classify"])
@pytest.mark.parametrize("given", ["missing", "directory"])
def test_an_unreadable_config_exits_2_naming_its_path(tmp_path, capsys, command, given):
    path = tmp_path / "cfg.json"
    if given == "directory":
        path.mkdir()
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err


@pytest.mark.parametrize("command", ["fixture", "run", "classify"])
def test_an_output_dir_under_a_regular_file_exits_2_naming_it(tmp_path, capsys, command):
    args = cli_args(tmp_path, command)
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    assert main([*args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err


@pytest.mark.parametrize("command", ["fixture", "run", "classify"])
def test_an_empty_out_flag_is_a_usage_error(tmp_path, capsys, monkeypatch, command):
    args = cli_args(tmp_path, command)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*args, "--out", ""])
    assert exc.value.code == 2
    assert "--out needs a directory, got an empty path" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        [] if command == "fixture" else ["cfg.json"])


@pytest.mark.parametrize("command", ["fixture", "run", "classify"])
def test_pairs_csv_is_written_only_on_request(tmp_path, capsys, command):
    args = cli_args(tmp_path, command)
    default, pairs = tmp_path / "default", tmp_path / "pairs"
    main([*args, "--out", str(default)])
    main([*args, "--out", str(pairs), "--pairs"])
    names = sorted(p.name for p in default.iterdir())
    assert "pairs.csv" not in names
    assert sorted(p.name for p in pairs.iterdir()) == sorted([*names, "pairs.csv"])
    for name in names:  # the other outputs keep their bytes
        assert (pairs / name).read_bytes() == (default / name).read_bytes()
    # the classification's records with their slacks, as csv.writer gives them
    report = json.loads((default / names[0]).read_text())
    rows = report.get("classification", report)["pairs"]
    with open(pairs / "pairs.csv", newline="", encoding="utf-8") as f:
        read = list(csv.reader(f))
    assert read[0] == ["i", "j", "condition", "satisfied", "slack", "error"]
    assert [[int(i), int(j), c, {"true": True, "false": False}[ok]]
            for i, j, c, ok, _, _ in read[1:]] == [
        [*r["pair"], r["condition"], r["satisfied"]] for r in rows]


def strict_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"),
                      parse_constant=lambda s: pytest.fail(f"non-finite {s}"))


# one record per sampled pair and condition: 4,950 pairs x 7 and 780 x 6
@pytest.mark.parametrize("name, n, count", [("example_3_17", 100, 34_650),
                                            ("example_3_15", 40, 4_680)],
                         ids=["fixture --pairs", "dump_json config"])
def test_a_written_summary_counts_what_its_records_list(tmp_path, capsys, name, n, count):
    out = tmp_path / "out"
    if name == "example_3_17":
        assert main(["fixture", name, "--out", str(out), "--pairs"]) == 0
        cls = strict_json(out / "report.json")["classification"]
    else:  # run and classify read a config written by dump_json
        config = tmp_path / "c.json"
        config.write_text(dump_json(mx.fixture_config(name).to_json_dict()), encoding="utf-8")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
        assert (tmp_path / "run" / "report.json").is_file()
        assert main(["classify", "--config", str(config), "--out", str(out)]) == 0
        cls = strict_json(out / "condition_report.json")
    records = cls["pairs"]
    assert len(records) == count
    for cid, entry in cls["conditions"].items():
        assert entry["violations"] == sum(
            r["condition"] == cid and r["satisfied"] is False for r in records), cid
    errors = sum(r["condition"] == "*" for r in records)
    assert list(cls["unevaluated"]) == ["map", "image", "phi"]
    assert sum(e["count"] for e in cls["unevaluated"].values()) == errors
    assert cls["evaluated"] + errors == len({tuple(r["pair"]) for r in records})
    assert cls["evaluated"] + errors + cls["equal"] == n * (n - 1) // 2
    if name == "example_3_17":  # pairs.csv: one row per record, in the same order
        with open(out / "pairs.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["i", "j", "condition", "satisfied", "slack", "error"]
        assert len(rows) == 1 + len(records)
        flag = {"true": True, "false": False, "": None}
        assert [([int(i), int(j)], cid, flag[ok]) for i, j, cid, ok, *_ in rows[1:]] == [
            (r["pair"], r["condition"], r["satisfied"]) for r in records]


@pytest.mark.parametrize("command", ["fixture", "run", "classify"])
def test_pairs_without_an_output_dir_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                       command):
    args = cli_args(tmp_path, command)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*args, "--pairs"])
    assert exc.value.code == 2
    assert "--pairs needs an output directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        [] if command == "fixture" else ["cfg.json"])


def test_cli_builds_its_parser_once(tmp_path):
    assert mx.cli.build_parser() is mx.cli.build_parser()
    assert main(["fixture", "example_3_15", "--seed", "8", "--out", str(tmp_path)]) == 0
    assert main(["fixture", "remark_2_5"]) == 0  # the last call's flags are gone
    assert json.loads((tmp_path / "report.json").read_text())["seed"] == 8


# Samples whose pair records hold errors, by what fails: metric, map, the
# 1-d domain, the start, and the number of error records.
ERROR_SAMPLES = {
    "pole": (mx.MetricSpec.exp_abs(math.e), mx.SelfMapSpec.rational(-1.0), (0.0, 3.0),
             2.0, 6),
    "outside": (mx.MetricSpec.star_product(), mx.SelfMapSpec.affine([[-1.0]], [2.0]),
                (0.5, 3.0), 1.0, 15),
    "overflow": (mx.MetricSpec.exp_abs(2.0), mx.SelfMapSpec.scale(1e308), (0.0, 2.0),
                 0.0, 6),
}


@pytest.mark.parametrize("case, proved",
                         [(5.0, True), (1e305, False), *((k, True) for k in ERROR_SAMPLES)])
def test_run_experiment_shares_one_decision_with_the_public_checks(case, proved):
    # case is a half width, or a sample of ERROR_SAMPLES; over a box 1e305
    # wide exp_abs(1e300) overflows to infinite entries: the proof fails,
    # and the full scans run and list violations
    config = dataclasses.replace(mx.fixture_config("example_3_15"), constants=None,
                                 expectations=())
    if isinstance(case, str):
        metric, T, bounds, start, n_errors = ERROR_SAMPLES[case]
        config = dataclasses.replace(
            config, metric=metric, map=T, domain=mx.Box((bounds,)), sample_size=7,
            sample_scheme="grid", solver=dataclasses.replace(config.solver,
                                                             starts=((start,),)))
    else:
        n_errors = 0
        config = dataclasses.replace(
            config, metric=mx.MetricSpec.exp_abs(2.0 if proved else 1e300),
            map=mx.SelfMapSpec.scale(0.5), domain=mx.Box(((-case, case),) * 2),
            sample_size=20)
    decided = []  # what each call of the decision returned

    def decide(metric, D):
        assert metric is config.metric and len(D) == config.sample_size
        decided.append(_proved_empty(metric, D))
        return decided[-1]

    with mock.patch.object(experiment, "_proved_empty", decide):
        report = mx.run_experiment(config)
    assert decided == [proved]
    axioms = mx.verify_axioms(config.metric, report.sample)
    reverse = mx.verify_reverse_triangle(config.metric, report.sample)
    assert (json.dumps(dataclasses.asdict(report.axioms))
            == json.dumps(dataclasses.asdict(axioms)))
    assert (json.dumps(dataclasses.asdict(report.reverse_triangle))
            == json.dumps(dataclasses.asdict(reverse)))
    assert bool(reverse.violations) is not proved
    # the run's table takes the checked sample as it is; the public
    # classify checks every point again
    public = mx.classify(config.metric, config.map, report.sample, seed=config.seed)
    rows = report.classification.rows
    assert len(rows.errors) == n_errors
    # an error's position counts the evaluated pairs before it
    assert all(pos <= len(rows.i) for pos, *_ in rows.errors)
    assert (dump_json(report.classification.to_json_tree())
            == dump_json(public.to_json_tree()))


@pytest.mark.parametrize("half_width", [1e4, 1e6])
def test_example_3_15_meets_every_expectation_on_a_wider_box(half_width):
    # scale(2/3) meets C1 at xi = 2/3 exactly on every pair: the rounding of
    # log distances in the thousands must fail neither C1 nor the axioms
    config = mx.fixture_config("example_3_15")
    config = dataclasses.replace(config, domain=mx.Box(((-half_width, half_width),) * 2))
    report = mx.run_experiment(config)
    assert [(e.kind, e.passed) for e in report.expectations] == [
        (e["kind"], True) for e in config.expectations]
    assert len(report.expectations) == 10
    assert report.classification.overall == "t2 applicable via C1"


def _benchmark_workloads():
    """``perfbench/workloads.py``, the benchmark's experiment lists, loaded
    under its own name."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclasses look it up in sys.modules
    return module


def test_the_benchmarked_runs_prove_their_triple_scans_empty(monkeypatch):
    # both triple scans raise unless the proof holds, so every run below must
    # skip them on the proof, as the benchmark's speed needs: the paper
    # fixtures and every variant of the five stalled_solver slots
    def proved_only(scan):
        def scan_unless_proved(*args):
            assert args[-1], f"{scan.__name__} scanned"
            return scan(*args)
        return scan_unless_proved

    for name in ("_verify_axioms", "_verify_reverse_triangle"):
        monkeypatch.setattr(experiment, name, proved_only(getattr(experiment, name)))
    configs = [mx.fixture_config(name)
               for name in ("example_3_15", "example_3_16", "example_3_17")]
    slots = [e.config for e in _benchmark_workloads().pool("stalled_solver", "full")]
    assert len(slots) == 40
    for config in configs + slots:
        report = mx.run_experiment(config)
        assert report.axioms.ok and report.reverse_triangle.ok


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "mulfix", "fixture", "remark_2_5"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "remark_2_5: PASS" in proc.stdout


@pytest.mark.parametrize("command, code", [
    (["fixture", "example_3_16"], 0), (["run", "--config", "identity.json"], 1),
], ids=["passing fixture", "failing run"])
def test_a_closed_stdout_keeps_the_outputs_and_the_exit_code(tmp_path, command, code):
    config = tmp_path / "identity.json"
    config.write_text(json.dumps(identity_config()))
    command = [str(config) if arg == config.name else arg for arg in command]
    # the read end is closed before the child starts, so its first print
    # meets a closed pipe whatever the timing
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mulfix", *command, "--out", str(tmp_path / "out")],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (code, "")
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert report["passed"] is (code == 0)
    assert (tmp_path / "out" / "trace_000.json").exists()


def test_write_report_rejects_an_unknown_format_before_writing(tmp_path, report_3_16):
    with pytest.raises(ConfigError, match="unknown output format 'xml'") as err:
        write_report(report_3_16, tmp_path, fmt="xml")
    assert err.value.field == "format"
    assert list(tmp_path.iterdir()) == []


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
    errors = [r for r in report.classification.records if "error" in r]
    assert len(errors) == 6  # every pair touching the pole point
    text = json.dumps(report.to_json_dict())
    json.loads(text, parse_constant=lambda s: pytest.fail(f"non-finite {s}"))


@pytest.mark.parametrize("expectation", [
    "converged", {"kind": "fixed_point", "point": [0.0]},
    {"kind": "residual", "max_logd": 1.0}])
def test_an_expectation_on_the_runs_fails_when_one_run_did_not_converge(expectation):
    # negation converges from its fixed point 0 and cycles from 1
    config = mx.ExperimentConfig.from_json_dict(
        {**negation_config(), "solver": {"eps": EPS, "max_iter": 200,
                                         "starts": [[0.0], [1.0]]},
         "expectations": [expectation]})
    report = mx.run_experiment(config)
    assert [r.status for r in report.runs] == [mx.Status.CONVERGED,
                                               mx.Status.CYCLE_DETECTED]
    assert not report.expectations[0].passed


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
    assert len(report_3_15.bounds) == len(report_3_15.runs) == 3
    for bound in report_3_15.bounds:
        assert bound.rows
        n, observed, predicted = bound.rows[0]
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
    # the classification's dict is the parse of its written text, strict JSON
    data = classification.to_json_dict()
    json.dumps(data, allow_nan=False)
    assert data["pairs"] == reference_records(classification.rows)
    strict = json.loads(dump_json(data),
                        parse_constant=lambda s: pytest.fail(f"non-finite {s}"))
    assert strict == json.loads(json.dumps(data), parse_constant=lambda s: None)
    first = json.loads(dump_json(classification.to_json_dict()))["pairs"][0]
    assert first == {"pair": [0, 1], "condition": "C1", "satisfied": True}
    # its slack, infinite in the column, is an empty field in pairs.csv
    assert np.isinf(classification.rows.checks["C1"][1][0])
    assert classification.rows.to_csv_text().splitlines()[1] == "0,1,C1,true,,"


def test_report_dicts_give_null_for_non_finite_values(report_3_16):
    # the report trees keep an infeasible hat and a non-finite residual, and
    # the report dicts, read back from the written text, hold null for them
    sample = [(-1.0,), (0.0,), (1.0,)]
    classification = mx.classify(mx.MetricSpec.exp_abs(2.0), mx.SelfMapSpec.negation(),
                                 sample)
    assert classification.estimates.lambda_hat == math.inf
    run = dataclasses.replace(report_3_16.runs[0], residual_logd=math.nan)
    report = dataclasses.replace(report_3_16, start_independence=dataclasses.replace(
        report_3_16.start_independence, results=(run, *report_3_16.runs[1:])))
    estimates = classification.to_json_dict()["constants"]["estimates"]
    runs = report.to_json_dict()["solver"]["runs"]
    assert estimates["lambda"] is None and runs[0]["residual_logd"] is None
    for data in (estimates, runs):
        json.dumps(data, allow_nan=False)


def test_apriori_bound_expectation_counts_the_bound_violations():
    # xi = 0.5 understates the true ratio 2/3, so the bound is violated; the
    # expectation counts what the bound reports list
    config = dataclasses.replace(
        mx.fixture_config("example_3_15"), constants=mx.ZamfirescuConstants(xi=0.5),
        expectations=({"kind": "apriori_bound"},))
    report = mx.run_experiment(config)
    (result,) = report.expectations
    assert not result.passed
    assert result.detail == "3 traces checked, 171 violations"
    assert sum(len(b.violations) for b in report.bounds) == 171


def test_apriori_bound_expectation_without_a_converged_run_says_so():
    # xi is declared, but the one run stops at max_iter
    fixture = mx.fixture_config("example_3_15")
    config = dataclasses.replace(
        fixture, domain=mx.Box(((-1e4, 1e4), (-1e4, 1e4))),
        solver=dataclasses.replace(fixture.solver, starts=((9e3, -7e3),), max_iter=5),
        expectations=({"kind": "apriori_bound"},))
    report = mx.run_experiment(config)
    assert [run.status for run in report.runs] == [mx.Status.MAX_ITER]
    (result,) = report.expectations
    assert not result.passed and result.detail == "no converged run"


@pytest.mark.parametrize("point, dim", [([0.0], "1"), ([0.0, 0.0, 5.0], "3")])
def test_fixed_point_of_another_dimension_fails(point, dim):
    # zip would compare only the shared coordinates, which lie within tol
    config = dataclasses.replace(
        mx.fixture_config("example_3_15"),
        expectations=({"kind": "fixed_point", "point": point},))
    (result,) = mx.run_experiment(config).expectations
    assert not result.passed
    assert result.detail == f"point has dimension {dim}, converged runs dimension 2"


def test_phi_expectations_without_phi_say_so():
    config = dataclasses.replace(
        _phi_config(None, mx.SelfMapSpec.scale(0.5)),
        expectations=("phi_holds", {"kind": "conditions_hold",
                                    "conditions": ["C1", "PHI"]}))
    phi_holds, conditions_hold = mx.run_experiment(config).expectations
    assert not phi_holds.passed and not conditions_hold.passed
    assert phi_holds.detail == "no phi declared"
    assert conditions_hold.detail == "C1: 0 violating pairs, PHI: no phi declared"


def test_an_overflowing_map_gives_exit_2_not_a_traceback(tmp_path, capsys):
    # 1e200 ** 2 raises OverflowError: the map leaves the domain at those points
    data = {"metric": {"kind": "exp_abs", "a": 2.0}, "map": {"kind": "power", "p": 2.0},
            "domain": [[1e100, 1e200]], "sample_size": 6, "seed": 1,
            "solver": {"eps": 1.000000001, "max_iter": 50, "starts": [[1e100]]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path)]) == 2
    # point 0's square is finite, but no other point is left to pair it with
    assert capsys.readouterr().err == (
        "warning: map evaluation failed at 5 points, excluded; the first: map at point 1: "
        "OverflowError: Numerical result out of range\n"
        "error: no usable distinct pair in the sample: map at point 1: OverflowError: "
        "Numerical result out of range\n")


def failing_map_config(tmp_path) -> Path:
    """A config whose map, reciprocal_sqrt, fails at each of its 200 negative
    sample points."""
    data = {"metric": {"kind": "exp_abs", "a": 2.0}, "map": {"kind": "reciprocal_sqrt"},
            "domain": [[-2.0, -1.0]], "sample_size": 200, "seed": 1,
            "solver": {"eps": EPS, "max_iter": 50, "starts": [[-1.5]]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return path


def test_a_map_that_fails_at_every_point_warns_once(tmp_path):
    path = failing_map_config(tmp_path)
    proc = subprocess.run([sys.executable, "-m", "mulfix", "run", "--config", str(path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    warning, error = proc.stderr.splitlines()
    assert warning.startswith("warning: map evaluation failed at 200 points, excluded; "
                              "the first: map at point 0: reciprocal_sqrt needs a positive "
                              "coordinate, got ")
    assert error.startswith("error: no usable distinct pair in the sample: map at point 0: ")


def test_each_run_in_one_process_warns_once(tmp_path, capsys):
    # the benchmark calls main many times in one process
    path = failing_map_config(tmp_path)
    for _ in range(2):
        assert main(["run", "--config", str(path)]) == 2
        warning, error = capsys.readouterr().err.splitlines()
        assert warning.startswith("warning: map evaluation failed at 200 points")
        assert error.startswith("error: no usable distinct pair in the sample: ")


@pytest.mark.parametrize("command", ["run", "classify"])
def test_a_sample_point_outside_the_space_exits_2_and_names_it(tmp_path, command):
    # exp_reciprocal needs nonzero coordinates, and the grid of [-1, 1] holds 0.0
    data = {"metric": {"kind": "exp_reciprocal"}, "map": {"kind": "scale", "c": 0.5},
            "domain": [[-1.0, 1.0]], "sample_scheme": "grid", "sample_size": 5, "seed": 1,
            "solver": {"eps": EPS, "max_iter": 50, "starts": [[0.5]]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    proc = subprocess.run([sys.executable, "-m", "mulfix", command, "--config", str(path)],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: point 2: exp_reciprocal needs nonzero coordinates, " \
                          "got (0.0,)\n"


def test_a_sample_the_map_sends_out_of_the_space_names_the_first_point(tmp_path, capsys):
    # negation sends every point of [1, 2] to a negative one, which star_product rejects
    data = {"metric": {"kind": "star_product"}, "map": {"kind": "negation"},
            "domain": [[1.0, 2.0]], "sample_size": 5, "seed": 1,
            "solver": {"eps": EPS, "max_iter": 50, "starts": [[1.5]]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: no usable distinct pair in the sample: image of point 0: "
        "star_product needs positive coordinates, got (-1.0,)\n")


def test_a_map_failure_outside_mulfix_errors_means_not_invariant():
    # 1.5 ** 2000 overflows; the other points map inside [-2, 2]
    config = _phi_config(mx.PhiSpec("example317"), mx.SelfMapSpec.power(2000.0),
                         expectations=("map_invariant",))
    with mock.patch.object(experiment, "sample_box",
                           lambda *args: [(0.0,), (0.5,), (1.0,), (1.5,)]):
        report = mx.run_experiment(config)
    assert not report.map_invariant
    assert report.expectations[0].detail == "map leaves the domain"
    assert len(report.classification.rows.errors) == 3


# -- the phi_holds diagonal against the scalar check_phi loop ----------------------


def phi_holds_by_loop(report):
    """The phi_holds outcome and detail of the loop of scalar check_phi calls
    that the diagonal of the run's PHI slack matrix replaced."""
    cls = report.classification
    ok = cls.condition_ok("PHI")
    n_diag_bad = 0
    if ok and report.config.phi is not None:
        tol = reference_tol(report.config.metric, report.config.map, list(report.sample),
                            DEFAULT_LOG_TOL)
        for p in report.sample:
            good, _ = check_phi(report.config.metric, report.config.map,
                                report.config.phi, p, p, tol)
            if not good:
                n_diag_bad += 1
        ok = n_diag_bad == 0
    n_bad = sum(r["condition"] == "PHI" and not r["satisfied"] for r in cls.records)
    detail = (f"{n_bad} violating pairs, "
              f"{n_diag_bad} violating diagonal points")
    n = len(cls.rows.errors)
    detail += "" if ok or not n else f", {n} pairs not evaluated"
    return ok, detail


def _phi_config(phi, T, expectations=("phi_holds",)):
    return mx.ExperimentConfig(
        metric=mx.MetricSpec.exp_abs(math.e),  # log a is 1.0: L(x, y) = |x - y|
        map=T, domain=mx.Box(((-2.0, 2.0),)), sample_size=2, seed=0,
        solver=mx.SolverConfig(eps=EPS, max_iter=30, starts=((0.0,),)), phi=phi,
        expectations=expectations)


def phi_holds(phi, T, coords):
    """The phi_holds result of a run over the given sample, and the loop's."""
    with mock.patch.object(experiment, "sample_box",
                           lambda *args: [(c,) for c in coords]):
        report = mx.run_experiment(_phi_config(phi, T))
    (result,) = report.expectations
    return (result.passed, result.detail), phi_holds_by_loop(report)


TOL = DEFAULT_LOG_TOL
PHI_KINDS = st.one_of(
    st.sampled_from([0.0, 0.5, 0.9]).map(lambda q: mx.PhiSpec("power_product", q=q)),
    st.sampled_from(PSI_KINDS).map(lambda psi: mx.PhiSpec("psi_sqrt", psi=psi)),
    st.just(mx.PhiSpec("example317")),
    st.tuples(st.sampled_from([0.25, 1.0, 1.5]), st.sampled_from([0.25, 1.0, 1.5])).map(
        lambda ab: mx.PhiSpec("custom_table", alpha=ab[0], beta=ab[1])))
# Maps whose step L(x, Tx) is exactly TOL at some coordinate below: |x| for
# the constant map at +-TOL, x / 2 for the halving at 2 TOL, TOL for the shift
PHI_MAPS = st.sampled_from([
    mx.SelfMapSpec.constant((0.0,)), mx.SelfMapSpec.scale(0.5), mx.SelfMapSpec.identity(),
    mx.SelfMapSpec.affine(((1.0,),), (TOL,)), mx.SelfMapSpec.negation()])
PHI_COORDS = st.sampled_from([0.0, TOL, -TOL, 2 * TOL, math.nextafter(TOL, 1.0),
                              math.nextafter(TOL, 0.0), 1e-13, 0.5, -0.25])


@settings(max_examples=150, deadline=None)
@given(PHI_KINDS, PHI_MAPS, st.lists(PHI_COORDS, min_size=2, max_size=6))
def test_phi_holds_reads_what_the_check_phi_loop_read(phi, T, coords):
    assume(len(set(coords)) >= 2)
    ran, loop = phi_holds(phi, T, coords)
    assert ran == loop


# What a table whose largest entry is EDGE forgives is EDGE itself: TOL
# plus the kernels' rounding margin there
EDGE = TOL + _reference_margin(1, TOL, TOL)


@pytest.mark.parametrize("top, passed, diagonal_bad", [
    (TOL, True, 0),                           # slack -TOL at (TOL, TOL): holds
    (EDGE, True, 0),                          # -TOL less the margin: holds
    (math.nextafter(EDGE, 1.0), False, 1),    # one ulp more: the diagonal fails
], ids=["tol", "edge", "past"])
@pytest.mark.parametrize("first", [False, True], ids=["last", "first"])
def test_phi_diagonal_at_the_tolerance(top, passed, diagonal_bad, first):
    # phi = x * y: PHI at (x, x) reads 0 <= L(x, 0) - 2 L(x, 0) under T = 0,
    # on a sample whose largest log distance is top
    assert TOL + _reference_margin(1, TOL, EDGE) == EDGE > TOL
    phi = mx.PhiSpec("custom_table", alpha=1.0, beta=1.0)
    sample = [top, 0.0, 1e-13] if first else [0.0, 1e-13, top]
    ran, loop = phi_holds(phi, mx.SelfMapSpec.constant((0.0,)), sample)
    assert ran == loop == (passed, f"0 violating pairs, {diagonal_bad} violating "
                                   "diagonal points")


# -- the exit contract on drawn configs ---------------------------------------------

SMALL_EXPERIMENTS = experiments().map(lambda c: dataclasses.replace(
    c, sample_size=min(c.sample_size, 12),
    solver=dataclasses.replace(c.solver, max_iter=min(c.solver.max_iter, 300))))


@settings(max_examples=100, deadline=None)
@given(config=SMALL_EXPERIMENTS)
@example(config=mx.ExperimentConfig(  # a sample point outside the space: exit 2
    metric=mx.MetricSpec.star_product(), map=mx.SelfMapSpec.identity(),
    domain=mx.Box(((-1.0, 1.0),)), sample_size=2, seed=0,
    solver=mx.SolverConfig(starts=((0.5,),))))
def test_a_drawn_config_run_keeps_the_exit_contract(config):
    # whatever the config, the run exits 0, 1 or 2 and raises nothing, every
    # file it writes is strict JSON, exit 2 ends in one error line, and no
    # cause warns twice
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        path.write_text(json.dumps(config.to_json_dict()), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = main(["run", "--config", str(path), "--out", str(out)])
        assert status in (0, 1, 2)
        for written in out.glob("**/*.json"):
            strict_json(written)
    lines = err.getvalue().splitlines()
    errors = [line for line in lines if line.startswith("error:")]
    assert errors == (lines[-1:] if status == 2 else [])
    causes = [re.sub(r"\d+", "N", line.split(";")[0]) for line in lines
              if line.startswith("warning:")]
    assert len(causes) == len(set(causes))
