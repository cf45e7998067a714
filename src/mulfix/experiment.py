"""Experiment configuration, the full certification pipeline, and reports.

An experiment bundles a metric, a self-map on a box domain, a sampling
plan, solver settings, and a list of declared expectations.  Running one
executes: axiom checks on the sample, condition classification, multi-start
Picard iteration, a uniqueness probe, and (when constants are declared)
a-priori bound verification.  Reports are plain JSON-able dictionaries and
are byte-identical across repeated runs with the same seed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Literal, Optional

from .conditions import (
    CONDITION_IDS,
    ConditionReport,
    PhiSpec,
    ZamfirescuConstants,
    check_phi,
    classify,
)
from .errors import ConfigError, MulfixError
from .jsonconfig import JsonConfig, decode
from .maps import Box, SelfMapSpec, sample_box
from .metrics import (
    AxiomReport,
    MetricSpec,
    Point,
    ReverseTriangleReport,
    as_point,
    verify_axioms,
    verify_reverse_triangle,
)
from .sequences import Status
from .solver import (
    BoundReport,
    FixedPointResult,
    SolverConfig,
    StartIndependenceReport,
    UniquenessReport,
    uniqueness_probe,
    verify_bound,
    verify_start_independence,
)

# Each expectation kind with the JSON type of every key it reads besides
# "kind": ({required key: type}, {optional key: type}).
_CONDITIONS = tuple[Literal[CONDITION_IDS], ...]
EXPECTATIONS = {
    "converged": ({}, {}),
    "unique_fixed_point": ({}, {}),
    "fixed_point": ({"point": Point}, {"tol": float}),
    "residual": ({"max_logd": float}, {}),
    "constants": ({}, {"xi": float, "eta": float, "lambda": float, "tol": float}),
    "conditions_hold": ({"conditions": _CONDITIONS}, {}),
    "verdict": ({"theorem": Literal["t2", "t23", "th3"]}, {"via": _CONDITIONS}),
    "phi_holds": ({}, {}),
    "apriori_bound": ({}, {"tol": float}),
    "map_invariant": ({}, {}),
    "axioms_pass": ({}, {}),
}


def normalize_expectation(spec) -> dict:
    """Accept either a bare kind string or a full spec dict; check every key."""
    if isinstance(spec, str):
        spec = {"kind": spec}
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in EXPECTATIONS:
        raise ConfigError(f"unknown or missing kind in {spec!r}", field="expectations")
    required, optional = EXPECTATIONS[kind]
    missing = required.keys() - spec.keys()
    if missing:
        raise ConfigError(f"{kind} needs {', '.join(missing)}", field="expectations")
    types = {"kind": str, **required, **optional}
    for key, value in spec.items():
        if key not in types:
            raise ConfigError(f"{kind} takes no {key!r}", field="expectations")
        decode(types[key], value, "expectations", f"{kind}.{key}")
    return dict(spec)


@dataclass(frozen=True)
class ExperimentConfig(JsonConfig):
    """Everything needed to reproduce one experiment run."""

    metric: MetricSpec
    map: SelfMapSpec
    domain: Box
    sample_size: int
    seed: int
    solver: SolverConfig
    sample_scheme: str = "mixed"
    enforce_domain: bool = False
    expectations: tuple = ()
    phi: Optional[PhiSpec] = None
    constants: Optional[ZamfirescuConstants] = None
    outputs: Optional[dict] = None

    def __post_init__(self):
        if self.sample_size < 2:
            raise ConfigError("sample_size must be >= 2", field="sample_size")
        if self.sample_scheme not in ("mixed", "grid"):
            raise ConfigError(f"unknown scheme {self.sample_scheme!r}",
                              field="sample_scheme")
        if not self.solver.starts:
            raise ConfigError("at least one start is required", field="solver.starts")
        for s in self.solver.starts:
            if not self.domain.contains(s):
                raise ConfigError(f"start {s} is outside the domain",
                                  field="solver.starts")
        if self.outputs and (self.outputs.keys() != {"dir"}
                             or not isinstance(self.outputs["dir"], str)):
            raise ConfigError(f"only a string 'dir' is read, got {self.outputs!r}",
                              field="outputs")
        object.__setattr__(
            self, "expectations",
            tuple(normalize_expectation(e) for e in self.expectations),
        )

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as f:
            try:
                data = json.load(f)
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
                ) from exc
        return cls.from_json_dict(data)


@dataclass(frozen=True)
class ExpectationResult:
    spec: dict
    passed: bool
    detail: str

    @property
    def kind(self) -> str:
        return self.spec["kind"]

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "spec": dict(self.spec),
                "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class ExperimentReport:
    """All pipeline outputs for one experiment run."""

    config: ExperimentConfig
    sample: tuple
    axioms: AxiomReport
    reverse_triangle: ReverseTriangleReport
    map_invariant: bool
    classification: ConditionReport
    start_independence: StartIndependenceReport
    uniqueness: UniquenessReport
    bounds: tuple[BoundReport, ...]
    expectations: tuple[ExpectationResult, ...]

    @property
    def runs(self) -> tuple[FixedPointResult, ...]:
        return self.start_independence.results

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.expectations)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "seed": self.config.seed,
            "axioms": self.axioms.to_json_dict(),
            "reverse_triangle": self.reverse_triangle.to_json_dict(),
            "map_invariant": self.map_invariant,
            "classification": self.classification.to_json_dict(),
            "solver": {
                "runs": [r.to_json_dict() for r in self.runs],
                "start_independence": self.start_independence.to_json_dict(),
                "uniqueness": self.uniqueness.to_json_dict(),
            },
            "bounds": [b.to_json_dict() for b in self.bounds],
            "expectations": [e.to_json_dict() for e in self.expectations],
            "passed": self.passed,
        }


def _map_invariant(T, sample, box: Box) -> bool:
    for p in sample:
        try:
            if not box.contains(T(p)):
                return False
        except MulfixError:
            return False
    return True


def _unevaluated(cls_report: ConditionReport) -> str:
    """Detail suffix counting the pairs with an error record ("*")."""
    n = sum(r.condition == "*" for r in cls_report.records)
    return f", {n} pairs not evaluated" if n else ""


def _eval_expectation(spec: dict, report: "ExperimentReport") -> ExpectationResult:
    kind = spec["kind"]
    runs = report.runs
    converged = [r for r in runs if r.status is Status.CONVERGED]
    cls_report = report.classification

    if kind == "converged":
        ok = len(converged) == len(runs) and runs
        detail = f"{len(converged)}/{len(runs)} starts converged"
    elif kind == "unique_fixed_point":
        ok = (len(converged) == len(runs) and runs
              and report.start_independence.passed and report.uniqueness.passed)
        detail = (f"start_independence={report.start_independence.verdict}, "
                  f"uniqueness={report.uniqueness.verdict}")
    elif kind == "fixed_point":
        target = as_point(spec["point"])
        tol = spec.get("tol", 1e-8)
        errs = [max(abs(a - b) for a, b in zip(r.point, target)) for r in converged]
        ok = bool(errs) and len(converged) == len(runs) and max(errs) <= tol
        detail = (f"max coordinate error {max(errs):.3e} (tol {tol:g})"
                  if errs else "no converged run")
    elif kind == "residual":
        limit = spec["max_logd"]
        worst = max((r.residual_logd for r in converged), default=math.inf)
        ok = bool(converged) and len(converged) == len(runs) and worst <= limit
        detail = f"worst residual log-distance {worst:.3e} (limit {limit:g})"
    elif kind == "constants":
        tol = spec.get("tol", 1e-9)
        est = cls_report.estimates
        checked = []
        ok = True
        for name, value in (("xi", est.xi_hat), ("eta", est.eta_hat),
                            ("lambda", est.lambda_hat)):
            if name in spec:
                good = math.isfinite(value) and abs(value - spec[name]) <= tol
                ok = ok and good
                checked.append(f"{name}={value!r}")
        detail = ", ".join(checked) or "nothing to check"
    elif kind == "conditions_hold":
        conds = list(spec["conditions"])
        bad = {c: len(cls_report.violations(c)) for c in conds}
        ok = all(cls_report.condition_ok(c) for c in conds)
        detail = ", ".join(f"{c}: {n} violating pairs" for c, n in bad.items())
        detail += "" if ok else _unevaluated(cls_report)
    elif kind == "verdict":
        verdict = cls_report.verdicts[spec["theorem"]]
        ok = verdict["applicable"]
        if ok and "via" in spec:
            ok = sorted(verdict.get("via", [])) == sorted(spec["via"])
        detail = cls_report.overall
    elif kind == "phi_holds":
        ok = cls_report.condition_ok("PHI")
        n_diag_bad = 0
        if ok and report.config.phi is not None:
            for p in report.sample:
                good, _ = check_phi(report.config.metric, report.config.map,
                                    report.config.phi, p, p)
                if not good:
                    n_diag_bad += 1
            ok = n_diag_bad == 0
        detail = (f"{len(cls_report.violations('PHI'))} violating pairs, "
                  f"{n_diag_bad} violating diagonal points")
        detail += "" if ok else _unevaluated(cls_report)
    elif kind == "apriori_bound":
        n_viol = sum(observed > bound + spec.get("tol", b.tol)
                     for b in report.bounds for _, observed, bound in b.rows)
        ok = bool(report.bounds) and n_viol == 0
        detail = (f"{len(report.bounds)} traces checked, {n_viol} violations"
                  if report.bounds else "no declared constants to derive delta from")
    elif kind == "map_invariant":
        ok = report.map_invariant
        detail = "map keeps the sampled domain" if ok else "map leaves the domain"
    else:  # axioms_pass, the last kind normalize_expectation admits
        ok = report.axioms.ok and report.reverse_triangle.ok
        detail = (f"{len(report.axioms.violations)} axiom violations, "
                  f"{len(report.reverse_triangle.violations)} reverse-triangle violations")
    return ExpectationResult(spec=spec, passed=bool(ok), detail=detail)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the whole pipeline; deterministic for a given config and seed."""
    sample = tuple(
        sample_box(config.domain, config.sample_size, config.seed,
                   config.sample_scheme)
    )
    axioms = verify_axioms(config.metric, sample)
    reverse = verify_reverse_triangle(config.metric, sample)
    invariant = _map_invariant(config.map, sample, config.domain)
    classification = classify(
        config.metric, config.map, sample,
        constants=config.constants, phi=config.phi, seed=config.seed,
    )
    domain = config.domain if config.enforce_domain else None
    start_independence = verify_start_independence(
        config.metric, config.map, config.solver, domain
    )
    runs = start_independence.results
    finals = [r.point for r in runs if r.status is Status.CONVERGED]
    candidates = list(dict.fromkeys(list(config.solver.starts) + finals))
    uniq = uniqueness_probe(config.metric, config.map, candidates,
                            config.solver.eps)
    bounds: tuple[BoundReport, ...] = ()
    if config.constants is not None:
        delta = config.constants.delta
        updated = []
        bound_list = []
        for r in runs:
            if r.status is Status.CONVERGED:
                bound = verify_bound(r, delta)
                bound_list.append(bound)
                r = dataclasses.replace(r, bound_checks=bound.rows)
            updated.append(r)
        bounds = tuple(bound_list)
        start_independence = dataclasses.replace(
            start_independence, results=tuple(updated)
        )

    report = ExperimentReport(
        config=config,
        sample=sample,
        axioms=axioms,
        reverse_triangle=reverse,
        map_invariant=invariant,
        classification=classification,
        start_independence=start_independence,
        uniqueness=uniq,
        bounds=bounds,
        expectations=(),
    )
    results = tuple(_eval_expectation(e, report) for e in config.expectations)
    return dataclasses.replace(report, expectations=results)


# -- output files ----------------------------------------------------------


def write_atomic(path, text: str) -> None:
    """Write text to path via a temp file in the same directory + rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(data) -> str:
    """Strict, indented JSON text: a non-finite float is written as null."""
    try:
        return json.dumps(data, indent=2, allow_nan=False) + "\n"
    except ValueError:  # a NaN or an infinity somewhere: write each as null
        return dump_json(json.loads(json.dumps(data), parse_constant=lambda _: None))


def write_report(report, out_dir, fmt: str = "json") -> list[Path]:
    """Write report.json plus one trace file per solver run."""
    if fmt not in ("json", "csv"):
        raise ConfigError(f"unknown output format {fmt!r}", field="format")
    out_dir = Path(out_dir)
    written = []
    report_path = out_dir / "report.json"
    write_atomic(report_path, dump_json(report.to_json_dict()))
    written.append(report_path)
    for i, run in enumerate(getattr(report, "runs", ())):
        if fmt == "csv":
            path = out_dir / f"trace_{i:03d}.csv"
            write_atomic(path, run.trace.to_csv_text())
        else:
            path = out_dir / f"trace_{i:03d}.json"
            write_atomic(path, dump_json(run.trace.to_json_dict()))
        written.append(path)
    return written
