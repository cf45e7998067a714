"""Experiment configuration, the full certification pipeline, and reports.

An experiment bundles a metric, a self-map on a box domain, a sampling
plan, solver settings, and a list of declared expectations.  Running one
executes: axiom checks on the sample, condition classification, multi-start
Picard iteration, a uniqueness probe, and (when constants are declared)
a-priori bound verification.  Reports are plain JSON-able dictionaries and
are byte-identical across repeated runs with the same seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Literal, Optional

import numpy as np

from .conditions import (
    CONDITION_IDS,
    ConditionReport,
    PhiSpec,
    ZamfirescuConstants,
    _classify,
    _PairTable,
)
from .errors import ConfigError, DomainError
from .jsonconfig import JsonConfig, decode, dump_json, is_integer, stream_json
from .maps import Box, SelfMapSpec, sample_box
from .metrics import (
    AxiomReport,
    MetricSpec,
    Point,
    ReverseTriangleReport,
    _proved_empty,
    _verify_axioms,
    _verify_reverse_triangle,
    as_point,
)
from .sequences import Status
from .solver import (
    BoundReport,
    FixedPointResult,
    SolverConfig,
    StartIndependenceReport,
    UniquenessReport,
    _verify_bound,
    uniqueness_probe,
    verify_start_independence,
)

# Each expectation kind with the JSON type of every key it reads besides
# "kind": ({required key: type}, {optional key: type}).
_CONDITIONS = tuple[Literal[CONDITION_IDS], ...]
EXPECTATIONS = {
    "converged": ({}, {}),
    "unique_fixed_point": ({}, {}),
    "fixed_point": ({"point": Point}, {}),
    "residual": ({"max_logd": float}, {}),
    "constants": ({}, {"xi": float, "eta": float, "lambda": float}),
    "conditions_hold": ({"conditions": _CONDITIONS}, {}),
    "verdict": ({"theorem": Literal["t2", "t23", "th3"]}, {"via": _CONDITIONS}),
    "phi_holds": ({}, {}),
    "apriori_bound": ({}, {}),
    "map_invariant": ({}, {}),
    "axioms_pass": ({}, {}),
}
# How far a converged run's coordinates may lie from a fixed_point
# expectation's point, and an estimate from a constants expectation's value.
_FIXED_POINT_TOL = 1e-8
_CONSTANTS_TOL = 1e-9


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
    # an expectation that checks nothing would pass by construction
    if kind == "constants" and not spec.keys() & {"xi", "eta", "lambda"}:
        raise ConfigError("constants names none of xi, eta and lambda", field="expectations")
    if kind == "conditions_hold" and not spec["conditions"]:
        raise ConfigError("conditions_hold needs at least one condition", field="expectations")
    if kind == "fixed_point":
        try:
            as_point(spec["point"])
        except DomainError as exc:
            raise ConfigError(f"fixed_point.point: {exc}", field="expectations") from None
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
        for name, least in (("sample_size", 2), ("seed", 0)):
            value = getattr(self, name)
            if not is_integer(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}", field=name)
            object.__setattr__(self, name, int(value))  # a numpy integer too
            if value < least:
                raise ConfigError(f"{name} must be >= {least}, got {value}", field=name)
        if self.sample_scheme not in ("mixed", "grid"):
            raise ConfigError(f"unknown scheme {self.sample_scheme!r}",
                              field="sample_scheme")
        if isinstance(self.map, SelfMapSpec) and self.map.dim not in (None, self.domain.dim):
            raise ConfigError(f"{self.map.kind} map does not keep the domain's "
                              f"dimension {self.domain.dim}", field="map")
        if not self.solver.starts:
            raise ConfigError("at least one start is required", field="solver.starts")
        for s in self.solver.starts:
            if not self.domain.contains(s):
                raise ConfigError(f"start {s} is outside the domain",
                                  field="solver.starts")
        if self.outputs and (self.outputs.keys() != {"dir"}
                             or not isinstance(self.outputs["dir"], str)
                             or not self.outputs["dir"]):
            raise ConfigError(f"only a non-empty string 'dir' is read, got {self.outputs!r}",
                              field="outputs")
        object.__setattr__(
            self, "expectations",
            tuple(normalize_expectation(e) for e in self.expectations),
        )

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        def reject(literal):
            raise ConfigError(f"invalid JSON: {literal} is not a JSON value")

        with open(path, "r", encoding="utf-8") as f:
            try:
                data = json.load(f, parse_constant=reject)
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
                ) from exc
            except ValueError as exc:  # an integer past the interpreter's digit limit
                raise ConfigError(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(data)


@dataclass(frozen=True)
class ExpectationResult:
    spec: dict
    passed: bool
    detail: str

    @property
    def kind(self) -> str:
        return self.spec["kind"]


@dataclass(frozen=True, eq=False)
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
        """The parse of the written ``to_json_tree()``: strict JSON, as in the file."""
        return json.loads(dump_json(self.to_json_tree()))

    def to_json_tree(self) -> dict:
        """The tree ``write_report`` writes as ``report.json``, laid out here
        from the results' fields, with the pair records left as columns."""
        si, u = self.start_independence, self.uniqueness
        return {
            "config": self.config.to_json_dict(),
            "seed": self.config.seed,
            "axioms": _fields(self.axioms, "n_points", "tol", "ok", "violations"),
            "reverse_triangle": _fields(self.reverse_triangle,
                                        "n_points", "tol", "ok", "violations"),
            "map_invariant": self.map_invariant,
            "classification": self.classification.to_json_tree(),
            "solver": {
                "runs": [{**_fields(r, "point", "residual_logd", "iterations"),
                          "status": r.status.value,
                          "restarted_from": r.restarted_from,
                          "continuity_log_ratio": r.continuity_log_ratio}
                         for r in self.runs],
                "start_independence": _fields(si, "verdict", "max_pairwise_logd",
                                              "n_converged", "n_runs"),
                "uniqueness": _fields(u, "verdict", "survivors", "max_pairwise_logd"),
            },
            "bounds": [{**_fields(b, "delta", "tol", "ok"),
                        "checked": len(b.observed),
                        "violations": b.violations}
                       for b in self.bounds],
            "expectations": [_fields(e, "kind", "spec", "passed", "detail")
                             for e in self.expectations],
            "passed": self.passed,
        }


def _fields(result, *names) -> dict:
    """The named fields and properties of a result, each under its name: a
    tuple is written as an array and a non-finite float as null."""
    return {name: getattr(result, name) for name in names}


def _unevaluated(cls_report: ConditionReport) -> str:
    """Detail suffix counting the pairs with an error record ("*")."""
    n = len(cls_report.rows.errors)
    return f", {n} pairs not evaluated" if n else ""


def _eval_expectation(spec: dict, report: "ExperimentReport",
                      table: _PairTable) -> ExpectationResult:
    """One expectation's outcome; ``table`` is the run's table of its sample."""
    kind = spec["kind"]
    runs = report.runs
    converged = [r for r in runs if r.status is Status.CONVERGED]
    every = len(converged) == len(runs)  # every run converged; a config has a start
    cls_report = report.classification

    if kind == "converged":
        ok = every
        detail = f"{len(converged)}/{len(runs)} starts converged"
    elif kind == "unique_fixed_point":
        ok = every and report.start_independence.passed and report.uniqueness.passed
        detail = (f"start_independence={report.start_independence.verdict}, "
                  f"uniqueness={report.uniqueness.verdict}")
    elif kind == "fixed_point":
        target = as_point(spec["point"])
        dims = sorted({len(r.point) for r in converged} - {len(target)})
        errs = [max(abs(a - b) for a, b in zip(r.point, target)) for r in converged]
        ok = not dims and every and max(errs) <= _FIXED_POINT_TOL
        if dims:
            detail = (f"point has dimension {len(target)}, converged runs dimension "
                      f"{', '.join(map(str, dims))}")
        else:
            detail = (f"max coordinate error {max(errs):.3e} (tol {_FIXED_POINT_TOL:g})"
                      if errs else "no converged run")
    elif kind == "residual":
        limit = spec["max_logd"]
        worst = max((r.residual_logd for r in converged), default=math.inf)
        ok = every and worst <= limit
        detail = f"worst residual log-distance {worst:.3e} (limit {limit:g})"
    elif kind == "constants":
        est = cls_report.estimates
        named = {name: value for name, value in (("xi", est.xi_hat), ("eta", est.eta_hat),
                                                 ("lambda", est.lambda_hat)) if name in spec}
        ok = all(math.isfinite(value) and abs(value - spec[name]) <= _CONSTANTS_TOL
                 for name, value in named.items())
        detail = ", ".join(f"{name}={value!r}" for name, value in named.items())
    elif kind == "conditions_hold":
        conds = list(spec["conditions"])
        ok = all(cls_report.condition_ok(c) for c in conds)
        detail = ", ".join(
            f"{c}: no phi declared" if c == "PHI" and report.config.phi is None
            else f"{c}: {np.count_nonzero(~cls_report.rows.checks[c][0])} violating pairs"
            for c in conds)
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
        if ok:  # PHI holds on every distinct pair; check each (x, x) too
            points = np.arange(len(table.points))
            diagonal = table.phi_slack(report.config.phi, points, points)
            n_diag_bad = int(np.count_nonzero(~(diagonal >= -table.tol)))
            ok = n_diag_bad == 0
        detail = (f"{np.count_nonzero(~cls_report.rows.checks['PHI'][0])} violating pairs, "
                  f"{n_diag_bad} violating diagonal points"
                  if report.config.phi is not None else "no phi declared")
        detail += "" if ok else _unevaluated(cls_report)
    elif kind == "apriori_bound":
        n_viol = sum(len(b.violations) for b in report.bounds)
        ok = bool(report.bounds) and n_viol == 0
        detail = (f"{len(report.bounds)} traces checked, {n_viol} violations"
                  if report.bounds else "no declared constants to derive delta from"
                  if report.config.constants is None else "no converged run")
    elif kind == "map_invariant":
        ok = report.map_invariant
        detail = "map keeps the sampled domain" if ok else "map leaves the domain"
    else:  # axioms_pass, the last kind normalize_expectation admits
        ok = report.axioms.ok and report.reverse_triangle.ok
        detail = (f"{len(report.axioms.violations)} axiom violations, "
                  f"{len(report.reverse_triangle.violations)} reverse-triangle violations")
    return ExpectationResult(spec=spec, passed=bool(ok), detail=detail)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the whole pipeline; deterministic for a given config and seed.

    The sample is mapped once and its log-distance matrix built once: the
    axiom checks, map invariance, classification and the PHI diagonal all
    read one ``_PairTable``, which raises at a point outside the metric's
    space as ``classify`` does, and whose ``tol`` the condition checks forgive.
    One decision, ``_proved_empty``, proves both triple scans empty for a
    built-in metric's finite table, or has both run at every index.  With
    declared constants, ``bounds`` holds one ``BoundReport`` per converged
    run, in run order; the runs themselves keep no bound rows.
    """
    sample = tuple(sample_box(config.domain, config.sample_size, config.seed,
                              config.sample_scheme))
    table = _PairTable(config.metric, config.map, sample)
    proved = _proved_empty(config.metric, table.Dxx)
    axioms = _verify_axioms(table.equal, table.Dxx, proved)
    reverse = _verify_reverse_triangle(table.Dxx, proved)
    # a failed image (None) means the map leaves the domain
    invariant = all(image is not None and config.domain.contains(image)
                    for image in table.images)
    classification = _classify(table, config.constants, config.phi, seed=config.seed)
    domain = config.domain if config.enforce_domain else None
    start_independence = verify_start_independence(config.metric, config.map,
                                                   config.solver, domain)
    converged = [r for r in start_independence.results if r.status is Status.CONVERGED]
    candidates = list(dict.fromkeys([*config.solver.starts, *(r.point for r in converged)]))
    uniq = uniqueness_probe(config.metric, config.map, candidates, config.solver.eps)
    # their points were checked as they entered
    bounds = () if config.constants is None else tuple(
        _verify_bound(r, config.constants.delta) for r in converged)

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
    results = tuple(_eval_expectation(e, report, table) for e in config.expectations)
    return dataclasses.replace(report, expectations=results)


# -- output files ----------------------------------------------------------


@contextlib.contextmanager
def _replacing(path):
    """A new binary file that replaces ``path`` once the block ends without
    error, and is removed otherwise.

    It is created next to ``path`` under a random name, with mode 0o666
    less the process umask, the mode a plain ``open(path, "w")`` gives.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0),
                 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, tree) -> None:
    """Write ``dump_json(tree)``, UTF-8 encoded, to a temp file next to path,
    block by block without building the whole text, then rename it to path."""
    with _replacing(path) as f:
        stream_json(tree, f)


def write_report(report: ExperimentReport, out_dir, fmt: str = "json") -> list[Path]:
    """Write report.json plus one trace file per solver run, from its own tuples."""
    if fmt not in ("json", "csv"):
        raise ConfigError(f"unknown output format {fmt!r}", field="format")
    out_dir = Path(out_dir)
    written = []
    report_path = out_dir / "report.json"
    write_json(report_path, report.to_json_tree())
    written.append(report_path)
    for i, run in enumerate(report.runs):
        if fmt == "csv":
            path = out_dir / f"trace_{i:03d}.csv"
            with _replacing(path) as f:
                f.write(run.trace.to_csv_text().encode())
        else:
            path = out_dir / f"trace_{i:03d}.json"
            write_json(path, run.trace.to_json_dict())
        written.append(path)
    return written
