"""Picard iteration with multiplicative-Cauchy stopping and diagnostics.

The solver iterates x_{n+1} = T(x_n) and declares convergence only when
the latest step is below log(eps) *and* the trailing window of iterates is
pairwise within log(eps); a single small step does not certify a Cauchy
tail on its own.  Geometric a-priori bounds, start independence, periodic
orbits, and uniqueness probes live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DomainError,
    DomainEscapeError,
    MonotoneResidualError,
)
from .jsonconfig import JsonConfig
from .maps import Box
from .metrics import Point, as_point
from .sequences import (IterationTrace, Status, _check_eps, _max_pairwise_logd,
                        detect_limit_point)


@dataclass(frozen=True)
class SolverConfig(JsonConfig):
    """Knobs for a Picard run.

    eps is the multiplicative stopping tolerance (> 1); log(eps) is the
    log-domain tolerance every internal comparison uses.  A run converges
    only when its last ``window`` iterates (>= 2) are pairwise within
    log(eps).  While a step is above log(eps), the new iterate is compared
    with the iterates 2 to ``cycle_lookback`` (>= 0) steps before it, and a
    log distance below 1e-14 ends the run as a detected cycle; a value below
    2 turns cycle detection off.
    The divergence threshold guards the exponential form against overflow:
    a single step of log distance above it ends the run as diverged.
    """

    eps: float = math.exp(1e-9)
    max_iter: int = 1000
    starts: tuple[Point, ...] = ()
    check_monotone_residual: bool = False
    window: int = 10
    divergence_logd: float = 700.0
    limit_point_restart: bool = True
    cycle_lookback: int = 25

    def __post_init__(self):
        _check_eps(self.eps)
        if self.max_iter < 1:
            raise DomainError("max_iter must be >= 1")
        if self.window < 2:
            raise DomainError("window must be >= 2")
        if self.divergence_logd <= 0:
            raise DomainError("divergence threshold must be positive")
        if self.cycle_lookback < 0:
            raise DomainError("cycle_lookback must be >= 0")
        object.__setattr__(
            self, "starts", tuple(as_point(s) for s in self.starts)
        )

    @property
    def log_eps(self) -> float:
        return math.log(self.eps)


@dataclass(frozen=True)
class FixedPointResult:
    """Outcome of one Picard run (possibly after a limit-point restart)."""

    point: Point
    residual_logd: float
    iterations: int
    trace: IterationTrace
    status: Status
    bound_checks: tuple = ()
    restarted_from: Point | None = None
    continuity_log_ratio: float | None = None

    def to_json_dict(self) -> dict:
        residual = self.residual_logd if math.isfinite(self.residual_logd) else None
        return {
            "point": list(self.point),
            "residual_logd": residual,
            "iterations": self.iterations,
            "status": self.status.value,
            "restarted_from": list(self.restarted_from) if self.restarted_from else None,
            "continuity_log_ratio": self.continuity_log_ratio,
            "bound_checks": [list(row) for row in self.bound_checks],
        }


def _apply(T, x: Point) -> Point:
    """One guarded map application; numeric blow-ups surface as DomainError."""
    try:
        return as_point(T(x))
    except DomainError:
        raise
    except (ArithmeticError, ValueError) as exc:
        raise DomainError(str(exc)) from exc


def _residual(metric, T, p: Point) -> float:
    """log d(p, Tp); inf when T or the metric fails at p."""
    try:
        return metric.log_distance(p, _apply(T, p))
    except DomainError:
        return math.inf


def _iterate(metric, T, x0: Point, config: SolverConfig, domain: Optional[Box]):
    log_eps = config.log_eps
    x = x0
    points: list[Point] = [x]
    steps: list[float] = []
    status = Status.MAX_ITER

    for n in range(config.max_iter):
        try:
            y = _apply(T, x)
        except DomainError:
            status = Status.DIVERGED
            break
        if domain is not None and not domain.contains(y):
            raise DomainEscapeError(
                f"iterate {n + 1} left the declared domain: {y}",
                point=y, iteration=n + 1,
            )
        # _apply made y a finite tuple; check its dimension and the metric's
        # space here (and the start's, at the first step) before the kernel
        try:
            metric._check_pair(x, y)
            step = metric._log_distance(x, y)
        except DomainError as exc:
            raise DomainEscapeError(
                f"iterate {n + 1} left the metric's domain: {y} ({exc})",
                point=y, iteration=n + 1,
            ) from exc

        if config.check_monotone_residual and steps and steps[-1] > log_eps \
                and step >= steps[-1]:
            raise MonotoneResidualError(
                f"step log-distance grew from {steps[-1]} to {step} at iterate {n + 1}"
            )

        points.append(y)
        steps.append(step)

        if step > config.divergence_logd:
            status = Status.DIVERGED
            break

        if step > log_eps:
            # periodic, non-fixed orbit: y matches an earlier point exactly
            earlier = points[-1 - config.cycle_lookback:-2]
            if (metric._log_distance_matrix([y], earlier) < 1e-14).any():
                status = Status.CYCLE_DETECTED
                break

        if step < log_eps \
                and _max_pairwise_logd(metric, points[-config.window:]) < log_eps:
            residual = _residual(metric, T, y)
            if residual <= log_eps:
                status = Status.CONVERGED
                break
        x = y

    if status is not Status.CONVERGED:
        residual = _residual(metric, T, points[-1])
    trace = IterationTrace(metric=metric, points=tuple(points),
                           step_logd=tuple(steps), status=status)
    return trace, residual


def _observed_continuity(metric, T, trace: IterationTrace, z: Point, eps: float):
    """Largest log-Lipschitz ratio of T observed near z along the trace."""
    log_eps = math.log(eps)
    try:
        tz = _apply(T, z)
    except DomainError:
        return None
    ratios = []
    to_z = metric._log_distance_matrix(trace.points, [z])[:, 0].tolist()
    for p, d in zip(trace.points, to_z):
        if 0 < d < log_eps:
            try:
                ratios.append(metric.log_distance(_apply(T, p), tz) / d)
            except DomainError:
                continue
    return max(ratios, default=None)


def picard(metric, T, x0, config: SolverConfig,
           domain: Optional[Box] = None) -> FixedPointResult:
    """Iterate x_{n+1} = T(x_n) until multiplicative-Cauchy convergence.

    Stops converged when the latest step and the pairwise spread of the
    trailing window are both below log(eps) and re-applying T at the final
    point moves it by at most log(eps).  A stalled run (max_iter or a
    detected cycle) is given one restart from a detected limit point of its
    orbit, which is recorded on the result.  When ``domain`` is declared
    (explicitly or on the map), an iterate leaving it raises
    :class:`DomainEscapeError` carrying the offending point.
    """
    start = as_point(x0)
    if domain is None:
        domain = getattr(T, "domain", None)

    trace, residual = _iterate(metric, T, start, config, domain)
    iterations = len(trace.step_logd)
    restarted_from: Point | None = None
    continuity: float | None = None

    if trace.status in (Status.MAX_ITER, Status.CYCLE_DETECTED) \
            and config.limit_point_restart and len(trace.points) >= 2:
        z = detect_limit_point(trace, config.eps)
        if z is not None and z != start:
            restarted_from = z
            continuity = _observed_continuity(metric, T, trace, z, config.eps)
            trace, residual = _iterate(metric, T, z, config, domain)
            iterations += len(trace.step_logd)

    return FixedPointResult(
        point=trace.last,
        residual_logd=residual,
        iterations=iterations,
        trace=trace,
        status=trace.status,
        restarted_from=restarted_from,
        continuity_log_ratio=continuity,
    )


def apriori_bound(d1: float, delta: float, n: int, m: int | None = None) -> float:
    """Predicted log distance between iterates n and m (m = None: the tail).

    Equals d1 * (delta**n - delta**m) / (1 - delta) in the log domain,
    where d1 is the log distance of the first step; the m -> infinity
    limit d1 * delta**n / (1 - delta) bounds the distance to the limit.
    """
    if d1 < 0 or not math.isfinite(d1):
        raise DomainError(f"d1 must be a finite log distance >= 0, got {d1!r}")
    if not (0 <= delta < 1):
        raise DomainError(f"delta must be in [0, 1), got {delta!r}")
    if n < 0:
        raise DomainError("n must be >= 0")
    if m is not None and m <= n:
        raise DomainError("m must exceed n")
    tail = 0.0 if m is None else delta ** m
    return d1 * (delta ** n - tail) / (1 - delta)


@dataclass(frozen=True)
class BoundReport:
    """Observed versus predicted tail distances along a converged trace."""

    delta: float
    tol: float
    rows: tuple[tuple[int, float, float], ...]  # (n, observed, bound)
    violations: tuple[tuple[int, float, float], ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta,
            "tol": self.tol,
            "ok": self.ok,
            "checked": len(self.rows),
            "violations": [list(v) for v in self.violations],
        }


def verify_bound(result: FixedPointResult, delta: float,
                 tol: float = 1e-10) -> BoundReport:
    """Check log d(x_n, z) <= d1 * delta**n / (1 - delta) + tol along a run."""
    if result.status is not Status.CONVERGED:
        raise DomainError("bound verification needs a converged result")
    if not (0 <= delta < 1):
        raise DomainError(f"delta must be in [0, 1), got {delta!r}")
    trace = result.trace
    d1 = trace.step_logd[0] if trace.step_logd else 0.0
    to_z = trace.metric.log_distance_matrix(trace.points, [result.point])[:, 0]
    rows = [(n, observed, apriori_bound(d1, delta, n))
            for n, observed in enumerate(to_z.tolist())]
    violations = [row for row in rows if row[1] > row[2] + tol]
    return BoundReport(delta=delta, tol=tol, rows=tuple(rows),
                       violations=tuple(violations))


@dataclass(frozen=True)
class StartIndependenceReport:
    """Agreement of Picard limits across starting points."""

    verdict: str  # "passed" | "failed" | "inconclusive"
    max_pairwise_logd: float | None
    n_converged: int
    n_runs: int
    results: tuple[FixedPointResult, ...] = field(repr=False, default=())

    @property
    def passed(self) -> bool:
        return self.verdict == "passed"

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "max_pairwise_logd": self.max_pairwise_logd,
            "n_converged": self.n_converged,
            "n_runs": self.n_runs,
        }


def verify_start_independence(metric, T, config: SolverConfig,
                              domain: Optional[Box] = None) -> StartIndependenceReport:
    """Run Picard from every configured start and compare the limits.

    Passes when every pair of limits is within 2 log(eps) of each other;
    any non-converged run makes the report inconclusive rather than failed.
    A single start passes vacuously.
    """
    if not config.starts:
        raise DomainError("start independence needs at least one start")
    results = tuple(picard(metric, T, s, config, domain) for s in config.starts)
    converged = [r for r in results if r.status is Status.CONVERGED]
    if len(converged) < len(results):
        verdict, worst = "inconclusive", None
    else:
        worst = _max_pairwise_logd(metric, metric._checked([r.point for r in converged]))
        verdict = "passed" if worst <= 2 * config.log_eps else "failed"
    return StartIndependenceReport(
        verdict=verdict, max_pairwise_logd=worst,
        n_converged=len(converged), n_runs=len(results), results=results,
    )


def find_periodic_point(metric, T, x0, max_period: int, eps: float,
                        max_iter: int = 1000):
    """Search the orbit of x0 for a point w with T^p(w) back within eps.

    Returns ``(w, p)`` with the smallest period p <= max_period for the
    earliest such orbit point, or None if no recurrence shows up within
    max_iter orbit steps.  The orbit ends early where T fails or its value
    leaves the metric's space.  Period 1 is a fixed point at tolerance.
    """
    if max_period < 1:
        raise DomainError("max_period must be >= 1")
    log_eps = _check_eps(eps)
    x = as_point(x0)
    orbit = [x]
    for _ in range(max_iter):
        try:
            x = _apply(T, x)
            metric.check_domain(x)
        except DomainError:
            break
        orbit.append(x)
    for i, w in enumerate(orbit[:-1]):
        ahead = metric.log_distance_matrix(orbit[i + 1:i + 1 + max_period], [w])
        hits = np.flatnonzero(ahead[:, 0] < log_eps)
        if hits.size:
            return w, int(hits[0]) + 1
    return None


@dataclass(frozen=True)
class UniquenessReport:
    """Pairwise agreement of candidate fixed points after filtering."""

    verdict: str  # "passed" | "failed" | "inconclusive"
    survivors: tuple[Point, ...]
    max_pairwise_logd: float | None

    @property
    def passed(self) -> bool:
        return self.verdict == "passed"

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "survivors": [list(s) for s in self.survivors],
            "max_pairwise_logd": self.max_pairwise_logd,
        }


def uniqueness_probe(metric, T, candidates: Sequence, eps: float) -> UniquenessReport:
    """Filter candidates by residual, then require the survivors to agree.

    A candidate survives when log d(c, Tc) <= log(eps); the probe passes
    when all survivors are pairwise within 2 log(eps), fails when two
    survivors disagree, and is inconclusive when nothing survives.
    """
    if not candidates:
        raise DomainError("uniqueness probe needs at least one candidate")
    log_eps = _check_eps(eps)
    survivors = [c for c in map(as_point, candidates)
                 if _residual(metric, T, c) <= log_eps]
    if not survivors:
        return UniquenessReport(verdict="inconclusive", survivors=(),
                                max_pairwise_logd=None)
    worst = _max_pairwise_logd(metric, metric._checked(survivors))
    verdict = "passed" if worst <= 2 * log_eps else "failed"
    return UniquenessReport(verdict=verdict, survivors=tuple(survivors),
                            max_pairwise_logd=worst)
