"""Orbit traces and runtime checks for multiplicative convergence.

An :class:`IterationTrace` records the points visited by an iteration
together with the log distance of each consecutive step.  The checks in
this module are pure functions over immutable traces, so traces can be
produced on one thread and analyzed on another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .metrics import MetricSpec, Point, _reference_margin, as_point

# rows per block of an orbit scan; a block of 2,000 columns is about 1 MB
_ROW_BLOCK = 64


class Status(str, Enum):
    """Lifecycle of an iteration; the strings are a stable wire format."""

    RUNNING = "running"
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    DIVERGED = "diverged"
    CYCLE_DETECTED = "cycle_detected"


def _check_eps(eps: float) -> float:
    if not (math.isfinite(eps) and eps > 1):
        raise DomainError(f"eps must be a finite real > 1, got {eps!r}")
    return math.log(eps)


@dataclass(frozen=True)
class IterationTrace:
    """An orbit: visited points plus consecutive-step log distances, as tuples,
    which ``to_json_dict`` holds as they are and JSON writes as arrays."""

    metric: object
    points: tuple[Point, ...]
    step_logd: tuple[float, ...]
    status: Status = Status.RUNNING

    def __post_init__(self):
        if len(self.step_logd) != max(len(self.points) - 1, 0):
            raise DomainError("step_logd must have one entry per consecutive pair")

    @classmethod
    def from_points(cls, metric, points: Sequence, status: Status = Status.RUNNING):
        pts = tuple(as_point(p) for p in points)
        steps = tuple(
            metric.log_distance(pts[i], pts[i + 1]) for i in range(len(pts) - 1)
        )
        return cls(metric=metric, points=pts, step_logd=steps, status=Status(status))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def last(self) -> Point:
        return self.points[-1]

    # -- export ------------------------------------------------------------
    # CSV columns are fixed: n, x0..x{d-1}, step_logd (blank on the last row).

    def csv_columns(self) -> list[str]:
        dim = len(self.points[0]) if self.points else 0
        return ["n"] + [f"x{i}" for i in range(dim)] + ["step_logd"]

    def to_csv_text(self) -> str:
        # csv.writer's text: no field holds a comma, a quote or a line break
        steps = [*map(repr, self.step_logd), ""]
        rows = [self.csv_columns()] + [[str(n), *map(repr, p), steps[n]]
                                       for n, p in enumerate(self.points)]
        return "".join(",".join(row) + "\r\n" for row in rows)

    def to_json_dict(self) -> dict:
        to_json = getattr(self.metric, "to_json_dict", None)
        return {
            "metric": to_json() if to_json else {"kind": getattr(self.metric, "name", "custom")},
            "status": self.status.value,
            "columns": self.csv_columns(),
            "n": tuple(range(len(self.points))),
            "points": self.points,
            "step_logd": self.step_logd,
        }


def is_converged_to(trace: IterationTrace, x, eps: float) -> bool:
    """True when the last point of the trace lies inside the eps-ball at x.

    A finite trace cannot show that a whole tail stays in the ball; the
    observable part of that claim is its last recorded point.
    """
    log_eps = _check_eps(eps)
    if not trace.points:
        raise DomainError("trace is empty")
    return trace.metric.log_distance(trace.points[-1], as_point(x)) < log_eps


def cauchy_indicator(trace: IterationTrace, window: int) -> float:
    """Max pairwise log distance over the final ``window`` points.

    A trace is certified Cauchy at tolerance eps when this value is below
    log(eps).  Passing ``window = len(trace)`` gives the full O(N^2)
    pairwise check.
    """
    if window < 1:
        raise DomainError("window must be >= 1")
    if window > len(trace.points):
        raise DomainError(f"window {window} exceeds trace length {len(trace.points)}")
    points = trace.points[-window:]
    if len(points) < 2:
        return 0.0
    return _max_pairwise_logd(trace.metric, trace.metric._checked(points))


def _max_pairwise_logd(metric, points: Sequence[Point]) -> float:
    """Largest log distance over the pairs i < j of checked point tuples;
    0.0 below two.

    A NaN entry never wins and the result is never below 0.0.
    """
    if len(points) < 2:
        return 0.0
    best = 0.0
    for start in range(0, len(points), _ROW_BLOCK):
        D = metric._log_distance_matrix(points[start:start + _ROW_BLOCK], points)
        upper = np.triu(~np.isnan(D), start + 1)  # row r is point start + r
        best = max(best, float(D.max(initial=0.0, where=upper)))
    return best


def detect_limit_point(trace: IterationTrace, eps: float) -> Optional[Point]:
    """Earliest trace point whose eps-ball captures a quarter of the trace.

    "Infinitely many points" cannot be observed on finite data, so a point
    qualifies when at least ceil(len / 4) of the recorded points lie
    strictly inside its open ball of radius eps.  Returns None when no point
    qualifies.

    Under a MetricSpec, the scan reads only the points that may qualify:
    by the reverse triangle inequality, a point p_j inside p_i's ball has
    its distance to the first point within log(eps) of p_i's, up to the
    kernels' rounding margin (see ``metrics._reference_margin``), so one
    sort of those distances rules most points out.  A FunctionMetric need
    not be a metric, and its scan reads every pair.
    """
    log_eps = _check_eps(eps)
    if len(trace.points) < 2:
        raise DomainError("limit point detection needs at least 2 points")
    return _limit_point(trace, trace.metric._checked(trace.points), log_eps)


def _limit_point(trace: IterationTrace, points: Sequence[Point],
                 log_eps: float) -> Optional[Point]:
    """``detect_limit_point`` given the trace's points as checked tuples."""
    need = math.ceil(len(points) / 4)
    rows = _limit_rows(trace.metric, points, log_eps, need)
    for start in range(0, len(rows), _ROW_BLOCK):
        block = rows[start:start + _ROW_BLOCK]
        D = trace.metric._log_distance_matrix([points[i] for i in block], points)
        hits = np.flatnonzero((D < log_eps).sum(axis=1) >= need)
        if hits.size:
            return trace.points[block[int(hits[0])]]
    return None


def _limit_rows(metric, points: Sequence[Point], log_eps: float, need: int) -> Sequence[int]:
    """The indices of the points that may have ``need`` points within
    log_eps, in order: every index for a FunctionMetric or when a distance
    to the first point is not finite.  Otherwise each index i with at least
    ``need`` points p_j whose r_j = L(p_j, p_0) lies within log_eps plus the
    rounding margin of r_i, as every qualifying point has: a sort, so an
    orbit with no limit point costs O(n log n), not O(n**2) distances."""
    rows = range(len(points))
    if not isinstance(metric, MetricSpec):
        return rows
    r = metric._log_distance_pairs(points, [points[0]] * len(points))
    s = np.sort(r)
    if not math.isfinite(s[-1]):  # NaN sorts last
        return rows
    t = log_eps + _reference_margin(len(points[0]), log_eps, float(s[-1]))
    near = np.searchsorted(s, r + t, "right") - np.searchsorted(s, r - t, "left")
    return np.flatnonzero(near >= need).tolist()
