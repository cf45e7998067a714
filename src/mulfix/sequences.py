"""Orbit traces and runtime checks for multiplicative convergence.

An :class:`IterationTrace` records the points visited by an iteration
together with the log distance of each consecutive step.  The checks in
this module are pure functions over immutable traces, so traces can be
produced on one thread and analyzed on another.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .errors import DomainError
from .metrics import Point, as_point


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
    """An orbit: visited points plus consecutive-step log distances."""

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
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.csv_columns())
        for n, p in enumerate(self.points):
            step = repr(self.step_logd[n]) if n < len(self.step_logd) else ""
            writer.writerow([n, *[repr(c) for c in p], step])
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        metric_json = (
            self.metric.to_json_dict()
            if hasattr(self.metric, "to_json_dict")
            else {"kind": getattr(self.metric, "name", "custom")}
        )
        return {
            "metric": metric_json,
            "status": self.status.value,
            "columns": self.csv_columns(),
            "n": list(range(len(self.points))),
            "points": [list(p) for p in self.points],
            "step_logd": list(self.step_logd),
        }


def is_converged_to(trace: IterationTrace, x, eps: float) -> bool:
    """True when some whole tail of the trace lies inside the eps-ball at x.

    Operationally this is a suffix check: there must be an index from which
    every recorded point has log distance to x below log(eps).
    """
    log_eps = _check_eps(eps)
    if not trace.points:
        raise DomainError("trace is empty")
    target = as_point(x)
    suffix = 0
    for p in reversed(trace.points):
        if trace.metric.log_distance(p, target) < log_eps:
            suffix += 1
        else:
            break
    return suffix >= 1


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
    return _max_pairwise_logd(trace.metric, trace.points[-window:])


def _max_pairwise_logd(metric, points: Sequence[Point]) -> float:
    """Largest log distance over the pairs i < j of points; 0.0 below two."""
    pairs = itertools.combinations(points, 2)
    return max(itertools.chain([0.0], (metric.log_distance(a, b) for a, b in pairs)))


def detect_limit_point(
    trace: IterationTrace, eps: float, fraction: float = 0.25
) -> Optional[Point]:
    """Earliest trace point whose eps-ball captures a share of the trace.

    "Infinitely many points" cannot be observed on finite data, so a point
    qualifies when at least ceil(fraction * len) of the recorded points lie
    strictly inside its open ball of radius eps.  Returns None when no point
    qualifies.
    """
    log_eps = _check_eps(eps)
    if len(trace.points) < 2:
        raise DomainError("limit point detection needs at least 2 points")
    if not 0 < fraction <= 1:
        raise DomainError("fraction must be in (0, 1]")
    need = math.ceil(len(trace.points) * fraction)
    for z in trace.points:
        count = 0
        for p in trace.points:
            if trace.metric.log_distance(z, p) < log_eps:
                count += 1
                if count >= need:
                    return z
    return None
