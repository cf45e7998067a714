"""Picard iteration with multiplicative-Cauchy stopping and diagnostics.

The solver iterates x_{n+1} = T(x_n) and declares convergence only when
the latest step is below log(eps) *and* the trailing window of iterates is
pairwise within log(eps); a single small step does not certify a Cauchy
tail on its own.  Geometric a-priori bounds, start independence and
uniqueness probes live here as well.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DomainError,
    DomainEscapeError,
    MonotoneResidualError,
)
from .jsonconfig import JsonConfig, is_integer
from .maps import Box, SelfMapSpec, _checked_image
from .metrics import _SPACES, MetricSpec, Point, _array, _reference_margin, as_point
from .sequences import (_ROW_BLOCK, IterationTrace, Status, _check_eps, _limit_point,
                        _max_pairwise_logd, _near_rows, _row_blocks)


@dataclass(frozen=True)
class SolverConfig(JsonConfig):
    """Knobs for a Picard run.

    eps is the multiplicative stopping tolerance (> 1); log(eps) is the
    log-domain tolerance every internal comparison uses.  A run converges
    only when its last ``_WINDOW`` iterates are pairwise within log(eps).
    While a step is above log(eps), the new iterate is compared with the
    iterates 2 to ``_LOOKBACK`` steps before it, and a log distance below
    ``_CYCLE_LOGD`` ends the run as a detected cycle.  A run diverges only
    where its orbit leaves the floats: T fails or gives a non-finite image.
    A long step is no event, not even one whose log distance is infinite.

    The result equals a step-by-step scan, which checks each iterate by the
    metric's ``_outside``.  A SelfMapSpec under a MetricSpec maps ahead in
    blocks of up to 256 iterates (below log(eps) only past 256 steps), so
    the map (assumed pure) may be applied to up to 255 discarded iterates
    past any stop, a coordinate-wise kind's coordinates one at a time, one
    also past another's failure.  Any other map is applied exactly as often
    as a step-by-step scan applies it, but for up to 63 discarded iterates
    past a detected cycle, as the look-back runs over blocks of 64 steps
    (one for a FunctionMetric).
    """

    eps: float = math.exp(1e-9)
    max_iter: int = 1000
    starts: tuple[Point, ...] = ()
    check_monotone_residual: bool = False
    limit_point_restart: bool = True

    def __post_init__(self):
        _check_eps(self.eps)
        if not is_integer(self.max_iter):
            raise DomainError(f"max_iter must be an integer, got {self.max_iter!r}")
        object.__setattr__(self, "max_iter", int(self.max_iter))  # a numpy integer too
        if self.max_iter < 1:
            raise DomainError("max_iter must be >= 1")
        object.__setattr__(
            self, "starts", tuple(as_point(s) for s in self.starts)
        )

    @property
    def log_eps(self) -> float:
        return math.log(self.eps)


@dataclass(frozen=True)
class FixedPointResult:
    """Outcome of one Picard run (possibly after a limit-point restart); it
    keeps no bound rows, which ``verify_bound`` computes from trace and point."""

    point: Point
    residual_logd: float
    iterations: int
    trace: IterationTrace
    status: Status
    restarted_from: Point | None = None
    continuity_log_ratio: float | None = None


def _stepper(metric, T, domain: Optional[Box] = None,
             config: Optional[SolverConfig] = None) -> Callable:
    """The Picard step of one run, with all it reads bound once.

    ``step(x, n, prev)`` returns iterate n, T(x), and its step
    log d(x, T(x)), where prev is the step before it, None at a run's first
    step, whose start x is checked too.  It raises DomainError when T fails
    at x, DomainEscapeError when T(x) leaves the declared domain or the
    metric's space, and with ``config.check_monotone_residual``
    MonotoneResidualError when a step grows from a finite one above
    log(eps).  Every metric checks the tuples by its ``_outside`` first.
    """
    image, distance, outside = _checked_image(T), metric._log_distance, metric._outside
    # a step above this may not grow; inf without the monotone check
    log_eps = config.log_eps if config is not None and config.check_monotone_residual \
        else math.inf

    def step(x: Point, n: int, prev: Optional[float]) -> tuple[Point, float]:
        y = image(x)
        if domain is not None and not domain.contains(y):
            raise DomainEscapeError(
                f"iterate {n} left the declared domain: {y}", point=y, iteration=n,
            )
        try:
            # the dimension, then x at a first step, then y
            if why := ((prev is None and len(x) == len(y) and outside(x, len(x)))
                       or outside(y, len(x))):
                raise DomainError(why)
            d = distance(x, y)
        except DomainError as exc:
            raise DomainEscapeError(
                f"iterate {n} left the metric's domain: {y} ({exc})", point=y, iteration=n,
            ) from exc
        if prev is not None and log_eps < prev < math.inf and d >= prev:
            raise MonotoneResidualError(
                f"step log-distance grew from {prev} to {d} at iterate {n}"
            )
        return y, d

    return step


def _residual(settle: Callable, p: Point) -> float:
    """log d(p, Tp) by a step of ``_stepper(metric, T)``, which checks no
    declared domain; inf when T or the metric fails at p."""
    try:
        return settle(p, 0, None)[1]
    except (DomainError, DomainEscapeError):
        return math.inf


class _Cycle(Exception):
    """The cycle look-back found a cycle; the orbit was cut at its point."""


class _Settled(Exception):
    """A window converged, at the residual given; the orbit was cut there."""


_CYCLE_LOGD = 1e-14  # an iterate this close to an earlier one is a return
_LOOKBACK = 25  # returns 2 to this many steps back end a run; each step reads that many
_WINDOW = 10  # one small step proves no Cauchy tail; this many iterates pairwise close do


class _LookBack:
    """The cycle look-back and the Cauchy windows of one Picard orbit.

    The steps of ``points[done:]`` still wait for their look-back.  A run
    scans them with the ``_LOOKBACK`` points before them once ``block``
    wait, ``_ROW_BLOCK`` steps for a MetricSpec and one for a FunctionMetric,
    and after each block of iterates mapped ahead.  A scan reads only the
    rows of steps above log(eps) that ``_near_rows`` keeps (need 2), all of
    a FunctionMetric's, whose function so receives the pairs a step-by-step
    scan reads, in order.
    """

    def __init__(self, metric, config: SolverConfig, points: list, steps: list):
        self.metric, self.points, self.steps = metric, points, steps
        self.log_eps = config.log_eps
        self.blocked = isinstance(metric, MetricSpec)
        self.block, self.done = _ROW_BLOCK if self.blocked else 1, 1

    def flush(self, hi: Optional[int] = None) -> None:
        """Scan the pending steps before point hi (all of them by default)
        and mark every step scanned; raise _Cycle at the first cycle."""
        lo, hi = self.done, len(self.points) if hi is None else hi
        self.done, first = len(self.points), max(0, lo - _LOOKBACK)
        if lo >= hi:
            return
        near = _near_rows(self.metric, self.points[first:hi], _CYCLE_LOGD, 2)
        rows = [first + k for k in near
                if first + k >= lo and self.steps[first + k - 1] > self.log_eps]
        for block, D, lag in _row_blocks(self.metric, self.points, rows, 2, _LOOKBACK):
            hits = ((D < _CYCLE_LOGD) & lag).any(axis=1)
            if hits.any():
                i = block[int(hits.argmax())]
                del self.points[i + 1:], self.steps[i:]
                raise _Cycle

    def windows(self, lo: int, settle: Callable) -> None:
        """Scan the pending steps before point lo; then raise _Settled at
        the first of ``points[lo:]`` (steps below log(eps)) whose window is
        pairwise below log(eps) and whose residual is at most log(eps).  A
        MetricSpec first rules windows out by their first-to-last pair."""
        self.flush(lo)
        points, w, ends = self.points, _WINDOW, range(lo, len(self.points))
        if self.blocked:
            firsts = [points[max(0, j + 1 - w)] for j in ends]
            near = map(self.metric._log_distance, firsts, points[lo:])
            ends = [j for j, d in zip(ends, near) if d < self.log_eps]
        for j in ends:
            if _max_pairwise_logd(self.metric, points[max(0, j + 1 - w):j + 1]) < self.log_eps:
                residual = _residual(settle, points[j])
                if residual <= self.log_eps:
                    del points[j + 1:], self.steps[j:]
                    raise _Settled(residual)


# the sizes of the blocks of iterates a built-in map is applied to ahead of
# their steps' checks: 8, 16, ... up to 256; smaller blocks cost more in
# array set-up than the step-by-step calls they would replace
_AHEAD_FIRST, _AHEAD = 8, 256


def _ahead(metric, T, domain: Optional[Box], config: SolverConfig) -> Optional[Callable]:
    """The map-ahead of one run of a SelfMapSpec under a MetricSpec; None
    for any other map or metric.

    ``ahead(look, size)`` appends to ``look`` the leading images of
    ``_images`` that pass every check of a step, with their steps, all read
    from one array: finite, inside the declared box and the metric's space,
    and a step, infinite too, strictly on the side of log(eps) of the last
    step, which is not log(eps); above it, the monotone rule holds too.  It
    returns how many it appended; the next step applies T again at the
    first of the rest.
    """
    if type(T) is not SelfMapSpec or not isinstance(metric, MetricSpec):
        return None
    inside, _ = _SPACES.get(metric.kind, (None, None))
    log_eps, monotone = config.log_eps, config.check_monotone_residual
    bounds = None if domain is None else np.array(domain.bounds).T

    def ahead(look: _LookBack, size: int) -> int:
        points, steps = look.points, look.steps
        images, A = _images(T, points[-1], size)
        if not images or (bounds is not None and bounds.shape[1] != A.shape[1]):
            return 0
        ok = np.isfinite(A)
        if bounds is not None:
            ok &= (A >= bounds[0]) & (A <= bounds[1])
        if inside is not None:
            ok &= inside(A, 0.0)
        n = _leading(ok.all(axis=1))
        d = metric._chain(points[-1:] + images[:n],
                          np.concatenate((_array(points[-1:]), A[:n])))
        ok = d < log_eps if steps[-1] < log_eps else d > log_eps
        if monotone and steps[-1] > log_eps:  # a step may not grow from a finite one
            prev = np.concatenate(([steps[-1]], d[:-1]))
            ok &= (d < prev) | (prev == math.inf)
        n = _leading(ok)
        points.extend(images[:n])
        steps.extend(d[:n].tolist())
        return n

    return ahead


def _images(T: SelfMapSpec, x: Point, size: int) -> tuple[list, Optional[np.ndarray]]:
    """Up to ``size`` iterates of x by T, to the first that fails or has
    another dimension, and them as an array.  A coordinate-wise kind maps
    each coordinate on to its own first failure, past any other's."""
    if T._coordinate is None:
        images = _iterates(T._call, x, size)
        images = images[:_leading(np.fromiter(map(len, images), int, len(images)) == len(x))]
        return images, _array(images) if images else None
    columns = [_iterates(T._coordinate, c, size) for c in x]
    images = list(zip(*columns))  # to the shortest column
    return images, np.array([column[:len(images)] for column in columns]).T


def _iterates(f: Callable, x, size: int) -> list:
    """Up to ``size`` iterates of x by f, to the first that fails."""
    out = []
    with contextlib.suppress(Exception):  # T is applied again by the next step
        for _ in range(size):
            x = f(x)
            out.append(x)
    return out


def _leading(ok: np.ndarray) -> int:
    """How many leading entries of a bool vector are true."""
    return int(ok.argmin()) if not ok.all() else len(ok)


def _iterate(metric, T, x0: Point, config: SolverConfig, domain: Optional[Box]):
    """One Picard run from x0: its trace and the residual at its last point.

    Every step is one call of the run's step function (see ``_stepper``),
    built once per run, which runs the step's own checks at once, and only
    its DomainError ends a run as diverged, an infinite step being none;
    each residual is a step of a second one, built without the domain and
    the monotone check.  A SelfMapSpec under a MetricSpec also maps ahead:
    after a step above log(eps), or below it past ``_AHEAD`` steps,
    ``_ahead`` appends blocks of 8, 16, ... up to ``_AHEAD`` iterates (a
    block cut short starts the sizes over), and the step function runs
    again at the first iterate that fails a check, the only code that
    handles an event; below log(eps), ``_LookBack.windows`` cuts a block
    where a window converges.  The cycle look-back scans the pending steps
    above log(eps) in order, in blocks of ``_ROW_BLOCK`` (one for a
    FunctionMetric), after each block of iterates and before the run stops
    or goes on for any other reason, so a cycle among them ends the run at
    its first point, as a step-by-step scan would.
    """
    step, settle = _stepper(metric, T, domain, config), _stepper(metric, T)
    ahead = _ahead(metric, T, domain, config)
    log_eps = config.log_eps
    points: list[Point] = [x0]
    steps: list[float] = []
    last: Optional[float] = None  # the last step's log distance
    status = Status.MAX_ITER
    look = _LookBack(metric, config, points, steps)
    n, block = 0, _AHEAD_FIRST  # steps taken; size of the next block of iterates

    try:
        while n < config.max_iter:
            n += 1
            # a cycle among the pending steps ends the run before this step
            try:
                y, last = step(points[-1], n, last)
            except DomainError:
                look.flush()
                status = Status.DIVERGED
                break
            except Exception:
                look.flush()
                raise
            points.append(y)
            steps.append(last)
            if last < log_eps:
                look.windows(len(points) - 1, settle)
            elif len(points) - look.done >= look.block:
                # a full block of pending steps: look back for a cycle
                look.flush()
            # below log(eps), a run's tail outlasts a block's set-up only once the
            # run is long: it grows with the steps before it
            while ahead is not None and n < config.max_iter and (
                    last > log_eps or last < log_eps and n > _AHEAD):
                # the pending steps and the block end within _AHEAD iterates
                size = min(block, _AHEAD - len(points) + look.done, config.max_iter - n)
                got = ahead(look, size)
                n, last = n + got, steps[-1]
                if last > log_eps:
                    look.flush()
                elif got:
                    look.windows(len(points) - got, settle)
                if got < size:
                    block = _AHEAD_FIRST
                    break
                block = min(2 * block, _AHEAD)
        else:
            look.flush()
    except _Cycle:
        status = Status.CYCLE_DETECTED
    except _Settled as settled:
        status, residual = Status.CONVERGED, settled.args[0]

    if status is not Status.CONVERGED:
        residual = _residual(settle, points[-1])
    trace = IterationTrace(metric=metric, points=tuple(points),
                           step_logd=tuple(steps), status=status)
    return trace, residual


def _observed_continuity(metric, T, trace: IterationTrace, z: Point, eps: float):
    """Largest log-Lipschitz ratio of T observed near z along the trace.

    T is applied as a Picard step applies it (see ``maps._checked_image``),
    and each ratio's distance is the public ``log_distance``."""
    log_eps = math.log(eps)
    image = _checked_image(T)
    try:
        tz = image(z)
    except DomainError:
        return None
    ratios = []
    to_z = metric._log_distance_matrix(trace.points, [z])[:, 0].tolist()
    for p, d in zip(trace.points, to_z):
        if 0 < d < log_eps:
            try:
                ratios.append(metric.log_distance(image(p), tz) / d)
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
    orbit, which is recorded on the result.  When ``domain`` is given, an
    iterate leaving it raises :class:`DomainEscapeError` carrying the
    offending point.  The result equals a step-by-step scan (see
    ``_iterate``).  T is assumed pure; ``SolverConfig`` says how many
    discarded iterates it may be applied to.
    """
    start = as_point(x0)
    trace, residual = _iterate(metric, T, start, config, domain)
    iterations = len(trace.step_logd)
    restarted_from: Point | None = None
    continuity: float | None = None

    if trace.status in (Status.MAX_ITER, Status.CYCLE_DETECTED) \
            and config.limit_point_restart and len(trace.points) >= 2:
        z = _limit_point(trace, trace.points, config.log_eps)
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
    if not (is_integer(n) and n >= 0):
        raise DomainError(f"n must be an integer >= 0, got {n!r}")
    if m is not None and not (is_integer(m) and m > n):
        raise DomainError(f"m must be an integer above n, got {m!r}")
    tail = 0.0 if m is None else delta ** m
    return d1 * (delta ** n - tail) / (1 - delta)


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Observed log d(x_n, z) and predicted ``apriori_bound(d1, delta, n)``
    along a converged trace, as two float arrays; ``rows`` pairs them up on
    first read; ``report.json`` leaves the rows out, and the trace files give them.
    ``verify_bound`` sets ``dim`` under a MetricSpec, whose rounding margin
    ``violations`` then forgives; with None it forgives ``tol`` alone."""

    delta: float
    tol: float
    observed: np.ndarray
    bound: np.ndarray
    dim: Optional[int] = None  # the points' dimension under a MetricSpec, else None

    @cached_property
    def rows(self) -> tuple[tuple[int, float, float], ...]:  # (n, observed, bound)
        return tuple(zip(range(self.observed.size), self.observed.tolist(),
                         self.bound.tolist()))

    @cached_property
    def violations(self) -> tuple[tuple[int, float, float], ...]:
        """The rows above bound + tol, plus with a dim the margin at the larger value."""
        limit = self.bound + self.tol
        if self.dim is not None:  # an infinite observed value counts as the largest float
            top = np.minimum(np.maximum(self.observed, self.bound), sys.float_info.max)
            with np.errstate(over="ignore"):
                limit += _reference_margin(self.dim, self.tol, top)
        (n,) = np.nonzero(self.observed > limit)
        return tuple(zip(n.tolist(), self.observed[n].tolist(), self.bound[n].tolist()))

    @property
    def ok(self) -> bool:
        return not self.violations

    def __eq__(self, other) -> bool:  # by value, as when the rows were a field
        return (isinstance(other, BoundReport) and (self.delta, self.tol, self.dim, self.rows)
                == (other.delta, other.tol, other.dim, other.rows))


_BOUND_TOL = 1e-10


def verify_bound(result: FixedPointResult, delta: float) -> BoundReport:
    """Check log d(x_n, z) <= d1 * delta**n / (1 - delta) + tol along a run,
    at tol = ``_BOUND_TOL``, which the report echoes, plus a MetricSpec's
    rounding margin; an infinite d1 bounds a row by inf, or by 0 where
    delta**n is 0.  A bad point raises as ``_checked`` does, k counting the
    trace's points, then z."""
    if result.status is not Status.CONVERGED:
        raise DomainError("bound verification needs a converged result")
    if not (0 <= delta < 1):
        raise DomainError(f"delta must be in [0, 1), got {delta!r}")
    result.trace.metric._checked([*result.trace.points, result.point])
    return _verify_bound(result, delta)


def _verify_bound(result: FixedPointResult, delta: float) -> BoundReport:
    """``verify_bound(result, delta)`` of a converged picard run, whose
    points were checked as they entered, and a delta in [0, 1)."""
    trace = result.trace
    to_z = trace.metric._log_distance_matrix(trace.points, [result.point])[:, 0]
    d1 = trace.step_logd[0] if trace.step_logd else 0.0
    if d1 != math.inf:  # raises for a d1 that no row's bound takes
        apriori_bound(d1, delta, 0)
    # each entry is apriori_bound(d1, delta, n) bit for bit: Python's pow, then
    # the same correctly rounded * and / (np.power can differ from pow)
    powers = np.fromiter(map(delta.__pow__, range(len(to_z))), float, len(to_z))
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite bound, as float / gives
        bound = np.where(powers > 0, d1 * powers / (1 - delta), 0.0)
    dim = len(result.point) if isinstance(trace.metric, MetricSpec) else None
    return BoundReport(delta=delta, tol=_BOUND_TOL, observed=to_z, bound=bound, dim=dim)


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


def verify_start_independence(metric, T, config: SolverConfig,
                              domain: Optional[Box] = None) -> StartIndependenceReport:
    """Run Picard from every configured start and compare the limits.

    Passes when every pair of limits is within 2 log(eps) of each other;
    any non-converged run makes the report inconclusive rather than failed.
    A single start passes vacuously.  Converged limits of mixed dimension
    raise DomainError ``point k: ...``, k counting them.
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


@dataclass(frozen=True)
class UniquenessReport:
    """Pairwise agreement of candidate fixed points after filtering."""

    verdict: str  # "passed" | "failed" | "inconclusive"
    survivors: tuple[Point, ...]
    max_pairwise_logd: float | None

    @property
    def passed(self) -> bool:
        return self.verdict == "passed"


def uniqueness_probe(metric, T, candidates: Sequence, eps: float) -> UniquenessReport:
    """Filter candidates by residual, then require the survivors to agree.

    A candidate survives when log d(c, Tc) <= log(eps); the probe passes
    when all survivors are pairwise within 2 log(eps), fails when two
    survivors disagree, and is inconclusive when nothing survives.  A
    candidate of another dimension than the first or outside the metric's
    space raises DomainError ``point k: ...``, k counting the candidates.
    """
    if not candidates:
        raise DomainError("uniqueness probe needs at least one candidate")
    log_eps = _check_eps(eps)
    settle = _stepper(metric, T)
    survivors = [c for c in metric._checked(candidates) if _residual(settle, c) <= log_eps]
    if not survivors:
        return UniquenessReport(verdict="inconclusive", survivors=(),
                                max_pairwise_logd=None)
    worst = _max_pairwise_logd(metric, survivors)
    verdict = "passed" if worst <= 2 * log_eps else "failed"
    return UniquenessReport(verdict=verdict, survivors=tuple(survivors),
                            max_pairwise_logd=worst)
