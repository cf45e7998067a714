import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mulfix as mx
from mulfix import solver
from mulfix.errors import DomainError, DomainEscapeError, MonotoneResidualError
from mulfix.metrics import _reference_margin
from scalar_reference import bits

EPS = math.exp(1e-9)
CFG = mx.SolverConfig(eps=EPS, max_iter=2000)

LIFTED2 = mx.MetricSpec.lifted("euclidean", a=2.0)
SCALE23 = mx.SelfMapSpec.scale(2.0 / 3.0)
RECIP = mx.MetricSpec.exp_reciprocal()
RATIONAL2 = mx.SelfMapSpec.rational(2.0)
EXPABS_E = mx.MetricSpec.exp_abs(math.e)


def test_solver_config_validation():
    with pytest.raises(DomainError):
        mx.SolverConfig(eps=1.0)
    with pytest.raises(DomainError):
        mx.SolverConfig(max_iter=0)
    with pytest.raises(DomainError, match="max_iter must be an integer, got 2.5"):
        mx.SolverConfig(max_iter=2.5)
    cfg = mx.SolverConfig(starts=[1.0, (2.0,)])
    assert cfg.starts == ((1.0,), (2.0,))
    assert mx.SolverConfig.from_json_dict(cfg.to_json_dict()) == cfg


@pytest.mark.parametrize("field", ["max_iter"])
@pytest.mark.parametrize("value", [10.0, True, "10"])
def test_an_integer_solver_field_rejects_any_other_value(field, value):
    with pytest.raises(DomainError, match=f"^{field} must be an integer, got {value!r}$"):
        mx.SolverConfig(**{field: value})
    value = getattr(mx.SolverConfig(**{field: np.int64(12)}), field)
    assert value == 12 and type(value) is int  # as JSON writes and reads it


def test_picard_scaling_map_reaches_the_origin():
    result = mx.picard(LIFTED2, SCALE23, (3.0, 4.0), CFG)
    assert result.status is mx.Status.CONVERGED
    assert max(abs(c) for c in result.point) <= 1e-8
    assert result.residual_logd <= 1e-9
    # first iterate by hand: (2, 8/3)
    assert result.trace.points[1] == SCALE23((3.0, 4.0))


def test_picard_reciprocal_offset_map_iterates():
    result = mx.picard(RECIP, RATIONAL2, 1.0, CFG)
    assert result.status is mx.Status.CONVERGED
    p0, p1, p2 = result.trace.points[:3]
    assert p0 == (1.0,)
    assert p1 == pytest.approx((1 / 3,))
    assert p2 == pytest.approx((3 / 7,))
    assert result.point[0] == pytest.approx(math.sqrt(2) - 1, abs=1e-8)


def test_picard_from_a_fixed_start_stops_immediately():
    const = mx.SelfMapSpec.constant((0.5,))
    result = mx.picard(EXPABS_E, const, 0.5, CFG)
    assert result.status is mx.Status.CONVERGED
    assert result.iterations <= 1
    assert result.residual_logd == 0.0


def test_geometric_step_decay_for_the_scaling_map():
    result = mx.picard(LIFTED2, SCALE23, (3.0, 4.0), CFG)
    steps = result.trace.step_logd
    delta = 2.0 / 3.0
    for n, step in enumerate(steps):
        assert step <= steps[0] * delta ** n + 1e-10


def test_steps_strictly_decrease_until_tolerance():
    result = mx.picard(LIFTED2, SCALE23, (3.0, 4.0),
                       mx.SolverConfig(eps=EPS, max_iter=2000,
                                       check_monotone_residual=True))
    steps = result.trace.step_logd
    log_eps = math.log(EPS)
    for prev, cur in zip(steps, steps[1:]):
        if prev > log_eps:
            assert cur < prev


def test_monotone_flag_raises_on_expanding_maps():
    grow = mx.SelfMapSpec.scale(1.5)
    cfg = mx.SolverConfig(eps=EPS, max_iter=100, check_monotone_residual=True)
    with pytest.raises(MonotoneResidualError):
        mx.picard(LIFTED2, grow, (1.0, 0.0), cfg)


@pytest.mark.parametrize("T, start, status, steps", [
    # scale(2) from x steps by x under exp_abs(e): long steps are no event
    (mx.SelfMapSpec.scale(2.0), 700.5, mx.Status.MAX_ITER, [700.5 * 2 ** k for k in range(10)]),
    # -1e308 lies an infinite log distance from 1e308, and the 2-cycle closes
    (mx.SelfMapSpec.negation(), 1e308, mx.Status.CYCLE_DETECTED, [math.inf, math.inf]),
    # 2e308 is no float, so T fails at the start
    (mx.SelfMapSpec.scale(2.0), 1e308, mx.Status.DIVERGED, []),
], ids=["long-steps", "infinite-step", "infinite-image"])
def test_a_run_diverges_only_when_its_orbit_leaves_the_floats(T, start, status, steps):
    result = mx.picard(EXPABS_E, T, start, mx.SolverConfig(eps=EPS, max_iter=10))
    assert result.status is status and list(result.trace.step_logd) == steps


@pytest.mark.parametrize("T", [mx.SelfMapSpec.scale(-0.9), lambda p: (-0.9 * p[0],)],
                         ids=["mapped-ahead", "step-by-step"])
def test_the_monotone_rule_compares_no_step_with_an_infinite_one(T):
    # under exp_abs(10), scale(-0.9) from 0.9e308 steps 1.9 ln(10) |x|: its
    # first 8 steps are infinite, the 9th finite, and none grows from a finite one
    result = mx.picard(mx.MetricSpec.exp_abs(10.0), T, 0.9e308,
                       mx.SolverConfig(max_iter=10_000, check_monotone_residual=True))
    assert result.status is mx.Status.CONVERGED
    assert [math.isinf(d) for d in result.trace.step_logd[:9]] == [True] * 8 + [False]


def test_a_run_converges_once_its_last_10_iterates_are_pairwise_close():
    # scale(0.5) under exp_abs(e) from 1: the steps 2**-k are below
    # log(eps) = 1e-6 from k = 20, the spread of the ten iterates
    # 2**-(k - 9) .. 2**-k only from k = 29
    log_eps, T = 1e-6, mx.SelfMapSpec.scale(0.5)

    def run(max_iter):
        config = mx.SolverConfig(eps=math.exp(log_eps), max_iter=max_iter,
                                 limit_point_restart=False)
        return mx.picard(EXPABS_E, T, 1.0, config)

    converged, capped = run(29), run(28)
    points = converged.trace.points
    assert converged.status is mx.Status.CONVERGED and converged.iterations == 29
    assert EXPABS_E.log_distance(points[-10], points[-1]) < log_eps \
        <= EXPABS_E.log_distance(points[-11], points[-2])
    assert capped.status is mx.Status.MAX_ITER and capped.iterations == 28
    assert max(capped.trace.step_logd[19:]) < log_eps


def test_an_expanding_map_diverges_where_its_orbit_overflows():
    # 1.5**k overflows past k = 1750; a run capped before that stops at max_iter
    grow = mx.SelfMapSpec.scale(1.5)
    capped, overflowed = (mx.picard(LIFTED2, grow, (1.0, 0.0),
                                    mx.SolverConfig(eps=EPS, max_iter=max_iter))
                          for max_iter in (500, 2000))
    assert capped.status is mx.Status.MAX_ITER and capped.iterations == 500
    assert overflowed.status is mx.Status.DIVERGED and overflowed.iterations == 1750
    assert math.isfinite(overflowed.trace.step_logd[-1])


def test_domain_escape_reports_the_offending_iterate():
    box = mx.Box(((-1.0, 1.0),))
    doubling = mx.SelfMapSpec.scale(2.0)
    with pytest.raises(DomainEscapeError) as err:
        mx.picard(EXPABS_E, doubling, 0.9, CFG, domain=box)
    assert err.value.point == (1.8,)
    assert err.value.iteration == 1


@pytest.mark.parametrize("edge", [-1.0, 1.0], ids=["lower", "upper"])
def test_an_iterate_on_the_domains_edge_stays_inside(edge):
    # the box is closed: a step onto either end of an interval is no escape
    box = mx.Box(((-1.0, 1.0),))
    result = mx.picard(EXPABS_E, mx.SelfMapSpec.constant((edge,)), 0.5, CFG, domain=box)
    assert result.status is mx.Status.CONVERGED and result.point == (edge,)
    assert box.contains((edge,))


def test_the_window_prefilter_rules_a_window_out_by_its_first_to_last_pair(monkeypatch):
    # ten iterates pairwise close but for the first: every window holds the
    # first and the last, so none is scanned pairwise
    config = mx.SolverConfig(eps=EPS)
    points = [(0.0,)] + [(1.0 + k * 1e-12,) for k in range(1, solver._WINDOW)]
    steps = [EXPABS_E.log_distance(x, y) for x, y in zip(points, points[1:])]
    assert steps[0] > config.log_eps > max(steps[1:])
    scanned = []
    monkeypatch.setattr(solver, "_max_pairwise_logd",
                        lambda metric, window: scanned.append(window) or math.inf)
    solver._LookBack(EXPABS_E, config, points, steps).windows(2, settle=None)
    assert scanned == []


def test_two_point_swap_is_reported_as_a_cycle():
    result = mx.picard(EXPABS_E, mx.SelfMapSpec.negation(), 1.0, CFG)
    assert result.status is mx.Status.CYCLE_DETECTED
    assert result.restarted_from is None  # limit point equals the start


@pytest.mark.parametrize("period, lookback, detected", [
    (2, 25, True), (3, 3, True), (3, 2, False), (2, 2, True),
])
def test_cycle_lookback_spans_exactly_its_window(period, lookback, detected):
    hop = lambda p: ((p[0] + 1.0) % period,)
    cfg = mx.SolverConfig(eps=EPS, max_iter=50, limit_point_restart=False)
    with mock.patch.object(solver, "_LOOKBACK", lookback):
        result = mx.picard(EXPABS_E, hop, 0.0, cfg)
    if detected:
        assert result.status is mx.Status.CYCLE_DETECTED
        assert result.iterations == period
    else:
        assert result.status is mx.Status.MAX_ITER and result.iterations == 50


@pytest.mark.parametrize("period, detected", [(25, True), (26, False)])
def test_a_cycle_is_detected_up_to_25_steps_back(period, detected):
    # a cyclic shift of `period` coordinates returns to its start after
    # `period` steps, exactly
    shift = [[float(j == (i + 1) % period) for j in range(period)] for i in range(period)]
    T = mx.SelfMapSpec.affine(shift, (0.0,) * period)
    cfg = mx.SolverConfig(eps=EPS, max_iter=60, limit_point_restart=False)
    result = mx.picard(LIFTED2, T, tuple(map(float, range(period))), cfg)
    if detected:
        assert result.status is mx.Status.CYCLE_DETECTED and result.iterations == period
        assert result.point == result.trace.points[0]
    else:
        assert result.status is mx.Status.MAX_ITER and result.iterations == 60


@pytest.mark.parametrize("metric", [
    EXPABS_E, mx.FunctionMetric(lambda x, y: math.exp(abs(x[0] - y[0])), "exp_abs_e"),
], ids=["spec", "function"])
@pytest.mark.parametrize("miss, detected", [(0.5e-14, True), (2e-14, False)])
def test_a_return_is_a_cycle_only_within_the_cycle_threshold(metric, miss, detected):
    # 0 -> 1 -> miss, then on in steps of 10: the second iterate returns to
    # log distance `miss` of the start, a cycle only below 1e-14
    hop = lambda p: ({0.0: 1.0, 1.0: miss}.get(p[0], p[0] + 10.0),)
    cfg = mx.SolverConfig(eps=EPS, max_iter=20, limit_point_restart=False)
    result = mx.picard(metric, hop, 0.0, cfg)
    if detected:
        assert result.status is mx.Status.CYCLE_DETECTED and result.iterations == 2
    else:
        assert result.status is mx.Status.MAX_ITER and result.iterations == 20


def test_stalled_cycle_restarts_from_a_limit_point():
    table = {10.0: 1.0, 1.0: 2.0, 2.0: 3.0, 3.0: 1.0}
    hop = lambda p: (table[p[0]],)
    result = mx.picard(EXPABS_E, hop, 10.0, CFG)
    assert result.status is mx.Status.CYCLE_DETECTED
    assert result.restarted_from == (1.0,)
    assert result.trace.points[0] == (1.0,)


def test_pole_in_the_map_ends_the_run_as_diverged():
    # x -> 1/(x - 1) from 2.0 hits the pole at its second step: 2 -> 1 -> pole
    shifted = mx.SelfMapSpec.rational(-1.0)
    result = mx.picard(EXPABS_E, shifted, 2.0, mx.SolverConfig(eps=EPS, max_iter=50))
    assert result.status is mx.Status.DIVERGED


# -- a-priori bounds -----------------------------------------------------------


def test_apriori_bound_reference_values():
    ln2 = math.log(2)
    assert mx.apriori_bound(ln2, 0.0, 0, 5) == ln2
    assert mx.apriori_bound(ln2, 0.0, 1) == 0.0
    assert mx.apriori_bound(ln2, 0.5, 3) == pytest.approx(0.17328679513998632)
    assert mx.apriori_bound(0.0, 0.9, 4) == 0.0
    assert mx.apriori_bound(ln2, 0.5, 2, 4) == pytest.approx(ln2 * (0.25 - 0.0625) / 0.5)


def test_apriori_bound_validation():
    with pytest.raises(DomainError):
        mx.apriori_bound(1.0, 1.0, 0)
    with pytest.raises(DomainError):
        mx.apriori_bound(-1.0, 0.5, 0)
    with pytest.raises(DomainError):
        mx.apriori_bound(1.0, 0.5, 3, 3)
    with pytest.raises(DomainError):
        mx.apriori_bound(1.0, 0.5, -1)


@pytest.mark.parametrize("n, m, name", [(2.5, None, "n"), (True, None, "n"), (2.0, 4, "n"),
                                        (1, 2.5, "m"), (1, True, "m"), (0, 3.0, "m")])
def test_apriori_bound_rejects_an_index_that_is_not_an_integer(n, m, name):
    with pytest.raises(DomainError, match=f"{name} must be an integer"):
        mx.apriori_bound(1.0, 0.5, n, m)


def test_bound_holds_along_the_scaling_trace():
    result = mx.picard(LIFTED2, SCALE23, (3.0, 4.0), CFG)
    report = mx.verify_bound(result, delta=2.0 / 3.0)
    assert report.ok
    assert len(report.rows) == len(result.trace.points)


def test_undersized_delta_is_falsified_by_the_trace():
    result = mx.picard(LIFTED2, SCALE23, (3.0, 4.0), CFG)
    report = mx.verify_bound(result, delta=0.1)
    assert not report.ok
    assert report.violations


@pytest.mark.parametrize("excess, ok", [(0.5e-10, True), (2e-10, False)])
def test_bound_forgives_an_excess_up_to_its_fixed_tolerance(excess, ok):
    # delta = 0 bounds every iterate after the first by 0, and the second
    # lies `excess` from z: within or beyond the reports' tol of 1e-10
    trace = mx.IterationTrace(EXPABS_E, ((1.0,), (excess,)), (1.0,), mx.Status.CONVERGED)
    result = mx.FixedPointResult(point=(0.0,), residual_logd=0.0, iterations=1,
                                 trace=trace, status=mx.Status.CONVERGED)
    report = mx.verify_bound(result, delta=0.0)
    assert report.tol == 1e-10 and report.ok is ok
    assert [row[:2] for row in report.rows] == [(0, 1.0), (1, excess)]
    assert [k for k, _, _ in report.violations] == ([] if ok else [1])


DELTAS = (st.floats(0.0, 1.0, exclude_max=True)
          | st.floats(1.0 - 1e-9, 1.0, exclude_max=True)
          | st.sampled_from([0.0, 5e-324, 0.5, 1.0 - 1e-9, 1.0 - 2.0 ** -53]))
D1S = st.floats(0.0, 1e308) | st.sampled_from([0.0, 5e-324, 1.0, 1.7976931348623157e308])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3000), D1S, DELTAS, st.floats(0.0, 1e3), st.floats(0.0, 1.0))
def test_bound_rows_are_apriori_bound_bit_for_bit(n, d1, delta, start, ratio):
    # x_k = start * ratio**k against z = 0: the observed distances shrink
    # geometrically at their own ratio, so some draws violate the bound
    points = tuple((start * ratio ** k,) for k in range(n))
    steps = ((d1,) + (0.0,) * n)[:n - 1]
    trace = mx.IterationTrace(EXPABS_E, points, steps, mx.Status.CONVERGED)
    result = mx.FixedPointResult(point=(0.0,), residual_logd=0.0, iterations=n - 1,
                                 trace=trace, status=mx.Status.CONVERGED)
    report = mx.verify_bound(result, delta)
    observed = EXPABS_E.log_distance_matrix(points, [(0.0,)])[:, 0].tolist()
    rows = [(k, o, mx.apriori_bound(d1 if n > 1 else 0.0, delta, k))
            for k, o in enumerate(observed)]
    assert [tuple(map(bits, row)) for row in report.rows] \
        == [tuple(map(bits, row)) for row in rows]
    assert report.tol == 1e-10
    # beyond tol, a row is forgiven the rounding margin at the larger of its values
    margins = [_reference_margin(1, 1e-10, min(max(o, b), sys.float_info.max))
               for _, o, b in rows]
    assert report.violations == tuple(row for row, m in zip(rows, margins)
                                      if row[1] > row[2] + 1e-10 + m)
    assert len(report.observed) == len(trace)


def test_bound_requires_convergence():
    diverged = mx.picard(LIFTED2, mx.SelfMapSpec.scale(1.5), (1.0, 0.0),
                         mx.SolverConfig(eps=EPS, max_iter=500))
    with pytest.raises(DomainError):
        mx.verify_bound(diverged, delta=0.5)


@pytest.mark.parametrize("excess, ok", [(4e-7, True), (7e-7, False)])
def test_bound_forgives_a_builtin_metrics_rounding_at_the_rows_magnitude(excess, ok):
    # the second row lies `excess` above its bound of 1e8, against tol plus
    # the margin (1 + 5) * 2**-50 * (tol + 1e8 + excess), about 5.3e-7
    trace = mx.IterationTrace(EXPABS_E, ((1.5e8,), (1e8 + excess,)), (1e8,),
                              mx.Status.CONVERGED)
    result = mx.FixedPointResult(point=(0.0,), residual_logd=0.0, iterations=1,
                                 trace=trace, status=mx.Status.CONVERGED)
    report = mx.verify_bound(result, delta=0.5)
    assert [row[2] for row in report.rows] == [2e8, 1e8]
    assert report.tol == 1e-10 and report.ok is ok


def test_bound_requires_a_delta_below_1():
    converged = mx.picard(LIFTED2, SCALE23, (3.0, 4.0), CFG)
    with pytest.raises(DomainError, match=r"^delta must be in \[0, 1\), got 1.0$"):
        mx.verify_bound(converged, delta=1.0)


# -- a ratio contraction converges from every start -------------------------------

RATIO_METRICS = {"exp_abs": mx.MetricSpec.exp_abs,
                 **{base: lambda a, base=base: mx.MetricSpec.lifted(base, a=a)
                    for base in ("euclidean", "manhattan", "chebyshev")}}


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(sorted(RATIO_METRICS)), a=st.sampled_from([1.5, 2.0, math.e, 10.0]),
       c=st.floats(0.1, 0.9) | st.floats(-0.9, -0.1), dim=st.integers(1, 2),
       signs=st.tuples(st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0])),
       width=st.floats(-3.0, 308.0).map(lambda e: 10.0 ** e), monotone=st.booleans())
# far starts, whose first hundred steps or so are long; and a width of 1e7,
# where a bound row first exceeds its bound + tol by a rounding
@example(kind="exp_abs", a=2.0, c=0.9, dim=2, signs=(1.0, -1.0), width=1e9, monotone=False)
@example(kind="manhattan", a=10.0, c=-0.9, dim=1, signs=(1.0, 1.0), width=1e9, monotone=True)
@example(kind="euclidean", a=math.e, c=0.7, dim=2, signs=(-1.0, 1.0), width=1e7,
         monotone=False)
# first steps past the largest float while every iterate is one, ln(10) *
# 0.81e308 for scale(0.1); under scale(-0.9), steps stay infinite for 8
# iterates, and the monotone rule compares no step with an infinite one
@example(kind="exp_abs", a=10.0, c=0.1, dim=1, signs=(1.0, 1.0), width=1e308, monotone=True)
@example(kind="chebyshev", a=10.0, c=0.1, dim=1, signs=(-1.0, 1.0), width=1e308,
         monotone=False)
@example(kind="exp_abs", a=10.0, c=-0.9, dim=1, signs=(1.0, 1.0), width=1e308, monotone=True)
@example(kind="euclidean", a=10.0, c=0.1, dim=2, signs=(1.0, -1.0), width=1e307,
         monotone=True)
def test_a_ratio_contraction_converges_within_its_bound_from_any_box(kind, a, c, dim,
                                                                     signs, width,
                                                                     monotone):
    # scale(c) from 0.9 of a corner of the box [-width, width]**dim: the run
    # converges to 0, and with xi = |c| every a-priori bound row holds.  Past
    # a width of 1e9 the orbit's rounding can outgrow the rows' margin, and
    # past 1e307 a 2-d row 0 can overflow, so there the rows are checked only
    # where the first step is infinite, which bounds each row by inf or 0
    metric, T = RATIO_METRICS[kind](a), mx.SelfMapSpec.scale(c)
    calls, kernel = [], T._coordinate
    T.__dict__["_coordinate"] = lambda x: calls.append(x) or kernel(x)
    result = mx.picard(metric, T, tuple(0.9 * width * s for s in signs[:dim]),
                       mx.SolverConfig(max_iter=10_000, check_monotone_residual=monotone))
    assert result.status is mx.Status.CONVERGED
    if width <= 1e9 or result.trace.step_logd[0] == math.inf:
        assert mx.verify_bound(result, mx.ZamfirescuConstants(xi=abs(c)).delta).ok
    # every step is mapped ahead, so T maps at most a block of discarded
    # iterates past each of the run's two cuts: below log(eps), and settled
    assert len(calls) <= dim * (result.iterations + 2 * solver._AHEAD)


@pytest.mark.parametrize("metric, T, start, max_iters", [
    # grows without overflowing: the values span 34 and 69 orders of magnitude
    (mx.MetricSpec.exp_abs(2.0), mx.SelfMapSpec.scale(1.01), (1.5,), (8000, 16000)),
    # every distance to the start past 7.8e307 overflows
    (mx.MetricSpec.exp_abs(10.0), mx.SelfMapSpec.affine(((0.999,),), (1e305,)), (-1e308,),
     (1000, 2000, 4000)),
    # every distance to the start is log(2)
    (mx.MetricSpec.discrete(2.0), mx.SelfMapSpec.scale(1.0000001), (1.0,), (1000, 2000, 4000)),
    # moves along coordinate 1 alone: a count on coordinate 0 keeps every row
    (mx.MetricSpec.exp_abs(2.0), mx.SelfMapSpec.affine(((1.0, 0.0), (0.0, 1.0)), (0.0, 1.0)),
     (0.0, 0.0), (1000, 2000)),
], ids=["scale", "overflowing", "discrete", "coordinate-1"])
def test_a_runaway_orbit_reads_distances_linear_in_max_iter(monkeypatch, metric, T, start,
                                                            max_iters):
    # each orbit ends at max_iter with no limit point, and the scans read
    # only rows a quarter of the orbit may lie near
    reads, kernel = [], mx.MetricSpec._log_distance_matrix

    def counted(metric, X, Y):
        D = kernel(metric, X, Y)
        reads[-1] += D.size
        return D
    monkeypatch.setattr(mx.MetricSpec, "_log_distance_matrix", counted)
    for max_iter in max_iters:
        reads.append(0)
        result = mx.picard(metric, T, start, mx.SolverConfig(max_iter=max_iter))
        assert result.status is mx.Status.MAX_ITER and result.iterations == max_iter
    assert all(b <= 2.2 * a for a, b in zip(reads, reads[1:]))


def test_a_far_rotation_runs_to_max_iter_without_a_warning():
    # by 1 rad from (1e308, 0): its steps are infinite under lifted euclidean
    # with a = 10, where the array kernels' products overflow as the scalar
    # kernel's do, silently
    metric = mx.MetricSpec.lifted("euclidean", 10.0)
    rotation = mx.SelfMapSpec.affine(((math.cos(1.0), -math.sin(1.0)),
                                      (math.sin(1.0), math.cos(1.0))), (0.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = mx.picard(metric, rotation, (1e308, 0.0), mx.SolverConfig(max_iter=1000))
        D = metric.log_distance_matrix([(1e308,)], [(-1e307,)])
    assert result.status is mx.Status.MAX_ITER and result.iterations == 1000
    assert math.inf in result.trace.step_logd and D.tolist() == [[math.inf]]


# -- multi-start and uniqueness ---------------------------------------------------


def test_start_independence_for_the_reciprocal_offset_map():
    cfg = mx.SolverConfig(eps=EPS, max_iter=2000,
                          starts=((0.1,), (0.5,), (1.0,)))
    report = mx.verify_start_independence(RECIP, RATIONAL2, cfg)
    assert report.verdict == "passed"
    assert report.max_pairwise_logd <= 2e-9


def test_single_start_passes_vacuously():
    cfg = mx.SolverConfig(eps=EPS, starts=((0.5,),))
    report = mx.verify_start_independence(RECIP, RATIONAL2, cfg)
    assert report.verdict == "passed"
    assert report.n_runs == 1


def test_start_independence_and_uniqueness_need_a_start_and_a_candidate():
    with pytest.raises(DomainError, match="^start independence needs at least one start$"):
        mx.verify_start_independence(RECIP, RATIONAL2, mx.SolverConfig(eps=EPS))
    with pytest.raises(DomainError,
                       match="^uniqueness probe needs at least one candidate$"):
        mx.uniqueness_probe(RECIP, RATIONAL2, [], eps=EPS)


def test_identity_map_fails_start_independence():
    cfg = mx.SolverConfig(eps=EPS, starts=((0.0,), (1.0,)))
    report = mx.verify_start_independence(EXPABS_E, mx.SelfMapSpec.identity(), cfg)
    assert report.verdict == "failed"


def test_non_convergence_is_inconclusive():
    cfg = mx.SolverConfig(eps=EPS, max_iter=30, starts=((1.0,), (2.0,)))
    translation = mx.SelfMapSpec.affine([[1.0]], [1.0])
    report = mx.verify_start_independence(EXPABS_E, translation, cfg)
    assert report.verdict == "inconclusive"


def test_uniqueness_probe_filters_candidates():
    report = mx.uniqueness_probe(mx.MetricSpec.exp_abs(2.0),
                                 mx.SelfMapSpec.reciprocal_sqrt(),
                                 [(1.0,), (1.5,), (2.0,)], eps=EPS)
    assert report.verdict == "passed"
    assert report.survivors == ((1.0,),)


def test_uniqueness_probe_without_survivors_is_inconclusive():
    report = mx.uniqueness_probe(LIFTED2, SCALE23, [(5.0, 0.0), (8.0, 1.0)], eps=EPS)
    assert report.verdict == "inconclusive"


def test_uniqueness_probe_fails_on_identity():
    report = mx.uniqueness_probe(EXPABS_E, mx.SelfMapSpec.identity(),
                                 [(0.0,), (1.0,)], eps=EPS)
    assert report.verdict == "failed"


def test_converged_runs_are_idempotent_at_tolerance():
    for metric, T, start in ((LIFTED2, SCALE23, (3.0, 4.0)),
                             (RECIP, RATIONAL2, (0.5,))):
        result = mx.picard(metric, T, start, CFG)
        moved = metric.log_distance(result.point, T(result.point))
        assert moved <= math.log(EPS)
