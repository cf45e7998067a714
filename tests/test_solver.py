import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mulfix as mx
from mulfix.errors import DomainError, DomainEscapeError, MonotoneResidualError
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
    with pytest.raises(DomainError, match="divergence threshold must be positive"):
        mx.SolverConfig(divergence_logd=math.nan)
    with pytest.raises(DomainError):
        mx.SolverConfig(window=1)
    cfg = mx.SolverConfig(starts=[1.0, (2.0,)])
    assert cfg.starts == ((1.0,), (2.0,))
    assert mx.SolverConfig.from_json_dict(cfg.to_json_dict()) == cfg


@pytest.mark.parametrize("field", ["max_iter", "window", "cycle_lookback"])
@pytest.mark.parametrize("value", [10.0, True, "10"])
def test_an_integer_solver_field_rejects_any_other_value(field, value):
    # a float window or cycle_lookback would reach picard's slices
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


def test_expanding_map_diverges():
    grow = mx.SelfMapSpec.scale(1.5)
    result = mx.picard(LIFTED2, grow, (1.0, 0.0),
                       mx.SolverConfig(eps=EPS, max_iter=500))
    assert result.status is mx.Status.DIVERGED
    assert result.trace.step_logd[-1] > 700.0


def test_domain_escape_reports_the_offending_iterate():
    box = mx.Box(((-1.0, 1.0),))
    doubling = mx.SelfMapSpec.scale(2.0)
    with pytest.raises(DomainEscapeError) as err:
        mx.picard(EXPABS_E, doubling, 0.9, CFG, domain=box)
    assert err.value.point == (1.8,)
    assert err.value.iteration == 1


def test_two_point_swap_is_reported_as_a_cycle():
    result = mx.picard(EXPABS_E, mx.SelfMapSpec.negation(), 1.0, CFG)
    assert result.status is mx.Status.CYCLE_DETECTED
    assert result.restarted_from is None  # limit point equals the start


@pytest.mark.parametrize("period, lookback, detected", [
    (2, 25, True), (3, 3, True), (3, 2, False), (2, 2, True), (2, 1, False),
])
def test_cycle_lookback_spans_exactly_its_window(period, lookback, detected):
    hop = lambda p: ((p[0] + 1.0) % period,)
    cfg = mx.SolverConfig(eps=EPS, max_iter=50, cycle_lookback=lookback,
                          limit_point_restart=False)
    result = mx.picard(EXPABS_E, hop, 0.0, cfg)
    if detected:
        assert result.status is mx.Status.CYCLE_DETECTED
        assert result.iterations == period
    else:
        assert result.status is mx.Status.MAX_ITER and result.iterations == 50


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
    assert report.violations == tuple(row for row in rows if row[1] > row[2] + 1e-10)
    assert len(report.observed) == len(trace)


def test_bound_requires_convergence():
    diverged = mx.picard(LIFTED2, mx.SelfMapSpec.scale(1.5), (1.0, 0.0),
                         mx.SolverConfig(eps=EPS, max_iter=500))
    with pytest.raises(DomainError):
        mx.verify_bound(diverged, delta=0.5)


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
