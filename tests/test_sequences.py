import csv
import io
import math

import pytest

import mulfix as mx
from mulfix.errors import DomainError

E_METRIC = mx.MetricSpec.exp_abs(math.e)
EPS = math.exp(1e-9)


def geometric_trace(c=0.5, delta=0.6, n=30):
    """1-d walk whose consecutive steps are exactly c * delta**i."""
    points = [0.0]
    for i in range(n - 1):
        points.append(points[-1] + c * delta ** i)
    return mx.IterationTrace.from_points(E_METRIC, points)


def orbit(T, x0, n):
    pts = [mx.as_point(x0)]
    for _ in range(n):
        pts.append(mx.as_point(T(pts[-1])))
    return pts


def test_from_points_matches_step_invariant():
    trace = geometric_trace(n=8)
    assert len(trace.step_logd) == len(trace.points) - 1
    for i, step in enumerate(trace.step_logd):
        assert step == E_METRIC.log_distance(trace.points[i], trace.points[i + 1])


def test_step_length_mismatch_rejected():
    with pytest.raises(DomainError):
        mx.IterationTrace(metric=E_METRIC, points=((0.0,), (1.0,)), step_logd=())


def test_status_wire_strings():
    assert [s.value for s in mx.Status] == [
        "running", "converged", "max_iter", "diverged", "cycle_detected",
    ]


# -- convergence checks -------------------------------------------------------


def test_constant_trace_converges_to_itself():
    trace = mx.IterationTrace.from_points(E_METRIC, [1.0] * 5)
    assert mx.is_converged_to(trace, 1.0, eps=1.0001)


def test_orbit_of_reciprocal_offset_map_converges():
    T = mx.SelfMapSpec.rational(2.0)
    trace = mx.IterationTrace.from_points(
        mx.MetricSpec.exp_reciprocal(), orbit(T, 1.0, 40)
    )
    assert mx.is_converged_to(trace, 0.4142135624, eps=math.exp(1e-6))


def test_translation_orbit_never_converges():
    T = mx.SelfMapSpec.affine([[1.0]], [1.0])
    trace = mx.IterationTrace.from_points(E_METRIC, orbit(T, 0.0, 20))
    assert not mx.is_converged_to(trace, 5.0, eps=math.exp(0.5))


def test_is_converged_to_validates():
    trace = mx.IterationTrace.from_points(E_METRIC, [0.0])
    with pytest.raises(DomainError):
        mx.is_converged_to(trace, 0.0, eps=1.0)
    empty = mx.IterationTrace(metric=E_METRIC, points=(), step_logd=())
    with pytest.raises(DomainError):
        mx.is_converged_to(empty, 0.0, eps=2.0)


# -- Cauchy indicator ---------------------------------------------------------


def test_cauchy_indicator_zero_for_constant_trace():
    trace = mx.IterationTrace.from_points(E_METRIC, [2.0] * 6)
    assert mx.cauchy_indicator(trace, window=6) == 0.0


def test_cauchy_indicator_matches_brute_force_on_geometric_trace():
    c, delta, n, window = 0.5, 0.6, 30, 10
    trace = geometric_trace(c, delta, n)
    indicator = mx.cauchy_indicator(trace, window)
    tail = trace.points[-window:]
    brute = max(
        E_METRIC.log_distance(tail[i], tail[j])
        for i in range(window) for j in range(i + 1, window)
    )
    assert indicator == brute
    # closed-form ceiling for the geometric walk
    assert indicator <= c * delta ** (n - window) / (1 - delta) + 1e-12


def test_cauchy_indicator_nonincreasing_in_window_start():
    trace = geometric_trace()
    values = [mx.cauchy_indicator(trace, w) for w in range(len(trace), 1, -1)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_alternating_trace_is_never_cauchy():
    trace = mx.IterationTrace.from_points(E_METRIC, [0.0, 1.0] * 5)
    gap = E_METRIC.log_distance(0.0, 1.0)
    assert mx.cauchy_indicator(trace, window=10) == gap


def test_cauchy_indicator_window_validation():
    trace = geometric_trace(n=5)
    with pytest.raises(DomainError):
        mx.cauchy_indicator(trace, window=6)
    with pytest.raises(DomainError):
        mx.cauchy_indicator(trace, window=0)


@pytest.mark.parametrize("window", [2.5, 3.0, True, "3"])
def test_cauchy_indicator_rejects_a_window_that_is_not_an_integer(window):
    with pytest.raises(DomainError, match="window must be an integer"):
        mx.cauchy_indicator(geometric_trace(n=5), window)


# -- limit points -------------------------------------------------------------


def test_limit_point_of_converging_trace_is_near_the_tail():
    trace = geometric_trace(c=0.5, delta=0.5, n=40)
    z = mx.detect_limit_point(trace, eps=math.exp(0.01))
    assert z is not None
    assert E_METRIC.log_distance(z, trace.last) < 0.01


def test_limit_point_of_alternating_trace_is_the_earliest():
    trace = mx.IterationTrace.from_points(E_METRIC, [0.0, 1.0] * 6)
    assert mx.detect_limit_point(trace, eps=math.exp(0.1)) == (0.0,)


def test_escaping_trace_has_no_limit_point():
    points = [float(n) for n in range(12)]
    trace = mx.IterationTrace.from_points(E_METRIC, points)
    assert mx.detect_limit_point(trace, eps=math.e) is None


def test_limit_point_validation():
    trace = mx.IterationTrace.from_points(E_METRIC, [0.0])
    with pytest.raises(DomainError):
        mx.detect_limit_point(trace, eps=2.0)


@pytest.mark.parametrize("n, copies, found", [
    (8, 2, True), (8, 1, False), (9, 3, True), (9, 2, False),
])
def test_a_limit_point_holds_a_quarter_of_the_trace(n, copies, found):
    # `copies` points at 0 and the rest a unit apart: the ball of log radius
    # 1/2 about 0 holds `copies` points, and a limit point needs ceil(n / 4)
    points = [0.0] * copies + [float(k) for k in range(1, n - copies + 1)]
    trace = mx.IterationTrace.from_points(E_METRIC, points)
    assert mx.detect_limit_point(trace, eps=math.exp(0.5)) == ((0.0,) if found else None)


# -- export -------------------------------------------------------------------


def test_csv_schema_and_values():
    trace = mx.IterationTrace.from_points(
        E_METRIC, [(0.0, 1.0), (1.0, 1.0), (1.5, 1.0)], status=mx.Status.CONVERGED
    )
    text = trace.to_csv_text()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["n", "x0", "x1", "step_logd"]
    assert rows[1] == ["0", "0.0", "1.0", "1.0"]
    assert rows[3][0] == "2" and rows[3][-1] == ""  # no step on the last row
    assert len(rows) == 1 + len(trace.points)


def test_json_mirror_matches_csv_columns():
    trace = mx.IterationTrace.from_points(E_METRIC, [0.0, 0.5, 0.75])
    data = trace.to_json_dict()
    assert data["columns"] == ["n", "x0", "step_logd"]
    assert data["points"] == ((0.0,), (0.5,), (0.75,))
    assert data["n"] == (0, 1, 2)
    assert data["step_logd"] == trace.step_logd
    assert data["status"] == "running"
    assert data["metric"] == {"kind": "exp_abs", "a": math.e}
