"""The pair kernel against the scalar reference path.

``log_distance_matrix`` must equal scalar ``log_distance`` bit for bit, and
``classify`` / ``estimate_constants`` (built on three log-distance matrices)
must give exactly what a loop over the scalar ``check_*`` functions of
``scalar_reference`` gives.
The orbit scans (limit points, Cauchy windows, bound rows) must give
exactly what their former scalar loops gave.  The private kernel that
internal scans read must equal the public one on checked points,
``picard`` must give what a loop of public calls gives and call the map as
often (but past a detected cycle), ``picard`` must pass a FunctionMetric's
distance function the pairs its loop passes it, in order, and each public
function must still reject the invalid points it rejected before.
"""

import contextlib
import dataclasses
import math
import random
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mulfix as mx
from mulfix import conditions, maps, metrics, sequences, solver
from mulfix.errors import DomainError
import scalar_reference
from scalar_reference import (bits, picard_outcome, record_walk,
                              reference_bound_rows, reference_cauchy_indicator,
                              reference_classify, reference_detect_limit_point,
                              reference_picard)

METRICS = [
    mx.MetricSpec.star_product(),
    mx.MetricSpec.lifted("euclidean", a=2.0),
    mx.MetricSpec.lifted("manhattan", a=3.0),
    mx.MetricSpec.lifted("chebyshev", a=10.0),
    mx.MetricSpec.exp_abs(2.0),
    mx.MetricSpec.exp_reciprocal(),
    mx.MetricSpec.discrete(3.0),
    mx.FunctionMetric(lambda x, y: 1.0 + sum(abs(a - b) for a, b in zip(x, y)),
                      "one_plus"),
    mx.FunctionMetric(lambda x, y: 0.5 if x != y else 1.0, "shrunk"),
]

# Dimension-preserving maps; the coordinate pool below holds the rational
# map's pole (-0.5), non-positive points for reciprocal_sqrt and powers,
# and values whose images or distances overflow.
MAPS = [
    lambda d: mx.SelfMapSpec.scale(0.5),
    lambda d: mx.SelfMapSpec.rational(0.5),
    lambda d: mx.SelfMapSpec.power(2.0),
    lambda d: mx.SelfMapSpec.power(0.5),
    lambda d: mx.SelfMapSpec.reciprocal_sqrt(),
    lambda d: mx.SelfMapSpec.constant((0.25,) * d),
    lambda d: mx.SelfMapSpec.identity(),
    lambda d: mx.SelfMapSpec.negation(),
    lambda d: mx.SelfMapSpec.affine(
        [[0.5 if i == j else 0.25 for j in range(d)] for i in range(d)], (0.1,) * d),
]

POOL = (-2.0, -0.5, 0.0, 0.25, 0.5, 1.0, 3.0, 1e300, -1e300, 5e-324)

PHIS = [None, mx.PhiSpec("example317"), mx.PhiSpec("power_product", q=0.25),
        mx.PhiSpec("psi_sqrt", psi="sqrt"),
        mx.PhiSpec("custom_table", alpha=0.5, beta=2.0)]


def random_sample(rng: random.Random, dim: int) -> list:
    """2 to 8 points from the pool or uniform draws; points may repeat."""
    points = []
    for _ in range(rng.randint(2, 8)):
        if points and rng.random() < 0.25:
            points.append(rng.choice(points))
        else:
            points.append(tuple(rng.choice(POOL) if rng.random() < 0.5
                                else rng.uniform(-3.0, 3.0) for _ in range(dim)))
    return points


# -- what a call gave, and the kernel side of classify ------------------------


def outcome(fn, *args):
    """The value of fn(*args), or the type and text of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return ("raised", type(exc).__name__, str(exc))


def kernel_classify(metric, T, points, constants, phi):
    report = mx.classify(metric, T, points, constants, phi)
    # the columns, whose NaN and infinities the records hold as None
    records = [(i, j, cid, ok, bits(slack), error)
               for i, j, cid, ok, slack, error in record_walk(report.rows)]
    est = report.estimates
    estimates = (est.xi_hat, est.eta_hat, est.lambda_hat, est.pairs_used,
                 est.pairs_skipped)
    return records, report.verdicts, report.n_pairs, report.skipped_pairs, estimates


# -- properties ---------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), metric=st.sampled_from(METRICS),
       dim=st.integers(1, 3))
def test_log_distance_matrix_equals_scalar_log_distance(seed, metric, dim):
    rng = random.Random(seed)
    X, Y = random_sample(rng, dim), random_sample(rng, dim)
    scalar = outcome(lambda: [[bits(metric.log_distance(x, y)) for y in Y] for x in X])
    matrix = outcome(lambda: [[bits(v) for v in row]
                              for row in metric.log_distance_matrix(X, Y).tolist()])
    if scalar[0] == "raised":
        assert matrix[0] == "raised" and matrix[1] == scalar[1]
    else:
        assert matrix == scalar


@pytest.mark.parametrize("metric", METRICS[:7], ids=lambda m: f"{m.kind}-{m.base}")
def test_log_distance_matrix_is_exact_on_many_values(metric):
    # np.log differs from math.log in the last bit on roughly 1 value in
    # 2,000, and a vectorised Euclidean norm from math.dist far more often;
    # 20,000 entries make either difference all but certain to show.
    rng = random.Random(5)
    X = [(rng.uniform(0.01, 100.0), rng.uniform(0.01, 100.0)) for _ in range(10_000)]
    Y = [(rng.uniform(0.01, 100.0), rng.uniform(0.01, 100.0)) for _ in range(2)]
    D = metric.log_distance_matrix(X, Y).tolist()
    assert D == [[metric.log_distance(x, y) for y in Y] for x in X]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), metric=st.sampled_from(METRICS),
       make_map=st.sampled_from(MAPS), dim=st.integers(1, 3),
       phi=st.sampled_from(PHIS), declared=st.booleans())
def test_classify_equals_the_scalar_reference_loop(seed, metric, make_map, dim, phi,
                                                   declared):
    rng = random.Random(seed)
    points = random_sample(rng, dim)
    T = make_map(dim)
    constants = mx.ZamfirescuConstants(
        rng.choice([0.0, 0.5, 0.9]), rng.choice([0.0, 0.3, 0.49]),
        rng.choice([0.0, 0.3, 0.49])) if declared else None
    args = (metric, T, points, constants, phi)
    expected = outcome(reference_classify, *args, metrics.DEFAULT_LOG_TOL, 0.0)
    got = outcome(kernel_classify, *args)
    assert got == expected
    if expected[0] != "raised":
        est = mx.estimate_constants(metric, T, points)
        assert (est.xi_hat, est.eta_hat, est.lambda_hat, est.pairs_used,
                est.pairs_skipped) == expected[4]


# rounds both points to the nearest integer and measures 1 where they agree:
# distinct points with the same rounding collapse to distance 1
ROUNDED = mx.FunctionMetric(
    lambda x, y: 1.0 if round(x[0]) == round(y[0]) else 2.0 ** abs(x[0] - y[0]), "rounded")


def test_a_collapsed_pair_is_skipped_by_estimation_and_evaluated_by_classify(caplog):
    points = [(0.1,), (0.2,), (1.0,), (2.6,), (2.9,)]  # pairs (0, 1) and (3, 4) collapse
    T = mx.SelfMapSpec.scale(0.5)
    reference = scalar_reference.reference_estimate(ROUNDED, T, points)
    with caplog.at_level("WARNING", logger="mulfix.conditions"):
        est = mx.estimate_constants(ROUNDED, T, points)
    assert (est.pairs_used, est.pairs_skipped) == (8, 2)
    assert (est.xi_hat, est.eta_hat, est.lambda_hat, est.pairs_used,
            est.pairs_skipped) == reference
    assert caplog.messages == [
        "2 distinct pairs collapsed to distance 1, skipped; the first: (0.1,) / (0.2,)"]
    report = mx.classify(ROUNDED, T, points)
    assert len(report.rows.i) == 10 and not report.rows.errors
    args = (ROUNDED, T, points, None, None)
    assert kernel_classify(*args) == reference_classify(*args, metrics.DEFAULT_LOG_TOL, 0.0)


# -- one map call per point, no per-pair scalar calls ------------------------------


def counting(T):
    calls = []

    def counted(p):
        calls.append(p)
        return T(p)
    return counted, calls


@pytest.mark.parametrize("run", [
    lambda metric, T, sample: mx.classify(metric, T, sample,
                                          phi=mx.PhiSpec("example317")),
    lambda metric, T, sample: mx.estimate_constants(metric, T, sample),
])
def test_the_map_is_called_once_per_sample_point(run):
    sample = mx.grid_points(mx.Box(((1.0, 2.0),)), 30)
    T, calls = counting(mx.SelfMapSpec.reciprocal_sqrt())
    run(mx.MetricSpec.exp_abs(2.0), T, sample)
    assert calls == sample


@pytest.mark.parametrize("name, expectations", [
    ("example_3_17", ("phi_holds", "map_invariant", "axioms_pass")),
    ("example_3_15", ("apriori_bound", "map_invariant", "axioms_pass")),
])
def test_run_experiment_maps_and_measures_its_sample_once(monkeypatch, name,
                                                         expectations):
    from mulfix import experiment

    base = mx.fixture_config(name)
    T, calls = counting(base.map)
    config = dataclasses.replace(base, map=T, sample_size=12, expectations=expectations)
    sample = [tuple(p) for p in mx.sample_box(config.domain, 12, config.seed,
                                              config.sample_scheme)]
    seen, sample_matrices = {}, []

    def spied(fn, key):
        def call(*args, **kwargs):
            seen[key + " starts"] = list(calls)
            result = fn(*args, **kwargs)
            seen[key + " ends"] = list(calls)
            return result
        return call

    monkeypatch.setattr(experiment, "verify_start_independence",
                        spied(experiment.verify_start_independence, "solver"))
    monkeypatch.setattr(experiment, "uniqueness_probe",
                        spied(experiment.uniqueness_probe, "uniqueness"))
    kernel = mx.MetricSpec._log_distance_matrix

    def counted_kernel(metric, X, Y):
        if list(X) == sample and list(Y) == sample:
            sample_matrices.append(X)
        return kernel(metric, X, Y)

    monkeypatch.setattr(mx.MetricSpec, "_log_distance_matrix", counted_kernel)
    report = mx.run_experiment(config)
    assert list(report.sample) == sample
    assert seen["solver starts"] == sample  # once per sample point before Picard
    assert calls == seen["uniqueness ends"]  # and none after the solver
    assert len(sample_matrices) == 1
    assert report.expectations[0].passed  # PHI's diagonal, or the bounds, were read


def test_run_experiment_compares_its_sample_points_once(monkeypatch):
    calls, equal_points = [], metrics.equal_points

    def counted(points):
        calls.append(len(points))
        return equal_points(points)

    for module in (metrics, conditions):
        monkeypatch.setattr(module, "equal_points", counted)
    config = dataclasses.replace(mx.fixture_config("example_3_17"), sample_size=12)
    report = mx.run_experiment(config)
    assert calls == [12]  # the axioms and the pair table read one matrix
    assert report.axioms.ok and report.classification.n_pairs == 66


def test_bound_rows_of_a_run_equal_the_public_check():
    # the 928-point trace of scale(0.98) under exp_abs(2)
    config = mx.SolverConfig(eps=math.exp(1e-9), max_iter=2000, starts=((1.0,),))
    for metric in (mx.MetricSpec.exp_abs(2.0), METRICS[7]):
        run = mx.picard(metric, mx.SelfMapSpec.scale(0.98), (1.0,), config)
        assert run.status is mx.Status.CONVERGED and len(run.trace.points) > 900
        for delta in (0.0, 0.5, 0.98):
            public = mx.verify_bound(run, delta)
            own = solver._verify_bound(run, delta)
            assert [tuple(map(bits, row)) for row in own.rows] \
                == [tuple(map(bits, row)) for row in public.rows] \
                == [tuple(map(bits, row)) for row in reference_bound_rows(run, delta)]
            assert own == public


def test_run_experiment_bound_rows_equal_the_public_check(report_3_15):
    delta = report_3_15.config.constants.delta
    assert len(report_3_15.bounds) == len(report_3_15.runs) == 3
    for bound, run in zip(report_3_15.bounds, report_3_15.runs):
        assert bound == mx.verify_bound(run, delta)


def test_run_experiment_reads_no_bound_row_through_the_public_kernel(monkeypatch):
    config = mx.fixture_config("example_3_15")
    public = mx.MetricSpec.log_distance_matrix
    traces = []

    def counted(metric, X, Y):
        traces.append(len(list(X)))
        return public(metric, X, Y)

    monkeypatch.setattr(mx.MetricSpec, "log_distance_matrix", counted)
    report = mx.run_experiment(config)
    assert report.bounds and traces == []  # each point was checked where it entered


def test_no_per_pair_log_distance_check_or_map_call(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("per-pair scalar call")

    monkeypatch.setattr(mx.MetricSpec, "log_distance", forbidden)
    sample = mx.sample_box(mx.Box(((-6.0, 6.0), (-6.0, 6.0))), 40, seed=2016)
    T, calls = counting(mx.SelfMapSpec.scale(2.0 / 3.0))
    report = mx.classify(mx.MetricSpec.lifted("euclidean", a=2.0), T, sample,
                         phi=mx.PhiSpec("example317"))
    assert len(calls) == len(sample)
    assert len(report.records) == 7 * report.n_pairs
    assert report.overall == "t2 applicable via C1 and C3"


# -- orbit scans against their scalar loops ----------------------------------------

# Positive coordinates lie in every metric's space; 5e-324 makes
# exp_reciprocal subtract inf from inf, a NaN entry.
ORBIT_POOL = (5e-324, 1e-300, 0.5, 1.0, 1.0 + 2.0 ** -52, 1.0 + 1e-10, 2.0, 3.0)


def random_orbit(rng: random.Random, dim: int) -> list:
    """2 to 12 points, or 90 to 130 whose first 64 to 70 are uniform draws.

    Each later point repeats the first one after those draws, exactly or
    nudged by an ulp in one coordinate, or is a pool value or a uniform
    draw; so a long orbit's limit point may lie past the first row block.
    """
    if rng.random() < 0.5:
        n, fresh = rng.randint(2, 12), 1
    else:
        n, fresh = rng.randint(90, 130), rng.randint(64, 70)
    points = []
    for k in range(n):
        u = rng.random()
        if k > fresh and u < 0.3:
            points.append(points[fresh])
        elif k > fresh and u < 0.5:
            p = list(points[fresh])
            i = rng.randrange(dim)
            p[i] = math.nextafter(p[i], math.inf)
            points.append(tuple(p))
        else:
            points.append(tuple(rng.choice(ORBIT_POOL) if k >= fresh and u < 0.75
                                else rng.uniform(0.1, 3.0) for _ in range(dim)))
    return points


# d(x, y) != d(y, x): a swapped argument order shows
ONE_SIDED = mx.FunctionMetric(lambda x, y: 1.0 + max(0.0, x[0] - y[0]), "one_sided")


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), metric=st.sampled_from(METRICS + [ONE_SIDED]),
       dim=st.integers(1, 2),
       eps=st.sampled_from([math.exp(1e-12), math.exp(1e-3), math.exp(0.5), math.exp(5)]),
       delta=st.sampled_from([0.0, 0.5, 0.9]))
def test_orbit_scans_equal_their_scalar_loops(seed, metric, dim, eps, delta):
    rng = random.Random(seed)
    points = random_orbit(rng, dim)
    trace = mx.IterationTrace.from_points(metric, points)

    assert (mx.detect_limit_point(trace, eps)
            == reference_detect_limit_point(trace, eps, 0.25))
    window = rng.randint(1, len(points))
    assert (bits(mx.cauchy_indicator(trace, window))
            == bits(reference_cauchy_indicator(trace, window)))

    result = mx.FixedPointResult(point=rng.choice(points), residual_logd=0.0,
                                 iterations=len(points) - 1, trace=trace,
                                 status=mx.Status.CONVERGED)
    # a FunctionMetric's first step can be negative or NaN: both paths raise
    rows = outcome(lambda: [(n, bits(o), bits(b))
                            for n, o, b in mx.verify_bound(result, delta).rows])
    assert rows == outcome(lambda: [(n, bits(o), bits(b))
                                    for n, o, b in reference_bound_rows(result, delta)])


def test_cauchy_indicator_reads_only_forward_pairs_in_every_row_block():
    # ONE_SIDED exceeds 1 only from a larger first coordinate to a smaller
    rising = mx.IterationTrace.from_points(ONE_SIDED, [float(k) for k in range(150)])
    assert mx.cauchy_indicator(rising, 150) == 0.0
    falling = mx.IterationTrace.from_points(ONE_SIDED, rising.points[::-1])
    assert mx.cauchy_indicator(falling, 150) == math.log(150.0)


def test_a_function_metric_receives_only_the_forward_pairs_of_a_cauchy_scan():
    # the function fails on a reversed pair, which the scan need not read
    forward = mx.FunctionMetric(
        lambda x, y: 2.0 if x < y else 1.0 if x == y else math.nan, "forward")
    trace = mx.IterationTrace(forward, tuple((float(k),) for k in range(150)), (0.0,) * 149)
    assert mx.cauchy_indicator(trace, 150) == math.log(2.0)


def test_a_stalled_run_makes_few_scalar_log_distance_calls(monkeypatch):
    calls = 0
    log_distance = mx.MetricSpec.log_distance

    def counted(metric, x, y):
        nonlocal calls
        calls += 1
        return log_distance(metric, x, y)

    monkeypatch.setattr(mx.MetricSpec, "log_distance", counted)
    result = mx.picard(mx.MetricSpec.exp_abs(2.0), mx.SelfMapSpec.scale(0.999), 1.0,
                       mx.SolverConfig(eps=math.exp(1e-9), max_iter=2000))
    assert result.status is mx.Status.MAX_ITER and result.iterations == 2000
    assert result.restarted_from is None
    assert calls <= 3 * result.iterations


# -- public functions validate their points once per call ----------------------


def test_uniqueness_probe_rejects_candidates_of_mixed_dimension():
    with pytest.raises(DomainError) as err:
        mx.uniqueness_probe(mx.MetricSpec.exp_abs(2.0), mx.SelfMapSpec.identity(),
                            [(1.0,), (1.0, 2.0)], math.e)
    assert str(err.value) == "point 1: dimension mismatch: 1 vs 2"


def test_start_independence_rejects_limits_of_mixed_dimension():
    config = mx.SolverConfig(eps=math.e, max_iter=50, starts=((1.0,), (1.0, 2.0)))
    with pytest.raises(DomainError) as err:
        mx.verify_start_independence(mx.MetricSpec.exp_abs(2.0),
                                     mx.SelfMapSpec.scale(0.5), config)
    assert str(err.value) == "point 1: dimension mismatch: 1 vs 2"


def test_uniqueness_probe_rejects_a_candidate_outside_the_space():
    # the candidate's own run escapes at its first step; it is bad input
    with pytest.raises(DomainError) as err:
        mx.uniqueness_probe(mx.MetricSpec.star_product(), mx.SelfMapSpec.identity(),
                            [(-1.0,), (1.0,)], math.e)
    assert str(err.value) == "point 0: star_product needs positive coordinates, got (-1.0,)"


# zip drops the coordinates past the shorter point, so only the checks can
# tell a pair of two dimensions from a pair of one
ZIPPED = mx.FunctionMetric(lambda x, y: 1.0 + sum(abs(a - b) for a, b in zip(x, y)),
                           "zipped")


def hand_built(metric, points):
    """A trace from the constructor, whose points nothing has checked."""
    return mx.IterationTrace(metric=metric, points=tuple(points),
                             step_logd=(0.0,) * (len(points) - 1))


def bound_rows(trace):
    result = mx.FixedPointResult(point=(1.0,), residual_logd=0.0, iterations=2,
                                 trace=trace, status=mx.Status.CONVERGED)
    return mx.verify_bound(result, 0.5).rows


@pytest.mark.parametrize("metric, bad, message", [
    (mx.MetricSpec.star_product(), (-1.0,),
     "point 1: star_product needs positive coordinates, got (-1.0,)"),
    (mx.MetricSpec.exp_abs(2.0), (math.nan,), "non-finite coordinate nan"),
    (mx.MetricSpec.exp_abs(2.0), (1.0, 2.0), "point 1: dimension mismatch: 1 vs 2"),
], ids=["outside-the-space", "nan", "mixed-dimensions"])
@pytest.mark.parametrize("scan", [
    lambda trace: mx.detect_limit_point(trace, math.e),
    lambda trace: mx.cauchy_indicator(trace, len(trace)),
    bound_rows,
], ids=["detect_limit_point", "cauchy_indicator", "verify_bound"])
def test_scans_of_a_hand_built_trace_reject_invalid_points(metric, bad, message, scan):
    trace = hand_built(metric, [(1.0,), bad, (2.0,)])
    with pytest.raises(DomainError) as err:
        scan(trace)
    assert str(err.value) == message


def test_a_function_metric_rejects_points_of_mixed_dimension_everywhere():
    # as classify always did: the checks are the ones a MetricSpec's are
    for call in (lambda sample: mx.verify_axioms(ZIPPED, sample),
                 lambda sample: mx.verify_reverse_triangle(ZIPPED, sample),
                 lambda sample: mx.classify(ZIPPED, mx.SelfMapSpec.scale(0.5), sample),
                 lambda sample: bound_rows(hand_built(ZIPPED, sample))):
        with pytest.raises(DomainError) as err:
            call([(1.0,), (1.0, 2.0), (3.0,)])
        assert str(err.value) == "point 1: dimension mismatch: 1 vs 2"


def test_scans_of_a_hand_built_trace_take_lists_and_bare_numbers():
    trace = hand_built(mx.MetricSpec.exp_abs(2.0), ([1.0], [1.5], 2.0))
    assert mx.cauchy_indicator(trace, 3) == math.log(2.0)
    assert mx.detect_limit_point(trace, math.e) == [1.0]  # as stored


def test_a_window_of_one_point_reads_no_distance():
    trace = hand_built(mx.MetricSpec.exp_abs(2.0), [(1.0,), (math.nan,)])
    assert mx.cauchy_indicator(trace, 1) == 0.0


def count_as_point(monkeypatch) -> list:
    """A list that gets one item per ``as_point`` call in the library."""
    calls, as_point = [], metrics.as_point

    def counted(value):
        calls.append(value)
        return as_point(value)

    for module in (metrics, solver, sequences, maps):
        monkeypatch.setattr(module, "as_point", counted)
    return calls


def stalled_picard(T):
    result = mx.picard(mx.MetricSpec.exp_abs(2.0), T, 1.0,
                       mx.SolverConfig(eps=math.exp(1e-9), max_iter=2000))
    assert result.status is mx.Status.MAX_ITER and result.iterations == 2000
    return result


def test_a_stalled_run_validates_each_iterate_a_few_times(monkeypatch):
    # a SelfMapSpec's images are tuples of floats: only their finiteness is checked
    calls = count_as_point(monkeypatch)
    stalled_picard(mx.SelfMapSpec.scale(0.999))
    assert len(calls) <= 10


def test_a_stalled_run_of_a_plain_callable_validates_each_iterate_once(monkeypatch):
    calls = count_as_point(monkeypatch)
    result = stalled_picard(lambda p: (0.999 * p[0],))
    assert len(calls) <= result.iterations + 10


def test_a_numpy_scalar_parameter_gives_the_trace_of_a_float_one():
    # a SelfMapSpec's images skip as_point, so they must come out as Python floats
    config = mx.SolverConfig(eps=math.exp(1e-9), max_iter=200)
    runs = [mx.picard(mx.MetricSpec.exp_abs(2.0), T, 1.0, config)
            for T in (mx.SelfMapSpec("scale", c=np.float64(0.5)), mx.SelfMapSpec.scale(0.5))]
    assert runs[0].trace.to_csv_text() == runs[1].trace.to_csv_text()
    assert {type(c) for p in runs[0].trace.points for c in p} == {float}


def shift_then_widen(p):  # 1.0, 0.5, 0.25, 0.125, 0.0625, then a second coordinate
    return (0.5 * p[0],) if p[0] > 0.1 else (p[0], 1.0)


# A Picard run checks its start at its first step only, and each later step
# only its new iterate; an escape must still raise where and as a
# step-by-step scan raises it.
@pytest.mark.parametrize("metric, T, start, config, message", [
    (mx.MetricSpec.star_product(), mx.SelfMapSpec.scale(0.5), (-1.0,),
     mx.SolverConfig(max_iter=20),
     "iterate 1 left the metric's domain: (-0.5,) "
     "(star_product needs positive coordinates, got (-1.0,))"),
    (mx.MetricSpec.exp_reciprocal(), mx.SelfMapSpec.identity(), (0.0,),
     mx.SolverConfig(max_iter=20),
     "iterate 1 left the metric's domain: (0.0,) "
     "(exp_reciprocal needs nonzero coordinates, got (0.0,))"),
    (mx.MetricSpec.exp_reciprocal(), lambda p: (p[0] - 0.5,), (1.5,),
     mx.SolverConfig(max_iter=20),
     "iterate 3 left the metric's domain: (0.0,) "
     "(exp_reciprocal needs nonzero coordinates, got (0.0,))"),
    (mx.MetricSpec.exp_abs(2.0), shift_then_widen, (1.0,), mx.SolverConfig(max_iter=20),
     "iterate 5 left the metric's domain: (0.0625, 1.0) (dimension mismatch: 1 vs 2)"),
    (mx.MetricSpec.exp_abs(2.0), mx.SelfMapSpec.affine(((1.0,), (2.0,)), (0.0, 0.0)),
     (1.0,), mx.SolverConfig(max_iter=20),
     "iterate 1 left the metric's domain: (1.0, 2.0) (dimension mismatch: 1 vs 2)"),
    # the same step under either metric class
    *[(metric, mx.SelfMapSpec.constant((1.0, 2.0)), (0.5,), mx.SolverConfig(max_iter=20),
       "iterate 1 left the metric's domain: (1.0, 2.0) (dimension mismatch: 1 vs 2)")
      for metric in (mx.MetricSpec.exp_abs(2.0), ZIPPED)],
], ids=["start-outside", "start-at-the-pole", "leaves-at-step-3", "widens-at-step-5",
        "affine-widens", "constant-widens", "function-metric-widens"])
def test_an_escape_is_raised_at_the_iterate_a_step_by_step_scan_names(metric, T, start,
                                                                      config, message):
    args = (metric, T, start, config, None)
    got = picard_outcome(lambda: kernel_picard(*args))
    assert got == picard_outcome(lambda: reference_picard(*args))
    assert got[:2] == ("escaped", message)


def test_an_overflowing_affine_map_diverges_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = mx.picard(mx.MetricSpec.exp_abs(2.0),
                           mx.SelfMapSpec.affine(((1e200,),), (0.0,)), 1.0,
                           mx.SolverConfig(eps=math.exp(1e-9), max_iter=50))
    assert result.status is mx.Status.DIVERGED
    assert result.residual_logd == math.inf


# -- the private kernel and Picard's scans against the public path --------------


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), metric=st.sampled_from(METRICS + [ONE_SIDED]),
       dim=st.integers(1, 2))
def test_the_private_kernel_equals_the_public_one_on_checked_points(seed, metric, dim):
    rng = random.Random(seed)
    points = [p for p in random_sample(rng, dim) + random_orbit(rng, dim)
              if metric._outside(p, dim) is None]
    cut = rng.randint(0, len(points))
    X, Y = points[:cut], points[cut:]
    public = outcome(lambda: [list(map(bits, row)) for row in
                              metric.log_distance_matrix(X, Y).tolist()])
    private = outcome(lambda: [list(map(bits, row)) for row in
                               metric._log_distance_matrix(metric._checked(X),
                                                           metric._checked(Y)).tolist()])
    assert private == public


def kernel_picard(metric, T, x0, config, domain):
    result = mx.picard(metric, T, x0, config, domain)
    trace = result.trace
    return (trace.points, trace.step_logd, result.status, result.iterations,
            result.restarted_from, result.residual_logd, result.continuity_log_ratio)


def solver_constants(window=None, lookback=None):
    """The solver's window and look-back, those given set for the body of a
    with statement; a hypothesis test cannot take the function-scoped
    monkeypatch fixture."""
    patches = contextlib.ExitStack()
    for name, value in (("_WINDOW", window), ("_LOOKBACK", lookback)):
        if value is not None:
            patches.enter_context(mock.patch.object(solver, name, value))
    return patches


# Maps whose orbits converge, stall, cycle, restart away from the start,
# diverge, fail, change dimension, or leave star_product's or
# exp_reciprocal's space (a coordinate at or below 0) or a declared box;
# Picard applies the SelfMapSpecs among them through their bound kernels,
# without re-checking the point, and checks only their images' finiteness.
ORBIT_MAPS = [
    mx.SelfMapSpec.scale(0.5),
    mx.SelfMapSpec.rational(0.5),
    mx.SelfMapSpec.negation(),
    mx.SelfMapSpec.affine(((1e200,),), (0.0,)),  # overflows; 1-d starts only
    mx.SelfMapSpec.power(0.5),  # fails at a negative coordinate
    mx.SelfMapSpec.reciprocal_sqrt(),  # fails at a coordinate <= 0
    mx.SelfMapSpec.constant((2.0,)),  # changes a 2-d start's dimension
    mx.SelfMapSpec.identity(),
    mx.SelfMapSpec.scale(1e300),  # an image of inf, after a finite one
    lambda p: tuple(0.5 * c for c in p),
    lambda p: tuple(2.0 * c for c in p),
    lambda p: tuple(c - 0.5 for c in p),
    lambda p: tuple(-c for c in p),
    lambda p: tuple(1.0 / c for c in p),
    lambda p: tuple(math.sqrt(abs(c)) for c in p),
    lambda p: tuple(0.999 * c for c in p),
    lambda p: tuple(2.0 + 0.9 * (c - 2.0) for c in p),
    lambda p: tuple({2.0: 3.0, 3.0: 4.0}.get(c, 2.0) for c in p),  # restarts from 2
    lambda p: tuple(3.0 if 1.5 < c < 2.5 else 4.0 if 2.5 < c < 3.5 else 2.0 + 1e-7 * c
                    for c in p),  # restarts near 2, with close points for continuity
    lambda p: p + (1.0,) if p[0] < 0.6 else tuple(0.7 * c for c in p),
    lambda p: tuple(c * 1e200 for c in p),
    lambda p: (math.nan,) * len(p),
]


@settings(max_examples=300, deadline=None)
@given(metric=st.sampled_from(METRICS + [ONE_SIDED]), T=st.sampled_from(ORBIT_MAPS),
       start=st.sampled_from([(1.0,), (2.5,), (0.0,), (-1.5,), (1.0, 3.0), (0.5, -2.0)]),
       box=st.sampled_from([None, None, (-3.0, 3.0), (0.1, 5.0)]),
       eps=st.sampled_from([math.exp(1e-12), math.exp(1e-6), math.exp(1e-2), math.exp(0.5)]),
       max_iter=st.integers(1, 60), window=st.integers(2, 6),
       lookback=st.integers(2, 6), monotone=st.booleans(), restart=st.booleans())
def test_picard_equals_the_loop_of_public_calls(metric, T, start, box, eps, max_iter,
                                               window, lookback, monotone, restart):
    domain = None if box is None else mx.Box((box,) * len(start))
    config = mx.SolverConfig(eps=eps, max_iter=max_iter,
                             check_monotone_residual=monotone,
                             limit_point_restart=restart)
    args = (metric, T, start, config, domain)
    with solver_constants(window, lookback):
        assert (picard_outcome(lambda: kernel_picard(*args))
                == picard_outcome(lambda: reference_picard(*args)))


def test_a_restart_reads_the_distances_from_the_orbit_to_the_limit_point():
    # ONE_SIDED is 1 from a point to any larger one.  The orbit 3, 1, 0.75,
    # 0.5, ... stalls: its steps after the first are small, its window is
    # not.  Its limit point lies past the start, and the one point close to
    # it is the one above it, at ratio 1 under the shift.
    args = (ONE_SIDED, lambda p: (p[0] - 0.25 if p[0] < 2.0 else 1.0,), (3.0,),
            mx.SolverConfig(eps=math.exp(0.3), max_iter=30), None)
    got = picard_outcome(lambda: kernel_picard(*args))
    assert got == picard_outcome(lambda: reference_picard(*args))
    assert got[4] == (-0.25,) and got[6] == bits(1.0)


# -- long orbits across the solver's look-back blocks ---------------------------

# A MetricSpec run scans its cycle look-back in blocks of 1, 2, 4, ... 64
# steps, so a cycle can lie anywhere inside a block and a run can stop
# anywhere between two block scans.


def drifting(m, tail, dim):
    """A map that drifts from 1.0 up to top = 1 + m/8 in shrinking steps
    (about 0.9 m of them), then follows its tail on the grid top + j/64:

    ``"cycle2"``, ``"cycle3"``  a 2- or 3-cycle from top
    ``"converge"``              halving steps toward top + 1/64
    ``"fail"``, ``"leap"``      top + 1/64, then the float after top (within
                                1e-14 of top, a cycle), where T raises or
                                jumps to 1e6 top
    ``"raise"``                 top + 1/64, where T raises, with no return
                                before
    ``"jump"``                  top + 1/64, where T jumps to 1e6 top, a long
                                step and no event, and on to top: a 3-cycle
    A 4-d map carries three functions of the first coordinate along.
    """
    top = 1.0 + m / 8
    tails = {"cycle2": (top, top + 1 / 64),
             "cycle3": (top, top + 2 / 64, top + 1 / 64),
             "fail": (top, top + 1 / 64, math.nextafter(top, math.inf)),
             "raise": (top, top + 1 / 64)}
    tails["leap"], tails["jump"] = tails["fail"], tails["raise"]

    def step(x):
        if x < top:
            return x + 0.125 + (top - x) / 1024
        if tail == "converge":
            return top + 1 / 64 + 0.5 * (x - top - 1 / 64)
        values = tails[tail]
        if x not in values:
            return top
        if tail in ("fail", "raise") and x == values[-1]:
            raise ValueError(f"no image at {x!r}")
        if tail in ("leap", "jump") and x == values[-1]:
            return 1e6 * top
        return values[(values.index(x) + 1) % len(values)]

    if dim == 1:
        return lambda p: (step(p[0]),)
    return lambda p: (lambda y: (y, y + 1.0, 0.5 * y, 3.0))(step(p[0]))


TAILS = ("cycle2", "cycle3", "converge", "fail", "leap", "raise", "jump")


@settings(max_examples=150, deadline=None)
@given(metric=st.sampled_from(METRICS + [ONE_SIDED]), m=st.integers(80, 230),
       tail=st.sampled_from(TAILS), dim=st.sampled_from([1, 4]),
       box=st.sampled_from([None, None, (0.5, 40.0), (0.5, 15.0)]),
       eps=st.sampled_from([math.exp(1e-12), math.exp(1e-6), math.exp(1e-2)]),
       max_iter=st.integers(50, 300), window=st.integers(2, 12),
       lookback=st.integers(2, 30), monotone=st.booleans(), restart=st.booleans())
def test_long_picard_runs_equal_the_loop_of_public_calls(metric, m, tail, dim, box, eps,
                                                        max_iter, window, lookback,
                                                        monotone, restart):
    start = (1.0,) if dim == 1 else (1.0, 2.0, 2.0, 3.0)
    domain = None if box is None else mx.Box((box,) * dim)
    config = mx.SolverConfig(eps=eps, max_iter=max_iter,
                             check_monotone_residual=monotone,
                             limit_point_restart=restart)
    args = (metric, drifting(m, tail, dim), start, config, domain)
    with solver_constants(window, lookback):
        assert (picard_outcome(lambda: kernel_picard(*args))
                == picard_outcome(lambda: reference_picard(*args)))


def test_a_step_of_exactly_log_eps_starts_neither_scan():
    # under exp_abs(2), 0.5 and -0.5 lie log 2 = log(eps) apart: the orbit
    # is neither looked back on nor a convergence candidate, and runs on
    args = (mx.MetricSpec.exp_abs(2.0), mx.SelfMapSpec.negation(), (0.5,),
            mx.SolverConfig(eps=2.0, max_iter=100, limit_point_restart=False), None)
    got = picard_outcome(lambda: kernel_picard(*args))
    assert got == picard_outcome(lambda: reference_picard(*args))
    assert got[2] is mx.Status.MAX_ITER


# -- how often Picard calls the map --------------------------------------------


@pytest.mark.parametrize("metric", [
    mx.MetricSpec.exp_abs(2.0),
    mx.FunctionMetric(lambda x, y: 1.0 + abs(x[0] - y[0]), "one_plus"),
], ids=["exp_abs", "one_plus"])
@pytest.mark.parametrize("m", [80, 97, 126, 127, 128, 190, 230])
@pytest.mark.parametrize("tail, max_iter, status", [
    ("converge", 400, mx.Status.CONVERGED),
    ("converge", 60, mx.Status.MAX_ITER),
    ("raise", 400, mx.Status.DIVERGED),
    ("fail", 400, mx.Status.CYCLE_DETECTED),
    ("jump", 400, mx.Status.CYCLE_DETECTED),
    ("leap", 400, mx.Status.CYCLE_DETECTED),
    ("cycle2", 400, mx.Status.CYCLE_DETECTED),
    ("cycle3", 400, mx.Status.CYCLE_DETECTED),
])
def test_picard_calls_the_map_as_often_as_a_step_by_step_scan(metric, m, tail, max_iter,
                                                              status):
    # only a run that ends in a detected cycle may have mapped discarded
    # iterates past its cycle point, at most min(iterations, 63) of them
    config = mx.SolverConfig(eps=math.exp(1e-6), max_iter=max_iter,
                             limit_point_restart=False)
    T, calls = counting(drifting(m, tail, 1))
    T_ref, ref_calls = counting(drifting(m, tail, 1))
    result = mx.picard(metric, T, (1.0,), config)
    reference_picard(metric, T_ref, (1.0,), config, None)
    assert result.status is status
    extra = len(calls) - len(ref_calls)
    if status is mx.Status.CYCLE_DETECTED and isinstance(metric, mx.MetricSpec):
        assert 0 <= extra <= min(result.iterations, 63)
    else:
        assert extra == 0


# -- the pairs a FunctionMetric's distance function receives ---------------------


def recording(fn):
    """fn, and the list of the point pairs it receives, exactly, in order."""
    calls = []

    def recorded(x, y):
        calls.append((tuple(map(bits, x)), tuple(map(bits, y))))
        return fn(x, y)
    return recorded, calls


def one_plus(x, y):
    return 1.0 + abs(x[0] - y[0])


def one_plus_to_a_leap(x, y):
    """one_plus, and infinite from a distance of 1,000: a jump's leap is an
    infinite step, which ends its run as diverged."""
    return 1.0 + abs(x[0] - y[0]) if abs(x[0] - y[0]) < 1e3 else math.inf


@pytest.mark.parametrize("m", [80, 127, 128, 190])
@pytest.mark.parametrize("tail", ["fail", "leap", "raise", "jump", "cycle2", "cycle3"])
@pytest.mark.parametrize("lookback", [3, 25])
@pytest.mark.parametrize("dim, fn", [(1, one_plus_to_a_leap), (1, one_plus), (4, one_plus)],
                         ids=["1-leap", "1", "4"])
def test_picard_passes_a_distance_function_the_step_by_step_pairs(m, tail, lookback,
                                                                  dim, fn):
    # every step of these runs is above log(eps), so none reaches a window check
    config = mx.SolverConfig(eps=math.exp(1e-6), max_iter=400, limit_point_restart=False)
    start = (1.0,) if dim == 1 else (1.0, 2.0, 2.0, 3.0)
    kernel_fn, calls = recording(fn)
    loop_fn, loop_calls = recording(fn)
    args = (drifting(m, tail, dim), start, config, None)
    with solver_constants(40, lookback):
        got = picard_outcome(lambda: kernel_picard(mx.FunctionMetric(kernel_fn), *args))
        assert got == picard_outcome(lambda: reference_picard(mx.FunctionMetric(loop_fn),
                                                              *args))
    assert min(map(float.fromhex, got[1])) > config.log_eps
    assert calls == loop_calls


# -- the chain kernel and left-to-right sums -------------------------------------

METRIC_SPECS = [m for m in METRICS if isinstance(m, mx.MetricSpec)]
SPACE_KINDS = ("star_product", "exp_reciprocal")  # a space other than all of R^d


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), metric=st.sampled_from(METRIC_SPECS),
       dim=st.integers(1, 4))
def test_the_chain_kernel_equals_the_scalar_kernel(seed, metric, dim):
    rng = random.Random(seed)
    points = [p for p in random_sample(rng, dim) + random_orbit(rng, dim)
              if metric._outside(p, dim) is None]
    P = points + [rng.choice(points) for _ in points]  # repeats give equal neighbours
    got = [bits(v) for v in metric._chain(P, metrics._array(P)).tolist()]
    assert got == [bits(metric._log_distance(x, y)) for x, y in zip(P, P[1:])]


@pytest.mark.parametrize("metric", METRIC_SPECS, ids=lambda m: f"{m.kind}-{m.base}")
def test_the_chain_kernel_is_exact_on_many_values(metric):
    # as for the matrix kernel: a last-bit difference of np.log or of a
    # vectorised norm would all but certainly show on 10,000 pairs
    rng = random.Random(6)
    P = [(rng.uniform(0.01, 100.0), rng.uniform(0.01, 100.0)) for _ in range(10_001)]
    assert (metric._chain(P, metrics._array(P)).tolist()
            == [metric._log_distance(x, y) for x, y in zip(P, P[1:])])


# Coordinate terms 1, 2**-53, 2**-53: each addition ties back to 1.0, where a
# compensated sum (``sum`` since Python 3.12) gives 1 + 2**-52.
TIE = 2.0 ** -53


@pytest.mark.parametrize("metric, x, y", [
    (mx.MetricSpec.exp_abs(2.0), (1.0, TIE, TIE), (0.0, 0.0, 0.0)),
    (mx.MetricSpec.lifted("manhattan", a=3.0), (0.0, 0.0, 0.0), (1.0, TIE, TIE)),
    (mx.MetricSpec.exp_reciprocal(), (0.5, 2.0 ** 53, 2.0 ** 53), (1.0, 1e300, 1e300)),
    (mx.MetricSpec.star_product(), (math.e, 1.0, 1.0), (1.0, 1.0 - TIE, 1.0 - TIE)),
], ids=["exp_abs", "lifted-manhattan", "exp_reciprocal", "star_product"])
def test_every_kernel_adds_its_terms_left_to_right(metric, x, y):
    if metric.kind == "star_product":
        terms, log_a = [abs(math.log(a) - math.log(b)) for a, b in zip(x, y)], None
    elif metric.kind == "exp_reciprocal":
        terms, log_a = [abs(1.0 / a - 1.0 / b) for a, b in zip(x, y)], 1.0
    else:
        terms, log_a = [abs(a - b) for a, b in zip(x, y)], math.log(metric.a)
    assert terms == [1.0, TIE, TIE]
    assert math.fsum(terms) != scalar_reference.left_to_right(terms)
    expected = scalar_reference.left_to_right(terms)
    expected = bits(expected if log_a is None else log_a * expected)
    assert bits(metric.log_distance(x, y)) == expected
    assert bits(scalar_reference.log_distance(metric, x, y)) == expected
    assert bits(metric.log_distance_matrix([x, y], [y])[0, 0]) == expected
    assert bits(metric._chain([x, y], metrics._array([x, y]))[0]) == expected


# -- the map-ahead of a built-in map, across its blocks ----------------------------

# After its first step, a SelfMapSpec under a MetricSpec maps ahead in
# blocks of 8, 16, ... 256 iterates, so blocks end at iterates 9, 25, 57,
# 121, 249, 505 and 761.  EDGES puts an event on a block's last or first
# iterate, or inside one.
EDGES = (100, 120, 121, 122, 200, 248, 249, 250, 300, 505, 506, 600)


def orbit_of(T, start, n):
    """The start and n iterates, by T's bound kernel."""
    points = [start]
    for _ in range(n):
        points.append(T._call(points[-1]))
    return points


def shrinking(metric, dim):
    """A built-in map and a start whose steps under metric shrink by about
    1% a step."""
    start = tuple(2.0 + k for k in range(dim))
    if metric.kind == "star_product":  # log x -> p log x
        return mx.SelfMapSpec.power(0.99), start
    if metric.kind == "exp_reciprocal":  # 1/x -> (1/c) (1/x)
        return mx.SelfMapSpec.scale(1.01), start
    return mx.SelfMapSpec.scale(0.99), start


def returning(metric, dim, period, n, c=0.95):
    """A built-in map and a start whose orbit closes a ``period``-cycle after
    a transient: the iterate n steps on lies within 1e-14 of the one
    ``period`` steps before it, and no earlier iterate does.

    Period 2 negates and shrinks every coordinate (in the logs for
    star_product, in the reciprocals for exp_reciprocal); period 3, in 4-d,
    permutes three coordinates and shrinks the fourth (toward 1 in a
    space other than all of R^d, where the targeting is approximate).
    """
    log_a = 1.0 if metric.a is None else math.log(metric.a)
    mass = 1e-14 / ((1 - c ** period) * log_a * c ** (n - period - 0.5))
    if period == 3:
        decay = 1.0 if metric.kind in SPACE_KINDS else 0.0
        T = mx.SelfMapSpec.affine(((0.0, 0.0, 1.0, 0.0), (1.0, 0.0, 0.0, 0.0),
                                   (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, c)),
                                  (0.0, 0.0, 0.0, (1 - c) * decay))
        return T, (1.0, 2.0, 3.0, decay + mass)
    if metric.kind == "star_product":
        return mx.SelfMapSpec.power(-c), (math.exp(mass),) + (1.0,) * (dim - 1)
    if metric.kind == "exp_reciprocal":
        return mx.SelfMapSpec.scale(-1 / c), (dim / mass,) * dim
    return mx.SelfMapSpec.scale(-c), (mass,) + (0.0,) * (dim - 1)


def event_run(event, metric, dim, n):
    """(T, start, config, domain) of a built-in map's run whose event falls
    on step n, its first step that fails a check of the map-ahead."""
    config = dict(eps=math.exp(1e-9), max_iter=n + 40, limit_point_restart=False)
    domain = None
    if event == "box":
        T, start = mx.SelfMapSpec.scale(1.001), (1.0,) * dim
        domain = mx.Box(((0.5, max(map(max, orbit_of(T, start, n - 1)))),) * dim)
    elif event == "space":  # reaches 0.0 exactly at step n
        eye = [[float(i == j) for j in range(dim)] for i in range(dim)]
        T, start = mx.SelfMapSpec.affine(eye, (-0.5,) * dim), (0.5 * n,) * dim
    elif event == "overflow":  # reaches 2**1024 = inf at step n
        T, start = mx.SelfMapSpec.scale(2.0), (2.0 ** (1024 - n),) * dim
    elif event == "diverge":  # an infinite step n - 1, no event, then inf at step n
        # iterates n - 2 and n - 1 are +-0.4 and -+0.8 times 2**1024, which
        # lie 1.2 * 2**1024 apart
        T, start = mx.SelfMapSpec.scale(-2.0), (1.6 * 2.0 ** (1024 - n),) + (0.0,) * (dim - 1)
    elif event == "small":
        T, start = shrinking(metric, dim)
        points = orbit_of(T, start, n)
        s = [metric.log_distance(a, b) for a, b in zip(points, points[1:])]
        config.update(eps=math.exp(math.sqrt(s[n - 2] * s[n - 1])), max_iter=3 * n)
    elif event == "monotone":  # manhattan steps shrink, then grow from step n
        c1, c2 = 0.99, 1.01
        b = (1 - c1) ** 2 / ((c2 - 1) ** 2 * (c2 / c1) ** (n - 2.5))
        diag = [c1 if k % 2 == 0 else c2 for k in range(2 * (dim // 2) or 2)]
        T = mx.SelfMapSpec.affine([[v if i == j else 0.0 for j, _ in enumerate(diag)]
                                   for i, v in enumerate(diag)], (0.0,) * len(diag))
        start = tuple(1.0 if k % 2 == 0 else b for k in range(len(diag)))
        config["check_monotone_residual"] = True
    else:  # "cycle2", "cycle3"
        T, start = returning(metric, dim, int(event[-1]), n)
        config["eps"] = math.exp(1e-15)
    return T, start, mx.SolverConfig(**config), domain


def event_step(got):
    """The step of a run's event: the iterate an escape or a breach names,
    the step after the last where the map failed, or the last step."""
    if got[0] == "escaped":
        return got[3]
    if got[0] == "raised":
        return int(got[2].rsplit(" ", 1)[1])
    return got[3] + (got[2] is mx.Status.DIVERGED)


EVENTS = {  # event: (status or error, metrics it lands exactly on step n under)
    "box": ("escaped", METRIC_SPECS),
    "space": ("escaped", [m for m in METRIC_SPECS if m.kind in SPACE_KINDS]),
    # exp_reciprocal's steps shrink as the iterates grow: its runs converge
    "overflow": (mx.Status.DIVERGED, [m for m in METRIC_SPECS if m.kind != "exp_reciprocal"]),
    "diverge": (mx.Status.DIVERGED, [m for m in METRIC_SPECS if m.kind not in SPACE_KINDS]),
    "small": (None, [m for m in METRIC_SPECS if m.kind != "discrete"]),
    "monotone": ("raised", [m for m in METRIC_SPECS
                            if m.kind == "exp_abs" or m.base == "manhattan"]),
    "cycle2": (mx.Status.CYCLE_DETECTED, [m for m in METRIC_SPECS if m.kind != "discrete"]),
    "cycle3": (mx.Status.CYCLE_DETECTED, [m for m in METRIC_SPECS
                                          if m.kind not in SPACE_KINDS + ("discrete",)]),
}


@pytest.mark.parametrize("event", sorted(EVENTS))
@pytest.mark.parametrize("n", [100, 121, 122, 249, 250, 300])
def test_a_built_in_maps_event_falls_on_its_step_inside_or_at_the_edge_of_a_block(event,
                                                                                  n):
    kind, exact = EVENTS[event]
    for k, metric in enumerate(exact):
        dim = 4 if event == "cycle3" else (1, 2, 4)[(k + n) % 3]
        T, start, config, domain = event_run(event, metric, dim, n)
        args = (metric, T, start, config, domain)
        got = picard_outcome(lambda: kernel_picard(*args))
        assert got == picard_outcome(lambda: reference_picard(*args))
        assert kind is None or kind in (got[0], got[2])
        if event == "small":  # the first step at or below log(eps)
            steps = [float.fromhex(s) > config.log_eps for s in got[1]]
            assert steps.index(False) == n - 1
        else:
            assert event_step(got) == n, (metric, dim)


@settings(max_examples=200, deadline=None)
@given(event=st.sampled_from(sorted(EVENTS)), metric=st.sampled_from(METRIC_SPECS),
       dim=st.sampled_from([1, 2, 4]), n=st.one_of(st.sampled_from(EDGES),
                                                   st.integers(100, 600)),
       lookback=st.sampled_from([2, 3, 25]), window=st.integers(2, 12),
       monotone=st.booleans(), restart=st.booleans())
def test_long_runs_of_built_in_maps_equal_the_loop_of_public_calls(event, metric, dim, n,
                                                                  lookback, window,
                                                                  monotone, restart):
    T, start, config, domain = event_run(event, metric, dim, n)
    config = dataclasses.replace(
        config, limit_point_restart=restart,
        check_monotone_residual=monotone or config.check_monotone_residual)
    args = (metric, T, start, config, domain)
    with solver_constants(window, lookback):
        assert (picard_outcome(lambda: kernel_picard(*args))
                == picard_outcome(lambda: reference_picard(*args)))


def built_in(fn):
    """A SelfMapSpec whose bound kernel is fn: picard maps it ahead as it
    maps every built-in map, and applies it as ``T(x)`` applies it."""
    T = mx.SelfMapSpec.identity()
    T.__dict__["_call"] = fn  # the cached_property's slot
    return T


@pytest.mark.parametrize("n", EDGES)
@pytest.mark.parametrize("dim", [1, 2, 4])
def test_a_change_of_dimension_escapes_at_its_step_inside_or_at_the_edge_of_a_block(n,
                                                                                    dim):
    shrink = mx.SelfMapSpec.scale(0.99)
    top = orbit_of(shrink, (1.0,) * dim, n - 2)[-1][0]  # iterate n - 2 is the last >= top
    T = built_in(lambda p: p + (1.0,) if p[0] < top else shrink._call(p))
    for metric in METRIC_SPECS:
        args = (metric, T, (1.0,) * dim, mx.SolverConfig(max_iter=n + 10), None)
        got = picard_outcome(lambda: kernel_picard(*args))
        assert got == picard_outcome(lambda: reference_picard(*args))
        assert got[0] == "escaped" and got[3] == n and "dimension mismatch" in got[1]


@settings(max_examples=100, deadline=None)
@given(metric=st.sampled_from(METRIC_SPECS), m=st.integers(80, 650),
       tail=st.sampled_from(TAILS), dim=st.sampled_from([1, 4]),
       box=st.sampled_from([None, None, (0.5, 90.0), (0.5, 40.0)]),
       eps=st.sampled_from([math.exp(1e-12), math.exp(1e-6), math.exp(1e-2)]),
       max_iter=st.integers(50, 700), window=st.integers(2, 12),
       lookback=st.integers(2, 30), monotone=st.booleans(), restart=st.booleans())
def test_long_runs_through_a_built_in_maps_kernel_equal_the_loop_of_public_calls(
        metric, m, tail, dim, box, eps, max_iter, window, lookback, monotone, restart):
    # drifting's tails, through the map-ahead: a cycle, a failure of T or a
    # leap inside a block of iterates or on its edge
    start = (1.0,) if dim == 1 else (1.0, 2.0, 2.0, 3.0)
    domain = None if box is None else mx.Box((box,) * dim)
    config = mx.SolverConfig(eps=eps, max_iter=max_iter,
                             check_monotone_residual=monotone,
                             limit_point_restart=restart)
    args = (metric, built_in(drifting(m, tail, dim)), start, config, domain)
    with solver_constants(window, lookback):
        assert (picard_outcome(lambda: kernel_picard(*args))
                == picard_outcome(lambda: reference_picard(*args)))


@pytest.mark.parametrize("m", [80, 127, 128, 190, 300, 600])
@pytest.mark.parametrize("tail, status", [
    ("converge", mx.Status.CONVERGED),
    ("raise", mx.Status.DIVERGED),
    ("fail", mx.Status.CYCLE_DETECTED),
    ("jump", mx.Status.CYCLE_DETECTED),
    ("cycle2", mx.Status.CYCLE_DETECTED),
    ("cycle3", mx.Status.CYCLE_DETECTED),
])
def test_a_built_in_map_is_applied_at_most_a_block_past_where_its_run_stops(m, tail,
                                                                           status):
    # each of these runs cuts one block of iterates short: the step applies
    # T again at the iterate where it was cut, and no more than 255 images
    # past it were computed
    config = mx.SolverConfig(eps=math.exp(1e-6), max_iter=1000, limit_point_restart=False)
    fn, calls = counting(drifting(m, tail, 1))
    T_ref, ref_calls = counting(drifting(m, tail, 1))
    result = mx.picard(mx.MetricSpec.exp_abs(2.0), built_in(fn), (1.0,), config)
    reference_picard(mx.MetricSpec.exp_abs(2.0), T_ref, (1.0,), config, None)
    assert result.status is status
    assert 0 <= len(calls) - len(ref_calls) <= solver._AHEAD


# -- the tail of a coordinate-wise map, mapped ahead below log(eps) ------------------

# Maps whose steps fall below log(eps) and stay there for dozens to hundreds
# of iterates; in a run of more than 256 steps the tail is mapped ahead in
# blocks too and converges inside a block, on its edge or after it.
# rational, scale by a negative factor and reciprocal_sqrt oscillate about
# their fixed points, so a window's first and last points can lie closer
# together than two points inside it.
TAIL_MAPS = [
    mx.SelfMapSpec.scale(0.9),
    mx.SelfMapSpec.scale(0.99),
    mx.SelfMapSpec.scale(0.995),
    mx.SelfMapSpec.scale(-0.95),
    mx.SelfMapSpec.scale(-0.99),
    mx.SelfMapSpec.rational(0.1),
    mx.SelfMapSpec.rational(0.02),
    mx.SelfMapSpec.rational(1.0),
    mx.SelfMapSpec.power(0.97),
    mx.SelfMapSpec.power(0.995),
    mx.SelfMapSpec.reciprocal_sqrt(),
    mx.SelfMapSpec.from_json_dict({"kind": "scale", "c": -1}),  # never settles
]


@settings(max_examples=300, deadline=None)
@given(metric=st.sampled_from(METRIC_SPECS + [ONE_SIDED]), T=st.sampled_from(TAIL_MAPS),
       start=st.sampled_from([(2.0,), (0.3,), (2.0, 0.5), (1.5, 3.0, 0.25, 1.25)]),
       box=st.sampled_from([None, None, (-3.0, 4.0), (0.2, 4.0)]),
       eps=st.sampled_from([math.exp(1e-9), math.exp(1e-6), math.exp(1e-3), math.exp(0.05)]),
       max_iter=st.integers(20, 1500), window=st.integers(2, 12),
       lookback=st.integers(2, 30), monotone=st.booleans(), restart=st.booleans())
def test_converging_tails_of_coordinate_wise_maps_equal_the_loop_of_public_calls(
        metric, T, start, box, eps, max_iter, window, lookback, monotone, restart):
    domain = None if box is None else mx.Box((box,) * len(start))
    config = mx.SolverConfig(eps=eps, max_iter=max_iter,
                             check_monotone_residual=monotone,
                             limit_point_restart=restart)
    args = (metric, T, start, config, domain)
    with solver_constants(window, lookback):
        assert (picard_outcome(lambda: kernel_picard(*args))
                == picard_outcome(lambda: reference_picard(*args)))


@pytest.mark.parametrize("metric", [m for m in METRIC_SPECS if m.kind != "discrete"],
                         ids=lambda m: f"{m.kind}-{m.base}")
@pytest.mark.parametrize("T", [mx.SelfMapSpec.scale(0.99), mx.SelfMapSpec.scale(-0.99),
                               mx.SelfMapSpec.rational(0.02), mx.SelfMapSpec.power(0.995)],
                         ids=["scale", "scale-negative", "rational", "power"])
@pytest.mark.parametrize("window", [2, 12])
def test_a_long_run_converging_through_blocks_below_log_eps_equals_the_loop(metric, T,
                                                                          window):
    # hundreds of steps before the first below log(eps), so the tail is
    # mapped ahead and settles inside a block of iterates
    config = mx.SolverConfig(eps=math.exp(1e-4), max_iter=1500)
    args = (metric, T, (2.0, 0.5), config, None)
    with solver_constants(window):
        assert (picard_outcome(lambda: kernel_picard(*args))
                == picard_outcome(lambda: reference_picard(*args)))


@pytest.mark.parametrize("b", [0.1, 0.02])
@pytest.mark.parametrize("window", [3, 4, 5, 10, 12])
def test_an_oscillating_orbit_is_checked_on_its_whole_window(b, window):
    # rational(b) overshoots its fixed point by a factor of about -(1 - b) a
    # step, so the first and last points of an odd window lie closer than
    # its first two: the first-to-last distance alone would settle early.
    # rational(0.1) settles step by step, rational(0.02) after 687 steps,
    # inside a block of iterates mapped ahead
    metric, T = mx.MetricSpec.exp_abs(2.0), mx.SelfMapSpec.rational(b)
    config = mx.SolverConfig(eps=math.exp(1e-6), max_iter=2000)
    args = (metric, T, (2.0,), config, None)
    with solver_constants(window):
        got = picard_outcome(lambda: kernel_picard(*args))
        assert got == picard_outcome(lambda: reference_picard(*args))
    assert got[2] is mx.Status.CONVERGED
    points = [tuple(map(float.fromhex, p)) for p in got[0]]
    early = [j for j in range(window, len(points))
             if metric.log_distance(points[j + 1 - window], points[j]) < config.log_eps
             and float.fromhex(got[1][j - 1]) < config.log_eps]
    assert early and early[0] < len(points) - 1


@pytest.mark.parametrize("side", ["above", "below"])
def test_a_block_of_iterates_stops_at_a_step_of_exactly_log_eps(side):
    # under exp_abs(2) with eps = 2, a step of 1 is log(eps) exactly; the
    # block takes the steps of 2 (above) or 1/4 (below) before it, and no more
    metric, config = mx.MetricSpec.exp_abs(2.0), mx.SolverConfig(eps=2.0)
    gap = 2.0 if side == "above" else 0.25
    orbit = [0.0, gap, 2 * gap, 3 * gap, 3 * gap + 1.0, 4 * gap + 1.0, 5 * gap + 1.0]
    T = built_in(lambda p: (orbit[orbit.index(p[0]) + 1],))
    points, steps = [(0.0,), (gap,)], [metric._log_distance((0.0,), (gap,))]
    look = solver._LookBack(metric, config, points, steps)
    assert solver._ahead(metric, T, None, config)(look, 5) == 2
    assert points == [(v,) for v in orbit[:4]]
    assert steps == [math.log(2.0) * gap] * 3


def counting_coordinates(T):
    """T, whose coordinate kernel records each coordinate it maps."""
    calls, kernel = [], T._coordinate

    def counted(c):
        calls.append(c)
        return kernel(c)
    T.__dict__["_coordinate"] = counted  # the cached_property's slot, before _call binds it
    return T, calls


@pytest.mark.parametrize("make, start, box", [
    # the first coordinate's power overflows at step 114, the second runs on
    (lambda: mx.SelfMapSpec.power(1.01), (1e100, 2.0), None),
    # an image of inf at step 100, past the finite ones
    (lambda: mx.SelfMapSpec.scale(2.0), (2.0 ** 924,), None),
    (lambda: mx.SelfMapSpec.scale(2.0), (1.0, 2.0 ** 924), None),
    # a box left at step 126
    (lambda: mx.SelfMapSpec.scale(-1.01), (1.0, 0.5), (-3.5, 3.5)),
])
def test_a_coordinate_wise_run_maps_at_most_a_block_past_where_it_stops(make, start, box):
    # each run stops inside one block of iterates: every coordinate computes
    # at most 255 discarded values past the stop, and the step that stops
    # the run maps the stopping point once more
    domain = None if box is None else mx.Box((box,) * len(start))
    config = mx.SolverConfig(max_iter=400)
    T, calls = counting_coordinates(make())
    T_ref, ref_calls = counting_coordinates(make())
    metric = mx.MetricSpec.exp_abs(2.0)
    got = picard_outcome(lambda: kernel_picard(metric, T, start, config, domain))
    assert got == picard_outcome(lambda: reference_picard(metric, T_ref, start, config,
                                                          domain))
    assert got[0] == "escaped" or got[2] is mx.Status.DIVERGED
    assert len(start) <= len(calls) - len(ref_calls) <= len(start) * solver._AHEAD


# -- the neighbour count never hides a hit -----------------------------------------


def shifted(metric, p, i, delta):
    """p with coordinate i moved so that its log distance from p is about
    delta."""
    c, log_a = p[i], 1.0 if metric.a is None else math.log(metric.a)
    if metric.kind == "star_product":
        c *= math.exp(delta)
    elif metric.kind == "exp_reciprocal":
        inverse = 1.0 / c + delta / log_a
        c = 1.0 / inverse if 0 < abs(inverse) < math.inf else c
    else:
        c += delta / log_a
    return p[:i] + (c,) + p[i + 1:]


def edge_orbit(rng, metric, dim, tol):
    """2 to 300 points: fresh draws, repeats of one of the last 30, and
    returns to one of them at log distance tol plus or minus a few ulps, in
    shares drawn per orbit, so that some orbits hold a single return.

    The first point may lie far from the rest, so that every distance to it
    is large and its ulp exceeds tol, or, where the metric allows, so far
    that it overflows to inf.
    """
    far = rng.choice([1.0, 1e3, 1e3, 1e6, 1e12, 1e300])
    if metric.kind == "exp_reciprocal":  # far in the reciprocals
        first = (5e-324 if far == 1e300 else 1.0 / far,) * dim
    else:
        first = (-far if far == 1e300 and metric.kind not in SPACE_KINDS else far,) * dim

    def fresh():
        return tuple(rng.uniform(0.5, 3.0) for _ in range(dim))

    repeat, near = rng.choice([0.0, 0.0, 0.2]), rng.choice([0.02, 0.1, 0.5])
    points = [first, fresh()]
    for _ in range(rng.randint(0, 298)):
        u, back = rng.random(), rng.choice(points[-30:])
        if u < repeat:
            points.append(back)
        elif u < repeat + near:
            ulps = rng.randint(-4, 4) if rng.random() < 0.8 else rng.choice([-1e6, 1e6])
            points.append(shifted(metric, back, rng.randrange(dim),
                                  tol * (1 + ulps * 2.0 ** -52)))
        else:
            points.append(fresh())
    return points[:rng.randint(2, len(points))]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), metric=st.sampled_from(METRIC_SPECS),
       dim=st.sampled_from([1, 2, 4]), lookback=st.integers(2, 30),
       eps=st.sampled_from([math.exp(1e-15), math.exp(1e-9), math.exp(0.5)]))
def test_the_prefiltered_look_back_finds_what_the_exact_scan_finds(seed, metric, dim,
                                                                   lookback, eps):
    rng = random.Random(seed)
    points = edge_orbit(rng, metric, dim, 1e-14)
    steps = [metric._log_distance(a, b) for a, b in zip(points, points[1:])]
    config = mx.SolverConfig(eps=eps)
    with solver_constants(lookback=lookback):
        expected = scalar_reference.look_back(metric, points, steps, 1, config.log_eps)
        # scanned as a run grows the orbit: one block of new points at a time
        grown, grown_steps = points[:1], []
        look = solver._LookBack(metric, config, grown, grown_steps)
        found = None
        try:
            while len(grown) < len(points):
                more = points[len(grown):len(grown) + rng.choice([1, 3, 16, 65, 100, 256])]
                grown_steps.extend(steps[len(grown) - 1:len(grown) - 1 + len(more)])
                grown.extend(more)
                look.flush()
        except solver._Cycle:
            found = len(grown) - 1
            assert grown == points[:found + 1] and grown_steps == steps[:found]
    assert found == expected


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), metric=st.sampled_from(METRIC_SPECS),
       dim=st.sampled_from([1, 2, 4]),
       eps=st.sampled_from([math.exp(1e-14), math.exp(1e-9), math.exp(1e-3)]),
       need=st.sampled_from([1, 2, 3, 5, 15, 75]))
def test_the_prefiltered_limit_point_scan_finds_what_the_exact_scan_finds(seed, metric,
                                                                          dim, eps, need):
    # cut to 4 * need points: a limit point then needs ceil(len / 4) points
    # in its ball, need itself unless the orbit is shorter
    log_eps = math.log(eps)
    points = edge_orbit(random.Random(seed), metric, dim, log_eps)[:4 * need]
    trace = mx.IterationTrace(metric, tuple(points), (0.0,) * (len(points) - 1))
    assert (mx.detect_limit_point(trace, eps)
            == scalar_reference.limit_point(metric, points, log_eps, 0.25))


def test_a_stalled_run_reads_pairs_only_in_its_short_look_back_scans(monkeypatch):
    # scale(0.999)'s orbit has no return and no limit point: its distinct
    # coordinates rule out every pair of every look-back scan and of the
    # limit-point scan over all 501 points, so no pair matrix is read
    kernel, calls = mx.MetricSpec._log_distance_matrix, []

    def counted(metric, X, Y):
        calls.append((len(X), len(Y)))
        return kernel(metric, X, Y)

    monkeypatch.setattr(mx.MetricSpec, "_log_distance_matrix", counted)
    result = mx.picard(mx.MetricSpec.exp_abs(2.0), mx.SelfMapSpec.scale(0.999), 1.0,
                       mx.SolverConfig(eps=math.exp(1e-9), max_iter=500))
    assert result.status is mx.Status.MAX_ITER and result.restarted_from is None
    assert calls == []


def test_the_look_back_reads_only_the_rows_near_another_in_every_coordinate():
    # every point has its own coordinate but x and its return: one scan
    # reads their two rows, against the look-back of the first
    metric, x = mx.MetricSpec.exp_abs(2.0), (40.5,)
    points = [(float(k),) for k in range(40)] + [x, (100.0,), x]
    steps = [metric._log_distance(a, b) for a, b in zip(points, points[1:])]
    kernel, calls = mx.MetricSpec._log_distance_matrix, []

    def counted(metric, X, Y):
        calls.append((list(X), len(Y)))
        return kernel(metric, X, Y)

    look = solver._LookBack(metric, mx.SolverConfig(), points, steps)
    with mock.patch.object(mx.MetricSpec, "_log_distance_matrix", counted), \
            pytest.raises(solver._Cycle):
        look.flush()
    assert len(points) == 43
    assert calls == [([x, x], 42 - 1 - (40 - solver._LOOKBACK))]


def rounded_down(radius):
    """exp_abs(a) and points x > 0 > y at a kernel log distance below
    radius although x - y exceeds radius / log(a): the difference rounds
    down to that quotient t, and log(a) * t rounds below the radius."""
    for k in range(1, 64):
        metric = mx.MetricSpec.exp_abs(1.0 + k / 64)
        t = radius / math.log(metric.a)
        x = 0.75 * t
        y = math.nextafter(x - t, -math.inf)  # x - t is exact, and y an ulp of t / 4 below
        if metric._log_distance((x,), (y,)) < radius and Fraction(x) - Fraction(y) > t:
            return metric, (x,), (y,)
    raise AssertionError("no such pair")


@pytest.mark.parametrize("far, copies", [(3, 1), (70, 23)])
def test_a_return_whose_coordinate_difference_rounds_down_is_found(far, copies):
    # without the rounding margin, the reach of each scan would rule this
    # pair out; the look-back scans far + 4 points, and the limit-point scan
    # far + 2 + copies, a quarter of which are x and the copies of y
    metric, x, y = rounded_down(solver._CYCLE_LOGD)
    apart = [(4.0 + k / 64,) for k in range(far)]
    points = [(1e3,)] + apart + [x, (10.0,), y]
    steps = [metric._log_distance(a, b) for a, b in zip(points, points[1:])]
    look = solver._LookBack(metric, mx.SolverConfig(), points, steps)
    with solver_constants(lookback=2), pytest.raises(solver._Cycle):
        look.flush()
    assert points[-1] == y and len(points) == far + 4
    eps = math.exp(1e-14)
    metric, x, y = rounded_down(math.log(eps))
    trace = mx.IterationTrace(metric, ((1e3,), *apart, x) + (y,) * copies,
                              (0.0,) * (far + 1 + copies))
    assert math.ceil(len(trace) / 4) == 1 + copies
    assert mx.detect_limit_point(trace, eps) == x
