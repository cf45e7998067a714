import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mulfix as mx
from mulfix.errors import DomainError
from mulfix.maps import grid_points


def test_map_catalog_evaluation():
    assert mx.SelfMapSpec.scale(0.5)((3.0, 4.0)) == (1.5, 2.0)
    assert mx.SelfMapSpec.rational(2.0)((1.0,)) == (1 / 3,)
    assert mx.SelfMapSpec.power(2.0)((3.0,)) == (9.0,)
    assert mx.SelfMapSpec.reciprocal_sqrt()((4.0,)) == (0.5,)
    assert mx.SelfMapSpec.constant((1.0, 2.0))((9.0, 9.0)) == (1.0, 2.0)
    assert mx.SelfMapSpec.identity()((5.0,)) == (5.0,)
    assert mx.SelfMapSpec.negation()((5.0, -1.0)) == (-5.0, 1.0)
    affine = mx.SelfMapSpec.affine([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0])
    assert affine((2.0, 3.0)) == (4.0, 2.0)


def test_map_domain_guards():
    with pytest.raises(DomainError):
        mx.SelfMapSpec.rational(2.0)((-2.0,))
    with pytest.raises(DomainError):
        mx.SelfMapSpec.reciprocal_sqrt()((0.0,))
    with pytest.raises(DomainError):
        mx.SelfMapSpec.power(0.5)((-1.0,))
    with pytest.raises(DomainError):
        mx.SelfMapSpec.power(-1.0)((0.0,))
    with pytest.raises(DomainError):
        mx.SelfMapSpec.affine([[1.0, 0.0]], [0.0])((1.0,))


def test_map_spec_validation():
    with pytest.raises(DomainError):
        mx.SelfMapSpec("scale")  # missing factor
    with pytest.raises(DomainError):
        mx.SelfMapSpec("warp")
    with pytest.raises(DomainError):
        mx.SelfMapSpec("affine", matrix=((1.0,), (1.0, 2.0)), offset=(0.0,))


def test_map_json_round_trip():
    specs = [
        mx.SelfMapSpec.scale(0.5),
        mx.SelfMapSpec.rational(2.0),
        mx.SelfMapSpec.power(-0.5),
        mx.SelfMapSpec.reciprocal_sqrt(),
        mx.SelfMapSpec.constant((1.0, 2.0)),
        mx.SelfMapSpec.identity(),
        mx.SelfMapSpec.negation(),
        mx.SelfMapSpec.affine([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5]),
    ]
    for spec in specs:
        assert mx.SelfMapSpec.from_json_dict(spec.to_json_dict()) == spec


def test_box_validation_and_membership():
    box = mx.Box(((0.0, 1.0), (-1.0, 1.0)))
    assert box.dim == 2
    assert box.contains((0.5, 0.0))
    assert not box.contains((1.5, 0.0))
    assert not box.contains((0.5,))  # wrong dimension
    with pytest.raises(DomainError):
        mx.Box(())
    with pytest.raises(DomainError):
        mx.Box(((1.0, 0.0),))
    with pytest.raises(DomainError, match="bad interval"):
        mx.Box(((0.0, 1.0), (-1e308, 1e308)))  # a width beyond float range
    assert mx.Box.from_json(box.to_json()) == box


@pytest.mark.parametrize("n", [0, -3])
def test_grid_points_of_no_points_is_empty(n):
    assert grid_points(mx.Box(((0.0, 1.0), (2.0, 3.0))), n) == []


def test_grid_points_one_dimensional_endpoints():
    box = mx.Box(((0.1, 1.0),))
    pts = grid_points(box, 50)
    assert len(pts) == 50
    assert pts[0] == (0.1,) and pts[-1] == (1.0,)
    assert all(box.contains(p) for p in pts)


@pytest.mark.parametrize("dim", [1, 2])
def test_grid_points_reach_the_largest_float_without_a_warning(dim):
    # (k - 1) * step rounds past the largest float, and linspace ends the
    # axis at its upper bound instead
    top = sys.float_info.max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pts = grid_points(mx.Box(((0.0, top),) * dim), 7 ** dim)
    assert pts[0] == (0.0,) * dim and pts[-1] == (top,) * dim
    assert all(math.isfinite(c) for p in pts for c in p)


def test_grid_points_lattice_in_two_dimensions():
    box = mx.Box(((0.0, 1.0), (0.0, 2.0)))
    pts = grid_points(box, 25)
    assert len(pts) == 25
    assert len(set(pts)) == 25
    assert all(box.contains(p) for p in pts)


@pytest.mark.parametrize("dim, n", [(2, 4), (2, 5), (3, 27), (3, 28), (4, 81), (5, 3124),
                                     (5, 3125), (5, 3126), (5, 7776)])
def test_grid_points_use_the_smallest_lattice_that_holds_n(dim, n):
    pts = grid_points(mx.Box(((0.0, 1.0),) * dim), n)
    assert len(set(pts)) == n
    k = len({p[-1] for p in pts})  # the last axis runs through its k nodes first
    assert (k - 1) ** dim < n <= k ** dim


# 0 and 2**32 - 1 fill one entropy word, 2**32 two, 2**128 and above five or more
SEEDS = st.sampled_from([0, 2**32 - 1, 2**32, 2**128, 2**200 + 1]) | st.integers(0, 2**300)
INTERVALS = st.tuples(st.floats(-1e300, 1e300), st.just(0.0) | st.floats(0.0, 1e300))


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, intervals=st.lists(INTERVALS, min_size=1, max_size=4),
       n=st.integers(2, 60))
def test_a_mixed_sample_is_the_grid_plus_numpys_uniform_stream(seed, intervals, n):
    box = mx.Box(tuple((lo, lo + width) for lo, width in intervals))
    lows, highs = zip(*box.bounds)
    rand = np.random.default_rng(seed).uniform(lows, highs, size=(n - n // 2, box.dim))
    expected = grid_points(box, n // 2) + [tuple(map(float, row)) for row in rand]
    assert mx.sample_box(box, n, seed) == expected


def test_a_mixed_run_does_not_load_numpy_random():
    # in a fresh interpreter: pytest and hypothesis may load numpy.random here
    assert mx.fixture_config("example_3_15").sample_scheme == "mixed"
    code = ("import sys, mulfix as mx; mx.run_experiment(mx.fixture_config('example_3_15'));"
            " print(sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_sample_box_is_deterministic_and_in_bounds():
    box = mx.Box(((-6.0, 6.0), (-6.0, 6.0)))
    a = mx.sample_box(box, 40, seed=2016)
    b = mx.sample_box(box, 40, seed=2016)
    assert a == b
    assert len(a) == 40
    assert all(box.contains(p) for p in a)
    c = mx.sample_box(box, 40, seed=2017)
    assert a != c
    with pytest.raises(DomainError):
        mx.sample_box(box, 0, seed=1)
    with pytest.raises(DomainError):
        mx.sample_box(box, 10, seed=1, scheme="sobol")
    for scheme in ("mixed", "grid"):
        with pytest.raises(DomainError, match="seed"):
            mx.sample_box(box, 10, seed=-1, scheme=scheme)


def test_grid_scheme_returns_pure_grid():
    box = mx.Box(((1.0, 2.0),))
    assert mx.sample_box(box, 100, seed=0, scheme="grid") == grid_points(box, 100)


# -- one outcome for a map that fails at a point ----------------------------------

SAMPLE = [(-1.0,), (0.0,), (0.5,), (1.0,), (2.0,)]
K = 2  # the sample point where the map fails


def failing_at_k(error: Exception):
    """The identity, except that it raises ``error`` at sample point K."""
    def T(x):
        if x == SAMPLE[K]:
            raise error
        return x
    return T


@pytest.mark.parametrize("error", [
    DomainError("outside"), ZeroDivisionError("division by zero"),
    OverflowError("too large"), FloatingPointError("underflow"),
    ValueError("math domain error")], ids=lambda e: type(e).__name__)
def test_a_map_failure_has_one_outcome_everywhere(error):
    metric, T, n = mx.MetricSpec.exp_abs(2.0), failing_at_k(error), len(SAMPLE)
    k_pairs = [[i, j] for i in range(n) for j in range(i + 1, n) if K in (i, j)]
    report = mx.classify(metric, T, SAMPLE)
    errors = [r for r in report.records if r["condition"] == "*"]
    assert [r["pair"] for r in errors] == k_pairs
    assert {r["error"] for r in errors} == {f"map at point {K}: {error}"}
    assert report.rows.summary()["unevaluated"]["map"]["count"] == n - 1
    assert mx.estimate_constants(metric, T, SAMPLE).pairs_skipped == n - 1
    config = mx.SolverConfig()
    run = mx.picard(metric, T, SAMPLE[K], config)
    assert (run.status, run.iterations) == (mx.Status.DIVERGED, 0)
    probe = mx.uniqueness_probe(metric, T, SAMPLE, config.eps)
    assert probe.survivors == tuple(SAMPLE[:K] + SAMPLE[K + 1:])


def test_a_type_error_of_the_map_propagates_everywhere():
    metric, T = mx.MetricSpec.exp_abs(2.0), failing_at_k(TypeError("not a number"))
    for call in (lambda: mx.classify(metric, T, SAMPLE),
                 lambda: mx.estimate_constants(metric, T, SAMPLE),
                 lambda: mx.picard(metric, T, SAMPLE[K], mx.SolverConfig()),
                 lambda: mx.uniqueness_probe(metric, T, SAMPLE, math.e)):
        with pytest.raises(TypeError, match="not a number"):
            call()
