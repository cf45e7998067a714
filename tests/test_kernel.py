"""The pair kernel against the scalar reference path.

``log_distance_matrix`` must equal scalar ``log_distance`` bit for bit, and
``classify`` / ``estimate_constants`` (built on three log-distance matrices)
must give exactly what a loop over the scalar ``check_*`` functions gives.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import mulfix as mx
import mulfix.conditions as conditions
from mulfix.errors import DomainError, MulfixError

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


def bits(v):
    """Exact comparison key: distinguishes -0.0 from 0.0 and matches NaN."""
    return v if v is None else float.hex(float(v))


# -- scalar reference path ----------------------------------------------------


def reference_estimate(metric, T, points):
    images = []
    for p in points:
        try:
            images.append(mx.as_point(T(p)))
        except (MulfixError, ArithmeticError, ValueError):
            images.append(None)
    xi = eta = lam = 0.0
    used = skipped = 0
    for i, j in itertools.combinations(range(len(points)), 2):
        x, y, tx, ty = points[i], points[j], images[i], images[j]
        if x == y or tx is None or ty is None:
            skipped += 1
            continue
        try:
            num = metric.log_distance(tx, ty)
            den1 = metric.log_distance(x, y)
            den2 = metric.log_distance(x, tx) + metric.log_distance(y, ty)
            den3 = metric.log_distance(x, ty) + metric.log_distance(y, tx)
        except DomainError:
            skipped += 1
            continue
        if den1 == 0:
            skipped += 1
            continue
        used += 1
        xi = max(xi, num / den1)
        if den2 == 0:
            eta = math.inf if num > 0 else eta
        else:
            eta = max(eta, num / den2)
        if den3 == 0:
            lam = math.inf if num > 0 else lam
        else:
            lam = max(lam, num / den3)
    if used == 0:
        raise mx.DegeneratePairError("no usable distinct pair in the sample")
    return (xi, eta, lam, used, skipped)


def reference_classify(metric, T, points, constants, phi, tol, strict_margin):
    xi_hat, eta_hat, lam_hat, used, skipped_est = reference_estimate(metric, T, points)
    if constants is not None:
        xi, eta, lam = constants.xi, constants.eta, constants.lam
    else:
        xi = xi_hat if xi_hat < 1 else None
        eta = eta_hat if eta_hat < 0.5 else None
        lam = lam_hat if lam_hat < 0.5 else None
    records, pair_any_c, pair_any_s, pair_phi = [], [], [], []
    all_ok = {c: True for c in mx.CONDITION_IDS}
    n_pairs = skipped = 0
    had_error = False
    for i, j in itertools.combinations(range(len(points)), 2):
        x, y = points[i], points[j]
        if x == y:
            skipped += 1
            continue
        n_pairs += 1
        try:
            res = {}
            for cid, const, check in (("C1", xi, mx.check_c1), ("C2", eta, mx.check_c2),
                                      ("C3", lam, mx.check_c3)):
                res[cid] = (False, None) if const is None else check(
                    metric, T, x, y, const, tol)
            for cid in ("SI", "SII", "SIII"):
                res[cid] = mx.check_strict(metric, T, x, y, cid, strict_margin)
            if phi is not None:
                res["PHI"] = mx.check_phi(metric, T, phi, x, y, tol)
        except (MulfixError, ZeroDivisionError, OverflowError) as exc:
            had_error = True
            records.append((i, j, "*", None, None, str(exc)))
            continue
        for cid, (ok, slack) in res.items():
            records.append((i, j, cid, ok, bits(slack), None))
            all_ok[cid] = all_ok[cid] and ok
        pair_any_c.append(any(res[c][0] for c in ("C1", "C2", "C3")))
        pair_any_s.append(any(res[c][0] for c in ("SI", "SII", "SIII")))
        if phi is not None:
            pair_phi.append(res["PHI"][0])
    t2 = bool(pair_any_c) and all(pair_any_c) and not had_error
    t23 = bool(pair_any_s) and all(pair_any_s) and not had_error
    th3 = phi is not None and bool(pair_phi) and all(pair_phi) and not had_error
    via_t2 = [c for c in ("C1", "C2", "C3") if all_ok[c]] if t2 else []
    via_t23 = [c for c in ("SI", "SII", "SIII") if all_ok[c]] if t23 else []
    if t2:
        overall = "t2 applicable" + (f" via {' and '.join(via_t2)}" if via_t2
                                     else " (mixed conditions)")
    elif t23:
        overall = "t23 applicable" + (f" via {' and '.join(via_t23)}" if via_t23
                                      else " (mixed conditions)")
    else:
        overall = "th3 applicable" if th3 else "none"
    verdicts = {"t2": {"applicable": t2, "via": via_t2},
                "t23": {"applicable": t23, "via": via_t23},
                "th3": {"applicable": th3, "checked": phi is not None},
                "overall": overall}
    estimates = (xi_hat, eta_hat, lam_hat, used, skipped_est)
    return records, verdicts, n_pairs, skipped, estimates


def outcome(fn, *args):
    """The value of fn(*args), or the type and text of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return ("raised", type(exc).__name__, str(exc))


def kernel_classify(metric, T, points, constants, phi, tol, strict_margin):
    report = mx.classify(metric, T, points, constants, phi, tol=tol,
                         strict_margin=strict_margin)
    records = [(r.i, r.j, r.condition, r.satisfied, bits(r.slack), r.error)
               for r in report.records]
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
       phi=st.sampled_from(PHIS), declared=st.booleans(),
       strict_margin=st.sampled_from([0.0, 1e-3]), tol=st.sampled_from([1e-12, 1e-6]))
def test_classify_equals_the_scalar_reference_loop(seed, metric, make_map, dim, phi,
                                                   declared, strict_margin, tol):
    rng = random.Random(seed)
    points = random_sample(rng, dim)
    T = make_map(dim)
    constants = mx.ZamfirescuConstants(
        rng.choice([0.0, 0.5, 0.9]), rng.choice([0.0, 0.3, 0.49]),
        rng.choice([0.0, 0.3, 0.49])) if declared else None
    args = (metric, T, points, constants, phi, tol, strict_margin)
    expected = outcome(reference_classify, *args)
    got = outcome(kernel_classify, *args)
    assert got == expected
    if expected[0] != "raised":
        est = mx.estimate_constants(metric, T, points)
        assert (est.xi_hat, est.eta_hat, est.lambda_hat, est.pairs_used,
                est.pairs_skipped) == expected[4]


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


def test_no_per_pair_log_distance_check_or_map_call(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("per-pair scalar call")

    monkeypatch.setattr(mx.MetricSpec, "log_distance", forbidden)
    for name in ("check_c1", "check_c2", "check_c3", "check_strict", "check_phi"):
        monkeypatch.setattr(conditions, name, forbidden)
    sample = mx.sample_box(mx.Box(((-6.0, 6.0), (-6.0, 6.0))), 40, seed=2016)
    T, calls = counting(mx.SelfMapSpec.scale(2.0 / 3.0))
    report = mx.classify(mx.MetricSpec.lifted("euclidean", a=2.0), T, sample,
                         phi=mx.PhiSpec("example317"))
    assert len(calls) == len(sample)
    assert len(report.records) == 7 * report.n_pairs
    assert report.overall == "t2 applicable via C1 and C3"
