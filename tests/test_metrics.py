import dataclasses
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

import mulfix as mx
from mulfix.errors import DomainError
from mulfix.metrics import _SPACES, DEFAULT_LOG_TOL, _proved_empty, _reference_margin
from scalar_reference import (_axiom_violations_by_loop, _reverse_triangle_by_loop,
                              _triangle_by_loop, check_c1, reference_outside,
                              reference_top)

POSITIVE = st.floats(min_value=1e-6, max_value=1e6,
                     allow_nan=False, allow_infinity=False)


# -- star_abs ----------------------------------------------------------------


def test_star_abs_values():
    assert mx.star_abs(1) == 1
    assert mx.star_abs(0.5) == 2.0
    assert mx.star_abs(3) == 3
    assert mx.star_abs(Fraction(1, 3)) == Fraction(3)


@pytest.mark.parametrize("bad", [0, -1, float("inf"), float("nan")])
def test_star_abs_rejects_nonpositive(bad):
    with pytest.raises(DomainError):
        mx.star_abs(bad)


@given(POSITIVE)
def test_star_abs_properties(a):
    s = mx.star_abs(a)
    assert s >= 1
    assert math.isclose(s, mx.star_abs(1 / a), rel_tol=1e-12)
    assert math.isclose(s * mx.star_abs(1 / a), s ** 2, rel_tol=1e-12)


def test_star_abs_product_identity_exact_on_rationals():
    a = Fraction(7, 3)
    assert mx.star_abs(a) * mx.star_abs(1 / a) == mx.star_abs(a) ** 2


# -- points ------------------------------------------------------------------


def test_as_point_coercion():
    p = (1.0, -2.5)
    assert mx.as_point(p) is p  # a tuple of exact floats is kept
    for value, expected in [(2, (2.0,)), ([1, 2.5], (1.0, 2.5)), (np.float64(3.0), (3.0,)),
                            ((1, 2), (1.0, 2.0)), ((np.float64(0.5),), (0.5,)),
                            (np.array([4.0]), (4.0,))]:
        p = mx.as_point(value)
        assert p == expected and type(p) is tuple and all(type(c) is float for c in p)


@pytest.mark.parametrize("bad", [(), (float("nan"),), (1.0, float("inf")), True])
def test_as_point_rejects(bad):
    with pytest.raises(DomainError):
        mx.as_point(bad)


# -- distances ---------------------------------------------------------------


def test_a_lifted_metric_defaults_to_euclidean_at_base_2():
    assert mx.MetricSpec("lifted") == mx.MetricSpec("lifted", a=2.0, base="euclidean")
    assert mx.MetricSpec("lifted", base="chebyshev").a == 2.0


def test_a_function_metrics_distance_is_its_function_at_checked_points():
    metric = mx.FunctionMetric(lambda x, y: 1.0 + abs(x[0] - y[0]))
    assert metric.distance(2, [3.5]) == 2.5
    with pytest.raises(DomainError, match="^point 1: dimension mismatch: 1 vs 2$"):
        metric.distance((1.0,), (1.0, 2.0))
    with pytest.raises(DomainError, match="^point 0: non-finite coordinate nan$"):
        metric.distance(math.nan, 1.0)


def test_star_product_reference_values():
    m = mx.MetricSpec.star_product()
    assert math.isclose(m.distance((1 / 3,), (3.0,)), 9.0, rel_tol=1e-12)
    assert math.isclose(m.distance((1 / 3,), (1 / 2,)), 1.5, rel_tol=1e-12)
    assert math.isclose(m.log_distance((1 / 3,), (3.0,)), math.log(9), rel_tol=1e-12)


def test_lifted_euclidean_value():
    m = mx.MetricSpec.lifted("euclidean", a=2.0)
    assert math.isclose(m.distance((0.0, 0.0), (3.0, 4.0)), 32.0, rel_tol=1e-12)
    assert math.isclose(m.log_distance((0.0, 0.0), (3.0, 4.0)), 5 * math.log(2))


def test_exp_abs_base_e_log_is_plain_distance():
    m = mx.MetricSpec.exp_abs(math.e)
    assert m.log_distance(2.0, 5.0) == 3.0


def test_identity_distances_are_exact():
    for m in (mx.MetricSpec.star_product(), mx.MetricSpec.lifted(),
              mx.MetricSpec.exp_abs(2.0), mx.MetricSpec.exp_reciprocal(),
              mx.MetricSpec.discrete(3.0)):
        x = (0.7, 1.3)
        assert m.log_distance(x, x) == 0.0
        assert m.distance(x, x) == 1.0


def test_discrete_metric_codomain():
    m = mx.MetricSpec.discrete(4.0)
    assert m.log_distance((1.0,), (1.0,)) == 0.0
    assert m.log_distance((1.0,), (2.0,)) == math.log(4.0)


def test_distance_saturates_instead_of_overflowing():
    m = mx.MetricSpec.exp_abs(math.e)
    assert m.distance(0.0, 1e6) == math.inf
    assert m.log_distance(0.0, 1e6) == 1e6


def test_domain_errors():
    star = mx.MetricSpec.star_product()
    with pytest.raises(DomainError):
        star.log_distance((1.0,), (-1.0,))
    with pytest.raises(DomainError):
        star.log_distance((1.0, 2.0), (1.0,))
    rec = mx.MetricSpec.exp_reciprocal()
    with pytest.raises(DomainError):
        rec.log_distance((0.0,), (1.0,))


@pytest.mark.parametrize("value, outcome", [
    (math.nan, "distance function returned NaN"),
    (-0.5, "distance function returned a negative value -0.5"),
    (0.0, -math.inf),
    (math.inf, math.inf),
])
def test_function_metric_names_each_bad_distance(value, outcome):
    metric = mx.FunctionMetric(lambda x, y: value)
    for log_distance in (metric.log_distance, metric._log_distance):
        if isinstance(outcome, str):
            with pytest.raises(DomainError) as err:
                log_distance((1.0,), (2.0,))
            assert str(err.value) == outcome
        else:
            assert log_distance((1.0,), (2.0,)) == outcome


def test_metric_spec_validation():
    with pytest.raises(DomainError):
        mx.MetricSpec("exp_abs", a=1.0)
    with pytest.raises(DomainError):
        mx.MetricSpec("nope")
    with pytest.raises(DomainError):
        mx.MetricSpec.lifted("taxicab")
    with pytest.raises(DomainError):
        mx.MetricSpec("star_product", a=2.0)
    with pytest.raises(DomainError, match="^exp_abs takes no base metric$"):
        mx.MetricSpec("exp_abs", base="euclidean", a=2.0)
    with pytest.raises(DomainError, match=r"^exp_abs needs a base a > 1$"):
        mx.MetricSpec("exp_abs")


def test_metric_json_round_trip():
    specs = [
        mx.MetricSpec.star_product(),
        mx.MetricSpec.lifted("manhattan", a=10.0),
        mx.MetricSpec.exp_abs(2.0),
        mx.MetricSpec.exp_reciprocal(),
        mx.MetricSpec.discrete(3.0),
    ]
    for spec in specs:
        data = spec.to_json_dict()
        assert data["kind"] == spec.kind
        assert mx.MetricSpec.from_json_dict(data) == spec
    assert "a" not in mx.MetricSpec.star_product().to_json_dict()


@given(st.lists(st.tuples(POSITIVE, POSITIVE), min_size=3, max_size=3))
def test_log_form_matches_plain_form(triple):
    m = mx.MetricSpec.star_product()
    x, y, z = [tuple(p) for p in triple]
    # additive law in the log domain <=> multiplicative law in distance space
    lhs = m.log_distance(x, z)
    rhs = m.log_distance(x, y) + m.log_distance(y, z)
    assert lhs <= rhs + 1e-9
    d = m.distance(x, y)
    if math.isfinite(d):
        assert math.isclose(math.log(d), m.log_distance(x, y),
                            rel_tol=1e-12, abs_tol=1e-12)


# -- balls -------------------------------------------------------------------


def test_open_ball_membership():
    m = mx.MetricSpec.exp_abs(math.e)
    assert mx.in_open_ball(m, 0.0, math.e, 0.0)
    assert not mx.in_open_ball(m, 0.0, math.e, 2.0)
    assert mx.in_open_ball(m, 0.0, math.e, 0.5)
    with pytest.raises(DomainError):
        mx.in_open_ball(m, 0.0, 1.0, 0.5)


# -- axiom verification -------------------------------------------------------


def _random_sample(metric_kind, rng, n=25):
    if metric_kind == "star_product":
        return [tuple(p) for p in rng.uniform(0.1, 10.0, size=(n, 2))]
    if metric_kind == "exp_reciprocal":
        return [tuple(p) for p in rng.uniform(0.5, 10.0, size=(n, 2))]
    if metric_kind == "discrete":
        return [tuple(map(float, p)) for p in rng.integers(0, 4, size=(n, 2))]
    return [tuple(p) for p in rng.uniform(-5.0, 5.0, size=(n, 2))]


BUILTINS = [
    mx.MetricSpec.star_product(),
    mx.MetricSpec.lifted("euclidean", a=2.0),
    mx.MetricSpec.lifted("manhattan", a=3.0),
    mx.MetricSpec.lifted("chebyshev", a=2.5),
    mx.MetricSpec.exp_abs(2.0),
    mx.MetricSpec.exp_reciprocal(),
    mx.MetricSpec.discrete(3.0),
]


# every sign of zero, of the least subnormal, of 1 and of a huge value
EDGE_COORDS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e300, -1e300])


@given(metric=st.sampled_from(BUILTINS),
       p=st.lists(EDGE_COORDS, min_size=1, max_size=3).map(tuple))
def test_a_point_is_in_the_space_alike_as_a_tuple_and_as_an_array_row(metric, p):
    # _outside reads a point tuple, and Picard's map-ahead the same table's
    # comparison elementwise on an array row; both agree with the plain rule
    test, _ = _SPACES.get(metric.kind, (None, None))
    inside = test is None or bool(test(np.array([p]), 0.0).all())
    assert (metric._outside(p, len(p)) is None) == inside
    assert metric._outside(p, len(p)) == reference_outside(metric, p, len(p))
    assert metric._outside(p, len(p) + 1) == f"dimension mismatch: {len(p) + 1} vs {len(p)}"


@pytest.mark.parametrize("metric", BUILTINS, ids=lambda m: f"{m.kind}-{m.base or ''}")
def test_axioms_hold_on_random_samples(metric):
    rng = np.random.default_rng(99)
    sample = _random_sample(metric.kind, rng)
    report = mx.verify_axioms(metric, sample)
    assert report.ok, report.violations[:3]
    reverse = mx.verify_reverse_triangle(metric, sample)
    assert reverse.ok, reverse.violations[:3]


def test_axioms_vacuous_for_single_point():
    report = mx.verify_axioms(mx.MetricSpec.star_product(), [(2.0,)])
    assert report.ok and report.n_points == 1


def test_usual_metric_fails_multiplicative_triangle():
    usual = mx.FunctionMetric(lambda x, y: abs(x[0] - y[0]), name="usual_abs")
    report = mx.verify_axioms(usual, [(2.0,), (3.0,), (6.0,)])
    assert not report.ok
    triangle = [v for v in report.violations if v["axiom"] == "triangle"]
    # d(2,3) * d(3,6) = 3 < 4 = d(2,6), i.e. log 4 > log 1 + log 3
    assert any(
        math.isclose(v["lhs"], math.log(4.0)) and math.isclose(v["rhs"], math.log(3.0))
        for v in triangle
    )
    # the distance-1 pair (2, 3) also breaks identity of indiscernibles
    assert report.count("identity") > 0


def _lopsided(x, y):  # not symmetric: 1 + 2|x - y| one way, 1 + |x - y| back
    return 1.0 + abs(x[0] - y[0]) * (2.0 if x[0] < y[0] else 1.0)


NEGATIVE_CONTROLS = {
    "usual": lambda x, y: abs(x[0] - y[0]),                   # zero distance: -inf
    "infinite": lambda x, y: math.inf if x[0] + y[0] == 1.0 else 2.0 ** abs(x[0] - y[0]),
    "lopsided": _lopsided,
    "below_one": lambda x, y: 0.5 + abs(x[0] - y[0]),         # log d < 0
    "squared": lambda x, y: 2.0 ** ((x[0] - y[0]) ** 2),      # the triangle alone fails
}


@dataclasses.dataclass(frozen=True)
class TableMetric:
    """Log distances read from a table by each point's first coordinate,
    through the two entries the axiom checks read of a metric: the sample
    checked once by ``_checked``, then its table."""

    table: tuple

    def _checked(self, points):
        return [mx.as_point(p) for p in points]

    def _log_distance_matrix(self, X, Y):
        return np.array([[self.table[int(x[0])][int(y[0])] for y in Y] for x in X])

    log_distance_matrix = _log_distance_matrix


# 0-1 symmetric but for a NaN; 0-2 at distance 1 (log 0) and 1-2 at log
# distance exactly the tolerance, both of them although apart
NAN_TABLE = TableMetric(((0.0, math.nan, 0.0), (1.0, 0.0, DEFAULT_LOG_TOL),
                         (0.0, DEFAULT_LOG_TOL, 0.0)))
AXIOM_METRICS = st.sampled_from(BUILTINS[1:5] + [NAN_TABLE] + [
    mx.FunctionMetric(fn, name) for name, fn in NEGATIVE_CONTROLS.items()])


@given(AXIOM_METRICS, st.lists(st.sampled_from([0.0, 1.0, 2.0, 0.25, 0.5, 0.75, 3.0]),
                               max_size=8))
def test_axiom_masks_list_what_the_per_entry_loop_listed(metric, coords):
    if metric is NAN_TABLE:
        coords = [c for c in coords if c in (0.0, 1.0, 2.0)]
    sample = [(c,) for c in coords]
    report = mx.verify_axioms(metric, sample)
    pairs = [v for v in report.violations if v["axiom"] != "triangle"]
    expected = _axiom_violations_by_loop(metric, sample)
    assert json.dumps(pairs) == json.dumps(expected)  # NaN entries compare too
    for v in pairs:
        assert all(type(x) in (float, bool, str, list) for x in v.values())


@pytest.mark.parametrize("metric, axioms", [
    (mx.FunctionMetric(NEGATIVE_CONTROLS["usual"]), {"nonnegativity", "identity"}),
    (mx.FunctionMetric(NEGATIVE_CONTROLS["infinite"]), set()),
    (mx.FunctionMetric(NEGATIVE_CONTROLS["lopsided"]), {"symmetry"}),
    (mx.FunctionMetric(NEGATIVE_CONTROLS["below_one"]), {"nonnegativity", "identity"}),
    (mx.FunctionMetric(NEGATIVE_CONTROLS["squared"]), set()),
    (NAN_TABLE, {"identity"}),
], ids=["usual", "infinite", "lopsided", "below_one", "squared", "nan"])
def test_controls_break_the_expected_axioms(metric, axioms):
    sample = [(0.0,), (1.0,), (2.0,), (1.0,)]
    report = mx.verify_axioms(metric, sample)
    pairs = [v for v in report.violations if v["axiom"] != "triangle"]
    assert {v["axiom"] for v in pairs} == axioms
    assert pairs == _axiom_violations_by_loop(metric, sample)


def test_reverse_triangle_on_discrete_triple():
    m = mx.MetricSpec.discrete(5.0)
    report = mx.verify_reverse_triangle(m, [(0.0,), (1.0,), (2.0,)])
    assert report.ok


def test_reverse_triangle_trivial_when_points_equal():
    m = mx.MetricSpec.exp_abs(2.0)
    report = mx.verify_reverse_triangle(m, [(1.0,), (1.0,), (4.0,)])
    assert report.ok


# -- triple scans against the loops they replaced ---------------------------------


def _scans_agree(metric, sample):
    axioms = mx.verify_axioms(metric, sample)
    triangle = [v for v in axioms.violations if v["axiom"] == "triangle"]
    reverse = list(mx.verify_reverse_triangle(metric, sample).violations)
    # json.dumps compares NaN entries too, and the exact types of the values
    assert json.dumps(triangle) == json.dumps(_triangle_by_loop(metric, sample))
    assert json.dumps(reverse) == json.dumps(_reverse_triangle_by_loop(metric, sample))
    return triangle, reverse


# Table entries: 0 and the tolerance exactly, either side of it, and values
# whose sums and differences land on the tolerance; NaN, infinities and a
# negative entry as a broken table has them.
TABLE_ENTRIES = st.sampled_from([
    0.0, DEFAULT_LOG_TOL, 2 * DEFAULT_LOG_TOL, math.nextafter(DEFAULT_LOG_TOL, 1.0),
    math.nextafter(DEFAULT_LOG_TOL, 0.0), 0.5, 0.5 + DEFAULT_LOG_TOL, 1.0,
    math.nan, math.inf, -math.inf, -0.5])


@st.composite
def tables(draw):
    m = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(TABLE_ENTRIES, min_size=m, max_size=m),
                         min_size=m, max_size=m))
    return TableMetric(tuple(map(tuple, rows))), m


# Symmetric tables: distances of points on a line (exact collinear ties,
# and equal points where two positions coincide), scaled so that sums round,
# with entries moved by about the tolerance or a few ulps either way.
LINE_SCALES = [1.0, 0.1, 1 / 3, 2.0 ** -40, 100.0, 250.0, 300.0, 1e3, 2.0 ** 60]
TIES = [0.0, DEFAULT_LOG_TOL, -DEFAULT_LOG_TOL, math.nextafter(DEFAULT_LOG_TOL, 1.0),
        -math.nextafter(DEFAULT_LOG_TOL, 1.0), math.nextafter(DEFAULT_LOG_TOL, 0.0),
        DEFAULT_LOG_TOL / 2, 2 * DEFAULT_LOG_TOL, -2 * DEFAULT_LOG_TOL]


@st.composite
def symmetric_tables(draw):
    m = draw(st.integers(1, 6))
    line = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
    scale = draw(st.sampled_from(LINE_SCALES))
    table = np.zeros((m, m))
    for i, k in zip(*np.triu_indices(m)):
        entry = 0.0 if i == k else scale * abs(line[i] - line[k])
        entry = max(0.0, entry + draw(st.sampled_from(TIES)))
        ulps = draw(st.integers(-3, 3))
        for _ in range(abs(ulps)):
            entry = math.nextafter(entry, math.inf if ulps > 0 else 0.0)
        table[i, k] = table[k, i] = entry
    return TableMetric(tuple(map(tuple, table.tolist()))), m


@settings(max_examples=600, deadline=None)
@given(st.one_of(tables(), symmetric_tables()), st.data())
def test_triple_scans_list_what_their_loops_listed_on_tables(table, data):
    metric, m = table
    sample = [(float(k),) for k in data.draw(st.lists(st.integers(0, m - 1), max_size=7))]
    _scans_agree(metric, sample)


def test_the_proof_takes_every_finite_builtin_table():
    metric = mx.MetricSpec.exp_abs(2.0)
    line = [(0.0,), (1.0,), (3.0,), (1.0,)]  # collinear, one point twice
    D = metric.log_distance_matrix(line, line)
    assert _proved_empty(metric, D)
    # no ceiling on the entries: the margin grows with them
    for top in (188.0, 1e6, 1e300):
        assert _proved_empty(metric, D * (top / D.max()))
    for broken in (np.where(D > 1.0, math.nan, D), np.where(D > 1.0, math.inf, D)):
        assert not _proved_empty(metric, broken)
    assert not _proved_empty(mx.FunctionMetric(metric.distance), D)
    assert _proved_empty(metric, np.zeros((0, 0)))  # no triple to list


def test_the_reverse_scan_keeps_a_hit_that_only_rounding_makes():
    # |D[0,1] - D[2,1]| - D[0,2] is 9.7e-13 exactly but rounds to above tol,
    # while the triangle sum D[1,2] + D[2,0] rounds up to within tol of
    # D[1,0]: the reverse scan lists z = 1, and the triangle scan nothing
    rows = ((0.0, 900.0, 600.0000000000001), (900.0, 0.0, 299.9999999999989),
            (600.0000000000001, 299.9999999999989, 0.0))
    triangle, reverse = _scans_agree(TableMetric(rows), [(0.0,), (1.0,), (2.0,)])
    assert not triangle and [v["triple"] for v in reverse] == [[0, 2, 1], [2, 0, 1]]


def test_triple_scans_at_the_tolerance():
    tol = DEFAULT_LOG_TOL
    for entry, listed in ((tol, False), (math.nextafter(tol, 1.0), True)):
        # 0-2 at `entry`, the other two sides at log distance 0
        metric = TableMetric(((0.0, 0.0, entry), (0.0, 0.0, 0.0), (entry, 0.0, 0.0)))
        triangle, reverse = _scans_agree(metric, [(0.0,), (1.0,), (2.0,)])
        assert bool(triangle) is listed and bool(reverse) is listed


CONTROL_COORDS = st.sampled_from([0.0, 1.0, 2.0, 0.25, 0.5, 0.75, 3.0, -1.0])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([mx.FunctionMetric(fn, name)
                        for name, fn in NEGATIVE_CONTROLS.items()] + [NAN_TABLE]),
       st.lists(CONTROL_COORDS, max_size=8))
def test_triple_scans_list_what_their_loops_listed_on_the_controls(metric, coords):
    if metric is NAN_TABLE:
        coords = [c for c in coords if c in (0.0, 1.0, 2.0)]
    _scans_agree(metric, [(c,) for c in coords])




def _box_sample(metric, dim, n, log_width, seed):
    """n dim-d points of the metric's space, drawn from a box of half-width
    10**log_width: the box of the logs for star_product (at most 700 wide,
    so that every point is finite and positive) and five values a side for
    discrete.  A third of the points take one coordinate of another point,
    and two equal points and two scaled copies follow: exact ties, and
    rounding at tol."""
    width = 10.0 ** log_width
    rng = np.random.default_rng(seed)
    X = rng.uniform(-width, width, size=(n, dim))
    if metric.kind == "star_product":
        X = np.exp(np.clip(X, -700.0, 700.0))
    elif metric.kind == "discrete":
        X = np.round(2.0 * X / width)
    for i, j, k in rng.integers(0, [n, n, dim], size=(n // 3, 3)).tolist():
        X[i, k] = X[j, k]  # a shared coordinate: exact ties
    sample = [tuple(p) for p in X.tolist()]
    return sample + sample[:2] + [tuple(3.0 * c for c in p) for p in sample[:2]]


def _proved(metric, sample):
    """Whether ``_proved_empty`` proves the sample's triple scans empty."""
    points = [mx.as_point(p) for p in sample]
    return _proved_empty(metric, metric.log_distance_matrix(points, points))


# exp_abs(2) over a 2-d box of half-width 1e6, where rounding passes 1e-12: the
# plain loops at 1e-12 list 372 triangle and 1,168 reverse-triangle triples
WIDE_BOX = (BUILTINS[4], 2, 20, 6.0, 0)
# scale(c) is a ratio contraction with constant exactly |c| under exp_abs
# and every lifted base
SCALES = (2 / 3, 0.3, -0.7, 0.999)
BUILTIN_DRAWS = (st.sampled_from(BUILTINS), st.integers(1, 4), st.integers(2, 26),
                 st.floats(-3.0, 9.0), st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(*BUILTIN_DRAWS)
@example(*WIDE_BOX)
@example(BUILTINS[1], 1, 26, 9.0, 7)
def test_builtin_metrics_meet_their_known_answers_at_every_box_width(metric, dim, n,
                                                                     log_width, seed):
    # Every built-in metric satisfies the axioms exactly, so no check may
    # list a nonnegativity, symmetry, triangle or reverse-triangle violation.
    sample = _box_sample(metric, dim, n, log_width, seed)
    axioms = mx.verify_axioms(metric, sample)
    assert [v for v in axioms.violations if v["axiom"] != "identity"] == []
    assert mx.verify_reverse_triangle(metric, sample).violations == ()
    if metric.kind not in ("exp_abs", "lifted"):
        return
    points = [mx.as_point(p) for p in sample]
    D = metric.log_distance_matrix(points, points)
    for c in SCALES:
        T = mx.SelfMapSpec.scale(c)
        report = mx.classify(metric, T, sample, mx.ZamfirescuConstants(xi=abs(c)))
        assert report.condition_ok("C1")
        # xi_hat is a ratio L(Tx, Ty) / L(x, y), |c| exactly: its numerator
        # within the margin, so the ratio within the margin over L(x, y)
        margin = _reference_margin(dim, DEFAULT_LOG_TOL, reference_top(metric, T, points))
        assert abs(report.estimates.xi_hat - abs(c)) * D[D > 0].min() <= margin


@settings(max_examples=300, deadline=None)
@given(*BUILTIN_DRAWS)
@example(*WIDE_BOX)
def test_a_builtin_tables_rounding_stays_within_the_margin(metric, dim, n, log_width,
                                                           seed):
    # The oracle the proof rests on (``_proved_empty``): every triple the
    # plain loops list at tol = 0 breaks the law by rounding alone, within
    # ``_reference_margin`` at the table's largest entry, and so does every
    # C1 deficit of scale(c) at xi = |c|.
    sample = _box_sample(metric, dim, n, log_width, seed)
    points = [mx.as_point(p) for p in sample]
    D = metric.log_distance_matrix(points, points)
    assert np.isfinite(D).all()  # a table the proof takes
    margin = _reference_margin(dim, 0.0, float(D.max()))
    listed = _triangle_by_loop(metric, sample, 0.0) + _reverse_triangle_by_loop(
        metric, sample, 0.0)
    event("rounding listed" if listed else "nothing listed")
    assert all(v["lhs"] - v["rhs"] <= margin for v in listed)
    if metric.kind not in ("exp_abs", "lifted"):
        return
    pairs = [(x, y) for x, y in itertools.combinations(points, 2) if x != y]
    for c in SCALES:
        T = mx.SelfMapSpec.scale(c)
        margin = _reference_margin(dim, DEFAULT_LOG_TOL, reference_top(metric, T, points))
        assert all(-check_c1(metric, T, x, y, abs(c), 0.0)[1] <= margin for x, y in pairs)


def test_a_builtin_table_with_an_infinite_entry_is_scanned():
    # exp_abs(1e300) overflows between points more than 2.6e305 apart: the
    # table is not finite, so both scans run at tol; the reverse scan lists
    # |L(0, 4e305) - L(2e305, 4e305)| = inf against L(0, 2e305)
    metric = mx.MetricSpec.exp_abs(1e300)
    line = [(-1e306,), (0.0,), (2e305,), (4e305,), (1e306,)]
    assert not _proved(metric, line)
    triangle, reverse = _scans_agree(metric, line)
    rhs = metric.log_distance(0.0, 2e305)
    assert {"triple": [1, 2, 3], "lhs": math.inf, "rhs": rhs} in reverse
    # a FunctionMetric always scans, though its distances are small
    squared = mx.FunctionMetric(NEGATIVE_CONTROLS["squared"])
    line = [(0.0,), (1.0,), (2.0,)]
    triangle, reverse = _scans_agree(squared, line)
    assert not _proved(squared, line) and triangle and reverse
