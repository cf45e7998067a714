import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

import mulfix as mx
from mulfix.errors import DegeneratePairError, DomainError
from mulfix.metrics import DEFAULT_LOG_TOL
from scalar_reference import check_c1, check_c2, check_c3, check_phi, check_strict

EPS = math.exp(1e-9)

LIFTED2 = mx.MetricSpec.lifted("euclidean", a=2.0)
SCALE23 = mx.SelfMapSpec.scale(2.0 / 3.0)

RECIP = mx.MetricSpec.exp_reciprocal()
RATIONAL2 = mx.SelfMapSpec.rational(2.0)

EXPABS2 = mx.MetricSpec.exp_abs(2.0)
INVSQRT = mx.SelfMapSpec.reciprocal_sqrt()

IDENTITY = mx.SelfMapSpec.identity()
NEGATION = mx.SelfMapSpec.negation()

GRID_316 = mx.grid_points(mx.Box(((0.1, 1.0),)), 50)
GRID_317 = mx.grid_points(mx.Box(((1.0, 2.0),)), 100)


# -- constants ----------------------------------------------------------------


def test_constant_ranges_enforced():
    with pytest.raises(DomainError):
        mx.ZamfirescuConstants(xi=1.0)
    with pytest.raises(DomainError):
        mx.ZamfirescuConstants(eta=0.5)
    with pytest.raises(DomainError):
        mx.ZamfirescuConstants(lam=-0.1)


def test_delta_reference_values():
    assert mx.ZamfirescuConstants(xi=2 / 3).delta == 2 / 3
    assert mx.ZamfirescuConstants().delta == 0.0
    assert math.isclose(
        mx.ZamfirescuConstants(0.5, 0.4, 0.3).delta, 2 / 3, rel_tol=1e-12
    )


@given(
    st.floats(0, 0.99), st.floats(0, 0.49), st.floats(0, 0.49),
    st.floats(0, 0.009), st.floats(0, 0.009), st.floats(0, 0.009),
)
def test_delta_is_monotone_in_each_argument(xi, eta, lam, dx, de, dl):
    lo = mx.ZamfirescuConstants(xi, eta, lam)
    hi = mx.ZamfirescuConstants(xi + dx, eta + de, lam + dl)
    assert hi.delta >= lo.delta


def test_constants_json_round_trip():
    c = mx.ZamfirescuConstants(0.5, 0.4, 0.3)
    data = c.to_json_dict()
    assert set(data) == {"xi", "eta", "lambda", "delta"}
    assert mx.ZamfirescuConstants.from_json_dict(data) == c


# -- pairwise checks ------------------------------------------------------------


def test_c1_exact_for_the_scaling_map():
    ok, slack = check_c1(LIFTED2, SCALE23, (3.0, 4.0), (-1.0, 2.0), xi=2 / 3)
    assert ok and slack == pytest.approx(0.0, abs=1e-12)


def test_c1_constant_map_trivially_satisfied():
    const = mx.SelfMapSpec.constant((1.0,))
    ok, slack = check_c1(EXPABS2, const, (0.0,), (5.0,), xi=0.0)
    assert ok and slack == 0.0


def test_c1_violated_by_identity():
    ok, slack = check_c1(EXPABS2, IDENTITY, (0.0,), (1.0,), xi=0.9)
    assert not ok and slack < 0


def test_pairwise_checks_reject_degenerate_pairs():
    for checker in (check_c1, check_c2, check_c3):
        with pytest.raises(DegeneratePairError):
            checker(EXPABS2, IDENTITY, (1.0,), (1.0,), 0.1)
    with pytest.raises(DegeneratePairError):
        check_strict(EXPABS2, IDENTITY, (1.0,), (1.0,), "SI")


def test_pairwise_checks_validate_constants():
    with pytest.raises(DomainError):
        check_c1(EXPABS2, IDENTITY, (0.0,), (1.0,), xi=1.0)
    with pytest.raises(DomainError):
        check_c2(EXPABS2, IDENTITY, (0.0,), (1.0,), eta=0.5)
    with pytest.raises(DomainError):
        check_c3(EXPABS2, IDENTITY, (0.0,), (1.0,), lam=0.6)


def test_c2_holds_across_the_reciprocal_offset_grid():
    for x, y in itertools.combinations(GRID_316, 2):
        ok, slack = check_c2(RECIP, RATIONAL2, x, y, eta=0.499)
        assert ok and slack >= 0


def test_c3_holds_across_the_reciprocal_offset_grid():
    for x, y in itertools.combinations(GRID_316, 2):
        ok, _ = check_c3(RECIP, RATIONAL2, x, y, lam=0.499)
        assert ok


def test_c2_violated_by_identity():
    ok, slack = check_c2(EXPABS2, IDENTITY, (0.0,), (1.0,), eta=0.499)
    assert not ok and slack < 0


def test_c3_violated_by_a_swap_pair():
    # negation swaps 1 and -1, so the cross distances on the right are zero
    ok, slack = check_c3(EXPABS2, NEGATION, (1.0,), (-1.0,), lam=0.499)
    assert not ok and slack < 0


def test_c3_constant_map_trivially_satisfied():
    const = mx.SelfMapSpec.constant((2.0,))
    ok, _ = check_c3(EXPABS2, const, (0.0,), (5.0,), lam=0.0)
    assert ok


def test_strict_follows_from_c1_with_positive_margin():
    rng = random.Random(5)
    for _ in range(25):
        x = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        y = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        if x == y:
            continue
        ok_c1, _ = check_c1(LIFTED2, SCALE23, x, y, xi=2 / 3)
        ok_si, slack = check_strict(LIFTED2, SCALE23, x, y, "SI")
        assert ok_c1 and ok_si and slack > 0


def test_strict_fails_for_identity_equality():
    ok, slack = check_strict(EXPABS2, IDENTITY, (0.0,), (1.0,), "SI")
    assert not ok and slack == 0.0


def test_sii_holds_on_the_inverse_sqrt_grid():
    for x, y in itertools.combinations(GRID_317[::7], 2):
        ok, slack = check_strict(EXPABS2, INVSQRT, x, y, "SII")
        assert ok and slack > 0


def test_strict_unknown_condition_rejected():
    with pytest.raises(DomainError):
        check_strict(EXPABS2, IDENTITY, (0.0,), (1.0,), "SIV")


# -- phi ------------------------------------------------------------------------


def test_phi_spec_validation():
    with pytest.raises(DomainError):
        mx.PhiSpec("power_product", q=1.0)
    with pytest.raises(DomainError):
        mx.PhiSpec("psi_sqrt", psi="cube")
    with pytest.raises(DomainError):
        mx.PhiSpec("custom_table", alpha=0.0, beta=1.0)
    with pytest.raises(DomainError):
        mx.PhiSpec("nope")
    with pytest.raises(DomainError, match="^example317 takes no 'q'$"):
        mx.PhiSpec("example317", q=0.5)
    with pytest.raises(DomainError, match="^custom_table needs alpha and beta$"):
        mx.PhiSpec("custom_table", alpha=1.0)
    # a non-finite exponent is named, not blamed on phi(1, 1) (inf * 0 is
    # NaN there); 1e-320 * 1e-6 underflows to 0 off (1, 1)
    for name, bad in (("alpha", math.inf), ("beta", math.nan), ("alpha", -math.inf)):
        with pytest.raises(DomainError, match=f"^custom_table exponent {name} must be "
                                              "finite and positive$"):
            mx.PhiSpec("custom_table", **{"alpha": 1.0, "beta": 1.0, name: bad})
    with pytest.raises(DomainError, match=r"^custom_table: phi must exceed 1 off \(1, 1\)$"):
        mx.PhiSpec("custom_table", alpha=1e-320, beta=1.0)


def test_phi_spec_log_values():
    phi = mx.PhiSpec("example317")
    assert phi.log_phi(2.0, 3.0) == pytest.approx(5e-5)
    assert phi.log_phi(0.0, 0.0) == 0.0
    table = mx.PhiSpec("custom_table", alpha=0.5, beta=0.25)
    assert table.log_phi(2.0, 4.0) == pytest.approx(2.0)
    psi = mx.PhiSpec("psi_sqrt", psi="identity")
    assert psi.log_phi(1.0, 3.0) == pytest.approx(2.0)


def test_phi_json_round_trip():
    for phi in (mx.PhiSpec("power_product", q=0.25),
                mx.PhiSpec("psi_sqrt", psi="sqrt"),
                mx.PhiSpec("example317"),
                mx.PhiSpec("custom_table", alpha=1.0, beta=2.0)):
        assert mx.PhiSpec.from_json_dict(phi.to_json_dict()) == phi


def test_phi_holds_at_a_fixed_point_diagonal():
    phi = mx.PhiSpec("example317")
    ok, slack = check_phi(EXPABS2, INVSQRT, phi, (1.0,), (1.0,))
    assert ok and slack == 0.0


def test_phi_holds_on_the_inverse_sqrt_grid():
    phi = mx.PhiSpec("example317")
    for x, y in itertools.combinations(GRID_317[::9], 2):
        ok, slack = check_phi(EXPABS2, INVSQRT, phi, x, y)
        assert ok and slack >= 0


@given(st.floats(0.0, 0.95))
def test_power_product_phi_reduces_to_the_q_half_form(q):
    phi = mx.PhiSpec("power_product", q=q)
    rng = random.Random(11)
    x, y = (rng.uniform(1.0, 2.0),), (rng.uniform(1.0, 2.0),)
    _, slack = check_phi(EXPABS2, INVSQRT, phi, x, y)
    # direct form: L(Tx, Ty) <= (q / 2) * (L(x, Tx) + L(y, Ty))
    tx, ty = INVSQRT(x), INVSQRT(y)
    lhs = EXPABS2.log_distance(tx, ty)
    s = EXPABS2.log_distance(x, tx)
    t = EXPABS2.log_distance(y, ty)
    direct_slack = 0.5 * q * (s + t) - lhs
    expected = 0.0 if -1e-12 <= direct_slack < 0 else direct_slack
    assert math.isclose(slack, expected, rel_tol=1e-12, abs_tol=1e-12)


def test_phi_rejects_distances_below_one():
    shrunk = mx.FunctionMetric(lambda x, y: 0.5, name="bad")
    phi = mx.PhiSpec("example317")
    with pytest.raises(DomainError):
        check_phi(shrunk, IDENTITY, phi, (0.0,), (1.0,))


# -- constant estimation ---------------------------------------------------------


def test_scaling_map_ratio_is_recovered_exactly():
    sample = mx.sample_box(mx.Box(((-6.0, 6.0), (-6.0, 6.0))), 40, seed=2016)
    est = mx.estimate_constants(LIFTED2, SCALE23, sample)
    assert abs(est.xi_hat - 2 / 3) <= 1e-9
    assert est.c1_feasible


def test_constant_map_estimates_are_zero():
    const = mx.SelfMapSpec.constant((0.5,))
    est = mx.estimate_constants(EXPABS2, const, [(0.0,), (1.0,), (2.0,)])
    assert (est.xi_hat, est.eta_hat, est.lambda_hat) == (0.0, 0.0, 0.0)


def test_reciprocal_offset_estimates_match_brute_force_oracle():
    est = mx.estimate_constants(RECIP, RATIONAL2, GRID_316)
    # independent oracle: plain-formula ratios maximized over all grid pairs
    xs = [p[0] for p in GRID_316]
    xi = eta = lam = 0.0
    for x, y in itertools.combinations(xs, 2):
        num = abs(x - y)  # |1/T(x) - 1/T(y)| = |(2 + x) - (2 + y)|
        xi = max(xi, num / abs(1 / x - 1 / y))
        eta = max(eta, num / (abs(1 / x - (2 + x)) + abs(1 / y - (2 + y))))
        lam = max(lam, num / (abs(1 / x - (2 + y)) + abs(1 / y - (2 + x))))
    assert math.isclose(est.xi_hat, xi, rel_tol=1e-12)
    assert math.isclose(est.eta_hat, eta, rel_tol=1e-12)
    assert math.isclose(est.lambda_hat, lam, rel_tol=1e-12)
    assert est.eta_hat <= 0.499 and est.lambda_hat <= 0.499
    # feasible estimates always yield a valid contraction ratio
    assert mx.ZamfirescuConstants(xi=est.xi_hat, eta=est.eta_hat,
                                  lam=est.lambda_hat).delta < 1


def test_negation_is_infeasible_on_a_symmetric_grid():
    sample = mx.grid_points(mx.Box(((-2.0, 2.0),)), 21)
    est = mx.estimate_constants(mx.MetricSpec.exp_abs(math.e), NEGATION, sample)
    assert not est.c1_feasible          # ratio is exactly 1 on every pair
    assert not est.c2_feasible          # antipodal pairs reach 1/2
    assert est.lambda_hat == math.inf   # swap pair has zero denominator
    assert not est.c3_feasible


def test_estimate_requires_a_distinct_pair():
    with pytest.raises(DegeneratePairError):
        mx.estimate_constants(EXPABS2, IDENTITY, [(1.0,), (1.0,)])


# -- classification ---------------------------------------------------------------


def test_identity_map_classifies_as_none():
    report = mx.classify(EXPABS2, IDENTITY, [(0.0,), (0.5,), (1.0,)])
    assert report.overall == "none"
    assert not report.verdicts["t2"]["applicable"]
    assert not report.verdicts["t23"]["applicable"]


def test_classify_zeroes_a_slack_within_tolerance_and_fails_a_strict_tie():
    # the identity map on points 2e-13 apart: C1 at xi = 1/2 falls short by
    # half their log distance, less than DEFAULT_LOG_TOL, and SI and SIII
    # compare that distance with itself, a slack of exactly 0
    x, y = (1.0,), (1.0 + 2e-13,)
    d = EXPABS2.log_distance(x, y)
    assert -DEFAULT_LOG_TOL < 0.5 * d - d < 0
    report = mx.classify(EXPABS2, IDENTITY, [x, y], mx.ZamfirescuConstants(xi=0.5))
    got = {cid: (bool(flags[0]), float(slacks[0]))
           for cid, (flags, slacks) in report.rows.checks.items()}
    assert got == {"C1": (True, 0.0), "C2": (True, 0.0), "C3": (True, 0.0),
                   "SI": (False, 0.0), "SII": (False, -d), "SIII": (False, 0.0)}
    # the zeroed slack is +0.0, written 0.0 in pairs.csv and not -0.0
    assert "0,1,C1,true,0.0,\r\n" in report.rows.to_csv_text()


def test_a_function_metric_is_compared_at_the_tolerance_alone():
    # the identity map at xi = 1/2: C1 falls short by half of L(0, 4e-12),
    # past 1e-12 but within 1e-12 plus the rounding margin at the far
    # point's log distance 700; exp_abs(e) forgives it, and the same
    # distances as a FunctionMetric do not
    sample = [(0.0,), (4e-12,), (700.0,)]
    function = mx.FunctionMetric(lambda x, y: math.exp(abs(x[0] - y[0])))
    for metric, forgiven in ((mx.MetricSpec.exp_abs(math.e), True), (function, False)):
        d = metric.log_distance(*sample[:2])
        assert -4e-12 < 0.5 * d - d < -DEFAULT_LOG_TOL
        report = mx.classify(metric, IDENTITY, sample, mx.ZamfirescuConstants(xi=0.5))
        flags, slacks = report.rows.checks["C1"]
        assert (bool(flags[0]), float(slacks[0])) == (
            (True, 0.0) if forgiven else (False, 0.5 * d - d))


def test_negation_classifies_as_none():
    sample = mx.grid_points(mx.Box(((-2.0, 2.0),)), 21)
    report = mx.classify(mx.MetricSpec.exp_abs(math.e), NEGATION, sample)
    assert report.overall == "none"


def test_classification_is_permutation_invariant():
    sample = list(GRID_316[::3])
    base = mx.classify(RECIP, RATIONAL2, sample,
                       constants=mx.ZamfirescuConstants(0.0, 0.499, 0.499))
    rng = random.Random(3)
    shuffled = sample[:]
    rng.shuffle(shuffled)
    other = mx.classify(RECIP, RATIONAL2, shuffled,
                        constants=mx.ZamfirescuConstants(0.0, 0.499, 0.499))
    assert base.verdicts == other.verdicts
    assert base.estimates.xi_hat == other.estimates.xi_hat
    assert base.estimates.eta_hat == other.estimates.eta_hat
    assert base.estimates.lambda_hat == other.estimates.lambda_hat


def test_condition_ratios_are_invariant_under_base_change():
    sample = mx.sample_box(mx.Box(((-3.0, 3.0), (-3.0, 3.0))), 20, seed=4)
    est2 = mx.estimate_constants(mx.MetricSpec.lifted("euclidean", a=2.0),
                                 SCALE23, sample)
    est10 = mx.estimate_constants(mx.MetricSpec.lifted("euclidean", a=10.0),
                                  SCALE23, sample)
    assert math.isclose(est2.xi_hat, est10.xi_hat, rel_tol=1e-12)
    assert math.isclose(est2.eta_hat, est10.eta_hat, rel_tol=1e-12)
    assert math.isclose(est2.lambda_hat, est10.lambda_hat, rel_tol=1e-12)


def test_report_json_shape():
    report = mx.classify(RECIP, RATIONAL2, GRID_316[::5],
                         constants=mx.ZamfirescuConstants(0.0, 0.499, 0.499),
                         seed=7)
    data = report.to_json_dict()
    assert list(data) == ["pairs", "conditions", "evaluated", "unevaluated", "equal",
                          "constants", "verdicts", "seed"]
    assert data["seed"] == 7
    assert {"xi", "eta", "lambda", "delta", "estimates"} <= set(data["constants"])
    first = data["pairs"][0]
    assert list(first) == ["pair", "condition", "satisfied"]
    assert list(data["conditions"]) == list(report.rows.checks)
    assert all(list(entry) == ["violations", "min_slack", "min_pair"]
               for entry in data["conditions"].values())
    assert list(data["unevaluated"]) == ["map", "image", "phi"]
    assert all(list(entry) == ["count", "first_pair"]
               for entry in data["unevaluated"].values())


def assert_summary_counts_the_records(data: dict, n: int) -> None:
    """The summary of a condition report's JSON form counts what its
    records list, for a sample of n points."""
    records = data["pairs"]
    for cid, entry in data["conditions"].items():
        assert entry["violations"] == sum(r["condition"] == cid and r["satisfied"] is False
                                          for r in records)
    errors = [r for r in records if r["condition"] == "*"]
    assert sum(e["count"] for e in data["unevaluated"].values()) == len(errors)
    assert data["evaluated"] + len(errors) == len({tuple(r["pair"]) for r in records})
    assert data["evaluated"] + len(errors) + data["equal"] == n * (n - 1) // 2


def test_the_summary_counts_every_cause_of_an_unevaluated_pair():
    # star_product lives on positive coordinates.  rational(-2) has its pole
    # at 2 ("map") and sends 1 to -1 ("image"); 4.0 appears twice ("equal")
    sample = [1.0, 2.0, 3.0, 4.0, 4.0, 6.0]
    data = mx.classify(mx.MetricSpec.star_product(), mx.SelfMapSpec.rational(-2.0), sample,
                       phi=mx.PhiSpec("power_product", q=0.5)).to_json_dict()
    assert_summary_counts_the_records(data, len(sample))
    assert (data["evaluated"], data["equal"]) == (5, 1)
    assert data["unevaluated"] == {"map": {"count": 5, "first_pair": [0, 1]},
                                   "image": {"count": 4, "first_pair": [0, 2]},
                                   "phi": {"count": 0, "first_pair": None}}
    errors = {tuple(r["pair"]): r["error"] for r in data["pairs"] if r["condition"] == "*"}
    # each names the point that fails and how; in pair (0, 1) the map
    # failing at point 1 comes before the image of point 0
    assert errors[0, 1] == "map at point 1: rational map pole at coordinate 2.0"
    assert errors[0, 2] == "image of point 0: star_product needs positive coordinates, " \
                           "got (-1.0,)"

    # not a metric: d(x, Tx) = 2 ** (Tx - x) is below 1 at x > 0, where log
    # phi rejects the pair
    metric = mx.FunctionMetric(lambda x, y: 2.0 ** (y[0] - x[0]))
    sample = [-2.0, -1.0, 1.0, 2.0]
    data = mx.classify(metric, mx.SelfMapSpec.scale(0.5), sample,
                       phi=mx.PhiSpec("power_product", q=0.5)).to_json_dict()
    assert_summary_counts_the_records(data, len(sample))
    assert (data["evaluated"], data["equal"]) == (1, 0)
    assert data["unevaluated"]["phi"] == {"count": 5, "first_pair": [0, 2]}
    assert sum(e["count"] for e in data["unevaluated"].values()) == 5


@pytest.mark.parametrize("call", [
    lambda sample: mx.classify(mx.MetricSpec.star_product(), RATIONAL2, sample),
    lambda sample: mx.estimate_constants(mx.MetricSpec.star_product(), RATIONAL2, sample),
], ids=["classify", "estimate_constants"])
def test_a_sample_point_outside_the_space_is_bad_input(call):
    # star_product lives on positive coordinates: -1.0 is no point of it,
    # and neither is a point of another dimension
    with pytest.raises(DomainError) as err:
        call([0.5, 1.0, -1.0, 2.0, -3.0])
    assert str(err.value) == "point 2: star_product needs positive coordinates, got (-1.0,)"
    with pytest.raises(DomainError) as err:
        call([(0.5,), (1.0,), (1.0, 2.0)])
    assert str(err.value) == "point 2: dimension mismatch: 1 vs 2"


@pytest.mark.parametrize("call", [
    lambda sample: mx.verify_axioms(RECIP, sample),
    lambda sample: mx.verify_reverse_triangle(RECIP, sample),
    lambda sample: mx.classify(RECIP, mx.SelfMapSpec.scale(0.5), sample),
    lambda sample: mx.estimate_constants(RECIP, mx.SelfMapSpec.scale(0.5), sample),
    lambda sample: RECIP.log_distance_matrix(sample[:2], sample[2:]),
], ids=["verify_axioms", "verify_reverse_triangle", "classify", "estimate_constants",
        "log_distance_matrix"])
def test_every_check_of_a_sample_names_its_point_outside_the_space(call):
    # exp_reciprocal lives on nonzero coordinates: 0.0 is no point of it
    with pytest.raises(DomainError) as err:
        call([(-1.0,), (-0.5,), (0.0,), (0.5,)])
    assert str(err.value) == "point 2: exp_reciprocal needs nonzero coordinates, got (0.0,)"
    with pytest.raises(DomainError) as err:  # nor is a non-finite point
        call([(-1.0,), (-0.5,), (0.5,), (math.nan,)])
    assert str(err.value) == "point 3: non-finite coordinate nan"


def test_a_pole_in_the_sample_gives_error_records():
    sample = mx.grid_points(mx.Box(((0.0, 1.0),)), 5)
    report = mx.classify(EXPABS2, mx.SelfMapSpec.rational(-0.5), sample)
    errors = [r for r in report.records if r["condition"] == "*"]
    assert [r["pair"] for r in errors] == [[0, 2], [1, 2], [2, 3], [2, 4]]
    assert {r["error"] for r in errors} == {"map at point 2: rational map pole at "
                                            "coordinate 0.5"}
    assert all(r["satisfied"] is None and list(r) == ["pair", "condition", "satisfied",
                                                        "error"] for r in errors)
    # pairs.csv holds them in place, with an empty flag and slack
    error_rows = [row for row in report.rows.to_csv_text().splitlines() if ",*," in row]
    assert error_rows == [f"{i},{j},*,,,map at point 2: rational map pole at coordinate 0.5"
                          for i, j in [[0, 2], [1, 2], [2, 3], [2, 4]]]
    assert (report.n_pairs, report.skipped_pairs) == (10, 0)
    assert (report.estimates.pairs_used, report.estimates.pairs_skipped) == (6, 4)
    assert report.overall == "none"


def test_condition_ok_fails_when_a_pair_was_not_evaluated():
    # The pole sits at the first sample point.  C1 holds on every other pair
    # at the estimated constant, but a condition holds only when every pair
    # was evaluated, the rule the verdicts use.
    sample = mx.grid_points(mx.Box(((-2.0, 2.0),)), 5)
    report = mx.classify(EXPABS2, mx.SelfMapSpec.rational(2.0), sample)
    assert len([r for r in report.records if r["condition"] == "*"]) == 4
    assert all(r["satisfied"] for r in report.records if r["condition"] == "C1")
    assert report.overall == "none"
    assert not report.condition_ok("C1")


def test_satisfied_records_never_have_negative_slack():
    report = mx.classify(LIFTED2, SCALE23,
                         mx.sample_box(mx.Box(((-5.0, 5.0), (-5.0, 5.0))), 16, seed=1),
                         constants=mx.ZamfirescuConstants(xi=2 / 3))
    for flags, slacks in report.rows.checks.values():
        assert (slacks[flags] >= 0).all()
    # the violations are records of plain Python values too
    violations = [r for r in report.records if not r["satisfied"]]
    assert violations
    for v in violations:
        assert v["satisfied"] is False and list(map(type, v["pair"])) == [int, int]
