"""Bundled reference scenarios exercising the full pipeline.

Four fixtures ship with the CLI under stable registry names:

``example_3_15``  two-thirds scaling map on the plane under the base-2
                  lifted Euclidean metric; a textbook ratio-xi contraction
                  with fixed point at the origin.
``example_3_16``  x -> 1/(2 + x) on [0.1, 1] under e**|1/x - 1/y|; certified
                  through the Kannan- and Chatterjea-type conditions with
                  eta = lambda = 0.499 and fixed point 0.4142135624.
``example_3_17``  x -> 1/sqrt(x) sampled on [1, 2] under 2**|x - y|;
                  certified through the comparison-function test with fixed
                  point 1.
``remark_2_5``    exact counterexamples showing the ratio-product distance
                  is not an ordinary metric (1.5 + 6 = 7.5 < 9) and the
                  usual absolute difference is not a multiplicative one
                  (1 * 3 = 3 < 4).

The three pipeline fixtures are plain :class:`ExperimentConfig` objects, so
``run_fixture(name)`` and ``run_experiment(fixture_config(name))`` produce
identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .conditions import PhiSpec, ZamfirescuConstants
from .errors import DomainError
from .experiment import ExperimentConfig, run_experiment
from .maps import Box, SelfMapSpec
from .metrics import FunctionMetric, MetricSpec, star_abs, verify_axioms
from .solver import SolverConfig

FIXTURE_NAMES = ("example_3_15", "example_3_16", "example_3_17", "remark_2_5")

_EPS = math.exp(1e-9)


def _config_3_15() -> ExperimentConfig:
    return ExperimentConfig(
        metric=MetricSpec.lifted("euclidean", a=2.0),
        map=SelfMapSpec.scale(2.0 / 3.0),
        domain=Box(((-6.0, 6.0), (-6.0, 6.0))),
        sample_size=40,
        seed=2016,
        solver=SolverConfig(
            eps=_EPS, max_iter=2000,
            starts=((3.0, 4.0), (-5.0, 2.0), (0.1, 0.1)),
            check_monotone_residual=True,
        ),
        constants=ZamfirescuConstants(xi=2.0 / 3.0, eta=0.0, lam=0.0),
        sample_scheme="mixed",
        enforce_domain=True,
        expectations=(
            {"kind": "converged"},
            {"kind": "residual", "max_logd": 1e-8},
            {"kind": "fixed_point", "point": [0.0, 0.0]},
            {"kind": "constants", "xi": 2.0 / 3.0},
            {"kind": "conditions_hold", "conditions": ["C1"]},
            {"kind": "verdict", "theorem": "t2", "via": ["C1"]},
            {"kind": "map_invariant"},
            {"kind": "apriori_bound"},
            {"kind": "unique_fixed_point"},
            {"kind": "axioms_pass"},
        ),
    )


def _config_3_16() -> ExperimentConfig:
    return ExperimentConfig(
        metric=MetricSpec.exp_reciprocal(),
        map=SelfMapSpec.rational(2.0),
        domain=Box(((0.1, 1.0),)),
        sample_size=50,
        seed=7,
        solver=SolverConfig(
            eps=_EPS, max_iter=2000,
            starts=((0.1,), (0.5,), (1.0,)),
            check_monotone_residual=True,
        ),
        constants=ZamfirescuConstants(xi=0.0, eta=0.499, lam=0.499),
        sample_scheme="grid",
        enforce_domain=True,
        expectations=(
            {"kind": "converged"},
            {"kind": "fixed_point", "point": [0.4142135624]},
            {"kind": "conditions_hold", "conditions": ["C2", "C3"]},
            {"kind": "verdict", "theorem": "t2", "via": ["C2", "C3"]},
            {"kind": "map_invariant"},
            {"kind": "apriori_bound"},
            {"kind": "unique_fixed_point"},
            {"kind": "axioms_pass"},
        ),
    )


def _config_3_17() -> ExperimentConfig:
    # The inverse-square-root map sends [1, 2] onto [1/sqrt(2), 1], so the
    # orbit legitimately dips below 1; the box is a sampling region here and
    # is deliberately not enforced during iteration.
    return ExperimentConfig(
        metric=MetricSpec.exp_abs(2.0),
        map=SelfMapSpec.reciprocal_sqrt(),
        domain=Box(((1.0, 2.0),)),
        sample_size=100,
        seed=11,
        solver=SolverConfig(
            eps=_EPS, max_iter=2000,
            starts=((1.0,), (1.5,), (2.0,)),
            check_monotone_residual=True,
        ),
        phi=PhiSpec("example317"),
        sample_scheme="grid",
        enforce_domain=False,
        expectations=(
            {"kind": "converged"},
            {"kind": "fixed_point", "point": [1.0]},
            {"kind": "phi_holds"},
            {"kind": "verdict", "theorem": "th3"},
            {"kind": "unique_fixed_point"},
            {"kind": "axioms_pass"},
        ),
    )


_CONFIG_BUILDERS = {
    "example_3_15": _config_3_15,
    "example_3_16": _config_3_16,
    "example_3_17": _config_3_17,
}


def fixture_config(name: str) -> ExperimentConfig:
    """The experiment configuration behind a pipeline fixture name."""
    try:
        return _CONFIG_BUILDERS[name]()
    except KeyError:
        raise DomainError(
            f"no experiment config for {name!r}; configurable fixtures are "
            f"{sorted(_CONFIG_BUILDERS)}"
        ) from None


@dataclass(frozen=True)
class RemarkReport:
    """Exact counterexample arithmetic plus the machinery cross-checks."""

    checks: tuple[dict, ...]
    seed: int = 0

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_json_dict(self) -> dict:
        return {"seed": self.seed, "checks": list(self.checks),
                "passed": self.passed}


def _run_remark_2_5() -> RemarkReport:
    # Exact rational arithmetic keeps the reported numbers bit-comparable:
    # 3/2 + 6 = 7.5 and 9 are all representable floats.  Only this fixture
    # loads fractions (and decimal with it).
    from fractions import Fraction

    third, half, three = Fraction(1, 3), Fraction(1, 2), Fraction(3)

    def d_star(a: Fraction, b: Fraction) -> Fraction:
        return star_abs(a / b)

    d12 = d_star(third, half)    # 3/2
    d23 = d_star(half, three)    # 6
    d13 = d_star(third, three)   # 9
    additive_sum = float(d12 + d23)
    additive_direct = float(d13)
    checks = [{
        "name": "star_product_is_not_an_ordinary_metric",
        "lhs": additive_sum,
        "rhs": additive_direct,
        "relation": "<",
        "detail": f"d*(1/3,1/2) + d*(1/2,3) = {additive_sum} < {additive_direct} = d*(1/3,3)",
        "passed": additive_sum < additive_direct,
    }]

    # The usual absolute difference fed to the multiplicative triangle check.
    product = float(Fraction(1) * Fraction(3))   # d(2,3) * d(3,6)
    direct = float(Fraction(4))                  # d(2,6)
    checks.append({
        "name": "usual_metric_is_not_multiplicative",
        "lhs": product,
        "rhs": direct,
        "relation": "<",
        "detail": f"d(2,3) * d(3,6) = {product} < {direct} = d(2,6)",
        "passed": product < direct,
    })

    # Cross-check both claims through the sample-based axiom machinery.
    usual = FunctionMetric(lambda x, y: abs(x[0] - y[0]), name="usual_abs")
    report = verify_axioms(usual, [(2.0,), (3.0,), (6.0,)])
    witnessed = any(
        v["axiom"] == "triangle"
        and math.isclose(v["lhs"], math.log(4.0))
        and math.isclose(v["rhs"], math.log(3.0))
        for v in report.violations
    )
    checks.append({
        "name": "axiom_checker_flags_the_usual_metric",
        "detail": f"{report.count('triangle')} triangle violations on {{2, 3, 6}}",
        "passed": witnessed,
    })

    star = MetricSpec.star_product()
    star_report = verify_axioms(
        star, [(1 / 3,), (1 / 2,), (3.0,), (0.25,), (5.0,), (1.0,)]
    )
    checks.append({
        "name": "star_product_satisfies_the_multiplicative_axioms",
        "detail": f"{len(star_report.violations)} violations on the sample",
        "passed": star_report.ok,
    })
    return RemarkReport(checks=tuple(checks))


def run_fixture(name: str):
    """Run a fixture end to end; returns its report object."""
    if name == "remark_2_5":
        return _run_remark_2_5()
    return run_experiment(fixture_config(name))
