"""Multiplicative metrics on real coordinate points.

Distances here multiply instead of add: d(x, y) >= 1 always, d(x, y) = 1
exactly when x = y, symmetry holds, and d(x, z) <= d(x, y) * d(y, z).
Every built-in metric is evaluated internally as a natural logarithm (the
"log domain"); that turns the multiplicative laws into ordinary additive
ones and sidesteps overflow of the a**distance forms.  The plain
:meth:`MetricSpec.distance` exponentiates the log value and may saturate to
``inf`` for far-apart points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import DomainError
from .jsonconfig import JsonConfig

Point = tuple[float, ...]

#: log-domain comparison tolerance used by the verification helpers
DEFAULT_LOG_TOL = 1e-12

METRIC_KINDS = ("star_product", "lifted", "exp_abs", "exp_reciprocal", "discrete")
BASE_METRICS = ("euclidean", "manhattan", "chebyshev")


def as_point(value) -> Point:
    """Coerce a scalar or coordinate sequence to a validated point tuple.

    Every coordinate must be finite; a bare number becomes a 1-d point.
    """
    if isinstance(value, bool):
        raise DomainError("a point coordinate cannot be a bool")
    if isinstance(value, (int, float, np.floating, np.integer)):
        coords: Point = (float(value),)
    else:
        coords = tuple(float(c) for c in value)
    if not coords:
        raise DomainError("a point needs at least one coordinate")
    for c in coords:
        if not math.isfinite(c):
            raise DomainError(f"non-finite coordinate {c!r}")
    return coords


def star_abs(a):
    """Fold a positive number onto [1, inf): a if a >= 1, else 1/a.

    Works for floats and exact Fraction inputs alike.
    """
    if not math.isfinite(a) or a <= 0:
        raise DomainError(f"star_abs needs a finite positive argument, got {a!r}")
    return a if a >= 1 else 1 / a


def _norm(base: str, x: Point, y: Point) -> float:
    if base == "euclidean":
        return math.dist(x, y)
    if base == "manhattan":
        return sum(abs(a - b) for a, b in zip(x, y))
    if base == "chebyshev":
        return max(abs(a - b) for a, b in zip(x, y))
    raise DomainError(f"unknown base metric {base!r}")


@dataclass(frozen=True)
class MetricSpec(JsonConfig):
    """Descriptor for one of the built-in multiplicative metrics.

    kind
        ``star_product``    product of coordinate ratios folded onto [1, inf),
                            defined on points with strictly positive coordinates
        ``lifted``          a ** (ordinary base metric), base metric named in
                            ``base``
        ``exp_abs``         a ** (sum of coordinate absolute differences)
        ``exp_reciprocal``  a ** (sum of |1/x_i - 1/y_i|), coordinates nonzero
        ``discrete``        1 for equal points, a otherwise
    a
        the base of the exponential, required > 1 where it applies
    base
        ordinary metric lifted by the ``lifted`` kind
    """

    kind: str
    a: float | None = None
    base: str | None = None

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise DomainError(f"unknown metric kind {self.kind!r}")
        if self.kind == "star_product":
            if self.a is not None or self.base is not None:
                raise DomainError("star_product takes no parameters")
            return
        if self.kind == "lifted":
            if self.base is None:
                object.__setattr__(self, "base", "euclidean")
            if self.base not in BASE_METRICS:
                raise DomainError(f"unknown base metric {self.base!r}")
            if self.a is None:
                object.__setattr__(self, "a", 2.0)
        elif self.base is not None:
            raise DomainError(f"{self.kind} takes no base metric")
        if self.kind == "exp_reciprocal" and self.a is None:
            object.__setattr__(self, "a", math.e)
        if self.a is None:
            raise DomainError(f"{self.kind} needs a base a > 1")
        object.__setattr__(self, "a", float(self.a))
        if not math.isfinite(self.a) or self.a <= 1:
            raise DomainError(f"metric base must satisfy a > 1, got {self.a}")

    # -- constructors -----------------------------------------------------

    @classmethod
    def star_product(cls) -> "MetricSpec":
        return cls("star_product")

    @classmethod
    def lifted(cls, base: str = "euclidean", a: float = 2.0) -> "MetricSpec":
        return cls("lifted", a=a, base=base)

    @classmethod
    def exp_abs(cls, a: float) -> "MetricSpec":
        return cls("exp_abs", a=a)

    @classmethod
    def exp_reciprocal(cls, a: float = math.e) -> "MetricSpec":
        return cls("exp_reciprocal", a=a)

    @classmethod
    def discrete(cls, a: float) -> "MetricSpec":
        return cls("discrete", a=a)

    # -- evaluation --------------------------------------------------------

    def check_domain(self, p: Point) -> None:
        """Raise DomainError when a point is outside this metric's space."""
        if self.kind == "star_product" and any(c <= 0 for c in p):
            raise DomainError(f"star_product needs positive coordinates, got {p}")
        if self.kind == "exp_reciprocal" and any(c == 0 for c in p):
            raise DomainError(f"exp_reciprocal needs nonzero coordinates, got {p}")

    def log_distance(self, x, y) -> float:
        """Natural log of the multiplicative distance.  Always >= 0."""
        px, py = as_point(x), as_point(y)
        if len(px) != len(py):
            raise DomainError(f"dimension mismatch: {len(px)} vs {len(py)}")
        self.check_domain(px)
        self.check_domain(py)
        if self.kind == "star_product":
            return sum(abs(math.log(a) - math.log(b)) for a, b in zip(px, py))
        if self.kind == "lifted":
            return math.log(self.a) * _norm(self.base, px, py)
        if self.kind == "exp_abs":
            return math.log(self.a) * sum(abs(a - b) for a, b in zip(px, py))
        if self.kind == "exp_reciprocal":
            return math.log(self.a) * sum(abs(1.0 / a - 1.0 / b) for a, b in zip(px, py))
        # discrete: exact coordinate equality, codomain {0, log a}
        return 0.0 if px == py else math.log(self.a)

    def log_distance_matrix(self, X, Y) -> np.ndarray:
        """``log_distance(x, y)`` for every x in X (rows) and y in Y (columns).

        Entries equal the scalar method bit for bit: logs and Euclidean
        norms come from the same scalar ``math`` calls, and coordinate terms
        are summed (or maximized) in the same left-to-right order.
        """
        X, Y = [as_point(p) for p in X], [as_point(p) for p in Y]
        if not X or not Y:
            return np.zeros((len(X), len(Y)))
        for p in X + Y:
            if len(p) != len(X[0]):
                raise DomainError(f"dimension mismatch: {len(X[0])} vs {len(p)}")
            self.check_domain(p)
        if self.kind == "star_product":
            X, Y = ([[math.log(c) for c in p] for p in P] for P in (X, Y))
        A, B = np.array(X), np.array(Y)
        with np.errstate(all="ignore"):
            if self.kind == "discrete":
                same = (A[:, None, :] == B[None, :, :]).all(axis=2)
                return np.where(same, 0.0, math.log(self.a))
            if self.kind == "lifted" and self.base == "euclidean":
                norms = [[math.dist(x, y) for y in Y] for x in X]
                return math.log(self.a) * np.array(norms)
            if self.kind == "exp_reciprocal":
                A, B = 1.0 / A, 1.0 / B
            terms = np.abs(A[:, None, :] - B[None, :, :])
            acc = terms[:, :, 0]
            for t in terms.transpose(2, 0, 1)[1:]:
                acc = np.where(t > acc, t, acc) if self.base == "chebyshev" else acc + t
            return acc if self.kind == "star_product" else math.log(self.a) * acc

    def distance(self, x, y) -> float:
        """Multiplicative distance; saturates to inf instead of overflowing."""
        try:
            return math.exp(self.log_distance(x, y))
        except OverflowError:
            return math.inf


@dataclass(frozen=True)
class FunctionMetric:
    """Adapter exposing an arbitrary distance function as a metric.

    ``fn`` receives two point tuples and returns a plain (multiplicative)
    distance.  A zero distance maps to -inf in the log domain instead of
    raising, so candidate "metrics" that are not actually multiplicative
    metrics can be fed to the verification helpers as negative controls.
    """

    fn: Callable[[Point, Point], float]
    name: str = "custom"

    def check_domain(self, p: Point) -> None:  # pragma: no cover - no-op
        pass

    def log_distance(self, x, y) -> float:
        v = float(self.fn(as_point(x), as_point(y)))
        if v > 0:
            return math.log(v)
        if v == 0.0:
            return -math.inf
        raise DomainError(f"distance function returned a negative value {v}")

    def log_distance_matrix(self, X, Y) -> np.ndarray:
        """``log_distance`` over every ordered pair, one call of fn each."""
        X, Y = list(X), list(Y)
        D = [[self.log_distance(x, y) for y in Y] for x in X]
        return np.array(D, dtype=float).reshape(len(X), len(Y))

    def distance(self, x, y) -> float:
        return float(self.fn(as_point(x), as_point(y)))


def in_open_ball(metric, center, r: float, x) -> bool:
    """True when x lies strictly inside the ball of radius r > 1 at center."""
    if not (math.isfinite(r) and r > 1):
        raise DomainError(f"ball radius must be > 1, got {r!r}")
    return metric.log_distance(center, x) < math.log(r)


@dataclass(frozen=True)
class _ViolationReport:
    """Violations found by a sampled check; ok when there are none."""

    n_points: int
    tol: float
    violations: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {"n_points": self.n_points, "tol": self.tol, "ok": self.ok,
                "violations": list(self.violations)}


class AxiomReport(_ViolationReport):
    """Outcome of sample-based multiplicative metric axiom checks."""

    def count(self, axiom: str) -> int:
        return sum(1 for v in self.violations if v["axiom"] == axiom)


class ReverseTriangleReport(_ViolationReport):
    """Outcome of the multiplicative reverse triangle check."""


def verify_axioms(metric, sample: Iterable, tol: float = DEFAULT_LOG_TOL) -> AxiomReport:
    """Check the four multiplicative metric axioms over a finite sample.

    All checks run in the log domain: nonnegativity is log d >= -tol,
    identity of indiscernibles compares log d against 0 at tolerance,
    symmetry compares the two evaluation orders, and the multiplicative
    triangle inequality becomes log d(x,z) <= log d(x,y) + log d(y,z) + tol.
    Every violating pair or triple is listed.  Small samples simply give
    vacuous passes.
    """
    if tol < 0:
        raise DomainError("tol must be >= 0")
    points = [as_point(p) for p in sample]
    n = len(points)
    D = metric.log_distance_matrix(points, points)
    rows = D.tolist()
    violations: list[dict] = []

    for i in range(n):
        for j in range(n):
            d, equal = rows[i][j], points[i] == points[j]
            pair = {"pair": [i, j], "log_distance": d}
            if d < -tol:
                violations.append({"axiom": "nonnegativity", **pair})
            if abs(d) > tol if equal else d <= tol:
                violations.append({"axiom": "identity", **pair, "points_equal": equal})
            if j > i and abs(d - rows[j][i]) > tol:
                violations.append({"axiom": "symmetry", "pair": [i, j],
                                   "forward": d, "reverse": rows[j][i]})

    # Triangle: for each middle index j, flag pairs (i, k) with
    # D[i,k] > D[i,j] + D[j,k] + tol.  NaNs (possible only for degenerate
    # custom distances) compare False and are ignored.
    off_diag = ~np.eye(n, dtype=bool)
    with np.errstate(invalid="ignore"):
        for j in range(n):
            rhs = D[:, j][:, None] + D[j, :][None, :]
            bad = (D - rhs > tol) & off_diag
            for i, k in np.argwhere(bad):
                violations.append(
                    {"axiom": "triangle", "triple": [int(i), j, int(k)],
                     "lhs": float(D[i, k]), "rhs": float(rhs[i, k])}
                )

    return AxiomReport(n_points=n, tol=tol, violations=tuple(violations))


def verify_reverse_triangle(
    metric, sample: Iterable, tol: float = DEFAULT_LOG_TOL
) -> ReverseTriangleReport:
    """Check |log d(x,z) - log d(y,z)| <= log d(x,y) + tol over all triples.

    This is the log-domain form of the reverse inequality
    star_abs(d(x,z) / d(y,z)) <= d(x,y); it follows from the axioms, so a
    valid metric must pass on every sampled triple.
    """
    if tol < 0:
        raise DomainError("tol must be >= 0")
    points = [as_point(p) for p in sample]
    n = len(points)
    D = metric.log_distance_matrix(points, points)
    violations: list[dict] = []
    with np.errstate(invalid="ignore"):
        for z in range(n):
            col = D[:, z]
            lhs = np.abs(col[:, None] - col[None, :])
            bad = lhs - D > tol
            for x, y in np.argwhere(bad):
                violations.append(
                    {"triple": [int(x), int(y), z],
                     "lhs": float(lhs[x, y]), "rhs": float(D[x, y])}
                )
    return ReverseTriangleReport(n_points=n, tol=tol, violations=tuple(violations))
