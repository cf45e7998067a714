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

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from operator import add, gt, ne, sub
from typing import Callable, Iterable, Sequence

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

    Every coordinate must be finite; a bare number becomes a 1-d point.  A
    tuple of exact floats is checked and returned as it is, so a re-check
    of a checked point builds nothing.
    """
    if type(value) is tuple and all(type(c) is float for c in value):
        coords: Point = value
    elif isinstance(value, bool):
        raise DomainError("a point coordinate cannot be a bool")
    elif isinstance(value, (int, float, np.floating, np.integer)):
        coords = (float(value),)
    else:
        coords = tuple(map(float, value))
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


def _array(points: Sequence) -> np.ndarray:
    """Points of one dimension as an (n, d) float array; ``np.fromiter``
    skips the per-item shape discovery of ``np.array`` on a list of tuples."""
    n, d = len(points), len(points[0])
    return np.fromiter(itertools.chain.from_iterable(points), float, n * d).reshape(n, d)


# -- scalar kernels: the log distance of two checked point tuples ------------
# Each takes its metric's log(a) first; ``MetricSpec._log_distance`` binds it.
# Terms are added left to right, as the array kernels add them: ``sum`` of
# floats is compensated since Python 3.12 and can differ in the last bit.


def _star_product(px: Point, py: Point) -> float:
    return reduce(add, map(abs, map(sub, map(math.log, px), map(math.log, py))))


def _euclidean(log_a: float, px: Point, py: Point) -> float:
    return log_a * math.dist(px, py)


def _manhattan(log_a: float, px: Point, py: Point) -> float:
    return log_a * reduce(add, map(abs, map(sub, px, py)))


def _chebyshev(log_a: float, px: Point, py: Point) -> float:
    return log_a * max(map(abs, map(sub, px, py)))


def _exp_reciprocal(log_a: float, px: Point, py: Point) -> float:
    return log_a * reduce(add, (abs(1.0 / a - 1.0 / b) for a, b in zip(px, py)))


def _discrete(log_a: float, px: Point, py: Point) -> float:
    # exact coordinate equality, codomain {0, log a}
    return 0.0 if px == py else log_a


# keyed by kind, and by base for the lifted kind
_KERNELS = {"euclidean": _euclidean, "manhattan": _manhattan, "chebyshev": _chebyshev,
            "exp_abs": _manhattan, "exp_reciprocal": _exp_reciprocal,
            "discrete": _discrete}


# each kind whose space is not all of R^d: the comparison with 0.0 that every
# coordinate must pass, on a float or elementwise on an array, and its word
_SPACES = {"star_product": (gt, "positive"), "exp_reciprocal": (ne, "nonzero")}


def _reference_margin(dim: int, tol: float, top: float) -> float:
    """The package's one rounding rule: how far past tol a comparison of
    log distances of dim-d points, at most top and computed by a MetricSpec
    kernel, may come out when the exact one holds.  A built-in metric's
    comparisons forgive tol plus this margin at their largest finite entry.

    Each kernel is within d + 5 roundings, a relative error of
    g = (d + 5) u up to O(g**2), u = 2**-53, of a value L that obeys the
    triangle inequality exactly: the kind's formula on the coordinates, or
    on their rounded logs (star_product) or reciprocals (exp_reciprocal),
    times the rounded log(a).  A coordinate difference costs one rounding,
    the left-to-right sum d - 1, the factor log(a) one, and ``math.dist`` is
    within 2 ulps (4 roundings) of the norm of the rounded differences.  So
    L <= top / (1 - g), and each later step is one rounding fl, monotone and
    of relative error at most u.  Three counts follow:

    - neighbour count: when L(p_i, p_j) < tol, each coordinate's values
      differ by less than tol / ((1 - g) log(a)), as the norm of their
      differences is no smaller than any one (``MetricSpec._reach``);
    - a triple scan's computed excess is at most (2g + u) top / (1 - g),
      worst at equality: (2g + u) L(i,k) for D[i,k] - fl(D[i,j] + D[j,k]),
      and 2g L + u top for fl(|D[x,z] - D[y,z]|) - D[x,y], where L is
      max(L(x,z), L(y,z)); so a finite table's scans list nothing
      (``_proved_empty``);
    - a condition slack c * S - D, with S one entry or the sum of two and
      c * S and D at most top, rounds by at most about 3 g top.

    Each is below the margin 8 g (tol + top) with room to spare; 2**-1000
    covers the absolute error of a product that underflows.  As tol is a
    float, comparing a rounded value with tol + margin drops no pair.
    """
    return (dim + 5) * 2.0 ** -50 * (tol + top) + 2.0 ** -1000


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

    def _outside(self, p: Point, dim: int) -> str | None:
        """Why the point tuple p is no point of this metric's space of
        dimension dim, its dimension checked first, or None when it is one."""
        if len(p) != dim:
            return f"dimension mismatch: {dim} vs {len(p)}"
        test, word = _SPACES.get(self.kind, (None, None))
        if test is not None and not all(test(c, 0.0) for c in p):
            return f"{self.kind} needs {word} coordinates, got {p}"
        return None

    def _checked(self, points: Iterable) -> list[Point]:
        """The points as tuples (``as_point``); DomainError ``point k: ...``
        at the first that ``as_point`` rejects, of another dimension than the
        first or outside this metric's space (``_outside``), k counting the
        points given."""
        pts: list[Point] = []
        for k, p in enumerate(points):
            try:
                p = as_point(p)
            except DomainError as exc:
                raise DomainError(f"point {k}: {exc}") from None
            if why := self._outside(p, len(pts[0]) if pts else len(p)):
                raise DomainError(f"point {k}: {why}")
            pts.append(p)
        return pts

    def log_distance(self, x, y) -> float:
        """Natural log of the multiplicative distance, >= 0 for a MetricSpec."""
        px, py = as_point(x), as_point(y)
        # the dimension, then x, then y
        if why := ((len(px) == len(py) and self._outside(px, len(px)))
                   or self._outside(py, len(px))):
            raise DomainError(why)
        return self._log_distance(px, py)

    @cached_property
    def _log_distance(self) -> Callable[[Point, Point], float]:
        """``log_distance`` of two point tuples that pass ``_outside`` at one
        dimension: this kind's scalar kernel, with log(a) bound once."""
        if self.kind == "star_product":
            return _star_product
        return partial(_KERNELS[self.base if self.kind == "lifted" else self.kind],
                       math.log(self.a))

    def log_distance_matrix(self, X, Y) -> np.ndarray:
        """``log_distance(x, y)`` for every x in X (rows) and y in Y (columns).

        Entries equal the scalar method bit for bit: logs and Euclidean
        norms come from the same scalar ``math`` calls, and coordinate terms
        are summed (or maximized) in the same left-to-right order.  A point
        raises as ``_checked`` does, k counting X, then Y.
        """
        X = list(X)
        P = self._checked(X + list(Y))
        return self._log_distance_matrix(P[:len(X)], P[len(X):])

    def _log_distance_matrix(self, X: Sequence[Point], Y: Sequence[Point]) -> np.ndarray:
        """``log_distance_matrix`` of point tuples that passed ``_checked``."""
        if not X or not Y:
            return np.zeros((len(X), len(Y)))
        if self.kind == "lifted" and self.base == "euclidean":
            norms = [[math.dist(x, y) for y in Y] for x in X]
            with np.errstate(over="ignore"):  # inf, as the scalar kernel gives
                return math.log(self.a) * np.array(norms)
        A, B = self._values(_array(X)), self._values(_array(Y))
        return self._fold(A[:, None, :], B[None, :, :])

    def _chain(self, P: Sequence[Point], A: np.ndarray) -> np.ndarray:
        """``_log_distance`` of each of the checked point tuples ``P[1:]``
        from the one before it, bit for bit, where A holds P: the scalar
        kernel for a lifted Euclidean metric, else ``_fold`` of A's values."""
        if self.kind == "lifted" and self.base == "euclidean":
            return np.array(list(map(self._log_distance, P[:-1], P[1:])))
        V = self._values(A)
        return self._fold(V[:-1], V[1:])

    def _values(self, A: np.ndarray) -> np.ndarray:
        """The values this kind compares of the points in A's rows: the
        coordinates, their ``math.log`` or their reciprocals."""
        if self.kind == "star_product":
            return np.array([list(map(math.log, row)) for row in A.tolist()])
        if self.kind == "exp_reciprocal":
            with np.errstate(all="ignore"):
                return 1.0 / A
        return A

    def _reach(self, dim: int, log_radius: float) -> float:
        """How far the ``_values`` of two dim-d points below log_radius apart
        may differ in a coordinate: the radius and its margin over the factor
        log(a) (1 for star_product); for discrete, 0 below log(a), else inf."""
        if self.kind == "discrete":
            return math.inf if log_radius > math.log(self.a) else 0.0
        factor = 1.0 if self.kind == "star_product" else math.log(self.a)
        return (log_radius + _reference_margin(dim, log_radius, log_radius)) / factor

    def _fold(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """The log distances of the broadcast arrays A and B over their last
        axis: coordinate terms summed (or maximized) left to right, as the
        scalar kernels do."""
        with np.errstate(all="ignore"):
            if self.kind == "discrete":
                return np.where((A == B).all(axis=-1), 0.0, math.log(self.a))
            terms = np.abs(A - B)
            acc = terms[..., 0]
            for k in range(1, terms.shape[-1]):
                t = terms[..., k]
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

    ``fn`` receives two point tuples of one dimension, checked by the entries
    shared with MetricSpec, and returns a plain (multiplicative) distance.  A
    zero distance maps to -inf in the log domain instead of raising, so
    candidate "metrics" that are not actually multiplicative metrics can be
    fed to the verification helpers as negative controls.
    """

    fn: Callable[[Point, Point], float]
    name: str = "custom"

    def _outside(self, p: Point, dim: int) -> str | None:
        """Why p is no point of dimension dim, or None: fn takes any tuples."""
        return None if len(p) == dim else f"dimension mismatch: {dim} vs {len(p)}"

    _checked = MetricSpec._checked
    log_distance = MetricSpec.log_distance
    log_distance_matrix = MetricSpec.log_distance_matrix

    def _log_distance(self, px: Point, py: Point) -> float:
        """``log_distance`` of two point tuples that pass ``_outside`` at one dimension."""
        v = float(self.fn(px, py))
        if v > 0:
            return math.log(v)
        if v == 0.0:
            return -math.inf
        if math.isnan(v):
            raise DomainError("distance function returned NaN")
        raise DomainError(f"distance function returned a negative value {v}")

    def _log_distance_matrix(self, X: Sequence[Point], Y: Sequence[Point]) -> np.ndarray:
        """``log_distance_matrix`` of point tuples that passed ``_checked``,
        one call of fn per ordered pair."""
        D = [[self._log_distance(x, y) for y in Y] for x in X]
        return np.array(D, dtype=float).reshape(len(X), len(Y))

    def distance(self, x, y) -> float:
        return float(self.fn(*self._checked([x, y])))


def equal_points(points: list) -> np.ndarray:
    """``points[i] == points[j]`` for every pair of point tuples, as a matrix."""
    ids: dict = {}  # equal points share an id
    key = np.array([ids.setdefault(p, len(ids)) for p in points], dtype=int)
    return key[:, None] == key[None, :]


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


class AxiomReport(_ViolationReport):
    """Outcome of sample-based multiplicative metric axiom checks."""

    def count(self, axiom: str) -> int:
        return sum(1 for v in self.violations if v["axiom"] == axiom)


class ReverseTriangleReport(_ViolationReport):
    """Outcome of the multiplicative reverse triangle check."""


def verify_axioms(metric, sample: Iterable) -> AxiomReport:
    """Check the four multiplicative metric axioms over a finite sample.

    All checks run in the log domain at tol = ``DEFAULT_LOG_TOL``, which the
    report echoes: nonnegativity is log d >= -tol, identity of
    indiscernibles compares log d against 0 at tol, symmetry compares the
    two evaluation orders, and the multiplicative triangle inequality
    becomes log d(x,z) <= log d(x,y) + log d(y,z) + tol.  Every violating
    pair or triple is listed.  Small samples simply give vacuous passes.  A
    built-in metric's finite table passes the triangle inequality unscanned
    (``_proved_empty``), its rounding margin forgiven; the scan runs at
    every middle, at tol, for a FunctionMetric or a non-finite table.
    """
    points = metric._checked(sample)
    D = metric._log_distance_matrix(points, points)
    return _verify_axioms(equal_points(points), D, _proved_empty(metric, D))


def _proved_empty(metric, D: np.ndarray) -> bool:
    """Whether both triple scans of D, a log-distance matrix under metric,
    are proved to list nothing: D is a MetricSpec's and finite, so every
    excess is rounding within ``_reference_margin``.  Otherwise each scan
    runs at every index, at tol = ``DEFAULT_LOG_TOL``."""
    return isinstance(metric, MetricSpec) and bool(np.isfinite(D).all())


def _verify_axioms(equal: np.ndarray, D: np.ndarray, proved: bool) -> AxiomReport:
    """``verify_axioms`` of point tuples, given as their ``equal_points``
    matrix and their log-distance matrix D, with the triangle inequality
    checked at every middle, or at none when proved (``_proved_empty``)."""
    n, tol = len(D), DEFAULT_LOG_TOL
    with np.errstate(invalid="ignore"):  # NaN compares False; inf - inf is NaN
        nonneg = D < -tol
        identity = np.where(equal, np.abs(D) > tol, D <= tol)
        symmetry = np.triu(np.abs(D - D.T) > tol, 1)
    violations: list[dict] = []
    for i, j in np.argwhere(nonneg | identity | symmetry).tolist():
        d = float(D[i, j])
        if nonneg[i, j]:
            violations.append({"axiom": "nonnegativity", "pair": [i, j], "log_distance": d})
        if identity[i, j]:
            violations.append({"axiom": "identity", "pair": [i, j], "log_distance": d,
                               "points_equal": bool(equal[i, j])})
        if symmetry[i, j]:
            violations.append({"axiom": "symmetry", "pair": [i, j],
                               "forward": d, "reverse": float(D[j, i])})

    # Triangle: for each middle index j, flag pairs (i, k), i != k, with
    # D[i,k] > D[i,j] + D[j,k] + tol.  NaNs (possible only for degenerate
    # custom distances) compare False and are ignored.  Each middle fills
    # one buffer and is listed only when it has a hit.
    buf, bad = np.empty((n, n)), np.empty((n, n), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(0 if proved else n):
            np.add(D[:, j, None], D[None, j, :], out=buf)
            np.subtract(D, buf, out=buf)
            if not np.greater(buf, tol, out=bad).any():
                continue
            np.fill_diagonal(bad, False)
            rhs = D[:, j, None] + D[None, j, :]
            for i, k in np.argwhere(bad).tolist():
                violations.append(
                    {"axiom": "triangle", "triple": [i, j, k],
                     "lhs": float(D[i, k]), "rhs": float(rhs[i, k])}
                )

    return AxiomReport(n_points=n, tol=tol, violations=tuple(violations))


def verify_reverse_triangle(metric, sample: Iterable) -> ReverseTriangleReport:
    """Check |log d(x,z) - log d(y,z)| <= log d(x,y) + tol over all triples,
    at tol = ``DEFAULT_LOG_TOL``, which the report echoes.

    This is the log-domain form of the reverse inequality
    star_abs(d(x,z) / d(y,z)) <= d(x,y); it follows from the axioms, so a
    valid metric must pass on every sampled triple.  A built-in metric's
    finite table passes without a scan, as in ``verify_axioms``; the scan
    runs at every triple, at tol, for a FunctionMetric or a non-finite table.
    """
    points = metric._checked(sample)
    D = metric._log_distance_matrix(points, points)
    return _verify_reverse_triangle(D, _proved_empty(metric, D))


def _verify_reverse_triangle(D: np.ndarray, proved: bool) -> ReverseTriangleReport:
    """``verify_reverse_triangle`` of a sample's log-distance matrix D,
    checked at every last index z, or at none when proved (``_proved_empty``):
    each z fills one buffer and is listed only when it has a hit."""
    n, tol = len(D), DEFAULT_LOG_TOL
    buf, bad = np.empty((n, n)), np.empty((n, n), dtype=bool)
    violations: list[dict] = []
    with np.errstate(invalid="ignore"):
        for z in range(0 if proved else n):
            np.subtract(D[:, z, None], D[None, :, z], out=buf)
            np.abs(buf, out=buf)
            np.subtract(buf, D, out=buf)
            if not np.greater(buf, tol, out=bad).any():
                continue
            lhs = np.abs(D[:, z, None] - D[None, :, z])
            for x, y in np.argwhere(bad).tolist():
                violations.append(
                    {"triple": [x, y, z], "lhs": float(lhs[x, y]), "rhs": float(D[x, y])}
                )
    return ReverseTriangleReport(n_points=n, tol=tol, violations=tuple(violations))
