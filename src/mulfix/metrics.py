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
from operator import add, sub
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


def _positive(p: Point) -> None:
    if any(c <= 0 for c in p):
        raise DomainError(f"star_product needs positive coordinates, got {p}")


def _nonzero(p: Point) -> None:
    if any(c == 0 for c in p):
        raise DomainError(f"exp_reciprocal needs nonzero coordinates, got {p}")


# the space check of each kind whose space is not all of R^d, on one point
# tuple and, as ``test(A, 0.0)``, on every coordinate of a finite array
_SPACES = {"star_product": _positive, "exp_reciprocal": _nonzero}
_ARRAY_SPACES = {"star_product": np.greater, "exp_reciprocal": np.not_equal}


def _reference_margin(dim: int, tol: float, top: float) -> float:
    """How much farther apart than tol two distances to one point may come
    out when their own points lie closer than tol.

    For dim-d points with r_i = L(p_i, p_0) and r_j = L(p_j, p_0) at most
    top, all three computed by a MetricSpec kernel: L(p_i, p_j) < tol
    implies |r_i - r_j| <= tol + margin.  Exactly, the reverse triangle
    inequality gives |r_i - r_j| <= L(p_i, p_j); the margin covers rounding.

    Each kernel is within d + 5 roundings, a relative error of
    g = (d + 5) 2**-53 up to O(g**2), of a value that obeys the triangle
    inequality exactly: the kind's formula on the coordinates, or on their
    rounded logs (star_product) or reciprocals (exp_reciprocal), times the
    rounded log(a).  A coordinate difference costs one rounding, the
    left-to-right sum d - 1, the factor log(a) one, and ``math.dist`` is
    within 2 ulps (4 roundings) of the norm of the rounded differences.  So
    |r_i - r_j| < (tol + 2 g top) / (1 - g) + O(g**2), which the margin
    8 g (tol + top) exceeds with room to spare; 2**-1000 covers the absolute
    error of a product that underflows.  Rounding is monotone, so comparing
    a rounded difference or sum of r values with the float tol + margin
    never drops such a pair.
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

    @property
    def _space(self) -> Callable[[Point], None] | None:
        """This kind's space check of a point tuple; None where its space is
        all of R^d."""
        return _SPACES.get(self.kind)

    def check_domain(self, p: Point) -> None:
        """Raise DomainError when a point is outside this metric's space."""
        space = self._space
        if space is not None:
            space(p)

    def _check_pair(self, px: Point, py: Point) -> None:
        """Raise DomainError unless two point tuples share a dimension and
        lie in this metric's space."""
        if len(px) != len(py):
            raise DomainError(f"dimension mismatch: {len(px)} vs {len(py)}")
        self.check_domain(px)
        self.check_domain(py)

    def _checked(self, points: Sequence) -> list[Point]:
        """The points as tuples, after the checks ``log_distance_matrix``
        makes: all finite, then one dimension and this metric's space, the
        first failing point raising DomainError."""
        pts = [as_point(p) for p in points]
        for p in pts:
            if len(p) != len(pts[0]):
                raise DomainError(f"dimension mismatch: {len(pts[0])} vs {len(p)}")
            self.check_domain(p)
        return pts

    def log_distance(self, x, y) -> float:
        """Natural log of the multiplicative distance.  Always >= 0."""
        px, py = as_point(x), as_point(y)
        self._check_pair(px, py)
        return self._log_distance(px, py)

    @cached_property
    def _log_distance(self) -> Callable[[Point, Point], float]:
        """``log_distance`` of two point tuples that passed ``_check_pair``:
        this kind's scalar kernel, with log(a) bound once."""
        if self.kind == "star_product":
            return _star_product
        return partial(_KERNELS[self.base if self.kind == "lifted" else self.kind],
                       math.log(self.a))

    def log_distance_matrix(self, X, Y) -> np.ndarray:
        """``log_distance(x, y)`` for every x in X (rows) and y in Y (columns).

        Entries equal the scalar method bit for bit: logs and Euclidean
        norms come from the same scalar ``math`` calls, and coordinate terms
        are summed (or maximized) in the same left-to-right order.
        """
        X, Y = list(X), list(Y)
        P = self._checked(X + Y) if X and Y else [as_point(p) for p in X + Y]
        return self._log_distance_matrix(P[:len(X)], P[len(X):])

    def _log_distance_matrix(self, X: Sequence[Point], Y: Sequence[Point]) -> np.ndarray:
        """``log_distance_matrix`` of point tuples that passed ``_checked``."""
        if not X or not Y:
            return np.zeros((len(X), len(Y)))
        if self.kind == "lifted" and self.base == "euclidean":
            norms = [[math.dist(x, y) for y in Y] for x in X]
            return math.log(self.a) * np.array(norms)
        A, B = self._values(_array(X)), self._values(_array(Y))
        return self._fold(A[:, None, :], B[None, :, :])

    def _log_distance_pairs(self, X: Sequence[Point], Y: Sequence[Point]) -> np.ndarray:
        """``_log_distance(x, y)`` for each pair of ``zip(X, Y)``, two equally
        long lists of point tuples that passed ``_check_pair``, bit for bit
        (the same arithmetic as ``_log_distance_matrix``)."""
        if not X:
            return np.zeros(0)
        if self.kind == "lifted" and self.base == "euclidean":
            return math.log(self.a) * np.array(list(map(math.dist, X, Y)))
        return self._fold(self._values(_array(X)), self._values(_array(Y)))

    def _chain(self, P: Sequence[Point], A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``_log_distance`` of each of the checked point tuples ``P[1:]``
        from the one before it and from ``P[0]``, where A holds P."""
        if self.kind == "lifted" and self.base == "euclidean":
            return (self._log_distance_pairs(P[:-1], P[1:]),
                    self._log_distance_pairs(P[1:], P[:1] * (len(P) - 1)))
        V = self._values(A)
        return self._fold(V[:-1], V[1:]), self._fold(V[1:], V[0])

    def _values(self, A: np.ndarray) -> np.ndarray:
        """The values this kind compares of the points in A's rows: the
        coordinates, their ``math.log`` or their reciprocals."""
        if self.kind == "star_product":
            return np.array([list(map(math.log, row)) for row in A.tolist()])
        if self.kind == "exp_reciprocal":
            with np.errstate(all="ignore"):
                return 1.0 / A
        return A

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

    ``fn`` receives two point tuples and returns a plain (multiplicative)
    distance.  A zero distance maps to -inf in the log domain instead of
    raising, so candidate "metrics" that are not actually multiplicative
    metrics can be fed to the verification helpers as negative controls.
    """

    fn: Callable[[Point, Point], float]
    name: str = "custom"

    def check_domain(self, p: Point) -> None:  # pragma: no cover - no-op
        pass  # fn takes any two tuples

    def _checked(self, points: Sequence) -> list:
        return list(points)  # log_distance checks each point fn receives

    def log_distance(self, x, y) -> float:
        v = float(self.fn(as_point(x), as_point(y)))
        if v > 0:
            return math.log(v)
        if v == 0.0:
            return -math.inf
        if math.isnan(v):
            raise DomainError("distance function returned NaN")
        raise DomainError(f"distance function returned a negative value {v}")

    def log_distance_matrix(self, X, Y) -> np.ndarray:
        """``log_distance`` over every ordered pair, one call of fn each."""
        X, Y = list(X), list(Y)
        D = [[self.log_distance(x, y) for y in Y] for x in X]
        return np.array(D, dtype=float).reshape(len(X), len(Y))

    # the scans' private kernel: fn's arguments are checked as it receives them
    _log_distance, _log_distance_matrix = log_distance, log_distance_matrix

    def distance(self, x, y) -> float:
        return float(self.fn(as_point(x), as_point(y)))


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
    pair or triple is listed.  Small samples simply give vacuous passes.
    """
    points = [as_point(p) for p in sample]
    D = metric.log_distance_matrix(points, points)
    middles, _ = _triple_hits(D) or (None, None)
    return _verify_axioms(equal_points(points), D, middles)


#: entries of the triple prefilter's buffer: each block of middle indices
#: holds about this many (i, k) sums, and at least one middle's n * n
_BLOCK_ENTRIES = 2 ** 16


def _triple_hits(D: np.ndarray) -> tuple[list[int], list[int]] | None:
    """The middles j at which the triangle scan of the log-distance matrix
    D may list a violation, and the first indices i of those hits, the only
    last indices z at which the reverse-triangle scan may list one.  None
    unless D is finite, nonnegative and symmetric (D == D.T, as the built-in
    kernels give it) and its margin is at most tol / 2, tol = ``DEFAULT_LOG_TOL``.

    One pass over blocks of middles tests s = D[j,i] + D[j,k] <= T[i,k] for
    every (i, k), with T = D - (tol - margin), margin = 4u M + 2**-1000,
    u = 2**-53 and M = max D.  Each step below is one rounding fl, which is
    monotone and leaves a float as it is; every relative error is at most u,
    and the 2**-1000 covers a product 4u M that underflows.

    Triangle part.  The triangle scan lists (i, j, k) when
    fl(D[i,k] - s) > tol for s = fl(D[i,j] + D[j,k]), the very float the
    pass forms, since D[i,j] = D[j,i].  As tol is a float, that needs
    D[i,k] - s > tol exactly.  c = fl(tol - margin) <= tol, so
    D[i,k] - c > s and T[i,k] = fl(D[i,k] - c) >= s: a hit.  This part
    needs no margin.

    Reverse part.  The reverse scan lists (x, y, z) when
    fl(|fl(D[x,z] - D[y,z])| - D[x,y]) > tol.  Say D[x,z] >= D[y,z] (else
    swap x and y).  That needs D[x,z] - D[y,z] - D[x,y] > tol - u D[x,z]
    exactly, and so D[x,z] > tol.  Then at middle y the sum
    s = fl(D[y,z] + D[y,x]) < D[x,z] - tol + (2u + u**2) D[x,z], while
    0 <= c <= (tol - margin)(1 + u) and
    T[z,x] >= (D[x,z] - c)(1 - u) >= D[x,z] - tol + (1 + u) margin
    - u tol - u D[x,z].  With tol < D[x,z] <= M, (1 + u) margin >=
    (4u + 4u**2) M exceeds (3u + u**2) D[x,z] + u tol, so s <= T[z,x]: the
    pass hits at middle y and entry (z, x), first index z.  It tests the
    diagonal i = k too, which a reverse hit at x = z needs; the triangle
    scan lists nothing there, so such a hit only costs its middle a scan.

    A margin of at most tol / 2 keeps T at least about tol / 2 below D, so
    exact ties such as collinear points on a line, and equal points, flag
    nothing.  At tol = 1e-12 that bound holds up to M of about 1,100; the
    bundled fixtures stay below 30.  Blocks hold
    max(1, min(n, _BLOCK_ENTRIES // n**2)) middles.
    """
    n = len(D)
    if not (np.isfinite(D).all() and (D >= 0).all() and np.array_equal(D, D.T)):
        return None
    margin = 2.0 ** -51 * float(D.max(initial=0.0)) + 2.0 ** -1000
    if not margin <= DEFAULT_LOG_TOL / 2:
        return None
    T = D - (DEFAULT_LOG_TOL - margin)
    rows = max(1, min(n, _BLOCK_ENTRIES // max(1, n * n)))
    buf, bad = np.empty((rows, n, n)), np.empty((rows, n, n), dtype=bool)
    middles: list[int] = []
    firsts = np.zeros(n, dtype=bool)
    for a in range(0, n, rows):
        s, hit = buf[:n - a], bad[:n - a]  # the last block may be short
        np.add(D[a:a + rows, :, None], D[a:a + rows, None, :], out=s)
        if not np.less_equal(s, T, out=hit).any():
            continue
        hit_rows = hit.any(axis=2)  # (middle, first index)
        middles += (a + np.flatnonzero(hit_rows.any(axis=1))).tolist()
        firsts |= hit_rows.any(axis=0)
    return middles, np.flatnonzero(firsts).tolist()


def _verify_axioms(equal: np.ndarray, D: np.ndarray,
                   middles: Iterable[int] | None) -> AxiomReport:
    """``verify_axioms`` of point tuples, given as their ``equal_points``
    matrix and their log-distance matrix D, with the triangle inequality
    checked at the given middles (every index for None)."""
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
        for j in range(n) if middles is None else middles:
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
    valid metric must pass on every sampled triple.
    """
    points = [as_point(p) for p in sample]
    D = metric.log_distance_matrix(points, points)
    _, lasts = _triple_hits(D) or (None, None)
    return _verify_reverse_triangle(D, lasts)


def _verify_reverse_triangle(D: np.ndarray,
                             lasts: Iterable[int] | None) -> ReverseTriangleReport:
    """``verify_reverse_triangle`` of a sample's log-distance matrix D,
    checked at the given last indices z (every index for None): each fills
    one buffer and is listed only when it has a hit."""
    n, tol = len(D), DEFAULT_LOG_TOL
    buf, bad = np.empty((n, n)), np.empty((n, n), dtype=bool)
    violations: list[dict] = []
    with np.errstate(invalid="ignore"):
        for z in range(n) if lasts is None else lasts:
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
