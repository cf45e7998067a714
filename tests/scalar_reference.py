"""Scalar references: the pair conditions, one metric's log distance, one
map's image and the exact orbit scans, each evaluated the plain way.

Each ``check_*`` evaluates one condition on one pair through scalar
``log_distance`` calls and returns ``(satisfied, slack)``, where slack is
the log-domain margin right-hand-side minus left-hand-side; margins within
the comparison tolerance of zero are reported as zero so that satisfied
records never carry a negative slack.  ``mulfix.classify`` reads every
condition off the pair kernel instead; the tests compare the two.

``log_distance`` and ``call`` dispatch on the kind at every call, as
``MetricSpec._log_distance`` and ``SelfMapSpec._call`` once did; those now
bind their kind's kernel once per instance, and the tests compare the two
bit for bit.  Coordinate terms are added left to right, as the kernels add
them (``sum`` of floats is compensated since Python 3.12).

``look_back`` and ``limit_point`` are Picard's cycle look-back and the
limit-point scan as exact scans over every pair, before a prefilter by one
distance per orbit point ruled most pairs out; the tests compare the two.
"""

import math

import numpy as np

from mulfix.conditions import PhiSpec
from mulfix.errors import DegeneratePairError, DomainError
from mulfix.metrics import DEFAULT_LOG_TOL, Point, as_point


def _clip_slack(slack: float, tol: float) -> tuple[bool, float]:
    satisfied = slack >= -tol
    if satisfied and slack < 0:
        slack = 0.0
    return satisfied, slack


def _require_distinct(x: Point, y: Point) -> None:
    if x == y:
        raise DegeneratePairError(f"pair must be distinct, got {x} twice")


def check_c1(metric, T, x, y, xi: float, tol: float = DEFAULT_LOG_TOL):
    """Banach-type test L(Tx, Ty) <= xi * L(x, y) for a distinct pair."""
    px, py = as_point(x), as_point(y)
    _require_distinct(px, py)
    if not (0 <= xi < 1):
        raise DomainError(f"xi must be in [0, 1), got {xi}")
    tx, ty = as_point(T(px)), as_point(T(py))
    lhs = metric.log_distance(tx, ty)
    rhs = xi * metric.log_distance(px, py)
    return _clip_slack(rhs - lhs, tol)


def check_c2(metric, T, x, y, eta: float, tol: float = DEFAULT_LOG_TOL):
    """Kannan-type test L(Tx, Ty) <= eta * (L(x, Tx) + L(y, Ty))."""
    px, py = as_point(x), as_point(y)
    _require_distinct(px, py)
    if not (0 <= eta < 0.5):
        raise DomainError(f"eta must be in [0, 1/2), got {eta}")
    tx, ty = as_point(T(px)), as_point(T(py))
    lhs = metric.log_distance(tx, ty)
    rhs = eta * (metric.log_distance(px, tx) + metric.log_distance(py, ty))
    return _clip_slack(rhs - lhs, tol)


def check_c3(metric, T, x, y, lam: float, tol: float = DEFAULT_LOG_TOL):
    """Chatterjea-type test L(Tx, Ty) <= lam * (L(x, Ty) + L(y, Tx))."""
    px, py = as_point(x), as_point(y)
    _require_distinct(px, py)
    if not (0 <= lam < 0.5):
        raise DomainError(f"lambda must be in [0, 1/2), got {lam}")
    tx, ty = as_point(T(px)), as_point(T(py))
    lhs = metric.log_distance(tx, ty)
    rhs = lam * (metric.log_distance(px, ty) + metric.log_distance(py, tx))
    return _clip_slack(rhs - lhs, tol)


def check_strict(metric, T, x, y, which: str, strict_margin: float = 0.0):
    """Strict variants SI, SII, SIII with fixed exponents 1, 1/2, 1/2.

    Strictness is certified as slack > strict_margin; the default margin 0
    means a plain strict inequality in float arithmetic.
    """
    px, py = as_point(x), as_point(y)
    _require_distinct(px, py)
    tx, ty = as_point(T(px)), as_point(T(py))
    lhs = metric.log_distance(tx, ty)
    if which == "SI":
        rhs = metric.log_distance(px, py)
    elif which == "SII":
        rhs = 0.5 * (metric.log_distance(px, tx) + metric.log_distance(py, ty))
    elif which == "SIII":
        rhs = 0.5 * (metric.log_distance(px, ty) + metric.log_distance(py, tx))
    else:
        raise DomainError(f"unknown strict condition {which!r}")
    slack = rhs - lhs
    return slack > strict_margin, slack


def check_phi(metric, T, phi: PhiSpec, u, v, tol: float = DEFAULT_LOG_TOL):
    """Weak-contraction test against a comparison function phi.

    Unlike the pairwise conditions this one is stated for every pair,
    including u = v: L(Tu, Tv) <= (L(u, Tu) + L(v, Tv)) / 2 - log phi.
    """
    pu, pv = as_point(u), as_point(v)
    tu, tv = as_point(T(pu)), as_point(T(pv))
    lhs = metric.log_distance(tu, tv)
    ls = metric.log_distance(pu, tu)
    lt = metric.log_distance(pv, tv)
    rhs = 0.5 * (ls + lt) - phi.log_phi(ls, lt)
    return _clip_slack(rhs - lhs, tol)


def left_to_right(terms) -> float:
    """The terms added in order, with no compensation."""
    terms = list(terms)
    total = terms[0]
    for t in terms[1:]:
        total += t
    return total


def _norm(base: str, x: Point, y: Point) -> float:
    if base == "euclidean":
        return math.dist(x, y)
    if base == "manhattan":
        return left_to_right(abs(a - b) for a, b in zip(x, y))
    if base == "chebyshev":
        return max(abs(a - b) for a, b in zip(x, y))
    raise DomainError(f"unknown base metric {base!r}")


def log_distance(self, px: Point, py: Point) -> float:
    """``log_distance`` of two point tuples that passed ``_check_pair``."""
    if self.kind == "star_product":
        return left_to_right(abs(math.log(a) - math.log(b)) for a, b in zip(px, py))
    if self.kind == "lifted":
        return math.log(self.a) * _norm(self.base, px, py)
    if self.kind == "exp_abs":
        return math.log(self.a) * left_to_right(abs(a - b) for a, b in zip(px, py))
    if self.kind == "exp_reciprocal":
        return math.log(self.a) * left_to_right(abs(1.0 / a - 1.0 / b)
                                                for a, b in zip(px, py))
    # discrete: exact coordinate equality, codomain {0, log a}
    return 0.0 if px == py else math.log(self.a)


def call(self, x: Point) -> Point:
    """The image of a point tuple that passed ``as_point``."""
    if self.kind == "scale":
        return tuple(self.c * c for c in x)
    if self.kind == "rational":
        out = []
        for c in x:
            den = self.b + c
            if den == 0:
                raise DomainError(f"rational map pole at coordinate {c}")
            out.append(1.0 / den)
        return tuple(out)
    if self.kind == "power":
        out = []
        for c in x:
            if c < 0 and self.p != int(self.p):
                raise DomainError(f"fractional power of negative {c}")
            if c == 0 and self.p < 0:
                raise DomainError("negative power of zero")
            out.append(c ** self.p)
        return tuple(out)
    if self.kind == "reciprocal_sqrt":
        if any(c <= 0 for c in x):
            raise DomainError(f"reciprocal_sqrt needs positive coordinates, got {x}")
        return tuple(1.0 / math.sqrt(c) for c in x)
    if self.kind == "constant":
        return self.value
    if self.kind == "identity":
        return x
    if self.kind == "negation":
        return tuple(-c for c in x)
    # affine coefficient table: A @ x + offset
    m = np.asarray(self.matrix, dtype=float)
    if m.shape[1] != len(x):
        raise DomainError(f"affine matrix expects dimension {m.shape[1]}")
    with np.errstate(over="ignore", invalid="ignore"):  # as_point rejects inf, NaN
        y = m @ np.asarray(x, dtype=float) + np.asarray(self.offset, dtype=float)
    return as_point(y)


def look_back(metric, points: list, steps: list, lo: int, lookback: int,
              log_eps: float):
    """Index of the first of ``points[lo:]`` whose step is above log_eps and
    that lies within 1e-14 of a point 2 to ``lookback`` steps before it,
    read from one dense private kernel call; None when there is none."""
    hi = len(points)
    while lo < hi and steps[lo - 1] <= log_eps:
        lo += 1
    while lo < hi and steps[hi - 2] <= log_eps:
        hi -= 1
    if lo >= hi or lookback < 2:
        return None
    first = max(0, lo - lookback)
    D = metric._log_distance_matrix(points[lo:hi], points[first:hi - 2])
    lag = np.arange(lo - first, hi - first)[:, None] - np.arange(hi - 2 - first)
    near = ((D < 1e-14) & (lag >= 2) & (lag <= lookback)).any(axis=1)
    for r in np.flatnonzero(near).tolist():
        if steps[lo + r - 1] > log_eps:
            return lo + r
    return None


def limit_point(metric, points: list, log_eps: float, fraction: float):
    """The first of the checked point tuples with ceil(fraction * len) of
    them within log_eps, read row block by row block; None when there is
    none."""
    need = math.ceil(len(points) * fraction)
    for start in range(0, len(points), 64):
        D = metric._log_distance_matrix(points[start:start + 64], points)
        hits = np.flatnonzero((D < log_eps).sum(axis=1) >= need)
        if hits.size:
            return points[start + int(hits[0])]
    return None
