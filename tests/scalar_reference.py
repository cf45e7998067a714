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
limit-point scan as exact scans over every pair, before a count of the
points' neighbours in each coordinate ruled most pairs out; the tests
compare the two.

``reference_picard`` is a Picard run built from public calls only, one
step at a time, with every scan re-checking its points; ``picard_outcome``
records exactly what a run gave or raised, so that ``picard`` and the
reference can be compared bit for bit.  Both read the window and the
look-back from ``mulfix.solver`` at call time, so a test that patches one
of them patches both.  A run diverges only where T fails, and a step
grows only from a finite one under the monotone check.

``reference_estimate`` and ``reference_classify`` fit the constants and
classify a sample pair by pair through the ``check_*`` functions, once
``reference_check_points`` has raised at the first point outside the
metric's space, at the threshold ``reference_tol`` takes from the sample's
scalar log distances (``reference_top``);
``reference_pair_error`` names the point at fault in a pair that fails, and
``reference_point_error`` what fails at one point, by
``reference_outside``, its own rule for a point of a metric's space.  The
orbit scans (``reference_detect_limit_point``, ``reference_cauchy_indicator``,
and ``reference_bound_rows``) are loops of public calls.  The axiom, triangle
and reverse-triangle loops list violations one matrix entry at a time, as
``verify_axioms`` and ``verify_reverse_triangle`` once did.

``reference_csv_text`` writes a trace's CSV rows through ``csv.writer``.

``record_walk`` lists a ``PairRows``'s records in one plain loop over its
pairs, columns and errors, without its run walk or its writer.
``reference_records``, ``reference_pairs_csv`` and ``reference_summary``
build the written records, the ``pairs.csv`` text and the summary (per
condition, and of the pairs evaluated and not) from that walk alone, a
record at a time.
"""

import csv
import io
import itertools
import math

import numpy as np

import mulfix as mx
from mulfix import solver
from mulfix.conditions import PhiSpec
from mulfix.errors import (DegeneratePairError, DomainError, DomainEscapeError,
                           MonotoneResidualError, MulfixError)
from mulfix.metrics import DEFAULT_LOG_TOL, Point, _reference_margin, as_point


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
    """``log_distance`` of two point tuples of one dimension in the metric's
    space."""
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
        out = []
        for c in x:
            if c <= 0:
                raise DomainError(f"reciprocal_sqrt needs a positive coordinate, got {c}")
            out.append(1.0 / math.sqrt(c))
        return tuple(out)
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


def look_back(metric, points: list, steps: list, lo: int, log_eps: float):
    """Index of the first of ``points[lo:]`` whose step is above log_eps and
    that lies within 1e-14 of a point 2 to ``solver._LOOKBACK`` steps before
    it, read from one dense private kernel call; None when there is none."""
    hi, lookback = len(points), solver._LOOKBACK
    while lo < hi and steps[lo - 1] <= log_eps:
        lo += 1
    while lo < hi and steps[hi - 2] <= log_eps:
        hi -= 1
    if lo >= hi:
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


def bits(v):
    """Exact comparison key: distinguishes -0.0 from 0.0 and matches NaN."""
    return v if v is None else float.hex(float(v))


# -- Picard with public calls only ----------------------------------------------


def reference_apply(T, x):
    try:
        return mx.as_point(T(x))
    except DomainError:
        raise
    except (ArithmeticError, ValueError) as exc:
        if len(exc.args) == 2 and type(exc.args[0]) is int and type(exc.args[1]) is str:
            raise DomainError(f"{type(exc).__name__}: {exc.args[1]}") from exc
        raise DomainError(str(exc)) from exc


def reference_residual(metric, T, p):
    try:
        return metric.log_distance(p, reference_apply(T, p))
    except DomainError:
        return math.inf


def reference_max_pairwise(metric, points):
    if len(points) < 2:
        return 0.0
    D = metric.log_distance_matrix(points, points)
    return float(D.max(initial=0.0, where=np.triu(~np.isnan(D), 1)))


def reference_iterate(metric, T, x, config, domain):
    """The Picard loop with public calls only: every scan re-checks its points."""
    log_eps = config.log_eps
    window, lookback = solver._WINDOW, solver._LOOKBACK
    points, steps, status = [x], [], mx.Status.MAX_ITER
    for n in range(config.max_iter):
        try:
            y = reference_apply(T, x)
        except DomainError:
            status = mx.Status.DIVERGED
            break
        if domain is not None and not domain.contains(y):
            raise DomainEscapeError(f"iterate {n + 1} left the declared domain: {y}",
                                    point=y, iteration=n + 1)
        try:
            step = metric.log_distance(x, y)
        except DomainError as exc:
            raise DomainEscapeError(
                f"iterate {n + 1} left the metric's domain: {y} ({exc})",
                point=y, iteration=n + 1) from exc
        if config.check_monotone_residual and steps and log_eps < steps[-1] < math.inf \
                and step >= steps[-1]:
            raise MonotoneResidualError(
                f"step log-distance grew from {steps[-1]} to {step} at iterate {n + 1}")
        points.append(y)
        steps.append(step)
        if step > log_eps:
            earlier = points[-1 - lookback:-2]
            if (metric.log_distance_matrix([y], earlier) < 1e-14).any():
                status = mx.Status.CYCLE_DETECTED
                break
        if step < log_eps \
                and reference_max_pairwise(metric, points[-window:]) < log_eps:
            residual = reference_residual(metric, T, y)
            if residual <= log_eps:
                status = mx.Status.CONVERGED
                break
        x = y
    if status is not mx.Status.CONVERGED:
        residual = reference_residual(metric, T, points[-1])
    return points, steps, status, residual


def reference_picard(metric, T, x0, config, domain):
    start = mx.as_point(x0)
    points, steps, status, residual = reference_iterate(metric, T, start, config, domain)
    iterations, restarted_from, continuity = len(steps), None, None
    if status in (mx.Status.MAX_ITER, mx.Status.CYCLE_DETECTED) \
            and config.limit_point_restart and len(points) >= 2:
        trace = mx.IterationTrace(metric, tuple(points), tuple(steps), status)
        z = mx.detect_limit_point(trace, config.eps)
        if z is not None and z != start:
            restarted_from = z
            ratios, log_eps = [], math.log(config.eps)
            try:
                tz = reference_apply(T, z)
            except DomainError:
                ratios = None
            for p in points if ratios is not None else ():
                d = metric.log_distance(p, z)
                if 0 < d < log_eps:
                    try:
                        ratios.append(metric.log_distance(reference_apply(T, p), tz) / d)
                    except DomainError:
                        continue
            continuity = max(ratios, default=None) if ratios is not None else None
            points, steps, status, residual = reference_iterate(metric, T, z, config,
                                                                domain)
            iterations += len(steps)
    return points, steps, status, iterations, restarted_from, residual, continuity


def picard_outcome(run):
    """What a Picard run gave, exactly, or what it raised."""
    try:
        points, steps, status, iterations, restarted_from, residual, continuity = run()
    except DomainEscapeError as exc:
        return ("escaped", str(exc), exc.point, exc.iteration)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return ("raised", type(exc).__name__, str(exc))
    return ([tuple(map(bits, p)) for p in points], list(map(bits, steps)), status,
            iterations, restarted_from, bits(residual), bits(continuity))


# -- condition estimates and classification, pair by pair ----------------------


def reference_check_points(metric, points):
    """Raise DomainError ``point k: ...`` at the first point that has
    another dimension than the first or lies outside the metric's space."""
    for k, p in enumerate(points):
        why = reference_outside(metric, p, len(points[0]))
        if why is not None:
            raise DomainError(f"point {k}: {why}")


def reference_estimate(metric, T, points):
    reference_check_points(metric, points)
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
        # named by the first point that fails, when one does
        why = next(filter(None, (reference_point_error(metric, T, points, k)
                                 for k in range(len(points)))), None)
        raise mx.DegeneratePairError("no usable distinct pair in the sample"
                                     + ("" if why is None else f": {why}"))
    return (xi, eta, lam, used, skipped)


def reference_outside(metric, p, dim):
    """Why p is not a point of the metric's space of dimension dim, or None:
    star_product needs every coordinate above 0, exp_reciprocal every
    coordinate other than 0, and any other metric takes every point."""
    if len(p) != dim:
        return f"dimension mismatch: {dim} vs {len(p)}"
    kind = getattr(metric, "kind", None)  # a FunctionMetric has none
    if kind == "star_product" and any(c <= 0 for c in p):
        return f"star_product needs positive coordinates, got {p}"
    if kind == "exp_reciprocal" and any(c == 0 for c in p):
        return f"exp_reciprocal needs nonzero coordinates, got {p}"
    return None


def reference_point_error(metric, T, points, k):
    """What fails first at point k, named with its index: the map at x, then
    the metric's space at Tx; None when nothing does."""
    try:
        image = reference_apply(T, points[k])
    except DomainError as err:
        return f"map at point {k}: {err}"
    why = reference_outside(metric, image, len(points[0]))
    return None if why is None else f"image of point {k}: {why}"


def reference_pair_error(metric, T, points, i, j, exc):
    """The message of the error record of pair (i, j), whose check raised
    ``exc``, found again point by point with public calls: the map at x,
    then at y, then the metric's space at Tx and Ty, then log phi's argument
    L(x, Tx) and L(y, Ty), each named with its point's index.  ``exc``
    itself is raised when no point fails."""
    images = {}
    for k in (i, j):
        try:
            images[k] = reference_apply(T, points[k])
        except DomainError as err:
            return f"map at point {k}: {err}"
    for k in (i, j):
        why = reference_outside(metric, images[k], len(points[0]))
        if why is not None:
            return f"image of point {k}: {why}"
    for k in (i, j):
        if metric.log_distance(points[k], images[k]) < 0:
            return f"phi at point {k}: phi arguments must be distances >= 1"
    raise exc


def reference_top(metric, T, points) -> float:
    """The largest finite scalar log distance between two points, two
    images, or a point and an image, of the points that pass
    ``reference_point_error``; 0.0 when there is none."""
    good = [k for k in range(len(points))
            if reference_point_error(metric, T, points, k) is None]
    X = [points[k] for k in good]
    TX = [reference_apply(T, x) for x in X]
    values = [metric.log_distance(a, b) for A, B in ((points, points), (TX, TX), (X, TX))
              for a in A for b in B]
    return max((v for v in values if math.isfinite(v)), default=0.0)


def reference_tol(metric, T, points, tol: float) -> float:
    """What a condition check of the sample forgives: tol, plus for a
    MetricSpec the rounding margin at ``reference_top``."""
    if not (points and isinstance(metric, mx.MetricSpec)):
        return tol
    return tol + _reference_margin(len(points[0]), tol, reference_top(metric, T, points))


def reference_classify(metric, T, points, constants, phi, tol, strict_margin):
    """``classify`` pair by pair, forgiving ``reference_tol(..., tol)``."""
    xi_hat, eta_hat, lam_hat, used, skipped_est = reference_estimate(metric, T, points)
    tol = reference_tol(metric, T, points, tol)
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
            for cid, const, check in (("C1", xi, check_c1), ("C2", eta, check_c2),
                                      ("C3", lam, check_c3)):
                res[cid] = (False, math.nan) if const is None else check(
                    metric, T, x, y, const, tol)
            for cid in ("SI", "SII", "SIII"):
                res[cid] = check_strict(metric, T, x, y, cid, strict_margin)
            if phi is not None:
                res["PHI"] = check_phi(metric, T, phi, x, y, tol)
        except (MulfixError, ArithmeticError, ValueError) as exc:
            had_error = True
            records.append((i, j, "*", None, None, reference_pair_error(
                metric, T, points, i, j, exc)))
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


# -- orbit scans and bounds through public calls ---------------------------------


def reference_detect_limit_point(trace, eps, fraction):
    log_eps = math.log(eps)
    need = math.ceil(len(trace.points) * fraction)
    for z in trace.points:
        count = 0
        for p in trace.points:
            if trace.metric.log_distance(z, p) < log_eps:
                count += 1
                if count >= need:
                    return z
    return None


def reference_cauchy_indicator(trace, window):
    pairs = itertools.combinations(trace.points[-window:], 2)
    return max(itertools.chain([0.0], (trace.metric.log_distance(a, b)
                                       for a, b in pairs)))


def reference_bound_rows(result, delta):
    trace = result.trace
    d1 = trace.step_logd[0] if trace.step_logd else 0.0
    return [(n, trace.metric.log_distance(p, result.point),
             (math.inf if delta ** n else 0.0) if d1 == math.inf
             else mx.apriori_bound(d1, delta, n)) for n, p in enumerate(trace.points)]


# -- axiom and triple scans, entry by entry ------------------------------------


def _axiom_violations_by_loop(metric, sample, tol=DEFAULT_LOG_TOL):
    """The pair axioms as verify_axioms once checked them, one entry at a time."""
    points = [mx.as_point(p) for p in sample]
    rows = metric.log_distance_matrix(points, points).tolist()
    violations = []
    for i in range(len(points)):
        for j in range(len(points)):
            d, equal = rows[i][j], points[i] == points[j]
            pair = {"pair": [i, j], "log_distance": d}
            if d < -tol:
                violations.append({"axiom": "nonnegativity", **pair})
            if abs(d) > tol if equal else d <= tol:
                violations.append({"axiom": "identity", **pair, "points_equal": equal})
            if j > i and abs(d - rows[j][i]) > tol:
                violations.append({"axiom": "symmetry", "pair": [i, j],
                                   "forward": d, "reverse": rows[j][i]})
    return violations


def _triangle_by_loop(metric, sample, tol=DEFAULT_LOG_TOL):
    """verify_axioms' triangle loop before its any-first scan."""
    points = [mx.as_point(p) for p in sample]
    n = len(points)
    D = metric.log_distance_matrix(points, points)
    violations = []
    off_diag = ~np.eye(n, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            rhs = D[:, j][:, None] + D[j, :][None, :]
            bad = (D - rhs > tol) & off_diag
            for i, k in np.argwhere(bad):
                violations.append(
                    {"axiom": "triangle", "triple": [int(i), j, int(k)],
                     "lhs": float(D[i, k]), "rhs": float(rhs[i, k])}
                )
    return violations


def _reverse_triangle_by_loop(metric, sample, tol=DEFAULT_LOG_TOL):
    """verify_reverse_triangle's loop before its any-first scan."""
    points = [mx.as_point(p) for p in sample]
    D = metric.log_distance_matrix(points, points)
    violations = []
    with np.errstate(invalid="ignore"):
        for z in range(len(points)):
            col = D[:, z]
            lhs = np.abs(col[:, None] - col[None, :])
            bad = lhs - D > tol
            for x, y in np.argwhere(bad):
                violations.append(
                    {"triple": [int(x), int(y), z],
                     "lhs": float(lhs[x, y]), "rhs": float(D[x, y])}
                )
    return violations


# -- trace export ---------------------------------------------------------------


def reference_csv_text(trace) -> str:
    """A trace's CSV text through ``csv.writer``'s default dialect: the
    columns, then each point's index, coordinate ``repr`` texts and step
    ``repr``, the last row's step empty."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(trace.csv_columns())
    for n, p in enumerate(trace.points):
        step = repr(trace.step_logd[n]) if n < len(trace.step_logd) else ""
        writer.writerow([n, *[repr(c) for c in p], step])
    return buf.getvalue()


# -- pair records -----------------------------------------------------------------


def record_walk(rows):
    """Each record of ``rows`` as ``(i, j, condition, satisfied, slack, error)``,
    in order: before evaluated pair k, the error rows at position k, and after
    the last pair those at position ``len(rows.i)`` (the error rows come in
    position order, none past the last pair).  ``satisfied`` is a bool and
    ``slack`` a float; both are None, and ``error`` the message, in an
    error record."""
    n = len(rows.i)
    errors = list(rows.errors)
    out = []
    for k in range(n + 1):
        while errors and errors[0][0] <= k:
            _, i, j, _, message = errors.pop(0)
            out.append((i, j, "*", None, None, message))
        if k < n:
            for cid, (flags, slacks) in rows.checks.items():
                out.append((int(rows.i[k]), int(rows.j[k]), cid, bool(flags[k]),
                            float(slacks[k]), None))
    return out


def reference_records(rows) -> list[dict]:
    """The records of ``rows`` as the written file holds them: a dict per
    record, with no slack."""
    out = []
    for i, j, cid, satisfied, _, error in record_walk(rows):
        record = {"pair": [i, j], "condition": cid, "satisfied": satisfied}
        if cid == "*":
            record["error"] = error
        out.append(record)
    return out


def reference_pairs_csv(rows) -> str:
    """The ``pairs.csv`` text of ``rows`` through ``csv.writer``: the header,
    then per record its pair, condition, flag (``true``/``false``, empty in
    an error record), slack (``repr`` when finite, else empty) and error."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["i", "j", "condition", "satisfied", "slack", "error"])
    for i, j, cid, satisfied, slack, error in record_walk(rows):
        flag = "" if satisfied is None else "true" if satisfied else "false"
        text = repr(slack) if slack is not None and math.isfinite(slack) else ""
        writer.writerow([i, j, cid, flag, text, "" if error is None else error])
    return buf.getvalue()


def reference_summary(rows) -> dict:
    """The summary of ``rows``, record by record.  ``"conditions"``: per
    condition, in column order, the records that fail it, and the first
    record with the least slack that is a number, its slack and pair (None
    and None when there is none).  ``"evaluated"``: the records of the first
    condition, one per evaluated pair.  ``"unevaluated"``: per cause, in
    the order ``first_error`` tests them, the error records of that cause
    and the pair of the first (None when there is none)."""
    out = {cid: {"violations": 0, "min_slack": None, "min_pair": None}
           for cid in rows.checks}
    unevaluated = {cause: {"count": 0, "first_pair": None}
                   for cause in ("map", "image", "phi")}
    causes = [cause for _, _, _, cause, _ in rows.errors]  # in record order
    first, evaluated = next(iter(rows.checks)), 0
    for i, j, cid, satisfied, slack, _ in record_walk(rows):
        if cid == "*":
            entry = unevaluated[causes.pop(0)]
            entry["count"] += 1
            if entry["first_pair"] is None:
                entry["first_pair"] = [i, j]
            continue
        evaluated += cid == first
        entry = out[cid]
        if not satisfied:
            entry["violations"] += 1
        if not math.isnan(slack) and (
                entry["min_slack"] is None or slack < entry["min_slack"]):
            entry["min_slack"], entry["min_pair"] = slack, [i, j]
    return {"conditions": out, "evaluated": evaluated, "unevaluated": unevaluated}
