"""Contraction condition checks and constant estimation.

All inequalities are evaluated in the log domain.  Writing L(u, v) for the
log distance, the pairwise conditions are

    C1   L(Tx, Ty) <= xi * L(x, y),                    xi in [0, 1)
    C2   L(Tx, Ty) <= eta * (L(x, Tx) + L(y, Ty)),     eta in [0, 1/2)
    C3   L(Tx, Ty) <= lam * (L(x, Ty) + L(y, Tx)),     lam in [0, 1/2)
    SI / SII / SIII   the same shapes with exponents 1, 1/2, 1/2 and a
                      strict inequality
    PHI  L(Tu, Tv) <= (L(u, Tu) + L(v, Tv)) / 2 - log_phi(...)

Each check returns ``(satisfied, slack)`` where slack is the log-domain
margin right-hand-side minus left-hand-side; margins within the comparison
tolerance of zero are reported as zero so that satisfied records never
carry a negative slack.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DegeneratePairError, DomainError, MulfixError
from .jsonconfig import JsonConfig, decode
from .metrics import DEFAULT_LOG_TOL, Point, as_point

logger = logging.getLogger(__name__)

CONDITION_IDS = ("C1", "C2", "C3", "SI", "SII", "SIII", "PHI")

# Each phi kind with the parameters it takes.
PHI_PARAMS = {"power_product": ("q",), "psi_sqrt": ("psi",), "example317": (),
              "custom_table": ("alpha", "beta")}
PSI_KINDS = ("identity", "sqrt", "square")


@dataclass(frozen=True)
class ZamfirescuConstants(JsonConfig):
    """The constant triple (xi, eta, lambda) with its derived delta."""

    xi: float = 0.0
    eta: float = 0.0
    lam: float = field(default=0.0, metadata={"json": "lambda"})

    def __post_init__(self):
        if not (0 <= self.xi < 1):
            raise DomainError(f"xi must be in [0, 1), got {self.xi}")
        if not (0 <= self.eta < 0.5):
            raise DomainError(f"eta must be in [0, 1/2), got {self.eta}")
        if not (0 <= self.lam < 0.5):
            raise DomainError(f"lambda must be in [0, 1/2), got {self.lam}")

    @property
    def delta(self) -> float:
        return max(self.xi, self.eta / (1 - self.eta), self.lam / (1 - self.lam))

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(), "delta": self.delta}

    @classmethod
    def from_json_dict(cls, data) -> "ZamfirescuConstants":
        """Read xi, eta and lambda; a ``delta`` given too must be the derived one."""
        if not isinstance(data, dict) or "delta" not in data:
            return super().from_json_dict(data)
        constants = super().from_json_dict({k: v for k, v in data.items() if k != "delta"})
        if decode(float, data["delta"], "delta") != constants.delta:
            raise ConfigError(f"{data['delta']!r} differs from the derived "
                              f"{constants.delta!r}", field="delta")
        return constants


@dataclass(frozen=True)
class PhiSpec(JsonConfig):
    """A comparison function phi: [1, inf)^2 -> [1, inf) in log form.

    ``log_phi`` takes the *log* distances (ls, lt) >= 0 and returns
    log phi(exp(ls), exp(lt)).  Kinds:

    power_product(q)   phi(x, y) = (x * y) ** ((1 - q) / 2), q in [0, 1)
    psi_sqrt(psi)      phi(x, y) = psi(x * y) ** (1/2) for a named psi with
                       psi(1) = 1 only at 1 (identity, sqrt, square)
    example317         phi(x, y) = (x * y) ** 1e-5, the comparison function
                       bundled with the inverse-square-root fixture
    custom_table       phi(x, y) = x**alpha * y**beta with alpha, beta > 0

    The defining property phi(x, y) = 1 iff x = y = 1 is certified on a
    boundary sample at construction.
    """

    kind: str
    q: float | None = None
    psi: str | None = None
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in PHI_PARAMS:
            raise DomainError(f"unknown phi kind {self.kind!r}")
        for name in ("q", "psi", "alpha", "beta"):
            if getattr(self, name) is not None and name not in PHI_PARAMS[self.kind]:
                raise DomainError(f"{self.kind} takes no {name!r}")
        if self.kind == "power_product":
            if self.q is None or not (0 <= self.q < 1):
                raise DomainError(f"power_product needs q in [0, 1), got {self.q}")
        if self.kind == "psi_sqrt":
            if self.psi not in PSI_KINDS:
                raise DomainError(f"unknown psi kind {self.psi!r}")
        if self.kind == "custom_table":
            if self.alpha is None or self.beta is None:
                raise DomainError("custom_table needs alpha and beta")
            if self.alpha <= 0 or self.beta <= 0:
                raise DomainError("custom_table exponents must be positive")
        self._certify_unit_property()

    def _certify_unit_property(self):
        # phi == 1 exactly at (1, 1); sample the boundary rays.
        if self.log_phi(0.0, 0.0) != 0.0:
            raise DomainError(f"{self.kind}: phi(1, 1) != 1")
        for w in (1e-6, 0.5, 3.0):
            if self.log_phi(w, 0.0) <= 0.0 or self.log_phi(0.0, w) <= 0.0:
                raise DomainError(f"{self.kind}: phi must exceed 1 off (1, 1)")

    def log_phi(self, ls: float, lt: float) -> float:
        """log phi evaluated on log-distance arguments ls, lt >= 0."""
        if ls < 0 or lt < 0:
            raise DomainError("phi arguments must be distances >= 1")
        return self._log_phi(ls, lt)

    def _log_phi(self, ls, lt):
        """log_phi without the range check; also takes numpy arrays."""
        if self.kind == "power_product":
            return 0.5 * (1 - self.q) * (ls + lt)
        if self.kind == "psi_sqrt":
            u = ls + lt
            if self.psi == "identity":
                return 0.5 * u
            if self.psi == "sqrt":
                return 0.25 * u
            return u  # square
        if self.kind == "example317":
            return 1e-5 * (ls + lt)
        return self.alpha * ls + self.beta * lt


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


@dataclass(frozen=True)
class ConstantEstimates:
    """Tightest per-condition ratios observed over a sample.

    A hat of ``inf`` marks a condition that cannot hold at any admissible
    constant (a pair with zero denominator but positive numerator).
    """

    xi_hat: float
    eta_hat: float
    lambda_hat: float
    pairs_used: int
    pairs_skipped: int

    @property
    def c1_feasible(self) -> bool:
        return self.xi_hat < 1

    @property
    def c2_feasible(self) -> bool:
        return self.eta_hat < 0.5

    @property
    def c3_feasible(self) -> bool:
        return self.lambda_hat < 0.5

    def constants(self) -> ZamfirescuConstants:
        """The estimates as a validated constant triple (if feasible)."""
        return ZamfirescuConstants(xi=self.xi_hat, eta=self.eta_hat,
                                   lam=self.lambda_hat)

    def to_json_dict(self) -> dict:
        def safe(v):
            return v if math.isfinite(v) else None
        return {
            "xi": safe(self.xi_hat),
            "eta": safe(self.eta_hat),
            "lambda": safe(self.lambda_hat),
            "feasible": {"C1": self.c1_feasible, "C2": self.c2_feasible,
                         "C3": self.c3_feasible},
            "pairs_used": self.pairs_used,
            "pairs_skipped": self.pairs_skipped,
        }


# Map failures that constant estimation skips; classification records the
# narrower second set as error records and lets anything else propagate.
_MAP_ERRORS = (MulfixError, ArithmeticError, ValueError)
_RECORDED_ERRORS = (MulfixError, ZeroDivisionError, OverflowError)


def _point_error(metric, p: Point, dim: int) -> DomainError | None:
    """Why a log distance involving p fails, or None when none does."""
    try:
        if len(p) != dim:
            raise DomainError(f"dimension mismatch: {dim} vs {len(p)}")
        metric.check_domain(p)
    except DomainError as exc:
        return exc
    return None


class _PairTable:
    """A sample mapped once, with the three log-distance matrices of its pairs.

    ``Dxx[i, j] = L(x_i, x_j)``, ``Dtt[i, j] = L(Tx_i, Tx_j)`` and
    ``Dxt[i, j] = L(x_i, Tx_j)`` give the six values every condition reads.
    Entries are NaN unless both points and their images are valid (see
    ``first_error``); ``usable`` marks the distinct valid pairs i < j.
    """

    def __init__(self, metric, T, sample: Sequence):
        self.points = points = [as_point(p) for p in sample]
        dim = len(points[0]) if points else 0
        images, self.errors = [], []  # errors: what fails at T(x), at Tx, at x
        for p in points:
            try:
                image, error = as_point(T(p)), None
            except _MAP_ERRORS as exc:
                logger.warning("map evaluation failed at %s; point excluded", p)
                image, error = None, exc
            images.append(image)
            self.errors.append((error, image and _point_error(metric, image, dim),
                                _point_error(metric, p, dim)))
        good = [k for k, e in enumerate(self.errors) if e == (None, None, None)]
        X, TX = [points[k] for k in good], [images[k] for k in good]
        n, block = len(points), np.ix_(good, good)
        self.Dxx, self.Dtt, self.Dxt = (np.full((n, n), np.nan) for _ in range(3))
        self.Dxx[block] = metric.log_distance_matrix(X, X)
        self.Dtt[block] = metric.log_distance_matrix(TX, TX)
        self.Dxt[block] = metric.log_distance_matrix(X, TX)
        A = np.array(X).reshape(len(X), dim)
        self.usable = np.zeros((n, n), dtype=bool)
        self.usable[block] = np.triu(~(A[:, None, :] == A[None, :, :]).all(axis=2), 1)
        self.step = np.diag(self.Dxt)  # L(x, Tx) of each point
        with np.errstate(all="ignore"):
            self.own = self.step[:, None] + self.step[None, :]  # L(x, Tx) + L(y, Ty)
            self.cross = self.Dxt + self.Dxt.T  # L(x, Ty) + L(y, Tx)

    def first_error(self, i: int, j: int) -> Exception | None:
        """What the scalar checks raise first on pair (i, j): the map at x,
        then at y, then the metric's domain at Tx, Ty, x and y."""
        (map_i, t_i, x_i), (map_j, t_j, x_j) = self.errors[i], self.errors[j]
        return next((e for e in (map_i, map_j, t_i, t_j, x_i, x_j) if e), None)


def _sup_ratio(num: np.ndarray, den: np.ndarray) -> float:
    """Running ``max(0.0, num / den)`` over pairs, where NaN never wins and a
    zero denominator under a positive numerator admits no constant (inf)."""
    zero = den == 0
    if (num[zero] > 0).any():
        return math.inf
    with np.errstate(all="ignore"):
        ratios = num[~zero] / den[~zero]
    return max(0.0, float(np.nanmax(ratios, initial=0.0)))


def _estimate(table: _PairTable) -> ConstantEstimates:
    for i, j in np.argwhere(table.usable & (table.Dxx == 0)):
        logger.warning("distinct pair %s / %s collapsed to distance 1; skipped",
                       table.points[i], table.points[j])
    used = table.usable & (table.Dxx != 0)
    n_used = int(used.sum())
    if n_used == 0:
        raise DegeneratePairError("no usable distinct pair in the sample")
    num, n = table.Dtt[used], len(table.points)
    return ConstantEstimates(
        _sup_ratio(num, table.Dxx[used]), _sup_ratio(num, table.own[used]),
        _sup_ratio(num, table.cross[used]), n_used, n * (n - 1) // 2 - n_used)


def estimate_constants(metric, T, sample: Sequence) -> ConstantEstimates:
    """Supremum of the condition ratios over all distinct sample pairs.

    Pairs whose points coincide, whose images cannot be evaluated, or whose
    distance collapses to 1 despite distinct coordinates (a floating-point
    artifact for a valid metric) are skipped, counted, and logged.
    """
    return _estimate(_PairTable(metric, T, sample))


@dataclass(frozen=True)
class PairCheck:
    """One condition evaluated on one sampled pair."""

    i: int
    j: int
    condition: str
    satisfied: bool | None
    slack: float | None
    error: str | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"pair": [self.i, self.j], "condition": self.condition,
                     "satisfied": self.satisfied, "slack": self.slack}
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass(frozen=True)
class ConditionReport:
    """Per-pair condition records plus aggregate verdicts.

    ``verdicts`` holds one entry per certification route (t2 for the
    constant-triple disjunction, t23 for the strict variants, th3 for the
    phi test) and an ``overall`` summary string.
    """

    records: tuple[PairCheck, ...]
    constants_used: Optional[ZamfirescuConstants]
    estimates: ConstantEstimates
    verdicts: dict
    seed: int | None
    n_points: int
    n_pairs: int
    skipped_pairs: int

    @property
    def overall(self) -> str:
        return self.verdicts["overall"]

    def condition_ok(self, condition: str) -> bool:
        """True when every pair was evaluated and satisfies the condition,
        the rule the verdicts use: an error record ("*") fails it."""
        wanted = {condition, "*"}
        flags = [r.satisfied for r in self.records if r.condition in wanted]
        return bool(flags) and all(flags)

    def violations(self, condition: str) -> list[PairCheck]:
        return [r for r in self.records
                if r.condition == condition and r.satisfied is False]

    def to_json_dict(self) -> dict:
        constants: dict = (
            self.constants_used.to_json_dict() if self.constants_used
            else {"xi": None, "eta": None, "lambda": None, "delta": None}
        )
        constants["estimates"] = self.estimates.to_json_dict()
        return {
            "pairs": [r.to_json_dict() for r in self.records],
            "constants": constants,
            "verdicts": self.verdicts,
            "seed": self.seed,
        }


def _effective_constants(
    given: Optional[ZamfirescuConstants], est: ConstantEstimates
) -> tuple[float | None, float | None, float | None, Optional[ZamfirescuConstants]]:
    """Constants to test at: the declared triple, or feasible estimates."""
    if given is not None:
        return given.xi, given.eta, given.lam, given
    xi = est.xi_hat if est.c1_feasible else None
    eta = est.eta_hat if est.c2_feasible else None
    lam = est.lambda_hat if est.c3_feasible else None
    triple = None
    if xi is not None and eta is not None and lam is not None:
        triple = ZamfirescuConstants(xi=xi, eta=eta, lam=lam)
    return xi, eta, lam, triple


def classify(
    metric,
    T,
    sample: Sequence,
    constants: Optional[ZamfirescuConstants] = None,
    phi: Optional[PhiSpec] = None,
    *,
    tol: float = DEFAULT_LOG_TOL,
    strict_margin: float = 0.0,
    seed: int | None = None,
) -> ConditionReport:
    """Evaluate every condition on every distinct pair of the sample.

    When ``constants`` is omitted the tightest estimated constants are used
    where feasible; a condition with no admissible constant is marked
    unsatisfied on every pair.  Results are deterministic in the sample
    order, and the aggregate verdicts are invariant under permutations of
    the sample.
    """
    table = _PairTable(metric, T, sample)
    points, n = table.points, len(table.points)
    est = _estimate(table)
    xi, eta, lam, triple = _effective_constants(constants, est)

    # Every condition reads L(Tx, Ty) <= const * den on each pair.
    rhs = {"C1": (xi, table.Dxx), "C2": (eta, table.own), "C3": (lam, table.cross),
           "SI": (1.0, table.Dxx), "SII": (0.5, table.own), "SIII": (0.5, table.cross)}
    upper = np.triu_indices(n, 1)  # the pairs in combinations order
    m = len(upper[0])
    results = {}  # condition -> satisfied flags and slack list over the upper pairs
    with np.errstate(all="ignore"):
        if phi is not None:  # log phi of (L(x, Tx), L(y, Ty)) for every pair
            log_phi = phi._log_phi(table.step[:, None], table.step[None, :])
            rhs["PHI"] = (1.0, 0.5 * table.own - log_phi)
        for cid, (const, den) in rhs.items():
            if const is None:  # no admissible constant: unsatisfied everywhere
                results[cid] = (np.zeros(m, dtype=bool), [None] * m)
                continue
            slack = const * den - table.Dtt
            if cid in ("SI", "SII", "SIII"):
                ok = slack > strict_margin
            else:
                ok = slack >= -tol
                slack = np.where(ok & (slack < 0), 0.0, slack)
            results[cid] = (ok[upper], slack[upper].tolist())
    flags = {cid: ok.tolist() for cid, (ok, _) in results.items()}
    phi_bad = (table.step < 0).tolist()  # log phi rejects L(x, Tx) < 0
    usable = table.usable[upper].tolist()

    records: list[PairCheck] = []
    evaluated = []  # upper-pair indices with condition records
    n_pairs = skipped = 0
    for k, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        if points[i] == points[j]:
            skipped += 1
            continue
        n_pairs += 1
        error = None if usable[k] else table.first_error(i, j)
        if error is None and phi is not None and (phi_bad[i] or phi_bad[j]):
            error = DomainError("phi arguments must be distances >= 1")
        if error is None:
            evaluated.append(k)
            records.extend(PairCheck(i, j, cid, flags[cid][k], slack[k])
                           for cid, (_, slack) in results.items())
        elif isinstance(error, _RECORDED_ERRORS):
            records.append(PairCheck(i, j, "*", None, None, error=str(error)))
        else:
            raise error
    if n_pairs == 0:
        raise DegeneratePairError("classification needs at least 2 distinct points")

    def holds(cids) -> bool:  # no error record, and each pair meets one of cids
        met = np.any([results[c][0] for c in cids], axis=0)[evaluated]
        return len(evaluated) == n_pairs and bool(met.all())

    t2_ok, t23_ok = holds(("C1", "C2", "C3")), holds(("SI", "SII", "SIII"))
    th3_ok = phi is not None and holds(("PHI",))
    via_t2 = [c for c in ("C1", "C2", "C3") if holds((c,))] if t2_ok else []
    via_t23 = [c for c in ("SI", "SII", "SIII") if holds((c,))] if t23_ok else []
    if t2_ok or t23_ok:
        route, via = ("t2", via_t2) if t2_ok else ("t23", via_t23)
        overall = f"{route} applicable" + (
            f" via {' and '.join(via)}" if via else " (mixed conditions)"
        )
    else:
        overall = "th3 applicable" if th3_ok else "none"

    verdicts = {
        "t2": {"applicable": t2_ok, "via": via_t2},
        "t23": {"applicable": t23_ok, "via": via_t23},
        "th3": {"applicable": th3_ok, "checked": phi is not None},
        "overall": overall,
    }
    return ConditionReport(
        records=tuple(records),
        constants_used=triple if constants is None else constants,
        estimates=est,
        verdicts=verdicts,
        seed=seed,
        n_points=len(points),
        n_pairs=n_pairs,
        skipped_pairs=skipped,
    )
