"""Contraction condition checks and constant estimation.

All inequalities are evaluated in the log domain.  Writing L(u, v) for the
log distance, the pairwise conditions are

    C1   L(Tx, Ty) <= xi * L(x, y),                    xi in [0, 1)
    C2   L(Tx, Ty) <= eta * (L(x, Tx) + L(y, Ty)),     eta in [0, 1/2)
    C3   L(Tx, Ty) <= lam * (L(x, Ty) + L(y, Tx)),     lam in [0, 1/2)
    SI / SII / SIII   the same shapes with exponents 1, 1/2, 1/2 and a
                      strict inequality
    PHI  L(Tu, Tv) <= (L(u, Tu) + L(v, Tv)) / 2 - log_phi(...)

``classify`` evaluates every condition on every distinct pair of a sample
at once, from one table of the sample's log distances (``_PairTable``); a
single pair is checked as a two-point sample.  Each record carries whether
the pair satisfies the condition, and its columns the slack, the log-domain
margin right-hand-side minus left-hand-side; margins within the comparison
tolerance of zero are kept as zero so that satisfied pairs never carry a
negative slack.
"""
from __future__ import annotations

import csv
import io
import json
import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DegeneratePairError, DomainError, MulfixError
from .jsonconfig import JsonConfig, _string, decode, dump_json
from .maps import _checked_image
from .metrics import DEFAULT_LOG_TOL, Point, as_point, equal_points

logger = logging.getLogger(__name__)

CONDITION_IDS = ("C1", "C2", "C3", "SI", "SII", "SIII", "PHI")
# Why a pair was not evaluated, in the order they are tested: the map failed,
# an image or a point is outside the metric's space, log phi rejects the pair.
CAUSES = ("map", "image", "point", "phi")

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
    ``first_error``); ``equal`` marks the pairs of equal points and
    ``usable`` the distinct valid pairs i < j.  ``run_experiment`` passes
    the full ``Dxx`` and ``equal_points`` matrix of points it checked, which
    are then taken as they are.  Points are mapped by
    ``maps._checked_image``; ``images`` holds each point's image, None where
    the map failed.
    """

    def __init__(self, metric, T, sample: Sequence, Dxx: np.ndarray | None = None,
                 equal: np.ndarray | None = None):
        checked = Dxx is not None
        self.points = points = list(sample) if checked else [as_point(p) for p in sample]
        dim = len(points[0]) if points else 0
        image_of = _checked_image(T)
        self.images, self.errors = [], []  # errors: what fails at T(x), at Tx, at x
        for p in points:
            try:
                image, error = image_of(p), None
            except _MAP_ERRORS as exc:
                logger.warning("map evaluation failed at %s; point excluded", p)
                image, error = None, exc
            self.images.append(image)
            self.errors.append((error, image and _point_error(metric, image, dim),
                                None if checked else _point_error(metric, p, dim)))
        good = [k for k, e in enumerate(self.errors) if e == (None, None, None)]
        X, TX = [points[k] for k in good], [self.images[k] for k in good]
        n, block = len(points), np.ix_(good, good)
        self.Dtt, self.Dxt = (np.full((n, n), np.nan) for _ in range(2))
        # every point and image in X and TX was checked
        self.Dxx = Dxx if checked else np.full((n, n), np.nan)
        if not checked:
            self.Dxx[block] = metric._log_distance_matrix(X, X)
        self.Dtt[block] = metric._log_distance_matrix(TX, TX)
        self.Dxt[block] = metric._log_distance_matrix(X, TX)
        self.equal = equal_points(points) if equal is None else equal
        self.usable = np.zeros((n, n), dtype=bool)
        self.usable[block] = np.triu(~self.equal[block], 1)
        self.step = np.diag(self.Dxt)  # L(x, Tx) of each point
        with np.errstate(all="ignore"):
            self.own = self.step[:, None] + self.step[None, :]  # L(x, Tx) + L(y, Ty)
            self.cross = self.Dxt + self.Dxt.T  # L(x, Ty) + L(y, Tx)

    def phi_slack(self, phi: PhiSpec, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """The PHI margin rhs - lhs of each pair (u, v) = (x_i[k], x_j[k]) of
        the index vectors ``i`` and ``j``, where i = j is allowed."""
        s, t = self.step[i], self.step[j]
        with np.errstate(all="ignore"):
            return (0.5 * (s + t) - phi._log_phi(s, t)) - self.Dtt[i, j]

    def first_error(self, i: int, j: int) -> tuple[str, Exception] | None:
        """What evaluating pair (i, j) raises first, with its cause: the map
        at x, then at y (``"map"``), then the metric's domain at Tx and Ty
        (``"image"``), then at x and y (``"point"``)."""
        causes = zip(CAUSES, self.errors[i], self.errors[j])  # (cause, at i, at j)
        return next(((cause, e) for cause, *at in causes for e in at if e), None)


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
class PairRows:
    """The pair records of a classification, kept as columns.

    ``i`` and ``j`` list the evaluated pairs in sample order; ``checks`` maps
    each condition to its ``(flags, slacks)`` over them, a bool array and a
    float64 array, or None for the slacks of a condition with no admissible
    constant.  The columns keep the full floats; the written records hold
    each flag only, and the slacks reach a file through ``summary`` and
    ``write_csv``.  ``errors`` holds one ``(position, i, j, cause, message)``
    per pair that could not be evaluated, with a cause of ``CAUSES``, where
    position counts the evaluated pairs before it, so no position passes
    ``len(i)``; ``checks`` holds at least one condition, as ``_classify``
    gives every table.  The records run pair by pair, each evaluated pair
    with one record per condition in ``checks`` order, and each error record
    before the evaluated pair at its position, the order ``_runs`` walks;
    ``records`` parses the written text.
    """

    i: list
    j: list
    checks: dict
    errors: tuple

    def _runs(self):
        """The records in order as runs ``(a, b, error)``: evaluated pairs a..b-1,
        then the ``(i, j, message)`` of the next pair not evaluated, or None after
        the last run."""
        a = 0
        for pos, i, j, _, message in self.errors:
            yield a, pos, (i, j, message)
            a = pos
        yield a, len(self.i), None

    def records(self) -> list[dict]:
        """The parse of the written records: each ``{"pair": [i, j], "condition",
        "satisfied"}``, and an ``"error"`` message after a null flag in the
        record of a pair that could not be evaluated (condition ``"*"``)."""
        return json.loads(dump_json(self))

    def summary(self) -> dict:
        """What the records hold, counted.  ``"conditions"`` gives per condition
        ``{"violations", "min_slack", "min_pair"}``: how many evaluated pairs
        fail it, and its least slack, NaN aside, with the first pair that gives
        it; both None when no slack is a number, as in a None column.
        ``"evaluated"`` counts the evaluated pairs, and ``"unevaluated"`` gives
        per cause in ``CAUSES`` order ``{"count", "first_pair"}`` of the error
        records, the first pair None for a cause with none."""
        conditions = {}
        for cid, (flags, slacks) in self.checks.items():
            s = np.asarray(np.nan if slacks is None else slacks, dtype=float)
            k = None if np.isnan(s).all() else int(np.flatnonzero(s == np.nanmin(s))[0])
            conditions[cid] = {
                "violations": int(np.count_nonzero(~np.asarray(flags, dtype=bool))),
                "min_slack": None if k is None else float(s[k]),
                "min_pair": None if k is None else [self.i[k], self.j[k]]}
        unevaluated = {cause: {"count": 0, "first_pair": None} for cause in CAUSES}
        for _, i, j, cause, _ in self.errors:
            entry = unevaluated[cause]
            entry["count"] += 1
            entry["first_pair"] = entry["first_pair"] or [i, j]
        return {"conditions": conditions, "evaluated": len(self.i),
                "unevaluated": unevaluated}

    def write_csv(self, file) -> None:
        """Write the records to the text ``file`` as ``csv.writer`` rows under
        the header ``i,j,condition,satisfied,slack,error``, in record order,
        ``_PAIR_BLOCK`` evaluated pairs at a time: a flag as ``true`` or
        ``false``, a finite slack as its ``repr``, and a None or non-finite
        slack, and an error record's flag, as an empty field."""
        writer = csv.writer(file)
        writer.writerow(["i", "j", "condition", "satisfied", "slack", "error"])
        for start, stop, error in self._runs():
            for a in range(start, stop, _PAIR_BLOCK):
                b = min(a + _PAIR_BLOCK, stop)
                columns = [(cid, np.where(np.asarray(f[a:b], dtype=bool), "true",
                                          "false").tolist(),
                            [repr(x) if math.isfinite(x) else "" for x in np.asarray(
                                [math.nan] * (b - a) if s is None else s[a:b],
                                dtype=float).tolist()])
                           for cid, (f, s) in self.checks.items()]
                writer.writerows((self.i[k], self.j[k], cid, flags[k - a], slacks[k - a], "")
                                 for k in range(a, b) for cid, flags, slacks in columns)
            if error is not None:
                writer.writerow((error[0], error[1], "*", "", "", error[2]))

    def to_csv_text(self) -> str:
        """The text ``write_csv`` writes, in memory."""
        text = io.StringIO()
        self.write_csv(text)
        return text.getvalue()

    def write_json(self, out: list, nl: str) -> None:
        """Append the records to the sink ``out`` as a JSON array on a line
        indented by ``nl``, each record ``json.dumps(record)`` on its own
        line, run by run (see ``_runs``): the run's evaluated pairs in blocks
        of up to ``_PAIR_BLOCK``, draining ``out`` before each block, then the
        run's error record.  A pair's records are one string, made by one join
        of its head over the texts of its flag pattern, a small int per pair:
        one text per condition, the condition, its flag and the end joining
        the next record, listed the first time the pattern appears."""
        if not self.i and not self.errors:
            out.append("[]")
            return
        item = nl + "  "
        end = "}," + item
        pre = {i: '{"pair": [%s, ' % i for i in set(self.i)}  # a head: pre[i] + post[j]
        post = {j: '%s], "condition": "' % j for j in set(self.j)}
        flags = np.array([f for f, _ in self.checks.values()], dtype=bool)
        weights, parts = 1 << np.arange(len(flags)), {}  # pattern -> ["", texts...]
        out.append("[" + item)
        for start, stop, error in self._runs():
            for a in range(start, stop, _PAIR_BLOCK):
                out.drain()
                b = min(a + _PAIR_BLOCK, stop)
                codes = (weights @ flags[:, a:b]).tolist()
                for code in set(codes) - parts.keys():
                    parts[code] = ["", *(cid + '", "satisfied": ' + ("false", "true")[
                        code >> c & 1] + end for c, cid in enumerate(self.checks))]
                heads = map(str.__add__, map(pre.__getitem__, self.i[a:b]),
                            map(post.__getitem__, self.j[a:b]))
                out += map(str.join, heads, map(parts.__getitem__, codes))
            if error is not None:  # (i, j, message)
                out.append('{"pair": [%s, %s], "condition": "*", "satisfied": null, '
                           '"error": ' % error[:2] + _string(error[2]) + end)
        out[-1] = out[-1][:-len(item) - 1] + nl + "]"  # the last record's "," + item


# Evaluated pairs per block of written records: a file sink holds one block.
_PAIR_BLOCK = 256


@dataclass(frozen=True)
class ConditionReport:
    """Per-pair condition records plus aggregate verdicts.

    The records are kept as columns in ``rows``; ``records`` parses their
    text on first access, and the report writer reads the columns without
    them.  ``verdicts`` holds one entry per certification route (t2 for the
    constant-triple disjunction, t23 for the strict variants, th3 for the
    phi test) and an ``overall`` summary string.
    """

    rows: PairRows
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

    @cached_property
    def records(self) -> list[dict]:
        """``rows.records()``, parsed once; the slacks stay in ``rows``."""
        return self.rows.records()

    def condition_ok(self, condition: str) -> bool:
        """True when every pair was evaluated and satisfies the condition,
        the rule the verdicts use: an error record ("*") fails it."""
        flags = self.rows.checks.get(condition, ((),))[0]
        return not self.rows.errors and len(flags) > 0 and bool(np.all(flags))

    def to_json_dict(self) -> dict:
        """The parse of the written ``to_json_tree()``: strict JSON, as in the file."""
        return json.loads(dump_json(self.to_json_tree()))

    def to_json_tree(self) -> dict:
        """The tree ``dump_json`` writes as the report, with the records left
        as columns, each written on one line, then their ``summary`` and the
        count of pairs of equal points, which are not checked (``"equal"``)."""
        constants: dict = (
            self.constants_used.to_json_dict() if self.constants_used
            else {"xi": None, "eta": None, "lambda": None, "delta": None}
        )
        e = self.estimates
        constants["estimates"] = {
            "xi": e.xi_hat,
            "eta": e.eta_hat,
            "lambda": e.lambda_hat,
            "feasible": {"C1": e.c1_feasible, "C2": e.c2_feasible,
                         "C3": e.c3_feasible},
            "pairs_used": e.pairs_used,
            "pairs_skipped": e.pairs_skipped,
        }
        return {
            "pairs": self.rows,
            **self.rows.summary(),
            "equal": self.skipped_pairs,
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
    seed: int | None = None,
) -> ConditionReport:
    """Evaluate every condition on every distinct pair of the sample.

    When ``constants`` is omitted the tightest estimated constants are used
    where feasible; a condition with no admissible constant is marked
    unsatisfied on every pair.  A strict condition needs a positive slack,
    any other a slack of at least -``DEFAULT_LOG_TOL``, kept as 0.0 when
    negative.  Results are deterministic in the sample order, and the
    aggregate verdicts are invariant under permutations of the sample.
    """
    return _classify(_PairTable(metric, T, sample), constants, phi, seed=seed)


def _classify(table: _PairTable, constants: Optional[ZamfirescuConstants],
              phi: Optional[PhiSpec], *, seed: int | None = None) -> ConditionReport:
    """``classify`` of a sample's table.

    The pairs i < j (in combinations order) that can be evaluated are
    found first; ``Dxx``, ``own``, ``cross`` and ``Dtt`` are gathered once at
    them, and each condition's flags and slacks are computed on those
    vectors, the columns of the report's ``PairRows``.
    """
    points, n = table.points, len(table.points)
    est = _estimate(table)
    xi, eta, lam, triple = _effective_constants(constants, est)

    upper = np.triu_indices(n, 1)  # the pairs in combinations order
    distinct = ~table.equal[upper]
    evaluated = table.usable[upper]
    if phi is not None:  # log phi rejects L(x, Tx) < 0
        phi_bad = table.step < 0
        evaluated &= ~(phi_bad[upper[0]] | phi_bad[upper[1]])
    n_pairs = int(distinct.sum())
    unevaluated = np.flatnonzero(distinct & ~evaluated)
    before = np.cumsum(evaluated) - evaluated  # evaluated pairs before each pair
    errors = []
    for k in unevaluated.tolist():  # an invalid point, or log phi rejects the pair
        i, j = int(upper[0][k]), int(upper[1][k])
        cause, error = (table.first_error(i, j)
                        or ("phi", DomainError("phi arguments must be distances >= 1")))
        if not isinstance(error, _RECORDED_ERRORS):
            raise error
        errors.append((int(before[k]), i, j, cause, str(error)))
    if n_pairs == 0:
        raise DegeneratePairError("classification needs at least 2 distinct points")
    I, J = upper[0][evaluated], upper[1][evaluated]
    Dxx, own, cross, Dtt = (M[I, J] for M in (table.Dxx, table.own, table.cross, table.Dtt))
    # Every condition but PHI reads L(Tx, Ty) <= const * den on each pair.
    rhs = {"C1": (xi, Dxx), "C2": (eta, own), "C3": (lam, cross),
           "SI": (1.0, Dxx), "SII": (0.5, own), "SIII": (0.5, cross)}
    checks = {}  # condition -> satisfied flags and slacks over the evaluated pairs
    with np.errstate(all="ignore"):
        for cid in [*rhs, "PHI"] if phi is not None else rhs:
            const, den = rhs.get(cid, (1.0, None))
            if const is None:  # no admissible constant: unsatisfied everywhere
                checks[cid] = (np.zeros(len(I), dtype=bool), None)
                continue
            slack = table.phi_slack(phi, I, J) if cid == "PHI" else const * den - Dtt
            if cid in ("SI", "SII", "SIII"):
                ok = slack > 0
            else:
                ok = slack >= -DEFAULT_LOG_TOL
                slack[ok & (slack < 0)] = 0.0
            checks[cid] = (ok, slack)

    def holds(cids) -> bool:  # no error record, and each pair meets one of cids
        return not errors and bool(np.any([checks[c][0] for c in cids], axis=0).all())

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
        rows=PairRows(I.tolist(), J.tolist(), checks, tuple(errors)),
        constants_used=triple if constants is None else constants,
        estimates=est,
        verdicts=verdicts,
        seed=seed,
        n_points=len(points),
        n_pairs=n_pairs,
        skipped_pairs=len(upper[0]) - n_pairs,
    )
