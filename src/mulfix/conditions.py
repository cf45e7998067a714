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

import io
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DegeneratePairError, DomainError
from .jsonconfig import JsonConfig, _string, decode, dump_json
from .maps import _checked_image
from .metrics import DEFAULT_LOG_TOL, MetricSpec, _reference_margin, equal_points

CONDITION_IDS = ("C1", "C2", "C3", "SI", "SII", "SIII", "PHI")
# Why a pair was not evaluated, in the order they are tested: the map failed,
# an image is outside the metric's space, log phi rejects the pair.
CAUSES = ("map", "image", "phi")

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
            if bad := [k for k in ("alpha", "beta") if not 0 < getattr(self, k) < math.inf]:
                raise DomainError(f"custom_table exponent {bad[0]} must be finite and positive")
        self._certify_unit_property()

    def _certify_unit_property(self):
        # Every kind's log phi is linear in (ls, lt), so phi(1, 1) is exactly
        # 1; sample the boundary rays, where a tiny exponent can round to 1.
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


class _PairTable:
    """A sample mapped once, with the three log-distance matrices of its pairs.

    The sample passes the metric's ``_checked``: its first point of another
    dimension or outside the metric's space raises DomainError
    ``point k: ...``.  ``Dxx[i, j] = L(x_i, x_j)``,
    ``Dtt[i, j] = L(Tx_i, Tx_j)`` and ``Dxt[i, j] = L(x_i, Tx_j)`` give the
    six values every condition reads, the last two NaN unless both images
    are valid (see ``first_error``); ``equal`` is ``equal_points``.  ``I``
    and ``J`` list the pairs i < j in combinations order, and the bool
    vectors ``distinct`` (not equal points) and ``usable`` (distinct, both
    images valid) pick pairs of them for ``gather``.  Points are mapped by
    ``maps._checked_image``, whose DomainError is the map failing at a point;
    ``images`` holds each point's image, None where the map failed.
    ``errors`` holds per point its failure as ``(cause, text)``, ``("map",
    "map at point k: ...")`` or ``("image", "image of point k: ...")``, or
    None for a valid point.  ``tol`` is what a comparison of a slack
    forgives (see ``classify``).
    """

    def __init__(self, metric, T, sample: Sequence):
        self.points = points = metric._checked(sample)
        dim = len(points[0]) if points else 0
        image_of = _checked_image(T)
        self.images, self.errors = [], []
        for k, p in enumerate(points):
            try:
                image = image_of(p)
            except DomainError as exc:
                image, error = None, ("map", f"map at point {k}: {exc}")
            else:
                error = metric._outside(image, dim)
                error = error and ("image", f"image of point {k}: {error}")
            self.images.append(image)
            self.errors.append(error)
        if failed := [e[1] for e in self.errors if e and e[0] == "map"]:
            _warn("map evaluation failed at %d points, excluded; the first: %s",
                  len(failed), failed[0])
        good = [k for k, e in enumerate(self.errors) if e is None]
        X, TX = [points[k] for k in good], [self.images[k] for k in good]
        n, block = len(points), np.ix_(good, good)
        # every point, and every image in TX, was checked
        self.Dxx = metric._log_distance_matrix(points, points)
        self.Dtt, self.Dxt = (np.full((n, n), np.nan) for _ in range(2))
        self.Dtt[block] = metric._log_distance_matrix(TX, TX)
        self.Dxt[block] = metric._log_distance_matrix(X, TX)
        top = max(float(np.max(D, where=np.isfinite(D), initial=0.0))
                  for D in (self.Dxx, self.Dtt, self.Dxt))
        self.tol = DEFAULT_LOG_TOL + (_reference_margin(dim, DEFAULT_LOG_TOL, top)
                                      if isinstance(metric, MetricSpec) else 0.0)
        self.equal = equal_points(points)
        self.step = np.diag(self.Dxt)  # L(x, Tx) of each point
        self.I, self.J = np.triu_indices(n, 1)
        self.distinct = ~self.equal[self.I, self.J]
        valid = np.array([e is None for e in self.errors], dtype=bool)
        self.usable = self.distinct & valid[self.I] & valid[self.J]

    def gather(self, at: np.ndarray) -> tuple[np.ndarray, ...]:
        """``I``, ``J``, L(x, y), L(x, Tx) + L(y, Ty), L(x, Ty) + L(y, Tx) and
        L(Tx, Ty) at the pairs the bool vector ``at`` picks."""
        I, J = self.I[at], self.J[at]
        with np.errstate(all="ignore"):
            return (I, J, self.Dxx[I, J], self.step[I] + self.step[J],
                    self.Dxt[I, J] + self.Dxt[J, I], self.Dtt[I, J])

    def phi_slack(self, phi: PhiSpec, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """The PHI margin rhs - lhs of each pair (u, v) = (x_i[k], x_j[k]) of
        the index vectors ``i`` and ``j``, where i = j is allowed."""
        s, t = self.step[i], self.step[j]
        with np.errstate(all="ignore"):
            return (0.5 * (s + t) - phi._log_phi(s, t)) - self.Dtt[i, j]

    def first_error(self, i: int, j: int) -> tuple[str, str] | None:
        """The ``(cause, text)`` of what fails first at pair (i, j): the map
        at x, then at y (``"map"``), then the metric's domain at Tx and Ty
        (``"image"``)."""
        at = [e for e in (self.errors[i], self.errors[j]) if e]
        return min(at, key=lambda e: CAUSES.index(e[0]), default=None)


def _warn(message: str, *args) -> None:
    """Log a warning on this module's logger, importing ``logging`` only
    here: a run that warns of nothing never loads it."""
    import logging
    logging.getLogger(__name__).warning(message, *args)


def _sup_ratio(num: np.ndarray, den: np.ndarray) -> float:
    """Running ``max(0.0, num / den)`` over pairs, where NaN never wins and a
    zero denominator under a positive numerator admits no constant (inf)."""
    zero = den == 0
    if (num[zero] > 0).any():
        return math.inf
    with np.errstate(all="ignore"):
        ratios = num[~zero] / den[~zero]
    return max(0.0, float(np.nanmax(ratios, initial=0.0)))


def _estimate(table: _PairTable, usable: tuple[np.ndarray, ...]) -> ConstantEstimates:
    """The estimates over ``usable``, the table's ``gather`` at its usable pairs."""
    I, J, Dxx, own, cross, Dtt = usable
    used = Dxx != 0
    n_used = int(used.sum())
    if n_used < len(used):
        k = int(used.argmin())  # the first collapsed pair
        _warn("%d distinct pairs collapsed to distance 1, skipped; the first: %s / %s",
              len(used) - n_used, table.points[I[k]], table.points[J[k]])
    if n_used == 0:
        why = next((f": {e[1]}" for e in table.errors if e), "")  # the first failing point
        raise DegeneratePairError(f"no usable distinct pair in the sample{why}")
    num = Dtt[used]
    return ConstantEstimates(
        _sup_ratio(num, Dxx[used]), _sup_ratio(num, own[used]),
        _sup_ratio(num, cross[used]), n_used, len(table.I) - n_used)


def estimate_constants(metric, T, sample: Sequence) -> ConstantEstimates:
    """Supremum of the condition ratios over all distinct sample pairs.

    Pairs whose points coincide, whose images cannot be evaluated, or whose
    distance collapses to 1 despite distinct coordinates (a floating-point
    artifact for a valid metric) are skipped, counted, and logged; a point
    outside the metric's space raises DomainError.
    """
    table = _PairTable(metric, T, sample)
    return _estimate(table, table.gather(table.usable))


@dataclass(frozen=True, eq=False)
class PairRows:
    """The pair records of a classification, kept as columns.

    ``i`` and ``j`` hold the evaluated pairs in sample order as integer arrays,
    which the writers convert a block at a time; ``checks`` maps each condition
    to its ``(flags, slacks)`` over them, a bool array and a float64 array,
    all NaN for a condition with no admissible constant.  The
    columns keep the full floats; the written records hold each flag only, and
    the slacks reach a file through ``summary`` and ``write_csv``.  ``errors``
    holds one ``(position, i, j, cause, message)`` per pair that could not be
    evaluated, with a cause of ``CAUSES``, where position counts the evaluated
    pairs before it, so no position passes ``len(i)``; ``checks`` holds at
    least one condition, as ``_classify`` gives every table.  The records run
    pair by pair, each evaluated pair with one record per condition in
    ``checks`` order, and each error record before the evaluated pair at its
    position, the order ``_runs`` walks.
    """

    i: np.ndarray
    j: np.ndarray
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

    def summary(self) -> dict:
        """What the records hold, counted.  ``"conditions"`` gives per condition
        ``{"violations", "min_slack", "min_pair"}``: how many evaluated pairs
        fail it, and its least slack, NaN aside, with the first pair that gives
        it; both None when no slack is a number, as in the all-NaN column of a
        condition with no admissible constant.
        ``"evaluated"`` counts the evaluated pairs, and ``"unevaluated"`` gives
        per cause in ``CAUSES`` order ``{"count", "first_pair"}`` of the error
        records, the first pair None for a cause with none."""
        conditions = {}
        for cid, (flags, slacks) in self.checks.items():
            s = np.asarray(slacks, dtype=float)
            k = None if np.isnan(s).all() else int(np.flatnonzero(s == np.nanmin(s))[0])
            conditions[cid] = {
                "violations": int(np.count_nonzero(~np.asarray(flags, dtype=bool))),
                "min_slack": None if k is None else float(s[k]),
                "min_pair": None if k is None else [int(self.i[k]), int(self.j[k])]}
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
        ``false``, a finite slack as its ``repr``, and a non-finite slack, and
        an error record's flag, as an empty field."""
        import csv  # only this writer uses it
        writer = csv.writer(file)
        writer.writerow(["i", "j", "condition", "satisfied", "slack", "error"])
        for start, stop, error in self._runs():
            for a in range(start, stop, _PAIR_BLOCK):
                b = min(a + _PAIR_BLOCK, stop)
                columns = [(cid, np.where(np.asarray(f[a:b], dtype=bool), "true",
                                          "false").tolist(),
                            [repr(x) if math.isfinite(x) else ""
                             for x in np.asarray(s[a:b], dtype=float).tolist()])
                           for cid, (f, s) in self.checks.items()]
                writer.writerows((i, j, cid, flags[k], slacks[k], "") for k, (i, j) in
                                 enumerate(zip(self.i[a:b].tolist(), self.j[a:b].tolist()))
                                 for cid, flags, slacks in columns)
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
        run's error record.  A pair's records are one string, one join of its
        head ``pre[i] + post[j]`` over the texts of its flag pattern, a small
        int per pair: one text per condition, the condition, its flag and the
        end joining the next record, listed when the pattern first appears."""
        if not len(self.i) and not self.errors:
            out.append("[]")
            return
        item = nl + "  "
        end = "}," + item
        pre, post = {}, {}  # index -> text, listed the first time it appears
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
                I, J = self.i[a:b].tolist(), self.j[a:b].tolist()
                pre.update((i, '{"pair": [%s, ' % i) for i in set(I) - pre.keys())
                post.update((j, '%s], "condition": "' % j) for j in set(J) - post.keys())
                heads = map(str.__add__, map(pre.__getitem__, I), map(post.__getitem__, J))
                out += map(str.join, heads, map(parts.__getitem__, codes))
            if error is not None:  # (i, j, message)
                out.append('{"pair": [%s, %s], "condition": "*", "satisfied": null, '
                           '"error": ' % error[:2] + _string(error[2]) + end)
        out[-1] = out[-1][:-len(item) - 1] + nl + "]"  # the last record's "," + item


# Evaluated pairs per block of written records: a file sink holds one block.
_PAIR_BLOCK = 256


@dataclass(frozen=True, eq=False)
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
        """The parse of the written records of ``rows``, once: each
        ``{"pair": [i, j], "condition", "satisfied"}``, and an ``"error"``
        message after a null flag in the record of a pair that could not be
        evaluated (condition ``"*"``); the slacks stay in ``rows``."""
        return json.loads(dump_json(self.rows))

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
) -> tuple[float, float, float, Optional[ZamfirescuConstants]]:
    """Constants to test at: the declared triple, or the estimates, NaN where
    not feasible, which fails every pair; the triple when all are feasible."""
    if given is not None:
        return given.xi, given.eta, given.lam, given
    xi = est.xi_hat if est.c1_feasible else math.nan
    eta = est.eta_hat if est.c2_feasible else math.nan
    lam = est.lambda_hat if est.c3_feasible else math.nan
    triple = None
    if est.c1_feasible and est.c2_feasible and est.c3_feasible:
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
    any other a slack of at least -tol, kept as 0.0 when negative: tol is
    ``DEFAULT_LOG_TOL``, plus for a built-in metric ``_reference_margin`` at
    the largest finite log distance among the sample and its images.  A
    point outside the metric's space raises DomainError.
    Results are deterministic in the sample order, and the aggregate
    verdicts are invariant under permutations of the sample.
    """
    return _classify(_PairTable(metric, T, sample), constants, phi, seed=seed)


def _classify(table: _PairTable, constants: Optional[ZamfirescuConstants],
              phi: Optional[PhiSpec], *, seed: int | None = None) -> ConditionReport:
    """``classify`` of a sample's table.

    The usable pairs that log phi does not reject are evaluated.  The
    table is gathered once, at the usable pairs: the estimates read those
    vectors, and each condition's flags and slacks are computed on their
    entries at the evaluated pairs, the columns of the report's ``PairRows``.
    """
    usable = table.gather(table.usable)
    est = _estimate(table, usable)
    xi, eta, lam, triple = _effective_constants(constants, est)

    evaluated, columns = table.usable, usable
    if phi is not None:  # log phi rejects L(x, Tx) < 0
        phi_bad = table.step < 0
        evaluated = evaluated & ~(phi_bad[table.I] | phi_bad[table.J])
        columns = [c[evaluated[table.usable]] for c in usable]
    n_pairs = int(table.distinct.sum())
    unevaluated = np.flatnonzero(table.distinct & ~evaluated)
    before = np.cumsum(evaluated)  # evaluated pairs before each pair not evaluated
    errors = []
    for k in unevaluated.tolist():  # an invalid point, or log phi rejects the pair
        i, j = int(table.I[k]), int(table.J[k])
        cause, text = table.first_error(i, j) or (
            "phi", f"phi at point {i if phi_bad[i] else j}: "
                   "phi arguments must be distances >= 1")
        errors.append((int(before[k]), i, j, cause, text))
    I, J, Dxx, own, cross, Dtt = columns
    # Every condition but PHI reads L(Tx, Ty) <= const * den on each pair.
    rhs = {"C1": (xi, Dxx), "C2": (eta, own), "C3": (lam, cross),
           "SI": (1.0, Dxx), "SII": (0.5, own), "SIII": (0.5, cross)}
    checks = {}  # condition -> satisfied flags and slacks over the evaluated pairs
    with np.errstate(all="ignore"):
        for cid in [*rhs, "PHI"] if phi is not None else rhs:
            const, den = rhs.get(cid, (1.0, None))
            slack = table.phi_slack(phi, I, J) if cid == "PHI" else const * den - Dtt
            if cid in ("SI", "SII", "SIII"):
                ok = slack > 0
            else:
                ok = slack >= -table.tol
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
        rows=PairRows(I, J, checks, tuple(errors)),
        constants_used=triple if constants is None else constants,
        estimates=est,
        verdicts=verdicts,
        seed=seed,
        n_points=len(table.points),
        n_pairs=n_pairs,
        skipped_pairs=len(table.I) - n_pairs,
    )
