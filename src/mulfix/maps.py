"""Self-maps, box domains, and deterministic sample generation.

The map catalog is deliberately small and closed: a handful of named
forms plus a general affine map given by a coefficient table.  A
:class:`SelfMapSpec` is callable on point tuples and can carry the box it
is declared on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError
from .jsonconfig import JsonConfig, decode
from .metrics import Point, as_point

# Each map kind with the parameters it takes, every one of them required.
MAP_PARAMS = {
    "scale": ("c",),
    "rational": ("b",),
    "power": ("p",),
    "reciprocal_sqrt": (),
    "constant": ("value",),
    "identity": (),
    "negation": (),
    "affine": ("matrix", "offset"),
}


@dataclass(frozen=True)
class Box:
    """Axis-aligned product of closed intervals, one per coordinate."""

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.bounds:
            raise DomainError("a box needs at least one interval")
        clean = []
        for pair in self.bounds:
            lo, hi = (float(v) for v in pair)
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise DomainError(f"bad interval {pair!r}")
            clean.append((lo, hi))
        object.__setattr__(self, "bounds", tuple(clean))

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def contains(self, point) -> bool:
        p = as_point(point)
        if len(p) != self.dim:
            return False
        return all(lo <= c <= hi for c, (lo, hi) in zip(p, self.bounds))

    def to_json(self) -> list:
        return [list(pair) for pair in self.bounds]

    @classmethod
    def from_json(cls, data) -> "Box":
        """Read ``[[lo, hi], ...]``; any other JSON value raises DomainError."""
        try:
            return cls(decode(tuple[tuple[float, float], ...], data))
        except ConfigError as exc:
            raise DomainError(f"a box is a list of [lo, hi] pairs: {exc}") from None


@dataclass(frozen=True)
class SelfMapSpec(JsonConfig):
    """A named self-map, callable on point tuples."""

    kind: str
    c: float | None = None            # scale factor
    b: float | None = None            # rational offset: x -> 1 / (b + x)
    p: float | None = None            # power exponent: x -> x ** p
    value: Point | None = None        # constant image
    matrix: tuple[Point, ...] | None = None  # affine coefficient table
    offset: Point | None = None
    domain: Optional[Box] = None

    def __post_init__(self):
        if self.kind not in MAP_PARAMS:
            raise DomainError(f"unknown map kind {self.kind!r}")
        for field in ("c", "b", "p", "value", "matrix", "offset"):
            needed, given = field in MAP_PARAMS[self.kind], getattr(self, field) is not None
            if needed != given:
                raise DomainError(f"map kind {self.kind!r} "
                                  f"{'needs' if needed else 'takes no'} {field!r}")
        if self.value is not None:
            object.__setattr__(self, "value", as_point(self.value))
        if self.matrix is not None:
            m = tuple(tuple(float(v) for v in row) for row in self.matrix)
            if not m or any(len(row) != len(m[0]) for row in m):
                raise DomainError("affine matrix must be rectangular")
            object.__setattr__(self, "matrix", m)
        if self.offset is not None:
            object.__setattr__(self, "offset", as_point(self.offset))

    # -- constructors -----------------------------------------------------

    @classmethod
    def scale(cls, c: float, domain: Box | None = None) -> "SelfMapSpec":
        return cls("scale", c=float(c), domain=domain)

    @classmethod
    def rational(cls, b: float, domain: Box | None = None) -> "SelfMapSpec":
        return cls("rational", b=float(b), domain=domain)

    @classmethod
    def power(cls, p: float, domain: Box | None = None) -> "SelfMapSpec":
        return cls("power", p=float(p), domain=domain)

    @classmethod
    def reciprocal_sqrt(cls, domain: Box | None = None) -> "SelfMapSpec":
        return cls("reciprocal_sqrt", domain=domain)

    @classmethod
    def constant(cls, value, domain: Box | None = None) -> "SelfMapSpec":
        return cls("constant", value=as_point(value), domain=domain)

    @classmethod
    def identity(cls, domain: Box | None = None) -> "SelfMapSpec":
        return cls("identity", domain=domain)

    @classmethod
    def negation(cls, domain: Box | None = None) -> "SelfMapSpec":
        return cls("negation", domain=domain)

    @classmethod
    def affine(cls, matrix, offset, domain: Box | None = None) -> "SelfMapSpec":
        return cls("affine", matrix=tuple(tuple(row) for row in matrix),
                   offset=as_point(offset), domain=domain)

    # -- evaluation --------------------------------------------------------

    def __call__(self, point) -> Point:
        x = as_point(point)
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
        y = m @ np.asarray(x, dtype=float) + np.asarray(self.offset, dtype=float)
        return as_point(y)


def grid_points(box: Box, n: int) -> list[Point]:
    """Deterministic low-discrepancy grid of n points spanning the box.

    1-d boxes get an endpoint-inclusive linspace; higher dimensions use the
    first n nodes of the smallest per-axis lattice that holds n points.
    """
    if n <= 0:
        return []
    if box.dim == 1:
        lo, hi = box.bounds[0]
        return [(float(v),) for v in np.linspace(lo, hi, n)]
    k = max(2, math.ceil(n ** (1.0 / box.dim)))
    axes = [np.linspace(lo, hi, k) for lo, hi in box.bounds]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, box.dim)
    return [tuple(float(c) for c in row) for row in mesh[:n]]


def sample_box(box: Box, n: int, seed: int, scheme: str = "mixed") -> list[Point]:
    """Sample n points: a pure grid, or half grid plus seeded uniforms."""
    if n < 1:
        raise DomainError("sample size must be >= 1")
    if scheme == "grid":
        return grid_points(box, n)
    if scheme != "mixed":
        raise DomainError(f"unknown sampling scheme {scheme!r}")
    n_grid = n // 2
    pts = grid_points(box, n_grid)
    rng = np.random.default_rng(seed)
    lows = [lo for lo, _ in box.bounds]
    highs = [hi for _, hi in box.bounds]
    rand = rng.uniform(lows, highs, size=(n - n_grid, box.dim))
    pts.extend(tuple(float(c) for c in row) for row in rand)
    return pts
