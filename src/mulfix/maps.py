"""Self-maps, box domains, and deterministic sample generation.

The map catalog is deliberately small and closed: a handful of named
forms plus a general affine map given by a coefficient table.  A
:class:`SelfMapSpec` is callable on point tuples; the box a map is
iterated on is declared by the experiment, not by the map.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Optional

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


# -- scalar kernels: the image of a point tuple that passed ``as_point`` -------
# Each takes its kind's parameters first, in MAP_PARAMS order, and each kind
# has one: a point kernel, which ``SelfMapSpec._call`` binds, or a kernel of one
# coordinate, which ``_coordinate`` binds and ``_call`` maps over the point.


def _rational(b, c: float) -> float:
    den = b + c
    if den == 0:
        raise DomainError(f"rational map pole at coordinate {c}")
    return 1.0 / den


def _power(p, c: float) -> float:
    if c < 0 and p != int(p):
        raise DomainError(f"fractional power of negative {c}")
    if c == 0 and p < 0:
        raise DomainError("negative power of zero")
    return c ** p


def _inverse_sqrt(c: float) -> float:
    if c <= 0:
        raise DomainError(f"reciprocal_sqrt needs a positive coordinate, got {c}")
    return 1.0 / math.sqrt(c)


def _coordinatewise(coordinate: Callable[[float], float], x: Point) -> Point:
    return tuple(map(coordinate, x))


def _constant(value: Point, x: Point) -> Point:
    return value


def _identity(x: Point) -> Point:
    return x


def _affine(m: np.ndarray, offset: np.ndarray, x: Point) -> Point:
    """A @ x + offset, for the coefficient table and offset as float arrays."""
    if m.shape[1] != len(x):
        raise DomainError(f"affine matrix expects dimension {m.shape[1]}")
    with np.errstate(over="ignore", invalid="ignore"):  # as_point rejects inf, NaN
        y = m @ np.asarray(x, dtype=float) + offset
    return as_point(y)


_KERNELS = {"constant": _constant, "identity": _identity, "affine": _affine}
_COORDINATE = {"scale": operator.mul, "rational": _rational, "power": _power,
               "reciprocal_sqrt": _inverse_sqrt, "negation": operator.neg}


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
            if not math.isfinite(hi - lo) or lo > hi:  # also a width beyond float range
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

    def __post_init__(self):
        if self.kind not in MAP_PARAMS:
            raise DomainError(f"unknown map kind {self.kind!r}")
        for field in ("c", "b", "p", "value", "matrix", "offset"):
            needed, given = field in MAP_PARAMS[self.kind], getattr(self, field) is not None
            if needed != given:
                raise DomainError(f"map kind {self.kind!r} "
                                  f"{'needs' if needed else 'takes no'} {field!r}")
            if isinstance(getattr(self, field), np.generic):
                # a numpy scalar parameter would make numpy scalar images
                object.__setattr__(self, field, getattr(self, field).item())
        if self.value is not None:
            object.__setattr__(self, "value", as_point(self.value))
        if self.matrix is not None:
            m = tuple(tuple(float(v) for v in row) for row in self.matrix)
            if not m or any(len(row) != len(m[0]) for row in m):
                raise DomainError("affine matrix must be rectangular")
            if not m[0]:
                raise DomainError("affine matrix needs at least one column")
            object.__setattr__(self, "matrix", m)
        # as_point checks value and offset; json.load reads 1e999 as inf
        numbers = [(field, getattr(self, field)) for field in ("c", "b", "p")]
        numbers += [("matrix", v) for row in self.matrix or () for v in row]
        for field, v in numbers:
            if v is not None and not math.isfinite(v):
                raise DomainError(f"parameter {field!r} must be finite, got {v!r}")
        if self.offset is not None:
            object.__setattr__(self, "offset", as_point(self.offset))
            if len(self.offset) != len(self.matrix):
                raise DomainError(f"affine offset has {len(self.offset)} entries "
                                  f"for {len(self.matrix)} matrix rows")

    # -- constructors -----------------------------------------------------

    @classmethod
    def scale(cls, c: float) -> "SelfMapSpec":
        return cls("scale", c=float(c))

    @classmethod
    def rational(cls, b: float) -> "SelfMapSpec":
        return cls("rational", b=float(b))

    @classmethod
    def power(cls, p: float) -> "SelfMapSpec":
        return cls("power", p=float(p))

    @classmethod
    def reciprocal_sqrt(cls) -> "SelfMapSpec":
        return cls("reciprocal_sqrt")

    @classmethod
    def constant(cls, value) -> "SelfMapSpec":
        return cls("constant", value=as_point(value))

    @classmethod
    def identity(cls) -> "SelfMapSpec":
        return cls("identity")

    @classmethod
    def negation(cls) -> "SelfMapSpec":
        return cls("negation")

    @classmethod
    def affine(cls, matrix, offset) -> "SelfMapSpec":
        return cls("affine", matrix=tuple(tuple(row) for row in matrix),
                   offset=as_point(offset))

    # -- evaluation --------------------------------------------------------

    def __call__(self, point) -> Point:
        return self._call(as_point(point))

    @cached_property
    def _call(self) -> Callable[[Point], Point]:
        """The image of a point tuple that passed ``as_point``: this kind's
        kernel, with its parameters bound once (an affine map's as arrays)."""
        if self.kind not in _KERNELS:
            return partial(_coordinatewise, self._coordinate)
        params = [getattr(self, name) for name in MAP_PARAMS[self.kind]]
        if self.kind == "affine":
            params = [np.asarray(v, dtype=float) for v in params]
        return partial(_KERNELS[self.kind], *params) if params else _KERNELS[self.kind]

    @cached_property
    def _coordinate(self) -> Optional[Callable[[float], float]]:
        """A coordinate-wise kind's image of one coordinate, bound once, which
        fails where ``_call`` fails; None for constant, identity and affine."""
        kernel = _COORDINATE.get(self.kind)
        params = [getattr(self, name) for name in MAP_PARAMS[self.kind]]
        return partial(kernel, *params) if kernel and params else kernel

    @property
    def dim(self) -> Optional[int]:
        """The dimension of the only points this map sends to points of their
        own dimension, or None for a kind that does so in every dimension: a
        constant's value's length, an affine map's matrix size, and 0 for a
        non-square matrix, which changes the dimension of every point."""
        if self.kind == "constant":
            return len(self.value)
        if self.kind == "affine":
            rows, columns = len(self.matrix), len(self.matrix[0])
            return rows if rows == columns else 0
        return None


def _checked_image(T) -> Callable[[Point], Point]:
    """T bound once as a function of a checked point tuple, whose image is a
    checked tuple.  This is the one rule for a map that fails at a point: T
    raises an ArithmeticError or a ValueError, which reaches the caller as
    DomainError (a DomainError as it is, an error whose args are an errno
    and a text as ``TypeName: text``), or gives a non-finite image, which
    ``as_point`` rejects; any other error of T passes through.  A
    SelfMapSpec's kernel gives floats, which go through ``as_point`` only to
    raise a non-finite one's error."""
    spec = type(T) is SelfMapSpec
    call = T._call if spec else T

    def image(x: Point) -> Point:
        try:
            y = call(x)
            return y if spec and all(map(math.isfinite, y)) else as_point(y)
        except DomainError:
            raise
        except (ArithmeticError, ValueError) as exc:
            coded = [type(a) for a in exc.args] == [int, str]  # x ** p's OverflowError
            raise DomainError(f"{type(exc).__name__}: {exc.args[1]}" if coded
                              else str(exc)) from exc

    return image


def grid_points(box: Box, n: int) -> list[Point]:
    """Deterministic low-discrepancy grid of n points spanning the box.

    The first n nodes of the smallest lattice of endpoint-inclusive
    linspaces, at least 2 per axis in 2-d and up, that holds n points.
    """
    if n <= 0:
        return []
    k = n if box.dim == 1 else 2
    while k ** box.dim < n:
        k += 1
    with np.errstate(over="ignore"):  # (k - 1) * step may round past hi, which ends the axis
        axes = [np.linspace(lo, hi, k) for lo, hi in box.bounds]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, box.dim)
    return [tuple(float(c) for c in row) for row in mesh[:n]]


def sample_box(box: Box, n: int, seed: int, scheme: str = "mixed") -> list[Point]:
    """Sample n points: a pure grid, or half grid plus seeded uniforms."""
    if n < 1:
        raise DomainError("sample size must be >= 1")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if scheme == "grid":
        return grid_points(box, n)
    if scheme != "mixed":
        raise DomainError(f"unknown sampling scheme {scheme!r}")
    n_grid = n // 2
    return grid_points(box, n_grid) + _uniform(box, n - n_grid, seed)


def _uniform(box: Box, m: int, seed: int) -> list[Point]:
    """``np.random.default_rng(seed).uniform(lows, highs, size=(m, box.dim))``
    bit for bit, as numpy 2.4 computes it, without loading ``numpy.random``.

    ``SeedSequence(seed).generate_state(4, uint64)``: the seed's 32-bit words,
    low first, are hashed into a pool of 4 words, each pool word is mixed
    into the others and every word past the fourth into all of them, and 8
    output words are hashed from the pool, joined in pairs low word first as
    s0..s3; all of it mod 2**32.  ``PCG64`` seeds its 128-bit state from
    s0 s1 and its increment from s2 s3, and each draw steps the LCG, then
    rotates the xor of the state's halves right by its top 6 bits to give x.
    ``Generator.uniform`` returns ``lo + (hi - lo) * ((x >> 11) * 2**-53)``,
    point by point and coordinate by coordinate within a point.
    """
    seed = operator.index(seed)  # a numpy integer too, as numpy takes it
    words = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    h = 0x43B0D7E5

    def hashmix(v: int, mult: int = 0x931E8875) -> int:
        nonlocal h
        v, h = v ^ h, h * mult & 0xFFFFFFFF
        v = v * h & 0xFFFFFFFF
        return v ^ v >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & 0xFFFFFFFF
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for s in range(4):
        for d in range(4):
            if d != s:
                pool[d] = mix(pool[d], hashmix(pool[s]))
    for w in words[4:]:
        for d in range(4):
            pool[d] = mix(pool[d], hashmix(w))
    h = 0x8B51F9DD
    out = [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]
    s0, s1, s2, s3 = (out[i] | out[i + 1] << 32 for i in range(0, 8, 2))
    mult, mask, m64 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1, (1 << 64) - 1
    inc = ((s2 << 64 | s3) << 1 | 1) & mask
    state = ((inc + (s0 << 64 | s1)) * mult + inc) & mask  # the step from 0 is inc

    def draw(lo: float, hi: float) -> float:
        nonlocal state
        state = (state * mult + inc) & mask
        x, r = (state >> 64 ^ state) & m64, state >> 122
        x = (x >> r | x << 64 - r) & m64
        return lo + (hi - lo) * ((x >> 11) * 2.0**-53)

    return [tuple(draw(lo, hi) for lo, hi in box.bounds) for _ in range(m)]
