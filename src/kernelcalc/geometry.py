"""Edge records for points and multi-indices, domains and seeded sampling.

Inside the engine a batch of points is a (B, m) complex array and a
multi-index is a tuple of ints.  `Point` and `MultiIndex` are the records
that public results carry (`sample_points`, `GramReport.points`, the terms
of an RKHS element); `as_point` and `point_array` convert at the edge.
Domains are the disc, the ball and the polydisc, each with the radius that
`sample_points` draws from.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import DomainError

#: default radius of the closed sub-domain that sampled points live in
DEFAULT_SAMPLE_RADIUS = 0.8


@dataclass(frozen=True)
class Point:
    """A point of C^m, stored as an immutable tuple of complex coordinates."""

    coords: tuple[complex, ...]

    def __init__(self, coords):
        object.__setattr__(self, "coords", tuple(complex(c) for c in coords))
        if len(self.coords) < 1:
            raise ValueError("Point needs at least one coordinate")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def array(self) -> np.ndarray:
        return np.array(self.coords, dtype=complex)

    def __getitem__(self, k):
        return self.coords[k]

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)


def as_point(p, m: int | None = None) -> Point:
    """Coerce a Point / scalar / sequence of complex numbers into a Point."""
    if isinstance(p, Point):
        pt = p
    elif isinstance(p, (int, float, complex)):
        pt = Point((p,))
    else:
        pt = Point(p)
    if m is not None and pt.dim != m:
        raise DomainError(f"expected a point of C^{m}, got dimension {pt.dim}")
    return pt


def point_array(points, m: int) -> np.ndarray:
    """A (B, m) complex array from a sequence of points or such an array."""
    if isinstance(points, np.ndarray):
        arr = points.astype(complex, copy=False)
    else:
        arr = np.array([as_point(p, m).coords for p in points], dtype=complex).reshape(-1, m)
    if arr.ndim != 2 or arr.shape[1] != m:
        raise DomainError(f"expected points of C^{m}, got an array of shape {arr.shape}")
    return arr


def in_unit_ball(points: np.ndarray) -> np.ndarray:
    """Whether each point of a (..., m) array has Euclidean norm below 1."""
    return np.sqrt((np.abs(points) ** 2).sum(axis=-1)) < 1


@dataclass(frozen=True, order=False)
class MultiIndex:
    """A multi-index in Z_+^m: a tuple of non-negative ints."""

    entries: tuple[int, ...]

    def __init__(self, entries):
        entries = tuple(int(e) for e in entries)
        if any(e < 0 for e in entries):
            raise ValueError("multi-index entries must be non-negative")
        object.__setattr__(self, "entries", entries)

    @property
    def order(self) -> int:
        """Total degree |i| = i_1 + ... + i_m."""
        return sum(self.entries)

    @property
    def dim(self) -> int:
        return len(self.entries)


def graded_lex_tuples(m: int, max_order: int) -> list[tuple[int, ...]]:
    """All multi-indices i in Z_+^m with |i| <= max_order, in graded lex order.

    Within each total degree the earlier coordinates dominate, e.g. for m=2,
    degree 1 the order is (1,0), (0,1).  The count is binom(m+max_order, m).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    out = []
    for deg in range(max_order + 1):
        layer = set()
        for positions in combinations_with_replacement(range(m), deg):
            idx = [0] * m
            for p in positions:
                idx[p] += 1
            layer.add(tuple(idx))
        out.extend(sorted(layer, reverse=True))
    return out


def unit_index(m: int, k: int) -> tuple[int, ...]:
    """The multi-index e_k of Z_+^m."""
    return tuple(1 if i == k else 0 for i in range(m))


_KINDS = ("unit-disc", "unit-ball", "polydisc")


@dataclass(frozen=True)
class DomainSpec:
    """Disc, ball or polydisc together with the radius points are drawn from."""

    kind: str
    dim: int = 1
    sample_radius: float = DEFAULT_SAMPLE_RADIUS

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == "unit-disc" and self.dim != 1:
            raise ValueError("unit-disc is one dimensional")
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if not 0 < self.sample_radius < 1:
            raise ValueError("sample_radius must lie in (0, 1)")


def unit_disc(sample_radius: float = DEFAULT_SAMPLE_RADIUS) -> DomainSpec:
    return DomainSpec("unit-disc", 1, sample_radius)


def unit_ball(m: int, sample_radius: float = DEFAULT_SAMPLE_RADIUS) -> DomainSpec:
    return DomainSpec("unit-ball", m, sample_radius)


def polydisc(m: int, sample_radius: float = DEFAULT_SAMPLE_RADIUS) -> DomainSpec:
    return DomainSpec("polydisc", m, sample_radius)


def sample_points(domain: DomainSpec, count: int, seed: int = 0) -> list[Point]:
    """Draw `count` points inside the closed sub-domain of radius sample_radius.

    Coordinates are drawn area-uniformly on the disc of radius sample_radius;
    for the unit ball, draws are rejected until the Euclidean norm is within
    the radius.  `seed` is any integer in [0, 2^64), numpy integers included;
    equal seeds give bitwise-identical points.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    rng = np.random.default_rng(seed)
    r = domain.sample_radius
    m = domain.dim
    pts: list[Point] = []
    while len(pts) < count:
        rho = r * np.sqrt(rng.uniform(0, 1, m))
        theta = rng.uniform(0, 2 * np.pi, m)
        z = rho * np.exp(1j * theta)
        if domain.kind == "unit-ball" and np.linalg.norm(z) > r:
            continue
        pts.append(Point(z))
    return pts
