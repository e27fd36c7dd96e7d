"""Edge records for points and multi-indices, domains and seeded sampling.

Inside the engine a batch of points is a (B, m) complex array and a
multi-index is a tuple of ints.  `Point` and `MultiIndex` are the records
that public results carry (`sample_points`, `GramReport.points`, the terms
of an RKHS element, `MobiusMap.apply`); `point_array` is the one converter
at the edge, for a batch and, as a batch of one, for a single point.
Domains are the disc, the ball and the polydisc, each with the radius that
`sample_array` draws from (`sample_points` is its `Point` view).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import DomainError
from .params import checked, is_integral

#: default radius of the closed sub-domain that sampled points live in
DEFAULT_SAMPLE_RADIUS = 0.8

#: most attempts `sample_array` draws at once (2m doubles each)
_MAX_CHUNK = 1 << 16

#: most attempts `sample_array` expects to need for one call (count * m!
#: on the ball); enough for 40 points of the ball of C^8
_MAX_ATTEMPTS = 1 << 21


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


def point_array(points, m: int) -> np.ndarray:
    """A (B, m) complex array from such an array or a sequence of points:
    `Point`s, sequences of coordinates or, when m = 1, scalars (numpy
    scalars and 0-d arrays included, and a 1-D array is B scalars)."""
    if isinstance(points, np.ndarray):
        arr = points.astype(complex, copy=False)
        if arr.ndim == 1 and m == 1:
            arr = arr.reshape(-1, 1)
    else:
        rows = [p.coords if isinstance(p, Point) else p for p in points]
        try:
            arr = np.array(rows, dtype=complex)
        except ValueError:  # rows of different lengths: name the first wrong one
            rows = [np.atleast_1d(np.asarray(p, dtype=complex)) for p in rows]
            for i, row in enumerate(rows):
                if row.shape != (m,):
                    raise DomainError(
                        f"expected points of C^{m}, got row {i} of dimension {row.size}")
            arr = np.array(rows)
        if arr.ndim == 1:  # scalars are points of C^1, and no rows is (0, m)
            arr = arr.reshape(len(rows), -1 if rows else m)
    if arr.ndim != 2 or arr.shape[1] != m:
        raise DomainError(f"expected points of C^{m}, got an array of shape {arr.shape}")
    return arr


def in_unit_ball(points: np.ndarray) -> np.ndarray:
    """Whether each point of a (..., m) array has Euclidean norm below 1."""
    return np.sqrt((np.abs(points) ** 2).sum(axis=-1)) < 1


@dataclass(frozen=True, order=False)
class MultiIndex:
    """A multi-index in Z_+^m: a tuple of non-negative ints.  Its entries
    follow the node kind `int` (integral reals, stored as ints), so 1.5 is
    refused rather than rounded."""

    entries: tuple[int, ...]

    def __init__(self, entries):
        entries = tuple(entries)
        if not all(is_integral(e) and e >= 0 for e in entries):
            raise ValueError(f"multi-index entries must be non-negative integers, got {entries!r}")
        object.__setattr__(self, "entries", tuple(map(int, entries)))

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
        checked("positive_int", self.dim, "dim")
        if self.kind == "unit-disc" and self.dim != 1:
            raise ValueError("unit-disc is one dimensional")
        checked("radius", self.sample_radius, "sample_radius")


def unit_disc(sample_radius: float = DEFAULT_SAMPLE_RADIUS) -> DomainSpec:
    return DomainSpec("unit-disc", 1, sample_radius)


def unit_ball(m: int, sample_radius: float = DEFAULT_SAMPLE_RADIUS) -> DomainSpec:
    return DomainSpec("unit-ball", m, sample_radius)


def polydisc(m: int, sample_radius: float = DEFAULT_SAMPLE_RADIUS) -> DomainSpec:
    return DomainSpec("polydisc", m, sample_radius)


def sample_array(domain: DomainSpec, count: int, seed: int = 0) -> np.ndarray:
    """Draw `count` points of the closed sub-domain of radius sample_radius: a (count, m) array.

    Each attempt draws m uniforms for the moduli and then m for the angles,
    so that coordinates are area-uniform on the disc of radius sample_radius;
    for the unit ball, attempts are rejected until the Euclidean norm is
    within the radius.  Attempts are drawn in chunks, in the order of a loop
    over single attempts.  `seed` is any integer in [0, 2^64), numpy integers
    included; equal seeds give bitwise-identical points.  A ball request
    expected to need more than _MAX_ATTEMPTS attempts is refused with a
    ValueError.
    """
    count = checked("positive_int", count, "count")
    seed = checked("seed", seed, "seed")
    rng = np.random.default_rng(seed)
    r = domain.sample_radius
    m = domain.dim
    ball = domain.kind == "unit-ball"
    # the ball keeps 1/m! of the attempts (its volume over the polydisc's)
    attempts_per_point = math.factorial(m) if ball else 1
    if ball and count * attempts_per_point > _MAX_ATTEMPTS:
        raise ValueError(
            f"sampling {count} point(s) of the unit ball of C^{m} needs about "
            f"{count * attempts_per_point} attempts, over the budget of {_MAX_ATTEMPTS}"
        )
    chunks = []
    need = count
    while need > 0:
        n = min(need * attempts_per_point * 5 // 4 + 8, _MAX_CHUNK)
        u = rng.random((n, 2, m))
        z = r * np.sqrt(u[:, 0]) * np.exp(1j * (2 * np.pi * u[:, 1]))
        if ball:
            z = z[np.linalg.norm(z, axis=1) <= r]
        chunks.append(z[:need])
        need -= len(chunks[-1])
    return np.concatenate(chunks)


def sample_points(domain: DomainSpec, count: int, seed: int = 0) -> list[Point]:
    """`sample_array` as a list of `Point`s, coordinate for coordinate."""
    return [Point(p) for p in sample_array(domain, count, seed).tolist()]
