"""Truncated multivariate Taylor (jet) arithmetic on dense, batched arrays.

A Jet holds the Taylor coefficients of a function of two groups of complex
variables: m "holomorphic" slots z and m "anti-holomorphic" slots wbar.  The
truncation cap is per group: coefficients are kept for multi-index pairs
(a, b) with |a| <= nz and |b| <= nw.  Coefficients are Taylor-normalized,
i.e. coeff(a, b) = (mixed partial derivative) / (a! b!).

The coefficients form a complex array of shape (*batch, Nz, Nw), where Nz
and Nw count the monomials of each group in graded lex order
(`graded_lex_tuples`), so truncating a jet is a slice.  The batch axes hold
independent expansions (all pairs of a Gram matrix, the nodes of a
finite-difference grid, the entries of a matrix kernel) and broadcast like
numpy arrays.  Every operation acts on each batch entry alone, so a batched
result equals the one-entry results bit for bit.

Products, shifts and embeddings use index tables that are built on first
use and cached per (m, degree) of one variable group; a product contracts
the w group and then the z group, for a bounded run of output z-monomials
at a time, so no table or temporary spans all z-pairs times all w-pairs.  pow, log and exp
compose the univariate series through the standard recurrences, so results
are exact to the truncation order.  Their branch, zero-base and non-finite
checks are vectorized: each raises for the first bad batch entry and
records its index as the error's `batch_index`.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from .errors import BranchError, EvaluationError
from .geometry import graded_lex_tuples, unit_index


class _Group:
    """Index tables of the monomials of degree <= n in m variables."""

    def __init__(self, m: int, n: int):
        self.m, self.n = m, n
        self.tuples = graded_lex_tuples(m, n)
        self.size = len(self.tuples)
        self.index = {a: i for i, a in enumerate(self.tuples)}
        self.factorials = np.array(
            [math.prod(math.factorial(e) for e in a) for a in self.tuples], dtype=float
        )

    @functools.cached_property
    def pairs(self) -> tuple:
        """(left, right, starts): every pair of monomials whose product has
        degree <= n, sorted by the product; `starts[k]` is where the run of
        pairs of product monomial k begins (each monomial has one)."""
        pairs = sorted(
            (self.index[tuple(x + y for x, y in zip(a, b))], i, j)
            for i, a in enumerate(self.tuples)
            for j, b in enumerate(self.tuples)
            if sum(a) + sum(b) <= self.n
        )
        k, left, right = (np.array(col, dtype=np.intp) for col in zip(*pairs))
        return left, right, np.flatnonzero(np.r_[True, k[1:] != k[:-1]])

    @functools.cache
    def chunks(self, max_pairs: int) -> list:
        """The product tables cut into runs of consecutive product monomials,
        (rows, left, right, starts) each, with at most `max_pairs` pairs per
        run unless one monomial alone has more."""
        left, right, starts = self.pairs
        bounds = np.r_[starts, len(left)]
        out, k0 = [], 0
        while k0 < self.size:
            k1 = k0 + 1
            while k1 < self.size and bounds[k1 + 1] - bounds[k0] <= max_pairs:
                k1 += 1
            s0, s1 = bounds[k0], bounds[k1]
            out.append((slice(k0, k1), left[s0:s1], right[s0:s1], starts[k0:k1] - s0))
            k0 = k1
        return out

    @functools.cache
    def shift(self, d: tuple) -> tuple:
        """(source, factor) of the derivative d/dz^d: output monomial a of
        degree <= n - |d| reads monomial a + d, times (a + d)! / a!."""
        out = _group(self.m, self.n - sum(d))
        source = np.array(
            [self.index[tuple(x + y for x, y in zip(a, d))] for a in out.tuples],
            dtype=np.intp,
        )
        return source, self.factorials[source] / out.factorials

    @functools.cache
    def embed(self, m: int, offset: int) -> np.ndarray:
        """Positions of this group's monomials among those of C^m, placed on
        the coordinates offset .. offset + self.m - 1."""
        pre, post = (0,) * offset, (0,) * (m - offset - self.m)
        target = _group(m, self.n)
        return np.array([target.index[pre + a + post] for a in self.tuples], dtype=np.intp)


@functools.cache
def _group(m: int, n: int) -> _Group:
    return _Group(m, n)


def _fail_where(mask, error, message):
    """Raise `error` for the first batch entry where `mask` holds; `message`
    maps that entry's batch index to the error text."""
    if mask.any():
        index = tuple(int(i) for i in np.unravel_index(np.argmax(mask), mask.shape))
        exc = error(message(index))
        exc.batch_index = index
        raise exc


def check_finite(coeffs: np.ndarray, what: str) -> None:
    """Raise EvaluationError for the first entry of the leading axes whose
    trailing 2-D block holds a non-finite number."""
    if not np.isfinite(coeffs).all():
        bad = ~np.isfinite(coeffs).all(axis=(-2, -1))
        _fail_where(bad, EvaluationError, lambda i: f"{what} is not finite")


#: complex entries of one temporary of a product (64 KB); longer products
#: are cut into runs of output monomials
_PRODUCT_CHUNK = 1 << 12


def _convolve(x: np.ndarray, y: np.ndarray, gz: _Group, gw: _Group) -> np.ndarray:
    """Truncated Leibniz product of two coefficient arrays (batch broadcast).

    The w group is contracted first, for the z-pairs of a run of output
    z-monomials at a time; the z group is then summed over the pairs of each
    output monomial.  Both are segment sums in a fixed order, so how the
    outputs are cut into runs (by size) leaves every result unchanged.
    """
    if gz.size == gw.size == 1:  # constant jets: no pairs to sum
        return x * y
    wl, wr, wstarts = gw.pairs
    batch = np.broadcast_shapes(x.shape[:-2], y.shape[:-2])
    out = np.empty(batch + (gz.size, gw.size), dtype=complex)
    per_pair = math.prod(batch) * len(wl)
    # a power of two, so that few run tables are cached per group
    max_pairs = 1 << (max(_PRODUCT_CHUNK // max(per_pair, 1), 1).bit_length() - 1)
    for rows, zl, zr, zstarts in gz.chunks(max_pairs):
        terms = x[..., zl, :][..., wl]
        terms = np.multiply(terms, y[..., zr, :][..., wr],
                            out=terms if x.shape[:-2] == batch else None)
        terms = np.add.reduceat(terms, wstarts, axis=-1)
        out[..., rows, :] = np.add.reduceat(terms, zstarts, axis=-2)
        del terms  # free this run's temporaries before the next run's exist
    return out


class Jet:
    """Truncated Taylor expansions in m + m variables (z-group, wbar-group),
    one per entry of the batch shape `coeffs.shape[:-2]`."""

    __slots__ = ("m", "nz", "nw", "coeffs")

    def __init__(self, m: int, nz: int, nw: int, coeffs: np.ndarray):
        self.m = m
        self.nz = nz
        self.nw = nw
        self.coeffs = coeffs

    def _like(self, coeffs) -> "Jet":
        return Jet(self.m, self.nz, self.nw, coeffs)

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value, m, nz, nw):
        """The constant `value` (a number or an array of the batch shape)."""
        value = np.asarray(value, dtype=complex)
        coeffs = np.zeros(value.shape + (_group(m, nz).size, _group(m, nw).size),
                          dtype=complex)
        coeffs[..., 0, 0] = value
        return cls(m, nz, nw, coeffs)

    @classmethod
    def variable_z(cls, k, value, m, nz, nw):
        """The coordinate function z_k seeded at `value`."""
        j = cls.constant(value, m, nz, nw)
        if nz >= 1:
            j.coeffs[..., _group(m, nz).index[unit_index(m, k)], 0] = 1.0
        return j

    @classmethod
    def variable_wbar(cls, k, value, m, nz, nw):
        """The conjugated coordinate wbar_k seeded at conj(value)."""
        j = cls.constant(np.conj(value), m, nz, nw)
        if nw >= 1:
            j.coeffs[..., 0, _group(m, nw).index[unit_index(m, k)]] = 1.0
        return j

    # -- basic queries -------------------------------------------------

    @property
    def batch(self) -> tuple:
        return self.coeffs.shape[:-2]

    @property
    def value(self):
        """The constant terms, one per batch entry."""
        return self.coeffs[..., 0, 0]

    def derivatives(self) -> dict:
        """All mixed derivatives (d/dz)^a (d/dwbar)^b at the base point, as
        {(a, b): array of the batch shape}."""
        gz, gw = _group(self.m, self.nz), _group(self.m, self.nw)
        scaled = self.coeffs * (gz.factorials[:, None] * gw.factorials[None, :])
        # one contiguous batch-shaped block per derivative
        blocks = np.ascontiguousarray(np.moveaxis(scaled, (-2, -1), (0, 1)))
        return {
            (a, b): blocks[i, j]
            for i, a in enumerate(gz.tuples)
            for j, b in enumerate(gw.tuples)
        }

    def deriv(self, i, j):
        """Mixed Wirtinger derivative (d/dz)^i (d/dwbar)^j at the base point."""
        gz, gw = _group(self.m, self.nz), _group(self.m, self.nw)
        i, j = tuple(i), tuple(j)
        if i not in gz.index or j not in gw.index:
            raise ValueError(f"derivative {i}, {j} lies beyond the caps "
                             f"({self.nz}, {self.nw})")
        a, b = gz.index[i], gw.index[j]
        return self.coeffs[..., a, b] * (gz.factorials[a] * gw.factorials[b])

    def truncate(self, nz, nw):
        if nz > self.nz or nw > self.nw:
            raise ValueError("cannot truncate upwards")
        return Jet(self.m, nz, nw, self.coeffs[
            ..., : _group(self.m, nz).size, : _group(self.m, nw).size
        ])

    def shift(self, di, dj):
        """The jet of the derivative (d/dz)^di (d/dwbar)^dj of this function.

        The result is truncated to caps (nz - |di|, nw - |dj|); the caller
        must have computed this jet deep enough.
        """
        di, dj = tuple(di), tuple(dj)
        nz = self.nz - sum(di)
        nw = self.nw - sum(dj)
        if nz < 0 or nw < 0:
            raise ValueError("jet not deep enough for requested derivative")
        sz, fz = _group(self.m, self.nz).shift(di)
        sw, fw = _group(self.m, self.nw).shift(dj)
        coeffs = self.coeffs[..., sz[:, None], sw[None, :]] * (fz[:, None] * fw[None, :])
        return Jet(self.m, nz, nw, coeffs)

    def embed(self, m, offset):
        """The same function of the coordinates offset .. offset + self.m - 1
        of C^m (in both groups), constant in the other coordinates."""
        pz = _group(self.m, self.nz).embed(m, offset)
        pw = _group(self.m, self.nw).embed(m, offset)
        coeffs = np.zeros(self.batch + (_group(m, self.nz).size, _group(m, self.nw).size),
                          dtype=complex)
        coeffs[..., pz[:, None], pw[None, :]] = self.coeffs
        return Jet(m, self.nz, self.nw, coeffs)

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other):
        if (self.m, self.nz, self.nw) != (other.m, other.nz, other.nw):
            raise ValueError("jet shapes differ")

    def __add__(self, other):
        if not isinstance(other, Jet):
            coeffs = self.coeffs.copy()
            coeffs[..., 0, 0] += other
            return self._like(coeffs)
        self._check_compatible(other)
        return self._like(self.coeffs + other.coeffs)

    __radd__ = __add__

    def __neg__(self):
        return self._like(-self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -complex(other))

    def __rsub__(self, other):
        return (-self) + complex(other)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self._like(self.coeffs * complex(other))
        self._check_compatible(other)
        gz, gw = _group(self.m, self.nz), _group(self.m, self.nw)
        return self._like(_convolve(self.coeffs, other.coeffs, gz, gw))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other ** -1
        return self * (1.0 / complex(other))

    def __rtruediv__(self, other):
        return self ** -1 * complex(other)

    def _series_parts(self, what: str):
        """(c0, x) with self = c0 + x: the constant terms and a private copy
        of the coefficients with them zeroed; all must be finite."""
        check_finite(self.coeffs, f"{what} argument")
        c0 = self.value
        x = self.coeffs.copy()
        x[..., 0, 0] = 0
        return c0, x

    def _sum_powers(self, u: "Jet", weights) -> np.ndarray:
        """sum_k weights[k-1] u^k over k = 1 .. nz + nw, the truncation
        order; u has no constant term, so the sum stops once u^k vanishes."""
        acc = np.zeros_like(u.coeffs)
        term = None
        for w in itertools.islice(weights, self.nz + self.nw):
            term = u if term is None else term * u
            if not term.coeffs.any():
                break
            acc += term.coeffs * complex(w)
        return acc

    def __pow__(self, t):
        t = float(t)
        if not math.isfinite(t):
            raise EvaluationError(f"jet power with non-finite exponent {t}")
        c0, x = self._series_parts("pow base")
        _fail_where(c0 == 0, EvaluationError,
                    lambda i: "jet power of a series with zero constant term")
        is_integer = t == int(t)
        if not is_integer:
            _fail_where(c0.real <= 0, BranchError, lambda i: (
                f"pow base has non-positive real part ({complex(c0[i]):.6g}); "
                "principal branch unavailable"
            ))
        with np.errstate(all="ignore"):
            head = c0 ** t if is_integer else np.exp(t * np.log(c0))
            # (c0 + x)^t = c0^t (1 + sum_k binom(t, k) (x/c0)^k), truncated
            x *= (1.0 / c0)[..., None, None]
            binomials = itertools.accumulate(
                ((t - k) / (k + 1) for k in itertools.count()), operator.mul
            )
            out = self._sum_powers(self._like(x), binomials)
            out[..., 0, 0] += 1
            out *= head[..., None, None]
        check_finite(out, "jet power")
        return self._like(out)

    def exp(self):
        c0, x = self._series_parts("exp argument")
        with np.errstate(all="ignore"):
            inverse_factorials = itertools.accumulate(
                (1 / k for k in itertools.count(1)), operator.mul
            )
            out = self._sum_powers(self._like(x), inverse_factorials)
            out[..., 0, 0] += 1
            out *= np.exp(c0)[..., None, None]
        check_finite(out, "jet exp")
        return self._like(out)

    def log(self):
        c0, x = self._series_parts("log argument")
        _fail_where(c0.real <= 0, BranchError, lambda i: (
            f"log base has non-positive real part ({complex(c0[i]):.6g}); "
            "principal branch unavailable"
        ))
        with np.errstate(all="ignore"):
            x *= (1.0 / c0)[..., None, None]
            alternating = ((-1.0) ** (k + 1) / k for k in itertools.count(1))
            out = self._sum_powers(self._like(x), alternating)
            out[..., 0, 0] += np.log(c0)
        check_finite(out, "jet log")
        return self._like(out)


def variable_jets(z, w, m, nz, nw):
    """Seed jets for the coordinates z_1..z_m and wbar_1..wbar_m.

    z and w are points of C^m, or arrays of shape (*batch, m) of them; the
    jets carry that batch shape.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    zv = [Jet.variable_z(k, z[..., k], m, nz, nw) for k in range(m)]
    wv = [Jet.variable_wbar(k, w[..., k], m, nz, nw) for k in range(m)]
    return zv, wv
