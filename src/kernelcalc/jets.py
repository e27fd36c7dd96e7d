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

Shifts and embeddings use index tables that are built on first use and
cached per (m, degree) of one variable group.

A product sums the truncated Leibniz formula (f g)_k = sum x_l y_r over
the pairs (l, r) with l + r = k, for every output monomial k.  pow, exp and
log solve for their series one total degree D = |a| + |b| at a time, by
the Euler-operator recurrences of Taylor arithmetic (Griewank & Walther,
"Evaluating Derivatives", ch. 13).  With g = c0 (1 + x) for pow and log,
g = c0 + x for exp, and x without constant term:

    (1 + x)^t:   D h_D = sum (t |l| - |r|) x_l h_r,    h_0 = 1
    exp(x):      D h_D = sum |l| x_l h_r,              h_0 = 1
    log(1 + x):  D h_D = D x_D - sum |r| x_l h_r,      h_0 = 0

summed over the same pairs for the output monomials of degree D, so each
degree needs only lower ones and the result is exact to the caps.  That is
one pass over the pairs of one product, where summing the powers x, x^2,
... took nz + nw - 1 products.  Both read one pair table per total degree,
flat over the Nz * Nw monomials, int32 indices sorted by output; an
(m, nz, nw) table has C(2m + nz, 2m) * C(2m + nw, 2m) pairs, e.g. 44,100 at
m = 3 and caps (4, 4), 213,444 at (5, 5) and 853,776 at (6, 6).  Tables of
at most `_TABLE_BUDGET` pairs (65,536, about 0.5 MB) are cached; larger
ones are rebuilt on each call, one degree at a time, so they never stay in
memory.  The pairs are applied in runs of at most `_PRODUCT_CHUNK` entries
of the broadcast batch times the pairs, so no temporary spans all pairs
whatever the batch.  At caps (0, 0) there is no pair work at all.

The branch, zero-base and non-finite checks of pow, exp and log are
vectorized: each raises for the first bad batch entry and records its
index as the error's `batch_index`.
"""

from __future__ import annotations

import functools
import math

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


def monomial_index(m: int, n: int) -> dict:
    """{multi-index: position} of the monomials of degree <= n in m
    variables along a coefficient axis (graded lex order); do not modify."""
    return _group(m, n).index


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


def _run_pairs(per_pair: int) -> int:
    """Pairs per run of a product whose pairs each take `per_pair` entries
    of the temporary; a power of two, so that few run tables are cached."""
    return 1 << (max(_PRODUCT_CHUNK // max(per_pair, 1), 1).bit_length() - 1)


def _convolve(x: np.ndarray, y: np.ndarray, m: int, nz: int, nw: int) -> np.ndarray:
    """Truncated Leibniz product of two coefficient arrays (batch broadcast).

    Each output monomial sums x_l y_r over its pairs in the order of the
    per-degree tables, so how the outputs are cut into runs (by size)
    leaves every result unchanged.
    """
    if nz == nw == 0:  # constant jets: no pairs to sum
        return x * y
    batch = np.broadcast_shapes(x.shape[:-2], y.shape[:-2])
    shape = x.shape[-2:]
    flat = (shape[0] * shape[1],)
    x, y = x.reshape(x.shape[:-2] + flat), y.reshape(y.shape[:-2] + flat)
    out = np.empty(batch + flat, dtype=complex)
    for _, runs in _degree_runs(m, nz, nw, _run_pairs(math.prod(batch))):
        for rows, left, right, starts in runs:
            terms = np.take(x, left, axis=-1) * np.take(y, right, axis=-1)
            out[..., rows] = np.add.reduceat(terms, starts, axis=-1)
    return out.reshape(batch + shape)


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

    def derivatives(self) -> np.ndarray:
        """All mixed derivatives (d/dz)^a (d/dwbar)^b at the base point: the
        coefficients times a! b!, shape (*batch, Nz, Nw)."""
        gz, gw = _group(self.m, self.nz), _group(self.m, self.nw)
        return self.coeffs * (gz.factorials[:, None] * gw.factorials[None, :])

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
        return self._like(_convolve(self.coeffs, other.coeffs, self.m, self.nz, self.nw))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other ** -1
        return self * (1.0 / complex(other))

    def __rtruediv__(self, other):
        return self ** -1 * complex(other)

    def _constant(self, what: str):
        """The constant terms c0; all coefficients must be finite."""
        check_finite(self.coeffs, f"{what} argument")
        return self.value

    def _series(self, scale, a: float, b: float, c: float, h0: float) -> np.ndarray:
        """The series h of x = (self - c0) * scale with h_0 = h0 and
        D h_D = c D x_D + sum (a |l| + b |r|) x_l h_r for D = 1 .. nz + nw.

        The sum runs over the pairs (l, r) with l + r of total degree D;
        x has no constant term, so h_D needs only lower degrees.  With
        |r| = D - |l| each term is x_l h_r weighted by ((a - b) |l| + b D) / D.
        """
        h = np.zeros_like(self.coeffs)
        h[..., 0, 0] = h0
        if self.nz == self.nw == 0:
            return h
        x = self.coeffs * scale
        x[..., 0, 0] = 0
        shape = x.shape
        flat = shape[:-2] + (shape[-2] * shape[-1],)
        x, h = x.reshape(flat), h.reshape(flat)
        m, nz, nw = self.m, self.nz, self.nw
        degrees = _total_degrees(m, nz, nw)
        for degree, runs in _degree_runs(m, nz, nw, _run_pairs(math.prod(shape[:-2]))):
            if not degree:  # h_0 is set above
                continue
            weights = degrees * ((a - b) / degree) + b  # one per left monomial
            for out, left, right, starts in runs:
                terms = np.take(x, left, axis=-1)
                terms *= np.take(weights, left)
                terms *= np.take(h, right, axis=-1)
                sums = np.add.reduceat(terms, starts, axis=-1)
                if c:
                    sums += c * x[..., out]
                h[..., out] = sums
        return h.reshape(shape)

    def __pow__(self, t):
        t = float(t)
        if not math.isfinite(t):
            raise EvaluationError(f"jet power with non-finite exponent {t}")
        c0 = self._constant("pow base")
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
            # (c0 + x)^t = c0^t (1 + x/c0)^t
            out = self._series((1.0 / c0)[..., None, None], t, -1.0, 0.0, 1.0)
            out *= head[..., None, None]
        check_finite(out, "jet power")
        return self._like(out)

    def exp(self):
        c0 = self._constant("exp argument")
        with np.errstate(all="ignore"):
            out = self._series(1.0, 1.0, 0.0, 0.0, 1.0)
            out *= np.exp(c0)[..., None, None]
        check_finite(out, "jet exp")
        return self._like(out)

    def log(self):
        c0 = self._constant("log argument")
        _fail_where(c0.real <= 0, BranchError, lambda i: (
            f"log base has non-positive real part ({complex(c0[i]):.6g}); "
            "principal branch unavailable"
        ))
        with np.errstate(all="ignore"):
            # log(c0 + x) = log(c0) + log(1 + x/c0)
            out = self._series((1.0 / c0)[..., None, None], 0.0, -1.0, 1.0, 0.0)
            out[..., 0, 0] += np.log(c0)
        check_finite(out, "jet log")
        return self._like(out)


# -- per-degree pair tables of products and series ---------------------------

#: pairs in one (m, nz, nw) pair table that may be cached (about 0.5 MB);
#: a larger table is rebuilt on each call, one total degree at a time
_TABLE_BUDGET = 1 << 16


def _degree_tables(m: int, nz: int, nw: int):
    """Yield (D, out, left, right, starts) for each total degree D = 0 .. nz + nw.

    Positions are flattened, i * Nw + j for z-monomial i and w-monomial j.
    `out` holds the output monomials of degree D; `left` and `right` list,
    for each output in turn, every pair of monomials whose product it is
    (z pair major), and `starts` is where each output's pairs begin.  An
    output's pairs are the z pairs of its z part times the w pairs of its w
    part, so the tables are built one block of degrees (dz, D - dz) at a
    time from the group tables.
    """
    gz, gw = _group(m, nz), _group(m, nw)
    groups = []
    for g in (gz, gw):
        left, right, starts = g.pairs
        bounds = np.r_[starts, len(left)]
        product = np.repeat(np.arange(g.size, dtype=np.int32), np.diff(bounds))
        first = np.searchsorted([sum(a) for a in g.tuples], np.arange(g.n + 2))
        groups.append((left.astype(np.int32), right.astype(np.int32), product,
                       bounds, np.diff(bounds), first))
    (zl, zr, zk, zb, zlen, zfirst), (wl, wr, wk, wb, wlen, wfirst) = groups
    nw_size = np.int32(gw.size)
    for degree in range(nz + nw + 1):
        outs, lefts, rights, counts = [], [], [], []
        for dz in range(max(0, degree - nw), min(nz, degree) + 1):
            kz = slice(zfirst[dz], zfirst[dz + 1])
            kw = slice(wfirst[degree - dz], wfirst[degree - dz + 1])
            pz, pw = slice(zb[kz.start], zb[kz.stop]), slice(wb[kw.start], wb[kw.stop])
            order = np.argsort((zk[pz, None] * nw_size + wk[pw]).ravel(), kind="stable")
            lefts.append((zl[pz, None] * nw_size + wl[pw]).ravel()[order])
            rights.append((zr[pz, None] * nw_size + wr[pw]).ravel()[order])
            outs.append((np.arange(kz.start, kz.stop)[:, None] * gw.size
                         + np.arange(kw.start, kw.stop)).ravel())
            counts.append(np.multiply.outer(zlen[kz], wlen[kw]).ravel())
        counts = np.concatenate(counts)
        yield (degree, np.concatenate(outs), np.concatenate(lefts),
               np.concatenate(rights), np.cumsum(counts) - counts)


def _runs(out, left, right, starts, max_pairs: int) -> list:
    """The table of one degree cut into runs of consecutive outputs,
    (out, left, right, starts) each, with at most `max_pairs` pairs per run
    unless one output alone has more."""
    bounds = np.r_[starts, len(left)]
    runs, k0 = [], 0
    while k0 < len(out):
        k1 = max(int(np.searchsorted(bounds, bounds[k0] + max_pairs, "right")) - 1, k0 + 1)
        s0, s1 = bounds[k0], bounds[k1]
        runs.append((out[k0:k1], left[s0:s1], right[s0:s1], starts[k0:k1] - s0))
        k0 = k1
    return runs


@functools.cache
def _cached_tables(m: int, nz: int, nw: int) -> list:
    return list(_degree_tables(m, nz, nw))


@functools.cache
def _cached_runs(m: int, nz: int, nw: int, max_pairs: int) -> list:
    return [(degree, _runs(*table, max_pairs))
            for degree, *table in _cached_tables(m, nz, nw)]


def _degree_runs(m: int, nz: int, nw: int, max_pairs: int):
    """(D, runs) per total degree: cached while the table fits the budget,
    else built as it is consumed."""
    pairs = len(_group(m, nz).pairs[0]) * len(_group(m, nw).pairs[0])
    if pairs <= _TABLE_BUDGET:
        return _cached_runs(m, nz, nw, max_pairs)
    return ((degree, _runs(*table, max_pairs))
            for degree, *table in _degree_tables(m, nz, nw))


@functools.cache
def _total_degrees(m: int, nz: int, nw: int) -> np.ndarray:
    """|a| + |b| of every flattened monomial (a, b)."""
    dz = np.array([sum(a) for a in _group(m, nz).tuples], dtype=float)
    dw = np.array([sum(b) for b in _group(m, nw).tuples], dtype=float)
    return (dz[:, None] + dw).ravel()


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


def coordinate_products(z, w, m, nz, nw, i, j) -> Jet:
    """The jets of z_i wbar_j for index arrays i and j of one shape S:
    batch (*batch, *S).

    z and w are as for `variable_jets`.  The coefficients are filled in
    directly: the constant z_i conj(w_j), the z-linear term wbar_j at e_i,
    the wbar-linear term z_i at e_j and 1 at (e_i, e_j); nothing else is
    nonzero.  The values equal the products of the `variable_jets` seeds.
    """
    zi = np.asarray(z, dtype=complex)[..., i]
    wj = np.conj(np.asarray(w, dtype=complex))[..., j]
    value = zi * wj
    if nz == nw == 0:
        return Jet(m, 0, 0, value[..., None, None])
    coeffs = np.zeros(value.shape + (_group(m, nz).size, _group(m, nw).size), dtype=complex)
    coeffs[..., 0, 0] = value
    # one axis over the products; graded lex order puts e_k at position 1 + k
    flat = coeffs.reshape(value.shape[: value.ndim - i.ndim] + (i.size,) + coeffs.shape[-2:])
    each, i, j = np.arange(i.size), 1 + i.ravel(), 1 + j.ravel()
    if nz >= 1:
        flat[..., each, i, 0] = wj.reshape(flat.shape[:-2])
    if nw >= 1:
        flat[..., each, 0, j] = zi.reshape(flat.shape[:-2])
    if nz >= 1 and nw >= 1:
        flat[..., each, i, j] = 1.0
    return Jet(m, nz, nw, coeffs)
