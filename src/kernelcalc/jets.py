"""Truncated multivariate Taylor (jet) arithmetic on dense, batched arrays.

A Jet holds the Taylor coefficients of a function of two groups of complex
variables: m "holomorphic" slots z and m "anti-holomorphic" slots wbar.  One
truncation cap n bounds both groups: coefficients are kept for multi-index
pairs (a, b) with |a| <= n and |b| <= n.  Coefficients are Taylor-normalized,
i.e. coeff(a, b) = (mixed partial derivative) / (a! b!).

The coefficients form a complex array of shape (*batch, N, N), where N
counts the monomials of degree <= n of one group in graded lex order
(`graded_lex_tuples`), so truncating a jet is a slice.  The batch axes hold
independent expansions (all pairs of a Gram matrix, the nodes of a
finite-difference grid, the entries of a matrix kernel) and broadcast like
numpy arrays.  Every operation acts on each batch entry alone, so a batched
result equals the one-entry results bit for bit, except where an entry
that is balanced on its own sits in a batch that is not (below).

`Jet.shifts` gathers a whole matrix of derivative jets, (d/dz)^i
(d/dwbar)^j for i and j of one index list, at once; the log-Hessian and
the jet kernel are both such matrices.  Shifts and embeddings use index
tables that are built on first use and cached per variable group
(m, degree), shifts also per index list and output degree.

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
degree needs only lower ones and the result is exact to the cap.  That is
one pass over the pairs of one product, where summing the powers x, x^2,
... took 2n - 1 products.  Both sum their pairs in one loop, `_pair_sums`,
over one flat pair table (`_pair_table`) of the N * N monomials, int32
indices sorted by output, the outputs in degree order; an (m, n) table has
C(2m + n, 2m)^2 pairs, e.g. 44,100 at m = 3 and cap 4, 213,444 at cap 5
and 853,776 at cap 6.  A table is filled on first use without sorting, by
index arithmetic over the group's pair runs, for z and for wbar, in
chunks of `_FILL_CHUNK` pairs, so that a build peaks at about 1.1 times
the table's bytes.  It owns its cuts into runs, per degree (for pow, exp
and log) and across degrees (a product needs no degree order: it reads
the whole table in one pass), made on first use, so one
least-recently-used cache of `_KEPT_TABLES` tables keeps a cut as long as
its table.  A cut's pairs are views of the table's, so a kept
table takes about 8 bytes per pair however many cuts read it.  The pairs
are applied in runs of at most `_PRODUCT_CHUNK` entries of the broadcast
batch times the pairs, so no temporary spans all pairs whatever the
batch.  At cap 0 there is no pair work.  A table of more than
`MAX_TABLE_PAIRS` = 2^27 pairs is refused with a ValueError, its count read
off the group's pair runs before any array of its size is made.

Each run is summed by one np.add.reduceat, except where every output of
the run has the same count l <= 4 of pairs (`_runs` records it as the
run's `slots`) and the run has at least `_SLOT_TERMS` terms over the
batch, as the cap-1 series of a Gram or a derivative torus do.  There
l - 1 strided adds sum it, grouped as reduceat groups a complex
segment that short, t0 + ((t1 + t2) + t3), t0 + (t1 + t2) and t0 + t1, so
the sums are reduceat's bit for bit, signed zeros included.  From l = 5
numpy sums the terms after t0 in pairwise blocks, (t1 + t2) + (t3 + t4),
and longer runs would have to copy its block rule, so they stay on
reduceat, as do runs of mixed counts and small runs, where one reduceat
call costs less than the adds.

Balanced jets.  At the origin a circular kernel has coefficients only at
|a| = |b|.  A product or series reads this off its inputs (the first
batch entry alone first): if every other coefficient (the group's
`off_balance`) is exactly 0 (NaN is not) in every batch entry, it reads
tables of the balanced outputs and pairs only, built from the (d, d)
blocks (at m = 3 and cap 9, 860k of the full table's 25M pairs), and
leaves the other outputs +0.0.  Only exact zeros are dropped, so the
results equal the full tables' up to the sign of a zero and an ulp where
numpy's pairwise sum regroups a run of 8 or more terms; a balanced entry
of a batch that is not balanced can move by such an ulp too.

The branch, zero-base and non-finite checks of pow, exp and log are
vectorized: each raises for the first bad batch entry and records its
index as the error's `batch_index`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import BranchError, EvaluationError
from .geometry import graded_lex_tuples


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
    def degrees(self) -> np.ndarray:
        """|a| of each monomial a."""
        return np.array([sum(a) for a in self.tuples], dtype=np.int32)

    @functools.cached_property
    def off_balance(self) -> np.ndarray:
        """The flattened positions of the coefficients (a, b) with |a| != |b|."""
        return np.flatnonzero(self.degrees[:, None] != self.degrees)

    @functools.cache
    def shifts(self, indices: tuple, n: int) -> tuple:
        """(source, factor) of the derivatives d/dz^d for d in `indices`,
        (len(indices), N_n) each: output monomial a of degree <= n (at most
        self.n - |d|) reads monomial a + d, times (a + d)! / a!."""
        out = _group(self.m, n)
        source = np.array([[self.index[tuple(x + y for x, y in zip(a, d))] for a in out.tuples]
                           for d in indices], dtype=np.intp)
        return source, self.factorials[source] / out.factorials

    @functools.cached_property
    def pair_arrays(self) -> tuple:
        """The group's one pair table: int32 columns (left, right, product, left
        degree) of the pairs whose product has degree <= n, sorted by product
        (each monomial a run, its pairs by left and then right monomial).

        A monomial a is coded as sum a_i (n + 1)^i; no exponent of a product
        of degree <= n exceeds n, so a code sum is the product's code.  The
        pairs are listed left major, and one stable sort by product orders
        them."""
        m, n, degrees = self.m, self.n, self.degrees
        dtype = np.int64 if (n + 1) ** m < 1 << 63 else object  # past int64, Python ints
        codes = np.array(self.tuples, dtype=dtype) @ np.array([(n + 1) ** i for i in range(m)],
                                                              dtype=dtype)
        left, right = np.nonzero(degrees[:, None] + degrees <= n)
        by_code = np.argsort(codes)
        product = by_code[np.searchsorted(codes[by_code], codes[left] + codes[right])]
        order = np.argsort(product, kind="stable")
        left, right, product = (col[order].astype(np.int32) for col in (left, right, product))
        return left, right, product, degrees[left]

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


def monomial_positions(m: int, n: int, i, j) -> tuple:
    """Positions (a, b) of the multi-indices i and j along the coefficient
    axes of cap n; a ValueError names the caps of both groups beyond them."""
    i, j = tuple(i), tuple(j)
    index = _group(m, n).index
    if i not in index or j not in index:
        raise ValueError(f"derivative {i}, {j} lies beyond the caps ({n}, {n})")
    return index[i], index[j]


def _fail_where(mask, error, message):
    """Raise `error` for the first batch entry where `mask` holds; `message`
    maps that entry's batch index (a tuple) to the error text.  The one
    search for a failing entry of every batched refusal."""
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


def _balanced(coeffs: np.ndarray, m: int, n: int) -> bool:
    """Whether every coefficient (a, b) with |a| != |b| is exactly 0, in
    every batch entry.  The first entry is counted alone first, since a
    batch off the origin fails there already."""
    off = _group(m, n).off_balance
    entries = coeffs.reshape(-1, coeffs.shape[-2] * coeffs.shape[-1])
    if np.count_nonzero(entries[:1].take(off, axis=-1)):
        return False
    return len(entries) < 2 or not np.count_nonzero(entries[1:].take(off, axis=-1))


#: the most pairs per output that `_slot_sums` adds; from 5 terms on,
#: np.add.reduceat sums a complex segment in pairwise blocks
_SLOT_PAIRS = 4
#: the fewest terms of a run that `_slot_sums` adds: below about this many,
#: one reduceat call costs less than the slot adds' 2-3 calls
_SLOT_TERMS = 512


def _slot_sums(terms: np.ndarray, slots: int) -> np.ndarray:
    """np.add.reduceat of `terms` over consecutive segments of `slots` <=
    `_SLOT_PAIRS` terms, bit for bit, signed zeros included: reduceat adds
    t1, t2, t3 in turn onto -0.0 and then that sum onto t0, so a segment is
    t0 + ((t1 + t2) + t3), t0 + (t1 + t2) or t0 + t1."""
    t = terms.reshape(terms.shape[:-1] + (terms.shape[-1] // slots, slots))
    if slots == 1:
        return t[..., 0]
    if slots == 2:
        return t[..., 0] + t[..., 1]
    rest = t[..., 1] + t[..., 2]
    if slots == 4:
        rest += t[..., 3]
    return np.add(t[..., 0], rest, out=rest)


def _pair_sums(x: np.ndarray, y: np.ndarray, runs, weights=None):
    """Yield (rows, sums) per run: sum x_l y_r (times weights[l], if given)
    over the pairs (l, r) of each output in rows, in table order.  The
    weights multiply x once per monomial, not once per pair: each term is
    still fl(x_l w_l) y_r.  y is read when a run starts, after the caller
    has stored the runs before it.  A run whose outputs share a pair count
    of at most `_SLOT_PAIRS` (`slots`) and that has at least `_SLOT_TERMS`
    terms is summed by slot adds, the others by np.add.reduceat."""
    if weights is not None:
        x = x * weights
    for rows, left, right, starts, slots in runs:
        terms = x.take(left, axis=-1) * y.take(right, axis=-1)
        if slots and terms.size >= _SLOT_TERMS:
            yield rows, _slot_sums(terms, slots)
        else:
            yield rows, np.add.reduceat(terms, starts, axis=-1)


def _convolve(x: np.ndarray, y: np.ndarray, m: int, n: int) -> np.ndarray:
    """Truncated Leibniz product of two coefficient arrays (batch broadcast);
    of balanced factors only the balanced outputs are summed, the others 0."""
    if n == 0:  # constant jets: no pairs to sum
        return x * y
    balanced = _balanced(x, m, n) and _balanced(y, m, n)
    batch = np.broadcast_shapes(x.shape[:-2], y.shape[:-2])
    shape = x.shape[-2:]
    flat = (shape[0] * shape[1],)
    x, y = x.reshape(x.shape[:-2] + flat), y.reshape(y.shape[:-2] + flat)
    out = (np.zeros if balanced else np.empty)(batch + flat, dtype=complex)
    runs = _pair_table(m, n, balanced).runs(_run_pairs(math.prod(batch)), False)
    for rows, sums in _pair_sums(x, y, runs):
        out[..., rows] = sums
    return out.reshape(batch + shape)


class Jet:
    """Truncated Taylor expansions in m + m variables (z-group, wbar-group),
    one per entry of the batch shape `coeffs.shape[:-2]`."""

    __slots__ = ("m", "n", "coeffs")

    def __init__(self, m: int, n: int, coeffs: np.ndarray):
        self.m = m
        self.n = n
        self.coeffs = coeffs

    def _like(self, coeffs) -> "Jet":
        """A jet of this cap."""
        return Jet(self.m, self.n, coeffs)

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value, m, n):
        """The constant `value` (a number or an array of the batch shape)."""
        value = np.asarray(value, dtype=complex)
        coeffs = np.zeros(value.shape + (_group(m, n).size,) * 2, dtype=complex)
        coeffs[..., 0, 0] = value
        return cls(m, n, coeffs)

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
        coefficients times a! b!, shape (*batch, N, N)."""
        factorials = _group(self.m, self.n).factorials
        return self.coeffs * (factorials[:, None] * factorials[None, :])

    def truncate(self, n):
        if n > self.n:
            raise ValueError("cannot truncate upwards")
        size = _group(self.m, n).size
        return Jet(self.m, n, self.coeffs[..., :size, :size])

    def shifts(self, indices):
        """The jets of (d/dz)^indices[p] (d/dwbar)^indices[q] of this function
        in one gather: batch (*batch, len(indices), len(indices)), cap n - max
        |indices[p]|, which must not be negative."""
        indices = tuple(map(tuple, indices))
        n = self.n - max(map(sum, indices))
        if n < 0:
            raise ValueError("jet not deep enough for requested derivative")
        source, factor = _group(self.m, self.n).shifts(indices, n)
        coeffs = self.coeffs[..., source[:, None, :, None], source[None, :, None, :]]
        return Jet(self.m, n, coeffs * (factor[:, None, :, None] * factor[None, :, None, :]))

    def embed(self, m, offset):
        """The same function of the coordinates offset .. offset + self.m - 1
        of C^m (in both groups), constant in the other coordinates."""
        at = _group(self.m, self.n).embed(m, offset)
        coeffs = np.zeros(self.batch + (_group(m, self.n).size,) * 2, dtype=complex)
        coeffs[..., at[:, None], at[None, :]] = self.coeffs
        return Jet(m, self.n, coeffs)

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other):
        if (self.m, self.n) != (other.m, other.n):
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
        return self._like(_convolve(self.coeffs, other.coeffs, self.m, self.n))

    __rmul__ = __mul__

    def _constant(self, what: str):
        """The constant terms c0; all coefficients must be finite."""
        check_finite(self.coeffs, f"{what} argument")
        return self.value

    def _series(self, inverse: bool, a: float, b: float, c: float, h0: complex) -> np.ndarray:
        """The series h of x = (self - c0) / c0 (self - c0 unless `inverse`)
        with h_0 = h0 and
        D h_D = c D x_D + sum (a |l| + b |r|) x_l h_r for D = 1 .. 2n.

        The sum runs over the pairs (l, r) with l + r of total degree D;
        x has no constant term, so h_D needs only lower degrees.  With
        |r| = D - |l| each term is x_l h_r weighted by ((a - b) |l| + b D) / D.
        Of a balanced x only the balanced outputs are summed.
        """
        h = np.zeros_like(self.coeffs)
        h[..., 0, 0] = h0
        if self.n == 0:
            return h
        x = self.coeffs * ((1.0 / self.value)[..., None, None] if inverse else 1.0)
        x[..., 0, 0] = 0
        table = _pair_table(self.m, self.n, _balanced(x, self.m, self.n))
        shape = x.shape
        flat = shape[:-2] + (shape[-2] * shape[-1],)
        x, h = x.reshape(flat), h.reshape(flat)
        cut = table.runs(_run_pairs(math.prod(flat[:-1])), True)
        for (degree, _, _), runs in zip(table.degrees, cut):
            if not degree:  # h_0 is set above
                continue
            # one weight per left monomial
            for rows, sums in _pair_sums(x, h, runs, table.totals * ((a - b) / degree) + b):
                if c:
                    sums += c * x[..., rows]
                h[..., rows] = sums
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
            out = self._series(True, t, -1.0, 0.0, 1 + 0j) * head[..., None, None]
        check_finite(out, "jet power")
        return self._like(out)

    def exp(self):
        c0 = self._constant("exp")
        with np.errstate(all="ignore"):
            out = self._series(False, 1.0, 0.0, 0.0, 1 + 0j) * np.exp(c0)[..., None, None]
        check_finite(out, "jet exp")
        return self._like(out)

    def log(self):
        c0 = self._constant("log")
        _fail_where(c0.real <= 0, BranchError, lambda i: (
            f"log base has non-positive real part ({complex(c0[i]):.6g}); "
            "principal branch unavailable"
        ))
        with np.errstate(all="ignore"):
            # log(c0 + x) = log(c0) + log(1 + x/c0)
            out = self._series(True, 0.0, -1.0, 1.0, 0j)
            out[..., 0, 0] += np.log(c0)
        check_finite(out, "jet log")
        return self._like(out)


# -- the pair tables of products and series ----------------------------------

#: (m, n, balanced) pair tables kept, least recently used first out, each
#: with its own run cuts; over the 16 rounds of seed 41 `scan` reads 3 tables
#: and 3 cuts, `certify` 2 and 3, `crosscheck` 7 and 14, `sections` 11 and 16
_KEPT_TABLES = 32


#: pairs filled per chunk of a pair table, so that a build holds no
#: temporary of the table's size
_FILL_CHUNK = 1 << 16

#: most pairs of one pair table, 1 GiB of int32 left and right columns
MAX_TABLE_PAIRS = 1 << 27


class _PairTable:
    """The pairs of every total degree D = 0 .. 2n in one flat table,
    `degrees`, `out`, `left`, `right` and `bounds`, with its cuts into runs
    (`runs`) and |a| + |b| of each flattened monomial (a, b), `totals`.

    Positions are flattened, i * N + j for z-monomial i and w-monomial j.
    `out` holds the outputs by total degree, then z and w monomial, and
    `degrees` lists (D, k0, k1) for each degree present: its outputs are
    out[k0:k1].  Output k's pairs, bounds[k]:bounds[k + 1] of `left` and
    `right`, are the z pairs of its z part (a run of `_Group.pair_arrays`)
    times the w pairs of its w part, z pair major.  Such blocks are written
    in table order by index arithmetic over the two runs, in chunks of
    about `_FILL_CHUNK` pairs, straight into the table: nothing is sorted.

    A balanced table keeps only the outputs with |a| = |b| and, of their
    pairs, those whose left monomial (and so the right one) is balanced
    too, in the same order; so it has no odd degree.  A run is sorted by
    left monomial, so by left degree e, and output (a, b) is the blocks of
    the z and w pairs of left degree e = 0 .. |a|.
    """

    def __init__(self, m: int, n: int, balanced: bool):
        group = _group(m, n)
        pair_left, pair_right, product, left_degree = group.pair_arrays
        # a full table pairs all group pairs, a balanced one those of a (degree, left degree)
        runs = np.bincount(group.degrees[product] * (n + 1) + left_degree).tolist()
        count = sum(c * c for c in runs) if balanced else len(pair_left) ** 2
        if count > MAX_TABLE_PAIRS:
            raise ValueError(f"a jet of {m} variables at cap {n} needs a table of {count} "
                             f"pairs, over the bound of {MAX_TABLE_PAIRS}")
        size = group.size
        totals = (group.degrees[:, None] + group.degrees).ravel().astype(float)
        out = (np.flatnonzero(group.degrees[:, None] == group.degrees) if balanced
               else np.arange(size * size))
        out = out[np.argsort(totals[out], kind="stable")]
        at = np.searchsorted(totals[out], np.arange(2 * n + 2)).tolist()
        degrees = [(d, at[d], at[d + 1]) for d in range(2 * n + 1) if at[d] < at[d + 1]]
        # the group's pairs are sorted by product k, then left degree e: those of
        # (k, e) start at sub[k (n + 1) + e]
        sub = np.searchsorted(product * np.int64(n + 1) + left_degree,
                              np.arange(size * (n + 1) + 1))
        # the blocks: per output, its one pair of runs, or one per left degree e
        kz, kw = np.divmod(out, size)
        per = group.degrees[kz] + 1 if balanced else np.ones_like(kz)
        e = np.arange(per.sum()) - np.repeat(np.cumsum(per) - per, per)
        zc, wc = np.repeat(kz * (n + 1), per) + e, np.repeat(kw * (n + 1), per) + e
        zs, ws = sub[zc], sub[wc]
        step = 1 if balanced else n + 1
        height, width = sub[zc + step] - zs, sub[wc + step] - ws
        ends = np.cumsum(height * width)
        starts = ends - height * width
        bounds = np.append(starts[np.cumsum(per) - per], ends[-1])
        left, right = np.empty(ends[-1], dtype=np.int32), np.empty(ends[-1], dtype=np.int32)
        cuts = [0, *(np.flatnonzero(np.diff(starts // _FILL_CHUNK)) + 1).tolist(), len(starts)]
        for b0, b1 in zip(cuts, cuts[1:]):
            # rows: z pair p against the width w pairs from ws of its block, pairs q
            h, w = height[b0:b1], width[b0:b1]
            p = np.arange(h.sum()) - np.repeat(np.cumsum(h) - h - zs[b0:b1], h)
            row_width = np.repeat(w, h)
            q = np.repeat(np.cumsum(row_width) - row_width - np.repeat(ws[b0:b1], h), row_width)
            np.subtract(np.arange(len(q)), q, out=q)
            for column, table in ((pair_left, left), (pair_right, right)):
                chunk = table[starts[b0]:ends[b1 - 1]]
                np.take(column, q, out=chunk, mode="wrap")  # q is in range: no buffered copy
                chunk += np.repeat(column[p] * np.int32(size), row_width)
        self.degrees, self.out, self.left, self.right = degrees, out, left, right
        self.bounds, self.totals, self._cuts = bounds, totals, {}

    def runs(self, max_pairs: int, by_degree: bool) -> list:
        """The outputs cut into runs of at most `max_pairs` pairs by `_runs`,
        on first use, and kept: the runs of each degree of `degrees`, for pow,
        exp and log, or else the runs of the whole table, for a product."""
        key = max_pairs, by_degree
        if key not in self._cuts:
            cuts = _runs(self, [k1 for *_, k1 in self.degrees] if by_degree else [len(self.out)],
                         max_pairs)
            self._cuts.setdefault(key, cuts if by_degree else cuts[0])
        return self._cuts[key]


#: the one cache of pair tables; a table's cuts and totals live and die with
#: it, and each use refreshes its entry
_pair_table = functools.lru_cache(maxsize=_KEPT_TABLES)(_PairTable)


def _runs(table: _PairTable, ends: list, max_pairs: int) -> list:
    """A pair table's outputs cut into runs of consecutive outputs, one list
    of runs up to each of `ends` from the one before.  A run is (rows, left,
    right, starts, slots) with at most `max_pairs` pairs, unless one output
    alone has more: `rows` its outputs, a slice where equally spaced;
    `left`, `right` and `starts` views of the table's pairs and of one array
    of first pairs, counted from the run's; `slots` the pair count that all
    its outputs share if at most `_SLOT_PAIRS`, else 0.  Each run's end is
    one search; the rest are segment reductions over all runs at once."""
    out, left, right, bounds = table.out, table.left, table.right, table.bounds
    cut, per_end = [0], []
    for end in ends:
        while cut[-1] < end:
            k = cut[-1]
            reach = int(bounds.searchsorted(bounds[k] + max_pairs, "right")) - 1
            cut.append(min(max(reach, k + 1), end))
        per_end.append(len(cut) - 1)
    first, last = np.array(cut[:-1]), np.array(cut[1:])
    count = bounds[first + 1] - bounds[first]
    slots = np.where(_all_equal(np.diff(bounds), first) & (count <= _SLOT_PAIRS), count, 0)
    # each run's steps between its outputs as one segment: the step past its last
    # output is set to its first one (to 1 for a run of one output)
    step = np.empty_like(out)
    np.subtract(out[1:], out[:-1], out=step[:-1])
    step[last - 1] = np.where(last - first > 1, step[first], 1)
    even = _all_equal(step, first) & (step[first] > 0)
    step = step[first]
    starts = np.repeat(bounds[first], last - first)
    np.subtract(bounds[:-1], starts, out=starts)
    b = bounds[cut].tolist()
    runs = [(slice(lo, hi + 1, st) if ev else out[k:k_next], left[s0:s1], right[s0:s1],
             starts[k:k_next], slot)
            for k, k_next, s0, s1, lo, hi, st, ev, slot in zip(
                cut, cut[1:], b, b[1:], out[first].tolist(), out[last - 1].tolist(),
                step.tolist(), even.tolist(), slots.tolist())]
    return [runs[i:j] for i, j in zip([0] + per_end, per_end)]


def _all_equal(values: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Whether each segment first[i]:first[i + 1] of values is constant."""
    return np.minimum.reduceat(values, first) == np.maximum.reduceat(values, first)


def variable_jets(z, w, m, nz, nw):
    """Seed jets for the coordinates z_1..z_m and wbar_1..wbar_m, at the one
    cap nz = nw; unequal caps raise a ValueError naming both.

    z and w are points of C^m, or arrays of shape (*batch, m) of them; the
    jets carry that batch shape.  Graded lex order puts e_k at position 1 + k.
    """
    if nz != nw:
        raise ValueError(f"a jet has one cap for z and wbar, got {nz} and {nw}")
    z, wbar = np.asarray(z, dtype=complex), np.conj(np.asarray(w, dtype=complex))
    zv = [Jet.constant(z[..., k], m, nz) for k in range(m)]
    wv = [Jet.constant(wbar[..., k], m, nz) for k in range(m)]
    if nz >= 1:
        for k in range(m):
            zv[k].coeffs[..., 1 + k, 0] = 1.0
            wv[k].coeffs[..., 0, 1 + k] = 1.0
    return zv, wv


def coordinate_products(z, w, m, n, i, j) -> Jet:
    """The jets of z_i wbar_j for index arrays i and j of one shape S:
    batch (*batch, *S).

    z and w are as for `variable_jets`.  The coefficients are filled in
    directly, by indexing: the constant z_i conj(w_j), the z-linear term
    wbar_j at e_i, the wbar-linear term z_i at e_j and 1 at (e_i, e_j);
    nothing else is nonzero.  The values equal the products of the
    `variable_jets` seeds.
    """
    i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
    zi = np.asarray(z, dtype=complex)[..., i]
    wj = np.conj(np.asarray(w, dtype=complex))[..., j]
    value = zi * wj
    if n == 0:  # a constant: the value alone
        return Jet(m, 0, value[..., None, None])
    coeffs = np.zeros(value.shape + (_group(m, n).size,) * 2, dtype=complex)
    coeffs[..., 0, 0] = value
    # one axis over the products; graded lex order puts e_k at position 1 + k
    flat = coeffs.reshape(value.shape[: value.ndim - i.ndim] + (i.size,) + coeffs.shape[-2:])
    each, i, j = np.arange(i.size), 1 + i.ravel(), 1 + j.ravel()
    flat[..., each, i, 0] = wj.reshape(flat.shape[:-2])
    flat[..., each, 0, j] = zi.reshape(flat.shape[:-2])
    flat[..., each, i, j] = 1.0
    return Jet(m, n, coeffs)
