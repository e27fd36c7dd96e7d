import cmath
import importlib.util
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernelcalc import jets
from kernelcalc.errors import BranchError
from kernelcalc.expr import BallPower, Product, SzegoDisc
from kernelcalc.geometry import graded_lex_tuples, unit_index
from kernelcalc.jets import Jet, coordinate_products, variable_jets
from oracles import (convolve_separable, exp_by_powers, full_tables, log_by_powers,
                     pair_table_by_blocks, pair_table_by_sorting, pow_by_powers, runs_by_search)


def test_variable_jets_track_the_base_point():
    (z1,), (w1,) = variable_jets([0.3], [0.2], 1, 2, 2)
    assert z1.value == pytest.approx(0.3)
    assert z1.derivatives()[1, 0] == pytest.approx(1.0)
    assert z1.derivatives()[0, 1] == 0
    assert w1.value == pytest.approx(0.2)  # conjugate of w = 0.2


@pytest.mark.parametrize("nz, nw", [(2, 1), (0, 3)])
def test_variable_jets_refuse_unequal_caps(nz, nw):
    with pytest.raises(ValueError, match=f"one cap for z and wbar, got {nz} and {nw}$"):
        variable_jets([0.3], [0.2], 1, nz, nw)


def test_product_derivatives_match_hand_calculation():
    # f = z^2 wbar at (z, wbar) = (0.5, 0.25): d2/dz2 dbar = 2
    (z,), (w,) = variable_jets([0.5], [0.25], 1, 2, 2)
    f = z * z * w
    assert f.value == pytest.approx(0.0625)
    assert f.derivatives()[2, 1] == pytest.approx(2.0)
    assert f.derivatives()[1, 1] == pytest.approx(2 * 0.5)
    assert f.derivatives()[2, 0] == pytest.approx(2 * 0.25)


def test_reciprocal_series_oracle():
    # 1/(1 - z wbar) has Taylor coefficients (z wbar)^n
    (z,), (w,) = variable_jets([0.0], [0.0], 1, 3, 3)
    f = (Jet.constant(1.0, 1, 3) - z * w) ** -1
    for n in range(4):
        fact = math.factorial(n) ** 2
        assert f.derivatives()[n, n] == pytest.approx(fact)


def test_pow_matches_binomial_series():
    t = 0.7
    (z,), (w,) = variable_jets([0.0], [0.0], 1, 3, 3)
    f = (Jet.constant(1.0, 1, 3) + z * w) ** t
    # (1+u)^t = sum binom(t, n) u^n
    coef = 1.0
    for n in range(4):
        fact = math.factorial(n) ** 2
        assert f.derivatives()[n, n] == pytest.approx(coef * fact)
        coef *= (t - n) / (n + 1)


def test_exp_log_inverse_pair():
    (z,), (w,) = variable_jets([0.2], [0.1], 1, 2, 2)
    f = Jet.constant(2.0, 1, 2) + z + w * z
    g = f.log().exp()
    for c, d in zip(f.coeffs.ravel(), g.coeffs.ravel()):
        assert d == pytest.approx(c)


def test_log_requires_right_half_plane_value():
    bad = Jet.constant(-1.0, 1, 2)
    with pytest.raises(BranchError):
        bad.log()


def test_non_integer_power_requires_right_half_plane():
    bad = Jet.constant(-2.0, 1, 1)
    assert (bad ** 2).value == pytest.approx(4.0)  # integer powers are fine
    with pytest.raises(BranchError):
        bad ** 0.5


def test_a_jet_times_its_reciprocal_is_one():
    (z,), (w,) = variable_jets([0.3], [0.4], 1, 2, 2)
    num = z * w + Jet.constant(1.0, 1, 2)
    f = num * num ** -1
    assert f.value == pytest.approx(1.0)
    assert abs(f.derivatives()[1, 1]) < 1e-12


def test_shift_produces_the_derivative_jet():
    (z,), (w,) = variable_jets([0.0], [0.0], 1, 3, 3)
    f = (Jet.constant(1.0, 1, 3) - z * w) ** -1
    g = f.shifts([(1,)])  # d/dz dbar/dwbar of the series
    # d/dz d/dwbar 1/(1-z wbar) at 0 = 1
    assert g.value == pytest.approx(1.0)
    assert g.derivatives()[..., 1, 1] == pytest.approx(4.0)  # n=2 coeff: 2!2!/(1!1!)


@given(
    st.floats(0.5, 3.0),
    st.floats(-0.4, 0.4),
    st.floats(-0.4, 0.4),
)
def test_exp_of_log_is_identity_for_positive_jets(c, a, b):
    (z,), (w,) = variable_jets([0.1], [0.2], 1, 2, 2)
    f = Jet.constant(c, 1, 2) + z * a + w * (b * 1j)
    g = f.log().exp()
    for v, d in zip(f.coeffs.ravel(), g.coeffs.ravel()):
        assert d == pytest.approx(v, abs=1e-12)


def test_multivariate_mixed_partials():
    # f = (z1 + 2 z2) * conj(w2), m = 2
    (z1, z2), (w1, w2) = variable_jets([0.1, 0.2], [0.3, 0.4], 2, 1, 1)
    f = (z1 + z2 * 2.0) * w2
    d = f.derivatives()  # rows and columns (0, 0), (1, 0), (0, 1)
    assert d[1, 2] == pytest.approx(1.0)
    assert d[2, 2] == pytest.approx(2.0)
    assert d[0, 1] == 0


# -- brute-force reference: jets as {(a, b): coefficient} dicts -------------


def _to_dict(coeffs, m, n):
    """One batch entry's coefficient array as a multi-index dict."""
    ts = graded_lex_tuples(m, n)
    return {(a, b): complex(coeffs[i, j]) for i, a in enumerate(ts) for j, b in enumerate(ts)}


def _to_array(d, m, n):
    ts = graded_lex_tuples(m, n)
    return np.array([[d.get((a, b), 0j) for b in ts] for a in ts])


def _ref_mul(f, g, n):
    out = {}
    right = [(a, b, sum(a), sum(b), v) for (a, b), v in g.items()]
    for (a1, b1), v1 in f.items():
        rz, rw = n - sum(a1), n - sum(b1)
        for a2, b2, da, db, v2 in right:
            if da <= rz and db <= rw:
                key = (tuple(x + y for x, y in zip(a1, a2)),
                       tuple(x + y for x, y in zip(b1, b2)))
                out[key] = out.get(key, 0j) + v1 * v2
    return out


def _ref_series(f, m, n, head, weights):
    """head * (1 + sum_k weights[k] (x / c0)^k) with f = c0 + x, or with
    head = None: sum_k weights[k] x^k, through dict products."""
    zero = ((0,) * m, (0,) * m)
    c0 = f[zero]
    x = {k: v for k, v in f.items() if k != zero}
    u = {k: v / c0 for k, v in x.items()} if head is not None else x
    acc, term = {zero: 1.0 + 0j}, {zero: 1.0 + 0j}
    for w in weights[: 2 * n]:
        term = _ref_mul(term, u, n)
        for k, v in term.items():
            acc[k] = acc.get(k, 0j) + w * v
    return {k: v * (head if head is not None else 1.0) for k, v in acc.items()}, c0


def _binomials(t, n):
    out, c = [], 1.0
    for k in range(1, n + 1):
        c *= (t - (k - 1)) / k
        out.append(c)
    return out


def _ref_pow(f, m, n, t):
    zero = ((0,) * m, (0,) * m)
    return _ref_series(f, m, n, f[zero] ** t, _binomials(t, 2 * n))[0]


def _ref_exp(f, m, n):
    zero = ((0,) * m, (0,) * m)
    c0 = f[zero]
    x = {k: v for k, v in f.items() if k != zero}
    weights = [1 / math.factorial(k) for k in range(1, 2 * n + 1)]
    acc = _ref_series({zero: 0j, **x}, m, n, None, weights)[0]
    acc[zero] = acc.get(zero, 0j)
    return {k: v * cmath.exp(c0) for k, v in acc.items()}


def _ref_log(f, m, n):
    zero = ((0,) * m, (0,) * m)
    c0 = f[zero]
    u = {k: v / c0 for k, v in f.items() if k != zero}
    weights = [(-1.0) ** (k + 1) / k for k in range(1, 2 * n + 1)]
    acc = _ref_series({zero: 0j, **u}, m, n, None, weights)[0]
    acc[zero] = acc[zero] - 1.0 + cmath.log(c0)
    return acc


def _ref_shift(f, di, dj):
    out = {}
    for (a, b), v in f.items():
        na = tuple(x - d for x, d in zip(a, di))
        nb = tuple(x - d for x, d in zip(b, dj))
        if min(na + nb) < 0:
            continue
        fac = 1.0
        for x, d in zip(a + b, di + dj):
            fac *= math.factorial(x) / math.factorial(x - d)
        out[(na, nb)] = v * fac
    return out


def _close(got, want, rel=1e-13):
    scale = max(1.0, np.abs(want).max())
    return np.abs(got - want).max() <= rel * scale


@st.composite
def _jet_pairs(draw):
    """Two random jets of one shape: m <= 3, cap <= 3, batch () or (4,);
    constant terms near 1, so log and fractional powers are defined."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(0, 3))
    batch = draw(st.sampled_from([(), (4,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = batch + (math.comb(m + n, m),) * 2

    def coeffs():
        c = 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        c[..., 0, 0] = 1.0 + 0.3 * rng.random(batch) + 0.2j * rng.standard_normal(batch)
        return c

    return Jet(m, n, coeffs()), Jet(m, n, coeffs())


def _entries(jet):
    """(index, dict) for every batch entry of a jet."""
    for index in np.ndindex(*jet.batch):
        yield index, _to_dict(jet.coeffs[index], jet.m, jet.n)


@settings(max_examples=40, deadline=None)
@given(pair=_jet_pairs(), t=st.sampled_from([-2.0, -0.5, 0.7, 3.0]))
def test_array_arithmetic_matches_the_dict_reference(pair, t):
    f, g = pair
    m, n = f.m, f.n
    ops = {
        "mul": (f * g, lambda a, b: _ref_mul(a, b, n)),
        "pow": (f ** t, lambda a, b: _ref_pow(a, m, n, t)),
        "exp": ((f - 1.0).exp(), lambda a, b: _ref_exp(
            {k: v - (1.0 if k == ((0,) * m, (0,) * m) else 0.0) for k, v in a.items()},
            m, n)),
        "log": (f.log(), lambda a, b: _ref_log(a, m, n)),
    }
    gs = dict(_entries(g))
    for name, (jet, ref) in ops.items():
        assert jet.batch == f.batch
        for index, fd in _entries(f):
            want = _to_array(ref(fd, gs[index]), m, n)
            assert _close(jet.coeffs[index], want), name


@settings(max_examples=60, deadline=None)
@given(pair=_jet_pairs(), data=st.data())
def test_shift_and_embed_match_the_dict_reference(pair, data):
    f, _ = pair
    m, n = f.m, f.n
    indices = graded_lex_tuples(m, n)
    di, dj = data.draw(st.sampled_from(indices)), data.draw(st.sampled_from(indices))
    shifted = f.shifts([di, dj])  # entry (0, 1) is the (di, dj) shift
    extra = data.draw(st.integers(0, 2))
    offset = data.draw(st.integers(0, extra))
    embedded = f.embed(m + extra, offset)
    pre, post = (0,) * offset, (0,) * (extra - offset)
    for index, fd in _entries(f):
        want = _to_array(_ref_shift(fd, di, dj), m, n - max(sum(di), sum(dj)))
        assert _close(shifted.coeffs[index + (0, 1)], want)
        moved = {(pre + a + post, pre + b + post): v for (a, b), v in fd.items()}
        assert _close(embedded.coeffs[index], _to_array(moved, m + extra, n))


@settings(max_examples=60, deadline=None)
@given(pair=_jet_pairs(), data=st.data())
def test_gathered_shifts_match_the_dict_reference(pair, data):
    # the indices may repeat one and include the zero index
    f, _ = pair
    m, n = f.m, f.n
    indices = data.draw(st.lists(st.sampled_from(graded_lex_tuples(m, n)), min_size=1,
                                 max_size=4))
    got = f.shifts(indices)
    on = n - max(map(sum, indices))
    assert (got.m, got.n) == (m, on)
    assert got.batch == f.batch + (len(indices), len(indices))
    for index, fd in _entries(f):
        for p, di in enumerate(indices):
            for q, dj in enumerate(indices):
                want = _to_array(_ref_shift(fd, di, dj), m, on)
                assert _close(got.coeffs[index + (p, q)], want)


def test_a_row_deeper_than_the_caps_is_refused():
    f = Jet.constant(1.0, 2, 2)
    with pytest.raises(ValueError, match="not deep enough"):
        f.shifts([(0, 0), (2, 1)])
    with pytest.raises(ValueError, match="not deep enough"):
        f.shifts([(1, 2)])


# -- the degree recurrence against the sum of powers ------------------------


@st.composite
def _series_jets(draw):
    """A random jet with m <= 3, cap <= 4 (zero included), batch (), (3,)
    or (2, 2); constant terms near 1."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(0, 4))
    batch = draw(st.sampled_from([(), (3,), (2, 2)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = batch + (math.comb(m + n, m),) * 2
    c = 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    c[..., 0, 0] = 1.0 + 0.3 * rng.random(batch) + 0.2j * rng.standard_normal(batch)
    return Jet(m, n, c)


@settings(max_examples=60, deadline=None)
@given(f=_series_jets(), t=st.sampled_from([-4.2, -1.0, -0.5, 0.7, 2.0, 3.3]))
def test_series_recurrence_matches_the_sum_of_powers(f, t):
    assert _close((f ** t).coeffs, pow_by_powers(f, t))
    assert _close(f.exp().coeffs, exp_by_powers(f))
    assert _close(f.log().coeffs, log_by_powers(f))


def _ball_power_disc_derivative(lam, z0, w0, a, b, terms=3000):
    """d^a dbar^b (1 - z wbar)^-lam at (z0, w0) as the double sum over n of
    (lam)_n/n! n!/(n-a)! n!/(n-b)! z0^(n-a) conj(w0)^(n-b); also the sum of
    the absolute values of its terms."""
    n = np.arange(terms, dtype=float)
    coef = np.concatenate([[1.0], np.cumprod((lam + n[:-1]) / (n[:-1] + 1))])
    zp = np.concatenate([[1.0], np.cumprod(np.full(terms - 1, complex(z0)))])
    wp = np.concatenate([[1.0], np.cumprod(np.full(terms - 1, np.conj(complex(w0))))])
    k = np.arange(max(a, b), terms)
    falling = np.prod([n[k] - i for i in range(a)], axis=0) * np.prod(
        [n[k] - i for i in range(b)], axis=0
    )
    parts = coef[k] * falling * zp[k - a] * wp[k - b]
    return parts.sum(), np.abs(parts).sum()


@pytest.mark.parametrize("lam", [0.5, 1.0, 3.3])
@pytest.mark.parametrize(
    "z0, w0", [(0.979, 0.979), (0.979j, 0.979), (0.9 + 0.38j, -0.3 + 0.9j), (-0.96, 0.999)]
)
def test_ball_power_near_the_boundary_matches_the_double_sum(lam, z0, w0):
    assert abs(z0 * np.conj(w0)) <= 0.96
    table = BallPower(1, lam).eval_jet([z0], [w0], 4)
    for a in range(5):
        for b in range(5):
            want, scale = _ball_power_disc_derivative(lam, z0, w0, a, b)
            assert abs(table.entry((a,), (b,))[0, 0] - want) <= 1e-13 * scale


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 3),
    n=st.integers(0, 3),
    batch=st.sampled_from([(), (3,), (2, 2)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_coordinate_products_equal_the_products_of_the_seeds(m, n, batch, seed):
    rng = np.random.default_rng(seed)
    z, w = (rng.standard_normal(batch + (m,)) + 1j * rng.standard_normal(batch + (m,))
            for _ in range(2))
    k = np.arange(m)
    zv, wv = variable_jets(z, w, m, n, n)
    rows, cols = np.indices((m, m))
    full = coordinate_products(z, w, m, n, rows, cols)
    assert full.coeffs.shape == batch + (m, m) + zv[0].coeffs.shape[len(batch):]
    for i in range(m):
        for j in range(m):
            assert np.array_equal(full.coeffs[..., i, j, :, :], (zv[i] * wv[j]).coeffs)
    diagonal = coordinate_products(z, w, m, n, k, k)
    for i in range(m):
        assert np.array_equal(diagonal.coeffs[..., i, :, :], full.coeffs[..., i, i, :, :])


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(1, 3),
    n=st.integers(0, 4),
    batches=st.sampled_from([((), ()), ((3,), (3,)), ((), (3,)), ((1, 1), (2, 3)),
                             ((2, 3), (1, 1))]),
    seed=st.integers(0, 2**32 - 1),
)
def test_products_match_the_separable_contraction(m, n, batches, seed):
    # the two sum each output's pairs in another order: |new - oracle| is
    # at most 2 (p_k - 1) eps sum |x_l| |y_r| for an output k of p_k pairs
    rng = np.random.default_rng(seed)
    shape = (math.comb(m + n, m),) * 2
    x, y = (rng.standard_normal(b + shape) + 1j * rng.standard_normal(b + shape)
            for b in batches)
    got = (Jet(m, n, x) * Jet(m, n, y)).coeffs
    want = convolve_separable(x, y, m, n)
    pairs = convolve_separable(np.ones(shape), np.ones(shape), m, n).real
    scale = convolve_separable(np.abs(x), np.abs(y), m, n).real
    assert got.shape == want.shape
    assert (np.abs(got - want) <= 2 * (pairs - 1) * np.finfo(float).eps * scale).all()


def test_a_broadcast_product_stays_within_twice_its_result():
    # a (1, 1, 1) jet times a (1, 10, 10) one, as `JetKernel.jets` forms
    # them for jet(bergman_ball(3), bergman_ball(3), 2) at order 4
    rng = np.random.default_rng(3)
    shape = (math.comb(7, 3), math.comb(7, 3))
    f = Jet(3, 4, rng.standard_normal((1, 1, 1) + shape) + 0j)
    g = Jet(3, 4, rng.standard_normal((1, 10, 10) + shape) + 0j)
    f * g  # build the cached tables outside the traced call
    tracemalloc.start()
    try:
        result = f * g
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * result.coeffs.nbytes


def _balanced_mask(m, n):
    degrees = np.array([sum(a) for a in graded_lex_tuples(m, n)])
    return degrees[:, None] == degrees


@pytest.mark.parametrize("m, n", [(1, 4), (2, 3), (2, 4), (3, 3), (3, 4), (2, 0), (3, 2)])
def test_balanced_tables_are_the_full_tables_filtered(m, n):
    balanced = _balanced_mask(m, n).ravel()
    tables = {degree: table for degree, *table in _by_degree(jets._pair_table(m, n, True))}
    assert all(degree % 2 == 0 for degree in tables)
    for degree, out, left, right, starts in _by_degree(jets._pair_table(m, n, False)):
        keep_out = balanced[out]
        if not keep_out.any():
            assert degree not in tables
            continue
        owner = np.repeat(np.arange(len(out)), np.diff(np.r_[starts, len(left)]))
        keep = keep_out[owner] & balanced[left]
        assert balanced[right[keep]].all()
        kept_starts = np.flatnonzero(np.r_[True, owner[keep][1:] != owner[keep][:-1]])
        want = (out[keep_out], left[keep], right[keep], kept_starts)
        for got, expected in zip(tables[degree], want, strict=True):
            assert np.array_equal(got, expected)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_each_group_keeps_the_pair_table_built_by_sorting(m):
    for n in range(10):
        group, table = jets._group(m, n), pair_table_by_sorting(jets._group(m, n))
        for got, want in zip(group.pair_arrays, table, strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("m, n", [(40, 2), (64, 1)])
def test_a_group_whose_codes_pass_int64_keeps_the_pair_table_built_by_sorting(m, n):
    # (n + 1)^m >= 2^63: the monomials are coded by Python ints
    group, table = jets._Group(m, n), pair_table_by_sorting(jets._group(m, n))
    for got, want in zip(group.pair_arrays, table, strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _by_degree(table):
    """A `jets._pair_table` cut by degree: (D, out, left, right, starts) per
    degree D, `starts` counted from the degree's first pair."""
    out, left, right, bounds = table.out, table.left, table.right, table.bounds
    return [(degree, out[k0:k1], left[bounds[k0]:bounds[k1]], right[bounds[k0]:bounds[k1]],
             bounds[k0:k1] - bounds[k0]) for degree, k0, k1 in table.degrees]


def _assert_same_table(got, want):
    assert got.degrees == want[0]  # (D, k0, k1) per degree
    arrays = (got.out, got.left, got.right, got.bounds, got.totals)
    for a, b in zip(arrays, want[1:], strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_pair_tables_equal_those_built_block_by_block(m):
    for n in range(6):
        for balanced in (False, True):
            _assert_same_table(jets._pair_table(m, n, balanced),
                               pair_table_by_blocks(m, n, balanced))


@pytest.mark.parametrize("m, n", [(1, 7), (2, 7), (3, 6)])
@pytest.mark.parametrize("balanced", [False, True])
def test_deep_pair_tables_equal_those_built_block_by_block(m, n, balanced):
    # past the caps of the test above; m = 3 at cap 6 keeps under 10^6 pairs
    _assert_same_table(jets._pair_table.__wrapped__(m, n, balanced),
                       pair_table_by_blocks(m, n, balanced))


def _assert_same_runs(got, want):
    assert len(got) == len(want)
    for (rows, *arrays, slots), (want_rows, *want_arrays, want_slots) in zip(got, want):
        assert type(rows) is type(want_rows)
        if isinstance(rows, slice):
            assert rows == want_rows
        else:
            assert rows.dtype == want_rows.dtype and np.array_equal(rows, want_rows)
        for a, b in zip(arrays, want_arrays, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert type(slots) is int and slots == want_slots


@pytest.mark.parametrize("m, n", [(1, 5), (1, 2), (2, 3), (2, 4), (2, 0), (3, 3), (3, 4),
                                  (3, 2), (3, 1), (3, 0)])
@pytest.mark.parametrize("balanced", [False, True])
def test_run_cuts_equal_those_found_one_run_at_a_time(m, n, balanced):
    table = jets._pair_table(m, n, balanced)
    for max_pairs in (1, 4, 64, 4096):
        product = table.runs(max_pairs, False)
        _assert_same_runs(product, runs_by_search(table, 0, len(table.out), max_pairs))
        by_degree = table.runs(max_pairs, True)
        for runs, (_, k0, k1) in zip(by_degree, table.degrees, strict=True):
            _assert_same_runs(runs, runs_by_search(table, k0, k1, max_pairs))
        for _, run_left, run_right, _, _ in product + [r for runs in by_degree for r in runs]:
            assert np.shares_memory(run_left, table.left)
            assert np.shares_memory(run_right, table.right)


def test_a_deep_pair_table_is_filled_without_table_sized_temporaries():
    # m = 3 at cap 7: 2,944,656 pairs, 23.6 MB of int32 left and right
    jets._group(3, 7).pair_arrays
    tracemalloc.start()
    try:
        table = jets._pair_table.__wrapped__(3, 7, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.left) == 2_944_656
    assert peak <= 1.5 * (table.left.nbytes + table.right.nbytes)


def _random_jet(rng, m, n, scale=0.1):
    shape = (math.comb(m + n, m),) * 2
    c = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    c[0, 0] = 1.2
    return Jet(m, n, c)


def test_a_pair_table_is_built_once(monkeypatch):
    # m = 2 at cap 8: 245,025 pairs, read by two powers and a product
    jets._pair_table.cache_clear()
    cuts, real_runs = [], jets._runs

    def counted_runs(table, ends, max_pairs):
        cuts.append(ends)
        return real_runs(table, ends, max_pairs)

    monkeypatch.setattr(jets, "_runs", counted_runs)
    f = _random_jet(np.random.default_rng(5), 2, 8, scale=0.05)
    first = (f ** 0.7).coeffs
    assert np.array_equal((f ** 0.7).coeffs, first)
    f * f
    table = jets._pair_table(2, 8, False)
    by_degree = _by_degree(table)
    assert sum(len(left) for _, _, left, _, _ in by_degree) == 245_025
    assert jets._pair_table.cache_info().misses == 1
    # one per-degree cut and one product cut
    assert cuts == [[k1 for _, _, k1 in table.degrees], [len(table.out)]]


def test_the_pair_caches_keep_at_most_their_bound():
    jets._pair_table.cache_clear()
    rng = np.random.default_rng(9)
    caps = list(range(1, jets._KEPT_TABLES + 2))
    assert len(caps) > jets._KEPT_TABLES
    f = {cap: _random_jet(rng, 1, cap) for cap in caps}

    def results(cap):
        return [h.coeffs.tobytes() for h in (f[cap] ** -2.5, f[cap].log(), f[cap] * f[cap])]

    first = results(caps[0])
    for cap in caps[1:]:
        results(cap)
    assert jets._pair_table.cache_info().misses == len(caps)
    assert jets._pair_table.cache_info().currsize <= jets._KEPT_TABLES
    # the first caps' tables were dropped; built again, they give the same bits
    assert results(caps[0]) == first
    assert jets._pair_table.cache_info().misses == len(caps) + 1


@pytest.mark.parametrize("balanced", [False, True])
def test_every_run_is_a_view_of_its_pair_table(balanced):
    table = jets._pair_table(2, 4, balanced)
    degrees, out, left, right = table.degrees, table.out, table.left, table.right

    def rows_of(cut):
        return np.concatenate([np.arange(rows.start, rows.stop, rows.step)
                               if isinstance(rows, slice) else rows for rows, *_ in cut]).tolist()

    for max_pairs in (1, 64, 4096):
        product = table.runs(max_pairs, False)
        by_degree = table.runs(max_pairs, True)
        assert jets._pair_table(2, 4, balanced) is table
        for rows, run_left, run_right, _, _ in product + [r for cut in by_degree for r in cut]:
            assert np.shares_memory(run_left, left) and np.shares_memory(run_right, right)
            assert isinstance(rows, slice) or np.shares_memory(rows, out)
        # each degree's runs hold its outputs and no others
        assert rows_of(product) == out.tolist()
        for cut, (_, k0, k1) in zip(by_degree, degrees, strict=True):
            assert rows_of(cut) == out[k0:k1].tolist()


def test_a_cut_in_steady_use_keeps_its_table(monkeypatch):
    # the (2, 4) table's per-degree cut is read between the builds of 35
    # m = 1 tables, more than the cache keeps; a product at cap 4 then cuts
    # the same table, and both cuts view its pairs
    jets._pair_table.cache_clear()
    ball, disc = BallPower(2, 3.0), SzegoDisc()
    z, w = np.array([[0.3, 0.1j]]), np.array([[0.2, -0.1]])
    ball.jets(z, w, 4)
    for n in range(36):  # cap 0 builds no table
        disc.jets(z[:, :1], w[:, :1], n)
        ball.jets(z, w, 4)
    lefts, real_sums = [], jets._pair_sums

    def recorded_sums(x, y, runs, weights=None):
        lefts.extend(left for _, left, _, _, _ in runs)
        return real_sums(x, y, runs, weights)

    monkeypatch.setattr(jets, "_pair_sums", recorded_sums)
    ball.jets(z, w, 4)
    degree_lefts = len(lefts)
    Product(ball, ball).jets(z, w, 4)
    table = jets._pair_table(2, 4, False)
    assert jets._pair_table.cache_info().misses == 36
    product_lefts = lefts[3 * degree_lefts:]
    assert degree_lefts and product_lefts and len(lefts) == 3 * degree_lefts + len(product_lefts)
    for left in lefts:
        assert np.shares_memory(left, table.left)
    assert table.runs(jets._run_pairs(1), True)[1][0][1] is lefts[0]
    assert table.runs(jets._run_pairs(1), False)[0][1] is product_lefts[0]


def test_a_second_product_cut_copies_no_pairs():
    # m = 3 at cap 7: 2.9M pairs, whose int32 left and right indices take
    # 24 MB; a cut allocates per run and per output, not per pair
    table = jets._pair_table(3, 7, False)
    table.runs(1 << 12, False)
    tracemalloc.start()
    try:
        runs = table.runs(1 << 16, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(run[1]) for run in runs) == len(table.left) == 2_944_656
    assert peak < 0.01 * (table.left.nbytes + table.right.nbytes)


def _load_references():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "references.py"
    spec = importlib.util.spec_from_file_location("perfbench_references", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_deep_table_matches_the_power_series_reference():
    # m = 2 at cap 8 off the origin: the full 245,025-pair table, built
    # by the first call and read from the cache by the second
    lam, z, w = 3.5, np.array([0.1, 0.05j]), np.array([0.05, 0.1j])
    rows = graded_lex_tuples(2, 8)
    table = _load_references().ball_power_table(2, lam, z, w, rows, rows)
    want = np.array([[table[i, j] for j in rows] for i in rows])
    for _ in range(2):
        got = BallPower(2, lam).jets(z[None], w[None], 8).derivatives()[0, 0, 0]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


def _balanced_jet(rng, m, n, batch, integers=False):
    shape = batch + (math.comb(m + n, m),) * 2
    if integers:  # every sum of products is exact
        c = rng.integers(-4, 5, shape) + 1j * rng.integers(-4, 5, shape)
    else:
        c = 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    c[..., ~_balanced_mask(m, n)] = 0
    c[..., 0, 0] = 2 if integers else 1.2 + 0.1j
    return Jet(m, n, c)


def _read_balanced(f) -> bool:
    return jets._balanced(f.coeffs, f.m, f.n)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 3), n=st.integers(0, 4),
       batch=st.sampled_from([(), (3,), (2, 2)]), seed=st.integers(0, 2**32 - 1))
def test_balanced_jets_give_the_values_of_the_full_tables(m, n, batch, seed):
    rng = np.random.default_rng(seed)
    f, g = (_balanced_jet(rng, m, n, batch, integers=True) for _ in range(2))
    product = f * g
    with full_tables():
        assert np.array_equal(product.coeffs, (f * g).coeffs)
    assert not (product.coeffs[..., ~_balanced_mask(m, n)]).any()
    f = _balanced_jet(rng, m, n, batch)
    for op in (lambda h: h ** -1.5, lambda h: h ** 2, lambda h: h.exp(), lambda h: h.log()):
        got = op(f)
        with full_tables():
            want = op(f)
        assert _close(got.coeffs, want.coeffs)
        assert _read_balanced(got)
    for kept in (f + g, f - 2.0, 3.0 * f, -f, f * g ** -1, f.truncate(min(n, 1)),
                 f.embed(m + 1, 1), f.shifts([(0,) * m])):
        assert _read_balanced(kept)
    e = unit_index(m, 0)
    if n >= 1:
        assert _read_balanced(f.shifts([e]))
    if n >= 2:  # the matrix's (e, 0) entry, at cap n - 1, is off balance
        assert not _read_balanced(f.shifts([e, (0,) * m]))


def test_the_balance_check_reads_every_coefficient_off_balance():
    z = np.zeros(2)
    zv, wv = variable_jets(z, z, 2, 2, 2)
    assert not any(_read_balanced(j) for j in zv + wv)
    assert _read_balanced(Jet.constant(3.0, 2, 2))
    k = np.arange(2)
    assert _read_balanced(coordinate_products(z, z, 2, 2, k, k))
    assert not _read_balanced(coordinate_products(z, z + [0, 0.1], 2, 2, k, k))
    assert not _read_balanced(coordinate_products(z + [0.1, 0], z, 2, 2, k, k))
    assert _read_balanced(coordinate_products(z + 0.1, z + 0.2, 2, 0, k, k))
    # a batch is balanced only if every entry is
    assert not _read_balanced(coordinate_products([z, z + 0.1], [z, z], 2, 2, k, k))
    # off the row (0, b) and the column (a, 0): (2 e_1, e_1), and NaN is not 0
    for bad in (1e-300, np.nan):
        f = Jet.constant(1.0, 2, 2)
        f.coeffs[3, 1] = bad
        assert not _read_balanced(f)


def test_a_batch_balanced_at_its_first_entry_is_read_to_its_last():
    # the first entry is counted alone first; a later entry off balance at
    # (2 e_1, e_1), off the row (0, b) and the column (a, 0), still counts
    f = _balanced_jet(np.random.default_rng(4), 2, 2, (2, 3))
    assert _read_balanced(f)
    f.coeffs[1, 2, 3, 1] = 1e-300
    assert not _read_balanced(f)
    assert not _read_balanced(Jet(2, 2, f.coeffs[1:]))
    assert _read_balanced(Jet(2, 2, f.coeffs[:1]))


def _signed_parts(rng, shape):
    """Reals of magnitude 1e-300 to 1e300, both signs, about a third of
    them zeros of both signs."""
    part = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-300, 300, shape)
    return np.where(rng.random(shape) < 0.3, rng.choice([0.0, -0.0], shape), part)


@settings(max_examples=80, deadline=None)
@given(slots=st.integers(1, jets._SLOT_PAIRS), batch=st.integers(1, 700),
       outputs=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_slot_sums_are_reduceat_bit_for_bit(slots, batch, outputs, seed):
    rng = np.random.default_rng(seed)
    terms = np.empty((batch, outputs * slots), dtype=complex)
    terms.real, terms.imag = _signed_parts(rng, terms.shape), _signed_parts(rng, terms.shape)
    want = np.add.reduceat(terms, np.arange(0, terms.shape[-1], slots), axis=-1)
    got = jets._slot_sums(terms, slots)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("counts, slots", [
    ((1, 1, 1), 1), ((2, 2), 2), ((3,), 3), ((4, 4, 4), 4),
    ((5,), 0), ((5, 5), 0), ((2, 4), 0), ((4, 3), 0), ((1, 2, 2), 0),
])
def test_a_run_keeps_a_slot_tag_only_for_one_pair_count_of_at_most_4(counts, slots):
    starts = np.r_[0, np.cumsum(counts)[:-1]]
    pairs = np.arange(sum(counts), dtype=np.int32)
    out = 3 * np.arange(len(counts)) + 1
    table = SimpleNamespace(out=out, left=pairs, right=pairs, bounds=np.r_[starts, len(pairs)])
    ((run,),) = jets._runs(table, [len(out)], 64)
    assert run[4] == slots
    assert isinstance(run[0], slice) and np.array_equal(np.arange(24)[run[0]], out)


def test_run_rows_that_are_not_equally_spaced_stay_an_index_array():
    pairs = np.arange(6, dtype=np.int32)
    table = SimpleNamespace(out=np.array([1, 2, 5]), left=pairs, right=pairs,
                            bounds=np.array([0, 2, 4, 6]))
    ((run,),) = jets._runs(table, [3], 64)
    assert isinstance(run[0], np.ndarray) and run[0].tolist() == [1, 2, 5] and run[4] == 2
