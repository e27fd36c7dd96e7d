"""The evaluation path without its per-call bookkeeping gives the old path's bits.

Each property runs one public call twice: as it is, and under
`oracles.with_per_call_bookkeeping()`, which patches in verbatim copies of
the functions whose fixed per-call costs were cut (eval_jets and torus
glue, pair naming, Gram families, pair sums, point coercion).  Jet tables,
values, Grams, fd tables, residuals and scan brackets must agree bit for
bit (`.view(np.int64)`), and a failing call must raise the same error
naming the same pair.  Random trees, caps 0-4, batches of 0-40 pairs,
signed zeros and the origin are drawn.

Two paths have no old twin and are pinned to references written here,
bit for bit: the constant term of pow, exp and log at every cap is
numpy's formula on the constant terms (or the refusal a bad one gets), and
`jets.coordinate_products` is a fill of one entry at a time.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from kernelcalc import automorphisms, jets, positivity
from kernelcalc.errors import BranchError, EvaluationError, KernelCalcError
from kernelcalc.expr import DiagonalSeries, JetTable, Pow
from kernelcalc.fd import fd_jet_table
from kernelcalc.geometry import sample_array, unit_ball, unit_disc
from kernelcalc.parser import parse_kernel
from test_expr import _ball_asts, _disc_asts

#: what a drawn point becomes: itself, the origin, or a coordinate with a
#: signed zero in its real or imaginary part (or both)
_ZEROS = ("keep", "origin", "-0", "-0 re", "-0 im", "+0")


def _outcome(call):
    try:
        return call()
    except KernelCalcError as exc:
        return exc


def _assert_same_bits(new, old):
    if isinstance(old, Exception):
        assert type(new) is type(old) and str(new) == str(old), (new, old)
    elif isinstance(old, np.ndarray):
        assert new.shape == old.shape and new.dtype == old.dtype
        assert np.array_equal(np.ascontiguousarray(new).view(np.int64),
                              np.ascontiguousarray(old).view(np.int64))
    elif isinstance(old, (list, tuple)):
        assert type(new) is type(old) and len(new) == len(old)
        for a, b in zip(new, old):
            _assert_same_bits(a, b)
    elif isinstance(old, JetTable):
        _assert_same_bits(new.derivatives, old.derivatives)
    elif dataclasses.is_dataclass(old):
        _assert_same_bits(dataclasses.astuple(new), dataclasses.astuple(old))
    elif isinstance(old, float):
        assert new.hex() == old.hex()
    else:
        assert new == old


def _assert_as_before(call):
    """call() now and on the old path: the same bits or the same error."""
    new = _outcome(call)
    with oracles.with_per_call_bookkeeping():
        old = _outcome(call)
    _assert_same_bits(new, old)
    return new


def _points(m: int, n: int, seed: int, zeros) -> np.ndarray:
    """n seeded points of radius 0.6 in C^m, each changed as zeros[p] says."""
    if not n:
        return np.zeros((0, m), dtype=complex)
    pts = sample_array(unit_disc(0.6) if m == 1 else unit_ball(m, 0.6), n, seed)
    for p, how in enumerate(zeros):
        re, im = pts[p, 0].real, pts[p, 0].imag
        if how == "origin":
            pts[p] = 0
        elif how != "keep":
            pts[p, 0] = {"-0": complex(-0.0, -0.0), "+0": 0j, "-0 re": complex(-0.0, im),
                         "-0 im": complex(re, -0.0)}[how]
    return pts


@st.composite
def _cases(draw, max_pairs=40):
    text = draw(st.one_of(_disc_asts(2), _ball_asts()))
    n = draw(st.integers(0, max_pairs))
    zeros = draw(st.lists(st.sampled_from(_ZEROS), min_size=2 * n, max_size=2 * n))
    m = parse_kernel(text).m
    pts = _points(m, 2 * n, draw(st.integers(1, 10**6)), zeros)
    return text, pts[:n], pts[n:]


@settings(max_examples=40, deadline=None)
@given(case=_cases(), order=st.integers(0, 4))
@example(case=("szego_disc()", np.zeros((1, 1)), np.array([[complex(-0.0, -0.0)]])), order=0)
@example(case=("curvature(bergman_ball(2), 1.0, 1.0)", np.zeros((0, 2)), np.zeros((0, 2))),
         order=4)
def test_jet_tables_and_values_are_the_old_paths_bits(case, order):
    text, zs, ws = case
    expr = parse_kernel(text)
    if not len(zs):  # the old path failed on empty batches; the new one is empty
        assert expr.eval_jets(zs, ws, order) == []
        assert expr.values(zs, ws).shape == (0, expr.size, expr.size)
        return
    _assert_as_before(lambda: expr.eval_jets(zs, ws, order))
    _assert_as_before(lambda: expr.values(zs, ws))
    if expr.is_scalar:
        _assert_as_before(lambda: expr.values(zs, ws, log=True))
        _assert_as_before(lambda: expr.log_hessian_values(zs, ws))
    _assert_as_before(lambda: expr.eval_jet(zs[0], ws[0], order))


_PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25, -2.5, np.inf, -np.inf, np.nan])
_CAPS = range(3)


def _head_or_refusal(op: str, c0: np.ndarray, t: float):
    """What `op` of jets with constant terms c0 (and finite others) gives at
    [0, 0], by numpy on the same c0, or the (type, text) it must raise."""
    what = {"pow": "pow base", "exp": "exp", "log": "log"}[op]
    if not np.isfinite(c0).all():
        return EvaluationError, f"{what} argument is not finite"
    if op == "pow" and (c0 == 0).any():
        return EvaluationError, "jet power of a series with zero constant term"
    if op == "log" or op == "pow" and t != int(t):
        bad = c0.real <= 0
        if bad.any():
            return BranchError, (f"{op} base has non-positive real part "
                                 f"({complex(c0[np.argmax(bad)]):.6g}); "
                                 "principal branch unavailable")
    if op == "pow":
        return (1 + 0j) * (c0 ** t if t == int(t) else np.exp(t * np.log(c0)))
    return (1 + 0j) * np.exp(c0) if op == "exp" else 0j + np.log(c0)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 2), parts=st.lists(_PARTS, min_size=8, max_size=8),
       t=st.sampled_from([1.0, 2.0, -1.0, 0.5, -0.7, 3.0]), seed=st.integers(0, 2**32 - 1))
@example(m=1, parts=[-0.0, 0.25, 1.0, -0.0, -1.0, 0.0, -2.5, 1.0], t=1.0, seed=0)
@example(m=2, parts=[1.0, 0.25, -0.0, 1.0, -0.0, 0.0, 1.0, -1.0], t=0.5, seed=1)
def test_series_heads_are_numpys_at_every_cap(m, parts, t, seed):
    # constant terms with signed zeros, such as -0 - 1j, tell (1 + 0j) c0^t
    # from c0^t and 0j + log c0 from log c0; a bad one is refused by name
    rng = np.random.default_rng(seed)
    ops = {"pow": lambda j: j ** t, "exp": jets.Jet.exp, "log": jets.Jet.log}
    for n in _CAPS:
        shape = (4,) + (jets._group(m, n).size,) * 2
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        coeffs.real[:, 0, 0], coeffs.imag[:, 0, 0] = parts[:4], parts[4:]
        # the batch of four, and each entry alone
        for (name, op), entries in itertools.product(
                ops.items(), [coeffs] + [coeffs[e : e + 1] for e in range(4)]):
            with np.errstate(all="ignore"):
                want = _head_or_refusal(name, entries.copy()[:, 0, 0], t)
            got = _outcome(lambda: op(jets.Jet(m, n, entries.copy())))
            if isinstance(want, tuple):
                assert type(got) is want[0] and str(got) == want[1], (n, name, got)
            else:
                _assert_same_bits(got.coeffs[:, 0, 0], want)


def _coordinate_products_per_entry(z, w, m, n, i, j) -> np.ndarray:
    """The coefficients of the jets of z_i wbar_j, entry by entry: +0.0 but
    for the four positions of `jets.coordinate_products`'s docstring."""
    i, j = np.asarray(i), np.asarray(j)
    wbar = np.conj(np.asarray(w, dtype=complex))
    z = np.asarray(z, dtype=complex)
    # one array product, as numpy's may differ from a scalar one in rounding
    value = z[..., i] * wbar[..., j]
    out = np.zeros(value.shape + (jets._group(m, n).size,) * 2, dtype=complex)
    for b in np.ndindex(z.shape[:-1]):
        for s in np.ndindex(i.shape):
            entry, row, col = out[b + s], 1 + i[s], 1 + j[s]
            entry[0, 0] = value[b + s]
            if n >= 1:
                entry[row, 0] = wbar[b + (j[s],)]
                entry[0, col] = z[b + (i[s],)]
                entry[row, col] = 1.0
    return out


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 2),
       parts=st.lists(st.one_of(_PARTS, st.sampled_from([1e-300, -1e300])),
                      min_size=8, max_size=8),
       seed=st.integers(0, 2**32 - 1))
@example(m=2, parts=[-0.0, 0.25, np.nan, -0.0, -np.inf, 0.0, -1e300, 1e-300], seed=0)
def test_coordinate_products_fill_the_four_named_positions(m, parts, seed):
    rng = np.random.default_rng(seed)
    z, w = (rng.standard_normal((4, m)) + 1j * rng.standard_normal((4, m)) for _ in "zw")
    z[:, 0].real, z[:, 0].imag = parts[:4], parts[4:]
    w[:, -1].real, w[:, -1].imag = parts[4:], parts[:4]
    indices = ((np.arange(m), np.arange(m)), np.indices((m, m)),
               (np.zeros(3, int), np.arange(3) % m))
    with np.errstate(all="ignore"):  # products with 1e300, inf and nan
        for n, (i, j), (zs, ws) in itertools.product(_CAPS, indices, ((z, w), (z[0], w[-1]))):
            got = jets.coordinate_products(zs, ws, m, n, i, j)
            assert (got.m, got.n) == (m, n)
            _assert_same_bits(got.coeffs, _coordinate_products_per_entry(zs, ws, m, n, i, j))


@settings(max_examples=30, deadline=None)
@given(case=_cases(max_pairs=12))
def test_grams_are_the_old_paths_bits(case):
    text, zs, ws = case
    expr = parse_kernel(text)
    if not len(zs):  # the old path failed on no points
        assert positivity.gram(expr, zs).shape == (0, 0)
        return
    _assert_as_before(lambda: positivity.gram(expr, np.concatenate([zs, ws])))


@settings(max_examples=30, deadline=None)
@given(case=_cases(max_pairs=1), order=st.integers(0, 2))
def test_fd_tables_are_the_old_paths_bits(case, order):
    text, zs, ws = case
    if len(zs):
        expr = parse_kernel(text)
        _assert_as_before(lambda: fd_jet_table(expr, zs[0], ws[0], order).derivatives)


@settings(max_examples=20, deadline=None)
@given(text=_disc_asts(1), count=st.integers(1, 8), seed=st.integers(0, 1000))
def test_scan_brackets_and_verdicts_are_the_old_paths_bits(text, count, seed):
    base = parse_kernel(text)
    family = ((count, seed), (count + 3, seed + 1))
    disc = unit_disc()
    _assert_as_before(lambda: positivity.wallach_scan(base, -2.0, 4.0, disc, family))
    _assert_as_before(lambda: positivity.ordinary_wallach_scan(base, [0.5, 1.0, 3.0], disc,
                                                               family))
    _assert_as_before(lambda: positivity.multiplier_bound(base, 0, disc, family))


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 4), n=st.integers(0, 12), seed=st.integers(0, 2**32 - 1),
       zeros=st.lists(st.sampled_from(_ZEROS), min_size=12, max_size=12))
def test_mobius_jacobians_and_residuals_are_the_old_paths_bits(m, n, seed, zeros):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    a *= rng.random() * 0.9 / np.linalg.norm(a)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    phi = automorphisms.MobiusMap(a, q)
    pts = _points(m, max(n, 1), seed % 10**6 + 1, zeros[: max(n, 1)])[:n]
    _assert_as_before(lambda: phi.jacobians(pts))
    pairs = list(zip(pts[: n // 2], pts[n // 2 : 2 * (n // 2)]))
    base = parse_kernel("bergman_disc()" if m == 1 else f"bergman_ball({m})")
    _assert_as_before(lambda: automorphisms.curvature_quasi_check(base, 1.0, phi, pairs))
    cocycle = automorphisms.CocycleSpec("det_jacobian_power", 1.0)
    _assert_as_before(lambda: automorphisms.quasi_invariance_residual(base, cocycle, phi, pairs))


@pytest.mark.parametrize("expr, zs, ws", [
    (Pow(DiagonalSeries([-40.0]), 0.5), [0.0, 0.9], [0.0, 0.9]),
    (Pow(DiagonalSeries([-40.0]), 0.5), [0.3j, 0.0, 0.9, 0.8], [0.1, 0.0, 0.9, 0.8]),
    (parse_kernel("ball_power(2, 2000.0)"), [(0.1, 0.0), (0.6, 0.4)], [(0.1, 0.0), (0.6, 0.4)]),
    (parse_kernel("curvature(bergman_ball(2), 5e299, 5e299)"), [(0.6, 0.4)], [(0.6, 0.4)]),
    (parse_kernel("log_hessian(pow(diagonal_series([-40.0]), 0.5))"), [0.2, 0.9], [0.1, 0.9]),
])
def test_each_error_names_the_pair_the_old_path_named(expr, zs, ws):
    for call in (lambda: expr.values(zs, ws), lambda: expr.eval_jets(zs, ws, 2)):
        assert isinstance(_assert_as_before(call), KernelCalcError)
