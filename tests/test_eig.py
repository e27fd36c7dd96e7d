import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kernelcalc import eig
from kernelcalc.eig import eigenvalues, hermitian_part, ldl_pivot, ldl_verdict, min_eigenvalue
from kernelcalc.errors import EvaluationError
from kernelcalc.geometry import sample_points, unit_disc
from kernelcalc.parser import parse_kernel
from kernelcalc.positivity import gram
import oracles
from oracles import ldl_verdict_right_looking, min_eigenvalue_by_multisection
from oracles import spectrum_by_multisection


def _random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def test_diagonal_matrix_is_its_own_spectrum():
    d = np.diag([3.0, -1.0, 0.5])
    assert sorted(eigenvalues(d)) == pytest.approx([-1.0, 0.5, 3.0])
    assert min_eigenvalue(d) == pytest.approx(-1.0)


@pytest.mark.parametrize("n,seed", [(2, 0), (5, 1), (10, 2), (40, 3), (80, 4)])
def test_matches_the_numpy_oracle(n, seed):
    h = _random_hermitian(n, seed)
    got = np.sort(eigenvalues(h))
    want = np.linalg.eigvalsh(h)
    scale = max(1.0, np.abs(want).max())
    assert np.abs(got - want).max() < 1e-10 * scale


def test_spectrum_is_invariant_under_unitary_conjugation():
    h = _random_hermitian(12, 7)
    q, _ = np.linalg.qr(_random_hermitian(12, 8) + 1j * np.eye(12))
    got = np.sort(eigenvalues(q @ h @ q.conj().T))
    want = np.sort(eigenvalues(h))
    assert np.abs(got - want).max() < 1e-10


def test_trace_and_frobenius_identities():
    h = _random_hermitian(15, 11)
    eigs = eigenvalues(h)
    assert np.sum(eigs) == pytest.approx(np.trace(h).real)
    assert np.sum(eigs ** 2) == pytest.approx(np.linalg.norm(h, "fro") ** 2)


def test_rank_one_gram_matrix():
    v = np.array([1.0, 2.0j, -1.0])
    g = np.outer(v, v.conj())
    eigs = np.sort(eigenvalues(g))
    assert eigs[:-1] == pytest.approx([0.0, 0.0], abs=1e-12)
    assert eigs[-1] == pytest.approx(6.0)


def test_hermitian_part():
    a = np.array([[1.0, 2.0 + 1j], [0.0, 3.0]])
    h = hermitian_part(a)
    assert np.abs(h - h.conj().T).max() == 0.0
    assert h[0, 1] == pytest.approx((2.0 + 1j) / 2)


@pytest.mark.parametrize("scale", [1.0, 1e-310, 1.7e308])
def test_the_in_place_hermitian_copy_equals_hermitian_part(scale):
    # subnormal entries are halved with the same rounding on both paths, and
    # entries near the float maximum must not overflow; the scratch may be
    # the input itself
    rng = np.random.default_rng(5)
    a = scale * (rng.random((30, 30)) + 1j * rng.random((30, 30)))
    before = a.copy()
    want = oracles.hermitian_part_by_halves(a)
    for from_spare in (False, True):
        with eig._checkout(len(a)) as plan:
            if from_spare:
                np.copyto(plan.spare, a)
            # the copy-in of both column loops
            hermitian_part(plan.spare if from_spare else a, plan.a, plan.spare)
            got = plan.a.copy()
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(hermitian_part(a).view(np.uint64), want.view(np.uint64))
    assert np.array_equal(a, before)


def test_a_kept_plan_copy_in_allocates_no_buffer():
    import tracemalloc

    n = eig._MAX_KEPT_WIDTH
    rng = np.random.default_rng(10)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    with eig._checkout(n) as plan:
        hermitian_part(a, plan.a, plan.spare)
        tracemalloc.start()
        try:
            hermitian_part(a, plan.a, plan.spare)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1024


def test_ldl_verdict_peaks_at_about_two_matrices():
    import tracemalloc

    rng = np.random.default_rng(9)
    # a passing 300-wide Gram (1.44 MB) gets a throwaway plan of two
    # matrices; a failing Gram of the widest kept width (0.26 MB) reuses its
    # width's plan and back-substitutes its witness there, copying no factors
    for n, shift in ((300, 0.0), (eig._MAX_KEPT_WIDTH, -0.5)):
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g = b @ b.conj().T / n + shift * np.eye(n)
        assert ldl_verdict(g, 1e-9).psd == (shift == 0)
        tracemalloc.start()
        try:
            ldl_verdict(g, 1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (3.3e6 if shift == 0 else 0.75 * g.nbytes), n


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10**6))
def test_psd_gram_matrices_have_nonnegative_spectrum(n, seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g = b @ b.conj().T
    assert min_eigenvalue(g) > -1e-10 * np.abs(g).max()


@pytest.mark.parametrize("text", ["szego_disc()", "jet(szego_disc(), szego_disc(), 1)"])
def test_near_singular_grams_match_the_numpy_oracle(text):
    # these Grams have eigenvalues down to ~1e-16
    g = gram(parse_kernel(text), sample_points(unit_disc(), 30, 23))
    got = eigenvalues(g)
    want = np.linalg.eigvalsh(g)
    assert np.abs(got - want).max() < 1e-12 * (1 + np.max(np.diag(g).real))


def test_running_out_of_sweeps_raises(monkeypatch):
    # one bisection pass narrows each bracket only 16-fold
    monkeypatch.setattr(eig, "_MAX_PASSES", 1)
    with pytest.raises(EvaluationError, match="no convergence in 1 passes"):
        eigenvalues(_random_hermitian(20, 5))


def test_non_monotone_sturm_counts_raise(monkeypatch):
    real = eig._has_negative_pivot
    monkeypatch.setattr(eig, "_has_negative_pivot", lambda *args: not real(*args))
    with pytest.raises(EvaluationError, match="Sturm counts not monotone"):
        eigenvalues(_random_hermitian(20, 5))


def test_running_out_of_ql_sweeps_raises(monkeypatch):
    # a 20-wide random matrix needs more than one sweep; the least
    # eigenvalue alone needs none
    monkeypatch.setattr(eig, "_MAX_SWEEPS", 0)
    h = _random_hermitian(20, 5)
    with pytest.raises(EvaluationError, match="no convergence"):
        eigenvalues(h)
    with pytest.raises(EvaluationError, match="no convergence"):
        eigenvalues(h, 2)
    assert eigenvalues(h, 1)[0] == min_eigenvalue(h)


@pytest.mark.parametrize("h,message", [
    (np.full((3, 3), 8e307), "overflows"),  # eigenvalue 2.4e308
])
def test_overflow_raises_without_warnings(h, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match=message):
            eigenvalues(h)


def test_entries_near_the_float_maximum_are_solved_without_warnings():
    # (a + a^H) / 2 would overflow here; the Hermitian part is halved first
    for off in (1.7e308, 1.7e308j):
        h = np.array([[0.0, off], [np.conj(off), 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.sort(eigenvalues(h))
        assert got == pytest.approx([-1.7e308, 1.7e308], rel=1e-15)


def test_zero_matrix_has_zero_spectrum():
    assert np.array_equal(eigenvalues(np.zeros((3, 3))), np.zeros(3))
    assert np.array_equal(eigenvalues(np.zeros((3, 3)), 2), np.zeros(2))


def test_empty_matrix_has_an_empty_spectrum_and_no_least_eigenvalue():
    assert eigenvalues(np.zeros((0, 0))).shape == (0,)
    with pytest.raises(ValueError, match="matrix is empty"):
        min_eigenvalue(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="matrix is empty"):
        eigenvalues(np.zeros((0, 0)), 1)


def _spectral_family(kind, n, rng):
    """A Hermitian test matrix of one of the shapes bisection finds hard."""
    if kind == "random":
        return _random_hermitian(n, rng.integers(2**32))
    if kind == "rank_deficient":
        b = rng.standard_normal((n, n // 2)) + 1j * rng.standard_normal((n, n // 2))
        return b @ b.conj().T
    if kind == "repeated":
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return (q * rng.choice([-1.0, 0.0, 2.0], n)) @ q.conj().T
    if kind == "integer_diagonal":
        # exact pivots: the search's shifts land on diagonal entries
        return np.diag(rng.integers(-5, 6, n).astype(float))
    # block diagonal, so the tridiagonal form splits (some e_k = 0)
    g = np.zeros((n, n), dtype=complex)
    cuts = np.unique(np.r_[0, rng.integers(1, n + 1, 3), n])
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        g[lo:hi, lo:hi] = _random_hermitian(hi - lo, rng.integers(2**32))
    return g


def _scaled(g, scaling, rng):
    """`g` as is, times one power of ten, or graded by powers of ten."""
    if scaling == "uniform":
        return g * 10.0 ** rng.integers(-150, 151)
    if scaling == "graded":
        d = 10.0 ** rng.uniform(-150, 150, g.shape[0])
        return d[:, None] * g * d[None, :]
    return g


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["random", "rank_deficient", "repeated", "block_diagonal"]),
    st.integers(1, 60),
    st.sampled_from(["none", "uniform", "graded"]),
    st.integers(0, 2**32 - 1),
)
@example("random", 5, "graded", 42)  # alpha loses entries whose squares underflow
@example("random", 12, "graded", 35)
def test_eigenvalues_match_the_numpy_oracle(kind, n, scaling, seed):
    rng = np.random.default_rng(seed)
    g = _scaled(_spectral_family(kind, n, rng), scaling, rng)
    want = np.linalg.eigvalsh(g)
    got = eigenvalues(g)
    assert np.all(np.diff(got) >= 0)
    assert np.abs(got - want).max() <= 1e-12 * (1 + np.abs(want).max())


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["random", "rank_deficient", "repeated", "block_diagonal"]),
    st.integers(1, 60),
    st.sampled_from(["none", "uniform", "graded"]),
    st.floats(0, 1),
    st.integers(0, 2**32 - 1),
)
def test_the_least_eigenvalues_match_the_numpy_oracle(kind, n, scaling, fraction, seed):
    rng = np.random.default_rng(seed)
    g = _scaled(_spectral_family(kind, n, rng), scaling, rng)
    k = 1 + int(fraction * (n - 1))
    want = np.linalg.eigvalsh(g)
    scale = 1 + np.abs(want).max()
    got = eigenvalues(g, np.int64(k))
    assert got.shape == (k,) and np.all(np.diff(got) >= 0)
    assert np.abs(got - want[:k]).max() <= 1e-12 * scale
    # every request takes the least eigenvalue from the same search
    assert abs(min_eigenvalue(g) - eigenvalues(g)[0]) <= 1e-15 * scale


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["random", "rank_deficient", "repeated", "block_diagonal", "integer_diagonal"]),
    st.integers(1, 60),
    st.sampled_from(["none", "uniform", "graded"]),
    st.integers(0, 2**32 - 1),
)
@example("integer_diagonal", 12, "none", 0)  # shifts 0.0 and -0.625 are pivots of 0
def test_min_eigenvalue_equals_the_multisection(kind, n, scaling, seed):
    rng = np.random.default_rng(seed)
    g = _scaled(_spectral_family(kind, n, rng), scaling, rng)
    assert min_eigenvalue(g) == min_eigenvalue_by_multisection(g)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["random", "rank_deficient", "repeated", "block_diagonal", "integer_diagonal"]),
    st.integers(1, 60),
    st.sampled_from(["none", "uniform", "graded"]),
    st.integers(0, 2**32 - 1),
)
@example("integer_diagonal", 12, "none", 0)
def test_ql_spectra_match_the_multisection(kind, n, scaling, seed):
    # both refine the same tridiagonal form; the multisection's brackets are
    # 2 eps ||T|| wide and QL's error is of order n eps ||T|| (Parlett, 8.15);
    # over 1500 draws the worst difference was 0.91 n eps ||G||
    rng = np.random.default_rng(seed)
    g = _scaled(_spectral_family(kind, n, rng), scaling, rng)
    got, want = eigenvalues(g), spectrum_by_multisection(g)
    assert got.shape == want.shape and np.all(np.diff(got) >= 0)
    assert np.abs(got - want).max() <= 4 * n * np.finfo(float).eps * np.abs(want).max()
    assert got[0] == min_eigenvalue(g)


#: (d, e, sorted eigenvalues) with the eigenvalues as LAPACK's dsterf returns
#: them (recorded through scipy.linalg.lapack); graded_down runs dsterf's QR
#: branch, split has negligible off-diagonals, and quarters needs dlapy2's
#: rounding of the shift (math.hypot rounds it differently)
_DSTERF = {
    "quarters": (
        [0.75, 0.0, 0.75, -1.25, 0.5, 1.25, -0.5, -0.25],
        [2.25, 2.0, 2.25, 1.0, 1.75, 2.25, 1.5],
        [-3.5429990119559593, -2.8869697293644747, -1.8341019907447242, -0.49303266764655757,
         0.8666922886523573, 1.7083631197081333, 3.59208103635633, 3.8399669549948943],
    ),
    "graded_down": (
        [10.0**-k for k in range(0, 16, 2)],
        [3 * 10.0**-k for k in range(1, 15, 2)],
        [-0.07392621845063213, -3.2003932248531564e-06, -1.4331105758647196e-10,
         -1.960606606678421e-15, 7.2093178546880475e-12, 3.773034478304734e-08,
         0.0002163486247539306, 1.083814042725872],
    ),
    "wilkinson": (
        [float(abs(k)) for k in range(-5, 6)],
        [1.0] * 10,
        [-1.1254410610962684, 0.25384245441942765, 0.947814196002671, 1.7922671094770624,
         2.1355474411318225, 3.0000000000000004, 3.0819770319979067, 4.207732890522938,
         4.213870558154004, 5.746157545580572, 5.746231833809865],
    ),
    "split": (
        [2.0, -1.0, 0.5, 3.0, 3.0, -2.0, 1.0],
        [0.5, 0.0, 1.5, 1e-20, 2.0, 0.25],
        [-2.7165405994363514, -1.0811388300841895, -0.20256241897666355, 1.0124379255815799,
         2.08113883008419, 3.702562418976664, 3.704102673854771],
    ),
}


@pytest.mark.parametrize("name", sorted(_DSTERF))
def test_the_root_free_ql_reproduces_lapack_dsterf(name):
    d, e, want = _DSTERF[name]
    assert eig._root_free_ql(np.array(d), np.array(e)).tolist() == want


def test_a_tiny_block_is_scaled_up_before_its_squares_underflow():
    # off-diagonals of 1e-200 square to 0: unscaled, QL would return the diagonal
    rng = np.random.default_rng(3)
    d, e = 1e-200 * rng.standard_normal(12), 1e-200 * rng.random(11)
    want = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    got = eig._root_free_ql(d, e)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(["szego_disc()", "jet(szego_disc(), szego_disc(), 1)"]),
    st.integers(2, 40),
    st.integers(0, 2**32 - 1),
)
@example("szego_disc()", 30, 23)
@example("jet(szego_disc(), szego_disc(), 1)", 30, 23)
def test_near_singular_min_eigenvalues_equal_the_multisection(text, n, seed):
    g = gram(parse_kernel(text), sample_points(unit_disc(), n, seed))
    assert min_eigenvalue(g) == min_eigenvalue_by_multisection(g)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 150),
    st.integers(1, 2250),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example(150, 2250, False, 0)
@example(150, 2250, True, 0)
def test_the_early_exit_pivot_test_is_a_guarded_count_of_at_least_one(n, width, coupled, seed):
    # integer diagonals and shifts placed on diagonal entries make pivots
    # that are exactly zero; without off-diagonals every such shift does
    rng = np.random.default_rng(seed)
    d = rng.integers(-5, 6, n).astype(float)
    e2 = rng.integers(0, 3, n - 1).astype(float) if coupled else np.zeros(n - 1)
    x = np.where(rng.random(width) < 0.5, rng.choice(d, width), rng.uniform(-6, 6, width))
    pivmin, ds, e2s = oracles._pivmin(e2), d.tolist(), e2.tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [eig._has_negative_pivot(ds, e2s, shift, pivmin) for shift in x.tolist()]
        want = oracles._guarded_counts(d, e2, x) >= 1
    assert got == want.tolist()



@pytest.mark.parametrize("count", [0, -1, 4, 1.5, 2.0, "1", True, False])
def test_a_count_outside_one_to_n_raises(count):
    with pytest.raises(ValueError, match="count must be an integer in 1..3"):
        eigenvalues(np.eye(3), count)


def _lapack_verdict(g, tol):
    """(verdict, distance to the threshold) from numpy's eigvalsh."""
    lam = np.linalg.eigvalsh(g)[0]
    tau = tol * (1 + np.max(np.diag(g).real))
    return lam >= -tau, abs(lam + tau)


def _assert_witness(g, res):
    """A failing verdict's witness is a negative direction of G + shift I."""
    v = res.witness
    assert v.shape == (g.shape[0],)
    assert np.all(v[res.pivot + 1 :] == 0) and v[res.pivot] == 1
    quad = np.vdot(v, g @ v).real
    norm2 = np.vdot(v, v).real
    assert quad < -res.shift * norm2
    assert res.rayleigh == pytest.approx(quad / norm2, rel=1e-12, abs=1e-300)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 24),
    st.integers(0, 6),
    st.floats(-1.0, 1.0),
    st.integers(-9, 1),
    st.sampled_from([1e-9, 1e-6]),
    st.integers(0, 2**32 - 1),
)
def test_ldl_verdict_matches_the_eigenvalue_verdict(n, deficiency, mantissa, exponent, tol, seed):
    # PSD of rank n - deficiency (scaled up to ~50), plus a shift of any
    # sign and magnitude
    rng = np.random.default_rng(seed)
    r = max(n - deficiency, 0)
    b = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    g = b @ b.conj().T * rng.uniform(0.1, 2.0) + mantissa * 10.0**exponent * np.eye(n)
    want, gap = _lapack_verdict(g, tol)
    assume(gap > 1e-8 * (1 + np.max(np.diag(g).real)))
    res = ldl_verdict(g, tol)
    assert res.psd == want
    assert res.shift == tol * (1 + np.max(np.diag(g).real))
    # Sylvester: the inertia of G + shift I decides both verdicts
    assert res.psd == (eigenvalues(g)[0] >= -res.shift)
    if res.psd:
        assert res.witness is None and res.pivot is None
    else:
        _assert_witness(g, res)


def _first_failing_block(a, gap):
    """The first k for which the leading (k + 1) block of A is not positive
    definite (numpy's eigvalsh), None if there is none; the run is rejected
    when some block up to it has its least eigenvalue within `gap` of 0."""
    for k in range(a.shape[0]):
        lam = np.linalg.eigvalsh(a[: k + 1, : k + 1])[0]
        assume(abs(lam) > gap)
        if lam < 0:
            return k
    return None


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 120),
    st.integers(0, 6),
    st.floats(-1.0, 1.0),
    st.integers(-9, 1),
    st.sampled_from([1e-9, 1e-6]),
    st.integers(0, 2**32 - 1),
)
@example(120, 4, -1.0, -3, 1e-9, 7)
@example(120, 0, 1.0, -2, 1e-9, 8)
def test_left_looking_ldl_matches_the_right_looking_elimination(
    n, deficiency, mantissa, exponent, tol, seed
):
    # the families of test_ldl_verdict_matches_the_eigenvalue_verdict
    rng = np.random.default_rng(seed)
    r = max(n - deficiency, 0)
    b = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    g = b @ b.conj().T * rng.uniform(0.1, 2.0) + mantissa * 10.0**exponent * np.eye(n)
    want = ldl_verdict_right_looking(g, tol)
    res = ldl_verdict(g, tol)
    assert res.shift == want.shift
    # the elimination breaks down at the first leading block of G + shift I
    # that is not positive definite; both forms find it unless some block
    # is within rounding of singular
    maxdiag = np.max(np.diag(g).real)
    pivot = _first_failing_block(hermitian_part(g) + res.shift * np.eye(n),
                                 1e-8 * (1 + maxdiag))
    assert res.psd == want.psd == (pivot is None)
    assert res.pivot == want.pivot == pivot
    if not res.psd:
        _assert_witness(g, res)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 24),
    st.integers(1, 6),
    st.sampled_from(["ulp up", "ulp down", "tau"]),
    st.floats(-1e-3, 1e-3),
    st.sampled_from([0.0, 1e-12, 1e-9]),
    st.integers(0, 2**32 - 1),
)
def test_the_elimination_pivot_is_the_verdict_pivot(n, deficiency, move, offset, tol, seed):
    # a PSD matrix of rank n - deficiency, its diagonal moved by one ulp, or
    # shifted so that -lambda_min = (1 + offset) tau
    rng = np.random.default_rng(seed)
    r = max(n - deficiency, 0)
    b = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    g = b @ b.conj().T
    if move == "tau":
        f = 1 + offset
        c = tol * f * (1 + np.max(np.diag(g).real)) / (1 + tol * f)
        g -= c * np.eye(n)
    else:
        g.flat[:: n + 1] = np.nextafter(g.diagonal().real, np.inf if move == "ulp up" else -np.inf)
    pivot = ldl_pivot(n, _filler(g), tol)
    res = ldl_verdict(g, tol)
    assert res.shift == oracles.ldl_eliminate_unplanned(g, tol)[2]
    assert pivot == res.pivot
    assert (pivot is None) == res.psd


@pytest.mark.parametrize("tol, error", [
    (float("nan"), ValueError), (-1.0, ValueError), (-1e-300, ValueError),
    (float("inf"), ValueError), ("1e-9", TypeError), (True, TypeError),
])
def test_ldl_verdict_refuses_a_tol_that_is_negative_or_not_finite(tol, error):
    with pytest.raises(error, match="^tol must be "):
        ldl_verdict(np.eye(2), tol)
    assert ldl_verdict(np.eye(2), 0.0).psd


def test_ldl_verdict_on_small_matrices():
    assert ldl_verdict(np.eye(3), 1e-9).psd
    assert ldl_verdict(np.zeros((2, 2)), 1e-9).psd  # 0 >= -tol
    res = ldl_verdict(np.diag([2.0, -1.0, 3.0]), 1e-9)
    assert not res.psd and res.pivot == 1
    assert np.array_equal(res.witness, [0, 1, 0])
    assert res.rayleigh == -1.0
    # [[1, 2], [2, 1]] has eigenvalues -1, 3; the pivot 1 - 4 = -3 fails
    res = ldl_verdict(np.array([[1.0, 2.0j], [-2.0j, 1.0]]), 1e-9)
    assert not res.psd and res.pivot == 1
    _assert_witness(np.array([[1.0, 2.0j], [-2.0j, 1.0]]), res)


def test_ldl_verdict_rejects_bad_input():
    with pytest.raises(ValueError):
        ldl_verdict(np.ones((2, 3)), 1e-9)
    with pytest.raises(ValueError, match="matrix is empty"):
        ldl_verdict(np.zeros((0, 0)), 1e-9)
    with pytest.raises(EvaluationError):
        ldl_verdict(np.array([[1.0, np.nan], [np.nan, 1.0]]), 1e-9)


@pytest.mark.parametrize("solve", [min_eigenvalue, eigenvalues, lambda h: ldl_verdict(h, 1e-9)],
                         ids=["min_eigenvalue", "eigenvalues", "ldl_verdict"])
@pytest.mark.parametrize("h", [[[10**400]], [[1.0, -10**400], [0.0, 1.0]], "ab",
                               [[1.0, 2.0], [3.0]], [[object()]], [[0.1, "0.2"], [1, 1]],
                               [[None, 0.0], [0.0, 1.0]], [[True, False], [False, True]]],
                         ids=["10^400", "-10^400 entry", "string", "ragged", "object",
                              "numeric string entry", "None entry", "bools"])
def test_a_malformed_matrix_is_refused_by_name(solve, h):
    # it used to end in a bare OverflowError or in numpy's own words; a
    # numeric string entry was parsed (min_eigenvalue gave -0.2), None was
    # read as NaN and refused as non-finite, and bools were read as 0 and 1
    with pytest.raises(ValueError) as info:
        solve(h)
    assert str(info.value) == "matrix is not an array of numbers within the float range"


def test_only_one_check_out_refuses_an_empty_matrix():
    with pytest.raises(ValueError, match="^matrix is empty: there is no verdict to give$"):
        eig._checkout(0)


def test_a_plan_is_released_when_its_block_raises():
    with pytest.raises(RuntimeError):
        with eig._checkout(12) as plan:
            raise RuntimeError
    assert not plan.busy.locked()
    with eig._checkout(12) as again:
        assert again is plan  # the kept plan, free again


def test_ldl_pivot_refuses_an_empty_matrix_as_ldl_verdict_does():
    # it used to end in numpy's "zero-size array to reduction operation"
    def fill(out):
        raise AssertionError("an empty matrix is refused before it is filled")

    with pytest.raises(ValueError, match="^matrix is empty: there is no verdict to give"):
        ldl_pivot(0, fill, 1e-9)


@pytest.mark.parametrize("scale", [1.0, 1e160, 1e300])
def test_ldl_pivot_refuses_exactly_the_grams_with_an_entry_that_is_not_finite(scale):
    # the one-sum check overflows on finite entries past 1e154; only then
    # does it look at each entry
    g = _plan_input("indefinite", 6, 1.0, 8) * scale
    with np.errstate(all="ignore"):
        assert ldl_pivot(6, _filler(g), 1e-9) == ldl_verdict(g, 1e-9).pivot
    for bad in (np.inf, -np.inf, np.nan, complex(0, np.inf)):
        h = g.copy()
        h[4, 1] = bad
        with pytest.raises(EvaluationError, match="non-finite"):
            ldl_pivot(6, lambda out: np.copyto(out, h), 1e-9)


def _filler(g):
    """A `ldl_pivot` fill that writes the Hermitian part of g into the
    plan's factor buffer, as `ldl_verdict` copies g in."""
    def fill(out):
        hermitian_part(g, out)

    return fill


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _plan_input(kind: str, n: int, scale: float, seed: int) -> np.ndarray:
    """A matrix of one of the kinds the step plans must not change the
    answers on; "general" is not Hermitian, so the copy-in symmetrizes it."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "positive definite":
        a = b @ b.conj().T / n + 0.1 * np.eye(n)
    elif kind == "indefinite":
        a = (b + b.conj().T) / 2
    elif kind == "general":
        a = b
    elif kind == "zero columns":  # column 0 and others zeros of both signs
        a = (b + b.conj().T) / 2
        zero = rng.random(n) < 0.5
        zero[0] = True
        zeros = np.empty((n, n), dtype=complex)
        zeros.real, zeros.imag = np.copysign(0.0, rng.standard_normal((2, n, n)))
        a[zero, :], a[:, zero] = zeros[zero, :], zeros[:, zero]
        a[zero, zero] = rng.standard_normal(np.count_nonzero(zero))
    else:  # "diagonal": every column is zero below the diagonal
        a = np.diag(rng.standard_normal(n))
    return a * scale


_PLAN_KINDS = ["positive definite", "indefinite", "general", "zero columns", "diagonal"]
# entries near 1e300, ordinary ones and subnormal ones (1e-310 * N(0, 1))
_PLAN_SCALES = [1.0, 1e300, 1e-310]


def _planned_elimination(a, tol):
    """(the pivot, a copy of every factor, tau) of `_eliminate` on a plan
    checked out and loaded as `ldl_verdict` checks out and loads one."""
    a = eig._checked_square(a)
    with eig._checkout(len(a)) as plan:
        hermitian_part(a, plan.a, plan.spare)
        pivot, shift = eig._eliminate(plan, tol)
        return pivot, plan.a.copy(), shift


def _assert_planned_answers_are_the_unplanned(a, tol):
    with np.errstate(all="ignore"):  # 1e300 entries overflow both ways alike
        pivot, factors, shift = _planned_elimination(a, tol)
        want_pivot, want_factors, want_shift = oracles.ldl_eliminate_unplanned(a, tol)
        reduced = eig._scaled_tridiagonal(a)
        want_reduced = oracles.scaled_tridiagonal_unplanned(a)
    assert pivot == want_pivot
    assert _same_bits(factors, want_factors)
    assert _same_bits(shift, want_shift)
    assert (reduced is None) == (want_reduced is None)
    if reduced is not None:
        (d, e, exponent), (want_d, want_e, want_exponent) = reduced, want_reduced
        assert exponent == want_exponent
        assert _same_bits(d, want_d) and _same_bits(e, want_e)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 64),
    st.sampled_from(_PLAN_KINDS),
    st.sampled_from(_PLAN_SCALES),
    st.sampled_from([1e-9, 1e-6, 0.0]),
    st.integers(0, 2**32 - 1),
)
@example(1, "general", 1.0, 1e-9, 0)
@example(64, "indefinite", 1e300, 1e-9, 1)
@example(64, "zero columns", 1e-310, 1e-9, 2)
@example(2, "diagonal", 1.0, 0.0, 3)
def test_the_planned_loops_give_the_unplanned_answers_bit_for_bit(n, kind, scale, tol, seed):
    # the pivot, every factor, tau, the tridiagonal (d, e) and its scaling
    _assert_planned_answers_are_the_unplanned(_plan_input(kind, n, scale, seed), tol)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([1, 2, 7, 8, 33]), st.sampled_from(_PLAN_KINDS),
                  st.integers(0, 2**32 - 1)),
        min_size=2, max_size=12,
    )
)
def test_repeated_and_interleaved_widths_reuse_plans_without_changing_answers(calls):
    # a plan keeps whatever the last call at its width left in its buffers
    for n, kind, seed in calls:
        _assert_planned_answers_are_the_unplanned(_plan_input(kind, n, 1.0, seed), 1e-9)


def test_threads_running_same_width_solves_get_the_sequential_answers():
    # more threads than cores, switching often, all on one width: a plan
    # held by two calls at once would mix their workspaces
    import sys
    import threading

    threads_n = 4
    grams = [[_plan_input(kind, 24, 1.0, 100 * t + i) for i, kind in enumerate(_PLAN_KINDS * 30)]
             for t in range(threads_n)]

    def solve(g):
        res = ldl_verdict(g, 1e-9)
        witness = None if res.witness is None else res.witness.tobytes()
        return (ldl_pivot(len(g), _filler(g), 1e-9), res.pivot, res.shift, witness,
                res.rayleigh, eigenvalues(g).tobytes())

    want = [[solve(g) for g in gs] for gs in grams]
    got = [[] for _ in range(threads_n)]
    start = threading.Barrier(threads_n)

    def run(t):
        start.wait()
        got[t].extend(solve(g) for g in grams[t])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(t,)) for t in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want


def test_plans_are_kept_for_a_bounded_number_of_widths():
    eig._kept.cache_clear()
    for n in range(1, 3 * eig._KEPT_WIDTHS + 1):
        ldl_verdict(np.eye(n), 1e-9)
        eigenvalues(np.eye(n), 1)
        assert eig._kept.cache_info().currsize <= eig._KEPT_WIDTHS
    # the most recently used widths are the ones kept
    info = eig._kept.cache_info()
    for n in range(2 * eig._KEPT_WIDTHS + 1, 3 * eig._KEPT_WIDTHS + 1):
        ldl_pivot(n, _filler(np.eye(n)), 1e-9)
    assert eig._kept.cache_info().hits == info.hits + eig._KEPT_WIDTHS
    assert eig._kept.cache_info().misses == info.misses
    wide = eig._MAX_KEPT_WIDTH + 1
    ldl_verdict(np.eye(wide), 1e-9)
    eigenvalues(np.eye(wide), 1)
    assert eig._kept.cache_info()[:2] == (info.hits + eig._KEPT_WIDTHS, info.misses)
    # a witness handed out is the caller's: a later call at its width does
    # not change it
    res = ldl_verdict(np.diag([1.0, -1.0, 1.0, 1.0, 1.0]), 1e-9)
    kept = res.witness.copy()
    ldl_verdict(np.ones((5, 5)) - 2 * np.eye(5), 1e-9)
    assert np.array_equal(res.witness, kept)


def test_a_solve_inside_a_fill_gets_the_sequential_answers():
    # the outer ldl_pivot holds its width's kept plan while fill runs, after
    # G is in the workspace: a solve at the same width inside fill must
    # build its own plan, or it would overwrite G
    g = _plan_input("indefinite", 12, 1.0, 4)
    h = _plan_input("positive definite", 12, 1.0, 5)
    want = (ldl_pivot(12, _filler(g), 1e-9), ldl_pivot(12, _filler(h), 1e-9),
            eigenvalues(h).tobytes())
    assert want[0] != want[1]
    inner = []

    def fill(out):
        _filler(g)(out)
        inner.append(ldl_pivot(12, _filler(h), 1e-9))
        inner.append(eigenvalues(h).tobytes())

    assert (ldl_pivot(12, fill, 1e-9), *inner) == want
