import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from kernelcalc.eig import hermitian_part, jacobi_eigenvalues, ldl_verdict, min_eigenvalue
from kernelcalc.errors import EvaluationError
from kernelcalc.geometry import sample_points, unit_disc
from kernelcalc.parser import parse_kernel
from kernelcalc.positivity import gram


def _random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def test_diagonal_matrix_is_its_own_spectrum():
    d = np.diag([3.0, -1.0, 0.5])
    assert sorted(jacobi_eigenvalues(d)) == pytest.approx([-1.0, 0.5, 3.0])
    assert min_eigenvalue(d) == pytest.approx(-1.0)


@pytest.mark.parametrize("n,seed", [(2, 0), (5, 1), (10, 2), (40, 3), (80, 4)])
def test_matches_the_numpy_oracle(n, seed):
    h = _random_hermitian(n, seed)
    got = np.sort(jacobi_eigenvalues(h))
    want = np.linalg.eigvalsh(h)
    scale = max(1.0, np.abs(want).max())
    assert np.abs(got - want).max() < 1e-10 * scale


def test_spectrum_is_invariant_under_unitary_conjugation():
    h = _random_hermitian(12, 7)
    q, _ = np.linalg.qr(_random_hermitian(12, 8) + 1j * np.eye(12))
    got = np.sort(jacobi_eigenvalues(q @ h @ q.conj().T))
    want = np.sort(jacobi_eigenvalues(h))
    assert np.abs(got - want).max() < 1e-10


def test_trace_and_frobenius_identities():
    h = _random_hermitian(15, 11)
    eigs = jacobi_eigenvalues(h)
    assert np.sum(eigs) == pytest.approx(np.trace(h).real)
    assert np.sum(eigs ** 2) == pytest.approx(np.linalg.norm(h, "fro") ** 2)


def test_rank_one_gram_matrix():
    v = np.array([1.0, 2.0j, -1.0])
    g = np.outer(v, v.conj())
    eigs = np.sort(jacobi_eigenvalues(g))
    assert eigs[:-1] == pytest.approx([0.0, 0.0], abs=1e-12)
    assert eigs[-1] == pytest.approx(6.0)


def test_hermitian_part():
    a = np.array([[1.0, 2.0 + 1j], [0.0, 3.0]])
    h = hermitian_part(a)
    assert np.abs(h - h.conj().T).max() == 0.0
    assert h[0, 1] == pytest.approx((2.0 + 1j) / 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10**6))
def test_psd_gram_matrices_have_nonnegative_spectrum(n, seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g = b @ b.conj().T
    assert min_eigenvalue(g) > -1e-10 * np.abs(g).max()


@pytest.mark.parametrize("text", ["szego_disc()", "jet(szego_disc(), szego_disc(), 1)"])
def test_near_singular_grams_match_the_numpy_oracle(text):
    # these Grams have eigenvalues down to ~1e-16; an off-diagonal norm taken
    # as total minus diagonal mass stops the sweeps at ~1e-6 and leaves
    # errors of ~1e-8
    g = gram(parse_kernel(text), sample_points(unit_disc(), 30, 23))
    got = jacobi_eigenvalues(g)
    want = np.linalg.eigvalsh(g)
    assert np.abs(got - want).max() < 1e-12 * (1 + np.max(np.diag(g).real))


def test_running_out_of_sweeps_raises():
    with pytest.raises(EvaluationError, match="did not converge"):
        jacobi_eigenvalues(_random_hermitian(20, 5), max_sweeps=1)


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
    if res.psd:
        assert res.witness is None and res.pivot is None
    else:
        _assert_witness(g, res)


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
    with pytest.raises(EvaluationError):
        ldl_verdict(np.array([[1.0, np.nan], [np.nan, 1.0]]), 1e-9)
