"""Tests for the SVD wrapper (Gram and LAPACK paths) and the call counter."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tarst.linalg import svd
from tarst.svht import mp_median


def test_svd_reconstructs():
    # u orthonormal and u diag(s^2) u^T == a a^T on both paths (tall,
    # square and wide shapes)
    rng = np.random.default_rng(1)
    for shape in [(6, 6), (4, 9), (9, 4), (1, 5), (7, 1), (5, 40)]:
        a = rng.standard_normal(shape)
        f = svd(a)
        q = min(shape)
        assert f.u.shape == (shape[0], q)
        assert f.s.shape == (q,)
        np.testing.assert_allclose(f.u.T @ f.u, np.eye(q), atol=1e-12)
        np.testing.assert_allclose(f.u @ np.diag(f.s ** 2) @ f.u.T, a @ a.T,
                                   rtol=1e-10, atol=1e-10)
        assert np.all(np.diff(f.s) <= 0)
        assert np.all(f.s >= 0)


def _wide_with_spectrum(rng, s, n):
    m = s.size
    q1 = np.linalg.qr(rng.standard_normal((m, m)))[0]
    q2 = np.linalg.qr(rng.standard_normal((n, m)))[0]
    return (q1 * s) @ q2.T


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10), st.integers(2, 6), st.floats(2.0, 100.0),
       st.integers(-600, 600), st.integers(0, 2 ** 32 - 1), st.data())
def test_svd_wide_well_conditioned_matches_lapack(m, widen, cond, exp2, seed, data):
    # geometric spectrum from 1 down to 1/cond: well above the Gram gate and
    # with a relative gap of at least 1 - cond**(-2/9) between neighbours
    rng = np.random.default_rng(seed)
    s_true = np.geomspace(1.0, 1.0 / cond, m)
    a = np.ldexp(_wide_with_spectrum(rng, s_true, widen * m), exp2)
    f = svd(a)
    u_ref, s_ref, _ = np.linalg.svd(a, full_matrices=False)
    np.testing.assert_allclose(f.s, s_ref, rtol=1e-10, atol=0)
    r = data.draw(st.integers(1, m))
    proj = f.u[:, :r] @ f.u[:, :r].T
    proj_ref = u_ref[:, :r] @ u_ref[:, :r].T
    np.testing.assert_allclose(proj, proj_ref, rtol=0, atol=1e-10)


def test_svd_wide_rank_deficient_takes_lapack_path():
    # exactly or nearly rank-deficient wide inputs fail the Gram conditioning
    # gate and must come back bit for bit as LAPACK computes them; the last
    # one (s_min / s_max = 1e-5) would lose ~6 digits of s_min on the Gram path
    rng = np.random.default_rng(3)
    low_rank = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 50))
    dup_row = rng.standard_normal((4, 30))
    dup_row[3] = dup_row[0]
    ill = _wide_with_spectrum(rng, np.geomspace(1.0, 1e-5, 6), 60)
    for a in (low_rank, dup_row, np.full((4, 16), 7.0), np.zeros((3, 12)), ill):
        f = svd(a)
        u_ref, s_ref, _ = np.linalg.svd(a, full_matrices=False)
        np.testing.assert_array_equal(f.s, s_ref)
        np.testing.assert_array_equal(f.u, u_ref)


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_svd_wide_extreme_magnitudes(scale):
    rng = np.random.default_rng(4)
    g = rng.standard_normal((6, 50))
    a = scale * g
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
        warnings.simplefilter("error")
        f = svd(a)
    s_ref = np.linalg.svd(a, compute_uv=False)
    np.testing.assert_allclose(f.s, s_ref, rtol=1e-12, atol=0)
    np.testing.assert_allclose(f.u @ f.u.T, np.eye(6), atol=1e-12)


def test_svd_gram_path_scales_exactly_by_powers_of_two(monkeypatch):
    # a Gaussian block, and a spectrum as spread as a denoising unfolding with
    # a strong constant-mean component (lambda_min / lambda_max ~ 1e-5)
    rng = np.random.default_rng(5)
    gauss = rng.standard_normal((5, 40))
    spread = _wide_with_spectrum(rng, np.geomspace(1.0, 3e-3, 5), 40)

    def no_lapack(*args, **kwargs):
        raise AssertionError("wide well-conditioned input left the Gram path")

    monkeypatch.setattr(np.linalg, "svd", no_lapack)
    for a in (gauss, spread):
        base = svd(a)
        for k in (-1000, -37, 1, 52, 1000):
            f = svd(np.ldexp(a, k))
            np.testing.assert_array_equal(f.s, np.ldexp(base.s, k))
            np.testing.assert_array_equal(f.u, base.u)


def test_svd_identity_and_rank_one():
    f = svd(np.eye(4))
    np.testing.assert_allclose(f.s, np.ones(4), atol=1e-12)
    g = svd(np.outer([3.0, 4.0], [1.0, 0.0, 0.0]))
    assert g.s[0] == pytest.approx(5.0, rel=1e-12)
    np.testing.assert_allclose(g.s[1:], 0.0, atol=1e-12)


def test_svd_of_zeros_has_zero_spectrum():
    f = svd(np.zeros((5, 3)))
    np.testing.assert_array_equal(f.s, np.zeros(3))


def test_singular_values_invariant_under_orthonormal_maps():
    # left-multiplying by a taller orthonormal-column matrix keeps the spectrum
    rng = np.random.default_rng(2)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 6))
        x = rng.standard_normal((m, n))
        q = np.linalg.qr(rng.standard_normal((m + int(rng.integers(0, 4)), m)))[0]
        s0 = svd(x).s
        s1 = svd(q @ x).s
        # a taller product may carry extra trailing zeros in its thin spectrum
        np.testing.assert_allclose(s1[: s0.size], s0, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(s1[s0.size:], 0.0, atol=1e-10)


def test_svd_rejects_bad_input():
    with pytest.raises(ValueError, match="expects a matrix"):
        svd(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        svd(np.array([[1.0, np.nan]]))


@pytest.mark.parametrize("shape", [(3, 8), (8, 3), (4, 4)])  # wide (Gram path), tall, square
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_svd_rejects_a_non_finite_entry_without_counting(shape, bad, where):
    a = np.random.default_rng(5).standard_normal(shape)
    a.flat[{"first": 0, "middle": a.size // 2, "last": a.size - 1}[where]] = bad
    with pytest.raises(ValueError, match=r"^svd input has non-finite entries$"):
        svd(a)


def test_gaussian_median_tracks_marchenko_pastur():
    # for a square standard Gaussian, median(s)/sqrt(n) -> sqrt(mp median)
    g = np.random.default_rng(0).standard_normal((200, 200))
    med = np.median(svd(g).s) / np.sqrt(200.0)
    assert med == pytest.approx(np.sqrt(mp_median(1.0)), rel=0.05)
