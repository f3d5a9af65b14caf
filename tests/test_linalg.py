"""Tests for the SVD wrapper (Gram and LAPACK paths)."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tarst import linalg
from tarst.bench import add_gaussian_noise, gen_lowrank_tensor
from tarst.decomp import tarst
from tarst.linalg import svd
from tarst.svht import MedianBased, mp_median
from tarst.tensor_ops import unfold


def test_svd_reconstructs():
    # u orthonormal and u diag(s^2) u^T == a a^T on both paths (tall,
    # square and wide shapes)
    rng = np.random.default_rng(1)
    for shape in [(6, 6), (4, 9), (9, 4), (1, 5), (7, 1), (5, 40)]:
        a = rng.standard_normal(shape)
        u_got, s_got = svd(a)
        q = min(shape)
        assert u_got.shape == (shape[0], q)
        assert s_got.shape == (q,)
        np.testing.assert_allclose(u_got.T @ u_got, np.eye(q), atol=1e-12)
        np.testing.assert_allclose(u_got @ np.diag(s_got ** 2) @ u_got.T, a @ a.T,
                                   rtol=1e-10, atol=1e-10)
        assert np.all(np.diff(s_got) <= 0)
        assert np.all(s_got >= 0)


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
    u_got, s_got = svd(a)
    u_ref, s_ref, _ = np.linalg.svd(a, full_matrices=False)
    np.testing.assert_allclose(s_got, s_ref, rtol=1e-10, atol=0)
    r = data.draw(st.integers(1, m))
    proj = u_got[:, :r] @ u_got[:, :r].T
    proj_ref = u_ref[:, :r] @ u_ref[:, :r].T
    np.testing.assert_allclose(proj, proj_ref, rtol=0, atol=1e-10)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10), st.integers(2, 6), st.floats(2.0, 100.0),
       st.integers(-600, 600), st.integers(0, 2 ** 32 - 1), st.data())
def test_svd_tall_well_conditioned_matches_lapack(n, widen, cond, exp2, seed, data):
    # the transposes of the wide test's inputs, factorized through a^T a
    rng = np.random.default_rng(seed)
    s_true = np.geomspace(1.0, 1.0 / cond, n)
    base = _wide_with_spectrum(rng, s_true, widen * n).T
    a = np.ldexp(base, exp2)
    u_got, s_got = svd(a)
    u_ref, s_ref, _ = np.linalg.svd(a, full_matrices=False)
    np.testing.assert_allclose(s_got, s_ref, rtol=1e-10, atol=0)
    r = data.draw(st.integers(1, n))
    proj = u_got[:, :r] @ u_got[:, :r].T
    proj_ref = u_ref[:, :r] @ u_ref[:, :r].T
    np.testing.assert_allclose(proj, proj_ref, rtol=0, atol=1e-10)
    np.testing.assert_allclose(u_got.T @ u_got, np.eye(n), rtol=0, atol=1e-10)
    np.testing.assert_array_equal(s_got, np.ldexp(svd(base)[1], exp2))


def _refined_lapack_s(a):
    """LAPACK's spectrum of a with every value past the first recomputed by
    a second LAPACK SVD of a projected off its leading singular vector. One
    call errs by ~eps * s_max in absolute terms, 1.3e-10 relative at
    s / s_max = 1e-6 as measured against 50-digit references; the refined
    values stayed within ~1e-11 of those."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    rest = a @ vt[1:].T if a.shape[0] > a.shape[1] else u[:, 1:].T @ a
    return np.concatenate((s[:1], np.linalg.svd(rest, compute_uv=False)))


def _assert_matches_lapack(a):
    """s within 1e-10 relative of LAPACK's, u^T u within 1e-10 of I, and the
    projectors on the leading r columns within 1e-10 wherever s_r - s_(r+1)
    >= 1e-4 s_max, so that LAPACK's own projector is good to ~eps * 1e4."""
    u_got, s_got = svd(a)
    u_ref, s_ref, _ = np.linalg.svd(a, full_matrices=False)
    np.testing.assert_allclose(s_got, _refined_lapack_s(a), rtol=1e-10, atol=0)
    np.testing.assert_allclose(u_got.T @ u_got, np.eye(s_got.size), rtol=0, atol=1e-10)
    gaps = s_ref - np.append(s_ref[1:], 0.0)
    for r in np.flatnonzero(gaps >= 1e-4 * s_ref[0]) + 1:
        proj = u_got[:, :r] @ u_got[:, :r].T
        proj_ref = u_ref[:, :r] @ u_ref[:, :r].T
        np.testing.assert_allclose(proj, proj_ref, rtol=0, atol=1e-10)


def _rejected_spectrum(kind, m, draw):
    """A spectrum with 1e-12 < lambda_min / lambda_max < 1e-6 whose values
    above s_min * 1e3 sit more than sqrt(2) above the rest."""
    if kind == "cluster":  # one dominant value over a tight cluster
        k = draw(st.floats(3.1, 5.9))
        return np.concatenate(([1.0], 10.0 ** -k * (1 + 1e-3 * np.linspace(-1, 1, m - 1))))
    if kind == "geometric":  # m = 6 puts s_3 at s_min * 1e3, on the split
        return np.geomspace(1.0, 1e-5, m)
    j = draw(st.integers(1, m - 1))  # mixed: a spread head over a spread tail
    head = np.geomspace(1.0, 10.0 ** -draw(st.floats(0.0, 1.0)), j)
    tail = np.geomspace(1.0, 10.0 ** draw(st.floats(0.0, 1.5)), m - j)[::-1]
    return np.concatenate((head, 10.0 ** -draw(st.floats(4.6, 5.9)) * tail))


def _linalg_calls(mp):
    """The numpy.linalg.svd and eigh calls made from now on, as (name, shape
    of the input) pairs."""
    calls = []

    def spy(name):
        fn = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return fn(a, *args, **kwargs)
        return call

    for name in ("svd", "eigh"):
        mp.setattr(np.linalg, name, spy(name))
    return calls


@pytest.mark.parametrize("tall", [False, True])
@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["cluster", "geometric", "mixed"]), st.integers(3, 10),
       st.integers(2, 6), st.integers(-600, 600), st.integers(0, 2 ** 32 - 1), st.data())
def test_svd_deflated_route_matches_lapack(tall, kind, m, widen, exp2, seed, data):
    # the plain Gram gate rejects these spectra; the deflated route, not
    # LAPACK, must factorize them: one eigh of the Gram matrix, one of the
    # deflated block
    rng = np.random.default_rng(seed)
    spectrum = _rejected_spectrum(kind, m, data.draw)
    a = _wide_with_spectrum(rng, spectrum, widen * spectrum.size)
    a = np.ldexp(a.T if tall else a, exp2)
    with pytest.MonkeyPatch.context() as mp:
        calls = _linalg_calls(mp)
        svd(a)
    assert [name for name, _ in calls] == ["eigh", "eigh"]
    _assert_matches_lapack(a)


@pytest.mark.parametrize("tall", [False, True])
def test_svd_keeps_a_value_on_the_deflation_split_on_the_gram_route(tall, monkeypatch):
    # s = 1 ... 1e-5 over six values puts lambda_3 at lambda_min / 1e-6
    # exactly, where the first eigensolve's roundoff on lambda_min decides
    # the side; counted within that roundoff it leads, and the deflated
    # block passes the gate on every seed
    calls = _linalg_calls(monkeypatch)
    for seed in range(200):
        a = _wide_with_spectrum(np.random.default_rng(seed), np.geomspace(1.0, 1e-5, 6), 40)
        a = a.T if tall else a
        del calls[:]
        svd(a)
        assert [name for name, _ in calls] == ["eigh", "eigh"], seed
        _assert_matches_lapack(a)


@pytest.mark.parametrize("tall", [False, True])
def test_svd_falls_to_lapack_when_the_deflated_block_fails_the_gate(tall, monkeypatch):
    # a spectrum the first gate rejects and deflation takes; when the
    # deflated block's Gram matrix fails the gate too, svd must return
    # LAPACK's factorization of the data
    a = _wide_with_spectrum(np.random.default_rng(5), np.geomspace(1.0, 1e-5, 6), 40)
    a = a.T if tall else a
    gated, seen = linalg._gated, []

    def second_rejects(lam):
        seen.append(lam.size)
        return gated(lam) and len(seen) == 1

    monkeypatch.setattr(linalg, "_gated", second_rejects)
    calls = _linalg_calls(monkeypatch)
    u_got, s_got = svd(a)
    assert [name for name, _ in calls] == ["eigh", "eigh", "svd"]
    assert len(seen) == 2
    u_ref, s_ref, _ = np.linalg.svd(a, full_matrices=False)
    np.testing.assert_allclose(s_got, s_ref, rtol=1e-10, atol=0)
    np.testing.assert_allclose(u_got, u_ref, rtol=0, atol=1e-10)


def test_svd_wide_rank_deficient_takes_lapack_path():
    # exactly or nearly rank-deficient wide inputs fail the Gram conditioning
    # gate and its deflation, and must come back bit for bit as LAPACK
    # computes them
    rng = np.random.default_rng(3)
    low_rank = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 50))
    dup_row = rng.standard_normal((4, 30))
    dup_row[3] = dup_row[0]
    for a in (low_rank, dup_row, np.full((4, 16), 7.0), np.zeros((3, 12))):
        u_got, s_got = svd(a)
        u_ref, s_ref, _ = np.linalg.svd(a, full_matrices=False)
        np.testing.assert_array_equal(s_got, s_ref)
        np.testing.assert_array_equal(u_got, u_ref)
    # s_min / s_max = 1e-5 fails the plain gate (the Gram path would lose ~6
    # digits of s_min) but is deflated, and agrees with LAPACK to 1e-10
    ill = _wide_with_spectrum(rng, np.geomspace(1.0, 1e-5, 6), 60)
    _assert_matches_lapack(ill)


@pytest.mark.parametrize("shape, ranks, sigma", [((100, 100, 100), (5, 5, 5), 0.1),
                                                 ((16, 16, 1024), (3, 3, 3), 0.25)])
def test_low_noise_unfoldings_stay_off_lapack(shape, ranks, sigma, monkeypatch):
    # a constant mean of 10 over noise this low puts lambda_min / lambda_max of
    # every unfolding (the 1024 x 256 one tall) near 1e-6, where the plain
    # Gram gate may reject it; the deflated route takes what it rejects
    y = add_gaussian_noise(gen_lowrank_tensor(shape, ranks, 10.0, 2.0, 1), sigma, 2)
    calls = _linalg_calls(monkeypatch)
    report = tarst(y, MedianBased())
    assert [shape for name, shape in calls if name == "svd"] == []
    assert report.estimated_ranks == tuple(r + 1 for r in ranks)


@pytest.mark.parametrize("kind", ["noiseless low-rank", "constant", "zero"])
def test_rank_deficient_unfoldings_still_reach_lapack(kind, monkeypatch):
    # a 4 x 4 x 64 tensor unfolds to two wide matrices and a tall one
    shape = (4, 4, 64)
    y = {"noiseless low-rank": gen_lowrank_tensor(shape, (2, 2, 2), 10.0, 2.0, 1),
         "constant": np.full(shape, 7.0), "zero": np.zeros(shape)}[kind]
    calls = _linalg_calls(monkeypatch)
    tarst(y, MedianBased())
    assert [shape for name, shape in calls if name == "svd"] == [(4, 256), (4, 256), (64, 16)]


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_svd_wide_extreme_magnitudes(scale):
    rng = np.random.default_rng(4)
    g = rng.standard_normal((6, 50))
    a = scale * g
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
        warnings.simplefilter("error")
        u_got, s_got = svd(a)
    s_ref = np.linalg.svd(a, compute_uv=False)
    np.testing.assert_allclose(s_got, s_ref, rtol=1e-12, atol=0)
    np.testing.assert_allclose(u_got @ u_got.T, np.eye(6), atol=1e-12)


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
        base_u, base_s = svd(a)
        for k in (-1000, -37, 1, 52, 1000):
            u_got, s_got = svd(np.ldexp(a, k))
            np.testing.assert_array_equal(s_got, np.ldexp(base_s, k))
            np.testing.assert_array_equal(u_got, base_u)


def _scaled_data_svd(a):
    """Reference for svd's wide path that scales the data, not its Gram
    matrix: scan for the peak, copy a scaled by the power of two putting it
    in [1/2, 1), form b b^T, eigh, and gate as svd does (LAPACK otherwise)."""
    peak = max(a.max(), -a.min())
    if peak > 0:
        e = np.frexp(peak)[1]
        b = np.ldexp(a, -e)
        lam, v = np.linalg.eigh(b @ b.T)
        lam, v = lam[::-1], v[:, ::-1]
        if lam[-1] >= linalg._GRAM_RCOND * lam[0]:
            with np.errstate(over="ignore"):  # s overflows near the float maximum
                return v, np.ldexp(np.sqrt(lam), e)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u, s


def _assert_same_bits_as_scaled_data(a):
    u_got, s_got = svd(a)
    u, s = _scaled_data_svd(a)
    np.testing.assert_array_equal(s_got, s)
    np.testing.assert_array_equal(u_got, u)


@pytest.mark.parametrize("scale", [1.0, 2.0 ** 600, 2.0 ** -600, 1e100, 1e-100,
                                   1e150, 1e-150, 1e200, 1e-200])
@pytest.mark.parametrize("shape", [(1, 7), (3, 6), (5, 40), (10, 100), (20, 400), (30, 900)])
def test_svd_wide_same_bits_as_scaling_the_data(shape, scale):
    # Gaussian, constant-mean (the spread spectrum of a denoised unfolding),
    # rank-one and constant inputs, on both sides of the conditioning gate
    rng = np.random.default_rng(shape[0] * shape[1])
    g = rng.standard_normal(shape)
    rank_one = np.outer(rng.standard_normal(shape[0]), rng.standard_normal(shape[1]))
    for a in (g, g + 4.0, rank_one, np.full(shape, -3.0)):
        _assert_same_bits_as_scaled_data(scale * a)


@pytest.mark.parametrize("d", [2.0 ** 900 * (1 - 1e-3), 2.0 ** 900 * (1 + 1e-3),
                               2.0 ** -900 * (1 - 1e-3), 2.0 ** -900 * (1 + 1e-3)])
def test_svd_wide_same_bits_at_the_edges_of_the_gram_range(d):
    rng = np.random.default_rng(8)
    for a in (rng.standard_normal((6, 50)), rng.standard_normal((4, 12)) + 1.0):
        b = a * np.sqrt(d / (a @ a.T).diagonal().max())  # largest diagonal of b b^T ~ d
        assert (b @ b.T).diagonal().max() == pytest.approx(d, rel=1e-12)
        _assert_same_bits_as_scaled_data(b)


@pytest.mark.parametrize("scale", [1e160, -1e160, 1e-160, 1.7e308, 1e-300])
def test_svd_wide_gram_overflow_and_underflow_match_without_warnings(scale, monkeypatch):
    # a a^T of these finite inputs (peak |entry| = |scale|) overflows (1e160:
    # products near 1e320) or underflows (1e-160: near 1e-320), so svd must
    # scale the data itself: it copies the m x n input through ldexp, bit for
    # bit as the reference does, and no numpy warning or FP error escapes
    g = np.random.default_rng(9).standard_normal((5, 40))
    a = g / np.abs(g).max() * scale
    ldexp_shapes = []
    ldexp = np.ldexp

    def spy(x, *args, **kwargs):
        ldexp_shapes.append(np.shape(x))
        return ldexp(x, *args, **kwargs)

    monkeypatch.setattr(np, "ldexp", spy)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        u_got, s_got = svd(a)
    assert a.shape in ldexp_shapes
    monkeypatch.undo()
    u, s = _scaled_data_svd(a)
    np.testing.assert_array_equal(s_got, s)
    np.testing.assert_array_equal(u_got, u)


@pytest.mark.parametrize("layout", ["C", "last-mode view"])
def test_svd_wide_makes_no_copy_of_the_data(layout):
    # the wide path forms a a^T from the unfolding as it lies in memory: a
    # scaled copy of the m x n data would show as a peak of ~1x its size
    rng = np.random.default_rng(10)
    if layout == "C":
        a = rng.standard_normal((100, 5000))
    else:
        t = rng.standard_normal((40, 40, 40))
        a = unfold(t, 2)
        assert a.flags.f_contiguous and np.shares_memory(a, t)
    svd(a)  # warm up lazy numpy/LAPACK set-up outside the traced call
    tracemalloc.start()
    try:
        svd(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * a.nbytes


def test_svd_identity_and_rank_one():
    u_got, s_got = svd(np.eye(4))
    np.testing.assert_allclose(s_got, np.ones(4), atol=1e-12)
    _, g_s = svd(np.outer([3.0, 4.0], [1.0, 0.0, 0.0]))
    assert g_s[0] == pytest.approx(5.0, rel=1e-12)
    np.testing.assert_allclose(g_s[1:], 0.0, atol=1e-12)


def test_svd_of_zeros_has_zero_spectrum():
    u_got, s_got = svd(np.zeros((5, 3)))
    np.testing.assert_array_equal(s_got, np.zeros(3))


def test_singular_values_invariant_under_orthonormal_maps():
    # left-multiplying by a taller orthonormal-column matrix keeps the spectrum
    rng = np.random.default_rng(2)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 6))
        x = rng.standard_normal((m, n))
        q = np.linalg.qr(rng.standard_normal((m + int(rng.integers(0, 4)), m)))[0]
        s0 = svd(x)[1]
        s1 = svd(q @ x)[1]
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
    med = np.median(svd(g)[1]) / np.sqrt(200.0)
    assert med == pytest.approx(np.sqrt(mp_median(1.0)), rel=0.05)
