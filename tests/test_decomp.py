"""Tests for HOSVD, HOOI, and the thresholding denoiser.

Exactness cases build a tensor from a known Tucker model and require the
decompositions to recover it to near machine precision; the statistical
behavior of the denoiser (rank discovery, degeneracy on pure noise) is
pinned at fixed seeds.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tarst.decomp import TuckerModel, hooi, hosvd, reconstruct, tarst
from tarst.linalg import svd_call_count
from tarst.svht import KnownSigma, MedianBased
from tarst.tensor_ops import frobenius_norm, multi_mode_product


def random_tucker(rng, shape, ranks, scale=1.0):
    """A tensor with exact multilinear rank ``ranks`` (w.p. 1)."""
    factors = [np.linalg.qr(rng.standard_normal((n, r)))[0]
               for n, r in zip(shape, ranks)]
    core = scale * rng.standard_normal(ranks)
    return multi_mode_product(core, factors)


def rel_err(est, truth):
    return frobenius_norm(est - truth) / frobenius_norm(truth)


# ---------------------------------------------------------------- exactness

def test_hosvd_full_ranks_is_lossless():
    rng = np.random.default_rng(0)
    for shape in [(5, 6, 7), (3, 4, 2, 5)]:
        y = rng.standard_normal(shape)
        model = hosvd(y, shape)
        assert rel_err(reconstruct(model), y) < 1e-12
        assert model.ranks == shape


def test_hosvd_recovers_exact_low_rank():
    rng = np.random.default_rng(1)
    x = random_tucker(rng, (6, 7, 8), (2, 3, 4))
    model = hosvd(x, (2, 3, 4))
    assert rel_err(reconstruct(model), x) < 1e-10
    assert model.ranks == (2, 3, 4)
    assert model.shape == (6, 7, 8)


def test_hosvd_factors_are_orthonormal():
    rng = np.random.default_rng(2)
    model = hosvd(rng.standard_normal((5, 6, 7)), (2, 3, 4))
    for u in model.factors:
        np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-12)


def test_hooi_recovers_exact_low_rank_in_two_sweeps():
    rng = np.random.default_rng(3)
    x = random_tucker(rng, (6, 7, 8), (2, 3, 4))
    model, fits = hooi(x, (2, 3, 4), return_fits=True)
    assert rel_err(reconstruct(model), x) < 1e-10
    assert len(fits) <= 2
    assert fits[-1] == pytest.approx(1.0, abs=1e-12)


def test_hooi_full_ranks_matches_hosvd():
    rng = np.random.default_rng(4)
    y = rng.standard_normal((4, 5, 6))
    a = reconstruct(hosvd(y, y.shape))
    b = reconstruct(hooi(y, y.shape))
    np.testing.assert_allclose(a, b, atol=1e-10)


def test_tarst_recovers_exact_low_rank_with_tiny_sigma():
    rng = np.random.default_rng(5)
    x = random_tucker(rng, (6, 7, 8), (2, 3, 4))
    report = tarst(x, KnownSigma(1e-10))
    assert report.estimated_ranks == (2, 3, 4)
    assert not report.degenerate
    assert rel_err(reconstruct(report.model), x) < 1e-10


# ------------------------------------------------------------------- hooi

def test_hooi_never_loses_to_hosvd():
    rng = np.random.default_rng(6)
    for _ in range(20):
        y = rng.standard_normal((5, 6, 7))
        ranks = tuple(int(r) for r in rng.integers(1, 5, size=3))
        e_hosvd = rel_err(reconstruct(hosvd(y, ranks)), y)
        e_hooi = rel_err(reconstruct(hooi(y, ranks)), y)
        assert e_hooi <= e_hosvd + 1e-9


def test_hooi_fit_monotone_nondecreasing():
    # the ALS objective never goes down, sweep over many random problems
    rng = np.random.default_rng(7)
    for _ in range(200):
        ndim = int(rng.integers(2, 4))
        shape = tuple(int(s) for s in rng.integers(2, 6, size=ndim))
        ranks = tuple(int(rng.integers(1, s + 1)) for s in shape)
        y = rng.standard_normal(shape)
        _, fits = hooi(y, ranks, tol=1e-12, max_iter=6, return_fits=True)
        assert all(b >= a - 1e-10 for a, b in zip(fits, fits[1:]))


def test_hooi_zero_input_is_handled():
    model = hooi(np.zeros((3, 4, 5)), (2, 2, 2))
    assert frobenius_norm(reconstruct(model)) == 0.0


def test_hooi_validation():
    y = np.zeros((3, 4, 5))
    with pytest.raises(ValueError, match="tol must be positive"):
        hooi(y, (1, 1, 1), tol=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        hooi(y, (1, 1, 1), max_iter=0)


# ------------------------------------------------------------------ tarst

def test_tarst_uses_exactly_one_svd_per_mode():
    rng = np.random.default_rng(8)
    for shape in [(6, 7, 8), (4, 4, 4, 4), (9, 30)]:
        y = rng.standard_normal(shape)
        before = svd_call_count()
        tarst(y, MedianBased())
        assert svd_call_count() - before == len(shape)


def test_tarst_strong_signal_rank_discovery():
    rng = np.random.default_rng(9)
    x = 100.0 * random_tucker(rng, (10, 10, 10), (3, 3, 3))
    y = x + rng.standard_normal(x.shape)
    for rule in (KnownSigma(1.0), MedianBased()):
        report = tarst(y, rule)
        assert report.estimated_ranks == (3, 3, 3)
        assert rel_err(reconstruct(report.model), x) < 3e-2


def test_tarst_pure_noise_degenerates_to_zero():
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        y = rng.standard_normal((20, 20, 20))
        report = tarst(y, KnownSigma(1.0))
        assert report.degenerate
        assert report.estimated_ranks == (0, 0, 0)
        assert frobenius_norm(reconstruct(report.model)) == 0.0


def test_tarst_all_zero_input_degenerates_under_both_rules():
    y = np.zeros((4, 5, 6))
    for rule in (MedianBased(), KnownSigma(1.0)):
        report = tarst(y, rule)
        assert report.degenerate
        assert report.estimated_ranks == (0, 0, 0)
        np.testing.assert_array_equal(reconstruct(report.model), y)


@pytest.mark.parametrize("c", [1.0, -3.7, 1e-300, 1e-200, 1e300])
def test_tarst_constant_tensor_has_rank_one(c):
    # roundoff singular values of a constant tensor sit below the
    # max(m, n) * eps * s_max floor, at every magnitude; the known sigma is
    # far below that floor, so only the floor keeps them out
    y = np.full((4, 4, 4), c)
    for rule in (MedianBased(), KnownSigma(abs(c) * 1e-20)):
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
            warnings.simplefilter("error")
            report = tarst(y, rule)
            est = reconstruct(report.model)
        assert report.estimated_ranks == (1, 1, 1)
        np.testing.assert_allclose(est, y, rtol=1e-12)


def test_tarst_report_bookkeeping():
    rng = np.random.default_rng(10)
    y = rng.standard_normal((5, 6, 7))
    report = tarst(y, MedianBased())
    assert report.retained_counts == report.estimated_ranks
    for k, (kept, dropped) in enumerate(zip(report.retained_counts,
                                            report.discarded_counts)):
        assert kept + dropped == min(y.shape[k], y.size // y.shape[k])
    assert len(report.thresholds) == 3
    assert all(t > 0 for t in report.thresholds)
    # ranks can never exceed the thin-SVD width of the unfolding
    for k, r in enumerate(report.estimated_ranks):
        assert r <= min(y.shape[k], y.size // y.shape[k])


def test_tarst_deterministic():
    rng = np.random.default_rng(11)
    y = rng.standard_normal((6, 5, 4))
    a = tarst(y, MedianBased())
    b = tarst(y, MedianBased())
    assert a.estimated_ranks == b.estimated_ranks
    assert a.thresholds == b.thresholds
    np.testing.assert_array_equal(reconstruct(a.model), reconstruct(b.model))


def test_tarst_mode_permutation_invariance():
    # permuting the tensor permutes the per-mode outcome, nothing else
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = 50.0 * random_tucker(rng, (6, 7, 8), (2, 2, 2))
        y = x + rng.standard_normal(x.shape)
        perm = tuple(rng.permutation(3))
        ra = tarst(y, MedianBased())
        rb = tarst(np.transpose(y, perm), MedianBased())
        assert rb.estimated_ranks == tuple(ra.estimated_ranks[p] for p in perm)
        assert rb.thresholds == pytest.approx(
            tuple(ra.thresholds[p] for p in perm), rel=1e-12)
        np.testing.assert_allclose(
            reconstruct(rb.model),
            np.transpose(reconstruct(ra.model), perm), atol=1e-8)


@settings(max_examples=250, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["known", "median"]),
       st.floats(0.1, 30.0))
def test_tarst_projection_never_grows_norm(seed, kind, scale):
    rng = np.random.default_rng(seed)
    shape = tuple(int(s) for s in rng.integers(2, 6, size=rng.integers(2, 4)))
    y = scale * rng.standard_normal(shape)
    rule = KnownSigma(scale) if kind == "known" else MedianBased()
    report = tarst(y, rule)
    assert frobenius_norm(reconstruct(report.model)) <= frobenius_norm(y) + 1e-9


def test_tarst_soft_variant_shrinks_spectrum():
    rng = np.random.default_rng(13)
    x = 100.0 * random_tucker(rng, (8, 8, 8), (2, 2, 2))
    y = x + rng.standard_normal(x.shape)
    hard = tarst(y, KnownSigma(1.0), shrink="hard")
    soft = tarst(y, KnownSigma(1.0), shrink="soft")
    # soft retention is at most hard retention per mode
    assert all(s <= h for s, h in zip(soft.estimated_ranks, hard.estimated_ranks))
    assert soft.thresholds == hard.thresholds


def test_tarst_validation():
    y = np.zeros((3, 3))
    with pytest.raises(TypeError, match="rule must be"):
        tarst(y, "median")
    with pytest.raises(ValueError, match="shrink must be"):
        tarst(y, MedianBased(), shrink="none")
    with pytest.raises(ValueError, match="non-finite"):
        tarst(np.array([[np.nan, 0.0]]), MedianBased())


# ------------------------------------------------------------- reconstruct

def test_reconstruct_identity_factors_returns_core():
    core = np.arange(24.0).reshape(2, 3, 4)
    model = TuckerModel(core=core, factors=[np.eye(2), np.eye(3), np.eye(4)])
    np.testing.assert_array_equal(reconstruct(model), core)


def test_reconstruct_zero_core_gives_zeros():
    rng = np.random.default_rng(14)
    factors = [np.linalg.qr(rng.standard_normal((5, 2)))[0] for _ in range(3)]
    model = TuckerModel(core=np.zeros((2, 2, 2)), factors=factors)
    assert frobenius_norm(reconstruct(model)) == 0.0


def test_reconstruct_validates_consistency():
    with pytest.raises(ValueError, match="core has"):
        reconstruct(TuckerModel(core=np.zeros((2, 2)), factors=[np.eye(2)] * 3))
    with pytest.raises(ValueError, match="factor 1"):
        reconstruct(TuckerModel(core=np.zeros((2, 3)),
                                factors=[np.eye(2), np.zeros((4, 2))]))


def test_rank_validation():
    y = np.zeros((3, 4, 5))
    with pytest.raises(ValueError, match="out of range"):
        hosvd(y, (0, 1, 1))
    with pytest.raises(ValueError, match="out of range"):
        hosvd(y, (1, 5, 1))
    with pytest.raises(ValueError, match="expected 3 ranks"):
        hosvd(y, (1, 1))
