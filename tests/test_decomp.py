"""Tests for HOSVD, HOOI, and the thresholding denoiser.

Exactness cases build a tensor from a known Tucker model and require the
decompositions to recover it to near machine precision; the statistical
behavior of the denoiser (rank discovery, degeneracy on pure noise) is
pinned at fixed seeds.
"""

import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import stop_hooi_at
from test_checked_boundary import _count_factorizations, _ref_hosvd, _ref_tarst, _same_model
from tarst import decomp, svht
from tarst.decomp import TuckerModel, hooi, hosvd, reconstruct, tarst
from tarst.linalg import svd
from tarst.svht import KnownSigma, MedianBased
from tarst.tensor_ops import frobenius_norm, multi_mode_product

ROOT = Path(__file__).resolve().parent.parent


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
    model = hooi(x, (2, 3, 4))
    assert rel_err(reconstruct(model), x) < 1e-10
    assert len(model.fits) <= 2
    assert model.fits[-1] == pytest.approx(1.0, abs=1e-12)


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


def test_hooi_stopping_rule_is_fit_change_below_1e_8_within_50_sweeps():
    # the references take the rule as literals and the tests that vary it
    # patch these constants, so this is where a new rule shows as a change
    assert (decomp._FIT_TOL, decomp._MAX_SWEEPS) == (1e-8, 50)


def test_hooi_fit_monotone_nondecreasing(monkeypatch):
    # the ALS objective never goes down, sweep over many random problems
    stop_hooi_at(monkeypatch, 1e-12, 6)
    rng = np.random.default_rng(7)
    for _ in range(200):
        ndim = int(rng.integers(2, 4))
        shape = tuple(int(s) for s in rng.integers(2, 6, size=ndim))
        ranks = tuple(int(rng.integers(1, s + 1)) for s in shape)
        y = rng.standard_normal(shape)
        fits = hooi(y, ranks).fits
        assert all(b >= a - 1e-10 for a, b in zip(fits, fits[1:]))


@pytest.mark.parametrize("c", [2.0 ** 600, 2.0 ** -600, 1e200, 1e-200, 1e300, 1e-300])
def test_hooi_fits_do_not_depend_on_magnitude(c):
    # the fit is a ratio of two norms, each of which would over- or
    # underflow at these magnitudes without rescaling
    rng = np.random.default_rng(12)
    y = random_tucker(rng, (10, 10, 10), (3, 3, 3)) + 0.3 * rng.standard_normal((10, 10, 10))
    want = hooi(y, (3, 3, 3)).fits
    fits = hooi(c * y, (3, 3, 3)).fits
    assert len(fits) == len(want) < 50
    np.testing.assert_allclose(fits, want, rtol=1e-13, atol=0)


def test_hooi_zero_input_is_handled():
    model = hooi(np.zeros((3, 4, 5)), (2, 2, 2))
    assert frobenius_norm(reconstruct(model)) == 0.0


def _hooi_reference(y, ranks, tol, max_iter):
    """HOOI with every projection formed from scratch each sweep, as
    ``multi_mode_product(y, factors, transpose=True, skip=k)`` did, with
    tensordot + moveaxis mode products, stopping at a fit change below
    ``tol`` within ``max_iter`` sweeps."""
    def project(t, factors, skip=None):
        for j, u in enumerate(factors):
            if j != skip:
                t = np.moveaxis(np.tensordot(u.T, t, axes=([1], [j])), 0, j)
        return t

    def unf(t, k):
        return np.moveaxis(t, k, 0).reshape(t.shape[k], -1)

    factors = [svd(unf(y, k))[0][:, :r] for k, r in enumerate(ranks)]
    ynorm = frobenius_norm(y)
    core = project(y, factors)
    prev_fit = frobenius_norm(core) / ynorm if ynorm > 0 else 0.0
    fits = []
    for _ in range(max_iter):
        for k in range(y.ndim):
            factors[k] = svd(unf(project(y, factors, skip=k), k))[0][:, :ranks[k]]
        core = project(y, factors)
        fit = frobenius_norm(core) / ynorm if ynorm > 0 else 0.0
        fits.append(fit)
        if abs(fit - prev_fit) < tol:
            break
        prev_fit = fit
    return core, factors, fits


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


_rng_hooi = np.random.default_rng(41)


@pytest.mark.parametrize("safe_norm", [0.0, decomp._SAFE_NORM], ids=["checked", "kernel"])
@pytest.mark.parametrize("y, ranks, max_iter", [
    (_rng_hooi.standard_normal((6, 7, 8)), (2, 3, 4), 50),
    (_rng_hooi.standard_normal((10, 10, 10)), (3, 3, 3), 50),
    (random_tucker(_rng_hooi, (6, 7, 8), (2, 3, 4)), (2, 3, 4), 50),
    (_rng_hooi.standard_normal((4, 5, 3, 6)), (2, 2, 3, 2), 50),
    (_rng_hooi.standard_normal((3, 4, 2, 5)), (1, 3, 2, 4), 50),
    (_rng_hooi.standard_normal((5, 1, 6)), (3, 1, 2), 50),
    (_rng_hooi.standard_normal((1, 4, 4)), (1, 2, 4), 50),
    (_rng_hooi.standard_normal((4, 5, 6)), (4, 5, 6), 50),
    (_rng_hooi.standard_normal((10, 10, 10)), (4, 1, 1), 50),
    (np.zeros((3, 4, 5)), (2, 2, 2), 50),
    (_rng_hooi.standard_normal((6, 7, 8)), (2, 3, 4), 1),
    (_rng_hooi.standard_normal((3, 4, 5, 2)), (2, 2, 2, 1), 1),
    (_rng_hooi.standard_normal((7, 9)), (3, 3), 50),
    (_rng_hooi.standard_normal(6), (2,), 50),
])
def test_hooi_bit_identical_to_projection_from_scratch(y, ranks, max_iter, safe_norm,
                                                       monkeypatch):
    # every sweep on the checked factor step (bound 0), or on the kernel
    monkeypatch.setattr(decomp, "_SAFE_NORM", safe_norm)
    stop_hooi_at(monkeypatch, 1e-10, max_iter)
    model = hooi(y, ranks)
    core, factors, want_fits = _hooi_reference(y, ranks, 1e-10, max_iter)
    assert model.fits == tuple(want_fits)
    assert _same_bits(model.core, core)
    assert len(model.factors) == len(factors)
    assert all(_same_bits(u, v) for u, v in zip(model.factors, factors))


def test_returned_ranks_are_capped_by_other_modes():
    rng = np.random.default_rng(43)
    # HOOI's projection for mode 0 has 1 x 1 columns after modes 1 and 2
    assert hooi(rng.standard_normal((10, 10, 10)), (4, 1, 1)).ranks == (1, 1, 1)
    # the 10 x 4 unfolding has only four singular vectors
    y = rng.standard_normal((10, 2, 2))
    assert hosvd(y, (5, 2, 2)).ranks == (4, 2, 2)
    assert hooi(y, (5, 2, 2)).ranks == (4, 2, 2)
    # the core matches the ranks actually returned
    model = hooi(y, (5, 2, 2))
    assert model.core.shape == model.ranks


# ------------------------------------------------------------------ tarst

def test_tarst_uses_exactly_one_svd_per_mode():
    rng = np.random.default_rng(8)
    for shape in [(6, 7, 8), (4, 4, 4, 4), (9, 30)]:
        y = rng.standard_normal(shape)
        assert tarst(y, MedianBased()).model.svd_calls == len(shape)


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


def test_tarst_median_rule_keeps_extent_one_mode():
    # the 1 x 400 unfolding has one singular value; it keeps rank 1, so the
    # median rule finds the same ranks as the known-sigma rule
    rng = np.random.default_rng(14)
    x = 100.0 * random_tucker(rng, (1, 20, 20), (1, 1, 1))
    y = x + rng.standard_normal(x.shape)
    for rule in (MedianBased(), KnownSigma(1.0)):
        report = tarst(y, rule)
        assert report.estimated_ranks == (1, 1, 1)
        assert not report.degenerate
        assert rel_err(reconstruct(report.model), x) < 5e-2


def test_tarst_median_rule_one_way_input_is_kept():
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    report = tarst(y, MedianBased())
    assert report.estimated_ranks == (1,)
    assert report.discarded_counts == (0,)
    assert not report.degenerate
    np.testing.assert_allclose(reconstruct(report.model), y, rtol=1e-12)
    for zero in (np.zeros(5), np.zeros((1, 4, 5))):
        report = tarst(zero, MedianBased())
        assert report.degenerate
        assert report.estimated_ranks == (0,) * zero.ndim


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


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (2, 5), (2, 2, 2)])
def test_tarst_median_rule_constant_with_two_value_spectra_has_rank_one(shape):
    # omega(beta) > 2 on these unfoldings, so omega * median would exceed
    # the larger of two singular values; only the roundoff floor applies
    y = np.full(shape, 5.0)
    report = tarst(y, MedianBased())
    assert report.estimated_ranks == (1,) * len(shape)
    np.testing.assert_allclose(reconstruct(report.model), y, rtol=1e-12)


def test_tarst_median_rule_rank_one_2x2x2():
    rng = np.random.default_rng(3)
    u = [v / np.linalg.norm(v) for v in rng.standard_normal((3, 2))]
    x = 100.0 * np.einsum("i,j,k->ijk", *u)
    y = x + 0.01 * rng.standard_normal(x.shape)
    # noise-free, the median rule finds the rank a known sigma finds
    for z, rule in ((x, MedianBased()), (y, KnownSigma(0.01))):
        assert tarst(z, rule).estimated_ranks == (1, 1, 1)
    # noisy, a two-value mode is not thresholded: every value above
    # roundoff is kept, so the estimate is the input
    report = tarst(y, MedianBased())
    assert report.estimated_ranks == (2, 2, 2)
    np.testing.assert_allclose(reconstruct(report.model), y, rtol=1e-12)


def test_tarst_report_bookkeeping():
    rng = np.random.default_rng(10)
    y = rng.standard_normal((5, 6, 7))
    report = tarst(y, MedianBased())
    for k, (kept, dropped) in enumerate(zip(report.estimated_ranks,
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


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["known", "median"]),
       st.floats(-100.0, 100.0))
def test_tarst_never_exceeds_the_multilinear_rank(seed, kind, log10_scale):
    # exactly rank-r input: every singular value past r is roundoff, which
    # the cutoff's floor removes at any magnitude, so no mode gains rank
    rng = np.random.default_rng(seed)
    ndim = int(rng.integers(2, 5))
    shape = tuple(int(s) for s in rng.integers(2, 8 if ndim < 4 else 5, size=ndim))
    ranks = tuple(int(rng.integers(1, s + 1)) for s in shape)
    c = 10.0 ** log10_scale
    y = c * random_tucker(rng, shape, ranks)
    rule = KnownSigma(c * 1e-3) if kind == "known" else MedianBased()
    got = tarst(y, rule).estimated_ranks
    assert all(g <= r for g, r in zip(got, ranks)), (shape, ranks, got)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(-150.0, 150.0))
def test_tarst_ranks_do_not_depend_on_units(seed, log10_c):
    # y -> c y scales every singular value and, under either rule (with
    # sigma -> c sigma), every cutoff by c, so no rank may move for any c
    rng = np.random.default_rng(seed)
    ndim = int(rng.integers(2, 5))
    shape = tuple(int(s) for s in rng.integers(2, 8 if ndim < 4 else 5, size=ndim))
    ranks = tuple(int(rng.integers(1, s + 1)) for s in shape)
    sigma = 10.0 ** rng.uniform(-2.0, 0.0)
    y = random_tucker(rng, shape, ranks) + sigma * rng.standard_normal(shape)
    c = 10.0 ** log10_c
    for rule, scaled in [(KnownSigma(sigma), KnownSigma(c * sigma)),
                         (MedianBased(), MedianBased())]:
        want = tarst(y, rule).estimated_ranks
        assert tarst(c * y, scaled).estimated_ranks == want, (shape, ranks, sigma, c, rule)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(-300.0, 300.0), st.booleans())
def test_tarst_extent_one_and_one_way_inputs_are_defined(seed, log10_c, zero):
    # a 1-way input, or one with an extent-1 mode, from 1e-300 to 1e300:
    # finite thresholds and estimate under both rules, a degenerate flag
    # that matches the ranks, and under the median rule rank 1 on every
    # single-value unfolding of a nonzero input
    rng = np.random.default_rng(seed)
    ndim = int(rng.integers(1, 5))
    shape = [int(s) for s in rng.integers(1, 8 if ndim < 4 else 5, size=ndim)]
    if ndim > 1:
        shape[int(rng.integers(ndim))] = 1
    c = 10.0 ** log10_c
    y = np.zeros(shape) if zero else c * rng.standard_normal(shape)
    single = [k for k, i in enumerate(shape) if i == 1 or ndim == 1]
    for rule in (KnownSigma(c * 10.0 ** rng.uniform(-2.0, 0.0)), MedianBased()):
        report = tarst(y, rule)
        assert np.isfinite(report.thresholds).all(), (shape, c, rule)
        assert np.isfinite(reconstruct(report.model)).all(), (shape, c, rule)
        assert report.degenerate == (0 in report.estimated_ranks)
        if isinstance(rule, MedianBased) and not zero:
            assert all(report.estimated_ranks[k] == 1 for k in single), (shape, c)


def test_tarst_validation():
    y = np.zeros((3, 3))
    # the cutoff kernel is the one place that tells the rules apart
    with pytest.raises(TypeError, match="^unknown threshold rule 'median'$"):
        tarst(y, "median")
    with pytest.raises(ValueError, match="non-finite"):
        tarst(np.array([[np.nan, 0.0]]), MedianBased())
    # a zero extent is a shape fault, named before any factorization or rule check
    for shape in [(0, 3), (3, 0, 2), (0,)]:
        for rule in (MedianBased(), KnownSigma(1.0), "median"):
            with pytest.raises(ValueError, match=rf"^invalid shape {re.escape(repr(shape))}$"):
                tarst(np.zeros(shape), rule)


@pytest.mark.parametrize("shape, ranks", [((70, 50, 40), (4, 3, 5)),
                                          ((30, 30, 30, 30), (3, 2, 4, 3))])
def test_multi_slab_middle_modes_match_the_unfolding_svd(shape, ranks):
    # the wide middle modes of these tensors are factorized from Gram
    # matrices summed over several slabs (32, 32 and 6 slices at 70 x 50 x
    # 40, 15 slabs of 2 at 30^4); ranks, thresholds and estimates must
    # match svd(unfold(y, k)) on every mode to the Gram gate's 1e-10
    rng = np.random.default_rng(41)
    x = random_tucker(rng, shape, ranks, 400.0)
    y = x + rng.standard_normal(shape)
    for rule in (MedianBased(), KnownSigma(1.0)):
        report = tarst(y, rule)
        model, taus, want_ranks, _ = _ref_tarst(y, rule)
        assert report.estimated_ranks == want_ranks == ranks
        np.testing.assert_allclose(report.thresholds, taus, rtol=1e-10, atol=0)
        want = reconstruct(model)
        assert rel_err(reconstruct(report.model), want) < 1e-10
    # scaled so far that the slab sums overflow or underflow: the factor
    # step rescales the data instead, with no numpy warning
    for c in (2.0 ** 600, 2.0 ** -600):
        report = tarst(c * y, MedianBased())
        assert report.estimated_ranks == ranks
        np.testing.assert_allclose(np.array(report.thresholds) / c,
                                   _ref_tarst(y, MedianBased())[1], rtol=1e-10, atol=0)
    want = reconstruct(_ref_hosvd(y, ranks))
    assert rel_err(reconstruct(hosvd(y, ranks)), want) < 1e-10


def test_tarst_makes_no_full_size_copy():
    # a middle-mode unfolding is copied one slab at a time (~0.06x of a
    # 100^3 input); a copy of the whole unfolding would show as a peak of
    # ~1x the input's size
    rng = np.random.default_rng(42)
    y = random_tucker(rng, (100, 100, 100), (5, 5, 5), 100.0) + rng.standard_normal((100,) * 3)
    tarst(y, MedianBased())  # warm up lazy numpy set-up outside the traced call
    tracemalloc.start()
    try:
        tarst(y, MedianBased())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * y.nbytes


# ----------------------------------------------------------- cutoff kernel

@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 7), min_size=1, max_size=4), st.integers(0, 2 ** 32 - 1),
       st.floats(-200.0, 200.0), st.sampled_from(["noise", "lowrank", "constant", "zero"]),
       st.sampled_from(["median", "known"]))
@example([4, 5, 6], 0, 0.0, "lowrank", "median")  # even spectrum lengths
@example([3, 5, 7], 0, 0.0, "lowrank", "median")  # odd spectrum lengths
@example([1, 6, 1, 3], 1, 150.0, "noise", "median")  # extent-1 modes
@example([9], 2, -150.0, "noise", "known")  # 1-way
def test_tarst_cutoff_kernel_matches_public_threshold_and_hard_threshold(
        shape, seed, log10_c, kind, rule_kind):
    # the kernel reads the median and s_max off the sorted spectrum; the
    # reference sorts nothing: threshold_for_unfolding + hard_threshold
    rng = np.random.default_rng(seed)
    c = 10.0 ** log10_c
    shape = tuple(shape)
    if kind == "noise":
        y = c * rng.standard_normal(shape)
    elif kind == "lowrank":
        ranks = tuple(min(2, i) for i in shape)
        y = c * (random_tucker(rng, shape, ranks, scale=10.0) + rng.standard_normal(shape))
    else:
        y = np.full(shape, c if kind == "constant" else 0.0)
    rule = MedianBased() if rule_kind == "median" else KnownSigma(c * 0.5)
    report = tarst(y, rule)
    model, taus, ranks, _ = _ref_tarst(y, rule)
    assert [t.hex() for t in report.thresholds] == [t.hex() for t in taus]
    assert report.estimated_ranks == ranks
    assert _same_model(report.model, model)


def test_tarst_cutoff_skips_median_and_the_public_threshold_functions(monkeypatch):
    # tarst reads each cutoff off the sorted spectrum with svht's kernel; it
    # calls neither numpy's median nor the public cutoff and rank functions,
    # wherever they are bound
    def boom(*args, **kwargs):
        raise AssertionError("tarst took the general cutoff path")

    rng = np.random.default_rng(15)
    cases = [(y, rule) for y in (random_tucker(rng, (10, 10, 10), (3, 3, 3), 10.0)
                                 + rng.standard_normal((10, 10, 10)), rng.standard_normal(7))
             for rule in (MedianBased(), KnownSigma(1.0))]
    want = [tarst(y, rule) for y, rule in cases]
    monkeypatch.setattr(np, "median", boom)
    for name in ("hard_threshold", "threshold_for_unfolding"):
        orig = getattr(svht, name)
        for modname, mod in list(sys.modules.items()):
            if (modname == "tarst" or modname.startswith("tarst.")) and getattr(
                    mod, name, None) is orig:
                monkeypatch.setattr(mod, name, boom)
    for (y, rule), w in zip(cases, want):
        got = tarst(y, rule)
        assert (got.thresholds, got.estimated_ranks) == (w.thresholds, w.estimated_ranks)
    assert [w.estimated_ranks for w in want] == [(3, 3, 3), (3, 3, 3), (1,), (0,)]


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
    with pytest.raises(ValueError, match=r"^expected 2 factors, got 3$"):
        reconstruct(TuckerModel(core=np.zeros((2, 2)), factors=[np.eye(2)] * 3))
    with pytest.raises(ValueError,
                       match=r"^factor with 2 columns cannot contract mode 1 of extent 3$"):
        reconstruct(TuckerModel(core=np.zeros((2, 3)),
                                factors=[np.eye(2), np.zeros((4, 2))]))


def test_non_integer_ranks_raise_type_error():
    # int() used to truncate: ranks (2.9, 2, 2) returned ranks (2, 2, 2)
    y = np.random.default_rng(3).standard_normal((4, 5, 6))
    for ranks in [(2.9, 2, 2), (2.0, 2, 2), ("2", 2, 2)]:
        with pytest.raises(TypeError, match="rank must be an integer"):
            hosvd(y, ranks)
        with pytest.raises(TypeError, match="rank must be an integer"):
            hooi(y, ranks)
    # numpy integers are integers
    assert hosvd(y, np.array([2, 3, 2])).ranks == (2, 3, 2)
    assert hooi(y, (np.int64(2), np.int32(2), 2)).ranks == (2, 2, 2)


def test_rank_validation():
    y = np.zeros((3, 4, 5))
    with pytest.raises(ValueError, match="out of range"):
        hosvd(y, (0, 1, 1))
    with pytest.raises(ValueError, match="out of range"):
        hosvd(y, (1, 5, 1))
    with pytest.raises(ValueError, match="expected 3 ranks"):
        hosvd(y, (1, 1))


def _near_float_max(kind):
    """A finite 10 x 10 x 10 tensor whose peak is 1.7e308 (the spectrum of
    every unfolding overflows), or an N(0, sigma^2) one with sigma =
    1.25e307 (the spectrum is finite, omega(beta) * median is not)."""
    y = np.random.default_rng(72).standard_normal((10, 10, 10))
    return y / np.abs(y).max() * 1.7e308 if kind == "peak" else y * 1.25e307


@pytest.mark.parametrize("kind,rule", [("peak", MedianBased()), ("peak", KnownSigma(1.0)),
                                       ("median", MedianBased()),
                                       ("median", KnownSigma(1.25e307))])
def test_tarst_overflowing_threshold_raises_floating_point_error(kind, rule):
    with pytest.raises(FloatingPointError,
                       match=r"^threshold of the mode-0 unfolding overflows float64$"):
        tarst(_near_float_max(kind), rule)


def test_hosvd_overflowing_core_raises_floating_point_error():
    # the core of a finite input whose peak is 1.7e308 overflows to inf/nan
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match=r"^HOSVD core overflows float64$"):
            hosvd(_near_float_max("peak"), (3, 3, 3))
    # a large input whose core stays finite is fitted as before
    assert np.isfinite(hosvd(_near_float_max("median"), (3, 3, 3)).core).all()


def test_hooi_overflowing_core_raises_at_the_first_sweep(monkeypatch):
    # every projection of the first sweep is finite (peak 1.4e308), its core
    # 7e307 * 2**1.5 is not; HOOI stops there with no numpy warning
    calls = _count_factorizations(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match=r"^HOOI core overflows float64$"):
            hooi(np.full((2, 2, 2), 7e307), (1, 1, 1))
    assert calls[0] == 3 + 3  # the HOSVD start and one sweep


@pytest.mark.parametrize("ranks", [(2, 2, 2), (1, 1, 1)])
def test_hooi_overflowing_input_norm_raises_at_the_first_sweep(monkeypatch, ranks):
    # two orthogonal rank-one terms of 1.5e308: every entry, projection and
    # core is finite, the norm is not, so fits would read nan (ranks 2) or
    # 0.0 (ranks 1); HOOI stops after one sweep with no numpy warning
    y = np.zeros((2, 2, 2))
    y[0, 0, 0] = y[1, 1, 1] = 1.5e308
    calls = _count_factorizations(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match=r"^HOOI input norm overflows float64$"):
            hooi(y, ranks)
    assert calls[0] == 3 + 3  # the HOSVD start and one sweep


def test_hooi_passes_lapack_non_convergence_through(monkeypatch):
    # LinAlgError subclasses ValueError, so the sweep's overflow report must
    # let it through unchanged, as the per-mode loop of the HOSVD start does
    real, calls = np.linalg.svd, [0]

    def failing(*args, **kwargs):
        calls[0] += 1
        if calls[0] > 1:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(*args, **kwargs)

    y = np.random.default_rng(73).standard_normal((10, 10, 10))
    monkeypatch.setattr(np.linalg, "svd", failing)
    with pytest.raises(np.linalg.LinAlgError, match=r"^SVD did not converge$"):
        hooi(y, (3, 3, 3))
    assert calls[0] == 2


@pytest.mark.parametrize("method", ["hosvd", "tarst"])
def test_per_mode_loop_passes_lapack_non_convergence_through(monkeypatch, method):
    # a near-square 7 x 6 input takes the LAPACK route at mode 0; its
    # LinAlgError, a ValueError too, must not read as a non-finite entry
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    y = np.random.default_rng(74).standard_normal((7, 6))
    monkeypatch.setattr(np.linalg, "svd", failing)
    with pytest.raises(np.linalg.LinAlgError, match=r"^SVD did not converge$"):
        hosvd(y, (2, 2)) if method == "hosvd" else tarst(y, MedianBased())


def test_tarst_median_overflow_leaves_known_sigma_alone():
    # the spectrum itself is finite, so a small sigma still thresholds it
    assert tarst(_near_float_max("median"), KnownSigma(1.0)).estimated_ranks == (10, 10, 10)


# one 100^3 input (sigma = 1, generator ranks 5) through tarst, reconstruct
# and rrse, and through hooi at (5, 5, 5); floats print as repr, so a
# parent reading the JSON sees every bit. The child also reports the thread
# count its OpenBLAS runs at (null for another BLAS, or where the loaded
# libraries cannot be listed)
_THREADS_PROGRAM = """
import ctypes
import json
from tarst import bench
from tarst.decomp import hooi, reconstruct, tarst
from tarst.metrics import rrse
from tarst.svht import MedianBased
x = bench.gen_lowrank_tensor((100, 100, 100), (5, 5, 5), 10.0, 2.0, 0)
y = bench.add_gaussian_noise(x, 1.0, 1)
report, model = tarst(y, MedianBased()), hooi(y, (5, 5, 5))
def blas_threads():
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, name):
                return getattr(lib, name)()
    return None
print(json.dumps({"blas_threads": blas_threads(), "ranks": report.estimated_ranks,
                  "thresholds": report.thresholds,
                  "rrse": rrse(reconstruct(report.model), x), "sweeps": len(model.fits),
                  "hooi_ranks": model.ranks, "hooi_rrse": rrse(reconstruct(model), x)}))
"""


def _run_at_blas_threads(n):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(n))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", _THREADS_PROGRAM], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_blas_thread_count_moves_no_rank_or_sweep_count():
    # bit-identical at a fixed thread count; across counts the BLAS sums in
    # another order, which moved thresholds and rrse by <= 5e-14 relative
    # on OpenBLAS 0.3.31 at 1 and 2 threads, and on this input must move no
    # decision (a cutoff within roundoff of a value could)
    one, two, again = (_run_at_blas_threads(n) for n in (1, 2, 2))
    if (one["blas_threads"], two["blas_threads"]) != (1, 2):
        pytest.skip(f"the BLAS ran at {one['blas_threads']} and {two['blas_threads']} "
                    "threads, not at 1 and 2")
    assert two == again
    for key in ("ranks", "sweeps", "hooi_ranks"):
        assert one[key] == two[key], key
    assert one["ranks"] == [6, 6, 6] and one["sweeps"] > 1
    for key in ("thresholds", "rrse", "hooi_rrse"):
        np.testing.assert_allclose(two[key], one[key], rtol=1e-10, atol=0, err_msg=key)
