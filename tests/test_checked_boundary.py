"""The decompositions against references built from checked primitives.

``hosvd``, ``hooi``, ``tarst`` and ``reconstruct`` validate their input once
and then work on it with unchecked kernels. The references below call only
the public, fully checked ``svd`` and ``unfold``, and numpy's own n-mode
product, ``tensordot`` + ``moveaxis``, in the order the decompositions use,
and count their own ``svd`` calls, so every factor, core, fit,
factorization count and benchmark record must agree bit for bit. The
public functions must also keep raising the same exceptions with the same
messages.
"""

import os

import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import stop_hooi_at
from tarst import bench, cli, decomp
from tarst.decomp import TuckerModel, hooi, hosvd, reconstruct, tarst
from tarst.linalg import svd
from tarst.svht import (KnownSigma, MedianBased, hard_threshold,
                        threshold_for_unfolding)
from tarst.metrics import rrse
from tarst.tensor_io import write_tensor
from tarst.tensor_ops import frobenius_norm, multi_mode_product, unfold


def _tensordot_mode_product(t, u, k):
    """The n-mode product t x_k u, as tensordot + moveaxis spell it."""
    return np.moveaxis(np.tensordot(u, t, axes=([1], [k])), 0, k)


def _project(t, factors):
    for k, u in enumerate(factors):
        t = _tensordot_mode_product(t, u.T, k)
    return t


def _ref_hosvd(y, ranks):
    y = np.asarray(y, dtype=np.float64)
    factors = [svd(unfold(y, k))[0][:, :r] for k, r in enumerate(ranks)]
    return TuckerModel(core=_project(y, factors), factors=factors, svd_calls=len(factors))


def _ref_hooi(y, ranks, tol=1e-8, max_iter=50):
    """HOOI stopping at a fit change below ``tol`` within ``max_iter``
    sweeps; the defaults are the rule ``hooi`` must keep."""
    y = np.asarray(y, dtype=np.float64)
    start = _ref_hosvd(y, ranks)
    factors, calls = list(start.factors), start.svd_calls
    ynorm = frobenius_norm(y)
    prev_fit = frobenius_norm(start.core) / ynorm if ynorm > 0 else 0.0
    fits = []
    for _ in range(max_iter):
        prefix = y
        for k in range(y.ndim):
            w = prefix
            for j in range(k + 1, y.ndim):
                w = _tensordot_mode_product(w, factors[j].T, j)
            factors[k] = svd(unfold(w, k))[0][:, :ranks[k]]
            calls += 1
            prefix = _tensordot_mode_product(prefix, factors[k].T, k)
        fit = frobenius_norm(prefix) / ynorm if ynorm > 0 else 0.0
        fits.append(fit)
        if abs(fit - prev_fit) < tol:
            break
        prev_fit = fit
    return TuckerModel(core=prefix, factors=factors, svd_calls=calls, fits=tuple(fits))


def _ref_tarst(y, rule):
    y = np.asarray(y, dtype=np.float64)
    factors, taus, ranks, dropped = [], [], [], []
    for k in range(y.ndim):
        m = unfold(y, k)
        u, s = svd(m)
        tau = threshold_for_unfolding(m.shape[0], m.shape[1], rule, s)
        r = hard_threshold(s, tau)[1] if tau > 0 else 0
        factors.append(u[:, :r])
        taus.append(float(tau))
        ranks.append(r)
        dropped.append(int(s.size - r))
    model = TuckerModel(core=_project(y, factors), factors=factors, svd_calls=len(factors))
    return model, tuple(taus), tuple(ranks), tuple(dropped)


def _ref_reconstruct(model):
    t = np.asarray(model.core, dtype=np.float64)
    for k, u in enumerate(model.factors):
        t = _tensordot_mode_product(t, u, k)
    return t


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _same_model(got, want):
    return (_same_bits(got.core, want.core) and got.svd_calls == want.svd_calls
            and [f.hex() for f in got.fits] == [f.hex() for f in want.fits]
            and len(got.factors) == len(want.factors)
            and all(_same_bits(u, v) for u, v in zip(got.factors, want.factors)))


def _tucker(rng, shape, ranks):
    y = rng.standard_normal(ranks)
    for k, (i, r) in enumerate(zip(shape, ranks)):
        q = np.linalg.qr(rng.standard_normal((i, r)))[0]
        y = np.moveaxis(np.tensordot(q, y, axes=([1], [k])), 0, k)
    return y


_rng = np.random.default_rng(71)

# (input, ranks for hosvd/hooi): 1- to 4-way, extent-1 modes, exact low
# rank, full ranks, ranks capped by the other modes, and the zero tensor
CASES = [
    (_rng.standard_normal(7), (3,)),
    (_rng.standard_normal((6, 9)), (2, 4)),
    (_rng.standard_normal((10, 10, 10)), (3, 3, 3)),
    (_rng.standard_normal((5, 6, 7)), (5, 6, 7)),
    (_tucker(_rng, (6, 7, 8), (2, 3, 2)) + 1e-3 * _rng.standard_normal((6, 7, 8)), (2, 3, 2)),
    (_rng.standard_normal((4, 5, 3, 6)), (2, 2, 3, 2)),
    (_rng.standard_normal((1, 8, 6)), (1, 3, 2)),
    (_rng.standard_normal((6, 1, 5)), (2, 1, 5)),
    (_rng.standard_normal((3, 4, 1, 2)), (3, 2, 1, 2)),
    (_rng.standard_normal((10, 2, 2)), (5, 2, 2)),
    (_rng.standard_normal((10, 10, 10)), (4, 1, 1)),
    (np.full((3, 4, 5), -2.5), (2, 2, 2)),
    (np.zeros((3, 4, 5)), (2, 2, 2)),
    (np.zeros((2, 3, 2, 2)), (1, 3, 2, 2)),
]


@pytest.mark.parametrize("y, ranks", CASES)
def test_hosvd_bit_identical_to_checked_reference(y, ranks):
    assert _same_model(hosvd(y, ranks), _ref_hosvd(y, ranks))


@pytest.mark.parametrize("y, ranks", CASES)
@pytest.mark.parametrize("max_iter", [1, 50])
def test_hooi_bit_identical_to_checked_reference(y, ranks, max_iter, monkeypatch):
    stop_hooi_at(monkeypatch, 1e-10, max_iter)
    model = hooi(y, ranks)
    want = _ref_hooi(y, ranks, 1e-10, max_iter)
    assert max_iter >= len(model.fits) == len(want.fits) >= 1
    assert _same_model(model, want)


@pytest.mark.parametrize("y, _ranks", CASES)
@pytest.mark.parametrize("rule", [MedianBased(), KnownSigma(0.5), KnownSigma(1e-3)])
def test_tarst_and_reconstruct_bit_identical_to_checked_reference(y, _ranks, rule):
    report = tarst(y, rule)
    model, taus, ranks, dropped = _ref_tarst(y, rule)
    assert _same_model(report.model, model)
    assert [t.hex() for t in report.thresholds] == [t.hex() for t in taus]
    assert report.estimated_ranks == ranks
    assert report.discarded_counts == dropped
    assert report.degenerate == any(r == 0 for r in ranks)
    assert _same_bits(reconstruct(report.model), _ref_reconstruct(model))


def _records(cfg, runner, monkeypatch=None):
    if monkeypatch is not None:
        monkeypatch.setattr(bench, "hosvd", _ref_hosvd)
        monkeypatch.setattr(bench, "hooi", _ref_hooi)
        monkeypatch.setattr(bench, "tarst", _ref_tarst_report)
        monkeypatch.setattr(bench, "reconstruct", _ref_reconstruct)
    return [(r.method, r.outlier_ratio, r.outlier_scale, r.seed, r.estimated_ranks,
             r.rrse.hex(), r.svd_calls) for r in runner(cfg)]


def _ref_tarst_report(y, rule):
    model, _, ranks, _ = _ref_tarst(y, rule)
    return SimpleNamespace(model=model, estimated_ranks=ranks)


@pytest.mark.parametrize("cfg, runner", [
    (bench.Pattern2Config(shape=(10, 10, 10), true_ranks=(3, 3, 3), sigma_grid=(1.0,),
                          reps=1, seed=59), bench.run_pattern2),
    (bench.Pattern2Config(shape=(5, 6, 4), true_ranks=(2, 2, 2), sigma_grid=(0.3,),
                          outlier_ratios=(0.05, 0.5), outlier_scales=(10.0, 100.0),
                          reps=2, seed=5, sigma_known=True), bench.run_pattern2),
    (bench.Pattern1Config(shape=(8, 9, 7), true_ranks=(2, 3, 2), sigma_grid=(0.1, 1.0, 4.0),
                          reps=2, seed=11), bench.run_pattern2),
])
def test_bench_records_bit_identical_to_checked_reference(cfg, runner, monkeypatch):
    got = _records(cfg, runner)
    with monkeypatch.context() as mp:
        want = _records(cfg, runner, mp)
    assert len(got) == len(want) > 0
    assert got == want


def _count_factorizations(monkeypatch):
    """Wrap ``decomp``'s three factorization bindings in one call counter:
    ``svd``, which the per-mode loop calls and HOOI's sweeps call through
    ``_factor`` at or above ``_SAFE_NORM``; ``_svd``, its unscanned kernel,
    which the sweeps call below it; and ``_gram_svd``, the factor step the
    per-mode loop calls with the Gram matrix of a wide middle mode."""
    calls = [0]

    def counting(f):
        def wrapped(*args):
            calls[0] += 1
            return f(*args)
        return wrapped

    monkeypatch.setattr(decomp, "svd", counting(decomp.svd))
    monkeypatch.setattr(decomp, "_svd", counting(decomp._svd))
    monkeypatch.setattr(decomp, "_gram_svd", counting(decomp._gram_svd))
    return calls


@pytest.mark.parametrize("y, ranks", CASES)
def test_models_count_the_factorizations_that_built_them(y, ranks, monkeypatch):
    # CASES take every path: wide Gaussian unfoldings pass the Gram gate,
    # wide zero and constant ones fall back to LAPACK, tall ones go there
    calls = _count_factorizations(monkeypatch)
    assert hosvd(y, ranks).svd_calls == calls[0] == y.ndim
    for rule in (MedianBased(), KnownSigma(0.5)):
        calls[0] = 0
        assert tarst(y, rule).model.svd_calls == calls[0] == y.ndim
    for max_iter in (1, 50):
        calls[0] = 0
        stop_hooi_at(monkeypatch, 1e-10, max_iter)
        model = hooi(y, ranks)
        assert model.svd_calls == calls[0] == y.ndim * (1 + len(model.fits))


def test_hosvd_and_hooi_raise_near_float_max_without_warnings():
    # every entry is finite, but the core and the projections of the first
    # sweep overflow; the exception is the only report, with no numpy warning
    g = np.random.default_rng(72).standard_normal((10, 10, 10))
    for y, ranks in [(g / np.abs(g).max() * 1.7e308, (3, 3, 3)),
                     (np.full((4, 4, 4), 1.7e308), (1, 1, 1))]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match=r"^HOSVD core overflows float64$"):
                hosvd(y, ranks)
            with pytest.raises(FloatingPointError, match=r"^HOOI projection overflows float64$"):
                hooi(y, ranks)


_Z = np.zeros((2, 3))

# every public entry point with its exact exception and message; the cases
# given an id name the fault in their input, since their message is spelled
# by the shared check in tensor_ops that raises it
BOUNDARY = [
    (lambda: svd(np.zeros(3)), ValueError, "svd expects a matrix, got 1 dimensions"),
    (lambda: svd(np.zeros((2, 2, 2))), ValueError, "svd expects a matrix, got 3 dimensions"),
    (lambda: svd([[np.nan, 1.0]]), ValueError, "svd input has non-finite entries"),
    (lambda: unfold(np.float64(1.0), 0), ValueError, "tensor must have at least one mode"),
    (lambda: unfold(_Z, 2), ValueError, "mode 2 out of range for a 2-way tensor"),
    (lambda: unfold(_Z, -1), ValueError, "mode -1 out of range for a 2-way tensor"),
    (lambda: multi_mode_product(_Z, [np.zeros((4, 3)), np.eye(3)]), ValueError,
     "factor with 3 columns cannot contract mode 0 of extent 2"),
    pytest.param(lambda: hosvd(5.0, ()), ValueError, "tensor must have at least one mode",
                 id="<lambda>-ValueError-input must have at least one mode (hosvd)"),
    (lambda: hosvd([[np.nan]], (1, 1)), ValueError, "input tensor has non-finite entries"),
    (lambda: hosvd(_Z, (1,)), ValueError, "expected 2 ranks, got 1"),
    (lambda: hosvd(_Z, (3, 1)), ValueError, "rank 3 out of range [1, 2] for mode 0"),
    (lambda: hosvd(_Z, (1, 0)), ValueError, "rank 0 out of range [1, 3] for mode 1"),
    (lambda: hooi([[np.inf]], (1, 1)), ValueError, "input tensor has non-finite entries"),
    # a zero extent is a shape fault, named before the ranks are read
    pytest.param(lambda: hosvd(np.zeros((0, 3, 4)), (1, 1, 1)), ValueError,
                 "invalid shape (0, 3, 4)", id="<lambda>-ValueError-zero extent (hosvd)"),
    pytest.param(lambda: hooi(np.zeros((3, 0)), (1, 1)), ValueError,
                 "invalid shape (3, 0)", id="<lambda>-ValueError-zero extent (hooi)"),
    # the finiteness check is mode 0's factorization, after the argument checks
    (lambda: hosvd([[np.nan, 1.0]], (2, 1)), ValueError, "rank 2 out of range [1, 1] for mode 0"),
    pytest.param(lambda: hooi([[np.nan, 1.0]], (2, 1)), ValueError,
                 "rank 2 out of range [1, 1] for mode 0",
                 id="<lambda>-ValueError-non-finite input with a bad rank (hooi)"),
    (lambda: hooi(_Z, (3, 1)), ValueError, "rank 3 out of range [1, 2] for mode 0"),
    pytest.param(lambda: tarst(5.0, MedianBased()), ValueError,
                 "tensor must have at least one mode",
                 id="<lambda>-ValueError-input must have at least one mode (tarst)"),
    (lambda: tarst([[np.inf]], "median"), ValueError, "input tensor has non-finite entries"),
    pytest.param(lambda: tarst(_Z, "median"), TypeError, "unknown threshold rule 'median'",
                 id="<lambda>-TypeError-rule must be KnownSigma or MedianBased, got 'median'"),
    pytest.param(lambda: reconstruct(TuckerModel(core=np.zeros((2, 2)), factors=[np.eye(2)])),
                 ValueError, "expected 2 factors, got 1",
                 id="<lambda>-ValueError-core has 2 modes but the model 1 factor"),
    pytest.param(lambda: reconstruct(TuckerModel(core=np.zeros((2, 2)),
                                                 factors=[np.eye(2), np.zeros((3, 3))])),
                 ValueError, "factor with 3 columns cannot contract mode 1 of extent 2",
                 id="<lambda>-ValueError-factor 1 has 3 columns against core extent 2"),
    (lambda: reconstruct(TuckerModel(core=np.zeros(2), factors=[np.zeros(2)])),
     ValueError, "factor must be a matrix"),
    pytest.param(lambda: bench.Pattern1Config(shape=5), TypeError,
                 "shape must be a sequence of integers, got 5",
                 id="<lambda>-TypeError-shape must be a sequence of integers, got 5 (config)"),
]


_C = _Z * 1j

# a complex input is refused, not cast to its real part, at every entry
# point that takes an array
BOUNDARY += [
    pytest.param(call, TypeError, "expected real values, got complex128",
                 id=f"<lambda>-TypeError-complex input ({name})")
    for name, call in [
        ("svd", lambda: svd(_C)),
        ("unfold", lambda: unfold(_C, 0)),
        ("multi_mode_product", lambda: multi_mode_product(_C, [np.eye(2), np.eye(3)])),
        ("multi_mode_product factor",
         lambda: multi_mode_product(_Z, [np.eye(2) * 1j, np.eye(3)])),
        ("frobenius_norm", lambda: frobenius_norm(_C)),
        ("hosvd", lambda: hosvd(_C, (1, 1))),
        ("hooi", lambda: hooi(_C, (1, 1))),
        ("tarst", lambda: tarst(_C, MedianBased())),
        ("rrse", lambda: rrse(_C, _Z + 1.0)),
        ("threshold_for_unfolding",
         lambda: threshold_for_unfolding(2, 3, MedianBased(), [2.0, 1.0j])),
        ("hard_threshold", lambda: hard_threshold([2.0, 1.0j], 1.5)),
        ("write_tensor", lambda: write_tensor(_C, os.devnull)),
        ("add_gaussian_noise", lambda: bench.add_gaussian_noise(_C, 1.0, 0)),
        ("inject_outliers", lambda: bench.inject_outliers(_C, 0.5, 10.0, 0)),
        ("summarize", lambda: cli.summarize(_C.ravel())),
    ]
]


@pytest.mark.parametrize("call, exc, message", BOUNDARY)
def test_public_boundary_keeps_its_exceptions(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call()
