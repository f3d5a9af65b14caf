"""Rank-decision oracle: TARST's decisions do not hinge on the SVD kernel.

Every Pattern 1 and Pattern 2 acceptance input (2200 tensors, rebuilt from
the master seed as ``run_pattern2`` builds them) is denoised under both
threshold rules twice: with the package's ``svd`` (the Gram path on these
wide unfoldings) and with plain LAPACK. The ranks must agree exactly; the
thresholds and estimates within 1e-10 relative, the agreement of the two
paths at the Gram conditioning gate. A kernel change that keeps this test
green changes no rank decision on the acceptance data.

A property adds the symmetries of the rank decision on small random
tensors: permuting the modes permutes the ranks, and reversing the index
order within a mode changes none, whenever no singular value lies within
1e-8 relative of its mode's cutoff.
"""

from dataclasses import replace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tarst import decomp
from tarst.bench import (
    _NOISE,
    _OUTLIER,
    _TRUTH,
    Pattern1Config,
    Pattern2Config,
    add_gaussian_noise,
    default_sigma_grid,
    derive_seed,
    gen_lowrank_tensor,
    inject_outliers,
    run_pattern2,
)
from tarst.decomp import reconstruct, tarst
from tarst.linalg import svd
from tarst.metrics import rrse
from tarst.svht import KnownSigma, MedianBased, _cutoff
from tarst.tensor_ops import unfold

RTOL = 1e-10
_CUBE = dict(shape=(10, 10, 10), true_mean=10.0, true_std=2.0, true_ranks=(3, 3, 3),
             reps=5, seed=0)
# the acceptance configs; Pattern 2's grid adds sigma = 1 to the default one
CONFIGS = (Pattern1Config(**_CUBE),
           Pattern2Config(sigma_grid=tuple(sorted({*default_sigma_grid(), 1.0})), **_CUBE))


def _trials(cfg):
    """(sigma, truth, y) per trial, in run_pattern2's grid order and from its seeds."""
    cells = [((j, k), ratio, scale)
             for j, ratio in enumerate(cfg.outlier_ratios)
             for k, scale in enumerate(cfg.outlier_scales)] or [((), None, None)]
    truths = [gen_lowrank_tensor(cfg.shape, cfg.true_ranks, cfg.true_mean, cfg.true_std,
                                 derive_seed(cfg.seed, _TRUTH, rep))
              for rep in range(cfg.reps)]
    for i, sigma in enumerate(cfg.sigma_grid):
        for idx, ratio, scale in cells:
            for rep in range(cfg.reps):
                y = add_gaussian_noise(truths[rep], sigma,
                                       derive_seed(cfg.seed, _NOISE, i, *idx, rep))
                if ratio is not None:
                    y, _ = inject_outliers(y, ratio, scale,
                                           derive_seed(cfg.seed, _OUTLIER, i, *idx, rep))
                yield sigma, truths[rep], y


def _lapack_svd(m):
    return np.linalg.svd(m, full_matrices=False)[:2]


def test_ranks_do_not_depend_on_the_svd_kernel(monkeypatch):
    count, mismatches = 0, []
    for cfg in CONFIGS:
        median_rrse = []
        for sigma, truth, y in _trials(cfg):
            count += 1
            rules = (KnownSigma(sigma), MedianBased())
            reports = [tarst(y, rule) for rule in rules]
            with monkeypatch.context() as mp:
                mp.setattr(decomp, "svd", _lapack_svd)
                refs = [tarst(y, rule) for rule in rules]
            for rule, ours, ref in zip(rules, reports, refs):
                est, est_ref = reconstruct(ours.model), reconstruct(ref.model)
                tau, tau_ref = np.array(ours.thresholds), np.array(ref.thresholds)
                if (ours.estimated_ranks != ref.estimated_ranks
                        or np.any(np.abs(tau - tau_ref) > RTOL * tau_ref)
                        or np.linalg.norm(est - est_ref) > RTOL * np.linalg.norm(est_ref)):
                    mismatches.append((sigma, rule, ours.estimated_ranks, ref.estimated_ranks))
            median_rrse.append(rrse(est, truth))
        # the rebuilt inputs are the benchmark's: its first sigma's TARST
        # records hold the same rrse, bit for bit
        head = run_pattern2(replace(cfg, methods=("TARST",), sigma_grid=cfg.sigma_grid[:1]))
        assert [r.rrse for r in head] == median_rrse[:len(head)]
    assert count == 2200
    assert mismatches == []


def _min_margin(y, rule):
    """min over modes and singular values of |s_i / tau - 1|, tau the mode's cutoff."""
    margins = []
    for k in range(y.ndim):
        m = unfold(y, k)
        s = svd(m)[1]
        margins.append(np.min(np.abs(s / _cutoff(m.shape[0], m.shape[1], rule, s) - 1)))
    return min(margins)


@st.composite
def _noisy_tucker(draw):
    """A 1- to 4-way tensor of extents 1..6: a few rank-1 terms of drawn
    strength plus Gaussian noise of level sigma."""
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma = draw(st.sampled_from((0.01, 0.1, 1.0)))
    y = sigma * rng.standard_normal(shape)
    for _ in range(draw(st.integers(0, 3))):
        term = draw(st.floats(0.1, 20.0))
        for i in shape:
            term = np.multiply.outer(term, rng.standard_normal(i))
        y += term
    return y, sigma


@settings(max_examples=150, deadline=None)
@given(_noisy_tucker(), st.data())
def test_ranks_permute_with_the_modes_and_ignore_index_order(case, data):
    y, sigma = case
    perm = data.draw(st.permutations(range(y.ndim)))
    for rule in (KnownSigma(sigma), MedianBased()):
        assume(_min_margin(y, rule) > 1e-8)
        ranks = tarst(y, rule).estimated_ranks
        assert tarst(y.transpose(perm), rule).estimated_ranks == tuple(ranks[j] for j in perm)
        for k in range(y.ndim):
            assert tarst(np.flip(y, axis=k), rule).estimated_ranks == ranks
