"""Release acceptance gate.

One test per criterion. Each computes its checks end to end, records a single
verdict line, then asserts, so a red criterion still reports itself before
failing. The conftest terminal-summary hook echoes all verdicts after the
run, where pytest's capture no longer hides them.
"""

import math
import time

import numpy as np
import pytest
from conftest import ACCEPTANCE_VERDICTS
from scipy.optimize import brentq

from tarst.bench import (
    METHODS,
    Pattern1Config,
    Pattern2Config,
    TrialRecord,
    add_gaussian_noise,
    default_sigma_grid,
    gen_lowrank_tensor,
    mean_rrse_by_cell,
    read_csv,
    run_pattern1,
    run_pattern2,
    write_csv,
)
from tarst.decomp import hooi, hosvd, reconstruct, tarst
from tarst.metrics import rrse
from tarst.svht import KnownSigma, MedianBased, hard_threshold, lambda_star, mp_median, omega
from tarst.tensor_ops import fold, frobenius_norm, mode_product, multi_mode_product, unfold


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {num} ({name}): {status} ({detail})"
    print(line, flush=True)
    ACCEPTANCE_VERDICTS.append(line)


# shared benchmark runs; criteria 4, 5, and 6 all read them


@pytest.fixture(scope="module")
def pattern1_run():
    cfg = Pattern1Config(shape=(10, 10, 10), true_mean=10.0, true_std=2.0,
                         true_ranks=(3, 3, 3), reps=5, seed=0)
    t0 = time.perf_counter()
    records = run_pattern1(cfg)
    return cfg, records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def pattern2_run():
    # the default log grid skips 1.0 exactly; add it so the sigma=1 cells
    # of the outlier criterion are well defined
    grid = tuple(sorted(set(default_sigma_grid()) | {1.0}))
    cfg = Pattern2Config(shape=(10, 10, 10), true_mean=10.0, true_std=2.0,
                         true_ranks=(3, 3, 3), sigma_grid=grid, reps=5, seed=0)
    t0 = time.perf_counter()
    records = run_pattern2(cfg)
    return cfg, records, time.perf_counter() - t0


def test_criterion_1_threshold_constants():
    lam = lambda_star(1.0)
    om = omega(1.0)
    target = 4.0 / math.sqrt(3.0)
    lam_ok = abs(lam - target) < 1e-6
    om_ok = 2.855 <= om <= 2.861
    _verdict(1, "threshold constants", lam_ok and om_ok,
             f"lambda_star(1)={lam:.9f} vs 4/sqrt(3)={target:.9f}, "
             f"omega(1)={om:.9f} in [2.855, 2.861]")
    assert lam_ok
    assert om_ok


def test_criterion_2_mp_median_oracle():
    # independent oracle: the median theta solves 4*theta + 2*sin(2*theta) = pi,
    # and the quantile itself is 4*sin(theta)^2
    theta = brentq(lambda t: 4.0 * t + 2.0 * math.sin(2.0 * t) - math.pi,
                   0.0, math.pi / 2.0, xtol=1e-15)
    mu_oracle = 4.0 * math.sin(theta) ** 2
    mu = mp_median(1.0)
    oracle_ok = abs(mu - mu_oracle) < 1e-6

    hits = 0
    for seed in range(5):
        g = np.random.default_rng(seed).standard_normal((400, 400))
        s = np.linalg.svd(g / 20.0, compute_uv=False)
        med = float(np.median(s**2))
        hits += abs(med - mu) <= 0.03 * mu
    mc_ok = hits >= 4

    _verdict(2, "MP median oracle", oracle_ok and mc_ok,
             f"mp_median(1)={mu:.9f} vs trig oracle {mu_oracle:.9f}; "
             f"400x400 Monte Carlo within 3% on {hits}/5 seeds")
    assert oracle_ok
    assert mc_ok


def test_criterion_3_exactness():
    rng = np.random.default_rng(0)

    y = rng.standard_normal((6, 7, 8))
    err_full = rrse(reconstruct(hosvd(y, (6, 7, 8))), y)

    shape, ranks = (8, 9, 10), (2, 3, 4)
    factors = [np.linalg.qr(rng.standard_normal((i, r)))[0]
               for i, r in zip(shape, ranks)]
    x = multi_mode_product(rng.standard_normal(ranks), factors)
    err_hosvd = rrse(reconstruct(hosvd(x, ranks)), x)
    err_hooi = rrse(reconstruct(hooi(x, ranks)), x)
    report = tarst(x, KnownSigma(1e-10))
    err_tarst = rrse(reconstruct(report.model), x)
    ranks_exact = report.estimated_ranks == ranks

    strong = gen_lowrank_tensor((10, 10, 10), (3, 3, 3), mean=0.0, std=100.0, seed=1)
    noisy = add_gaussian_noise(strong, 1.0, seed=2)
    rank_med = tarst(noisy, MedianBased()).estimated_ranks
    rank_known = tarst(noisy, KnownSigma(1.0)).estimated_ranks
    recovery_ok = rank_med == (3, 3, 3) and rank_known == (3, 3, 3)

    errs = (err_full, err_hosvd, err_hooi, err_tarst)
    err_ok = all(e < 1e-9 for e in errs)
    ok = err_ok and ranks_exact and recovery_ok
    _verdict(3, "exactness", ok,
             f"rel errs full={err_full:.2e} hosvd={err_hosvd:.2e} "
             f"hooi={err_hooi:.2e} tarst={err_tarst:.2e}; exact-input ranks "
             f"{report.estimated_ranks}; strong-signal ranks {rank_med}/{rank_known}")
    assert err_ok
    assert ranks_exact
    assert recovery_ok


def test_criterion_4_noise_sweep_ordering(pattern1_run):
    cfg, records, elapsed = pattern1_run
    means = mean_rrse_by_cell(records)
    base = [means[("Baseline", s, None, None)] for s in cfg.sigma_grid]
    monotone = all(a < b for a, b in zip(base, base[1:]))

    high = [s for s in cfg.sigma_grid if s >= 1.0]
    failures = []
    for s in high:
        t = means[("TARST", s, None, None)]
        worse = [m for m in ("HOSVD", "HOOI", "Baseline")
                 if not t < means[(m, s, None, None)]]
        if worse:
            failures.append(f"sigma={s:.3g} not below {'/'.join(worse)}")
    time_ok = elapsed < 60.0
    ok = monotone and not failures and time_ok
    detail = (f"baseline monotone={monotone}, {elapsed:.1f}s; TARST strictly "
              f"best at {len(high) - len(failures)}/{len(high)} points with "
              f"sigma >= 1")
    if failures:
        detail += "; " + "; ".join(failures)
    _verdict(4, "noise sweep ordering", ok, detail)
    assert time_ok
    assert monotone
    assert not failures, detail


def test_criterion_5_outlier_grid(pattern2_run):
    cfg, records, elapsed = pattern2_run
    means = mean_rrse_by_cell(records)

    def cell(method, sigma, ratio, scale):
        return means[(method, sigma, ratio, scale)]

    t_a = cell("TARST", 10.0, 0.50, 100.0)
    h_a = cell("HOSVD", 10.0, 0.50, 100.0)
    b_a = cell("Baseline", 10.0, 0.50, 100.0)
    t_b = cell("TARST", 1.0, 0.25, 50.0)
    h_b = cell("HOSVD", 1.0, 0.25, 50.0)
    b_b = cell("Baseline", 1.0, 0.25, 50.0)
    extremes_ok = t_a < h_a and t_a < b_a and t_b < h_b and t_b < b_b

    t_vals = [v for k, v in means.items() if k[0] == "TARST"]
    h_vals = [v for k, v in means.items() if k[0] == "HOSVD"]
    # stability across the grid, read pairwise: the worst and the best TARST
    # cells both sit below the corresponding HOSVD cells
    stable_ok = max(t_vals) < max(h_vals) and min(t_vals) < min(h_vals)
    time_ok = elapsed < 300.0
    ok = extremes_ok and stable_ok and time_ok
    _verdict(5, "outlier grid ordering", ok,
             f"extremes: ({t_a:.3g} < {h_a:.3g}, {b_a:.3g}) and "
             f"({t_b:.3g} < {h_b:.3g}, {b_b:.3g}); grid max {max(t_vals):.3g} "
             f"vs {max(h_vals):.3g}, min {min(t_vals):.3g} vs {min(h_vals):.3g} "
             f"(spread ratio {max(t_vals) / min(t_vals):.0f} vs "
             f"{max(h_vals) / min(h_vals):.0f}); {elapsed:.1f}s")
    assert time_ok
    assert extremes_ok
    assert stable_ok


def test_criterion_6_non_iterative_scaling(pattern1_run, pattern2_run):
    _, recs1, _ = pattern1_run
    _, recs2, _ = pattern2_run
    tarst_recs = [r for r in recs1 + recs2 if r.method == "TARST"]
    calls_ok = bool(tarst_recs) and all(r.svd_calls == 3 for r in tarst_recs)

    t0 = time.perf_counter()
    sizes, times = [], []
    for side in (10, 20, 30, 40, 50):
        x = gen_lowrank_tensor((side,) * 3, (3, 3, 3), 10.0, 2.0, seed=side)
        y = add_gaussian_noise(x, 1.0, seed=side + 1)
        best = math.inf
        for _ in range(3):
            t1 = time.perf_counter()
            tarst(y, MedianBased())
            best = min(best, time.perf_counter() - t1)
        sizes.append(side**3)
        times.append(best)
    slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    elapsed = time.perf_counter() - t0
    slope_ok = slope <= 1.6
    time_ok = elapsed < 300.0
    ok = calls_ok and slope_ok and time_ok
    _verdict(6, "non-iterative scaling", ok,
             f"svd_calls==3 on all {len(tarst_recs)} TARST trials: {calls_ok}; "
             f"log-log wall-time slope {slope:.3f} <= 1.6 over sides 10..50; "
             f"{elapsed:.1f}s")
    assert calls_ok
    assert slope_ok
    assert time_ok


# criterion 7: compact seeded re-runs of the six property suites, 200
# randomized cases each (the per-module test files carry the wider
# hypothesis versions)


def _suite_fold_unfold(rng):
    for _ in range(200):
        ndim = int(rng.integers(1, 5))
        shape = tuple(int(v) for v in rng.integers(1, 6, size=ndim))
        x = rng.standard_normal(shape)
        k = int(rng.integers(0, ndim))
        assert np.array_equal(fold(unfold(x, k), k, shape), x)
    return 200


def _suite_commutativity(rng):
    for _ in range(200):
        shape = tuple(int(v) for v in rng.integers(2, 6, size=3))
        x = rng.standard_normal(shape)
        j, k = sorted(rng.choice(3, size=2, replace=False))
        a = rng.standard_normal((int(rng.integers(1, 5)), shape[j]))
        b = rng.standard_normal((int(rng.integers(1, 5)), shape[k]))
        left = mode_product(mode_product(x, a, int(j)), b, int(k))
        right = mode_product(mode_product(x, b, int(k)), a, int(j))
        np.testing.assert_allclose(left, right, rtol=1e-10, atol=1e-10)
    return 200


def _suite_threshold(rng):
    for _ in range(200):
        n = int(rng.integers(1, 12))
        spectrum = np.sort(np.abs(rng.standard_normal(n)))[::-1] * 10.0
        lo, hi = np.sort(rng.uniform(0.0, 12.0, size=2))
        vals_lo, kept_lo = hard_threshold(spectrum, float(lo))
        vals_hi, kept_hi = hard_threshold(spectrum, float(hi))
        assert kept_hi <= kept_lo  # raising tau never keeps more
        again, kept_again = hard_threshold(vals_lo, float(lo))
        assert kept_again == kept_lo
        np.testing.assert_array_equal(again, vals_lo)
    return 200


def _suite_hooi_fit(rng):
    for _ in range(200):
        shape = tuple(int(v) for v in rng.integers(3, 7, size=3))
        ranks = tuple(min(2, i) for i in shape)
        y = rng.standard_normal(shape)
        fits = hooi(y, ranks, tol=1e-12, max_iter=6).fits
        assert all(b - a >= -1e-10 for a, b in zip(fits, fits[1:]))
    return 200


def _suite_projection_contraction(rng):
    for _ in range(200):
        shape = tuple(int(v) for v in rng.integers(2, 7, size=3))
        y = rng.standard_normal(shape)
        qs = [np.linalg.qr(rng.standard_normal((i, int(rng.integers(1, i + 1)))))[0]
              for i in shape]
        core = multi_mode_product(y, [q.T for q in qs])
        assert frobenius_norm(core) <= frobenius_norm(y) + 1e-12
    return 200


def _suite_csv_determinism(rng, tmp_path):
    pa, pb = tmp_path / "det_a.csv", tmp_path / "det_b.csv"
    for _ in range(200):
        recs = []
        for _ in range(int(rng.integers(0, 6))):
            has_outliers = rng.random() < 0.5
            ranks = (None if rng.random() < 0.3 else
                     tuple(int(v) for v in rng.integers(0, 9, size=3)))
            recs.append(TrialRecord(
                method=str(METHODS[int(rng.integers(0, 4))]),
                shape=tuple(int(v) for v in rng.integers(2, 30, size=3)),
                sigma=float(rng.uniform(0.1, 10.0)),
                outlier_ratio=float(rng.uniform(0.01, 1.0)) if has_outliers else None,
                outlier_scale=float(rng.uniform(1.5, 100.0)) if has_outliers else None,
                seed=int(rng.integers(0, 2**63)),
                rrse=float(rng.uniform(0.0, 100.0)),
                estimated_ranks=ranks,
                wall_time_ms=float(rng.uniform(0.0, 1e4)),
                svd_calls=int(rng.integers(0, 50)),
            ))
        write_csv(recs, pa)
        write_csv(recs, pb)
        assert pa.read_bytes() == pb.read_bytes()
        assert read_csv(pa) == recs
    return 200


def test_criterion_7_property_suites(tmp_path):
    rng = np.random.default_rng(2024)
    suites = [
        ("fold/unfold round trip", lambda: _suite_fold_unfold(rng)),
        ("mode-product commutativity", lambda: _suite_commutativity(rng)),
        ("threshold monotonicity/idempotence", lambda: _suite_threshold(rng)),
        ("HOOI fit monotonicity", lambda: _suite_hooi_fit(rng)),
        ("projection contraction", lambda: _suite_projection_contraction(rng)),
        ("CSV determinism", lambda: _suite_csv_determinism(rng, tmp_path)),
    ]
    t0 = time.perf_counter()
    failed = []
    for name, fn in suites:
        try:
            assert fn() >= 200
        except AssertionError:
            failed.append(name)
    elapsed = time.perf_counter() - t0
    time_ok = elapsed < 120.0
    ok = not failed and time_ok
    detail = f"{len(suites) - len(failed)}/{len(suites)} suites x 200 cases, {elapsed:.1f}s"
    if failed:
        detail += "; failed: " + ", ".join(failed)
    _verdict(7, "property suites", ok, detail)
    assert time_ok
    assert not failed, detail
