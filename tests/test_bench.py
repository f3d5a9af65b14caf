"""Tests for data generation, corruption, benchmark runners, and CSV I/O."""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from conftest import read_records, set_truth_model
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tarst.bench import (
    CSV_COLUMNS,
    METHODS,
    TRUE_MEAN,
    TRUE_STD,
    Pattern1Config,
    Pattern2Config,
    TrialRecord,
    add_gaussian_noise,
    default_sigma_grid,
    default_true_ranks,
    derive_seed,
    gen_lowrank_tensor,
    inject_outliers,
    mean_rrse_by_cell,
    run_pattern2,
    write_csv,
    write_matrix_file,
)
from tarst.metrics import rrse
from tarst.tensor_ops import multi_mode_product, unfold

# --- seed derivation ---

# frozen from the SeedSequence([master & 0xFFFFFFFF, *indices]) construction;
# numpy documents this hash as platform independent
FROZEN_SEEDS = {
    (0, 1, 0): 5836529245451711556,
    (0, 1, 1): 3108398236813484367,
    (0, 2, 0, 0): 17195319236771816063,
    (0, 2, 3, 1): 3377823752526392602,
    (0, 3, 1, 2, 3, 4): 7768173588806598734,
    (7, 1, 0): 6635463128224577688,
}


def test_derive_seed_frozen_values():
    for args, expect in FROZEN_SEEDS.items():
        assert derive_seed(*args) == expect


def test_derive_seed_masks_master_to_32_bits():
    assert derive_seed(2**63, 1, 0) == derive_seed(0, 1, 0)
    assert derive_seed(2**32 + 5, 1, 0) == derive_seed(5, 1, 0)


def test_derive_seed_rejects_non_integers():
    # int() used to truncate: derive_seed(1.5, 2.7) was derive_seed(1, 2)
    with pytest.raises(TypeError, match="seed must be an integer"):
        derive_seed(1.5, 2)
    with pytest.raises(TypeError, match="index must be an integer"):
        derive_seed(1, 2.0)
    assert derive_seed(np.int64(7), np.uint8(2), 3) == derive_seed(7, 2, 3)


def test_derive_seed_distinguishes_cells():
    seen = {derive_seed(0, tag, i, j) for tag in (1, 2, 3)
            for i in range(5) for j in range(5)}
    assert len(seen) == 75


# --- gen_lowrank_tensor ---


def test_gen_rank1_mean_free_unfoldings_are_rank_one():
    x = gen_lowrank_tensor((6, 7, 8), (1, 1, 1), mean=0.0, std=1.0, seed=0)
    for k in range(3):
        s = np.linalg.svd(unfold(x, k), compute_uv=False)
        assert s[0] > 0
        assert np.all(s[1:] < 1e-10 * s[0])


def test_gen_moments_on_default_condition():
    # seed frozen: the +/-0.1 mean band holds for it (the sample mean of a
    # rank-(3,3,3) draw fluctuates more than an iid draw would)
    x = gen_lowrank_tensor((10, 10, 10), (3, 3, 3), mean=10.0, std=2.0, seed=3)
    assert 9.9 <= x.mean() <= 10.1
    assert 1.96 <= x.std() <= 2.04
    # the generator rescales to the target spread exactly
    assert x.std() == pytest.approx(2.0, abs=1e-12)


def test_truth_model_is_mean_10_std_2():
    # the tests that vary the truth model patch these constants, so this is
    # where a new truth model shows as a change
    assert (TRUE_MEAN, TRUE_STD) == (10.0, 2.0)


def test_gen_deterministic():
    a = gen_lowrank_tensor((5, 6, 7), (2, 2, 2), 10.0, 2.0, seed=42)
    b = gen_lowrank_tensor((5, 6, 7), (2, 2, 2), 10.0, 2.0, seed=42)
    np.testing.assert_array_equal(a, b)
    c = gen_lowrank_tensor((5, 6, 7), (2, 2, 2), 10.0, 2.0, seed=43)
    assert not np.array_equal(a, c)


def test_gen_mode_rank_at_most_r_plus_one_with_mean():
    x = gen_lowrank_tensor((10, 10, 10), (3, 3, 3), mean=10.0, std=2.0, seed=1)
    for k in range(3):
        s = np.linalg.svd(unfold(x, k), compute_uv=False)
        assert np.sum(s > 1e-9 * s[0]) <= 4


def test_gen_zero_std_gives_constant_tensor():
    x = gen_lowrank_tensor((4, 4), (2, 2), mean=7.0, std=0.0, seed=0)
    np.testing.assert_allclose(x, 7.0)


@pytest.mark.parametrize("shape,ranks", [((9,), (2,)), ((6, 5), (2, 3)),
                                         ((5, 6, 7), (2, 2, 3)), ((3, 4, 5, 2), (2, 2, 2, 1))])
@pytest.mark.parametrize("mean,std", [(10.0, 2.0), (0.0, 1.0), (7.0, 0.0), (0.0, 0.0)])
def test_gen_matches_the_reference_formula_bit_for_bit(shape, ranks, mean, std):
    # reference: scale * z + mean on the layout multi_mode_product returns,
    # with the spread summed in that layout before any copy
    rng = np.random.default_rng(8)
    factors = [np.linalg.qr(rng.standard_normal((i, r)))[0] for i, r in zip(shape, ranks)]
    z = multi_mode_product(rng.standard_normal(ranks), factors)
    spread = z.std()
    want = (std / spread if spread > 0 else 0.0) * z + mean
    x = gen_lowrank_tensor(shape, ranks, mean, std, seed=8)
    np.testing.assert_array_equal(x.view(np.uint64), want.view(np.uint64))


def test_gen_validation():
    # the rank messages are hosvd's: one rule, in tensor_ops._check_ranks
    with pytest.raises(ValueError, match=r"^rank 5 out of range \[1, 4\] for mode 0$"):
        gen_lowrank_tensor((4, 4), (5, 2), 0.0, 1.0, seed=0)
    with pytest.raises(ValueError, match=r"^rank 0 out of range \[1, 4\] for mode 0$"):
        gen_lowrank_tensor((4, 4), (0, 2), 0.0, 1.0, seed=0)
    with pytest.raises(ValueError, match="^expected 2 ranks, got 1$"):
        gen_lowrank_tensor((4, 4), (2,), 0.0, 1.0, seed=0)
    with pytest.raises(ValueError, match="std"):
        gen_lowrank_tensor((4, 4), (2, 2), 0.0, -1.0, seed=0)
    with pytest.raises(ValueError, match="finite"):
        gen_lowrank_tensor((4, 4), (2, 2), float("inf"), 1.0, seed=0)


# --- add_gaussian_noise ---


def test_noise_vanishing_sigma():
    x = gen_lowrank_tensor((10, 10, 10), (3, 3, 3), 10.0, 2.0, seed=0)
    y = add_gaussian_noise(x, 1e-12, seed=1)
    assert rrse(y, x) < 1e-11


def test_noise_norm_concentration():
    # ||y - x||_F / sqrt(P) concentrates at sigma for P = 1000
    x = np.zeros((10, 10, 10))
    for seed in range(5):
        y = add_gaussian_noise(x, 1.0, seed=seed)
        assert 0.95 <= np.linalg.norm(y - x) / np.sqrt(x.size) <= 1.05


def test_noise_deterministic_and_additive():
    x = np.arange(24.0).reshape(2, 3, 4)
    y1 = add_gaussian_noise(x, 0.5, seed=9)
    y2 = add_gaussian_noise(x, 0.5, seed=9)
    np.testing.assert_array_equal(y1, y2)
    # same seed, different base: the noise field is identical
    z = add_gaussian_noise(np.zeros_like(x), 0.5, seed=9)
    np.testing.assert_allclose(y1 - x, z, atol=1e-15)


def test_noise_sigma_validation():
    x = np.ones((2, 2))
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma"):
            add_gaussian_noise(x, bad, seed=0)


# --- inject_outliers ---


# inject_outliers returns only the corrupted tensor; on an input with no
# zeros and a scale other than 1 the chosen entries are exactly those with
# out != x


def test_outliers_identity_scale_changes_nothing():
    x = np.arange(1.0, 28.0).reshape(3, 3, 3)
    out = inject_outliers(x, ratio=1.0, scale=1.0, seed=0)
    np.testing.assert_array_equal(out, x)


def test_outliers_exact_count():
    x = np.ones((10, 10, 10))
    out = inject_outliers(x, ratio=0.1, scale=10.0, seed=0)
    assert (out == 10.0).sum() == 100
    assert (out == 1.0).sum() == 900


def test_outliers_multiply_semantics_and_masked_mean():
    x = gen_lowrank_tensor((10, 10, 10), (3, 3, 3), 10.0, 2.0, seed=2)
    assert np.all(x != 0)
    out = inject_outliers(x, ratio=0.05, scale=50.0, seed=3)
    chosen = out != x
    assert chosen.sum() == 50  # round(0.05 * 1000): every other entry is left alone
    np.testing.assert_allclose(out[chosen], 50.0 * x[chosen], rtol=1e-14)
    assert out[chosen].mean() == pytest.approx(50.0 * x[chosen].mean(), rel=1e-12)


def test_outliers_deterministic():
    x = np.random.default_rng(0).normal(size=(6, 6, 6))
    a = inject_outliers(x, 0.25, 25.0, seed=11)
    b = inject_outliers(x, 0.25, 25.0, seed=11)
    np.testing.assert_array_equal(a, b)
    assert (a != x).sum() == 54  # round(0.25 * 216)


def test_outliers_validation():
    x = np.ones((3, 3))
    with pytest.raises(ValueError, match="ratio"):
        inject_outliers(x, 0.0, 10.0, seed=0)
    with pytest.raises(ValueError, match="ratio"):
        inject_outliers(x, 1.5, 10.0, seed=0)
    with pytest.raises(ValueError, match="scale"):
        inject_outliers(x, 0.5, 0.0, seed=0)
    with pytest.raises(ValueError, match="scale"):
        inject_outliers(x, 0.5, float("nan"), seed=0)


def test_outlier_ratio_that_rounds_to_no_entry_is_rejected():
    # round(0.1 * 3) == 0: the input used to come back unchanged, and a
    # config's records carried a ratio their inputs did not hold
    with pytest.raises(ValueError, match=r"^outlier ratio 0\.1 of 3 entries rounds to no outlier$"):
        inject_outliers(np.ones(3), 0.1, 2.0, seed=0)
    with pytest.raises(ValueError, match=r"^outlier ratio 0\.01 of 27 entries rounds to no outlier$"):
        Pattern2Config(shape=(3, 3, 3))
    with pytest.raises(ValueError, match=r"^outlier ratio 0\.001 of 120 entries"):
        Pattern2Config(shape=(5, 6, 4), outlier_ratios=(0.5, 0.001))
    # one corrupted entry is enough
    assert (inject_outliers(np.ones(3), 0.2, 2.0, seed=0) == 2.0).sum() == 1
    assert Pattern2Config(shape=(5, 6, 4)).outlier_ratios[0] == 0.01


# --- defaults and config validation ---


def test_default_sigma_grid_shape():
    g = default_sigma_grid()
    assert len(g) == 20
    assert g[0] == pytest.approx(0.1)
    assert g[-1] == pytest.approx(10.0)
    assert all(a < b for a, b in zip(g, g[1:]))


def test_default_true_ranks():
    assert default_true_ranks((10, 10, 10)) == (3, 3, 3)
    assert default_true_ranks((50, 50, 50)) == (5, 5, 5)
    assert default_true_ranks((2, 5)) == (2, 3)


def test_config_and_generator_shapes_and_ranks_must_be_integers():
    # int() used to truncate: shape (10.9, 10, 10) with ranks (3.7, 3, 3)
    # ran a 10^3 grid at ranks (3, 3, 3)
    for cls in (Pattern1Config, Pattern2Config):
        with pytest.raises(TypeError, match="extent must be an integer"):
            cls(shape=(10.9, 10, 10), true_ranks=(3, 3, 3))
        with pytest.raises(TypeError, match="rank must be an integer"):
            cls(shape=(10, 10, 10), true_ranks=(3.7, 3, 3))
        with pytest.raises(TypeError, match="extent must be an integer"):
            cls(shape=(10.0, 10, 10))
    with pytest.raises(TypeError, match="extent must be an integer"):
        gen_lowrank_tensor((4.5, 4, 4), (2, 2, 2), 0.0, 1.0, seed=0)
    with pytest.raises(TypeError, match="rank must be an integer"):
        gen_lowrank_tensor((4, 4, 4), (2.9, 2, 2), 0.0, 1.0, seed=0)
    # numpy integers are integers, stored as int
    cfg = Pattern1Config(shape=np.array([6, 6, 6]), true_ranks=(np.int64(2), np.uint8(2), 2))
    assert cfg.shape == (6, 6, 6) and cfg.true_ranks == (2, 2, 2)
    assert all(type(v) is int for v in cfg.shape + cfg.true_ranks)
    x = gen_lowrank_tensor(np.array([4, 4, 4]), np.array([2, 2, 2]), 0.0, 1.0, seed=0)
    np.testing.assert_array_equal(x, gen_lowrank_tensor((4, 4, 4), (2, 2, 2), 0.0, 1.0, seed=0))


def test_pattern1_config_validation():
    with pytest.raises(ValueError, match="unknown methods"):
        Pattern1Config(methods=("Baseline", "SVD"))
    with pytest.raises(ValueError, match="nonempty"):
        Pattern1Config(methods=())
    # a repeated method would write each of its records twice
    with pytest.raises(ValueError, match=r"^methods must not repeat, got \('TARST', 'TARST'\)$"):
        Pattern1Config(methods=("TARST", "TARST"))
    with pytest.raises(ValueError, match="reps"):
        Pattern1Config(reps=0)
    with pytest.raises(ValueError, match="ascending"):
        Pattern1Config(sigma_grid=(1.0, 0.5))
    with pytest.raises(ValueError, match="positive"):
        Pattern1Config(sigma_grid=(-1.0, 1.0))
    with pytest.raises(ValueError, match=r"^rank 5 out of range \[1, 4\] for mode 0$"):
        Pattern1Config(shape=(4, 4, 4), true_ranks=(5, 3, 3))
    with pytest.raises(ValueError, match="^expected 3 ranks, got 2$"):
        Pattern1Config(true_ranks=(3, 3))
    for grid in [(1.0, math.inf), (math.nan,), (0.5, math.nan, 2.0)]:
        with pytest.raises(ValueError, match="sigma_grid"):
            Pattern1Config(sigma_grid=grid)
    # the outlier axes are both empty (Pattern 1) or both filled
    with pytest.raises(ValueError, match="empty together"):
        Pattern1Config(outlier_ratios=(0.1,))
    with pytest.raises(ValueError, match="empty together"):
        Pattern1Config(outlier_scales=(10.0,))
    # the shape is checked before the default ranks are derived from it
    for cls in (Pattern1Config, Pattern2Config):
        with pytest.raises(ValueError, match=r"^invalid shape \(\)$"):
            cls(shape=())
        with pytest.raises(ValueError, match=r"^invalid shape \(4, 0, 4\)$"):
            cls(shape=(4, 0, 4))


def test_config_reps_and_seed_must_be_integers():
    # a float reps used to pass the check and fail inside the runner, and a
    # float seed silently ran the grid of its integer part
    for cls in (Pattern1Config, Pattern2Config):
        for field in ("reps", "seed"):
            for bad in (2.5, 2.0, "2"):
                with pytest.raises(TypeError):
                    cls(**{field: bad})
    cfg = Pattern1Config(reps=np.int64(2), seed=np.uint32(7))
    assert (cfg.reps, cfg.seed) == (2, 7)
    assert type(cfg.reps) is int and type(cfg.seed) is int


def test_pattern2_config_validation():
    with pytest.raises(ValueError, match="ratios"):
        Pattern2Config(outlier_ratios=(0.0,))
    with pytest.raises(ValueError, match="ratios"):
        Pattern2Config(outlier_ratios=(1.2,))
    with pytest.raises(ValueError, match="scales"):
        Pattern2Config(outlier_scales=(1.0,))
    for scales in [(10.0, math.inf), (math.nan,)]:
        with pytest.raises(ValueError, match="outlier_scales"):
            Pattern2Config(outlier_scales=scales)
    with pytest.raises(ValueError, match="sigma_grid"):
        Pattern2Config(sigma_grid=(1.0, math.inf))
    # one empty axis would give a grid with no cells
    with pytest.raises(ValueError, match="empty together"):
        Pattern2Config(outlier_ratios=())
    with pytest.raises(ValueError, match="empty together"):
        Pattern2Config(outlier_scales=())
    assert Pattern2Config().outlier_ratios == (0.01, 0.05, 0.10, 0.25, 0.50)
    assert Pattern2Config().outlier_scales == (10.0, 25.0, 50.0, 100.0)
    assert Pattern1Config().outlier_ratios == Pattern1Config().outlier_scales == ()


def test_config_defaults_fill_ranks():
    assert Pattern1Config().true_ranks == (3, 3, 3)
    assert Pattern2Config(shape=(50, 50, 50)).true_ranks == (5, 5, 5)


# --- run_pattern2 on Pattern 1 configs ---


def _p1_small(**kw):
    base = dict(shape=(8, 8, 8), true_ranks=(3, 3, 3), sigma_grid=(0.5, 2.0),
                reps=2, seed=0)
    base.update(kw)
    return Pattern1Config(**base)


def test_pattern1_bookkeeping():
    cfg = _p1_small()
    records = run_pattern2(cfg)
    assert len(records) == len(cfg.sigma_grid) * cfg.reps * len(cfg.methods)
    for rec in records:
        assert rec.method in METHODS
        assert rec.shape == cfg.shape
        assert rec.sigma in cfg.sigma_grid
        assert rec.outlier_ratio is None and rec.outlier_scale is None
        assert np.isfinite(rec.rrse) and rec.rrse >= 0
        assert rec.wall_time_ms >= 0
        if rec.method == "Baseline":
            assert rec.svd_calls == 0
            assert rec.estimated_ranks is None
        elif rec.method in ("HOSVD", "HOOI"):
            assert rec.estimated_ranks == cfg.true_ranks
            assert rec.svd_calls >= 3
        else:
            assert rec.method == "TARST"
            assert rec.svd_calls == 3  # one SVD per mode, nothing else
            assert len(rec.estimated_ranks) == 3
    # grid order: sigma blocks, reps inside, methods innermost
    assert [r.method for r in records[:4]] == list(METHODS)
    assert records[0].sigma == records[len(METHODS) * cfg.reps - 1].sigma == 0.5


def test_rank_given_records_hold_the_ranks_returned():
    # the 6 x 4 mode-1 unfolding has four singular vectors, so HOSVD and
    # HOOI return rank 4 there although rank 5 was asked for
    cfg = _p1_small(shape=(6, 2, 2), true_ranks=(5, 2, 2), sigma_grid=(1.0,), reps=1)
    got = {r.method: r.estimated_ranks for r in run_pattern2(cfg)}
    assert got["HOSVD"] == got["HOOI"] == (4, 2, 2)


def test_pattern1_baseline_matches_noise_norm_oracle():
    cfg = Pattern1Config(shape=(10, 10, 10), true_ranks=(3, 3, 3),
                         sigma_grid=(0.5, 1.0), reps=3, seed=5,
                         methods=("Baseline",))
    records = run_pattern2(cfg)
    p = float(np.prod(cfg.shape))
    k = 0
    for sigma in cfg.sigma_grid:
        for rep in range(cfg.reps):
            truth = gen_lowrank_tensor(cfg.shape, cfg.true_ranks, TRUE_MEAN, TRUE_STD,
                                       derive_seed(cfg.seed, 1, rep))
            expect = sigma * np.sqrt(p) / np.linalg.norm(truth.ravel())
            rec = records[k]
            k += 1
            assert rec.sigma == sigma
            assert rec.rrse == pytest.approx(expect, rel=0.10)
    assert k == len(records)


def test_pattern1_baseline_mean_rrse_monotone_in_sigma():
    cfg = Pattern1Config(sigma_grid=tuple(float(s) for s in np.logspace(-1, 1, 6)),
                         reps=3, seed=0, methods=("Baseline",))
    means = mean_rrse_by_cell(run_pattern2(cfg))
    series = [means[("Baseline", s, None, None)] for s in cfg.sigma_grid]
    assert all(a < b for a, b in zip(series, series[1:]))


def test_pattern1_degenerate_tarst_records_exact_unit_rrse(monkeypatch):
    # signal far below the noise floor: every retained count drops to zero
    # and the zero estimate makes rrse exactly 1
    set_truth_model(monkeypatch, 0.0, 0.25)
    cfg = Pattern1Config(shape=(10, 10, 10), true_ranks=(3, 3, 3), sigma_grid=(10.0,),
                         reps=5, seed=0, methods=("TARST",))
    records = run_pattern2(cfg)
    assert len(records) == 5
    for rec in records:
        assert rec.estimated_ranks == (0, 0, 0)
        assert rec.rrse == 1.0


def test_pattern1_low_noise_no_method_loses_on_exact_rank_truth(monkeypatch):
    # with a mean-free truth the configured ranks equal the true mode ranks,
    # and at the smallest sigma every denoiser stays within 5% of the no-op
    set_truth_model(monkeypatch, 0.0, 2.0)
    cfg = Pattern1Config(shape=(10, 10, 10), true_ranks=(3, 3, 3), sigma_grid=(0.1,),
                         reps=5, seed=0)
    means = mean_rrse_by_cell(run_pattern2(cfg))
    base = means[("Baseline", 0.1, None, None)]
    for method in METHODS:
        assert means[(method, 0.1, None, None)] <= base * 1.05


@pytest.mark.xfail(
    strict=True,
    reason="the default constant mean adds a rank-one component the nominal "
    "ranks do not count, so rank-given methods under-fit and lose to the "
    "no-op at low noise",
)
def test_pattern1_low_noise_no_lose_under_default_mean(monkeypatch):
    set_truth_model(monkeypatch, 10.0, 2.0)
    cfg = Pattern1Config(shape=(10, 10, 10), true_ranks=(3, 3, 3), sigma_grid=(0.1,),
                         reps=5, seed=0)
    means = mean_rrse_by_cell(run_pattern2(cfg))
    base = means[("Baseline", 0.1, None, None)]
    for method in METHODS:
        assert means[(method, 0.1, None, None)] <= base * 1.05


def test_pattern1_rerun_identical_except_wall_time():
    from dataclasses import replace

    cfg = _p1_small()
    a = [replace(r, wall_time_ms=0.0) for r in run_pattern2(cfg)]
    b = [replace(r, wall_time_ms=0.0) for r in run_pattern2(cfg)]
    assert a == b


def test_pattern1_cells_independent_of_grid_extension():
    # adding sigma points must not perturb existing cells
    short = Pattern1Config(shape=(8, 8, 8), sigma_grid=(0.5,), reps=2, seed=3)
    long = Pattern1Config(shape=(8, 8, 8), sigma_grid=(0.5, 1.0), reps=2, seed=3)
    ra = [r for r in run_pattern2(short)]
    rb = [r for r in run_pattern2(long) if r.sigma == 0.5]
    assert [(r.method, r.seed, r.rrse) for r in ra] == \
        [(r.method, r.seed, r.rrse) for r in rb]


@pytest.mark.parametrize("cls", [Pattern1Config, Pattern2Config])
def test_run_pattern2_writes_cells_in_ascending_order(cls):
    # the CLI's summary table prints the cells in the order the runner wrote
    # them; on the default grids that order is ascending (sigma, ratio, scale)
    cfg = cls(reps=1, methods=("Baseline",))
    cells = [(r.sigma, r.outlier_ratio or 0, r.outlier_scale or 0) for r in run_pattern2(cfg)]
    assert len(cells) == len(cfg.sigma_grid) * max(1, len(cfg.outlier_ratios)
                                                   * len(cfg.outlier_scales))
    assert all(a < b for a, b in zip(cells, cells[1:]))


# --- run_pattern2 on Pattern 2 configs ---


def test_pattern2_bookkeeping():
    cfg = Pattern2Config(shape=(8, 8, 8), true_ranks=(3, 3, 3),
                         sigma_grid=(0.5,), outlier_ratios=(0.05, 0.25),
                         outlier_scales=(10.0,), reps=2, seed=0)
    records = run_pattern2(cfg)
    assert len(records) == 1 * 2 * 1 * 2 * len(cfg.methods)
    for rec in records:
        assert rec.outlier_ratio in cfg.outlier_ratios
        assert rec.outlier_scale == 10.0
        assert np.isfinite(rec.rrse) and rec.rrse >= 0
        if rec.method == "TARST":
            assert rec.svd_calls == 3
    # ratio blocks appear in grid order
    assert all(r.outlier_ratio == 0.05 for r in records[:8])
    assert all(r.outlier_ratio == 0.25 for r in records[8:])


def test_concurrent_runs_record_what_a_serial_run_records():
    # each record's svd_calls comes from the model its own trial built, so
    # runners in parallel threads cannot see each other's factorizations
    cfg = Pattern2Config(shape=(10, 10, 10), true_ranks=(3, 3, 3), sigma_grid=(1.0,),
                         reps=2, seed=3)
    want = [replace(r, wall_time_ms=0.0) for r in run_pattern2(cfg)]
    with ThreadPoolExecutor(2) as pool:
        runs = list(pool.map(run_pattern2, [cfg, cfg]))
    assert len(want) == 160
    for got in runs:
        assert [replace(r, wall_time_ms=0.0) for r in got] == want


@pytest.mark.xfail(
    strict=True,
    reason="even 1% of entries scaled by 10 carries far more energy than "
    "sigma=0.1 noise, so the no-op (and others) degrade well past 2x",
)
def test_pattern2_mild_contamination_within_2x_of_pattern1():
    common = dict(shape=(10, 10, 10), true_ranks=(3, 3, 3), reps=3, seed=0)
    means1 = mean_rrse_by_cell(run_pattern2(
        Pattern1Config(sigma_grid=(0.1,), **common)))
    means2 = mean_rrse_by_cell(run_pattern2(
        Pattern2Config(sigma_grid=(0.1,), outlier_ratios=(0.01,),
                       outlier_scales=(10.0,), **common)))
    for method in METHODS:
        p1 = means1[(method, 0.1, None, None)]
        p2 = means2[(method, 0.1, 0.01, 10.0)]
        assert p2 <= 2.0 * p1


# --- CSV I/O ---


def _sample_records():
    return [
        TrialRecord("Baseline", (10, 10, 10), 0.5, None, None, 123, 0.25,
                    None, 1.5, 0),
        TrialRecord("TARST", (10, 10, 10), 0.5, 0.05, 25.0, 456, 0.125,
                    (3, 3, 3), 2.75, 3),
    ]


def test_csv_empty_records_header_only(tmp_path):
    p = tmp_path / "empty.csv"
    write_csv([], p)
    assert p.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_csv_ranks_formatting(tmp_path):
    p = tmp_path / "r.csv"
    write_csv(_sample_records(), p)
    text = p.read_text()
    assert "3;3;3" in text
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("Baseline,3,10x10x10,0.5,,,123,0.25,,")


def test_csv_round_trip_hand_records(tmp_path):
    p = tmp_path / "rt.csv"
    recs = _sample_records()
    write_csv(recs, p)
    assert read_records(p) == recs


record_strategy = st.builds(
    TrialRecord,
    method=st.sampled_from(METHODS),
    shape=st.lists(st.integers(2, 40), min_size=2, max_size=4).map(tuple),
    sigma=st.floats(1e-3, 1e2),
    outlier_ratio=st.one_of(st.none(), st.floats(0.01, 1.0)),
    outlier_scale=st.one_of(st.none(), st.floats(1.5, 100.0)),
    seed=st.integers(0, 2**63 - 1),
    rrse=st.floats(0.0, 1e3),
    estimated_ranks=st.one_of(
        st.none(),
        st.lists(st.integers(0, 9), min_size=1, max_size=4).map(tuple)),
    wall_time_ms=st.floats(0.0, 1e5),
    svd_calls=st.integers(0, 100),
)


@given(records=st.lists(record_strategy, max_size=8))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_csv_writer_deterministic_and_parse_back_exact(tmp_path, records):
    # each case rewrites its own files, so the shared tmp dir carries no state
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(records, pa)
    write_csv(records, pb)
    assert pa.read_bytes() == pb.read_bytes()
    # repr() floats round trip exactly, so whole-record equality holds
    assert read_records(pa) == records


def test_pipeline_csv_rerun_identical_modulo_wall_time(tmp_path):
    cfg = _p1_small()
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_pattern2(cfg), pa)
    write_csv(run_pattern2(cfg), pb)

    def strip_wall(path):
        rows = path.read_text().splitlines()
        out = []
        for row in rows:
            cells = row.split(",")
            del cells[9]  # wall_time_ms
            out.append(",".join(cells))
        return out

    assert strip_wall(pa) == strip_wall(pb)


# --- aggregation ---


def test_mean_rrse_by_cell_oracle():
    recs = [
        TrialRecord("TARST", (4, 4), 1.0, None, None, 0, 0.2, None, 0.0, 2),
        TrialRecord("TARST", (4, 4), 1.0, None, None, 1, 0.4, None, 0.0, 2),
        TrialRecord("TARST", (4, 4), 2.0, None, None, 0, 0.6, None, 0.0, 2),
        TrialRecord("HOOI", (4, 4), 1.0, 0.1, 10.0, 0, 0.8, None, 0.0, 5),
    ]
    means = mean_rrse_by_cell(recs)
    assert means[("TARST", 1.0, None, None)] == pytest.approx(0.3)
    assert means[("TARST", 2.0, None, None)] == pytest.approx(0.6)
    assert means[("HOOI", 1.0, 0.1, 10.0)] == pytest.approx(0.8)
    assert len(means) == 3


def test_write_matrix_file_layout(tmp_path):
    recs = [
        TrialRecord("Baseline", (4, 4), 0.5, None, None, 0, 0.1, None, 0.0, 0),
        TrialRecord("Baseline", (4, 4), 1.0, None, None, 0, 0.3, None, 0.0, 0),
        TrialRecord("TARST", (4, 4), 0.5, None, None, 0, 0.05, None, 0.0, 2),
        TrialRecord("TARST", (4, 4), 1.0, None, None, 0, 0.2, None, 0.0, 2),
    ]
    p = tmp_path / "m.dat"
    write_matrix_file(recs, p)
    lines = p.read_text().splitlines()
    assert lines[0].split() == ["condition", "0.5", "1.0"]
    assert lines[1].split() == ["Baseline", "0.1", "0.3"]
    assert lines[2].split() == ["TARST", "0.05", "0.2"]


def test_write_matrix_file_outlier_labels(tmp_path):
    recs = [
        TrialRecord("TARST", (4, 4), 0.5, 0.25, 50.0, 0, 0.4, None, 0.0, 2),
    ]
    p = tmp_path / "m2.dat"
    write_matrix_file(recs, p)
    lines = p.read_text().splitlines()
    assert lines[1].startswith("TARST:r0.25:s50 ")
