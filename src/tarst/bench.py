"""Synthetic low-rank data, noise/outlier injection, and benchmark runners.

Two experiment patterns, mirroring the usual denoising protocol:

* Pattern 1 sweeps Gaussian noise sigma over a log grid and compares the
  raw observation (Baseline), rank-given HOSVD/HOOI, and the rank-free
  denoiser (TARST).
* Pattern 2 additionally corrupts a fraction of entries by multiplying
  them with a scale factor, probing outlier robustness over the
  (sigma, ratio, scale) grid.

Every trial gets its own seed derived deterministically from the master
seed and the cell's grid indices, so results are reproducible and adding
grid points never perturbs existing cells. Records go to CSV with
shortest-round-trip float formatting; all columns except wall_time_ms are
bit-reproducible across reruns of the same config.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .decomp import hooi, hosvd, reconstruct, tarst
from .linalg import svd_call_count
from .metrics import rrse
from .svht import KnownSigma, MedianBased
from .tensor_ops import multi_mode_product

__all__ = [
    "METHODS",
    "Pattern1Config",
    "Pattern2Config",
    "TrialRecord",
    "default_sigma_grid",
    "derive_seed",
    "gen_lowrank_tensor",
    "add_gaussian_noise",
    "inject_outliers",
    "run_pattern1",
    "run_pattern2",
    "write_csv",
    "read_csv",
    "write_matrix_file",
    "CSV_COLUMNS",
]

METHODS = ("Baseline", "HOSVD", "HOOI", "TARST")

DEFAULT_OUTLIER_RATIOS = (0.01, 0.05, 0.10, 0.25, 0.50)
DEFAULT_OUTLIER_SCALES = (10.0, 25.0, 50.0, 100.0)

# seed-derivation tags keeping truth/noise/outlier streams apart
_TRUTH, _NOISE, _OUTLIER = 1, 2, 3

CSV_COLUMNS = ("method", "N", "dims", "sigma", "outlier_ratio", "outlier_scale",
               "seed", "rrse", "ranks", "wall_time_ms", "svd_calls")


def default_sigma_grid(points: int = 20):
    """Log-spaced noise grid over [0.1, 10]."""
    return tuple(float(s) for s in np.logspace(-1.0, 1.0, points))


def default_true_ranks(shape):
    """3 per mode for small tensors, 5 once the smallest extent reaches 50."""
    base = 5 if min(shape) >= 50 else 3
    return tuple(min(base, i) for i in shape)


def derive_seed(master: int, *indices) -> int:
    """Stable per-cell seed: mixes the master seed with grid indices via
    numpy's SeedSequence (a documented, platform-independent hash)."""
    ss = np.random.SeedSequence([int(master) & 0xFFFFFFFF, *(int(i) for i in indices)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _check_common(cfg):
    shape = tuple(int(i) for i in cfg.shape)
    if len(shape) < 1 or any(i < 1 for i in shape):
        raise ValueError(f"invalid shape {cfg.shape!r}")
    if not all(m in METHODS for m in cfg.methods):
        bad = [m for m in cfg.methods if m not in METHODS]
        raise ValueError(f"unknown methods {bad}; choose from {METHODS}")
    if len(cfg.methods) == 0:
        raise ValueError("methods must be nonempty")
    if cfg.reps < 1:
        raise ValueError(f"reps must be >= 1, got {cfg.reps}")
    grid = tuple(float(s) for s in cfg.sigma_grid)
    if len(grid) == 0 or any(s <= 0 for s in grid):
        raise ValueError("sigma grid must hold positive values")
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError("sigma grid must be sorted strictly ascending")
    if not (math.isfinite(cfg.true_mean) and math.isfinite(cfg.true_std)
            and cfg.true_std > 0):
        raise ValueError("true_mean must be finite and true_std positive")
    ranks = tuple(int(r) for r in cfg.true_ranks)
    if len(ranks) != len(shape) or any(not 1 <= r <= i for r, i in zip(ranks, shape)):
        raise ValueError(f"true_ranks {cfg.true_ranks!r} invalid for shape {shape}")


@dataclass(frozen=True)
class Pattern1Config:
    """Gaussian-noise sweep configuration."""

    shape: tuple = (10, 10, 10)
    true_mean: float = 10.0
    true_std: float = 2.0
    true_ranks: tuple = None
    sigma_grid: tuple = field(default_factory=default_sigma_grid)
    reps: int = 5
    seed: int = 0
    methods: tuple = METHODS
    sigma_known: bool = False  # give TARST the injected sigma instead of the median rule

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(i) for i in self.shape))
        if self.true_ranks is None:
            object.__setattr__(self, "true_ranks", default_true_ranks(self.shape))
        else:
            object.__setattr__(self, "true_ranks", tuple(int(r) for r in self.true_ranks))
        object.__setattr__(self, "sigma_grid", tuple(float(s) for s in self.sigma_grid))
        object.__setattr__(self, "methods", tuple(self.methods))
        _check_common(self)


@dataclass(frozen=True)
class Pattern2Config:
    """Outlier-robustness grid configuration."""

    shape: tuple = (10, 10, 10)
    true_mean: float = 10.0
    true_std: float = 2.0
    true_ranks: tuple = None
    sigma_grid: tuple = field(default_factory=default_sigma_grid)
    outlier_ratios: tuple = DEFAULT_OUTLIER_RATIOS
    outlier_scales: tuple = DEFAULT_OUTLIER_SCALES
    reps: int = 5
    seed: int = 0
    methods: tuple = METHODS
    sigma_known: bool = False

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(i) for i in self.shape))
        if self.true_ranks is None:
            object.__setattr__(self, "true_ranks", default_true_ranks(self.shape))
        else:
            object.__setattr__(self, "true_ranks", tuple(int(r) for r in self.true_ranks))
        object.__setattr__(self, "sigma_grid", tuple(float(s) for s in self.sigma_grid))
        object.__setattr__(self, "outlier_ratios", tuple(float(r) for r in self.outlier_ratios))
        object.__setattr__(self, "outlier_scales", tuple(float(s) for s in self.outlier_scales))
        object.__setattr__(self, "methods", tuple(self.methods))
        _check_common(self)
        if any(not 0 < r <= 1 for r in self.outlier_ratios):
            raise ValueError("outlier ratios must lie in (0, 1]")
        if any(not s > 1 for s in self.outlier_scales):
            raise ValueError("outlier scales must exceed 1")


@dataclass(frozen=True)
class TrialRecord:
    """One (method, condition, seed) outcome."""

    method: str
    shape: tuple
    sigma: float
    outlier_ratio: float | None
    outlier_scale: float | None
    seed: int
    rrse: float
    estimated_ranks: tuple | None
    wall_time_ms: float
    svd_calls: int
    true_std: float | None = None  # condition metadata; not a CSV column


def gen_lowrank_tensor(shape, ranks, mean: float, std: float, seed: int) -> np.ndarray:
    """Random tensor with mode-k rank <= ranks[k] (+1 when mean != 0).

    Construction: orthonormalized Gaussian factors times a Gaussian core,
    scaled so the sample standard deviation of the entries equals ``std``
    exactly, plus the constant ``mean``. The constant adds a rank-one
    component per mode, hence the +1. No centering is applied (it would
    raise the rank of the mean-free case), so the sample mean matches
    ``mean`` only up to a fluctuation that shrinks with the tensor size.
    """
    shape = tuple(int(i) for i in shape)
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != len(shape) or any(not 1 <= r <= i for r, i in zip(ranks, shape)):
        raise ValueError(f"ranks {ranks!r} out of range for shape {shape}")
    if not (math.isfinite(mean) and math.isfinite(std) and std >= 0):
        raise ValueError("mean must be finite and std nonnegative")
    rng = np.random.default_rng(seed)
    factors = [np.linalg.qr(rng.standard_normal((i, r)))[0] for i, r in zip(shape, ranks)]
    core = rng.standard_normal(ranks)
    z = multi_mode_product(core, factors)
    spread = z.std()
    scale = std / spread if spread > 0 else 0.0
    return scale * z + mean


def add_gaussian_noise(x, sigma: float, seed: int) -> np.ndarray:
    """x + sigma * E with E iid standard normal; deterministic per seed."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    a = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(seed)
    return a + sigma * rng.standard_normal(a.shape)


def inject_outliers(x, ratio: float, scale: float, seed: int,
                    replace_with_scaled_mean: bool = False):
    """Corrupt round(ratio * P) distinct uniformly chosen entries.

    Default semantics multiply the original entry by ``scale``; the
    alternative replaces it with ``scale * mean(x)``. Returns the corrupted
    tensor and the boolean mask of modified positions.
    """
    if not 0 < ratio <= 1:
        raise ValueError(f"ratio must lie in (0, 1], got {ratio!r}")
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be positive, got {scale!r}")
    a = np.asarray(x, dtype=np.float64)
    count = int(round(ratio * a.size))
    rng = np.random.default_rng(seed)
    idx = rng.choice(a.size, size=count, replace=False)
    out = a.copy()
    flat = out.reshape(-1)
    if replace_with_scaled_mean:
        flat[idx] = scale * a.mean()
    else:
        flat[idx] *= scale
    mask = np.zeros(a.size, dtype=bool)
    mask[idx] = True
    return out, mask.reshape(a.shape)


def _run_method(method, y, truth, cfg, sigma, trial_seed):
    rule = KnownSigma(sigma) if cfg.sigma_known else MedianBased()
    calls_before = svd_call_count()
    t0 = time.perf_counter()
    ranks_out = None
    if method == "Baseline":
        est = y
    elif method == "HOSVD":
        # rank-specified methods get the generator's nominal ranks; the
        # constant-mean component is deliberately not counted toward them;
        # the record holds the ranks of the model returned, which a small
        # mode can cap below the nominal ones
        model = hosvd(y, cfg.true_ranks)
        est = reconstruct(model)
        ranks_out = model.ranks
    elif method == "HOOI":
        model = hooi(y, cfg.true_ranks)
        est = reconstruct(model)
        ranks_out = model.ranks
    elif method == "TARST":
        report = tarst(y, rule)
        est = reconstruct(report.model)
        ranks_out = report.estimated_ranks
    else:  # config validation makes this unreachable
        raise ValueError(f"unknown method {method!r}")
    wall_ms = (time.perf_counter() - t0) * 1e3
    calls = svd_call_count() - calls_before
    return TrialRecord(
        method=method,
        shape=tuple(y.shape),
        sigma=float(sigma),
        outlier_ratio=None,
        outlier_scale=None,
        seed=int(trial_seed),
        rrse=float(rrse(est, truth)),
        estimated_ranks=ranks_out,
        wall_time_ms=float(wall_ms),
        svd_calls=int(calls),
        true_std=float(cfg.true_std),
    )


def _truths(cfg):
    return [gen_lowrank_tensor(cfg.shape, cfg.true_ranks, cfg.true_mean,
                               cfg.true_std, derive_seed(cfg.seed, _TRUTH, rep))
            for rep in range(cfg.reps)]


def run_pattern1(cfg: Pattern1Config):
    """Noise sweep: one record per (sigma, rep, method), in grid order."""
    truths = _truths(cfg)
    records = []
    for i, sigma in enumerate(cfg.sigma_grid):
        for rep in range(cfg.reps):
            noise_seed = derive_seed(cfg.seed, _NOISE, i, rep)
            y = add_gaussian_noise(truths[rep], sigma, noise_seed)
            for method in cfg.methods:
                records.append(_run_method(method, y, truths[rep], cfg, sigma, noise_seed))
    return records


def run_pattern2(cfg: Pattern2Config):
    """Outlier grid: one record per (sigma, ratio, scale, rep, method)."""
    truths = _truths(cfg)
    records = []
    for i, sigma in enumerate(cfg.sigma_grid):
        for j, ratio in enumerate(cfg.outlier_ratios):
            for k, scale in enumerate(cfg.outlier_scales):
                for rep in range(cfg.reps):
                    noise_seed = derive_seed(cfg.seed, _NOISE, i, j, k, rep)
                    out_seed = derive_seed(cfg.seed, _OUTLIER, i, j, k, rep)
                    y = add_gaussian_noise(truths[rep], sigma, noise_seed)
                    y, _ = inject_outliers(y, ratio, scale, out_seed)
                    for method in cfg.methods:
                        rec = _run_method(method, y, truths[rep], cfg, sigma, noise_seed)
                        records.append(replace(rec, outlier_ratio=float(ratio),
                                               outlier_scale=float(scale)))
    return records


def _fmt(v) -> str:
    if v is None:
        return ""
    return repr(float(v))


def write_csv(records, path) -> None:
    """Write records in grid order; str(float) keeps full precision so a
    parse-back reproduces every numeric field exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for r in records:
            w.writerow([
                r.method,
                len(r.shape),
                "x".join(str(i) for i in r.shape),
                _fmt(r.sigma),
                _fmt(r.outlier_ratio),
                _fmt(r.outlier_scale),
                r.seed,
                _fmt(r.rrse),
                "" if r.estimated_ranks is None else ";".join(str(int(x)) for x in r.estimated_ranks),
                _fmt(r.wall_time_ms),
                r.svd_calls,
            ])


def read_csv(path):
    """Parse a benchmark CSV back into TrialRecords (true_std is not stored
    in the file and comes back as None)."""
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if tuple(header or ()) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header in {path}: {header!r}")
        for row in reader:
            (method, n, dims, sigma, ratio, scale, seed, err, ranks, wall, calls) = row
            shape = tuple(int(d) for d in dims.split("x"))
            if len(shape) != int(n):
                raise ValueError(f"row claims N={n} but dims={dims!r}")
            records.append(TrialRecord(
                method=method,
                shape=shape,
                sigma=float(sigma),
                outlier_ratio=float(ratio) if ratio else None,
                outlier_scale=float(scale) if scale else None,
                seed=int(seed),
                rrse=float(err),
                estimated_ranks=tuple(int(x) for x in ranks.split(";")) if ranks else None,
                wall_time_ms=float(wall),
                svd_calls=int(calls),
            ))
    return records


def _condition_label(rec: TrialRecord) -> str:
    if rec.outlier_ratio is None:
        return rec.method
    return f"{rec.method}:r{rec.outlier_ratio:g}:s{rec.outlier_scale:g}"


def mean_rrse_by_cell(records):
    """{(method, sigma, ratio, scale): mean rrse} over reps."""
    cells = {}
    for r in records:
        cells.setdefault((r.method, r.sigma, r.outlier_ratio, r.outlier_scale),
                         []).append(r.rrse)
    return {key: float(np.asarray(vals, dtype=np.float64).mean())
            for key, vals in cells.items()}


def write_matrix_file(records, path) -> None:
    """gnuplot-friendly matrix: first row the sigma grid, first column the
    condition labels (method, plus ratio/scale for outlier runs), cells the
    mean rrse over reps."""
    sigmas = sorted({r.sigma for r in records})
    labels = []
    for r in records:  # preserve first-appearance order
        lbl = _condition_label(r)
        if lbl not in labels:
            labels.append(lbl)
    means = mean_rrse_by_cell(records)
    by_label = {}
    for r in records:
        key = (r.method, r.sigma, r.outlier_ratio, r.outlier_scale)
        by_label.setdefault(_condition_label(r), {})[r.sigma] = means[key]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("condition " + " ".join(repr(s) for s in sigmas) + "\n")
        for lbl in labels:
            row = by_label.get(lbl, {})
            cells = " ".join(repr(row[s]) if s in row else "nan" for s in sigmas)
            fh.write(f"{lbl} {cells}\n")
