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
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Pattern1Config:
    """Benchmark grid configuration. Pattern 1, the Gaussian-noise sweep,
    leaves both outlier axes empty; Pattern 2 fills both."""

    shape: tuple = (10, 10, 10)
    true_mean: float = 10.0
    true_std: float = 2.0
    true_ranks: tuple = None
    sigma_grid: tuple = field(default_factory=default_sigma_grid)
    reps: int = 5
    seed: int = 0
    methods: tuple = METHODS
    sigma_known: bool = False  # give TARST the injected sigma instead of the median rule
    outlier_ratios: tuple = ()
    outlier_scales: tuple = ()

    def __post_init__(self):
        """Store the sequences as tuples, fill in the default ranks, and
        check every field."""
        shape = tuple(int(i) for i in self.shape)
        ranks = default_true_ranks(shape) if self.true_ranks is None else self.true_ranks
        fields = {"shape": shape, "true_ranks": tuple(int(r) for r in ranks),
                  "methods": tuple(self.methods)}
        for name in ("sigma_grid", "outlier_ratios", "outlier_scales"):
            fields[name] = tuple(float(v) for v in getattr(self, name))
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        if len(shape) < 1 or any(i < 1 for i in shape):
            raise ValueError(f"invalid shape {shape!r}")
        if not all(m in METHODS for m in self.methods):
            bad = [m for m in self.methods if m not in METHODS]
            raise ValueError(f"unknown methods {bad}; choose from {METHODS}")
        if len(self.methods) == 0:
            raise ValueError("methods must be nonempty")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        grid = self.sigma_grid
        if len(grid) == 0 or not all(0 < s < math.inf for s in grid):
            raise ValueError("sigma_grid must hold positive finite values")
        if any(a >= b for a, b in zip(grid, grid[1:])):
            raise ValueError("sigma_grid must be sorted strictly ascending")
        if not (math.isfinite(self.true_mean) and math.isfinite(self.true_std)
                and self.true_std > 0):
            raise ValueError("true_mean must be finite and true_std positive")
        ranks = self.true_ranks
        if len(ranks) != len(shape) or any(not 1 <= r <= i for r, i in zip(ranks, shape)):
            raise ValueError(f"true_ranks {ranks!r} invalid for shape {shape}")
        if (len(self.outlier_ratios) == 0) != (len(self.outlier_scales) == 0):
            raise ValueError("outlier_ratios and outlier_scales must be empty together")
        if any(not 0 < r <= 1 for r in self.outlier_ratios):
            raise ValueError("outlier_ratios must lie in (0, 1]")
        if any(not 1 < s < math.inf for s in self.outlier_scales):
            raise ValueError("outlier_scales must be finite and exceed 1")


@dataclass(frozen=True)
class Pattern2Config(Pattern1Config):
    """Outlier-robustness grid: Pattern 1's fields with the outlier axes
    filled by default."""

    outlier_ratios: tuple = DEFAULT_OUTLIER_RATIOS
    outlier_scales: tuple = DEFAULT_OUTLIER_SCALES


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


def inject_outliers(x, ratio: float, scale: float, seed: int):
    """Multiply round(ratio * P) distinct uniformly chosen entries by
    ``scale``. Returns the corrupted tensor and the boolean mask of modified
    positions.
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
    out.reshape(-1)[idx] *= scale
    mask = np.zeros(a.size, dtype=bool)
    mask[idx] = True
    return out, mask.reshape(a.shape)


def _run_method(method, y, truth, cfg, sigma, trial_seed, ratio, scale):
    rule = KnownSigma(sigma) if cfg.sigma_known else MedianBased()
    calls_before = svd_call_count()
    t0 = time.perf_counter()
    if method == "Baseline":
        est, ranks_out = y, None
    else:
        if method == "TARST":
            model = tarst(y, rule).model
        else:
            # rank-specified methods get the generator's nominal ranks; the
            # constant-mean component is deliberately not counted toward them
            model = (hosvd if method == "HOSVD" else hooi)(y, cfg.true_ranks)
        # the record holds the ranks of the model returned, which a small
        # mode can cap below the nominal ones
        est, ranks_out = reconstruct(model), model.ranks
    wall_ms = (time.perf_counter() - t0) * 1e3
    calls = svd_call_count() - calls_before
    return TrialRecord(
        method=method,
        shape=tuple(y.shape),
        sigma=float(sigma),
        outlier_ratio=ratio,
        outlier_scale=scale,
        seed=int(trial_seed),
        rrse=float(rrse(est, truth)),
        estimated_ranks=ranks_out,
        wall_time_ms=float(wall_ms),
        svd_calls=int(calls),
        true_std=float(cfg.true_std),
    )


def _run_grid(cfg: Pattern1Config):
    """One record per (sigma, ratio, scale, rep, method) in grid order. With
    both outlier axes empty this is the Pattern 1 sweep: one record per
    (sigma, rep, method), no outliers, ratio and scale None."""
    cells = [((j, k), ratio, scale)
             for j, ratio in enumerate(cfg.outlier_ratios)
             for k, scale in enumerate(cfg.outlier_scales)] or [((), None, None)]
    truths = [gen_lowrank_tensor(cfg.shape, cfg.true_ranks, cfg.true_mean,
                                 cfg.true_std, derive_seed(cfg.seed, _TRUTH, rep))
              for rep in range(cfg.reps)]
    records = []
    for i, sigma in enumerate(cfg.sigma_grid):
        for idx, ratio, scale in cells:
            for rep in range(cfg.reps):
                noise_seed = derive_seed(cfg.seed, _NOISE, i, *idx, rep)
                y = add_gaussian_noise(truths[rep], sigma, noise_seed)
                if ratio is not None:
                    out_seed = derive_seed(cfg.seed, _OUTLIER, i, *idx, rep)
                    y, _ = inject_outliers(y, ratio, scale, out_seed)
                records.extend(_run_method(method, y, truths[rep], cfg, sigma, noise_seed,
                                           ratio, scale) for method in cfg.methods)
    return records


def run_pattern1(cfg: Pattern1Config):
    """Noise sweep: one record per (sigma, rep, method), in grid order. The
    config's outlier axes decide the cells, as in :func:`run_pattern2`."""
    return _run_grid(cfg)


def run_pattern2(cfg: Pattern2Config):
    """Outlier grid: one record per (sigma, ratio, scale, rep, method)."""
    return _run_grid(cfg)


def _fmt(v) -> str:
    return "" if v is None else repr(float(v))


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
    means = mean_rrse_by_cell(records)
    by_label = {}  # labels in order of first appearance
    for r in records:
        key = (r.method, r.sigma, r.outlier_ratio, r.outlier_scale)
        by_label.setdefault(_condition_label(r), {})[r.sigma] = means[key]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("condition " + " ".join(repr(s) for s in sigmas) + "\n")
        for lbl, row in by_label.items():
            cells = " ".join(repr(row[s]) if s in row else "nan" for s in sigmas)
            fh.write(f"{lbl} {cells}\n")
