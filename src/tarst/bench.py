"""Synthetic low-rank data, noise/outlier injection, and benchmark runners.

Two experiment patterns, mirroring the usual denoising protocol, both run
by :func:`run_pattern2` from the config that describes them:

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
from .metrics import rrse
from .svht import KnownSigma, MedianBased
from .tensor_ops import _as_int, _check_ranks, _check_shape, multi_mode_product

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
    "run_pattern2",
    "write_csv",
    "write_matrix_file",
]

METHODS = ("Baseline", "HOSVD", "HOOI", "TARST")

DEFAULT_OUTLIER_RATIOS = (0.01, 0.05, 0.10, 0.25, 0.50)
DEFAULT_OUTLIER_SCALES = (10.0, 25.0, 50.0, 100.0)

# the truth model of every run: gen_lowrank_tensor's constant mean and entry std
TRUE_MEAN = 10.0
TRUE_STD = 2.0

# seed-derivation tags keeping truth/noise/outlier streams apart
_TRUTH, _NOISE, _OUTLIER = 1, 2, 3

CSV_COLUMNS = ("method", "N", "dims", "sigma", "outlier_ratio", "outlier_scale",
               "seed", "rrse", "ranks", "wall_time_ms", "svd_calls")


def default_sigma_grid():
    """20 log-spaced noise levels over [0.1, 10]."""
    return tuple(float(s) for s in np.logspace(-1.0, 1.0, 20))


def default_true_ranks(shape):
    """3 per mode for small tensors, 5 once the smallest extent reaches 50."""
    base = 5 if min(shape) >= 50 else 3
    return tuple(min(base, i) for i in shape)


def derive_seed(master: int, *indices) -> int:
    """Stable per-cell seed: mixes the master seed with grid indices via
    numpy's SeedSequence (a documented, platform-independent hash)."""
    entropy = [_as_int(master, "seed") & 0xFFFFFFFF, *(_as_int(i, "index") for i in indices)]
    ss = np.random.SeedSequence(entropy)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class Pattern1Config:
    """Benchmark grid configuration. Pattern 1, the Gaussian-noise sweep,
    leaves both outlier axes empty; Pattern 2 fills both."""

    shape: tuple = (10, 10, 10)
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
        check every field; a non-integer count raises TypeError."""
        shape = _check_shape(self.shape)
        ranks = default_true_ranks(shape) if self.true_ranks is None else self.true_ranks
        fields = {"shape": shape, "true_ranks": _check_ranks(shape, ranks),
                  "methods": tuple(self.methods), "reps": _as_int(self.reps, "reps"),
                  "seed": _as_int(self.seed, "seed")}
        for name in ("sigma_grid", "outlier_ratios", "outlier_scales"):
            fields[name] = tuple(float(v) for v in getattr(self, name))
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ValueError(f"unknown methods {bad}; choose from {METHODS}")
        if len(self.methods) == 0:
            raise ValueError("methods must be nonempty")
        if len(set(self.methods)) < len(self.methods):
            raise ValueError(f"methods must not repeat, got {self.methods}")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        grid = self.sigma_grid
        if len(grid) == 0 or not all(0 < s < math.inf for s in grid):
            raise ValueError("sigma_grid must hold positive finite values")
        if any(a >= b for a, b in zip(grid, grid[1:])):
            raise ValueError("sigma_grid must be sorted strictly ascending")
        if (len(self.outlier_ratios) == 0) != (len(self.outlier_scales) == 0):
            raise ValueError("outlier_ratios and outlier_scales must be empty together")
        if any(not 0 < r <= 1 for r in self.outlier_ratios):
            raise ValueError("outlier_ratios must lie in (0, 1]")
        for r in self.outlier_ratios:
            _outlier_count(r, math.prod(shape))
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


def gen_lowrank_tensor(shape, ranks, mean: float, std: float, seed: int) -> np.ndarray:
    """Random tensor with mode-k rank <= ranks[k] (+1 when mean != 0).

    Construction: orthonormalized Gaussian factors times a Gaussian core,
    scaled so the sample standard deviation of the entries equals ``std``
    exactly, plus the constant ``mean``. The constant adds a rank-one
    component per mode, hence the +1. No centering is applied (it would
    raise the rank of the mean-free case), so the sample mean matches
    ``mean`` only up to a fluctuation that shrinks with the tensor size.
    """
    shape = _check_shape(shape)
    ranks = _check_ranks(shape, ranks)
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


def _outlier_count(ratio: float, size: int) -> int:
    """round(ratio * size), the number of entries an outlier ratio corrupts;
    raises ValueError when that is none, so no record carries a ratio its
    input does not hold."""
    count = int(round(ratio * size))
    if count == 0:
        raise ValueError(f"outlier ratio {ratio!r} of {size} entries rounds to no outlier")
    return count


def inject_outliers(x, ratio: float, scale: float, seed: int) -> np.ndarray:
    """Multiply round(ratio * P) distinct uniformly chosen entries by
    ``scale``; returns the corrupted tensor. A ratio whose count rounds to
    0 raises ValueError."""
    if not 0 < ratio <= 1:
        raise ValueError(f"ratio must lie in (0, 1], got {ratio!r}")
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be positive, got {scale!r}")
    a = np.asarray(x, dtype=np.float64)
    count = _outlier_count(ratio, a.size)
    rng = np.random.default_rng(seed)
    idx = rng.choice(a.size, size=count, replace=False)
    out = a.copy()
    out.reshape(-1)[idx] *= scale
    return out


def _run_method(method, y, truth, cfg, sigma, trial_seed, ratio, scale):
    rule = KnownSigma(sigma) if cfg.sigma_known else MedianBased()
    t0 = time.perf_counter()
    if method == "Baseline":
        est, ranks_out, calls = y, None, 0
    else:
        if method == "TARST":
            model = tarst(y, rule).model
        else:
            # rank-specified methods get the generator's nominal ranks; the
            # constant-mean component is deliberately not counted toward them
            model = (hosvd if method == "HOSVD" else hooi)(y, cfg.true_ranks)
        # the record holds the ranks of the model returned, which a small
        # mode can cap below the nominal ones
        est, ranks_out, calls = reconstruct(model), model.ranks, model.svd_calls
    wall_ms = (time.perf_counter() - t0) * 1e3
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
    )


def run_pattern2(cfg: Pattern1Config):
    """The one benchmark runner: one record per (sigma, ratio, scale, rep,
    method) in grid order. The config's outlier axes pick the pattern: with
    both empty, as in :class:`Pattern1Config`, this is the Pattern 1 sweep,
    one record per (sigma, rep, method) with no outliers and ratio and scale
    None; :class:`Pattern2Config` fills them for the outlier grid."""
    cells = [((j, k), ratio, scale)
             for j, ratio in enumerate(cfg.outlier_ratios)
             for k, scale in enumerate(cfg.outlier_scales)] or [((), None, None)]
    truths = [gen_lowrank_tensor(cfg.shape, cfg.true_ranks, TRUE_MEAN, TRUE_STD,
                                 derive_seed(cfg.seed, _TRUTH, rep))
              for rep in range(cfg.reps)]
    records = []
    for i, sigma in enumerate(cfg.sigma_grid):
        for idx, ratio, scale in cells:
            for rep in range(cfg.reps):
                noise_seed = derive_seed(cfg.seed, _NOISE, i, *idx, rep)
                y = add_gaussian_noise(truths[rep], sigma, noise_seed)
                if ratio is not None:
                    out_seed = derive_seed(cfg.seed, _OUTLIER, i, *idx, rep)
                    y = inject_outliers(y, ratio, scale, out_seed)
                records.extend(_run_method(method, y, truths[rep], cfg, sigma, noise_seed,
                                           ratio, scale) for method in cfg.methods)
    return records


def _fmt(v) -> str:
    return "" if v is None else repr(float(v))


def write_csv(records, path) -> None:
    """Write records in grid order; repr(float) keeps full precision, so
    float() of each numeric cell gives the value back exactly."""
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


def _rrse_by_cell(records):
    """{(method, sigma, ratio, scale): [rrse per rep]}, in order of first appearance."""
    cells = {}
    for r in records:
        cells.setdefault((r.method, r.sigma, r.outlier_ratio, r.outlier_scale),
                         []).append(r.rrse)
    return cells


def mean_rrse_by_cell(records):
    """{(method, sigma, ratio, scale): mean rrse} over reps."""
    return {key: float(np.asarray(vals, dtype=np.float64).mean())
            for key, vals in _rrse_by_cell(records).items()}


def write_matrix_file(records, path) -> None:
    """gnuplot-friendly matrix: first row the sigma grid, first column the
    condition labels (method, plus ratio/scale for outlier runs), cells the
    mean rrse over reps."""
    means = mean_rrse_by_cell(records)
    sigmas = sorted({sigma for _, sigma, _, _ in means})
    rows = {}  # labels in order of first appearance
    for (method, sigma, ratio, scale), mean in means.items():
        label = method if ratio is None else f"{method}:r{ratio:g}:s{scale:g}"
        rows.setdefault(label, {})[sigma] = mean
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("condition " + " ".join(repr(s) for s in sigmas) + "\n")
        for label, row in rows.items():
            cells = " ".join(repr(row[s]) if s in row else "nan" for s in sigmas)
            fh.write(f"{label} {cells}\n")
