"""The benchmark's three closed-loop workloads.

Each workload makes its inputs from the run seed and an op index, runs one
op through the package's public functions, and checks the op's output.
The checks here hold for every seed (ranks equal the generator's ranks,
errors below a ceiling, outputs that repeat bit for bit); the exact
comparison against stored reference values is in ``golden.py``, which
uses each workload's ``observe`` / ``compare`` pair on fixed cases.

Each workload also has a ``reference``: a fixed computation of the same
kind as its op, written with numpy and Python alone, so no change to the
package moves it. The benchmark times it right after every op, and the
ratio of the two times measures the op in units of what the machine can
do at that moment.

The package is always called through its module attributes
(``decomp.tarst``, never a name bound at import) so that the tracer's
wrappers see every call.

Why these three, and which layer each one isolates, is in README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re

import numpy as np
from tarst import bench, cli, decomp, metrics, svht

# seed-derivation tags keeping each workload's streams apart
_DENOISE, _SWEEP, _CLI = 1, 2, 3


def derived_seeds(seed: int, tag: int, index: int, count: int = 1):
    """Deterministic child seeds for op ``index`` of a workload."""
    state = np.random.SeedSequence([int(seed), tag, int(index)]).generate_state(count)
    return [int(s) for s in state]


def rel_close(observed: float, expected: float, rtol: float) -> bool:
    return abs(observed - expected) <= rtol * abs(expected)


def _fixed_rng():
    return np.random.default_rng(20250506)


# -- denoise_large -----------------------------------------------------------


def _denoise(y, truth):
    report = decomp.tarst(y, svht.MedianBased())
    est = decomp.reconstruct(report.model)
    return {"ranks": list(report.estimated_ranks),
            "thresholds": list(report.thresholds),
            "rrse": metrics.rrse(est, truth)}


class DenoiseLarge:
    """One op: tarst(y, MedianBased()), reconstruct, rrse against the truth,
    on a fresh 100x100x100 input (10^6 entries) per op."""

    name = "denoise_large"
    SHAPE, RANKS, MEAN, STD = (100, 100, 100), (5, 5, 5), 10.0, 2.0
    SIGMAS = (0.5, 1.0, 2.0)
    # generator ranks plus the rank-one constant-mean component; at these
    # sigmas the weakest kept singular value sits >= 1.6x above the cutoff
    EXPECTED_RANKS = [6, 6, 6]
    RRSE_CEILING = 0.05
    GOLDEN_CASES = ({"seed": 11, "sigma": 1.0}, {"seed": 12, "sigma": 2.0})

    def __init__(self, seed: int, work):
        self.seed = seed
        self.ref_matrix = _fixed_rng().standard_normal((100, 10000))

    def reference(self):
        """One thin SVD of a fixed 100x10000 matrix (the op does three)."""
        np.linalg.svd(self.ref_matrix, full_matrices=False)

    @staticmethod
    def warmup(work):
        x = bench.gen_lowrank_tensor((6, 6, 6), (2, 2, 2), 10.0, 2.0, 0)
        _denoise(bench.add_gaussian_noise(x, 0.5, 1), x)

    @classmethod
    def _make(cls, seed, sigma, index):
        truth_seed, noise_seed = derived_seeds(seed, _DENOISE, index, 2)
        x = bench.gen_lowrank_tensor(cls.SHAPE, cls.RANKS, cls.MEAN, cls.STD, truth_seed)
        return bench.add_gaussian_noise(x, sigma, noise_seed), x

    def make_input(self, i):
        return self._make(self.seed, self.SIGMAS[i % len(self.SIGMAS)], i)

    @staticmethod
    def op(inp):
        return _denoise(*inp)

    def check(self, inp, out):
        errors = []
        if out["ranks"] != self.EXPECTED_RANKS:
            errors.append(f"ranks {out['ranks']} != {self.EXPECTED_RANKS}")
        if not (math.isfinite(out["rrse"]) and out["rrse"] < self.RRSE_CEILING):
            errors.append(f"rrse {out['rrse']!r} not below {self.RRSE_CEILING}")
        return errors

    @classmethod
    def observe(cls, case, work):
        return cls.op(cls._make(case["seed"], case["sigma"], 0))

    @staticmethod
    def compare(expected, observed):
        errors = []
        if observed["ranks"] != expected["ranks"]:
            errors.append(f"ranks {observed['ranks']} != {expected['ranks']}")
        for k, (o, e) in enumerate(zip(observed["thresholds"], expected["thresholds"])):
            if not rel_close(o, e, 1e-10):
                errors.append(f"mode {k} threshold {o!r} != {e!r}")
        if not rel_close(observed["rrse"], expected["rrse"], 1e-10):
            errors.append(f"rrse {observed['rrse']!r} != {expected['rrse']!r}")
        return errors

    @staticmethod
    def tarst_rrse(observed):
        return [observed["rrse"]]


# -- sweep_small -------------------------------------------------------------


class SweepSmall:
    """One op: run_pattern2 on a one-sigma 10x10x10 config with ranks
    (3,3,3), all four methods, the 5x4 ratio/scale grid and reps=2:
    160 records (40 tensors of 10^3 entries)."""

    name = "sweep_small"
    SHAPE, RANKS, REPS = (10, 10, 10), (3, 3, 3), 2
    RECORDS = 5 * 4 * REPS * 4
    # HOOI is iterative, so a last-bit change can shift its stopping sweep;
    # the non-iterative methods must match to the TARST gate
    RRSE_RTOL = {"Baseline": 1e-10, "HOSVD": 1e-10, "TARST": 1e-10, "HOOI": 1e-6}
    GOLDEN_CASES = ({"seed": 21, "sigma": 1.0},)

    def __init__(self, seed: int, work):
        self.seed = seed
        self.sigmas = bench.default_sigma_grid() + (1.0,)
        self.ref_tensors = list(_fixed_rng().standard_normal((24, 10, 10, 10)))

    def reference(self):
        """Six HOOI-like sweeps on each of 24 fixed 10x10x10 tensors: per
        mode an unfolding, a small SVD and a projection."""
        for t in self.ref_tensors:
            for _ in range(6):
                for k in range(3):
                    m = np.moveaxis(t, k, 0).reshape(10, -1)
                    u = np.linalg.svd(m, full_matrices=False)[0][:, :3]
                    np.moveaxis(np.tensordot(u.T, t, axes=([1], [k])), 0, k)

    @classmethod
    def _config(cls, seed, sigma):
        return bench.Pattern2Config(shape=cls.SHAPE, true_ranks=cls.RANKS,
                                    sigma_grid=(sigma,), reps=cls.REPS, seed=seed)

    @staticmethod
    def warmup(work):
        bench.run_pattern2(bench.Pattern2Config(
            shape=(4, 4, 4), true_ranks=(2, 2, 2), sigma_grid=(1.0,),
            outlier_ratios=(0.1,), outlier_scales=(10.0,), reps=1))

    def make_input(self, i):
        (seed,) = derived_seeds(self.seed, _SWEEP, i)
        return self._config(seed, self.sigmas[i % len(self.sigmas)])

    @staticmethod
    def op(cfg):
        return bench.run_pattern2(cfg)

    def check(self, cfg, records):
        if len(records) != self.RECORDS:
            return [f"{len(records)} records, expected {self.RECORDS}"]
        errors = []
        for n, r in enumerate(records):
            bad = []
            if not (math.isfinite(r.rrse) and r.rrse > 0):
                bad.append(f"rrse {r.rrse!r}")
            if r.method in ("HOSVD", "HOOI") and tuple(r.estimated_ranks) != self.RANKS:
                bad.append(f"ranks {r.estimated_ranks}")
            if r.method == "TARST" and not all(0 <= k <= i for k, i in
                                               zip(r.estimated_ranks, self.SHAPE)):
                bad.append(f"ranks {r.estimated_ranks}")
            if r.method in ("HOSVD", "TARST") and r.svd_calls != len(self.SHAPE):
                bad.append(f"{r.svd_calls} SVDs")
            if bad:
                errors.append(f"record {n} ({r.method}): " + ", ".join(bad))
        return errors

    @classmethod
    def observe(cls, case, work):
        records = cls.op(cls._config(case["seed"], case["sigma"]))
        return {"records": [[r.method, r.outlier_ratio, r.outlier_scale, r.seed,
                             None if r.estimated_ranks is None else list(r.estimated_ranks),
                             r.rrse] for r in records]}

    @classmethod
    def compare(cls, expected, observed):
        exp, obs = expected["records"], observed["records"]
        if len(obs) != len(exp):
            return [f"{len(obs)} records, expected {len(exp)}"]
        errors = []
        for n, (o, e) in enumerate(zip(obs, exp)):
            if o[:5] != e[:5]:
                errors.append(f"record {n}: {o[:5]} != {e[:5]}")
            elif not rel_close(o[5], e[5], cls.RRSE_RTOL[e[0]]):
                errors.append(f"record {n} ({e[0]}) rrse {o[5]!r} != {e[5]!r}")
        return errors

    @staticmethod
    def tarst_rrse(observed):
        return [r[5] for r in observed["records"] if r[0] == "TARST"]


# -- cli_roundtrip -----------------------------------------------------------


def write_text_tensor(a, path):
    """The package's text format, written by the benchmark itself so the
    program under test only ever reads these inputs."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{a.ndim}\n{' '.join(str(i) for i in a.shape)}\n")
        for row in a.reshape(-1, a.shape[-1]).tolist():
            fh.write(" ".join(repr(v) for v in row) + "\n")


def read_text_tensor(path):
    """Independent parser for the program's output (no comment lines)."""
    with open(path, encoding="utf-8") as fh:
        toks = fh.read().split()
    ndim = int(toks[0])
    shape = tuple(int(t) for t in toks[1:1 + ndim])
    values = np.array(toks[1 + ndim:], dtype=np.float64)
    if values.size != math.prod(shape):
        raise ValueError(f"{values.size} values for shape {shape}")
    return values.reshape(shape)


_MODE_LINE = re.compile(r"^mode (\d+): tau=(\S+) rank=(\d+)$")


def parse_mode_lines(text):
    """[(tau, rank), ...] from the ``mode k: tau=... rank=...`` lines, in order."""
    modes = []
    for line in text.splitlines():
        m = _MODE_LINE.match(line)
        if m is None or int(m.group(1)) != len(modes) + 1:
            raise ValueError(f"unexpected output line {line!r}")
        modes.append((float(m.group(2)), int(m.group(3))))
    return modes


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run_cli(src, dst):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["denoise", str(src), str(dst)])
    return code, out.getvalue()


class CliRoundtrip:
    """One op: cli.main(["denoise", in, out]) in-process on a text file of a
    16x16x1024 tensor (262144 entries, about 4.8 MB)."""

    name = "cli_roundtrip"
    SHAPE, RANKS, MEAN, STD = (16, 16, 1024), (3, 3, 3), 10.0, 2.0
    # one input file per sigma, reused round-robin: writing a file costs
    # about half an op, so fresh files would halve the ops per run
    SIGMAS = (0.25, 0.5)
    EXPECTED_RANKS = [4, 4, 4]
    RRSE_CEILING = 0.05
    GOLDEN_CASES = ({"seed": 31, "sigma": 0.5},)
    SAMPLE_STRIDE = 4099  # entries compared against the stored reference

    def __init__(self, seed: int, work):
        self.work = work
        self.inputs = [self._make(work, seed, sigma, j, f"in{j}.txt")
                       for j, sigma in enumerate(self.SIGMAS)]
        self.digests = {}
        self.ref_values = _fixed_rng().standard_normal(65536).tolist()

    def reference(self):
        """Format 65536 fixed floats as text and parse them back."""
        text = " ".join(repr(v) for v in self.ref_values)
        [float(t) for t in text.split()]

    @staticmethod
    def warmup(work):
        src, dst = work / "warmup_in.txt", work / "warmup_out.txt"
        x = bench.gen_lowrank_tensor((3, 3, 4), (1, 1, 1), 10.0, 2.0, 0)
        write_text_tensor(bench.add_gaussian_noise(x, 0.5, 1), src)
        _run_cli(src, dst)

    @classmethod
    def _make(cls, work, seed, sigma, index, filename):
        truth_seed, noise_seed = derived_seeds(seed, _CLI, index, 2)
        x = bench.gen_lowrank_tensor(cls.SHAPE, cls.RANKS, cls.MEAN, cls.STD, truth_seed)
        src = work / filename
        write_text_tensor(bench.add_gaussian_noise(x, sigma, noise_seed), src)
        return src, x

    def make_input(self, i):
        j = i % len(self.inputs)
        return j, self.inputs[j][0], self.work / "out.txt"

    @staticmethod
    def op(inp):
        _, src, dst = inp
        return _run_cli(src, dst)

    def check(self, inp, out):
        j, _, dst = inp
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        try:
            ranks = [r for _, r in parse_mode_lines(text)]
        except ValueError as e:
            return [str(e)]
        errors = []
        if ranks != self.EXPECTED_RANKS:
            errors.append(f"ranks {ranks} != {self.EXPECTED_RANKS}")
        digest = _digest(dst)
        if j not in self.digests:
            # first run on this input: parse the output and score it
            self.digests[j] = digest
            est = read_text_tensor(dst)
            truth = self.inputs[j][1]
            err = (float(np.linalg.norm(est - truth) / np.linalg.norm(truth))
                   if est.shape == truth.shape else math.inf)
            if not err < self.RRSE_CEILING:
                errors.append(f"output shape {est.shape}, rrse {err!r}")
        elif digest != self.digests[j]:
            errors.append("output differs from the first run on the same input")
        return errors

    @classmethod
    def observe(cls, case, work):
        src, truth = cls._make(work, case["seed"], case["sigma"], 0, "golden_in.txt")
        dst = work / "golden_out.txt"
        code, text = _run_cli(src, dst)
        est = read_text_tensor(dst)
        return {"exit": code,
                "modes": [list(m) for m in parse_mode_lines(text)],
                "rrse": metrics.rrse(est, truth),
                "norm": float(np.linalg.norm(est)),
                "sample": est.reshape(-1)[::cls.SAMPLE_STRIDE].tolist()}

    @staticmethod
    def compare(expected, observed):
        errors = []
        if observed["exit"] != expected["exit"]:
            errors.append(f"exit code {observed['exit']} != {expected['exit']}")
        if [r for _, r in observed["modes"]] != [r for _, r in expected["modes"]]:
            errors.append(f"mode lines {observed['modes']} != {expected['modes']}")
        # taus are printed with 6 significant digits
        for k, ((o, _), (e, _)) in enumerate(zip(observed["modes"], expected["modes"]), 1):
            if not rel_close(o, e, 1e-5):
                errors.append(f"mode {k} tau {o!r} != {e!r}")
        for key in ("rrse", "norm"):
            if not rel_close(observed[key], expected[key], 1e-10):
                errors.append(f"{key} {observed[key]!r} != {expected[key]!r}")
        scale = max(abs(v) for v in expected["sample"])
        if len(observed["sample"]) != len(expected["sample"]) or any(
                abs(o - e) > 1e-10 * scale
                for o, e in zip(observed["sample"], expected["sample"])):
            errors.append("sampled output entries differ")
        return errors

    @staticmethod
    def tarst_rrse(observed):
        return [observed["rrse"]]


WORKLOADS = {w.name: w for w in (DenoiseLarge, SweepSmall, CliRoundtrip)}
