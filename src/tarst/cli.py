"""The ``tarst`` command: rank-free tensor denoising and its benchmarks.

Exit codes: 0 success, 1 usage error, 2 tensor parse error, 3 numeric
failure, 4 I/O error. The denoise report numbers modes from 1, library
errors from 0.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from . import bench
from .decomp import reconstruct, tarst
from .svht import KnownSigma, MedianBased, _bisect, lambda_star, mp_median, omega
from .tensor_io import TensorFormatError, read_tensor, write_tensor
from .tensor_ops import _real

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _int_tuple(text: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _method_tuple(text: str) -> tuple:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tarst", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_den = sub.add_parser("denoise", help="read a tensor file, threshold it, write the estimate")
    p_den.set_defaults(run=cmd_denoise)
    p_den.add_argument("input", help="input tensor file")
    p_den.add_argument("output", help="output tensor file")
    p_den.add_argument("--sigma", type=float, default=None,
                       help="known noise standard deviation (default: the median rule)")

    p_thr = sub.add_parser("thresholds", help="print lambda_star, mp_median and omega")
    p_thr.set_defaults(run=cmd_thresholds)
    p_thr.add_argument("--beta", type=float, required=True,
                       help="aspect ratio in (0, 1]")

    for name, what, config_cls in (("bench-p1", "Gaussian-noise sweep", bench.Pattern1Config),
                                   ("bench-p2", "outlier-robustness grid", bench.Pattern2Config)):
        default = {f.name: f.default for f in fields(config_cls)}
        p = sub.add_parser(name, help=f"{what} benchmark, CSV out")
        p.set_defaults(run=cmd_bench, config_cls=config_cls)
        p.add_argument("--out", default=f"{name.replace('-', '_')}.csv",
                       help="CSV output path")
        p.add_argument("--matrix-out", default=None,
                       help="optional gnuplot-style matrix file of mean rrse")
        p.add_argument("--shape", type=_int_tuple, default=default["shape"],
                       help="tensor extents, e.g. 10,10,10")
        p.add_argument("--ranks", type=_int_tuple, default=default["true_ranks"],
                       help="true Tucker ranks, e.g. 3,3,3")
        p.add_argument("--reps", type=int, default=default["reps"])
        p.add_argument("--seed", type=int, default=default["seed"])
        p.add_argument("--methods", type=_method_tuple, default=default["methods"],
                       help=f"comma-separated subset of {','.join(bench.METHODS)}")
        p.add_argument("--sigma-known", action="store_true",
                       help="give TARST the injected sigma instead of the median rule")
    return parser


def cmd_denoise(ns) -> int:
    rule = KnownSigma(ns.sigma) if ns.sigma is not None else MedianBased()
    report = tarst(read_tensor(ns.input), rule)
    for k, (tau, rank) in enumerate(zip(report.thresholds, report.estimated_ranks),
                                    start=1):
        print(f"mode {k}: tau={tau:.6g} rank={rank}")
    if report.degenerate:
        print("warning: no mode retained any component; the estimate is the "
              "zero tensor", file=sys.stderr)
    write_tensor(reconstruct(report.model), ns.output)
    return EXIT_OK


def cmd_thresholds(ns) -> int:
    lam = lambda_star(ns.beta)  # validates beta
    mu = mp_median(ns.beta)
    print(f"lambda_star={lam:.6f} mp_median={mu:.6f} omega={omega(ns.beta):.6f}")
    return EXIT_OK


@dataclass(frozen=True)
class SummaryStat:
    mean: float
    ci95_low: float
    ci95_high: float
    n: int


@lru_cache(maxsize=None)
def _t975(nu: int) -> float:
    """Student-t quantile t_{0.975, nu}, integer nu >= 1: bisects the
    closed-form P(|T| <= t) = 0.95 (Abramowitz & Stegun 26.7.3-4, nu // 2
    terms of a series in cos^2 theta, theta = atan(t / sqrt(nu))) on
    [0, 16]. Multiplying by cos^2 as 1 - sin^2 keeps a rounded cos^2 near 1
    from biasing the result by ~nu * eps. O(nu) per step, so cached per nu.
    """
    odd = nu % 2

    def below(t):
        s2 = t * t / (nu + t * t)
        term, total = (math.sqrt(nu / (nu + t * t)) if odd else 1.0), 0.0
        for j in range(nu // 2):
            total += term
            term *= (2 * j + 1 + odd) / (2 * j + 2 + odd)
            term -= term * s2
        p = t / math.sqrt(nu + t * t) * total
        if odd:
            p = (math.atan2(t, math.sqrt(nu)) + p) * (2.0 / math.pi)
        return p < 0.95

    return _bisect(below, 0.0, 16.0)


def summarize(samples) -> SummaryStat:
    """Mean with a 95% Student-t confidence interval.

    CI = mean ± t_{0.975, n-1} * sd / sqrt(n); a single sample degenerates
    to a point interval. The t quantile inverts the closed-form t
    distribution (``_t975``), so no statistics library is needed.
    """
    arr = _real(list(samples))
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    mean = float(arr.mean())
    n = int(arr.size)
    if n == 1:
        return SummaryStat(mean=mean, ci95_low=mean, ci95_high=mean, n=1)
    half = _t975(n - 1) * float(arr.std(ddof=1)) / math.sqrt(n)
    return SummaryStat(mean=mean, ci95_low=mean - half, ci95_high=mean + half, n=n)


def _summary_table(records) -> str:
    rrses = bench._rrse_by_cell(records)
    lines = []
    for cell in dict.fromkeys(key[1:] for key in rrses):  # in the runner's grid order
        sigma, ratio, scale = cell
        cond = f"sigma={sigma:<8.4g}"
        if ratio is not None:
            cond += f" ratio={ratio:<5.2g} scale={scale:<6.4g}"
        stats = [(m, summarize(rrses[(m, *cell)])) for m in bench.METHODS if (m, *cell) in rrses]
        lines.append(cond + "  " + "  ".join(
            f"{m} {s.mean:.4g} [{s.ci95_low:.4g},{s.ci95_high:.4g}]" for m, s in stats))
    return "\n".join(lines)


def cmd_bench(ns) -> int:
    cfg = ns.config_cls(shape=ns.shape, true_ranks=ns.ranks, reps=ns.reps, seed=ns.seed,
                        methods=ns.methods, sigma_known=ns.sigma_known)
    records = bench.run_pattern2(cfg)  # the config's outlier axes pick the pattern
    bench.write_csv(records, ns.out)
    if ns.matrix_out:
        bench.write_matrix_file(records, ns.matrix_out)
    print(_summary_table(records))
    print(f"wrote {len(records)} records to {ns.out}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as e:  # --help exits 0; argparse's usage errors exit 2, ours 1
        return EXIT_USAGE if e.code == 2 else int(e.code or 0)
    try:
        return ns.run(ns)
    except TensorFormatError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (np.linalg.LinAlgError, FloatingPointError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
