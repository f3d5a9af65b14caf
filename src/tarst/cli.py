"""Command-line front end.

Subcommands:
  denoise     read a tensor file, threshold it, write the estimate
  thresholds  print lambda_star / mp_median / omega for an aspect ratio
  bench-p1    Gaussian-noise sweep benchmark, CSV out
  bench-p2    outlier-robustness grid benchmark, CSV out

Exit codes: 0 success, 1 usage error, 2 tensor parse error, 3 numeric
failure, 4 I/O error. Modes are reported 1-indexed.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bench
from .decomp import reconstruct, tarst
from .metrics import summarize
from .svht import KnownSigma, MedianBased, lambda_star, mp_median, omega
from .tensor_io import TensorFormatError, read_tensor, write_tensor

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the documented contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_tuple(text: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _method_tuple(text: str) -> tuple:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tarst", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_den = sub.add_parser("denoise", help="denoise a tensor text file")
    p_den.add_argument("input", help="input tensor file")
    p_den.add_argument("output", help="output tensor file")
    rule = p_den.add_mutually_exclusive_group()
    rule.add_argument("--sigma", type=float, default=None,
                      help="known noise standard deviation")
    rule.add_argument("--median", action="store_true",
                      help="median-calibrated threshold (default)")

    p_thr = sub.add_parser("thresholds", help="print threshold constants")
    p_thr.add_argument("--beta", type=float, required=True,
                       help="aspect ratio in (0, 1]")

    for name in ("bench-p1", "bench-p2"):
        p = sub.add_parser(name, help=f"run the {'noise sweep' if name == 'bench-p1' else 'outlier grid'} benchmark")
        p.add_argument("--out", default=f"{name.replace('-', '_')}.csv",
                       help="CSV output path")
        p.add_argument("--matrix-out", default=None,
                       help="optional gnuplot-style matrix file of mean rrse")
        p.add_argument("--shape", type=_int_tuple, default=(10, 10, 10),
                       help="tensor extents, e.g. 10,10,10")
        p.add_argument("--ranks", type=_int_tuple, default=None,
                       help="true Tucker ranks, e.g. 3,3,3")
        p.add_argument("--reps", type=int, default=5)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--methods", type=_method_tuple, default=bench.METHODS,
                       help="comma-separated subset of Baseline,HOSVD,HOOI,TARST")
        p.add_argument("--sigma-known", action="store_true",
                       help="give TARST the injected sigma instead of the median rule")
    return parser


def cmd_denoise(ns) -> int:
    y = read_tensor(ns.input)
    rule = KnownSigma(ns.sigma) if ns.sigma is not None else MedianBased()
    report = tarst(y, rule)
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


def _summary_table(records) -> str:
    means = {}
    for r in records:
        means.setdefault((r.sigma, r.outlier_ratio, r.outlier_scale), {}) \
             .setdefault(r.method, []).append(r.rrse)
    lines = []
    for cell in sorted(means, key=lambda c: (c[0], c[1] or 0, c[2] or 0)):
        (sigma, ratio, scale), per_method = cell, means[cell]
        cond = f"sigma={sigma:<8.4g}"
        if ratio is not None:
            cond += f" ratio={ratio:<5.2g} scale={scale:<6.4g}"
        cells = []
        for method in bench.METHODS:
            if method in per_method:
                s = summarize(per_method[method])
                cells.append(f"{method} {s.mean:.4g} [{s.ci95_low:.4g},{s.ci95_high:.4g}]")
        lines.append(cond + "  " + "  ".join(cells))
    return "\n".join(lines)


def cmd_bench(ns, config_cls) -> int:
    cfg = config_cls(shape=ns.shape, true_ranks=ns.ranks, reps=ns.reps, seed=ns.seed,
                     methods=ns.methods, sigma_known=ns.sigma_known)
    records = bench.run_pattern2(cfg)  # the config's outlier axes pick the pattern
    bench.write_csv(records, ns.out)
    if ns.matrix_out:
        bench.write_matrix_file(records, ns.matrix_out)
    print(_summary_table(records))
    print(f"wrote {len(records)} records to {ns.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:  # --help exits 0, usage errors exit 1
        return int(e.code or 0)
    if ns.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        if ns.command == "denoise":
            return cmd_denoise(ns)
        if ns.command == "thresholds":
            return cmd_thresholds(ns)
        if ns.command == "bench-p1":
            return cmd_bench(ns, bench.Pattern1Config)
        return cmd_bench(ns, bench.Pattern2Config)
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
