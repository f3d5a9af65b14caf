"""End-to-end tests of the command-line front end (in-process)."""

import re
import warnings

import numpy as np
import pytest
from conftest import read_records

from tarst.bench import METHODS, Pattern1Config, Pattern2Config
from tarst.cli import build_parser, main, summarize
from tarst.tensor_io import read_tensor, write_tensor


def test_thresholds_square_case_exact_line(capsys):
    assert main(["thresholds", "--beta", "1"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "lambda_star=2.309401 mp_median=0.652776 omega=2.858362"


def test_thresholds_quarter_case_consistent(capsys):
    assert main(["thresholds", "--beta", "0.25"]) == 0
    out = capsys.readouterr().out.strip()
    fields = dict(p.split("=") for p in out.split())
    lam, mu, om = (float(fields[k]) for k in ("lambda_star", "mp_median", "omega"))
    assert lam == pytest.approx(1.758029, abs=1e-6)
    assert om == pytest.approx(lam / np.sqrt(mu), abs=5e-6)


@pytest.mark.parametrize("beta", ["0", "1.5", "-0.1"])
def test_thresholds_rejects_out_of_range_beta(beta, capsys):
    assert main(["thresholds", "--beta", beta]) == 1
    assert "error" in capsys.readouterr().err


def test_thresholds_requires_beta(capsys):
    assert main(["thresholds"]) == 1
    assert "--beta" in capsys.readouterr().err


def test_denoise_rank1_known_sigma(tmp_path, capsys):
    rng = np.random.default_rng(0)
    x = 10.0 * np.einsum("i,j,k->ijk", *(rng.standard_normal(n) for n in (6, 5, 4)))
    src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
    write_tensor(x, src)
    assert main(["denoise", str(src), str(dst), "--sigma", "1e-6"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("mode 1: tau=")
    assert all(line.endswith("rank=1") for line in lines)
    est = read_tensor(dst)
    np.testing.assert_allclose(est, x, atol=1e-6)


def test_denoise_median_flag_is_unrecognized(tmp_path, capsys):
    # the median rule is the default, so there is no flag that selects it
    src = tmp_path / "in.txt"
    write_tensor(np.ones((2, 2)), src)
    for extra in ([], ["--sigma", "1.0"]):
        assert main(["denoise", str(src), str(tmp_path / "o.txt"), "--median", *extra]) == 1
        assert "unrecognized arguments: --median" in capsys.readouterr().err
    assert not (tmp_path / "o.txt").exists()


def test_denoise_malformed_input_exits_2(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    src.write_text("this is not a tensor\n")
    assert main(["denoise", str(src), str(tmp_path / "o.txt")]) == 2
    assert "parse error" in capsys.readouterr().err


def test_denoise_huge_declared_shape_exits_2(tmp_path, capsys):
    src = tmp_path / "huge.txt"
    src.write_text("2\n100000 1000000\n1 2 3\n")
    assert main(["denoise", str(src), str(tmp_path / "o.txt")]) == 2
    assert capsys.readouterr().err.strip() == (
        "parse error: line 3: unexpected end of file, "
        "expected 100000000000 values (got 3)")
    assert not (tmp_path / "o.txt").exists()


def test_denoise_too_many_modes_exits_2(tmp_path, capsys):
    src = tmp_path / "modes.txt"
    src.write_text("65\n" + "1 " * 65 + "\n5\n")
    assert main(["denoise", str(src), str(tmp_path / "o.txt")]) == 2
    assert capsys.readouterr().err.strip() == (
        "parse error: line 1: tensor order 65 is more modes than numpy allows")
    assert not (tmp_path / "o.txt").exists()


def test_denoise_non_utf8_input_exits_2(tmp_path, capsys):
    src = tmp_path / "bytes.txt"
    src.write_bytes(b"1\n2\n1 \xff\n")
    assert main(["denoise", str(src), str(tmp_path / "o.txt")]) == 2
    assert capsys.readouterr().err.strip() == (
        "parse error: line 3: not UTF-8 text: byte 0xff (invalid start byte)")
    assert not (tmp_path / "o.txt").exists()


def test_denoise_missing_input_exits_4(tmp_path, capsys):
    assert main(["denoise", str(tmp_path / "nope.txt"),
                 str(tmp_path / "o.txt")]) == 4
    assert "i/o error" in capsys.readouterr().err


def test_denoise_checks_sigma_before_reading_input(tmp_path, capsys):
    # a bad --sigma is a usage error even when the input cannot be read
    assert main(["denoise", str(tmp_path / "nope.txt"), str(tmp_path / "o.txt"),
                 "--sigma", "-1"]) == 1
    assert capsys.readouterr().err == "error: sigma must be a positive real, got -1.0\n"
    assert not (tmp_path / "o.txt").exists()


def test_denoise_pure_noise_warns_and_writes_zero(tmp_path, capsys):
    rng = np.random.default_rng(0)
    src, dst = tmp_path / "noise.txt", tmp_path / "out.txt"
    write_tensor(rng.standard_normal((12, 12, 12)), src)
    assert main(["denoise", str(src), str(dst)]) == 0
    captured = capsys.readouterr()
    assert "zero tensor" in captured.err
    assert all(line.endswith("rank=0") for line in captured.out.strip().splitlines())
    np.testing.assert_array_equal(read_tensor(dst), np.zeros((12, 12, 12)))


def test_denoise_all_zero_median_warns_and_writes_zero(tmp_path, capsys):
    src, dst = tmp_path / "zero.txt", tmp_path / "out.txt"
    write_tensor(np.zeros((3, 4, 5)), src)
    assert main(["denoise", str(src), str(dst)]) == 0
    captured = capsys.readouterr()
    assert "zero tensor" in captured.err
    assert all(line.endswith("rank=0") for line in captured.out.strip().splitlines())
    np.testing.assert_array_equal(read_tensor(dst), np.zeros((3, 4, 5)))


def test_denoise_one_way_median_keeps_input(tmp_path, capsys):
    # a single singular value keeps rank 1 under the median rule
    src, dst = tmp_path / "vec.txt", tmp_path / "out.txt"
    src.write_text("1\n5\n1 2 3 4 5\n")
    assert main(["denoise", str(src), str(dst)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.strip().endswith("rank=1")
    np.testing.assert_allclose(read_tensor(dst), [1.0, 2.0, 3.0, 4.0, 5.0],
                               rtol=1e-12)


@pytest.mark.parametrize("value", [2.5, -1e300, 1e-300])
def test_denoise_constant_median_keeps_rank_one(tmp_path, value, capsys):
    src, dst = tmp_path / "const.txt", tmp_path / "out.txt"
    write_tensor(np.full((3, 4, 5), value), src)
    assert main(["denoise", str(src), str(dst)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.strip().splitlines()
    assert len(lines) == 3 and all(line.endswith(" rank=1") for line in lines)
    np.testing.assert_allclose(read_tensor(dst), np.full((3, 4, 5), value), rtol=1e-12)


_HUGE = np.random.default_rng(72).standard_normal((10, 10, 10))


@pytest.mark.parametrize("y,rule", [
    (_HUGE / np.abs(_HUGE).max() * 1.7e308, []),  # the spectrum overflows
    (_HUGE / np.abs(_HUGE).max() * 1.7e308, ["--sigma", "1"]),
    (_HUGE * 1.25e307, []),  # a finite spectrum whose median cutoff overflows
    (_HUGE * 1.25e307, ["--sigma", "1.25e307"]),
], ids=["peak-median", "peak-sigma", "median-median", "median-sigma"])
def test_denoise_near_float_max_exits_3(tmp_path, y, rule, capsys):
    src, dst = tmp_path / "huge.txt", tmp_path / "out.txt"
    write_tensor(y, src)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["denoise", str(src), str(dst), *rule]) == 3
    # the error line is all the user sees: no numpy overflow warning leaks
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ("numeric failure: threshold of the mode-0 "
                                       "unfolding overflows float64\n")
    assert not dst.exists()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "denoise" in capsys.readouterr().out


def test_help_describes_each_subcommand_once(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "Subcommands:" not in out
    for name in ("denoise", "thresholds", "bench-p1", "bench-p2"):
        assert [line.split()[0] for line in out.splitlines() if line.strip()].count(name) == 1


@pytest.mark.parametrize("name,config_cls", [("bench-p1", Pattern1Config),
                                             ("bench-p2", Pattern2Config)])
def test_bench_option_defaults_are_the_configs(name, config_cls):
    ns = build_parser().parse_args([name])
    got = ns.config_cls(shape=ns.shape, true_ranks=ns.ranks, reps=ns.reps, seed=ns.seed,
                        methods=ns.methods, sigma_known=ns.sigma_known)
    assert ns.config_cls is config_cls
    assert got == config_cls()


def test_usage_errors(capsys):
    assert main([]) == 1
    assert "the following arguments are required: command" in capsys.readouterr().err
    assert main(["frobnicate"]) == 1
    assert main(["thresholds", "--beta", "1", "--bogus"]) == 1
    capsys.readouterr()  # drain
    assert main(["bench-p1", "--shape", "6,x,6"]) == 1
    assert "expected comma-separated integers, got '6,x,6'" in capsys.readouterr().err


def test_bench_p1_tiny_run(tmp_path, capsys):
    out = tmp_path / "p1.csv"
    code = main(["bench-p1", "--out", str(out), "--shape", "6,6,6",
                 "--ranks", "2,2,2", "--reps", "1", "--seed", "1"])
    assert code == 0
    records = read_records(out)
    # 20 sigma points x 1 rep x 4 methods
    assert len(records) == 80
    assert f"wrote 80 records to {out}" in capsys.readouterr().out
    for rec in records:
        assert rec.shape == (6, 6, 6)
        if rec.method == "TARST":
            assert rec.svd_calls == 3


def test_bench_p1_rerun_identical_modulo_wall_time(tmp_path, capsys):
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["--shape", "6,6,6", "--ranks", "2,2,2", "--reps", "1", "--seed", "7"]
    assert main(["bench-p1", "--out", str(pa), *args]) == 0
    assert main(["bench-p1", "--out", str(pb), *args]) == 0
    capsys.readouterr()

    def strip_wall(path):
        return [",".join(c for i, c in enumerate(line.split(",")) if i != 9)
                for line in path.read_text().splitlines()]

    assert strip_wall(pa) == strip_wall(pb)


def test_bench_p2_tiny_run_with_method_subset(tmp_path, capsys):
    out = tmp_path / "p2.csv"
    mat = tmp_path / "p2.dat"
    code = main(["bench-p2", "--out", str(out), "--matrix-out", str(mat),
                 "--shape", "6,6,6", "--ranks", "2,2,2", "--reps", "1",
                 "--methods", "Baseline,TARST"])
    assert code == 0
    records = read_records(out)
    # 20 sigma x 5 ratios x 4 scales x 1 rep x 2 methods
    assert len(records) == 20 * 5 * 4 * 1 * 2
    assert {r.method for r in records} == {"Baseline", "TARST"}
    assert all(r.outlier_ratio is not None for r in records)
    assert mat.read_text().startswith("condition ")
    capsys.readouterr()


def test_bench_p2_summary_table_lines(tmp_path, capsys):
    # methods given out of METHODS order; reps 2 gives each cell an interval
    out = tmp_path / "p2.csv"
    assert main(["bench-p2", "--out", str(out), "--shape", "5,6,4", "--ranks", "2,2,2",
                 "--reps", "2", "--seed", "4", "--methods", "TARST,Baseline"]) == 0
    *table, wrote = capsys.readouterr().out.splitlines()
    records = read_records(out)
    assert wrote == f"wrote {len(records)} records to {out}"
    rrses = {}
    for r in records:
        rrses.setdefault((r.sigma, r.outlier_ratio, r.outlier_scale), {}) \
             .setdefault(r.method, []).append(r.rrse)
    cells = sorted(rrses)
    assert len(table) == len(cells) == 20 * 5 * 4
    for line, cell in zip(table, cells):
        sigma, ratio, scale = cell
        head = re.match(r"sigma=(\S+) +ratio=(\S+) +scale=(\S+)  ", line)
        assert head.groups() == (f"{sigma:.4g}", f"{ratio:.2g}", f"{scale:.4g}")
        got = re.findall(r"  (\w+) (\S+) \[([^,]+),(\S+)\]", line[head.end() - 2:])
        assert [m for m, *_ in got] == [m for m in METHODS if m in ("TARST", "Baseline")]
        for method, mean, lo, hi in got:
            s = summarize(rrses[cell][method])
            assert (mean, lo, hi) == (f"{s.mean:.4g}", f"{s.ci95_low:.4g}", f"{s.ci95_high:.4g}")


def test_bench_rejects_unknown_method(capsys):
    assert main(["bench-p1", "--methods", "Baseline,Oracle"]) == 1
    assert "unknown methods" in capsys.readouterr().err


def test_bench_error_keeps_the_api_mode_numbering(tmp_path, capsys):
    # the denoise report numbers modes from 1; a library error keeps mode 0
    out = tmp_path / "p1.csv"
    assert main(["bench-p1", "--shape", "4,4,4", "--ranks", "5,3,3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: rank 5 out of range [1, 4] for mode 0\n"
    assert not out.exists()


def test_bench_rejects_repeated_method(tmp_path, capsys):
    out = tmp_path / "p1.csv"
    assert main(["bench-p1", "--shape", "5,5,5", "--ranks", "2,2,2", "--reps", "2",
                 "--methods", "TARST,TARST", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: methods must not repeat, got ('TARST', 'TARST')\n")
    assert not out.exists()


def test_bench_p2_rejects_an_outlier_ratio_that_corrupts_nothing(tmp_path, capsys):
    # 27 entries at ratio 0.01 round to no outlier; the run used to write
    # those rows from clean inputs
    out = tmp_path / "p2.csv"
    assert main(["bench-p2", "--shape", "3,3,3", "--ranks", "1,1,1", "--reps", "1",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: outlier ratio 0.01 of 27 entries rounds to no outlier\n")
    assert not out.exists()
