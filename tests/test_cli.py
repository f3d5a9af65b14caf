"""End-to-end tests of the command-line front end (in-process)."""

import numpy as np
import pytest

from tarst.bench import read_csv
from tarst.cli import main
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


def test_denoise_sigma_and_median_conflict(tmp_path, capsys):
    src = tmp_path / "in.txt"
    write_tensor(np.ones((2, 2)), src)
    code = main(["denoise", str(src), str(tmp_path / "o.txt"),
                 "--sigma", "1.0", "--median"])
    assert code == 1
    assert "not allowed" in capsys.readouterr().err


def test_denoise_malformed_input_exits_2(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    src.write_text("this is not a tensor\n")
    assert main(["denoise", str(src), str(tmp_path / "o.txt")]) == 2
    assert "parse error" in capsys.readouterr().err


def test_denoise_missing_input_exits_4(tmp_path, capsys):
    assert main(["denoise", str(tmp_path / "nope.txt"),
                 str(tmp_path / "o.txt")]) == 4
    assert "i/o error" in capsys.readouterr().err


def test_denoise_pure_noise_warns_and_writes_zero(tmp_path, capsys):
    rng = np.random.default_rng(0)
    src, dst = tmp_path / "noise.txt", tmp_path / "out.txt"
    write_tensor(rng.standard_normal((12, 12, 12)), src)
    assert main(["denoise", str(src), str(dst), "--median"]) == 0
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


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "denoise" in capsys.readouterr().out


def test_usage_errors(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["thresholds", "--beta", "1", "--bogus"]) == 1
    capsys.readouterr()  # drain


def test_bench_p1_tiny_run(tmp_path, capsys):
    out = tmp_path / "p1.csv"
    code = main(["bench-p1", "--out", str(out), "--shape", "6,6,6",
                 "--ranks", "2,2,2", "--reps", "1", "--seed", "1"])
    assert code == 0
    records = read_csv(out)
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
    records = read_csv(out)
    # 20 sigma x 5 ratios x 4 scales x 1 rep x 2 methods
    assert len(records) == 20 * 5 * 4 * 1 * 2
    assert {r.method for r in records} == {"Baseline", "TARST"}
    assert all(r.outlier_ratio is not None for r in records)
    assert mat.read_text().startswith("condition ")
    capsys.readouterr()


def test_bench_rejects_unknown_method(capsys):
    assert main(["bench-p1", "--methods", "Baseline,Oracle"]) == 1
    assert "unknown methods" in capsys.readouterr().err
