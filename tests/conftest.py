"""Shared hypothesis strategies, the benchmark-CSV parser the tests read
records back with, HOOI's stopping rule and the benchmark's truth model for
the tests that vary them, and the acceptance-report summary hook."""

import csv

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tarst import bench, decomp
from tarst.bench import CSV_COLUMNS, TrialRecord

# the acceptance tests append one verdict line each; echoing them after the
# run keeps the report visible even though pytest captures test stdout
ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.write_sep("-", "acceptance report")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)

finite_floats = st.floats(min_value=-100.0, max_value=100.0,
                          allow_nan=False, allow_infinity=False, width=64)


def shapes(min_dims=1, max_dims=4, max_side=5):
    return st.lists(st.integers(1, max_side),
                    min_size=min_dims, max_size=max_dims).map(tuple)


def tensors(min_dims=1, max_dims=4, max_side=5):
    """Small dense float64 tensors with bounded entries."""
    return shapes(min_dims, max_dims, max_side).flatmap(
        lambda s: arrays(np.float64, s, elements=finite_floats))


@st.composite
def tensor_and_mode(draw, min_dims=1, max_dims=4, max_side=5):
    t = draw(tensors(min_dims, max_dims, max_side))
    mode = draw(st.integers(0, t.ndim - 1))
    return t, mode


@st.composite
def tensor_two_modes_two_factors(draw, max_dims=4, max_side=4):
    """A tensor plus matrices acting on two distinct modes."""
    t = draw(tensors(2, max_dims, max_side))
    j = draw(st.integers(0, t.ndim - 2))
    k = draw(st.integers(j + 1, t.ndim - 1))
    rows_j = draw(st.integers(1, max_side))
    rows_k = draw(st.integers(1, max_side))
    u = draw(arrays(np.float64, (rows_j, t.shape[j]), elements=finite_floats))
    v = draw(arrays(np.float64, (rows_k, t.shape[k]), elements=finite_floats))
    return t, u, j, v, k


def rng_tensor(rng, shape, scale=1.0):
    return scale * rng.standard_normal(shape)


def stop_hooi_at(monkeypatch, tol, sweeps):
    """Set HOOI's stopping rule, the module constants each call reads, to a
    fit change below ``tol`` within ``sweeps`` sweeps, until ``monkeypatch``
    undoes it."""
    monkeypatch.setattr(decomp, "_FIT_TOL", tol)
    monkeypatch.setattr(decomp, "_MAX_SWEEPS", sweeps)


def set_truth_model(monkeypatch, mean, std):
    """Give every truth ``run_pattern2`` generates the constant ``mean`` and
    entry std ``std``, the module constants each run reads, until
    ``monkeypatch`` undoes it."""
    monkeypatch.setattr(bench, "TRUE_MEAN", mean)
    monkeypatch.setattr(bench, "TRUE_STD", std)


def read_records(path):
    """Parse a benchmark CSV back into TrialRecords with the stdlib reader;
    asserts the header and that each row's N matches its dims."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        assert tuple(next(rows)) == CSV_COLUMNS
        records = []
        for method, n, dims, sigma, ratio, scale, seed, err, ranks, wall, calls in rows:
            shape = tuple(int(d) for d in dims.split("x"))
            assert int(n) == len(shape), (n, dims)
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
