"""Tests for the error metric and the t-interval summary."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tarst.cli import SummaryStat, summarize
from tarst.decomp import reconstruct, tarst
from tarst.metrics import rrse
from tarst.svht import KnownSigma, mp_median, omega
from tarst.tensor_ops import frobenius_norm

# t_{0.975, 1} has the closed form tan(0.475 * pi); frozen from that identity
T975_DF1 = 12.706204736174696


def test_t_quantile_df1_closed_form():
    # the df=1 Student t is Cauchy, whose quantile is an exact tangent
    assert math.tan(0.475 * math.pi) == pytest.approx(T975_DF1, abs=1e-12)
    from scipy.stats import t as student_t

    assert float(student_t.ppf(0.975, 1)) == pytest.approx(T975_DF1, abs=1e-9)


# --- rrse ---


def test_rrse_exact_recovery_is_zero():
    x = np.arange(24, dtype=np.float64).reshape(2, 3, 4) + 1.0
    assert rrse(x, x) == 0.0


def test_rrse_zero_estimate_is_one():
    x = np.random.default_rng(0).normal(size=(4, 5, 6))
    assert rrse(np.zeros_like(x), x) == pytest.approx(1.0, abs=1e-15)


def test_rrse_hand_value():
    truth = np.array([[3.0, 0.0], [0.0, 4.0]])
    est = np.array([[3.0, 1.0], [1.0, 4.0]])
    # ||diff|| = sqrt(2), ||truth|| = 5
    assert rrse(est, truth) == pytest.approx(math.sqrt(2.0) / 5.0, rel=1e-14)


@given(scale=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=100, deadline=None)
def test_rrse_scale_equivariant(scale):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 4, 2))
    e = rng.normal(size=(3, 4, 2))
    base = rrse(x + e, x)
    assert rrse(scale * (x + e), scale * x) == pytest.approx(base, rel=1e-10)


def test_rrse_nonnegative_and_zero_iff_equal():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.normal(size=(3, 3))
        e = rng.normal(size=(3, 3)) * rng.uniform(0, 2)
        val = rrse(x + e, x)
        assert val >= 0.0
        if val == 0.0:
            np.testing.assert_array_equal(x + e, x)


def test_rrse_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape mismatch"):
        rrse(np.zeros((2, 3)), np.zeros((3, 2)))


def test_rrse_zero_truth_rejected():
    with pytest.raises(ValueError, match="zero-norm truth"):
        rrse(np.ones((2, 2)), np.zeros((2, 2)))


# --- summarize ---


def test_summarize_single_sample_point_interval():
    s = summarize([2.5])
    assert s == SummaryStat(mean=2.5, ci95_low=2.5, ci95_high=2.5, n=1)


def test_summarize_zero_variance():
    s = summarize([1.0, 1.0, 1.0, 1.0])
    assert s.mean == 1.0
    assert s.ci95_low == 1.0
    assert s.ci95_high == 1.0
    assert s.n == 4


def test_summarize_two_samples_uses_df1_quantile():
    # mean 1, sd sqrt(2), half-width t * sd / sqrt(2) = t971 * 1
    s = summarize([0.0, 2.0])
    assert s.mean == pytest.approx(1.0)
    # the quantile bisects the df=1 CDF 2 atan(t) / pi to adjacent floats, so
    # it matches the tangent form to roundoff, well inside the 1e-8 bounds
    assert s.ci95_high - s.mean == pytest.approx(T975_DF1, rel=1e-8)
    assert s.mean - s.ci95_low == pytest.approx(T975_DF1, rel=1e-8)
    tangent = math.tan(0.475 * math.pi)
    assert s.ci95_high - s.mean == pytest.approx(tangent, rel=1e-14, abs=0)


def test_summarize_interval_contains_mean_and_is_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(20):
        data = rng.normal(size=rng.integers(2, 30))
        s = summarize(data)
        assert s.ci95_low <= s.mean <= s.ci95_high
        assert (s.mean - s.ci95_low) == pytest.approx(s.ci95_high - s.mean, rel=1e-9)


def test_summarize_width_shrinks_like_inverse_sqrt_n():
    from scipy.stats import t as student_t

    widths = {}
    for n in (4, 16, 64):
        data = np.tile([1.0, -1.0], n // 2)
        s = summarize(data)
        widths[n] = s.ci95_high - s.ci95_low
        # exact reference: 2 * t * sd / sqrt(n) with this sample's ddof=1 sd
        expect = (
            2.0
            * float(student_t.ppf(0.975, n - 1))
            * float(np.std(data, ddof=1))
            / math.sqrt(n)
        )
        assert widths[n] == pytest.approx(expect, rel=1e-12)
    assert widths[4] > widths[16] > widths[64]


def test_summarize_accepts_any_iterable():
    s = summarize(iter((1.0, 3.0)))
    assert s.mean == pytest.approx(2.0)
    assert s.n == 2


def test_summarize_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        summarize([])


@pytest.mark.parametrize("c", [2.0 ** 600, 2.0 ** -600, 1e200, 1e-200, 1e300, 1e-300])
def test_rrse_defined_at_extreme_magnitudes(c):
    # one block of rrse's sums, and several (40 x 30 x 20 is cut into two)
    for shape in [(10, 10, 10), (40, 30, 20)]:
        rng = np.random.default_rng(17)
        x = rng.standard_normal(shape)
        e = x + 0.1 * rng.standard_normal(x.shape)
        want = rrse(e, x)
        assert rrse(c * e, c * x) == pytest.approx(want, rel=1e-14)
        if math.frexp(c)[0] == 0.5:  # a power of two scales exactly
            assert rrse(c * e, c * x) == want


def _layouts(t):
    """Copies of t's values in C order, in Fortran order, and as views of
    copies stored with the axes reversed and rolled."""
    out = [np.ascontiguousarray(t), np.asfortranarray(t)]
    for perm in (tuple(range(t.ndim))[::-1], tuple(range(1, t.ndim)) + (0,)):
        out.append(np.ascontiguousarray(t.transpose(perm)).transpose(np.argsort(perm)))
    return out


@pytest.mark.parametrize("shape", [(7,), (6, 5), (5, 6, 7), (3, 4, 5, 2), (40, 30, 20),
                                   (70, 50, 40), (3, 70000), (200000,), (2, 300, 300)])
@pytest.mark.parametrize("c", [1.0, 2.0 ** -600, 1e300])
def test_rrse_and_norm_do_not_depend_on_layout(shape, c):
    # reconstruct returns C order; _layouts adds Fortran order and two
    # permuted views of each operand. The sums run in C order whatever the
    # layout, so every value is the same bits; the last four shapes span
    # several slabs of tensor_ops._BLOCK entries, and in (3, 70000) and
    # (2, 300, 300) each mode-0 slice is a slab of its own. rrse and frobenius_norm
    # sum through one kernel, so rrse is the ratio of the two norms, bit
    # for bit, in and out of the plain norm's range
    rng = np.random.default_rng(23)
    truth = rng.standard_normal(shape)
    y = truth + 0.1 * rng.standard_normal(shape)
    est = reconstruct(tarst(y, KnownSigma(0.1)).model) * c
    truth = truth * c
    assert est.flags.c_contiguous
    want, want_e, want_x = rrse(est, truth), frobenius_norm(est), frobenius_norm(truth)
    for e in [est] + _layouts(est):
        assert frobenius_norm(e).hex() == want_e.hex()
        for x in _layouts(truth):
            assert rrse(e, x).hex() == want.hex()
            assert (frobenius_norm(e - x) / frobenius_norm(x)).hex() == want.hex()
    for x in _layouts(truth):
        assert frobenius_norm(x).hex() == want_x.hex()


def test_rrse_leaves_its_inputs_unchanged():
    # the difference is formed in place in a buffer holding a block of the
    # truth, never in the caller's arrays, whatever their layout
    rng = np.random.default_rng(24)
    for truth in (rng.standard_normal((4, 5, 6)), np.asfortranarray(rng.standard_normal((4, 5)))):
        est = truth + 0.1
        t0, e0 = truth.copy(), est.copy()
        rrse(est, truth)
        np.testing.assert_array_equal(truth, t0)
        np.testing.assert_array_equal(est, e0)


# nu = n - 1: every small sample size, and large ones where the series is longest
ORACLE_DFS = list(range(1, 300)) + [500, 1000, 4999, 20000]


def test_summarize_half_width_matches_scipy_t_quantile():
    from scipy.stats import t as student_t

    for nu in ORACLE_DFS:
        data = np.zeros(nu + 1)
        data[:2] = (1.0, -1.0)  # mean exactly 0, so ci95_high is the half-width
        s = summarize(data)
        sd = float(np.std(data, ddof=1))
        expect = float(student_t.ppf(0.975, nu)) * sd / math.sqrt(nu + 1)
        assert s.mean == 0.0 and s.ci95_low == -s.ci95_high
        assert s.ci95_high == pytest.approx(expect, rel=1e-12, abs=0), nu


# mp_median's bisection is shared with the t quantile; these pins hold its
# bits, and omega's, fixed
MP_MEDIAN_BITS = {
    1.0: ("0x1.4e38a5f1dd137p-1", "0x1.6dded1e5bf391p+1"),
    0.5: ("0x1.a932d2f3abe97p-1", "0x1.15e966c894ef6p+1"),
    0.25: ("0x1.d4fe7c4d34288p-1", "0x1.d63cd624000c1p+0"),
    0.1: ("0x1.eee1a08318da7p-1", "0x1.9bd873e9bed4dp+0"),
    0.01: ("0x1.fe4af6a9d72bdp-1", "0x1.6fe8d39b790a3p+0"),
    0.001: ("0x1.ffd44edb9b89ep-1", "0x1.6aa3ecf1897e1p+0"),
}


@pytest.mark.parametrize("beta", sorted(MP_MEDIAN_BITS))
def test_mp_median_and_omega_bits_are_pinned(beta):
    assert (mp_median(beta).hex(), omega(beta).hex()) == MP_MEDIAN_BITS[beta]


def _traced_peak(f, *args):
    """The tracemalloc peak of f(*args), called once untraced first to warm
    up lazy numpy set-up."""
    f(*args)
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("layout", ["C", "F", "view"])
def test_rrse_makes_no_full_size_copy(layout):
    # rrse and frobenius_norm stream their operands slab by slab, whatever
    # their layout: a copy of the truth, or a full-size difference, would
    # show as a peak of ~1x its size. A slab is 0.06x here, and a slab that
    # is not C-contiguous is gathered once, where rrse then forms the
    # difference, so no second slab-sized copy is held
    rng = np.random.default_rng(25)
    truth = rng.standard_normal((100, 100, 100))
    if layout == "view":
        truth = np.ascontiguousarray(truth.transpose(2, 0, 1)).transpose(1, 2, 0)
    else:
        truth = np.asarray(truth, order=layout)
    est = truth + 0.1 * rng.standard_normal(truth.shape)
    assert _traced_peak(rrse, est, truth) < 0.1 * truth.nbytes
    assert _traced_peak(frobenius_norm, truth) < 0.1 * truth.nbytes
