"""Oracle tests for the threshold coefficients and thresholding operators.

The Marchenko-Pastur median is checked four independent ways: a
trigonometric reformulation of the square-case CDF equation, an arctan
closed form for the square-case CDF, quadrature of the density over a
dense grid of aspect ratios, and Monte-Carlo spectra. The
lambda coefficient is checked against a brute-force minimax search at
desk scale.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from tarst import svht
from tarst.svht import (KnownSigma, MedianBased, hard_threshold, lambda_star,
                        mp_cdf, mp_median, omega, threshold_for_unfolding)

# Square-case median of the Marchenko-Pastur law. With x = 4 sin^2(theta) the
# CDF equation becomes 4 theta + 2 sin(2 theta) = pi, solved once offline to
# double precision; mu = 4 sin^2(theta) with theta = 0.41585559678986794.
MU1 = 0.6527759416335702

# lambda*(1) = sqrt(16/3); the two below are values of the closed form,
# pinned so silent formula edits fail loudly.
LAMBDA_1 = 2.309401076758503
LAMBDA_QUARTER = 1.7580293771397153
LAMBDA_HUNDREDTH = 1.4347484456556132


def mp_cdf_arctan(x):
    """Square-case CDF, independent closed form:
    F(x) = 1/2 + sqrt(x(4-x))/(2 pi) + arcsin(x/2 - 1)/pi on [0, 4]."""
    return (0.5 + math.sqrt(x * (4.0 - x)) / (2.0 * math.pi)
            + math.asin(x / 2.0 - 1.0) / math.pi)


def test_lambda_star_square_anchor():
    assert lambda_star(1.0) == pytest.approx(4.0 / math.sqrt(3.0), abs=1e-15)
    assert lambda_star(1.0) == pytest.approx(LAMBDA_1, abs=1e-12)


def test_lambda_star_small_beta_limit():
    assert lambda_star(1e-9) == pytest.approx(math.sqrt(2.0), abs=1e-6)


def test_lambda_star_strictly_increasing():
    grid = np.linspace(1e-6, 1.0, 500)
    vals = [lambda_star(b) for b in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_lambda_star_quarter_bracket_and_value():
    assert math.sqrt(2.0) < lambda_star(0.25) < 4.0 / math.sqrt(3.0)
    assert lambda_star(0.25) == pytest.approx(LAMBDA_QUARTER, abs=1e-12)
    assert lambda_star(0.01) == pytest.approx(LAMBDA_HUNDREDTH, abs=1e-12)


def test_lambda_star_rejects_bad_beta():
    for bad in (0.0, -1.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match="aspect ratio"):
            lambda_star(bad)


def test_lambda_quarter_matches_minimax_search():
    """Brute-force check that lambda*(0.25) really is the minimax coefficient.

    For each candidate lambda on a grid, Monte-Carlo the MSE of hard
    thresholding at lambda*sqrt(n) over a range of planted signal strengths
    (common random numbers across candidates) and take the worst case; the
    argmin must land near the closed-form value.
    """
    m, n = 100, 400
    lam_grid = np.arange(1.40, 2.21, 0.05)
    x_grid = [0.6, 0.8, 1.0, 1.2, 1.5, 2.0, 3.0]  # units of sqrt(n)*sigma
    worst = np.zeros_like(lam_grid)
    for xi in x_grid:
        theta = xi * math.sqrt(n)
        mse = np.zeros_like(lam_grid)
        for rep in range(3):
            rng = np.random.default_rng(1000 + rep)
            u = np.zeros(m)
            u[0] = 1.0
            v = np.zeros(n)
            v[0] = 1.0
            y = theta * np.outer(u, v) + rng.standard_normal((m, n))
            uu, s, vt = np.linalg.svd(y, full_matrices=False)
            a = uu.T @ u
            b = vt @ v
            for i, lam in enumerate(lam_grid):
                keep = s >= lam * math.sqrt(n)
                mse[i] += ((s[keep] ** 2).sum() + theta ** 2
                           - 2.0 * theta * (s[keep] * a[keep] * b[keep]).sum())
        worst = np.maximum(worst, mse / 3.0)
    best = lam_grid[int(np.argmin(worst))]
    assert abs(best - lambda_star(0.25)) <= 0.15


def test_mp_median_square_against_trig_oracle():
    # live recomputation of the trigonometric root, then the frozen value
    theta = brentq(lambda t: 4.0 * t + 2.0 * math.sin(2.0 * t) - math.pi,
                   0.0, math.pi / 2.0, xtol=1e-15)
    mu = 4.0 * math.sin(theta) ** 2
    assert mu == pytest.approx(MU1, abs=1e-12)
    assert mp_median(1.0) == pytest.approx(MU1, abs=1e-6)
    assert mp_median(1.0) == pytest.approx(mu, abs=1e-9)


def test_mp_median_square_against_arctan_cdf():
    assert mp_cdf_arctan(mp_median(1.0)) == pytest.approx(0.5, abs=1e-9)


def test_mp_median_bracket_and_cdf_residual():
    """The median lies inside the support and halves the mass.

    The residual check integrates the untouched density (endpoint
    singularities handled by subdivision points, not by the weighted rule
    the implementation uses), so it is an independent quadrature route.
    """
    for b in [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]:
        lo = (1.0 - math.sqrt(b)) ** 2
        hi = (1.0 + math.sqrt(b)) ** 2
        mu = mp_median(b)
        assert lo < mu < hi

        def density(x):
            return math.sqrt(max((hi - x) * (x - lo), 0.0)) / (2.0 * math.pi * b * x)

        mass, err = quad(density, lo, mu, points=[lo], limit=400)
        assert err < 1e-7  # reported bound is conservative near the endpoint
        assert mass == pytest.approx(0.5, abs=1e-9)


def mp_median_by_quadrature(beta):
    """Median from quadrature of the density, an oracle independent of the
    closed-form CDF. With x = (1 - sqrt(beta))^2 + 4 sqrt(beta) sin^2(t/2),
    t in [0, pi], the CDF is (2/pi) int_0^t sin^2(p) / x(p) dp: the sqrt
    endpoint factors cancel, so the integrand is smooth at every beta."""
    rb = math.sqrt(beta)

    def x_of(t):
        return (1.0 - rb) ** 2 + 4.0 * rb * math.sin(0.5 * t) ** 2

    def cdf(t):
        val, _ = quad(lambda p: math.sin(p) ** 2 / x_of(p), 0.0, t,
                      epsabs=1e-15, epsrel=1e-13, limit=200)
        return 2.0 * val / math.pi

    return x_of(brentq(lambda t: cdf(t) - 0.5, 0.0, math.pi, xtol=1e-15))


def test_mp_median_dense_beta_against_quadrature_oracle():
    for beta in np.concatenate([np.geomspace(1e-4, 1.0, 200),
                                np.geomspace(1e-6, 1e-4, 20, endpoint=False)]):
        beta = float(beta)
        tol = 1e-12 if beta >= 1e-4 else 1e-10
        assert mp_median(beta) == pytest.approx(mp_median_by_quadrature(beta),
                                                abs=tol), beta


@pytest.mark.parametrize("beta", [1e-6, 1e-4, 1.0])
def test_mp_cdf_reads_one_at_upper_edge(beta):
    lo, hi = (1.0 - math.sqrt(beta)) ** 2, (1.0 + math.sqrt(beta)) ** 2
    assert abs(mp_cdf(hi, beta) - 1.0) <= 1e-15
    assert abs(mp_cdf(np.nextafter(hi, 0.0), beta) - 1.0) <= 1e-15
    assert mp_cdf(lo, beta) == 0.0
    assert mp_cdf(0.5 * (lo + hi), beta) < mp_cdf(np.nextafter(hi, 0.0), beta)


@pytest.mark.parametrize("beta", [1e-6, 0.25, 1.0])
def test_mp_cdf_outside_its_support(beta):
    lo, hi = (1.0 - math.sqrt(beta)) ** 2, (1.0 + math.sqrt(beta)) ** 2
    for x in (-1.0, np.nextafter(lo, -math.inf)):
        assert mp_cdf(x, beta) == 0.0
    for x in (np.nextafter(hi, math.inf), 2.0 * hi, 1e300):
        assert mp_cdf(x, beta) == 1.0


def test_mp_cdf_square_case_against_arctan_form():
    for x in np.linspace(0.0, 4.0, 101):
        assert mp_cdf(x, 1.0) == pytest.approx(mp_cdf_arctan(x), abs=1e-15)


def test_mp_median_monotone_decreasing_in_beta():
    grid = [0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0]
    vals = [mp_median(b) for b in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # beta -> 0: spectrum concentrates at 1
    assert mp_median(1e-6) == pytest.approx(1.0, abs=1e-2)


def test_mp_median_takes_any_real_scalar_as_its_siblings_do():
    # a 0-d array, a numpy scalar and an int share the float's cache entry,
    # so they add no cache misses; a bad 0-d beta gets the usual error
    want = mp_median(0.5)
    mp_median(1.0)
    misses = mp_median.cache_info().misses
    for beta in (np.array(0.5), np.float64(0.5), np.array(0.5, dtype=np.float32)):
        assert mp_median(beta) == want
        assert omega(beta) == omega(0.5)
    assert mp_median(1) == mp_median(np.array(1.0)) == mp_median(1.0)
    assert mp_median.cache_info().misses == misses
    with pytest.raises(ValueError, match="aspect ratio"):
        mp_median(np.array(1.5))


def test_mp_median_monte_carlo_square():
    mu = mp_median(1.0)
    hits = 0
    for seed in range(5):
        g = np.random.default_rng(seed).standard_normal((400, 400))
        s = np.linalg.svd(g, compute_uv=False)
        med = np.median((s / math.sqrt(400.0)) ** 2)
        hits += abs(med - mu) / mu < 0.03
    assert hits >= 4


def test_mp_median_monte_carlo_rectangular():
    # 100 x 1000 Gaussian: squared scaled spectrum has median mp_median(0.1)
    mu = mp_median(0.1)
    g = np.random.default_rng(3).standard_normal((100, 1000))
    s = np.linalg.svd(g, compute_uv=False)
    med = np.median((s / math.sqrt(1000.0)) ** 2)
    assert med == pytest.approx(mu, rel=0.05)


def test_omega_square_anchor():
    w = omega(1.0)
    assert w == pytest.approx(LAMBDA_1 / math.sqrt(MU1), abs=1e-9)
    assert 2.855 <= w <= 2.861


def test_omega_exceeds_lambda_everywhere():
    for b in [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0]:
        assert omega(b) > lambda_star(b)


def test_omega_continuity():
    for b in np.linspace(0.01, 1.0 - 1e-6, 40):
        assert abs(omega(b) - omega(b + 1e-6)) < 1e-3


def test_threshold_known_sigma_formula():
    # 10 x 1000 unfolding, sigma 2: lambda*(0.01) * sqrt(1000) * 2
    want = LAMBDA_HUNDREDTH * math.sqrt(1000.0) * 2.0
    assert threshold_for_unfolding(10, 1000, KnownSigma(2.0)) == pytest.approx(
        want, rel=1e-12)
    assert want == pytest.approx(90.7415, abs=1e-3)


def test_threshold_transpose_invariance():
    rule = KnownSigma(0.7)
    assert threshold_for_unfolding(20, 360, rule) == threshold_for_unfolding(
        360, 20, rule)
    s = np.array([9.0, 4.0, 1.0])
    assert threshold_for_unfolding(3, 40, MedianBased(), s) == pytest.approx(
        threshold_for_unfolding(40, 3, MedianBased(), s), rel=1e-15)


def test_threshold_median_based_formula():
    s = np.array([9.0, 4.0, 1.0])
    want = omega(3.0 / 40.0) * 4.0
    assert threshold_for_unfolding(3, 40, MedianBased(), s) == pytest.approx(
        want, rel=1e-12)


def test_threshold_median_rule_takes_even_count_midpoint():
    # an even count's median is the midpoint of the two central values
    assert threshold_for_unfolding(4, 40, MedianBased(), [8.0, 6.0, 2.0, 1.0]) == (
        omega(0.1) * 4.0)
    # a midpoint that overflows is inf, without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tau = threshold_for_unfolding(4, 40, MedianBased(), [1.7e308, 1.6e308, 1.5e308, 1.0])
    assert tau == math.inf


def test_threshold_floored_at_roundoff_level():
    eps = np.finfo(np.float64).eps
    s = np.array([8.0, 1e-15, 0.0, 0.0])
    floor = 16 * eps * 8.0
    assert threshold_for_unfolding(4, 16, KnownSigma(1e-30), s) == floor
    assert threshold_for_unfolding(16, 4, MedianBased(), s) == floor
    # the floor never lowers a cutoff and needs the spectrum
    assert threshold_for_unfolding(4, 16, KnownSigma(1.0), s) == lambda_star(0.25) * 4.0
    assert threshold_for_unfolding(4, 16, KnownSigma(1e-30), None) < floor
    assert threshold_for_unfolding(4, 16, MedianBased(), np.zeros(4)) == 0.0


def test_threshold_median_rule_single_singular_value_gets_floor_only():
    # one singular value: the median rule would cut it (omega > 1), so only
    # the roundoff floor applies and the value is kept
    eps = np.finfo(np.float64).eps
    for m, n in [(1, 400), (5, 1), (1, 1)]:
        tau = threshold_for_unfolding(m, n, MedianBased(), np.array([3.0]))
        assert tau == max(m, n) * eps * 3.0
        assert hard_threshold(np.array([3.0]), tau)[1] == 1
    assert threshold_for_unfolding(1, 400, MedianBased(), np.zeros(1)) == 0.0
    # the known-sigma rule is unchanged
    assert threshold_for_unfolding(1, 400, KnownSigma(1.0), np.array([3.0])) == (
        lambda_star(1.0 / 400.0) * 20.0)


def test_threshold_median_rule_two_values_above_omega_two_get_floor_only():
    # omega(beta) > 2 from beta ~ 0.3697: omega * median of two values would
    # exceed the larger one, so only the roundoff floor applies; 2 x 6 is
    # thresholded as before
    eps = np.finfo(np.float64).eps
    s = np.array([3.0, 1.0])
    for m, n in [(2, 2), (2, 3), (3, 2), (2, 5)]:
        assert omega(2 / max(m, n)) > 2
        assert threshold_for_unfolding(m, n, MedianBased(), s) == max(m, n) * eps * 3.0
    assert omega(1 / 3) < 2
    assert threshold_for_unfolding(2, 6, MedianBased(), s) == omega(1 / 3) * 2.0


def _parent_formula(m, n, rule, s):
    """The cutoff as a general spectrum gives it: numpy's median of s in
    any order (none where omega exceeds the spectrum's width), floored at
    max(m, n) * eps * max(s)."""
    big, small = max(m, n), min(m, n)
    if isinstance(rule, KnownSigma):
        tau = lambda_star(small / big) * math.sqrt(big) * rule.sigma
    else:
        with np.errstate(over="ignore"):
            w = omega(small / big)
            tau = 0.0 if w > small else w * float(np.median(s))
    return max(tau, big * np.finfo(np.float64).eps * float(s.max()))


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40),
       st.lists(st.floats(0.0, 1.7e308), min_size=1, max_size=12),
       st.sampled_from([MedianBased(), KnownSigma(0.3), KnownSigma(1e-300)]),
       st.randoms(use_true_random=False))
def test_threshold_for_unfolding_is_the_kernel_on_the_sorted_spectrum(m, n, values, rule, rnd):
    s = np.array(values)
    shuffled = s.copy()
    rnd.shuffle(shuffled)
    want = svht._cutoff(m, n, rule, np.sort(s)[::-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = threshold_for_unfolding(m, n, rule, shuffled)
    assert float(got).hex() == float(want).hex() == float(_parent_formula(m, n, rule, s)).hex()


def test_threshold_two_value_median_overflow_is_quiet_inf():
    for s in ([1.7e308, 1.6e308], [1.6e308, 1.7e308]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert threshold_for_unfolding(2, 40, MedianBased(), s) == math.inf
            assert svht._cutoff(2, 40, MedianBased(), np.sort(s)[::-1]) == math.inf


def test_threshold_rejects_a_nan_spectrum():
    for rule in (MedianBased(), KnownSigma(1.0)):
        with pytest.raises(ValueError, match="^spectrum has NaN entries$"):
            threshold_for_unfolding(3, 40, rule, [2.0, np.nan, 1.0])


def test_threshold_rule_validation():
    with pytest.raises(ValueError, match="^median-based rule needs the observed spectrum$"):
        threshold_for_unfolding(3, 4, MedianBased())
    with pytest.raises(ValueError, match="^median-based rule needs the observed spectrum$"):
        threshold_for_unfolding(3, 4, MedianBased(), np.array([]))
    with pytest.raises(TypeError, match="unknown threshold rule"):
        threshold_for_unfolding(3, 4, "hard")
    with pytest.raises(ValueError, match="dimensions must be positive"):
        threshold_for_unfolding(0, 4, KnownSigma(1.0))
    for bad in (0.0, -2.0, float("inf")):
        with pytest.raises(ValueError, match="sigma must be"):
            KnownSigma(bad)


def test_threshold_dimensions_must_be_integers():
    # int() used to truncate: (10.5, 100.2) gave the cutoff of a 10 x 100 unfolding
    s = np.array([3.0, 2.0, 1.0])
    for m, n, name in [(10.5, 100, "m"), (10, 100.2, "n"), (10.0, 100, "m"), ("10", 100, "m")]:
        for rule, spectrum in [(MedianBased(), s), (KnownSigma(1.0), None)]:
            with pytest.raises(TypeError, match=f"^{name} must be an integer"):
                threshold_for_unfolding(m, n, rule, spectrum)
    # numpy integers are integers
    for rule in (MedianBased(), KnownSigma(1.0)):
        assert threshold_for_unfolding(np.int64(10), np.uint16(100), rule, s) == (
            threshold_for_unfolding(10, 100, rule, s))


def test_hard_threshold_examples():
    kept, rank = hard_threshold(np.array([5.0, 3.0, 1.0]), 3.0)
    np.testing.assert_array_equal(kept, [5.0, 3.0, 0.0])  # boundary inclusive
    assert rank == 2
    kept, rank = hard_threshold(np.array([5.0, 3.0, 1.0]), 3.5)
    np.testing.assert_array_equal(kept, [5.0, 0.0, 0.0])
    assert rank == 1
    kept, rank = hard_threshold(np.array([1.0, 0.5]), 10.0)
    np.testing.assert_array_equal(kept, [0.0, 0.0])
    assert rank == 0


spectra = st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=12).map(
    lambda v: np.array(sorted(v, reverse=True)))
taus = st.floats(min_value=1e-6, max_value=2e6, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(spectra, taus, taus)
def test_hard_threshold_rank_monotone_and_idempotent(s, t1, t2):
    lo, hi = sorted((t1, t2))
    kept_lo, rank_lo = hard_threshold(s, lo)
    kept_hi, rank_hi = hard_threshold(s, hi)
    # a higher cutoff never keeps more
    assert rank_lo >= rank_hi
    # survivors pass through unchanged, so thresholding again is a fixed point
    again, rank_again = hard_threshold(kept_lo, lo)
    np.testing.assert_array_equal(again, kept_lo)
    assert rank_again == rank_lo
    # survivors are exactly the original values
    mask = s >= lo
    np.testing.assert_array_equal(kept_lo[mask], s[mask])
    assert np.all(kept_lo[~mask] == 0.0)


def test_hard_threshold_validation():
    with pytest.raises(ValueError, match="nonincreasing"):
        hard_threshold(np.array([1.0, 2.0]), 1.0)
    with pytest.raises(ValueError, match="one-dimensional"):
        hard_threshold(np.eye(2), 1.0)
    with pytest.raises(ValueError, match="threshold must be"):
        hard_threshold(np.array([1.0]), 0.0)
    # np.diff is never > 0 at a NaN, so [1, nan, 2] used to pass as
    # nonincreasing and come back as ([1, 0, 2], 2)
    for s in ([1.0, np.nan, 2.0], [np.nan], [3.0, 2.0, np.nan]):
        with pytest.raises(ValueError, match="^spectrum has NaN entries$"):
            hard_threshold(s, 0.5)
