"""Walkthrough: where the singular-value threshold comes from.

For an m x n noise matrix with iid N(0, sigma^2) entries and aspect ratio
beta = m/n <= 1, the largest singular value concentrates near
sqrt(n)*sigma*(1 + sqrt(beta)). Keeping everything above that edge is
asymptotically suboptimal; the optimal hard-threshold location is
lambda_star(beta) * sqrt(n) * sigma, and when sigma is unknown it can be
read off the spectrum itself: the median singular value estimates
sqrt(n * mu_beta) * sigma, where mu_beta is the median of the
Marchenko-Pastur law, giving the data-driven threshold
omega(beta) * median = (lambda_star / sqrt(mu_beta)) * median.
"""

import numpy as np

from tarst.svht import (
    KnownSigma,
    MedianBased,
    lambda_star,
    mp_median,
    omega,
    threshold_for_unfolding,
)

print("beta      lambda_star   mp_median    omega")
for beta in (0.05, 0.1, 0.25, 0.5, 0.75, 1.0):
    print(f"{beta:<8g}  {lambda_star(beta):<12.6f}  {mp_median(beta):<10.6f}  "
          f"{omega(beta):.6f}")

# The square case has closed forms worth remembering:
print("\nlambda_star(1) =", lambda_star(1.0), "= 4/sqrt(3) =", 4 / np.sqrt(3))
print("omega(1)       =", omega(1.0), "(about 2.858)")

# Sanity-check the median calibration on an actual noise matrix. With
# sigma = 3 the median rule should land close to the known-sigma rule
# without being told sigma.
rng = np.random.default_rng(0)
m, n, sigma = 200, 500, 3.0
e = sigma * rng.standard_normal((m, n))
s = np.linalg.svd(e, compute_uv=False)

known = threshold_for_unfolding(m, n, KnownSigma(sigma))
est = threshold_for_unfolding(m, n, MedianBased(), s)
print(f"\n{m} x {n} pure-noise matrix, sigma = {sigma}")
print(f"  median singular value     {np.median(s):.3f}")
print(f"  known-sigma threshold     {known:.3f}")
print(f"  median-based threshold    {est:.3f}")
print(f"  largest singular value    {s[0]:.3f}")
print("  components kept by either rule:",
      int(np.sum(s >= known)), "and", int(np.sum(s >= est)))
