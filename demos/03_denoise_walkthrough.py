"""Walkthrough: denoising one tensor, step by step.

Builds a 20 x 20 x 20 low-rank truth, buries it in Gaussian noise, and runs
the rank-free denoiser. The point to watch: nobody tells the denoiser the
ranks. Each mode unfolding is thresholded at its own data-driven cutoff, and
the retained counts ARE the rank estimate. HOSVD and HOOI are run with the
true ranks handed to them, which is the information advantage they need.
"""

from tarst.bench import add_gaussian_noise, gen_lowrank_tensor
from tarst.decomp import hooi, hosvd, reconstruct, tarst
from tarst.metrics import rrse
from tarst.svht import KnownSigma, MedianBased

shape, ranks, sigma = (20, 20, 20), (3, 4, 2), 1.0

truth = gen_lowrank_tensor(shape, ranks, mean=0.0, std=2.0, seed=7)
y = add_gaussian_noise(truth, sigma, seed=8)
print(f"truth: shape {shape}, Tucker ranks {ranks}, entry std 2")
print(f"observation: sigma = {sigma}, raw rrse = {rrse(y, truth):.4f}\n")

# Median rule: sigma is estimated from each unfolding's own spectrum.
report = tarst(y, MedianBased())
print("median-calibrated run, per mode:")
for k, (tau, kept, dropped) in enumerate(zip(report.thresholds,
                                             report.estimated_ranks,
                                             report.discarded_counts), start=1):
    print(f"  mode {k}: threshold {tau:8.3f}  kept {kept}  dropped {dropped}")
print("estimated ranks:", report.estimated_ranks, "(true:", ranks, ")")
est = reconstruct(report.model)
print(f"rrse after denoising: {rrse(est, truth):.4f}\n")

# Knowing sigma barely moves the answer; the median estimate is that close.
known = tarst(y, KnownSigma(sigma))
print("known-sigma run: ranks", known.estimated_ranks,
      f"rrse {rrse(reconstruct(known.model), truth):.4f}\n")

# The rank-given baselines for reference.
print("rank-given baselines at the true ranks:")
print(f"  HOSVD rrse {rrse(reconstruct(hosvd(y, ranks)), truth):.4f}")
print(f"  HOOI  rrse {rrse(reconstruct(hooi(y, ranks)), truth):.4f}\n")

# Crank the noise far past the signal and the thresholds clear every
# component; the estimate degenerates to the zero tensor by design and the
# report says so.
drowned = tarst(add_gaussian_noise(truth, 50.0, seed=9), MedianBased())
print(f"at sigma = 50: ranks {drowned.estimated_ranks}, "
      f"degenerate = {drowned.degenerate}")
print("degenerate rrse is exactly",
      rrse(reconstruct(drowned.model), truth))
