"""One full stability-barrier cell, end to end.

Measures (rho, eta)-stability and clean-arm MSE for three estimators of the
linear-code message, estimates the noisy Bayes error at the same rho, and
checks mse >= mmse_rho - 2 sqrt(2 (7 + 4 eta) eta) * E||x||^2 for each.
The fast exact solver is wildly unstable (large eta), which is exactly what
buys it immunity from the bound.
"""

from plantedlab.bayes import estimate_mmse_curve
from plantedlab.models import RlcParams
from plantedlab.stability import measure_stability_grid, verify_barrier

params = RlcParams(m=14, n=10)
rho = 0.3
trials = 1500

(mmse,) = estimate_mmse_curve(params, [rho], trials, seed=7)
print(f"linear code m={params.m} n={params.n}, rho={rho}")
print(f"mmse_rho = {mmse.mmse_hat:.3f} +- {mmse.stderr:.3f}  (E||x||^2 = {mmse.signal_norm})")
print()
print(f"{'estimator':>24}  {'eta':>7}  {'mse':>7}  {'rhs':>8}  {'margin':>8}  holds")
# the three estimators are scored on one pass over the same coupled trials
for stab in measure_stability_grid(("posterior_mean", "f2_round", "constant_prior_mean"), params, [rho], trials, seed=8):
    check = verify_barrier(stab, mmse)
    print(
        f"{stab.estimator:>24}  {stab.eta_hat:7.4f}  {stab.mse_hat:7.3f}  {check.rhs:8.3f}"
        f"  {check.margin:8.3f}  {check.holds}"
    )
