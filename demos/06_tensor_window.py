"""Posterior overlap mass of the sparse tensor model across its window.

Sweeps the signal strength through multiples of log C(n-k, k) and tracks how
often the posterior puts most of its mass on the planted support: nearly
never below the window, nearly always above it.
"""

import math

import numpy as np

from plantedlab.bayes import tpca_overlap_distribution
from plantedlab.models import TpcaParams, sample_instance
from plantedlab.rng import derive_seed

n, k, d = 12, 2, 3
base = math.log(math.comb(n - k, k))
trials = 60

print(f"n={n} k={k} d={d}; log C(n-k, k) = {base:.2f}")
print(f"{'lambda/base':>12}  {'mean p_k':>9}  {'frac p_k > 1/2':>14}")
for mult in (0.5, 1.0, 2.0, 3.0, 4.0, 6.0):
    params = TpcaParams(n=n, k=k, d=d, lam=mult * base)
    mass = np.empty(trials)
    for t in range(trials):
        inst = sample_instance(params, seed=derive_seed(9, 0, t))
        mass[t] = tpca_overlap_distribution(inst.Y[0], inst.support[0], params)[k]
    print(f"{mult:12.1f}  {mass.mean():9.3f}  {float((mass > 0.5).mean()):14.2f}")
