"""Approximate-path census against its closed-form first moment.

Counts (kept-edge set, path) pairs between the two pinned endpoints in
sparse random graphs and compares the empirical mean with
(n-2)_(m-1) * C(m, eps_m) * q^(m - eps_m); also shows the overlap histogram
of one sample's self-pairs.
"""

import numpy as np

from plantedlab.counting import count_approx_paths, count_overlap_pairs, expected_count, sample_null_graph
from plantedlab.rng import derive_seed

for n, m, eps_m, q in ((12, 3, 1, 0.25), (10, 3, 2, 0.3), (12, 4, 1, 0.2)):
    graphs = 3000
    counts = np.empty(graphs)
    for t in range(graphs):
        edges = sample_null_graph(n, q, derive_seed(5, 0, t))
        counts[t] = count_approx_paths(edges, n, m, eps_m)
    target = expected_count(n, m, eps_m, q)
    se = counts.std(ddof=1) / np.sqrt(graphs)
    print(f"n={n} m={m} eps_m={eps_m} q={q}: mean {counts.mean():8.3f} +- {se:.3f}  closed form {target:8.3f}")

edges = sample_null_graph(12, 0.25, derive_seed(5, 0, 0))
census = count_overlap_pairs(edges, 12, 3, 1)
print("\nordered overlapping pairs in one sample:", census.pair_count)
print("shared-edge histogram:", dict(sorted(census.histogram.items())))
