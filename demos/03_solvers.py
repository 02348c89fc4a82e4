"""The three fast solvers on freshly sampled instances.

Breadth-first search recovers the planted path, bit-packed elimination the
planted message, and lattice reduction the planted subset; each is compared
against the planted truth on a handful of draws.
"""

from plantedlab.models import GssParams, PspParams, RlcParams, sample_instance
from plantedlab.rng import derive_seed
from plantedlab.solvers import LllConfig
from plantedlab.stability import solver_recoveries

print("shortest path on the planted-path model (n=12, L=3, q=0.1):")
hits = 0
for t in range(20):
    inst = sample_instance(PspParams(n=12, L=3, q=0.1), seed=derive_seed(1, 0, t))
    hits += int(solver_recoveries(inst)[0])
print(f"  exact path recovery: {hits}/20")

print("\nGF(2) elimination on the linear-code model (m=14, n=10):")
hits = 0
for t in range(20):
    inst = sample_instance(RlcParams(m=14, n=10), seed=derive_seed(2, 0, t))
    hits += int(solver_recoveries(inst)[0])
print(f"  exact message recovery: {hits}/20")

print("\nlattice reduction on the subset-sum model (N=20, k=3, 128-bit tolerance):")
cfg = LllConfig(bits=128)
hits = 0
for t in range(20):
    inst = sample_instance(GssParams(N=20, k=3), seed=derive_seed(3, 0, t))
    hits += int(solver_recoveries(inst, cfg)[0])
print(f"  exact subset recovery: {hits}/20")
