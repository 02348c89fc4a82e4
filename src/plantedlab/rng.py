"""Seed derivation for reproducible Monte Carlo.

All randomness flows through counter-based Philox generators keyed by a
master seed plus an integer label path, so that trial t of stream s draws
the same values whichever other trials run, and in whatever order.  Sampler
seeds and noise seeds live on separate streams: a stability trial can replay
the same noise realization against several estimators.
"""

from __future__ import annotations

import numpy as np

# Stream labels.  Keep stable: they are part of every experiment's seed path.
INSTANCE_STREAM = 0
NOISE_STREAM = 1
ORACLE_STREAM = 2
POLY_STREAM = 3


def generator(seed: int, *path: int) -> np.random.Generator:
    """Philox generator for (seed, path).  Identical arguments, identical stream."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, *path: int) -> int:
    """Collapse (seed, path) to a single 64-bit integer seed.

    Used to hand per-trial seeds to samplers: derive_seed(master, stream, trial).
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])
