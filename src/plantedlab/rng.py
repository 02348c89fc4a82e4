"""Seed derivation for reproducible Monte Carlo.

All randomness flows through counter-based Philox generators keyed by a
master seed plus an integer label path, so that trial t of stream s draws
the same values whichever other trials run, and in whatever order.  Sampler
seeds and noise seeds live on separate streams: a stability trial can replay
the same noise realization against several estimators.

Seeds and path words are non-negative integers; a negative one raises
ParameterError.  The batch forms derive_seeds and philox_keys re-implement
numpy's SeedSequence mixing over uint32 words, vectorized over the trial
index, and give the same bits as derive_seed and generator trial by trial.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

# Stream labels.  Keep stable: they are part of every experiment's seed path.
# Label 2 belonged to a retired oracle stream; leave it unused.
INSTANCE_STREAM = 0
NOISE_STREAM = 1
POLY_STREAM = 3
POLY_TRIAL_STREAM = 4  # per-polynomial stability trials of lowdeg-stability
DIAGRAM_STREAM = 5  # Monte-Carlo samples of hermite-check

# numpy SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _checked(seed: int, path) -> tuple[int, tuple[int, ...]]:
    words = (int(seed), *(int(p) for p in path))
    if min(words) < 0:
        raise ParameterError(f"seeds and seed path entries must be non-negative, got {words}")
    return words[0], words[1:]


def generator(seed: int) -> np.random.Generator:
    """Philox generator for seed.  Identical seeds, identical stream."""
    seed, _ = _checked(seed, ())
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))


def derive_seed(seed: int, *path: int) -> int:
    """Collapse (seed, path) to a single 64-bit integer seed.

    Used to hand per-trial seeds to samplers: derive_seed(master, stream, trial).
    """
    seed, path = _checked(seed, path)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=path)
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# batch forms


def _words(value: int) -> list[int]:
    """value as little-endian uint32 words; 0 is one word, as in SeedSequence."""
    out = [value & _MASK32]
    value >>= 32
    while value:
        out.append(value & _MASK32)
        value >>= 32
    return out


class _Hash:
    """One SeedSequence hash-constant sequence, applied column-wise to uint32 arrays."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = (self.const * self.mult) & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> np.uint32(16))


def _state_words(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence(entropy row).generate_state(n_words, uint32) for every row of a (B, L) array."""
    hashmix = _Hash(_INIT_A, _MULT_A)
    zero = np.zeros(entropy.shape[0], dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < entropy.shape[1] else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, entropy.shape[1]):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(entropy[:, src]))
    out = _Hash(_INIT_B, _MULT_B)
    return np.stack([out(pool[i % _POOL_SIZE]) for i in range(n_words)], axis=1)


def _join64(words: np.ndarray) -> np.ndarray:
    """(B, 2k) uint32 little-endian word pairs -> (B, k) uint64."""
    w = words.astype(np.uint64)
    return w[:, 0::2] | (w[:, 1::2] << np.uint64(32))


def derive_seeds(seed: int, *prefix: int, ts) -> np.ndarray:
    """derive_seed(seed, *prefix, t) for every t in ts, as a uint64 array.

    ts holds non-negative integers below 2**64; a t of 2**32 or more takes two
    uint32 words, as it does in SeedSequence, and is mixed in its own group.
    """
    seed, prefix = _checked(seed, prefix)
    ts = np.asarray(ts)
    if ts.size and (ts.dtype.kind not in "iu" or ts.min() < 0):
        raise ParameterError("trial indices must be non-negative integers")
    ts = ts.astype(np.uint64).ravel()
    run = _words(seed)
    run += [0] * (_POOL_SIZE - len(run))  # a spawn key is present: pad the run entropy
    head = run + [w for p in prefix for w in _words(p)]
    out = np.empty(ts.size, dtype=np.uint64)
    wide = ts > np.uint64(_MASK32)
    for rows, t_words in ((~wide, [ts]), (wide, [ts & np.uint64(_MASK32), ts >> np.uint64(32)])):
        if rows.any():
            entropy = np.empty((int(rows.sum()), len(head) + len(t_words)), dtype=np.uint32)
            entropy[:, : len(head)] = head
            for j, col in enumerate(t_words):
                entropy[:, len(head) + j] = col[rows]
            out[rows] = _join64(_state_words(entropy, 2))[:, 0]
    return out


def philox_keys(seeds) -> np.ndarray:
    """Philox keys of generator(s) for every 64-bit seed s, shape (B, 2) uint64."""
    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    # no spawn key, no padding; a missing word and a zero word hash alike, so
    # a seed below 2**32 may take two words as well
    entropy = np.stack([seeds & np.uint64(_MASK32), seeds >> np.uint64(32)], axis=1).astype(np.uint32)
    return _join64(_state_words(entropy, 4))


def keyed_generator() -> np.random.Generator:
    """A Philox generator to re-key with rekey(), one per batch of trials."""
    return np.random.Generator(np.random.Philox(key=0))


def rekey(gen: np.random.Generator, key) -> np.random.Generator:
    """Reset gen's Philox to the fresh state for key; then gen draws what Philox(key=key) would."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen
