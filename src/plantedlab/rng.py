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

A run of trials re-keys one generator per trial (keyed_generator, rekey) and
reads each trial's raw Philox words with bit_generator.random_raw.  The
decoders at the end turn stacked words into what numpy's Generator draws
from them: uniforms (Generator.random), coin_bits (integers(0, 2) as uint8)
and lemire_draws (bounded uint32 integers, rejections included).
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


# ---------------------------------------------------------------------------
# numpy's draw rules over raw Philox words
#
# A Generator reads uint64 words from its Philox.  A uint32 draw takes the low
# half of a word and keeps the high half pending for the next uint32 draw;
# a double draw takes a whole word and leaves a pending half alone.

_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53


def uniforms(words: np.ndarray) -> np.ndarray:
    """Generator.random() of each uint64 word: its top 53 bits times 2**-53, exactly."""
    return (words >> np.uint64(11)) * _DOUBLE_UNIT


def uint32_stream(words: np.ndarray) -> np.ndarray:
    """The uint32 draws of uint64 words along the last axis, low half of each word first."""
    return np.asarray(words, dtype="<u8").view("<u4")


def coin_bits(words: np.ndarray) -> np.ndarray:
    """Generator.integers(0, 2, dtype=np.uint8) over the bytes of uint64 words: the top bit of each byte.

    One such call reads fresh uint32 draws and takes their bytes low byte
    first, so a call of c bits uses ceil(c/4) uint32 draws and drops the rest
    of the last one; at range 2 Lemire's method never rejects.
    """
    return np.asarray(words, dtype="<u8").view(np.uint8) >> np.uint8(7)


def lemire_draws(words: np.ndarray, ranges) -> tuple[np.ndarray, np.ndarray]:
    """numpy's bounded uint32 draws in [0, r) for each r in ranges, in order, from each row of a uint32 stream.

    This is Lemire's multiply-and-reject rule, as in Generator.integers(0, r,
    dtype=np.uint32): m = u * r, draw m >> 32, and read the next word while
    m mod 2**32 < 2**32 mod r.  A range of 1 reads no word; ranges run up to
    2**32.  Returns the draws, (rows, len(ranges)) uint64, and a boolean per
    row that is False where the row's words ran out on rejections (its draws
    from then on are not set).
    """
    words = np.asarray(words, dtype=np.uint32)
    ranges = np.asarray(ranges, dtype=np.uint64).reshape(-1)
    out = np.zeros((len(words), len(ranges)), dtype=np.uint64)
    # every row that rejects no word reads draw d from word d of those it reads
    drawn = np.flatnonzero(ranges > 1)
    width = min(len(drawn), words.shape[1])
    m = words[:, :width] * ranges[drawn[:width]]
    out[:, drawn[:width]] = m >> np.uint64(32)
    redo = ((m & np.uint64(_MASK32)) < np.uint64(2**32) % ranges[drawn[:width]]).any(axis=1) | (width < len(drawn))
    ok = np.ones(len(words), dtype=bool)
    for i in np.flatnonzero(redo):  # a rejection, or too few words: the rule word by word
        pos = 0
        for d in drawn.tolist():
            r = int(ranges[d])
            while ok[i]:
                if pos == words.shape[1]:
                    ok[i] = False
                    break
                u, pos = int(words[i, pos]) * r, pos + 1
                if u & _MASK32 >= 2**32 % r:
                    out[i, d] = u >> 32
                    break
    return out, ok
