"""Seed derivation for reproducible Monte Carlo.

All randomness flows through counter-based Philox generators keyed by a
master seed plus an integer label path, so that trial t of stream s draws
the same values whichever other trials run, and in whatever order.  Sampler
seeds and noise seeds live on separate streams: a stability trial can replay
the same noise realization against several estimators.

Seeds and path words are non-negative integers; a negative one raises
ParameterError.  The batch forms derive_seeds and philox_keys re-implement
numpy's SeedSequence mixing over uint32 words and give the same bits as
derive_seed and generator trial by trial.  derive_seeds folds the words all
trials share once and mixes only the trial words per row; philox_keys mixes
a (4, B) pool one source row at a time.

A run of trials re-keys one generator per trial (keyed_generator, rekey,
keyed_fresh; keyed_runs draws run after run) and reads each trial's raw
Philox words with bit_generator.random_raw.  The decoders at the end turn
stacked words into what numpy's Generator draws from them: uniforms
(Generator.random), coin_bits (integers(0, 2) as uint8) and lemire_draws
(bounded uint32 integers, flagging a row that rejects a word).
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


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """c_0..c_(count-1) of a SeedSequence hash-constant sequence, as a uint32 column.

    c_0 = init and c_(k+1) = c_k * mult mod 2**32; hash call k xors with c_k
    and multiplies by c_(k+1).
    """
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


# every hash call of philox_keys: 4 to fill the pool and 12 to mix it, then 4 output words
_MIX_CONST = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE + 1)
_OUT_CONST = _hash_constants(_INIT_B, _MULT_B, _POOL_SIZE + 1)


def _hashmix(value: np.ndarray, const: np.ndarray) -> np.ndarray:
    """Consecutive hash calls, one per row of value: row i takes const[i] and const[i + 1]."""
    value = (value ^ const[:-1]) * const[1:]
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> np.uint32(16))


def _join64(words: np.ndarray) -> np.ndarray:
    """(2k, B) uint32 little-endian word pairs -> (k, B) uint64."""
    w = words.astype(np.uint64)
    return w[0::2] | (w[1::2] << np.uint64(32))


def derive_seeds(seed: int, *prefix: int, ts) -> np.ndarray:
    """derive_seed(seed, *prefix, t) for every t in ts, as a uint64 array.

    ts holds non-negative integers below 2**64; a t of 2**32 or more takes two
    uint32 words, as it does in SeedSequence.  Every row shares its head (the
    seed padded to the pool size, then the prefix), so the pool after the head
    is mixed once, and each row mixes in only its trial words.
    """
    seed, prefix = _checked(seed, prefix)
    ts = np.asarray(ts)
    if ts.size and (ts.dtype.kind not in "iu" or ts.min() < 0):
        raise ParameterError("trial indices must be non-negative integers")
    ts = ts.astype(np.uint64).ravel()
    run = _words(seed)
    run += [0] * (_POOL_SIZE - len(run))  # a spawn key is present: pad the run entropy
    head = run + [w for p in prefix for w in _words(p)]
    # the pool after the head is SeedSequence's own pool for the head as entropy; mixing it took
    # 4 calls to fill the pool, 12 to mix it and 4 for each head word past the pool: the trial
    # words start at hash call 4 * len(head)
    pool = np.random.SeedSequence(np.array(head, dtype=np.uint32)).pool[:, None]
    k = _POOL_SIZE * len(head)
    const = _hash_constants(_INIT_A * pow(_MULT_A, k, 2**32) & _MASK32, _MULT_A, 2 * _POOL_SIZE + 1)
    pool = _mix(pool, _hashmix(ts.astype(np.uint32), const[: _POOL_SIZE + 1]))  # a low trial word
    wide = ts > np.uint64(_MASK32)
    if wide.any():
        high = (ts[wide] >> np.uint64(32)).astype(np.uint32)
        pool[:, wide] = _mix(pool[:, wide], _hashmix(high, const[_POOL_SIZE:]))
    return _join64(_hashmix(pool[:2], _OUT_CONST[:3]))[0]


def philox_keys(seeds) -> np.ndarray:
    """Philox keys of generator(s) for every 64-bit seed s, shape (B, 2) uint64."""
    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    # no spawn key, no padding; a missing word and a zero word hash alike, so
    # a seed below 2**32 may take two words as well
    entropy = np.zeros((_POOL_SIZE, seeds.size), dtype=np.uint32)
    entropy[0], entropy[1] = seeds & np.uint64(_MASK32), seeds >> np.uint64(32)
    pool = _hashmix(entropy, _MIX_CONST[: _POOL_SIZE + 1])
    for src in range(_POOL_SIZE):  # row src hashes into the other rows in turn, by calls k..k+2
        k = _POOL_SIZE + (_POOL_SIZE - 1) * src
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _MIX_CONST[k : k + _POOL_SIZE]))
    return _join64(_hashmix(pool, _OUT_CONST)).T


def trial_keys(seed: int, *prefix: int, n: int) -> np.ndarray:
    """Philox keys of generator(derive_seed(seed, *prefix, t)) for t in 0..n-1, shape (n, 2) uint64."""
    return philox_keys(derive_seeds(seed, *prefix, ts=np.arange(n)))


def keyed_generator() -> np.random.Generator:
    """A Philox generator to re-key with rekey(), one per batch of trials."""
    return np.random.Generator(np.random.Philox(key=0))


def _fresh_state(key) -> dict:
    """The Philox state dict of a fresh generator for key: counter 0, empty buffer, no pending uint32."""
    return {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def rekey(gen: np.random.Generator, key) -> np.random.Generator:
    """Reset gen's Philox to the fresh state for key; then gen draws what Philox(key=key) would."""
    gen.bit_generator.state = _fresh_state(key)
    return gen


def keyed_fresh(gen: np.random.Generator, keys: np.ndarray):
    """fresh(i) over a run's Philox keys, rows of philox_keys: gen re-keyed to keys[i].

    The keys become Python ints once per run: the state setter takes them
    faster than it takes a numpy row.  The run builds one fresh state dict
    and sets only its key per trial; the setter copies every field, so the
    dict is never shared with gen.
    """
    keys = keys.tolist()
    bit_generator, state = gen.bit_generator, _fresh_state(None)

    def fresh(i: int) -> np.random.Generator:
        state["state"]["key"] = keys[i]
        bit_generator.state = state
        return gen

    return fresh


def keyed_runs(draw, keys: np.ndarray, runs):
    """draw(len(ts), fresh) for each run ts of consecutive trial indices, in order.

    fresh(i) re-keys one shared generator to keys[ts[i]], so trial t draws
    what generator(s) would for the seed s that keys[t] belongs to.
    """
    gen = keyed_generator()
    for ts in runs:
        yield draw(len(ts), keyed_fresh(gen, keys[ts.start : ts.stop]))


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
    2**32.  Draw d of a row is read from word d of those it reads.  Returns
    the draws, (rows, len(ranges)) uint64, and a boolean per row that is False
    where the row rejects a word or has too few words (its draws are not numpy's).
    """
    words = np.asarray(words, dtype=np.uint32)
    ranges = np.asarray(ranges, dtype=np.uint64).reshape(-1)
    out = np.zeros((len(words), len(ranges)), dtype=np.uint64)
    drawn = np.flatnonzero(ranges > 1)
    width = min(len(drawn), words.shape[1])
    m = words[:, :width] * ranges[drawn[:width]]
    out[:, drawn[:width]] = m >> np.uint64(32)
    rejected = ((m & np.uint64(_MASK32)) < np.uint64(2**32) % ranges[drawn[:width]]).any(axis=1)
    return out, ~rejected & (width == len(drawn))
