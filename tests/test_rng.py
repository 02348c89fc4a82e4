"""Batch seed derivation and the re-keyed generator against numpy's SeedSequence."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    coupled_trial_scalar,
    hex_fields,
    instances_of,
    stack_observations,
    stack_runs,
    seed_path_entropy,
    seed_sequence_philox_key,
    seed_sequence_seed,
    state_words_loop,
)
from plantedlab import rng
from plantedlab.errors import ParameterError
from plantedlab.models import (
    EVAL_CHUNK,
    GssParams,
    PspParams,
    RlcParams,
    TpcaParams,
    batch_rows,
    chunk_sampler,
    instance_to_json,
    sample_instance,
)
from plantedlab.noise import CoupledTrials, chunk_noise, instance_runs, noise_instance_observation
from plantedlab.rng import (
    KEY_MEMO_BYTES,
    derive_seed,
    derive_seeds,
    generator,
    keyed_fresh,
    keyed_generator,
    philox_keys,
    trial_keys,
)

seeds = st.one_of(st.just(0), st.integers(0, 2**64 - 1), st.integers(2**64, 2**130))
# path words: 0 is one uint32 word; 2**32 and above take two
words = st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**64 - 1))
trial_indices = st.one_of(st.integers(0, 40), st.integers(2**32 - 2, 2**32 + 2), st.integers(2**32, 2**64 - 1))


@settings(max_examples=60, deadline=None)
@given(seed=seeds, prefix=st.lists(words, max_size=3), ts=st.lists(trial_indices, min_size=1, max_size=8))
def test_derive_seeds_match_seed_sequence(seed, prefix, ts):
    got = derive_seeds(seed, *prefix, ts=np.array(ts, dtype=np.uint64))
    assert got.dtype == np.uint64
    assert [int(v) for v in got] == [seed_sequence_seed(seed, *prefix, t) for t in ts]


@settings(max_examples=60, deadline=None)
@given(seed=seeds, prefix=st.lists(words, max_size=2), suffix=st.lists(words, min_size=1, max_size=3),
       ts=st.lists(trial_indices, min_size=1, max_size=8))
def test_derive_seeds_with_a_suffix_match_derive_seed(seed, prefix, suffix, ts):
    # words after the trial index hash in at a row's own call count, which a t >= 2**32 moves on by 4
    got = derive_seeds(seed, *prefix, ts=np.array(ts, dtype=np.uint64), suffix=suffix)
    assert [hex(v) for v in got.tolist()] == [hex(derive_seed(seed, *prefix, t, *suffix)) for t in ts]


def test_derive_seeds_rejects_a_negative_suffix_word():
    with pytest.raises(ParameterError, match="non-negative"):
        derive_seeds(1, 0, ts=[0], suffix=(2, -1))


def test_derive_seeds_over_a_long_batch():
    ts = np.arange(3000)
    for seed, prefix in ((7, (1,)), (71 * 10**12 + 5, (0,)), (2**64 - 1, (1, 3)), (2**64, (4, 2**40))):
        got = derive_seeds(seed, *prefix, ts=ts).tolist()
        assert got == [seed_sequence_seed(seed, *prefix, int(t)) for t in ts]
        assert got[:20] == [derive_seed(seed, *prefix, int(t)) for t in ts[:20]]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t=st.integers(0, 2**32 - 1))
def test_run_entropy_padded_only_with_spawn_key(seed, t):
    # with a spawn key the run entropy is padded to 4 words: (seed, t) is not
    # the entropy [seed, t]; without one (philox_keys) nothing is padded
    assert int(derive_seeds(seed, ts=[t])[0]) == seed_sequence_seed(seed, t)
    unpadded = np.random.SeedSequence(entropy=[seed, t]).generate_state(1, np.uint64)[0]
    assert int(derive_seeds(seed, ts=[t])[0]) != int(unpadded)
    assert philox_keys([seed]).tolist() == [seed_sequence_philox_key(seed).tolist()]


@settings(max_examples=60, deadline=None)
@given(batch=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=10))
def test_philox_keys_match_seed_sequence(batch):
    keys = philox_keys(np.array(batch, dtype=np.uint64))
    assert keys.shape == (len(batch), 2) and keys.dtype == np.uint64
    for s, key in zip(batch, keys):
        assert key.tolist() == seed_sequence_philox_key(s).tolist()
        assert key.tolist() == np.random.Philox(s).state["state"]["key"].tolist()


def _joined(words: np.ndarray) -> np.ndarray:
    """(B, 2k) uint32 words -> (B, k) uint64, low word first."""
    w = words.astype(np.uint64)
    return w[:, 0::2] | (w[:, 1::2] << np.uint64(32))


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    prefix=st.lists(words, max_size=3),
    n=st.integers(1, 600),
    wide=st.sampled_from([0.0, 0.3, 1.0]),
    edges=st.lists(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]), max_size=4),
    draw_seed=st.integers(0, 2**32 - 1),
)
def test_folded_key_derivation_matches_the_mixing_loops(seed, prefix, n, wide, edges, draw_seed):
    # narrow and wide trial indices mixed in one call; a seed above 2**128 makes a head longer than the pool
    rng = np.random.default_rng(draw_seed)
    ts = np.where(rng.random(n) < wide, rng.integers(2**32, 2**64, n, dtype=np.uint64), rng.integers(0, 2**32, n))
    ts = np.concatenate([ts.astype(np.uint64), np.array(edges, dtype=np.uint64)])
    got = derive_seeds(seed, *prefix, ts=ts)
    rows = [seed_path_entropy(seed, *prefix, int(t)) for t in ts]
    want = np.zeros(len(ts), dtype=np.uint64)
    for length in {len(row) for row in rows}:  # rows of one entropy length share a loop call
        at = [i for i, row in enumerate(rows) if len(row) == length]
        want[at] = _joined(state_words_loop(np.array([rows[i] for i in at], dtype=np.uint32), 2))[:, 0]
    assert got.tobytes().hex() == want.tobytes().hex()
    assert got.tolist() == [seed_sequence_seed(seed, *prefix, int(t)) for t in ts]
    keys = philox_keys(got)
    entropy = np.stack([got & np.uint64(0xFFFFFFFF), got >> np.uint64(32)], axis=1).astype(np.uint32)
    assert keys.tobytes().hex() == _joined(state_words_loop(entropy, 4)).tobytes().hex()
    assert keys.tolist() == [seed_sequence_philox_key(int(s)).tolist() for s in got]


def test_empty_batch():
    assert derive_seeds(3, 1, ts=[]).shape == (0,)
    assert philox_keys(derive_seeds(3, 1, ts=np.arange(0))).shape == (0, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: derive_seeds(-1, 0, ts=[0]),
        lambda: derive_seeds(1, -2, ts=[0]),
        lambda: derive_seeds(1, 0, ts=[3, -1]),
        lambda: derive_seed(-1, 0, 0),
        lambda: derive_seed(1, 0, -5),
        lambda: generator(-1),
    ],
    ids=["batch-seed", "batch-prefix", "batch-trial", "scalar-seed", "scalar-path", "generator"],
)
def test_negative_seed_words_raise_parameter_error(call):
    # a uint64 cast would wrap -1 to 2**64 - 1 silently
    with pytest.raises(ParameterError, match="non-negative"):
        call()



def test_trial_keys_are_read_only():
    for keys in (trial_keys(5, 1, n=4), trial_keys(5, 1, n=4)):  # derived, then kept
        with pytest.raises(ValueError, match="read-only"):
            keys[0, 0] = 1


@settings(max_examples=40, deadline=None)
@given(seed=seeds, prefix=st.lists(words, max_size=2), n=st.integers(0, 300))
def test_kept_trial_keys_equal_a_fresh_derivation(seed, prefix, n):
    first = trial_keys(seed, *prefix, n=n)
    kept = trial_keys(seed, *prefix, n=n)
    assert kept is first  # 16 n bytes is within KEY_MEMO_BYTES
    fresh = philox_keys(derive_seeds(seed, *prefix, ts=np.arange(n)))
    assert kept.dtype == fresh.dtype and kept.tobytes().hex() == fresh.tobytes().hex()


def test_trial_keys_above_the_memo_bound_are_not_kept():
    at_bound = KEY_MEMO_BYTES // 16  # rows of two uint64 words
    kept = trial_keys(6, 1, n=at_bound)
    assert kept.nbytes == KEY_MEMO_BYTES and trial_keys(6, 1, n=at_bound) is kept
    above = trial_keys(6, 1, n=at_bound + 1)
    ref = weakref.ref(above)
    assert trial_keys(6, 1, n=at_bound + 1) is not above
    del above
    assert ref() is None
    for n in range(1, 200, 7):  # the kept sets never add up past the bound
        trial_keys(6, 2, n=n)
        assert sum(keys.nbytes for keys in rng._key_memo.values()) <= KEY_MEMO_BYTES


MODEL_PARAMS = [
    PspParams(n=8, L=3, q=0.3),
    RlcParams(m=7, n=4),
    GssParams(N=9, k=3),
    TpcaParams(n=4, k=2, d=3, lam=2.0),
]


def _same(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), rho=st.sampled_from([0.0, 0.3, 1.0]))
def test_rekeyed_generator_draws_the_seeded_stream(seed, rho):
    # one generator, re-keyed for every trial of a run, against a fresh generator(seed) per call
    fresh = keyed_fresh(keyed_generator(), philox_keys([seed, seed]))
    for params in MODEL_PARAMS:
        inst = sample_instance(params, seed)
        run = chunk_sampler(params)(2, fresh)
        assert [instance_to_json(i) for i in instances_of(run)] == [instance_to_json(inst)] * 2
        assert hex_fields(run) == hex_fields(stack_runs([inst, inst]))
        want = noise_instance_observation(inst, rho, seed)
        noisy = chunk_noise(params, rho)(run, fresh)
        assert _same(batch_rows(noisy, 0), want) and _same(batch_rows(noisy, 1), want)
        assert _same(noisy, stack_observations([want, want]))
    # the generator draws the same stream as generator(seed) for the basic draws too
    for draw in (
        lambda g: g.standard_normal(5),
        lambda g: g.integers(0, 2, size=9, dtype=np.uint8),
        lambda g: g.random(4),
        lambda g: g.choice(11, size=4, replace=False),
    ):
        assert np.array_equal(draw(fresh(0)), draw(generator(seed)))


@settings(max_examples=25, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=4, max_size=4, unique=True))
def test_keyed_fresh_runs_on_two_generators_interleave(seeds):
    # each run keeps its own state dict and generator: calls in turn draw each seed's own stream
    keys = philox_keys(seeds)
    first, second = keyed_fresh(keyed_generator(), keys[:2]), keyed_fresh(keyed_generator(), keys[2:])
    for fresh, i, seed in ((first, 0, seeds[0]), (second, 0, seeds[2]), (first, 1, seeds[1]), (second, 1, seeds[3]), (first, 0, seeds[0])):
        assert np.array_equal(fresh(i).random(3), generator(seed).random(3))
        assert fresh(i) is fresh(i)


@settings(max_examples=25, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=2), odd=st.sampled_from([1, 3, 7]))
def test_keyed_fresh_resets_a_pending_uint32_and_a_partly_used_buffer(seeds, odd):
    # an odd count of uint32 draws leaves half a word pending, and random() then reads one more
    # word: 2, 3 or 5 words leave part of Philox's four-word buffer unread; the re-keyed
    # generator draws what Philox(key=k) draws
    keys = philox_keys(seeds)
    fresh = keyed_fresh(keyed_generator(), keys)
    for i in (0, 1, 0):
        gen = fresh(i)
        gen.integers(0, 2**32, size=odd, dtype=np.uint32)
        gen.random()
        state = gen.bit_generator.state
        assert state["has_uint32"] == 1 and 0 < state["buffer_pos"] < 4
        gen = fresh(1 - i)
        want = np.random.Generator(np.random.Philox(key=keys[1 - i]))
        got_state, want_state = gen.bit_generator.state, want.bit_generator.state
        for field in ("counter", "key"):
            assert np.array_equal(got_state["state"][field], want_state["state"][field])
        assert [got_state[f] for f in ("buffer_pos", "has_uint32")] == [want_state[f] for f in ("buffer_pos", "has_uint32")]
        assert np.array_equal(gen.integers(0, 2**32, size=3, dtype=np.uint32), want.integers(0, 2**32, size=3, dtype=np.uint32))
        assert np.array_equal(gen.random(5), want.random(5))


def _trials(start, run, noisy) -> list:
    """Each trial of the run: (its instance, its noisy observation)."""
    return [(inst, batch_rows(noisy, i)) for i, inst in enumerate(instances_of(run))]


@pytest.mark.parametrize("params", MODEL_PARAMS, ids=lambda p: type(p).__name__)
def test_coupled_trials_match_scalar_seeds(params):
    batch = CoupledTrials(params, [(0.4, None)], 11, 12)
    assert len(batch) == 12
    # every pass gives the same trials
    for _ in range(2):
        for t, (inst, noisy) in enumerate(batch.map(_trials)):
            want_inst, want_noisy = coupled_trial_scalar(params, 0.4, 11, t)
            assert instance_to_json(inst) == instance_to_json(want_inst)
            assert _same(noisy, want_noisy)
    inst, noisy = CoupledTrials(params, [(0.7, 2)], 11, 4).map(_trials)[3]
    want_inst, want_noisy = coupled_trial_scalar(params, 0.7, 11, 3, grid_point=2)
    assert instance_to_json(inst) == instance_to_json(want_inst) and _same(noisy, want_noisy)


def test_coupled_trials_custom_draw_keeps_noise_seeds():
    params = RlcParams(m=6, n=3)
    calls = []

    def draw(p, seed, ts):
        calls.append(ts)
        return stack_runs([sample_instance(p, derive_seed(seed, 9, t)) for t in ts])

    got = CoupledTrials(params, [(0.5, 1)], 4, 3, draw=draw).map(_trials)
    assert calls == [range(0, 3)]
    for t, (inst, noisy) in enumerate(got):
        assert instance_to_json(inst) == instance_to_json(sample_instance(params, derive_seed(4, 9, t)))
        assert _same(noisy, noise_instance_observation(inst, 0.5, derive_seed(4, 1, 1, t)))


@pytest.mark.parametrize("params", MODEL_PARAMS, ids=lambda p: type(p).__name__)
def test_instance_runs_match_sample_instance_across_a_run_boundary(params):
    # the runs solve and pca-window draw: trial t is sample_instance at seed path (seed, INSTANCE_STREAM, t)
    runs = list(instance_runs(params, 13, EVAL_CHUNK + 2))
    assert [len(run) for run in runs] == [EVAL_CHUNK, 2]
    got = [inst for run in runs for inst in instances_of(run)]
    for t, inst in enumerate(got):
        assert hex_fields(inst) == hex_fields(sample_instance(params, derive_seed(13, 0, t)))
    assert trial_keys(13, 0, n=3).tolist() == [seed_sequence_philox_key(derive_seed(13, 0, t)).tolist() for t in range(3)]
