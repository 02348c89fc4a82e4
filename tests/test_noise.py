import collections
import inspect
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plantedlab.errors import ParameterError
from plantedlab.models import (
    EVAL_CHUNK,
    GssParams,
    GssRun,
    PspParams,
    RlcParams,
    TpcaParams,
    batch_rows,
    pair_ids,
    sample_instance,
)
from oracles import (
    coupled_trial_scalar,
    f2_rank_loop,
    full_rank_rlc_loop,
    hex_fields,
    instances_of,
    noise_scalar,
    one_trial,
    ou_compose,
    stack_observations,
    stack_runs,
)
from plantedlab import bayes
from plantedlab.bayes import _sample_full_rank_rlc, full_rank_run
from plantedlab.noise import CoupledTrials, chunk_noise, noise_instance_observation
from plantedlab.rng import INSTANCE_STREAM, NOISE_STREAM, derive_seed, derive_seeds, keyed_fresh, keyed_generator, philox_keys


def _gss_noise(Y: float, rho: float, seed: int) -> float:
    """The GSS operator on the observed value Y, drawn from generator(seed)."""
    inst = one_trial(GssRun, GssParams(N=1, k=1), np.zeros(1), (0,), Y)
    return noise_instance_observation(inst, rho, seed)[1]


def test_rho_zero_is_identity_everywhere():
    psp = sample_instance(PspParams(n=8, L=3, q=0.4), seed=1)
    assert np.array_equal(noise_instance_observation(psp, 0.0, 9), psp.edges[0])
    rlc = sample_instance(RlcParams(m=7, n=4), seed=1)
    assert np.array_equal(noise_instance_observation(rlc, 0.0, 9)[1], rlc.y[0])
    gss = sample_instance(GssParams(N=10, k=3), seed=1)
    assert noise_instance_observation(gss, 0.0, 9)[1] == gss.Y[0]
    tpca = sample_instance(TpcaParams(n=5, k=2, d=3, lam=2.0), seed=1)
    assert np.array_equal(noise_instance_observation(tpca, 0.0, 9), tpca.Y[0])


# model -> (params, observation -> the part of it that the operator resamples)
NOISE_OPERATORS = {
    "psp": (PspParams(n=7, L=3, q=0.35), lambda obs: obs),
    "rlc": (RlcParams(m=9, n=4), lambda obs: obs[1]),
    "gss": (GssParams(N=8, k=3), lambda obs: obs[1]),
    "tpca": (TpcaParams(n=4, k=2, d=3, lam=3.0), lambda obs: obs),
}


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from(sorted(NOISE_OPERATORS)), seed=st.integers(0, 2**64 - 1), key_seed=st.integers(0, 2**64 - 1))
def test_rho_zero_copies_the_input_and_draws_nothing(model, seed, key_seed):
    params, part = NOISE_OPERATORS[model]
    run = sample_instance(params, seed)
    observed = part(run.observation)
    rng = keyed_fresh(keyed_generator(), philox_keys([key_seed]))(0)
    before = rng.bit_generator.state
    out = part(chunk_noise(params, 0.0)(run, lambda _: rng))
    assert np.array_equal(out, observed) and out.dtype == observed.dtype
    assert not np.shares_memory(out, observed)
    after = rng.bit_generator.state
    assert after["state"]["key"].tolist() == before["state"]["key"].tolist()
    assert after["state"]["counter"].tolist() == before["state"]["counter"].tolist()
    assert (after["buffer_pos"], after["has_uint32"]) == (before["buffer_pos"], before["has_uint32"])


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from(sorted(NOISE_OPERATORS)), seeds=st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=2, unique=True), key_seed=st.integers(0, 2**64 - 1))
def test_rho_one_forgets_the_input(model, seeds, key_seed):
    params, part = NOISE_OPERATORS[model]
    fresh = keyed_fresh(keyed_generator(), philox_keys([key_seed]))
    noise = chunk_noise(params, 1.0)
    out_a, out_b = (part(noise(sample_instance(params, s), lambda _: fresh(0)))[0] for s in seeds)
    assert np.array_equal(out_a, out_b)
    if model in ("gss", "tpca"):
        # sqrt(1 - 1) * Y + 1 * Z is exactly Z
        z = fresh(0).standard_normal(np.shape(out_a) or None)
        assert np.array_equal(out_a, z)


def test_noise_is_replayable():
    psp = sample_instance(PspParams(n=8, L=3, q=0.4), seed=3)
    a = noise_instance_observation(psp, 0.6, 42)
    b = noise_instance_observation(psp, 0.6, 42)
    assert np.array_equal(a, b)
    gss = sample_instance(GssParams(N=10, k=3), seed=3)
    assert noise_instance_observation(gss, 0.6, 42)[1] == noise_instance_observation(gss, 0.6, 42)[1]


def test_psp_full_noise_fixed_pair_frequency():
    # rho = 1: output is a fresh G(n, q) regardless of input
    params = PspParams(n=8, L=3, q=0.35)
    inst = sample_instance(params, seed=5)
    pair = pair_ids(params.n)[inst.path[0, 0], inst.path[0, 1]]  # a planted edge, always present in input
    trials = 10**4
    hits = sum(noise_instance_observation(inst, 1.0, derive_seed(0, 1, t))[pair] for t in range(trials))
    freq = hits / trials
    stderr = math.sqrt(0.35 * 0.65 / trials)
    assert abs(freq - params.q) <= 3 * stderr


def test_psp_planted_edge_survival_at_q_zero():
    # q = 0: survival probability of an existing edge is exactly 1 - rho
    params = PspParams(n=8, L=3, q=0.0)
    inst = sample_instance(params, seed=6)
    pair = pair_ids(params.n)[inst.path[0, 1], inst.path[0, 2]]
    trials = 10**4
    hits = sum(noise_instance_observation(inst, 0.5, derive_seed(1, 1, t))[pair] for t in range(trials))
    freq = hits / trials
    stderr = math.sqrt(0.25 / trials)
    assert abs(freq - 0.5) <= 3 * stderr


def test_rlc_full_noise_uniform():
    rlc = sample_instance(RlcParams(m=6, n=4), seed=2)
    trials = 10**4
    counts = np.zeros(6)
    for t in range(trials):
        counts += noise_instance_observation(rlc, 1.0, derive_seed(2, 1, t))[1]
    freq = counts / trials
    stderr = math.sqrt(0.25 / trials)
    assert np.all(np.abs(freq - 0.5) <= 4 * stderr)


def test_rlc_flip_probability_is_half_rho():
    rlc = sample_instance(RlcParams(m=10, n=4), seed=7)
    rho = 0.4
    trials = 10**4
    flips = 0
    for t in range(trials):
        flips += int((noise_instance_observation(rlc, rho, derive_seed(3, 1, t))[1] != rlc.y[0]).sum())
    freq = flips / (trials * 10)
    stderr = math.sqrt(0.2 * 0.8 / (trials * 10))
    assert abs(freq - rho / 2) <= 3 * stderr


def test_gss_full_noise_standard_normal():
    Y = 7.3
    trials = 2 * 10**4
    draws = np.array([_gss_noise(Y, 1.0, derive_seed(4, 1, t)) for t in range(trials)])
    assert abs(draws.mean()) <= 3 * draws.std(ddof=1) / math.sqrt(trials)
    var = draws.var(ddof=1)
    assert abs(var - 1.0) <= 3 * var * math.sqrt(2 / (trials - 1))


def test_gss_variance_preserved_under_ou():
    # Y ~ N(0, k) -> output ~ N(0, (1-rho^2) k + rho^2)
    params = GssParams(N=40, k=5)
    rho = 0.6
    trials = 2 * 10**4
    # trial t: the instance at seed path (5, 0, t), its noise at (5, 1, t)
    assert (INSTANCE_STREAM, NOISE_STREAM) == (0, 1)
    out = np.array(CoupledTrials(params, [(rho, None)], 5, trials).map(lambda start, run, noisy: noisy[1]))
    target = (1 - rho**2) * params.k + rho**2
    var = out.var(ddof=1)
    assert abs(var - target) <= 3 * var * math.sqrt(2 / (trials - 1))
    assert abs(out.mean()) <= 3 * out.std(ddof=1) / math.sqrt(trials)


def test_ou_semigroup_two_sample():
    # noise at rho1 then rho2 matches a single application at the composed rho
    rho1, rho2 = 0.5, 0.4
    rho3 = ou_compose(rho1, rho2)
    assert math.isclose(rho3**2, rho1**2 + rho2**2 - rho1**2 * rho2**2, rel_tol=1e-12)
    Y = 3.7
    trials = 2 * 10**4
    params, gen = GssParams(N=1, k=1), keyed_generator()

    def arm(Ys, rho, stream):
        # _gss_noise(Y, rho, derive_seed(6, stream, t)) at every trial t, as one run
        keys = philox_keys(derive_seeds(6, stream, ts=np.arange(trials)))
        run = GssRun(params, np.zeros((len(Ys), 1)), np.zeros((len(Ys), 1), dtype=np.int64), np.array(Ys, dtype=float))
        return chunk_noise(params, rho)(run, keyed_fresh(gen, keys))[1]

    two_step = arm(arm([Y] * trials, rho1, 1), rho2, 2)
    one_step = arm([Y] * trials, rho3, 3)
    # both arms are Gaussian with the same mean/variance; two-sample z-tests
    se_mean = math.sqrt(two_step.var(ddof=1) / trials + one_step.var(ddof=1) / trials)
    assert abs(two_step.mean() - one_step.mean()) <= 3 * se_mean
    v1, v2 = two_step.var(ddof=1), one_step.var(ddof=1)
    se_var = math.sqrt(2 / (trials - 1)) * math.sqrt(v1**2 + v2**2)
    assert abs(v1 - v2) <= 3 * se_var


def test_tpca_full_noise_fresh_normal():
    inst = sample_instance(TpcaParams(n=5, k=2, d=3, lam=9.0), seed=8)
    out = noise_instance_observation(inst, 1.0, 99)
    flat = out.ravel()
    assert abs(flat.mean()) <= 3 * flat.std(ddof=1) / math.sqrt(flat.size)
    var = flat.var(ddof=1)
    assert abs(var - 1.0) <= 3 * var * math.sqrt(2 / (flat.size - 1))


def test_tpca_noise_matches_rescaled_model():
    # noisy lambda-instance support-entry mean == fresh lambda(1-rho^2) instance mean
    params = TpcaParams(n=6, k=2, d=3, lam=8.0)
    rho = 0.5
    lam_tilde = params.lam * (1 - rho**2)
    params_tilde = TpcaParams(n=6, k=2, d=3, lam=lam_tilde)
    trials = 4000
    noisy_means = np.empty(trials)
    fresh_means = np.empty(trials)
    for t in range(trials):
        inst = sample_instance(params, seed=derive_seed(7, 0, t))
        noisy = noise_instance_observation(inst, rho, derive_seed(7, 1, t))
        s = inst.support[0]
        noisy_means[t] = noisy[np.ix_(s, s, s)].mean()
        fresh = sample_instance(params_tilde, seed=derive_seed(8, 0, t))
        sf = fresh.support[0]
        fresh_means[t] = fresh.Y[0][np.ix_(sf, sf, sf)].mean()
    se = math.sqrt(noisy_means.var(ddof=1) / trials + fresh_means.var(ddof=1) / trials)
    assert abs(noisy_means.mean() - fresh_means.mean()) <= 3 * se


# ---------------------------------------------------------------------------
# coupled runs decoded from raw Philox words, against the Generator-call oracles

# odd uint32 and uint64 word counts (RLC A of 1, 15, 49, 45 and 512 bits, y of 1, 5, 7, 9 and 64 bits),
# PSP at q = 0 and 1 and with one interior vertex, GSS at k = N, TPCA
COUPLED_PARAMS = [
    PspParams(n=3, L=2, q=0.5),
    PspParams(n=7, L=3, q=0.35),
    PspParams(n=6, L=5, q=1.0),
    PspParams(n=9, L=2, q=0.0),
    RlcParams(m=1, n=1),
    RlcParams(m=5, n=3),
    RlcParams(m=7, n=7),
    RlcParams(m=9, n=5),
    RlcParams(m=64, n=8),
    GssParams(N=1, k=1),
    GssParams(N=6, k=6),
    GssParams(N=20, k=3),
    TpcaParams(n=4, k=2, d=3, lam=3.0),
]
rhos = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
grid_points = st.one_of(st.none(), st.integers(0, 2**40))


def _pairs(start, run, noisy):
    return [(inst, batch_rows(noisy, i)) for i, inst in enumerate(instances_of(run))]


@settings(max_examples=120, deadline=None)
@given(params=st.sampled_from(COUPLED_PARAMS), seed=st.integers(0, 2**64 - 1), rho=rhos, grid_point=grid_points,
       trials=st.integers(1, 30))
def test_coupled_runs_equal_the_generator_call_oracles(params, seed, rho, grid_point, trials):
    batch = CoupledTrials(params, [(rho, grid_point)], seed, trials)
    want = [coupled_trial_scalar(params, rho, seed, t, grid_point=grid_point) for t in range(trials)]
    assert [hex_fields(pair) for pair in batch.map(_pairs)] == [hex_fields(pair) for pair in want]
    # the run record and the stacked noisy observation themselves (trials <= 30 make one run)
    ((run, noisy),) = batch.map(lambda start, run, noisy: [(run, noisy)])
    assert hex_fields(run) == hex_fields(stack_runs([inst for inst, _ in want]))
    assert hex_fields(noisy) == hex_fields(stack_observations([obs for _, obs in want]))


@settings(max_examples=30, deadline=None)
@given(params=st.sampled_from([RlcParams(m=3, n=3), RlcParams(m=5, n=3), RlcParams(m=9, n=5)]),
       seed=st.integers(0, 2**32), rho=rhos, grid_point=st.integers(0, 6), trials=st.integers(1, 12))
def test_full_rank_draws_take_the_run_noise(params, seed, rho, grid_point, trials):
    # draw= instances keep their scalar (seed, 0, t, attempt) seeds; their noise is the run's
    batch = CoupledTrials(params, [(rho, grid_point)], seed, trials, draw=full_rank_run)
    got = batch.map(_pairs)
    for t in range(trials):
        want = coupled_trial_scalar(params, rho, seed, t, grid_point=grid_point, full_rank_only=True)
        assert hex_fields(got[t]) == hex_fields(want)


@settings(max_examples=40, deadline=None)
@given(params=st.sampled_from([RlcParams(m=4, n=4), RlcParams(m=3, n=3), RlcParams(m=9, n=5)]),
       seed=st.integers(0, 2**64 - 1), start=st.integers(0, 2**32), trials=st.integers(1, 30))
def test_full_rank_run_equals_the_per_trial_draws(params, seed, start, trials):
    # at m = n = 4 about 70% of first attempts are rejected and redrawn
    ts = range(start, start + trials)
    run = full_rank_run(params, seed, ts)
    want = [_sample_full_rank_rlc(params, seed, t) for t in ts]
    assert hex_fields(run) == hex_fields(stack_runs(want))
    assert hex_fields(run) == hex_fields(stack_runs([full_rank_rlc_loop(params, seed, t) for t in ts]))


def test_full_rank_run_redraws_only_rejected_trials(monkeypatch):
    # attempt a of a run draws, as one batch, only the trials that attempts 0..a-1 rejected
    params, drawn = RlcParams(m=4, n=4), []
    real = bayes.derive_seeds
    monkeypatch.setattr(bayes, "derive_seeds", lambda *a, ts, suffix: drawn.append((ts.tolist(), suffix)) or real(*a, ts=ts, suffix=suffix))
    run = full_rank_run(params, 5, range(40))
    first = [sample_instance(params, derive_seed(5, INSTANCE_STREAM, t, 0)) for t in range(40)]
    rejected = [t for t, inst in enumerate(first) if f2_rank_loop(inst.A[0]) < 4]
    assert drawn[:2] == [(list(range(40)), (0,)), (rejected, (1,))] and 20 <= len(rejected) < 40
    for a, ((ts, _), (later, suffix)) in enumerate(zip(drawn[1:], drawn[2:]), start=2):
        assert suffix == (a,) and set(later) <= set(ts)
    assert all(f2_rank_loop(A) == 4 for A in run.A)


def test_coupled_runs_cross_run_boundaries():
    for params in (RlcParams(m=7, n=7), GssParams(N=6, k=6), PspParams(n=7, L=3, q=0.35)):
        trials = EVAL_CHUNK + 5
        got = CoupledTrials(params, [(0.3, None)], 8, trials).map(_pairs)
        for t in (0, EVAL_CHUNK - 1, EVAL_CHUNK, trials - 1):
            assert hex_fields(got[t]) == hex_fields(coupled_trial_scalar(params, 0.3, 8, t))


def test_noise_instance_observation_equals_the_oracle():
    for params in COUPLED_PARAMS:
        inst = sample_instance(params, 4)
        for rho in (0.0, 0.45, 1.0):
            assert hex_fields(noise_instance_observation(inst, rho, 77)) == hex_fields(noise_scalar(inst, rho, 77))


def test_coupled_trials_take_only_a_list_of_arms_and_have_no_indexing():
    # one arm form, (rho, grid_point) pairs; one trial is read from a pass or from coupled_trial_scalar
    assert list(inspect.signature(CoupledTrials).parameters) == ["params", "arms", "seed", "n", "draw"]
    assert not hasattr(CoupledTrials, "__getitem__")


def _corners(start, run, noisy) -> list:
    return [(y[0, 0, 0], obs[0, 0, 0]) for y, obs in zip(run.Y, noisy)]


def _lanes(fns, reduced: list) -> list:
    """One lane per arm, in arm order: lane j is fns[j] on arm j, whose reduce appends (j, its outputs) to reduced and returns them."""
    return [(j, lambda fn=fn: fn, lambda outs, j=j: reduced.append((j, outs)) or outs) for j, fn in enumerate(fns)]


def _raised(coupled, fns) -> tuple[list, str]:
    """The (lane, outputs) pairs reduced, in order, by a pass of _lanes(fns), and the repr of what the pass raised."""
    reduced = []
    with pytest.raises(Exception) as err:
        coupled.run_lanes(_lanes(fns, reduced))
    return reduced, repr(err.value)


def test_map_arms_noises_each_run_in_every_arm_one_arm_at_a_time():
    # each run is drawn once and noised in every arm in order, each arm at its own seed path, as one-arm
    # passes do; an arm's noisy observation is released before the next one is drawn
    params, trials, arms = TpcaParams(n=6, k=2, d=3, lam=1.0), EVAL_CHUNK + 2, [(0.3, 0), (0.7, None), (0.0, 4)]
    refs, arms_of, reduced = [], collections.defaultdict(list), []

    def arm(j):
        def fn(start, run, noisy):
            assert all(ref() is None for ref in refs)
            refs.append(weakref.ref(noisy))
            arms_of[id(run), start].append(j)
            return _corners(start, run, noisy)

        return fn

    got = CoupledTrials(params, arms, 5, trials).run_lanes(_lanes([arm(j) for j in range(3)], reduced))
    assert list(arms_of.values()) == [[0, 1, 2]] * 2 and reduced == list(enumerate(got))  # reduced in rank order
    for noise_arm, rows in zip(arms, got):
        assert [row for out in rows for row in out] == CoupledTrials(params, [noise_arm], 5, trials).map(_corners)


def _failing(arm: int, bad_start: int, calls: list):
    def fn(start, run, noisy):
        calls.append((arm, start))
        if start == bad_start:
            raise ValueError(f"arm {arm}")
        return []

    return fn


def test_map_arms_raises_in_arm_order():
    # the error of the first arm that fails is the pass's failure, raised after the arms before it ran
    # every run and were reduced, in arm order
    params, trials, calls = GssParams(N=6, k=2), EVAL_CHUNK + 3, []
    coupled = CoupledTrials(params, [(0.3, 0), (0.6, None), (0.9, 1)], 2, trials)
    fns = [_failing(0, EVAL_CHUNK, calls), _failing(1, 0, calls), _failing(2, -1, calls)]
    assert _raised(coupled, fns) == ([], "ValueError('arm 0')")
    assert calls == [(0, 0), (1, 0), (0, EVAL_CHUNK)]
    calls.clear()
    fns = [_failing(0, -1, calls), _failing(1, EVAL_CHUNK, calls), _failing(2, 0, calls)]
    assert _raised(coupled, fns) == ([(0, [[], []])], "ValueError('arm 1')")
    assert calls == [(0, 0), (1, 0), (2, 0), (0, EVAL_CHUNK), (1, EVAL_CHUNK)]
    with pytest.raises(ValueError, match="arm 0"):  # map is the one-lane pass that raises
        coupled.map(_failing(0, EVAL_CHUNK, calls))


def test_an_arm_out_of_range_raises_after_the_arms_before_it():
    params, calls, out_of_range = GssParams(N=6, k=2), [], "ParameterError('need rho in [0,1], got 1.5')"
    assert _raised(CoupledTrials(params, [(1.5, 0), (0.3, 1)], 2, 4), [_failing(j, -1, calls) for j in range(2)]) == ([], out_of_range)
    with pytest.raises(ParameterError, match="need rho in"):
        CoupledTrials(params, [(1.5, None)], 2, 4).map(_failing(0, -1, calls))
    assert calls == []
    coupled = CoupledTrials(params, [(0.3, 0), (1.5, 1), (0.6, 2)], 2, 4)
    assert _raised(coupled, [_failing(j, -1, calls) for j in range(3)]) == ([(0, [[]])], out_of_range)
    assert calls == [(0, 0)]
    assert _raised(coupled, [_failing(0, 0, calls)]) == ([], "ValueError('arm 0')")
