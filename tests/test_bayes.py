import math
import re
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    coupled_trial_scalar,
    gss_counting_weights_mpmath,
    gss_exact_match_posterior_loop,
    path_edges,
    _weighted_marginals_loop,
    posterior_mean_loop,
    psp_rejection_posterior,
    rlc_finish_loop,
    rlc_hamming_profile_loop,
    rlc_profiles_strided,
    rlc_rejection_posterior,
    stack_observations,
    tpca_class_sizes,
    tpca_full_density_posterior,
    tpca_log_weights_loop,
    tpca_overlap_distribution_loop,
    tpca_resampling_posterior,
)
from plantedlab import bayes
from plantedlab.bayes import (
    estimate_mmse_curve,
    posterior_mean_for,
    posterior_means,
    tpca_overlap_distribution,
)
from plantedlab.counting import count_approx_paths, count_overlap_pairs
from plantedlab.errors import EstimatorTrialError, InconsistentInputError, ParameterError, ResourceBudgetError
from plantedlab.models import (
    EVAL_CHUNK,
    GssParams,
    PspParams,
    RlcParams,
    TpcaParams,
    batch_rows,
    model_name,
    pair_ids,
    sample_instance,
    subsets,
)
from plantedlab.noise import CoupledTrials, noise_instance_observation
from plantedlab.rng import derive_seed, generator
from plantedlab.solvers import f2_rank
from plantedlab.stability import measure_stability


# ---------------------------------------------------------------------------
# PSP posterior


def test_psp_noiseless_posterior_is_point_mass():
    params = PspParams(n=7, L=3, q=0.15)
    inst = sample_instance(params, seed=3)
    pm = posterior_mean_for(params, inst.edges[0], 0.0)
    # the planted path must get posterior 1 on each of its edges unless a
    # second length-L path appeared by chance; verify via the path census
    planted = inst.signal_vectors()[0]
    on_path = pm[planted > 0]
    assert np.all(on_path > 0)
    if np.allclose(pm, planted):
        assert np.all(on_path == 1.0)


def test_psp_uniform_posterior_hand_count():
    # rho=1: n=4, L=2: both 1-x-2 paths weigh equally
    params = PspParams(n=4, L=2, q=0.3)
    inst = sample_instance(params, seed=0)
    pm = posterior_mean_for(params, inst.edges[0], 1.0)
    idx = pair_ids(4)
    assert pm[idx[1, 3]] == 0.5
    assert pm[idx[2, 3]] == 0.5
    assert pm[idx[1, 4]] == 0.5
    assert pm[idx[2, 4]] == 0.5
    assert pm[idx[1, 2]] == 0.0
    assert pm[idx[3, 4]] == 0.0


def test_psp_posterior_matches_rejection_oracle():
    params = PspParams(n=6, L=3, q=0.35)
    rho = 0.4
    inst = sample_instance(params, seed=12)
    noisy = noise_instance_observation(inst, rho, 13)
    pm = posterior_mean_for(params, noisy, rho)
    target = noisy
    oracle, hits = psp_rejection_posterior(target, 6, 3, 0.35, rho, samples=40_000_000, seed=99)
    assert hits > 200
    se = np.sqrt(np.maximum(pm * (1 - pm), 1e-12) / hits)
    assert np.all(np.abs(oracle - pm) <= 3 * np.maximum(se, 1e-9))


def test_psp_inconsistent_at_rho_zero():
    params = PspParams(n=6, L=3, q=0.0)
    inst = sample_instance(params, seed=4)
    broken = inst.edges[0].copy()
    e = path_edges(inst.path[0])[1]
    broken[pair_ids(params.n)[e]] = False
    with pytest.raises(InconsistentInputError):
        posterior_mean_for(params, broken, 0.0)


def test_psp_budget_error():
    params = PspParams(n=40, L=8, q=0.2)
    inst = sample_instance(params, seed=1)
    with pytest.raises(ResourceBudgetError):
        posterior_mean_for(params, inst.edges[0], 0.5)


# ---------------------------------------------------------------------------
# RLC posterior


def test_rlc_uniform_posterior_at_full_noise():
    inst = sample_instance(RlcParams(m=9, n=6), seed=8)
    pm = posterior_mean_for(inst.params, (inst.A[0], inst.y[0]), 1.0)
    assert np.all(pm == 0.5)


def test_rlc_noiseless_full_rank_recovers_message():
    params = RlcParams(m=10, n=6)
    found = 0
    for seed in range(20):
        inst = sample_instance(params, seed=seed)
        if f2_rank(inst.A[0]) < params.n:
            continue
        found += 1
        pm = posterior_mean_for(params, (inst.A[0], inst.y[0]), 0.0)
        assert np.array_equal(pm, inst.x[0].astype(float))
    assert found >= 15


def test_rlc_posterior_matches_rejection_oracle():
    inst = sample_instance(RlcParams(m=10, n=8), seed=21)
    yh = noise_instance_observation(inst, 0.3, 22)[1]
    pm = posterior_mean_for(inst.params, (inst.A[0], yh), 0.3)
    oracle, hits = rlc_rejection_posterior(inst.A[0], yh, 0.3, samples=20_000_000, seed=5)
    assert hits > 2000
    se = np.sqrt(np.maximum(pm * (1 - pm), 1e-12) / hits)
    assert np.all(np.abs(oracle - pm) <= 3 * np.maximum(se, 1e-9))


def test_rlc_marginal_ratio_complement():
    inst = sample_instance(RlcParams(m=8, n=5), seed=2)
    yh = noise_instance_observation(inst, 0.4, 3)[1]
    pm = posterior_mean_for(inst.params, (inst.A[0], yh), 0.4)
    # estimate is P(x_i = 1); the zero-side ratio L0/(L0+L1) is its complement
    assert np.all((1 - pm) >= 0) and np.all(pm >= 0)


def test_rlc_posterior_takes_float_and_listed_bits():
    # a float 0/1 A passed check_bits, then raised a bare TypeError from np.packbits; one observation's
    # bits may be lists, a batch of observations may not
    inst = sample_instance(RlcParams(m=8, n=5), seed=2)
    yh = noise_instance_observation(inst, 0.4, 3)[1]
    want = posterior_means(inst.params, (inst.A[0][None], yh[None]), 0.4)
    got_float = posterior_means(inst.params, (inst.A[0][None].astype(float), yh[None].astype(float)), 0.4)
    got_list = posterior_mean_for(inst.params, (inst.A[0].tolist(), yh.tolist()), 0.4)[None]
    assert want.tolist() == got_float.tolist() == got_list.tolist()
    with pytest.raises(ParameterError, match="a rlc observation is \\(A, y\\), got a list"):
        posterior_means(inst.params, [(inst.A[0], yh)], 0.4)
    with pytest.raises(ParameterError, match="A has shape \\(40,\\), expected \\(8, 5\\)"):
        posterior_means(inst.params, (inst.A[0].ravel()[None], yh[None]), 0.4)


def test_rlc_budget_error():
    A = np.zeros((30, 30), dtype=np.uint8)
    with pytest.raises(ResourceBudgetError):
        posterior_mean_for(RlcParams(m=30, n=30), (A, np.zeros(30, dtype=np.uint8)), 0.5)


@pytest.mark.parametrize(
    "enumerate_, message",
    [
        # C(60, 5) = 5,461,512 subsets
        (lambda: posterior_mean_for(GssParams(N=60, k=5), (np.zeros(60), 0.0), 0.5), "subsets exceed budget"),
        (lambda: posterior_mean_for(TpcaParams(n=60, k=5, d=2, lam=1.0), np.zeros((60, 60)), 0.0), "subsets exceed budget"),
        # n = 14: (12)_4 = 11,880 paths, so 11,880^2 pairs
        (lambda: count_overlap_pairs(np.zeros(91, dtype=bool), 14, 5, 1), "path pairs exceed budget"),
        # n = 20: (18)_5 = 1,028,160 paths
        (lambda: count_approx_paths(np.zeros(190, dtype=bool), 20, 6, 1), "candidate paths exceed budget"),
    ],
    ids=["gss-subsets", "tpca-subsets", "overlap-pairs", "approx-paths"],
)
def test_enumeration_budget_errors(enumerate_, message):
    with pytest.raises(ResourceBudgetError, match=message):
        enumerate_()


# ---------------------------------------------------------------------------
# GSS posterior


def test_gss_uniform_posterior_at_full_noise():
    params = GssParams(N=16, k=3)
    inst = sample_instance(params, seed=9)
    yh = noise_instance_observation(inst, 1.0, 10)[1]
    pm = posterior_mean_for(params, (inst.X[0], yh), 1.0)
    assert np.all(pm == params.k / params.N)


def test_gss_noiseless_recovers_planted_subset():
    params = GssParams(N=16, k=3)
    for t in range(50):
        inst = sample_instance(params, seed=derive_seed(77, 0, t))
        pm = posterior_mean_for(params, (inst.X[0], inst.Y[0]), 0.0)
        assert np.array_equal(pm, inst.signal_vectors()[0])


def test_gss_noiseless_posterior_matches_the_row_scan():
    cases = [(np.array([1.0, 1.0, 2.0, 0.5, 0.5, 3.0]), 1.5, 2)]  # four exact matches
    for t in range(5):
        inst = sample_instance(GssParams(N=11, k=3 + t % 3), seed=derive_seed(41, 0, t))
        cases.append((inst.X[0], inst.Y[0], inst.params.k))
    for X, y_hat, k in cases:
        pm = posterior_mean_for(GssParams(N=len(X), k=k), (X, y_hat), 0.0)
        est, _ = gss_exact_match_posterior_loop(X, y_hat, k)
        assert [v.hex() for v in pm] == [v.hex() for v in est]


def test_gss_noiseless_inconsistent_input():
    params = GssParams(N=10, k=2)
    inst = sample_instance(params, seed=1)
    with pytest.raises(InconsistentInputError):
        posterior_mean_for(params, (inst.X[0], inst.Y[0] + 0.5), 0.0)


def test_gss_posterior_matches_extended_precision_oracle():
    params = GssParams(N=14, k=3)
    inst = sample_instance(params, seed=31)
    yh = noise_instance_observation(inst, 0.2, 32)[1]
    pm = posterior_mean_for(params, (inst.X[0], yh), 0.2)
    oracle = gss_counting_weights_mpmath(inst.X[0], yh, 3, 0.2)
    assert np.max(np.abs(oracle - pm)) <= 1e-10


def test_gss_log_space_robust_in_far_tail():
    # without max-subtraction every weight underflows here
    params = GssParams(N=12, k=3)
    inst = sample_instance(params, seed=6)
    far = 60.0
    pm = posterior_mean_for(params, (inst.X[0], far), 0.25)
    assert np.all(np.isfinite(pm))
    assert math.isclose(pm.sum(), params.k, rel_tol=1e-9)
    oracle = gss_counting_weights_mpmath(inst.X[0], far, 3, 0.25)
    assert np.max(np.abs(oracle - pm)) <= 1e-10


# ---------------------------------------------------------------------------
# sparse tensor PCA posterior


def test_tpca_uniform_posterior_at_lambda_zero():
    params = TpcaParams(n=8, k=2, d=3, lam=0.0)
    inst = sample_instance(params, seed=11)
    pm = posterior_mean_for(params, inst.Y[0], 0.0)
    expected = (params.k / params.n) / math.sqrt(params.k)
    assert np.allclose(pm, expected, atol=1e-12)


def test_tpca_posterior_matches_full_density_oracle():
    # the fast path drops the constant quadratic term; the oracle keeps it
    params = TpcaParams(n=9, k=2, d=3, lam=6.0)
    inst = sample_instance(params, seed=42)
    pm = posterior_mean_for(params, inst.Y[0], 0.0)
    oracle = tpca_full_density_posterior(inst.Y[0], 9, 2, 3, 6.0)
    assert np.max(np.abs(oracle - pm)) <= 1e-10


def test_tpca_noisy_observation_equals_rescaled_model():
    # posterior for T_rho(Y) is the lam(1-rho^2) posterior on the noisy tensor
    params = TpcaParams(n=8, k=2, d=3, lam=12.0)
    rho = 0.6
    inst = sample_instance(params, seed=51)
    noisy = noise_instance_observation(inst, rho, 52)
    via_dispatch = posterior_mean_for(params, noisy, rho)
    lam_tilde = params.lam * (1 - rho**2)
    oracle = tpca_full_density_posterior(noisy, 8, 2, 3, lam_tilde)
    assert np.max(np.abs(oracle - via_dispatch)) <= 1e-10


def test_tpca_posterior_matches_resampling_oracle():
    params = TpcaParams(n=10, k=2, d=3, lam=30.0)
    inst = sample_instance(params, seed=41)
    pm = posterior_mean_for(params, inst.Y[0], 0.0)
    oracle = tpca_resampling_posterior(inst.Y[0], 10, 2, 3, 30.0, samples=100_000, seed=6)
    # at this SNR both concentrate; compare with a loose Monte-Carlo allowance
    assert np.max(np.abs(oracle - pm)) <= 0.05


def test_tpca_overlap_distribution_uniform_case():
    params = TpcaParams(n=12, k=3, d=3, lam=0.0)
    inst = sample_instance(params, seed=13)
    p = tpca_overlap_distribution(inst.Y[0], inst.support[0], params)
    sizes = tpca_class_sizes(params.n, params.k)
    assert np.allclose(p, sizes / sizes.sum(), atol=1e-12)
    assert abs(p.sum() - 1.0) <= 1e-12


def test_tpca_overlap_sums_to_one():
    params = TpcaParams(n=10, k=2, d=3, lam=5.0)
    inst = sample_instance(params, seed=14)
    p = tpca_overlap_distribution(inst.Y[0], inst.support[0], params)
    assert abs(p.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("support", [[0, 1, 2], [-1, 0], [7], [1, 1], [0.0, 1.0]], ids=["three", "negative", "past-n", "repeated", "floats"])
def test_tpca_overlap_distribution_rejects_a_malformed_support(support):
    # at n = 5, k = 2 the first once returned a distribution, the second read -1 as vertex 4, the third raised IndexError
    params = TpcaParams(n=5, k=2, d=3, lam=2.0)
    inst = sample_instance(params, seed=1)
    with pytest.raises(ParameterError, match="2 distinct integers in 0..4"):
        tpca_overlap_distribution(inst.Y[0], support, params)


@pytest.mark.parametrize("params", [GssParams(N=8, k=2), PspParams(n=6, L=3, q=0.3), RlcParams(m=6, n=4)], ids=repr)
def test_tpca_overlap_distribution_rejects_another_models_params(params):
    # each raised a bare AttributeError
    Y = sample_instance(TpcaParams(n=5, k=2, d=3, lam=2.0), seed=1).Y[0]
    with pytest.raises(ParameterError) as err:
        tpca_overlap_distribution(Y, [0, 1], params)
    assert str(err.value) == f"the overlap distribution takes TpcaParams, got {type(params).__name__}"


def test_tpca_high_snr_posterior_concentrates():
    # lam = 20 log C(n-k, k): posterior mass on the planted support > 0.9
    # in at least 80 of 100 trials
    n, k, d = 12, 2, 3
    lam = 10.0 * 2.0 * math.log(math.comb(n - k, k))
    params = TpcaParams(n=n, k=k, d=d, lam=lam)
    wins = 0
    for t in range(100):
        inst = sample_instance(params, seed=derive_seed(15, 0, t))
        p = tpca_overlap_distribution(inst.Y[0], inst.support[0], params)
        wins += p[k] > 0.9
    assert wins >= 80


# ---------------------------------------------------------------------------
# MMSE curves


def test_mmse_curve_rlc_endpoints_exact():
    params = RlcParams(m=10, n=8)
    reports = estimate_mmse_curve(params, [0.0, 1.0], trials=50, seed=7, full_rank_only=True)
    at0, at1 = reports
    assert at0.mmse_hat == 0.0 and at0.stderr == 0.0 and at0.nmmse_hat == 0.0
    assert at1.mmse_hat == params.n / 4 and at1.stderr == 0.0
    assert at1.nmmse_hat == (params.n / 4) / (params.n / 2)


def test_mmse_curve_gss_full_noise_exact():
    params = GssParams(N=16, k=3)
    (report,) = estimate_mmse_curve(params, [1.0], trials=40, seed=8)
    expected = params.k * (1 - params.k / params.N)
    assert report.mmse_hat == expected and report.stderr == 0.0


def test_mmse_curve_without_trials_raises():
    with pytest.raises(ParameterError, match="no values"):
        estimate_mmse_curve(RlcParams(m=6, n=4), [0.5], 0, 1)


def test_mmse_curve_without_trials_raises_on_an_empty_grid():
    with pytest.raises(ParameterError, match="no values"):
        estimate_mmse_curve(RlcParams(m=6, n=4), [], -3, 1)


def test_full_rank_instances_are_drawn_once_per_curve(monkeypatch):
    # trial t's full-rank instance does not depend on the grid point: a 5-point grid is one pass that draws
    # each run of trials once, trials plus rejections instances, as one pass of full_rank_run over the runs does
    params, trials, draws, drawn_runs = RlcParams(m=5, n=5), EVAL_CHUNK + 12, [], []
    runs = [range(0, EVAL_CHUNK), range(EVAL_CHUNK, trials)]
    real_run, real_draw = bayes.chunk_sampler(params), bayes.full_rank_run

    def run_sampler(p):
        return lambda count, fresh: draws.append(count) or real_run(count, fresh)

    def draw(p, seed, ts):
        drawn_runs.append(ts)
        return real_draw(p, seed, ts)

    monkeypatch.setattr(bayes, "chunk_sampler", run_sampler)
    for ts in runs:
        real_draw(params, 3, ts)
    one_pass, draws[:] = list(draws), []
    monkeypatch.setattr(bayes, "full_rank_run", draw)
    estimate_mmse_curve(params, [0.0, 0.25, 0.5, 0.75, 1.0], trials, seed=3, full_rank_only=True)
    assert drawn_runs == runs
    assert draws == one_pass and sum(one_pass) > trials


def test_full_rank_curve_holds_no_earlier_run(monkeypatch):
    # each run record of a full-rank curve is released before the next run is drawn
    params, refs = RlcParams(m=5, n=5), []
    real_draw = bayes.full_rank_run

    def draw(p, seed, ts):
        assert all(ref() is None for ref in refs)
        run = real_draw(p, seed, ts)
        refs.extend(weakref.ref(field) for field in (run.A, run.x, run.y))
        return run

    monkeypatch.setattr(bayes, "full_rank_run", draw)
    estimate_mmse_curve(params, [0.0, 0.5, 1.0], 2 * EVAL_CHUNK + 3, seed=3, full_rank_only=True)
    assert len(refs) == 3 * 3



def test_mmse_curve_raises_in_grid_order():
    # the grid is one pass, but a grid point's error comes after those of the points before it
    with pytest.raises(ResourceBudgetError):  # grid point 0 enumerates 2^25 messages
        estimate_mmse_curve(RlcParams(m=25, n=25), [0.5, 1.5], 3, seed=1)
    with pytest.raises(ParameterError, match="need rho in"):
        estimate_mmse_curve(RlcParams(m=6, n=4), [0.5, 1.5], 3, seed=1)


def test_nishimori_identity():
    # E||E[x|y]||^2 == E<x, E[x|y]> under the correct model
    params = RlcParams(m=8, n=6)
    rho = 0.3
    trials = 400
    norms = np.empty(trials)
    inners = np.empty(trials)
    for t in range(trials):
        inst = sample_instance(params, seed=derive_seed(10, 0, t))
        yh = noise_instance_observation(inst, rho, derive_seed(10, 1, t))[1]
        pm = posterior_mean_for(params, (inst.A[0], yh), rho)
        norms[t] = pm @ pm
        inners[t] = pm @ inst.x[0]
    se = math.sqrt(norms.var(ddof=1) / trials + inners.var(ddof=1) / trials)
    assert abs(norms.mean() - inners.mean()) <= 3 * se


# ---------------------------------------------------------------------------
# batched posteriors against the per-observation enumerations


_BATCH_PARAMS = {
    "psp": st.builds(PspParams, n=st.integers(5, 8), L=st.integers(2, 3), q=st.sampled_from([0.0, 0.3, 1.0])),
    "rlc": st.integers(1, 8).flatmap(
        lambda n: st.builds(RlcParams, m=st.sampled_from([n, n + 5, 64, 70, 130]), n=st.just(n))
    ),
    "gss": st.integers(8, 13).flatmap(lambda N: st.builds(GssParams, N=st.just(N), k=st.integers(1, N))),
    "tpca": st.builds(TpcaParams, n=st.integers(4, 8), k=st.integers(1, 3), d=st.integers(2, 4), lam=st.floats(0.0, 20.0)),
}


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


def _observations(params, rho: float, seed: int, size: int) -> list:
    """The noisy observations of a coupled run, one per trial."""
    coupled = CoupledTrials(params, [(rho, None)], seed, size)
    return coupled.map(lambda start, run, noisy: [batch_rows(noisy, i) for i in range(len(run))])


def _stacked_observations(params, rho: float, seed: int, size: int):
    """The same noisy observations as _observations, as the one run's stacked observation (size <= EVAL_CHUNK)."""
    (noisy,) = CoupledTrials(params, [(rho, None)], seed, size).map(lambda start, run, noisy: [noisy])
    return noisy


@settings(max_examples=40, deadline=None)
@given(
    params=st.sampled_from(sorted(_BATCH_PARAMS)).flatmap(_BATCH_PARAMS.get),
    rho=st.sampled_from([0.0, 1.0]) | st.floats(0.05, 0.95),
    size=st.sampled_from([1, 7]),
    split=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_posterior_means_hex_equal_to_the_per_observation_enumeration(params, rho, size, split, seed):
    # split: runs of 3 trials, so a batch of 7 ends in a partial run (and TPCA splits its supports too)
    observations = _observations(params, rho, seed, size)
    run_bytes = 3 * bayes._POSTERIORS[model_name(params)][1](params)
    with mock.patch.object(bayes, "EVAL_CHUNK_BYTES", run_bytes if split else bayes.EVAL_CHUNK_BYTES):
        got = posterior_means(params, stack_observations(observations), rho)
        stacked = posterior_means(params, _stacked_observations(params, rho, seed, size), rho)
        one = [posterior_mean_for(params, obs, rho) for obs in observations]
    want = [posterior_mean_loop(params, obs, rho) for obs in observations]
    assert got.shape == stacked.shape == (size, len(want[0]))
    assert _hex(got) == _hex(want) == _hex(one) == _hex(stacked)


@pytest.mark.parametrize(
    "params, rho",
    [
        (PspParams(n=10, L=3, q=0.3), 0.25),
        (RlcParams(m=14, n=10), 0.3),
        (GssParams(N=16, k=3), 0.3),
        (GssParams(N=14, k=9), 0.6),
        (TpcaParams(n=10, k=2, d=3, lam=8.0), 0.4),
        (TpcaParams(n=9, k=3, d=3, lam=8.0), 0.4),
    ],
)
def test_posterior_means_hex_equal_at_barrier_sizes(params, rho):
    observations = _observations(params, rho, 7, 37)
    want = [posterior_mean_loop(params, obs, rho) for obs in observations]
    assert _hex(posterior_means(params, stack_observations(observations), rho)) == _hex(want)
    assert _hex(posterior_means(params, _stacked_observations(params, rho, 7, 37), rho)) == _hex(want)


@pytest.mark.parametrize("m, n", [(20, 17), (70, 17)])
def test_rlc_posterior_over_message_blocks(m, n):
    # n > 16 enumerates the messages 2^16 at a time; two trials share each block
    params = RlcParams(m=m, n=n)
    for rho in (0.0, 0.4):
        observations = _observations(params, rho, 12, 2)
        got = posterior_means(params, stack_observations(observations), rho)
        assert _hex(got) == _hex([posterior_mean_loop(params, obs, rho) for obs in observations])


@pytest.mark.parametrize("m, n", [(1, 1), (14, 10), (64, 6), (65, 6), (130, 5), (20, 17)])
def test_rlc_profiles_equal_the_message_loop(m, n):
    A, y_hat = sample_instance(RlcParams(m=m, n=n), seed=m * n).A[0], generator(n).integers(0, 2, m, dtype=np.uint8)
    count, ones = bayes._rlc_profiles(A[None], y_hat[None])
    want_count, want_ones = rlc_hamming_profile_loop(A, y_hat)
    assert np.array_equal(count[0], want_count) and np.array_equal(ones[0], want_ones)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rlc_profiles_and_finish_equal_the_strided_kernel(data):
    # n above 16 runs the prefix blocks; m above 64 packs two words a codeword
    n = data.draw(st.sampled_from([1, 2, 3, 7, 9, 16, 17, 18]))
    T = data.draw(st.integers(1, 70 if n < 16 else 2))
    m = data.draw(st.one_of(st.integers(n, 20), st.integers(65, 80)))
    rho = data.draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0)))
    rng = generator(data.draw(st.integers(0, 2**32)))
    A, y_hat = rng.integers(0, 2, (T, m, n), dtype=np.uint8), rng.integers(0, 2, (T, m), dtype=np.uint8)
    count, ones = bayes._rlc_profiles(A, y_hat)
    want_count, want_ones = rlc_profiles_strided(A, y_hat)
    assert np.array_equal(count, want_count) and np.array_equal(ones, want_ones)
    got = posterior_means(RlcParams(m=m, n=n), (A, y_hat), rho)
    assert _hex(got) == _hex(rlc_finish_loop(want_count.astype(float), want_ones.astype(float), rho))


@settings(max_examples=30, deadline=None)
@given(T=st.integers(1, 70), configs=st.one_of(st.integers(1, 60), st.integers(8000, 12000)), k=st.integers(1, 4),
       size=st.integers(1, 30), seed=st.integers(0, 2**32))
def test_weighted_marginals_equal_the_one_trial_loop(T, configs, k, size, seed):
    # 8,000 or more configurations of k >= 3 members put more than 2^14 entries in one trial
    rng = generator(seed)
    members = rng.integers(0, size, (configs, k))
    log_weights = 30.0 * rng.standard_normal((T, configs))
    got = bayes._weighted_marginals(log_weights, members, size)
    assert _hex(got) == _hex([_weighted_marginals_loop(row, members, size) for row in log_weights])


def test_weighted_marginals_peak_is_bounded_by_its_row_blocks():
    # 90 trials of GSS (16, 3): 560 subsets of 3 members.  The weights and their exp take
    # 0.8 MB; row blocks of at most 2^14 entries add at most 0.25 MB of keys and weights,
    # where one bincount over all 90 trials would add 2.4 MB
    combos = subsets(16, 3)
    log_weights = generator(4).standard_normal((90, len(combos)))
    tracemalloc.start()
    try:
        bayes._weighted_marginals(log_weights, combos, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


def test_rlc_profiles_peak_holds_one_histogram_at_a_time():
    # 90 trials of RLC 14x10: the codeword table and the keys take 2 x 737,280 bytes, and each
    # half of the low bits has a 345,600-byte int64 histogram (90 trials x 2^5 values x 15
    # weights), folded through a float32 copy of half that size; with the histogram before
    # still held while the next is counted, the peak would be about 2.31 MB
    T, m, n = 90, 14, 10
    rng = generator(9)
    A, y_hat = rng.integers(0, 2, (T, m, n), dtype=np.uint8), rng.integers(0, 2, (T, m), dtype=np.uint8)
    hist = T * 2**5 * (m + 1) * 8
    bound = 2 * T * 2**n * 8 + hist + hist // 2 + T * (m + 1) * (n + 1) * 8 + 2**17
    tracemalloc.start()
    try:
        bayes._rlc_profiles(A, y_hat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


@pytest.mark.parametrize("n, k, d", [(10, 2, 3), (12, 2, 3), (8, 3, 2), (7, 2, 4), (9, 3, 3), (10, 3, 3)])
def test_tpca_log_weights_and_overlaps_equal_the_support_loop(n, k, d):
    params = TpcaParams(n=n, k=k, d=d, lam=5.0)
    tensors = [sample_instance(params, seed=n + k + d + t).Y[0] for t in range(5)]
    combos, lw = bayes._tpca_log_weights(np.stack(tensors), params)
    for Y, row in zip(tensors, lw):
        want_combos, want_lw = tpca_log_weights_loop(Y, params)
        assert np.array_equal(combos, want_combos) and _hex(row) == _hex(want_lw)
    inst = sample_instance(params, seed=n)
    got = tpca_overlap_distribution(inst.Y[0], inst.support[0], params)
    assert _hex(got) == _hex(tpca_overlap_distribution_loop(inst.Y[0], inst.support[0], params))


def _inconsistent(params):
    """An observation with no support at rho = 0."""
    if isinstance(params, PspParams):
        return np.zeros(params.n * (params.n - 1) // 2, dtype=bool)
    if isinstance(params, RlcParams):
        return np.zeros((params.m, params.n), dtype=np.uint8), np.ones(params.m, dtype=np.uint8)
    inst = sample_instance(params, seed=2)
    return inst.X[0], inst.Y[0] + 0.5


@pytest.mark.parametrize("params", [PspParams(n=7, L=3, q=0.3), RlcParams(m=8, n=5), GssParams(N=9, k=3)])
def test_inconsistent_trial_in_a_batch_raises(params):
    observations = _observations(params, 0.0, 4, 7)
    posterior_means(params, stack_observations(observations), 0.0)
    observations[4] = _inconsistent(params)
    with pytest.raises(InconsistentInputError, match="rho=0|noise level"):
        posterior_means(params, stack_observations(observations), 0.0)
    with pytest.raises(InconsistentInputError):
        posterior_mean_for(params, observations[4], 0.0)


@pytest.mark.parametrize("size", [0, 1])
@pytest.mark.parametrize("rho", [-0.5, 1.5, math.nan])
@pytest.mark.parametrize(
    "params",
    [PspParams(n=6, L=3, q=0.3), RlcParams(m=6, n=4), GssParams(N=9, k=3), TpcaParams(n=8, k=2, d=3, lam=4.0)],
    ids=model_name,
)
def test_posterior_rejects_rho_outside_the_unit_interval(params, rho, size):
    # checked once at the entry, so also for an empty batch and for TPCA
    observations = batch_rows(_stacked_observations(params, 0.5, 5, 1), slice(0, size))
    with pytest.raises(ParameterError, match=r"need rho in \[0,1\]"):
        posterior_means(params, observations, rho)


# (params, the mismatched observation made from a matching one, the shape params expect)
_MISMATCHED = {
    "psp-10-vertices": (PspParams(n=8, L=3, q=0.3), lambda obs: np.zeros(45, dtype=bool), (28,)),
    "psp-6-vertices": (PspParams(n=8, L=3, q=0.3), lambda obs: obs[:15], (28,)),
    "rlc-8x4": (RlcParams(m=6, n=4), lambda obs: (np.zeros((8, 4), dtype=np.uint8), obs[1]), (6, 4)),
    "rlc-6x3": (RlcParams(m=6, n=4), lambda obs: (obs[0][:, :3], obs[1]), (6, 4)),
    "rlc-y-hat": (RlcParams(m=6, n=4), lambda obs: (obs[0], obs[1][:5]), (6,)),
    "gss-12": (GssParams(N=10, k=3), lambda obs: (np.zeros(12), obs[1]), (10,)),
    "gss-8": (GssParams(N=10, k=3), lambda obs: (obs[0][:8], obs[1]), (10,)),
    "tpca-n8": (TpcaParams(n=6, k=2, d=3, lam=4.0), lambda obs: np.zeros((8, 8, 8)), (6, 6, 6)),
    "tpca-n5": (TpcaParams(n=6, k=2, d=3, lam=4.0), lambda obs: obs[:5, :5, :5], (6, 6, 6)),
    "tpca-d3": (TpcaParams(n=6, k=2, d=2, lam=4.0), lambda obs: np.zeros((6, 6, 6)), (6, 6)),
}


@pytest.mark.parametrize("params, mismatch, shape", _MISMATCHED.values(), ids=_MISMATCHED)
def test_observation_not_matching_params_raises(params, mismatch, shape):
    # alone, and as every trial of a stacked batch of 7; a list with trial 4 mismatched is no batch
    observations = _observations(params, 0.5, 3, 7)
    expected = re.escape(f"expected {shape}")
    with pytest.raises(ParameterError, match=expected):
        posterior_means(params, stack_observations([mismatch(obs) for obs in observations]), 0.5)
    observations[4] = mismatch(observations[4])
    with pytest.raises(ParameterError, match=expected):
        posterior_mean_for(params, observations[4], 0.5)
    with pytest.raises(ParameterError, match="not stacked|got a list"):
        posterior_means(params, observations, 0.5)
    if isinstance(params, TpcaParams):
        with pytest.raises(ParameterError, match=expected):
            tpca_overlap_distribution(observations[4], [0, 1], params)


def _with_entry(array, index, value):
    out = np.array(array, dtype=float)
    out[index] = value
    return out


# (params, the out-of-model observation made from a valid one, the error it raises)
_OUT_OF_MODEL = {
    "psp-twice-the-adjacency": (PspParams(n=6, L=3, q=0.3), lambda obs: 2 * obs, "edges entries must be 0 or 1"),
    "rlc-three-times-y-hat": (RlcParams(m=6, n=4), lambda obs: (obs[0], 3 * obs[1]), "y entries must be 0 or 1"),
    "rlc-A-entry-2": (RlcParams(m=6, n=4), lambda obs: (_with_entry(obs[0], (0, 0), 2), obs[1]), "A entries"),
    "rlc-y-hat-entry-half": (RlcParams(m=6, n=4), lambda obs: (obs[0], _with_entry(obs[1], 2, 0.5)), "y entries"),
    "gss-nan-y-hat": (GssParams(N=10, k=3), lambda obs: (obs[0], math.nan), "Y must be finite"),
    "gss-inf-y-hat": (GssParams(N=10, k=3), lambda obs: (obs[0], -math.inf), "Y must be finite"),
    "gss-inf-X": (GssParams(N=10, k=3), lambda obs: (_with_entry(obs[0], 3, math.inf), obs[1]), "X must be finite"),
    "gss-nan-X": (GssParams(N=10, k=3), lambda obs: (_with_entry(obs[0], 0, math.nan), obs[1]), "X must be finite"),
    "gss-one-element-y-hat": (GssParams(N=10, k=3), lambda obs: (obs[0], np.array([obs[1]])), re.escape("expected ()")),
    "tpca-nan-Y": (TpcaParams(n=6, k=2, d=3, lam=4.0), lambda obs: _with_entry(obs, (1, 2, 3), math.nan), "Y must be finite"),
    "tpca-inf-Y": (TpcaParams(n=6, k=2, d=3, lam=4.0), lambda obs: _with_entry(obs, (0, 0, 0), math.inf), "Y must be finite"),
}


def _shapes(observation) -> list:
    return [np.shape(f) for f in (observation if isinstance(observation, tuple) else (observation,))]


@pytest.mark.parametrize("params, corrupt, message", _OUT_OF_MODEL.values(), ids=_OUT_OF_MODEL)
def test_observation_outside_the_model_raises(params, corrupt, message):
    # alone, and as trial 4 of a stacked batch of 7: a typed error, not a NaN or a silently misread estimate
    observations = _observations(params, 0.5, 3, 7)
    posterior_mean_for(params, observations[4], 0.5)
    bad = corrupt(observations[4])
    assert repr(bad) != repr(observations[4])
    # a field of another shape stacks only with its like: then every trial is corrupted
    same = _shapes(bad) == _shapes(observations[0])
    observations = [bad if t == 4 else obs for t, obs in enumerate(observations)] if same else list(map(corrupt, observations))
    with pytest.raises(ParameterError, match=message):
        posterior_mean_for(params, bad, 0.5)
    with pytest.raises(ParameterError, match=message):
        posterior_means(params, stack_observations(observations), 0.5)
    if isinstance(params, TpcaParams):
        with pytest.raises(ParameterError, match=message):
            tpca_overlap_distribution(bad, [0, 1], params)


def test_inconsistent_posterior_names_its_trial():
    # the rho=0 posterior of trial 5 has no support; the chunk is re-run one trial at a time
    params, bad = GssParams(N=8, k=2), 5
    bad_Y = coupled_trial_scalar(params, 0.0, 6, bad)[0].Y[0]

    def exact(observations):  # a stacked (X, Y) of both arms
        X, Y = observations
        return posterior_means(params, (X, np.where(Y == bad_Y, Y + 0.5, Y)), 0.0)

    with pytest.raises(EstimatorTrialError) as err:
        measure_stability(exact, params, rho=0.0, trials=9, seed=6)
    assert err.value.trial == bad and isinstance(err.value.cause, InconsistentInputError)


def test_rlc_posterior_at_n20_peaks_below_the_message_chunks():
    # 13,637,424 bytes is the traced peak of one m=30, n=20 posterior enumerated
    # 65,536 messages at a time (rlc_hamming_profile_loop's chunks)
    inst = sample_instance(RlcParams(m=30, n=20), seed=3)
    tracemalloc.start()
    try:
        posterior_mean_for(inst.params, (inst.A[0], inst.y[0]), 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13_637_424
