import math

import numpy as np
import pytest

from plantedlab.bayes import estimate_mmse_curve
from plantedlab.errors import EstimatorTrialError, IllConditionedError, ParameterError
from plantedlab.models import GssParams, PspParams, RlcParams, path_edge_indices, sample_instance
from plantedlab.stability import (
    barrier_penalty,
    measure_stability,
    prior_mean_vector,
    resolve_estimator,
    verify_barrier,
)


def test_constant_estimator_has_zero_eta():
    params = RlcParams(m=8, n=5)
    report = measure_stability("constant_prior_mean", params, rho=0.7, trials=50, seed=1)
    assert report.eta_hat == 0.0
    assert report.eta_stderr == 0.0


def test_deterministic_estimator_zero_eta_at_rho_zero():
    params = PspParams(n=8, L=3, q=0.3)
    report = measure_stability("shortest_path_indicator", params, rho=0.0, trials=40, seed=2)
    assert report.eta_hat == 0.0


def test_eta_self_consistent_across_master_seeds():
    params = PspParams(n=10, L=3, q=0.3)
    a = measure_stability("shortest_path_indicator", params, rho=0.5, trials=1500, seed=11)
    b = measure_stability("shortest_path_indicator", params, rho=0.5, trials=1500, seed=22)
    se = math.sqrt(a.eta_stderr**2 + b.eta_stderr**2)
    assert abs(a.eta_hat - b.eta_hat) <= 3 * se


def test_scale_equivariance_exact():
    params = GssParams(N=12, k=2)
    base = resolve_estimator("posterior_mean", params, 0.4)

    def scaled(obs):
        return 2.0 * base(obs)

    r1 = measure_stability(base, params, rho=0.4, trials=60, seed=5)
    r2 = measure_stability(scaled, params, rho=0.4, trials=60, seed=5)
    assert r2.estimator_norm_hat == 4.0 * r1.estimator_norm_hat
    assert math.isclose(r2.eta_hat, r1.eta_hat, rel_tol=1e-12)
    assert r2.mse_hat != r1.mse_hat


def test_prior_mean_vector_sums():
    psp = PspParams(n=9, L=4, q=0.2)
    assert math.isclose(prior_mean_vector(psp).sum(), psp.L, rel_tol=1e-12)
    gss = GssParams(N=12, k=3)
    assert math.isclose(prior_mean_vector(gss).sum(), gss.k, rel_tol=1e-12)


def test_unknown_estimator_names_registry():
    with pytest.raises(ParameterError) as err:
        resolve_estimator("nope", RlcParams(m=4, n=3), 0.5)
    assert "posterior_mean" in str(err.value)


def test_estimator_failure_carries_trial_index():
    def broken(obs):
        raise ValueError("boom")

    with pytest.raises(EstimatorTrialError) as err:
        measure_stability(broken, GssParams(N=8, k=2), rho=0.3, trials=5, seed=3)
    assert err.value.trial == 0


@pytest.mark.parametrize("bad_call, bad", [(2, math.inf), (3, math.nan)])
def test_non_finite_estimator_output_carries_trial_index(bad_call, bad):
    # calls alternate clean arm, noisy arm: calls 2 and 3 are trial 1's two arms
    calls = []

    def flaky(obs):
        calls.append(None)
        out = np.ones(5)
        if len(calls) - 1 == bad_call:
            out[0] = bad
        return out

    with pytest.raises(EstimatorTrialError) as err:
        measure_stability(flaky, RlcParams(m=8, n=5), rho=0.5, trials=4, seed=1)
    assert err.value.trial == 1
    assert "non-finite" in str(err.value)


def test_all_zero_estimator_is_ill_conditioned():
    # eta divides by the mean output norm, which is 0 here: an error, not NaN
    def zero(obs):
        return np.zeros(5)

    with pytest.raises(IllConditionedError):
        measure_stability(zero, RlcParams(m=8, n=5), rho=0.5, trials=20, seed=1)


def test_barrier_penalty_values():
    assert barrier_penalty(0.0) == 0.0
    assert math.isclose(barrier_penalty(1.0), 2 * math.sqrt(22), rel_tol=1e-12)
    assert math.isclose(barrier_penalty(1.0), 9.38083151, rel_tol=1e-8)


def test_verify_barrier_zero_eta_keeps_rhs():
    params = RlcParams(m=8, n=5)
    stab = measure_stability("constant_prior_mean", params, rho=0.5, trials=100, seed=4)
    (mmse,) = estimate_mmse_curve(params, [0.5], trials=100, seed=4)
    check = verify_barrier(stab, mmse)
    assert check.penalty == 0.0
    assert check.rhs == mmse.mmse_hat
    assert check.holds


def test_verify_barrier_provenance_mismatch():
    params_a = GssParams(N=10, k=2)
    params_b = GssParams(N=10, k=3)
    stab = measure_stability("constant_prior_mean", params_a, rho=0.5, trials=20, seed=5)
    (mmse,) = estimate_mmse_curve(params_b, [0.5], trials=20, seed=5)
    with pytest.raises(ParameterError):
        verify_barrier(stab, mmse)
    (mmse_other_rho,) = estimate_mmse_curve(params_a, [0.6], trials=20, seed=5)
    with pytest.raises(ParameterError):
        verify_barrier(stab, mmse_other_rho)


def test_full_pipeline_rlc_barrier_holds():
    params = RlcParams(m=14, n=10)
    rho = 0.3
    stab = measure_stability("f2_round", params, rho, trials=600, seed=6)
    (mmse,) = estimate_mmse_curve(params, [rho], trials=600, seed=6)
    check = verify_barrier(stab, mmse, alpha=0.5)
    assert check.holds
    assert check.eta_threshold == min(0.5**2 / 400, 1.0)


def test_posterior_mean_eta_nondecreasing_in_rho():
    params = GssParams(N=14, k=3)
    grid = [0.2, 0.5, 0.8]
    etas = []
    for rho in grid:
        rep = measure_stability("posterior_mean", params, rho, trials=800, seed=7)
        etas.append((rep.eta_hat, rep.eta_stderr))
    for (e1, s1), (e2, s2) in zip(etas[:-1], etas[1:]):
        assert e2 >= e1 - 3 * math.sqrt(s1**2 + s2**2)


def test_bayes_optimality_among_registered_estimators():
    # on the noisy observation, the matched posterior mean beats every other
    # registered estimator up to MC error
    from plantedlab.mc import mean_stderr
    from plantedlab.models import sample_instance
    from plantedlab.noise import noise_instance_observation
    from plantedlab.rng import derive_seed

    params = RlcParams(m=10, n=6)
    rho = 0.4
    trials = 500
    names = ("posterior_mean", "f2_round", "constant_prior_mean")
    estimators = {name: resolve_estimator(name, params, rho) for name in names}
    errs = {name: [] for name in names}
    for t in range(trials):
        inst = sample_instance(params, derive_seed(8, 0, t))
        noisy = noise_instance_observation(inst, rho, derive_seed(8, 1, t))
        signal = inst.signal_vector()
        for name, fn in estimators.items():
            diff = np.asarray(fn(noisy)) - signal
            errs[name].append(float(diff @ diff))
    best, best_se = mean_stderr(errs["posterior_mean"])
    for name in names:
        mse, se = mean_stderr(errs[name])
        assert best <= mse + 3 * math.sqrt(best_se**2 + se**2)


def test_shortest_path_indicator_is_zero_when_vertex_2_is_unreachable():
    params = PspParams(n=7, L=3, q=0.5)
    adjacency = sample_instance(params, seed=3).adjacency.copy()
    adjacency[2, :] = adjacency[:, 2] = False
    out = resolve_estimator("shortest_path_indicator", params, 0.0)(adjacency)
    assert out.shape == (21,) and not out.any()


@pytest.mark.parametrize("n, L", [(5, 2), (7, 3), (9, 4), (8, 5)])
def test_psp_prior_mean_equals_path_enumeration(n, L):
    paths = path_edge_indices(n, L)
    want = np.bincount(paths.ravel(), minlength=n * (n - 1) // 2) / len(paths)
    got = prior_mean_vector(PspParams(n=n, L=L, q=0.3))
    assert [v.hex() for v in got] == [v.hex() for v in want]
