import math
import re
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import SOLVER_RECOVERS_RULES, coupled_trial_scalar, f2_solve_loop, measure_stability_loop, mmse_curve_loop, row_dots_loop, shortest_path_lists
from oracles import stack_observations as stack_trials
from oracles import trial_observation
from plantedlab.bayes import MmseReport, estimate_mmse_curve
from plantedlab.errors import EstimatorTrialError, IllConditionedError, ParameterError, ResourceBudgetError
from plantedlab.lowdeg import random_rlc_poly, stability_ratio
from plantedlab.models import (
    EVAL_CHUNK,
    EVAL_CHUNK_BYTES,
    GssParams,
    PspParams,
    RlcParams,
    TpcaParams,
    batch_rows,
    batch_size,
    model_name,
    path_edge_indices,
    sample_instance,
    stack_observations,
    vertex_pairs,
)
from plantedlab.noise import CoupledTrials
from plantedlab.rng import generator
from plantedlab.solvers import LllConfig, lll_subset_sum
from plantedlab.stability import (
    ESTIMATORS,
    StabilityReport,
    _second_moments,
    barrier_cell,
    barrier_penalty,
    measure_stabilities,
    measure_stability,
    measure_stability_grid,
    prior_mean_vector,
    resolve_estimator,
    solver_recovers,
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

    def scaled(observations):
        return 2.0 * base(observations)

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
    # bad_call counts the arms in trial order, clean arm first: 2 and 3 are trial 1's two arms
    params = RlcParams(m=8, n=5)
    inst, noisy = coupled_trial_scalar(params, 0.5, 1, 1)
    A, y = (trial_observation(inst), noisy)[bad_call - 2]

    def flaky(observations):  # a stacked (A, y) of both arms
        out = np.ones((batch_size(observations), 5))
        for row, obs_A, obs_y in zip(out, *observations):
            if np.array_equal(obs_A, A) and np.array_equal(obs_y, y):
                row[0] = bad
        return out

    with pytest.raises(EstimatorTrialError) as err:
        measure_stability(flaky, params, rho=0.5, trials=4, seed=1)
    assert err.value.trial == 1
    assert "non-finite" in str(err.value)


@pytest.mark.parametrize("how", ["raise", "nan"])
def test_failure_past_the_first_chunk_names_its_trial(how):
    # only the clean arm of trial EVAL_CHUNK + 3 fails; the chunk is re-run one trial at a time
    params, bad_trial = GssParams(N=8, k=2), EVAL_CHUNK + 3
    inst, _ = coupled_trial_scalar(params, 0.3, 6, bad_trial)
    bad_Y = trial_observation(inst)[1]

    def flaky(observations):  # a stacked (X, Y) of both arms
        out = np.ones((batch_size(observations), params.N))
        for row, Y in zip(out, observations[1]):
            if Y == bad_Y:
                if how == "raise":
                    raise ValueError("boom")
                row[0] = math.nan
        return out

    with pytest.raises(EstimatorTrialError) as err:
        measure_stability(flaky, params, rho=0.3, trials=bad_trial + 10, seed=6)
    assert err.value.trial == bad_trial
    assert ("boom" if how == "raise" else "non-finite") in str(err.value)


def test_all_zero_estimator_is_ill_conditioned():
    # eta divides by the mean output norm, which is 0 here: an error, not NaN
    def zero(observations):
        return np.zeros((batch_size(observations), 5))

    with pytest.raises(IllConditionedError):
        measure_stability(zero, RlcParams(m=8, n=5), rho=0.5, trials=20, seed=1)


@pytest.mark.parametrize("trials", [0, -3])
@pytest.mark.parametrize("entry", ["estimate_mmse_curve", "measure_stability", "stability_ratio"])
def test_no_trials_is_a_parameter_error_without_warnings(entry, trials):
    params = RlcParams(m=6, n=4)
    run = {
        "estimate_mmse_curve": lambda: estimate_mmse_curve(params, [0.5], trials, 1),
        "measure_stability": lambda: measure_stability("constant_prior_mean", params, 0.5, trials, 1),
        "stability_ratio": lambda: stability_ratio(random_rlc_poly(params, 2, generator(0)), params, 0.5, trials, 1),
    }[entry]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParameterError, match="no values"):
            run()
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


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


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, "1", [1.0]])
def test_verify_barrier_rejects_an_alpha_that_is_not_finite(alpha):
    # alpha = nan gave eta_threshold = nan and eta_within_threshold = False, with no error; a string
    # or a list raised a bare TypeError from math.isfinite
    params = GssParams(N=8, k=2)
    stab = measure_stability("constant_prior_mean", params, rho=0.3, trials=20, seed=5)
    (mmse,) = estimate_mmse_curve(params, [0.3], trials=20, seed=5)
    assert verify_barrier(stab, mmse, alpha=-0.5).eta_threshold == 0.5**2 / 400
    with pytest.raises(ParameterError, match=re.escape(f"need a finite alpha, got {alpha!r}")):
        verify_barrier(stab, mmse, alpha=alpha)


def _barrier_reports(margin_sigmas: float):
    """A synthetic (stability, MMSE) pair whose barrier margin is margin_sigmas combined stderrs.

    By hand: eta = 0.5 gives the penalty 2 sqrt(2 (7 + 2) 0.5) = 6 per unit
    of signal norm, so 12 at norm 2 and rhs = 10 - 12.  Its one-sigma finite
    difference is (penalty(1) - penalty(0)) / 2 * 2 = 2 sqrt(22), and with
    the stderrs 3 (mse) and 1 (mmse) the combined stderr is
    sqrt(9 + 1 + 88) = 7 sqrt(2).
    """
    params = RlcParams(m=8, n=5)
    mmse = MmseReport(
        model="rlc", params=params, rho=0.4, trials=100, mmse_hat=10.0, stderr=1.0, signal_norm=2.0, nmmse_hat=5.0
    )
    stab = StabilityReport(
        model="rlc", params=params, estimator="f2_round", rho=0.4, trials=100, eta_hat=0.5, eta_stderr=0.5,
        mse_hat=-2.0 + margin_sigmas * 7 * math.sqrt(2), mse_stderr=3.0, estimator_norm_hat=1.0, norm_stderr=0.0,
    )
    return stab, mmse


@pytest.mark.parametrize("sigmas, holds", [(-2.9, True), (-3.1, False), (0.0, True)])
def test_verify_barrier_holds_within_three_combined_stderrs(sigmas, holds):
    check = verify_barrier(*_barrier_reports(sigmas))
    assert (check.penalty, check.rhs) == (12.0, -2.0)
    assert check.combined_stderr == pytest.approx(7 * math.sqrt(2), rel=1e-12)
    assert check.margin == pytest.approx(sigmas * 7 * math.sqrt(2), rel=1e-12, abs=1e-12)
    assert check.holds is holds
    assert check.holds_within == 3.0


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
    instances = [sample_instance(params, derive_seed(8, 0, t)) for t in range(trials)]
    noisy = [noise_instance_observation(inst, rho, derive_seed(8, 1, t)) for t, inst in enumerate(instances)]
    signals = np.array([inst.signal_vectors()[0] for inst in instances])
    errs = {}
    for name in names:
        diffs = resolve_estimator(name, params, rho)(stack_trials(noisy)) - signals
        errs[name] = [float(d @ d) for d in diffs]
    best, best_se = mean_stderr(errs["posterior_mean"])
    for name in names:
        mse, se = mean_stderr(errs[name])
        assert best <= mse + 3 * math.sqrt(best_se**2 + se**2)


def test_shortest_path_indicator_is_zero_when_vertex_2_is_unreachable():
    params = PspParams(n=7, L=3, q=0.5)
    edges = sample_instance(params, seed=3).edges[0].copy()
    edges[[e for e, pair in enumerate(vertex_pairs(7)) if 2 in pair]] = False
    out = resolve_estimator("shortest_path_indicator", params, 0.0)(edges[None])
    assert out.shape == (1, 21) and not out.any()


# every registered estimator on each model it accepts, over a chunk boundary
DIFFERENTIAL_PARAMS = {
    "psp": PspParams(n=8, L=3, q=0.3),
    "rlc": RlcParams(m=8, n=5),
    "gss": GssParams(N=7, k=2),
    "tpca": TpcaParams(n=6, k=2, d=3, lam=2.0),
}


def _accepts(name: str, model: str) -> bool:
    try:
        resolve_estimator(name, DIFFERENTIAL_PARAMS[model], 0.5)
    except ParameterError:
        return False
    return True


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


@settings(max_examples=60, deadline=None)
@given(T=st.integers(1, 70), dim=st.integers(1, 200), order=st.sampled_from("CF"), seed=st.integers(0, 2**32))
def test_second_moments_equal_the_per_row_dots(T, dim, order, seed):
    # a stacked matmul makes the BLAS dot that x @ x makes on each row, at the row's own stride;
    # einsum and a batched row sum of squares add in other orders
    rng = generator(seed)
    out = np.asarray(rng.standard_normal((2 * T, dim)), order=order)
    signals = rng.standard_normal((T, dim))
    got = _second_moments(lambda observations: out, 0, np.zeros((T, 1)), np.zeros((T, 1)), signals)
    a, b = np.split(out, 2)
    want = np.stack([row_dots_loop(v) for v in (a - b, a - signals, a)], axis=1)
    assert _hex(got.ravel()) == _hex(want.ravel())


@pytest.mark.parametrize(
    "model, name", [(m, name) for m in DIFFERENTIAL_PARAMS for name in ESTIMATORS if _accepts(name, m)]
)
def test_measure_stability_bit_identical_to_trial_loop(model, name):
    params, trials = DIFFERENTIAL_PARAMS[model], EVAL_CHUNK + 37  # a partial last chunk
    fn = resolve_estimator(name, params, 0.5)
    r = measure_stability(name, params, 0.5, trials, seed=9)
    got = (r.eta_hat, r.eta_stderr, r.mse_hat, r.mse_stderr, r.estimator_norm_hat, r.norm_stderr)
    assert _hex(got) == _hex(measure_stability_loop(lambda obs: fn(stack_trials([obs]))[0], params, 0.5, trials, 9))


# the estimators of each model's criterion-01 cells
CRITERION_01_ESTIMATORS = {
    "psp": ["posterior_mean", "shortest_path_indicator", "constant_prior_mean"],
    "rlc": ["posterior_mean", "f2_round", "constant_prior_mean"],
    "gss": ["posterior_mean", "constant_prior_mean"],
    "tpca": ["posterior_mean", "constant_prior_mean"],
}


@pytest.mark.parametrize("model", DIFFERENTIAL_PARAMS)
def test_measure_stabilities_bit_identical_to_trial_loop(model):
    # one shared pass scores every estimator of a cell as the per-estimator trial loop does
    params, trials, names = DIFFERENTIAL_PARAMS[model], EVAL_CHUNK + 37, CRITERION_01_ESTIMATORS[model]
    reports = measure_stabilities(names, params, 0.5, trials, seed=9)
    assert [r.estimator for r in reports] == names
    for r, name in zip(reports, names):
        fn = resolve_estimator(name, params, 0.5)
        got = (r.eta_hat, r.eta_stderr, r.mse_hat, r.mse_stderr, r.estimator_norm_hat, r.norm_stderr)
        assert _hex(got) == _hex(measure_stability_loop(lambda obs: fn(stack_trials([obs]))[0], params, 0.5, trials, 9))
        assert r == measure_stability(name, params, 0.5, trials, seed=9)


def _failing_at(params, rho: float, seed: int, trials: int, bad_trial: int, calls: list):
    """A batch estimator of ones that raises on trial bad_trial's clean arm, logging each batch size in calls."""
    bad_Y = coupled_trial_scalar(params, rho, seed, bad_trial)[0].Y[0]

    def flaky(observations):  # a stacked (X, Y) of both arms
        calls.append(batch_size(observations))
        if any(Y == bad_Y for Y in observations[1]):
            raise ValueError(f"trial {bad_trial}")
        return np.ones((batch_size(observations), params.N))

    return flaky


def test_measure_stabilities_raises_the_first_estimator_failure_in_order():
    # estimator 2 fails at an earlier trial than estimator 1; estimator 1's error is raised, with its own trial
    params, trials = GssParams(N=8, k=2), EVAL_CHUNK + 37
    second_calls = []
    first = _failing_at(params, 0.3, 6, trials, EVAL_CHUNK + 5, [])
    second = _failing_at(params, 0.3, 6, trials, 3, second_calls)
    with pytest.raises(EstimatorTrialError) as err:
        measure_stabilities([first, "constant_prior_mean", second], params, 0.3, trials, seed=6)
    assert err.value.trial == EVAL_CHUNK + 5 and f"ValueError('trial {EVAL_CHUNK + 5}')" in str(err.value)
    with pytest.raises(EstimatorTrialError) as err:
        measure_stability(first, params, 0.3, trials, seed=6)
    assert err.value.trial == EVAL_CHUNK + 5
    # estimator 2 ran on the first chunk (one batch, then one trial at a time up to trial 3) and not after
    assert second_calls == [2 * EVAL_CHUNK, 2, 2, 2, 2]
    with pytest.raises(EstimatorTrialError) as err:
        measure_stabilities(["constant_prior_mean", second, first], params, 0.3, trials, seed=6)
    assert err.value.trial == 3


def test_measure_stabilities_raises_ill_conditioned_before_a_later_trial_failure():
    # an all-zero estimator 1 is ill-conditioned; estimator 2's trial failure comes after it in order
    params, trials = GssParams(N=8, k=2), 30

    def zero(observations):
        return np.zeros((batch_size(observations), params.N))

    second = _failing_at(params, 0.3, 6, trials, 3, [])
    with pytest.raises(IllConditionedError):
        measure_stabilities([zero, second], params, 0.3, trials, seed=6)
    with pytest.raises(EstimatorTrialError):
        measure_stabilities([second, zero], params, 0.3, trials, seed=6)


def test_measure_stabilities_reports_an_estimator_of_another_model_in_order():
    # f2_round is a linear-code estimator: its ParameterError comes after an earlier estimator's failure,
    # and ahead of the reports of the estimators before it
    params = GssParams(N=8, k=2)
    flaky = _failing_at(params, 0.3, 6, 20, 4, [])
    with pytest.raises(EstimatorTrialError):
        measure_stabilities([flaky, "f2_round"], params, 0.3, 20, seed=6)
    with pytest.raises(ParameterError, match="linear-code"):
        measure_stabilities(["constant_prior_mean", "f2_round", flaky], params, 0.3, 20, seed=6)


@pytest.mark.parametrize(
    "model, name", [(m, name) for m in DIFFERENTIAL_PARAMS for name in ESTIMATORS if _accepts(name, m)]
)
def test_every_estimator_gives_one_shape_on_an_empty_batch(model, name):
    params = DIFFERENTIAL_PARAMS[model]
    empty = batch_rows(sample_instance(params, 0).observation, slice(0, 0))
    assert resolve_estimator(name, params, 0.5)(empty).shape == (0,)


# rank-deficient RLC (m = n = 3 is mostly affine), LLL misses at 16 bits, and GSS at k = N, where the
# lll_subset_indicator fallback k/N is the signal itself
SOLVER_PARAMS = [
    PspParams(n=7, L=3, q=0.3),
    RlcParams(m=3, n=3),
    RlcParams(m=9, n=5),
    GssParams(N=10, k=3),
    GssParams(N=6, k=6),
]


@settings(max_examples=150, deadline=None)
@given(params=st.sampled_from(SOLVER_PARAMS), seed=st.integers(0, 2**32), bits=st.sampled_from([16, 128]))
@example(params=RlcParams(m=3, n=3), seed=0, bits=128)  # an affine solution set
@example(params=GssParams(N=10, k=3), seed=37, bits=16)  # an LLL miss
@example(params=GssParams(N=6, k=6), seed=27, bits=128)  # an LLL miss at k = N
def test_solver_recovery_equals_the_rule_on_the_solver_output(params, seed, bits):
    inst, cfg = sample_instance(params, seed), LllConfig(bits=bits)
    assert solver_recovers(inst, cfg) == SOLVER_RECOVERS_RULES[model_name(params)](inst, cfg)


def test_a_solver_miss_is_no_recovery_when_the_fallback_is_the_signal():
    params = GssParams(N=6, k=6)
    inst = sample_instance(params, 27)
    estimate = resolve_estimator("lll_subset_indicator", params, 0.0)(inst.observation)[0]
    assert np.array_equal(estimate, inst.signal_vectors()[0])
    assert not solver_recovers(inst)


def _solver_estimate_loop(params, observation) -> np.ndarray:
    """A solver estimator's output on one observation, from the per-instance oracle solvers."""
    if model_name(params) == "psp":
        path = shortest_path_lists(observation, params.n)
        out = np.zeros(len(vertex_pairs(params.n)))
        if path is not None:
            out[[vertex_pairs(params.n).index(tuple(sorted(e))) for e in zip(path, path[1:])]] = 1.0
        return out
    if model_name(params) == "rlc":
        sol = f2_solve_loop(*observation)
        if sol.kind == "inconsistent":
            return np.full(params.n, 0.5)
        out = sol.particular.astype(float)
        for basis_vec in sol.nullspace_basis:
            out[basis_vec.astype(bool)] = 0.5
        return out
    subset = lll_subset_sum(*observation, params.k)
    if subset is None:
        return np.full(params.N, params.k / params.N)
    out = np.zeros(params.N)
    out[list(subset)] = 1.0
    return out


@settings(max_examples=60, deadline=None)
@given(params=st.sampled_from(SOLVER_PARAMS), seed=st.integers(0, 2**32), rho=st.sampled_from([0.0, 0.3, 1.0]),
       trials=st.integers(1, 12))
def test_solver_estimators_equal_the_per_instance_solvers(params, seed, rho, trials):
    # both arms of a coupled run in one batch; rho = 1 leaves many RLC systems inconsistent and many PSP targets apart
    name = next(name for name in ("shortest_path_indicator", "f2_round", "lll_subset_indicator") if _accepts(name, model_name(params)))
    estimator = resolve_estimator(name, params, rho)
    ((run, noisy),) = CoupledTrials(params, [(rho, None)], seed, trials).map(lambda start, run, noisy: [(run, noisy)])
    for batch in (run.observation, noisy):
        got = estimator(batch)
        want = [_solver_estimate_loop(params, batch_rows(batch, i)) for i in range(trials)]
        assert [row.tolist() for row in got] == [row.tolist() for row in want]


def test_solver_recovers_names_a_model_without_a_solver():
    with pytest.raises(ParameterError, match="no fast solver for the tpca model"):
        solver_recovers(sample_instance(DIFFERENTIAL_PARAMS["tpca"], 0))


@pytest.mark.parametrize("model", [*DIFFERENTIAL_PARAMS, "rlc-full-rank"])
def test_mmse_curve_bit_identical_to_trial_loop(model):
    full_rank_only = model == "rlc-full-rank"
    params, trials = DIFFERENTIAL_PARAMS[model.split("-")[0]], EVAL_CHUNK + 37
    reports = estimate_mmse_curve(params, [0.0, 0.5], trials, seed=10, full_rank_only=full_rank_only)
    want = mmse_curve_loop(params, [0.0, 0.5], trials, 10, full_rank_only=full_rank_only)
    assert [_hex((r.mmse_hat, r.stderr)) for r in reports] == [_hex(w) for w in want]


@pytest.mark.parametrize(
    "params, trials, runs",
    [
        (TpcaParams(n=100, k=2, d=3, lam=1.0), 3, [(0, 1), (1, 1), (2, 1)]),  # 16 MB a trial: one at a time
        (TpcaParams(n=40, k=2, d=3, lam=1.0), 10, [(0, 4), (4, 4), (8, 2)]),  # 1.024 MB a trial
        (TpcaParams(n=6, k=2, d=3, lam=1.0), EVAL_CHUNK + 2, [(0, EVAL_CHUNK), (EVAL_CHUNK, 2)]),
    ],
)
def test_map_caps_a_run_by_observation_bytes(params, trials, runs):
    # a run's clean and noisy tensors stay within EVAL_CHUNK_BYTES, no earlier run's tensor is held,
    # and rows come back in trial order
    batch = CoupledTrials(params, [(0.5, None)], 4, trials)
    seen, refs = [], []

    def corner(start, run, noisy):
        assert all(ref() is None for ref in refs)
        refs.extend(weakref.ref(arm) for arm in (run.Y, noisy))
        seen.append((start, len(run), batch_size(noisy)))
        assert run.Y.nbytes + noisy.nbytes <= max(EVAL_CHUNK_BYTES, 2 * run.Y[0].nbytes)
        return [(y[0, 0, 0], obs[0, 0, 0]) for y, obs in zip(run.Y, noisy)]

    rows = batch.map(corner)
    assert [(start, size, size) for start, size in runs] == seen
    want = [coupled_trial_scalar(params, 0.5, 4, t) for t in range(trials)]
    assert rows == [(inst.Y[0, 0, 0, 0], noisy[0, 0, 0]) for inst, noisy in want]


@pytest.mark.parametrize("n, L", [(5, 2), (7, 3), (9, 4), (8, 5)])
def test_psp_prior_mean_equals_path_enumeration(n, L):
    paths = path_edge_indices(n, L)
    want = np.bincount(paths.ravel(), minlength=n * (n - 1) // 2) / len(paths)
    got = prior_mean_vector(PspParams(n=n, L=L, q=0.3))
    assert [v.hex() for v in got] == [v.hex() for v in want]


# small params of each model for the barrier-cell differential test
SMALL_PARAMS = {
    "psp": st.builds(PspParams, n=st.integers(4, 7), L=st.integers(2, 3), q=st.sampled_from([0.0, 0.3, 1.0])),
    "rlc": st.integers(1, 5).flatmap(lambda n: st.builds(RlcParams, m=st.integers(n, n + 3), n=st.just(n))),
    "gss": st.integers(2, 7).flatmap(lambda N: st.builds(GssParams, N=st.just(N), k=st.integers(1, min(N, 3)))),
    "tpca": st.builds(TpcaParams, n=st.integers(2, 5), k=st.integers(1, 2), d=st.integers(2, 3), lam=st.sampled_from([1.0, 4.0])),
}


def _fails_on_trial(params, rho: float, seed: int, trials: int, bad_trial: int, arm: int = 0):
    """A batch estimator of ones that raises on any observation equal to trial bad_trial's clean one (arm 0) or noisy one at rho (arm 1)."""
    inst, noisy = coupled_trial_scalar(params, rho, seed, bad_trial)
    bad = stack_observations(params, stack_trials([(trial_observation(inst), noisy)[arm]]))
    dim = len(prior_mean_vector(params))

    def failing(observations):
        fields = stack_observations(params, observations)
        hit = np.ones(len(fields[0]), dtype=bool)
        for field, bad_field in zip(fields, bad):
            hit &= (field == bad_field).reshape(len(field), -1).all(axis=1)
        if hit.any():
            raise ValueError(f"trial {bad_trial}")
        return np.ones((len(fields[0]), dim))

    return failing


def _draw_estimators(data, params, rho: float, trials: int, seed: int, *extra) -> list:
    """1 to 4 distinct estimators from a pool: the registry, one that fails on a drawn trial, an all-zero one, and extra."""
    failing = _fails_on_trial(params, rho, seed, trials, data.draw(st.integers(0, trials - 1)))

    def zero(observations):  # ill-conditioned: its eta has a zero denominator
        return np.zeros((batch_size(observations), len(prior_mean_vector(params))))

    pool = [*ESTIMATORS, failing, zero, *extra]  # the registry holds estimators of other models, which raise in order
    return data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique_by=id))


def _outcome(call) -> tuple | list:
    """call()'s reports (each a report or a list of them) with every float as hex, or its error's type, message and trial."""
    try:
        reports = call()
    except Exception as err:  # noqa: BLE001 - the error is the outcome compared
        return type(err), str(err), getattr(err, "trial", None)
    flat = [r for part in reports for r in (part if isinstance(part, list) else [part])]
    return [[float(v).hex() if isinstance(v, float) else v for v in vars(r).values()] for r in flat]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), model=st.sampled_from(list(SMALL_PARAMS)), rho=st.sampled_from([0.0, 0.3, 1.0]),
       trials=st.integers(1, 30), seed=st.integers(0, 2**32))
def test_barrier_cell_is_hex_equal_to_the_mmse_curve_and_stability_calls(data, model, rho, trials, seed):
    # the drawn estimators often fail, so two that every model resolves are compared on every cell too
    params = data.draw(SMALL_PARAMS[model])
    for estimators in (_draw_estimators(data, params, rho, trials, seed), ["posterior_mean", "constant_prior_mean"]):
        got = _outcome(lambda: barrier_cell(estimators, params, rho, trials, seed))
        want = _outcome(lambda: (*estimate_mmse_curve(params, [rho], trials, seed),
                                 measure_stabilities(estimators, params, rho, trials, seed)))
        assert got == want


def _per_rho_estimator_major(estimators, params, rho_grid, trials: int, seed: int) -> list:
    """The reports of per-rho measure_stabilities calls, read estimator-major; raises the first failure in that order.

    Estimator i is reached only when the estimators before it pass at every
    rho, so the first prefix that raises raises estimator i's own error, at
    its first failing rho.
    """
    for i in range(len(estimators)):
        for rho in rho_grid:
            measure_stabilities(estimators[: i + 1], params, rho, trials, seed)
    by_rho = [measure_stabilities(estimators, params, rho, trials, seed) for rho in rho_grid]
    return [reports[i] for i in range(len(estimators)) for reports in by_rho]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), model=st.sampled_from(list(SMALL_PARAMS)),
       rho_grid=st.lists(st.sampled_from([0.0, 0.3, 0.6, 1.0]), min_size=2, max_size=3),
       trials=st.integers(1, 30), seed=st.integers(0, 2**32))
def test_stability_grid_is_hex_equal_to_per_rho_calls_read_estimator_major(data, model, rho_grid, trials, seed):
    # a second failing estimator fails only on one trial's noisy observation at one rho of the grid; the
    # drawn estimators often fail, so two that every model resolves are compared on every grid too
    params = data.draw(SMALL_PARAMS[model])
    bad_rho, bad_trial = data.draw(st.sampled_from(rho_grid)), data.draw(st.integers(0, trials - 1))
    drawn = _draw_estimators(data, params, rho_grid[0], trials, seed, _fails_on_trial(params, bad_rho, seed, trials, bad_trial, arm=1))
    for estimators in (drawn, ["posterior_mean", "constant_prior_mean"]):
        got = _outcome(lambda: measure_stability_grid(estimators, params, rho_grid, trials, seed))
        assert got == _outcome(lambda: _per_rho_estimator_major(estimators, params, rho_grid, trials, seed))


def test_barrier_cell_raises_a_resolution_error_after_the_mmse_arm(monkeypatch):
    # measure_stabilities resolves its estimators after the MMSE pass of the cell has raised or returned
    def broken(params, rho):
        raise RuntimeError("factory fails")

    monkeypatch.setitem(ESTIMATORS, "broken", broken)
    with pytest.raises(ResourceBudgetError):  # 2^25 messages: the MMSE arm fails first
        barrier_cell(["constant_prior_mean", "broken"], RlcParams(m=25, n=25), 0.5, 3, seed=1)
    with pytest.raises(RuntimeError, match="factory fails"):
        barrier_cell(["constant_prior_mean", "broken"], RlcParams(m=6, n=4), 0.5, 3, seed=1)


def test_measure_stabilities_raises_a_trial_failure_before_a_later_estimator_that_does_not_resolve(monkeypatch):
    # any error of an estimator factory ranks in estimator order, as the per-estimator loop raises it
    def flaky(observations):
        raise ValueError("every trial")

    def broken(params, rho):
        raise RuntimeError("factory fails")

    monkeypatch.setitem(ESTIMATORS, "broken", broken)
    params = GssParams(N=8, k=2)
    with pytest.raises(EstimatorTrialError) as err:
        measure_stability(flaky, params, 0.3, 20, seed=6)
    assert err.value.trial == 0
    with pytest.raises(EstimatorTrialError) as err:
        measure_stabilities([flaky, "broken"], params, 0.3, 20, seed=6)
    assert err.value.trial == 0 and "every trial" in str(err.value)
    with pytest.raises(RuntimeError, match="factory fails"):
        measure_stabilities(["constant_prior_mean", "broken", flaky], params, 0.3, 20, seed=6)
