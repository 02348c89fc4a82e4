import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import psp_adjacency_loop, psp_edge_vector_loop
from plantedlab import models
from plantedlab.errors import ParameterError, ResourceBudgetError
from plantedlab.models import (
    GssParams,
    PspParams,
    RlcParams,
    TpcaParams,
    instance_from_json,
    instance_to_json,
    params_from_json,
    params_to_json,
    sample_gss,
    sample_psp,
    sample_rlc,
    sample_tpca,
    signal_norm,
    subset_sum_value,
)
from plantedlab.rng import derive_seed


def test_psp_forced_single_intermediate():
    # n=3, L=2, q=0: the only graph is the path 1-3-2
    inst = sample_psp(PspParams(n=3, L=2, q=0.0), seed=0)
    assert inst.path == (1, 3, 2)
    edges = {(i, j) for (i, j) in models.vertex_pairs(3) if inst.adjacency[i, j]}
    assert edges == {(1, 3), (2, 3)}


def test_psp_complete_graph_at_q_one():
    inst = sample_psp(PspParams(n=5, L=2, q=1.0), seed=11)
    for i, j in models.vertex_pairs(5):
        assert inst.adjacency[i, j]
    assert inst.path[0] == 1 and inst.path[-1] == 2
    assert inst.path[1] in (3, 4, 5)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=14), st.integers(min_value=0, max_value=2**32 - 1))
def test_psp_pair_conversions_match_loop_oracle(n, seed):
    rng = np.random.default_rng(seed)
    vec = rng.random(n * (n - 1) // 2) < rng.random()
    adj = models.adjacency_from_edge_vector(vec, n)
    assert np.array_equal(adj, psp_adjacency_loop(vec, n))
    back = models.edge_vector_from_adjacency(adj)
    assert np.array_equal(back, vec) and back.dtype == bool
    # any matrix, bool or float, is read at the upper-triangle pairs only
    for other in (rng.random((n + 1, n + 1)) < 0.5, rng.standard_normal((n + 1, n + 1))):
        got = models.edge_vector_from_adjacency(other)
        want = psp_edge_vector_loop(other, n)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_psp_path_edges_always_present():
    for seed in range(200):
        inst = sample_psp(PspParams(n=10, L=4, q=0.2), seed=seed)
        for i, j in models.path_edges(inst.path):
            assert inst.adjacency[i, j]
        assert len(set(inst.path)) == len(inst.path) == inst.params.L + 1


def test_psp_nonpath_edge_frequency_matches_q():
    # {1,2} is never a path edge when L >= 2, so its marginal is exactly q.
    params = PspParams(n=10, L=3, q=0.3)
    trials = 10**5
    hits = 0
    for t in range(trials):
        inst = sample_psp(params, seed=derive_seed(7, 0, t))
        hits += bool(inst.adjacency[1, 2])
    freq = hits / trials
    stderr = math.sqrt(0.3 * 0.7 / trials)
    assert abs(freq - 0.3) <= 3 * stderr


def test_rlc_parity_invariant():
    for seed in range(100):
        inst = sample_rlc(RlcParams(m=9, n=5), seed=seed)
        assert np.array_equal(inst.y, (inst.A @ inst.x) % 2)


def test_rlc_zero_message_gives_zero_codeword():
    params = RlcParams(m=6, n=3)
    seen = False
    for seed in range(500):
        inst = sample_rlc(params, seed=seed)
        if not inst.x.any():
            seen = True
            assert not inst.y.any()
    assert seen, "all-zero message never sampled in 500 draws at n=3"


def test_rlc_full_rank_fraction():
    # P(full column rank) >= 1 - 2^{n-m}; checked by rank oracle at m=8, n=4
    from plantedlab.solvers import f2_rank

    params = RlcParams(m=8, n=4)
    trials = 10**5
    full = 0
    for t in range(trials):
        inst = sample_rlc(params, seed=derive_seed(3, 0, t))
        full += f2_rank(inst.A) == params.n
    frac = full / trials
    bound = 1 - 2 ** (params.n - params.m)
    stderr = math.sqrt(frac * (1 - frac) / trials)
    assert frac >= bound - 3 * stderr


def test_gss_forced_full_subset():
    inst = sample_gss(GssParams(N=4, k=4), seed=5)
    assert inst.S == (0, 1, 2, 3)
    assert inst.Y == subset_sum_value(inst.X, inst.S)


def test_gss_subset_sum_bit_exact():
    for seed in range(50):
        inst = sample_gss(GssParams(N=30, k=7), seed=seed)
        assert inst.Y == subset_sum_value(inst.X, inst.S)


def test_gss_observation_moments():
    params = GssParams(N=200, k=10)
    trials = 10**5
    ys = np.empty(trials)
    for t in range(trials):
        ys[t] = sample_gss(params, seed=derive_seed(19, 0, t)).Y
    mean = ys.mean()
    mean_stderr = ys.std(ddof=1) / math.sqrt(trials)
    assert abs(mean - 0.0) <= 3 * mean_stderr
    var = ys.var(ddof=1)
    var_stderr = var * math.sqrt(2.0 / (trials - 1))
    assert abs(var - params.k) <= 3 * var_stderr


def test_tpca_pure_noise_variance_at_lambda_zero():
    inst = sample_tpca(TpcaParams(n=10, k=2, d=3, lam=0.0), seed=2)
    flat = inst.Y.ravel()
    var = flat.var(ddof=1)
    var_stderr = var * math.sqrt(2.0 / (flat.size - 1))
    assert abs(var - 1.0) <= 3 * var_stderr
    assert abs(flat.mean()) <= 3 * flat.std(ddof=1) / math.sqrt(flat.size)


def test_tpca_signal_tensor_entries():
    # Same seed, different lambda: Y(lam=4) - Y(lam=1) = (2-1) * x^{tensor d}
    params_hi = TpcaParams(n=6, k=2, d=3, lam=4.0)
    params_lo = TpcaParams(n=6, k=2, d=3, lam=1.0)
    hi = sample_tpca(params_hi, seed=77)
    lo = sample_tpca(params_lo, seed=77)
    assert hi.support == lo.support
    diff = hi.Y - lo.Y
    expected = models.tpca_signal_tensor(params_hi, hi.support)
    assert np.allclose(diff, expected, atol=1e-12)
    on_support = expected[np.ix_(hi.support, hi.support, hi.support)]
    assert np.allclose(on_support, 2 ** (-3 / 2))
    assert np.count_nonzero(expected) == len(hi.support) ** 3


def test_tpca_support_entry_mean_over_resampled_noise():
    # E[Y_i] over fresh ambient noise, i in support^3, equals sqrt(10) * 2^{-3/2}
    params = TpcaParams(n=8, k=2, d=3, lam=10.0)
    rng = np.random.default_rng(123)
    trials = 10**5
    signal = math.sqrt(params.lam) * params.k ** (-params.d / 2)
    draws = signal + rng.standard_normal(trials)
    stderr = draws.std(ddof=1) / math.sqrt(trials)
    assert abs(draws.mean() - math.sqrt(10) * 2 ** (-1.5)) <= 3 * stderr


def test_tpca_budget_error():
    with pytest.raises(ResourceBudgetError):
        sample_tpca(TpcaParams(n=100, k=2, d=4, lam=1.0), seed=0)


@given(st.integers(min_value=0, max_value=2**63 - 1))
@settings(max_examples=20, deadline=None)
def test_samplers_deterministic(seed):
    p1 = sample_psp(PspParams(n=8, L=3, q=0.4), seed)
    p2 = sample_psp(PspParams(n=8, L=3, q=0.4), seed)
    assert p1.path == p2.path and np.array_equal(p1.adjacency, p2.adjacency)
    r1 = sample_rlc(RlcParams(m=7, n=4), seed)
    r2 = sample_rlc(RlcParams(m=7, n=4), seed)
    assert np.array_equal(r1.A, r2.A) and np.array_equal(r1.x, r2.x)
    g1 = sample_gss(GssParams(N=12, k=3), seed)
    g2 = sample_gss(GssParams(N=12, k=3), seed)
    assert g1.S == g2.S and g1.Y == g2.Y and np.array_equal(g1.X, g2.X)
    t1 = sample_tpca(TpcaParams(n=5, k=2, d=3, lam=2.0), seed)
    t2 = sample_tpca(TpcaParams(n=5, k=2, d=3, lam=2.0), seed)
    assert t1.support == t2.support and np.array_equal(t1.Y, t2.Y)


def test_signal_norms():
    assert signal_norm(PspParams(n=10, L=3, q=0.1)) == 3.0
    assert signal_norm(RlcParams(m=8, n=6)) == 3.0
    assert signal_norm(GssParams(N=10, k=4)) == 4.0
    assert signal_norm(TpcaParams(n=10, k=2, d=3, lam=1.0)) == 1.0


def test_signal_vectors_match_norms():
    inst = sample_psp(PspParams(n=9, L=4, q=0.3), seed=1)
    assert inst.signal_vector().sum() == 4.0
    tins = sample_tpca(TpcaParams(n=7, k=3, d=2, lam=1.0), seed=1)
    assert math.isclose(np.sum(tins.signal_vector() ** 2), 1.0, rel_tol=1e-12)


def test_invalid_params_raise():
    with pytest.raises(ParameterError):
        PspParams(n=2, L=2, q=0.5)
    with pytest.raises(ParameterError):
        PspParams(n=10, L=1, q=0.5)
    with pytest.raises(ParameterError):
        PspParams(n=10, L=3, q=1.5)
    with pytest.raises(ParameterError):
        RlcParams(m=3, n=4)
    with pytest.raises(ParameterError):
        GssParams(N=4, k=5)
    with pytest.raises(ParameterError):
        TpcaParams(n=4, k=2, d=1, lam=1.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, -1.0])
def test_tpca_lambda_must_be_finite_and_nonnegative(lam):
    with pytest.raises(ParameterError, match="finite lambda"):
        TpcaParams(n=4, k=2, d=3, lam=lam)


@given(st.integers(min_value=0, max_value=2**63 - 1))
@settings(max_examples=25, deadline=None)
def test_json_round_trip_all_models(seed):
    instances = [
        sample_psp(PspParams(n=7, L=3, q=0.3), seed=seed),
        sample_rlc(RlcParams(m=6, n=4), seed=seed),
        sample_gss(GssParams(N=9, k=3), seed=seed),
        sample_tpca(TpcaParams(n=5, k=2, d=3, lam=2.5), seed=seed),
    ]
    for inst in instances:
        blob = instance_to_json(inst)
        assert params_from_json(params_to_json(inst.params)) == inst.params
        # the text form, as the CLI writes it, must decode to the same instance
        for back in (instance_from_json(blob), instance_from_json(json.loads(json.dumps(blob, sort_keys=True)))):
            assert type(back) is type(inst)
            assert back.params == inst.params
            if hasattr(inst, "adjacency"):
                assert np.array_equal(back.adjacency, inst.adjacency)
                assert back.path == inst.path
            if hasattr(inst, "A"):
                assert np.array_equal(back.A, inst.A)
                assert np.array_equal(back.x, inst.x)
                assert np.array_equal(back.y, inst.y)
            if hasattr(inst, "S"):
                assert np.array_equal(back.X, inst.X)
                assert back.S == inst.S and back.Y == inst.Y
            if hasattr(inst, "support"):
                assert back.support == inst.support
                assert np.array_equal(back.Y, inst.Y)


def test_params_from_json_names_missing_and_unknown_fields():
    with pytest.raises(ParameterError, match=r"missing \['n'\]"):
        params_from_json({"model": "rlc", "m": 8})
    with pytest.raises(ParameterError, match=r"unknown \['zz'\]"):
        params_from_json({"model": "rlc", "m": 8, "n": 5, "zz": 1})
    with pytest.raises(ParameterError, match="unknown model"):
        params_from_json({"model": "nope"})
    # the SNR is "lambda" on the wire and lam on the dataclass
    assert params_from_json({"model": "tpca", "n": 5, "k": 2, "d": 3, "lambda": 2.5}).lam == 2.5
    with pytest.raises(ParameterError, match=r"unknown \['lam'\]"):
        params_from_json({"model": "tpca", "n": 5, "k": 2, "d": 3, "lambda": 2.5, "lam": 2.5})


def test_psp_from_constants_rounds():
    params = PspParams.from_constants(n=100, C=0.8, c=2.0)
    assert params.L == round(0.8 * math.log(100) / math.log(math.log(100)))
    assert math.isclose(params.q, 2.0 * math.log(100) / 100)
