import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from plantedlab.models import (
    GssParams,
    PspParams,
    RlcParams,
    TpcaParams,
    sample_instance,
)
from oracles import ou_compose
from plantedlab.noise import draw_noise_gss, draw_noise_psp, draw_noise_rlc, draw_noise_tpca
from plantedlab.rng import derive_seed, generator, keyed_generator, philox_keys, rekey


def test_rho_zero_is_identity_everywhere():
    psp = sample_instance(PspParams(n=8, L=3, q=0.4), seed=1)
    assert np.array_equal(draw_noise_psp(psp, 0.0, generator(9)), psp.adjacency)
    rlc = sample_instance(RlcParams(m=7, n=4), seed=1)
    assert np.array_equal(draw_noise_rlc(rlc.y, 0.0, generator(9)), rlc.y)
    gss = sample_instance(GssParams(N=10, k=3), seed=1)
    assert draw_noise_gss(gss.Y, 0.0, generator(9)) == gss.Y
    tpca = sample_instance(TpcaParams(n=5, k=2, d=3, lam=2.0), seed=1)
    assert np.array_equal(draw_noise_tpca(tpca.Y, 0.0, generator(9)), tpca.Y)


# model -> (params, instance -> (operator input, the observation it stands for), operator(input, rho, rng))
NOISE_OPERATORS = {
    "psp": (PspParams(n=7, L=3, q=0.35), lambda inst: (inst, inst.adjacency), draw_noise_psp),
    "rlc": (RlcParams(m=9, n=4), lambda inst: (inst.y, inst.y), draw_noise_rlc),
    "gss": (GssParams(N=8, k=3), lambda inst: (inst.Y, inst.Y), draw_noise_gss),
    "tpca": (TpcaParams(n=4, k=2, d=3, lam=3.0), lambda inst: (inst.Y, inst.Y), draw_noise_tpca),
}


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from(sorted(NOISE_OPERATORS)), seed=st.integers(0, 2**64 - 1), key_seed=st.integers(0, 2**64 - 1))
def test_rho_zero_copies_the_input_and_draws_nothing(model, seed, key_seed):
    params, operand, operator = NOISE_OPERATORS[model]
    x, observed = operand(sample_instance(params, seed))
    rng = rekey(keyed_generator(), philox_keys([key_seed])[0])
    before = rng.bit_generator.state
    out = operator(x, 0.0, rng)
    assert np.array_equal(out, observed)
    if isinstance(out, np.ndarray):
        assert not np.shares_memory(out, observed)
    after = rng.bit_generator.state
    assert after["state"]["key"].tolist() == before["state"]["key"].tolist()
    assert after["state"]["counter"].tolist() == before["state"]["counter"].tolist()
    assert (after["buffer_pos"], after["has_uint32"]) == (before["buffer_pos"], before["has_uint32"])


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from(sorted(NOISE_OPERATORS)), seeds=st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=2, unique=True), key_seed=st.integers(0, 2**64 - 1))
def test_rho_one_forgets_the_input(model, seeds, key_seed):
    params, operand, operator = NOISE_OPERATORS[model]
    gen, key = keyed_generator(), philox_keys([key_seed])[0]
    a, b = (operand(sample_instance(params, s))[0] for s in seeds)
    out_a = operator(a, 1.0, rekey(gen, key))
    out_b = operator(b, 1.0, rekey(gen, key))
    assert np.array_equal(out_a, out_b)
    if model in ("gss", "tpca"):
        # sqrt(1 - 1) * Y + 1 * Z is exactly Z
        z = rekey(gen, key).standard_normal(np.shape(out_a) or None)
        assert np.array_equal(out_a, z)


def test_noise_is_replayable():
    psp = sample_instance(PspParams(n=8, L=3, q=0.4), seed=3)
    a = draw_noise_psp(psp, 0.6, generator(42))
    b = draw_noise_psp(psp, 0.6, generator(42))
    assert np.array_equal(a, b)
    gss = sample_instance(GssParams(N=10, k=3), seed=3)
    assert draw_noise_gss(gss.Y, 0.6, generator(42)) == draw_noise_gss(gss.Y, 0.6, generator(42))


def test_psp_full_noise_fixed_pair_frequency():
    # rho = 1: output is a fresh G(n, q) regardless of input
    params = PspParams(n=8, L=3, q=0.35)
    inst = sample_instance(params, seed=5)
    pair = (inst.path[0], inst.path[1])  # a planted edge, always present in input
    trials = 10**4
    hits = sum(draw_noise_psp(inst, 1.0, generator(derive_seed(0, 1, t)))[pair] for t in range(trials))
    freq = hits / trials
    stderr = math.sqrt(0.35 * 0.65 / trials)
    assert abs(freq - params.q) <= 3 * stderr


def test_psp_planted_edge_survival_at_q_zero():
    # q = 0: survival probability of an existing edge is exactly 1 - rho
    params = PspParams(n=8, L=3, q=0.0)
    inst = sample_instance(params, seed=6)
    pair = (inst.path[1], inst.path[2])
    pair = (min(pair), max(pair))
    trials = 10**4
    hits = sum(draw_noise_psp(inst, 0.5, generator(derive_seed(1, 1, t)))[pair] for t in range(trials))
    freq = hits / trials
    stderr = math.sqrt(0.25 / trials)
    assert abs(freq - 0.5) <= 3 * stderr


def test_rlc_full_noise_uniform():
    rlc = sample_instance(RlcParams(m=6, n=4), seed=2)
    trials = 10**4
    counts = np.zeros(6)
    for t in range(trials):
        counts += draw_noise_rlc(rlc.y, 1.0, generator(derive_seed(2, 1, t)))
    freq = counts / trials
    stderr = math.sqrt(0.25 / trials)
    assert np.all(np.abs(freq - 0.5) <= 4 * stderr)


def test_rlc_flip_probability_is_half_rho():
    rlc = sample_instance(RlcParams(m=10, n=4), seed=7)
    rho = 0.4
    trials = 10**4
    flips = 0
    for t in range(trials):
        flips += int((draw_noise_rlc(rlc.y, rho, generator(derive_seed(3, 1, t))) != rlc.y).sum())
    freq = flips / (trials * 10)
    stderr = math.sqrt(0.2 * 0.8 / (trials * 10))
    assert abs(freq - rho / 2) <= 3 * stderr


def test_gss_full_noise_standard_normal():
    Y = 7.3
    trials = 2 * 10**4
    draws = np.array([draw_noise_gss(Y, 1.0, generator(derive_seed(4, 1, t))) for t in range(trials)])
    assert abs(draws.mean()) <= 3 * draws.std(ddof=1) / math.sqrt(trials)
    var = draws.var(ddof=1)
    assert abs(var - 1.0) <= 3 * var * math.sqrt(2 / (trials - 1))


def test_gss_variance_preserved_under_ou():
    # Y ~ N(0, k) -> output ~ N(0, (1-rho^2) k + rho^2)
    params = GssParams(N=40, k=5)
    rho = 0.6
    trials = 2 * 10**4
    out = np.empty(trials)
    for t in range(trials):
        inst = sample_instance(params, seed=derive_seed(5, 0, t))
        out[t] = draw_noise_gss(inst.Y, rho, generator(derive_seed(5, 1, t)))
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
    two_step = np.empty(trials)
    one_step = np.empty(trials)
    for t in range(trials):
        mid = draw_noise_gss(Y, rho1, generator(derive_seed(6, 1, t)))
        two_step[t] = draw_noise_gss(mid, rho2, generator(derive_seed(6, 2, t)))
        one_step[t] = draw_noise_gss(Y, rho3, generator(derive_seed(6, 3, t)))
    # both arms are Gaussian with the same mean/variance; two-sample z-tests
    se_mean = math.sqrt(two_step.var(ddof=1) / trials + one_step.var(ddof=1) / trials)
    assert abs(two_step.mean() - one_step.mean()) <= 3 * se_mean
    v1, v2 = two_step.var(ddof=1), one_step.var(ddof=1)
    se_var = math.sqrt(2 / (trials - 1)) * math.sqrt(v1**2 + v2**2)
    assert abs(v1 - v2) <= 3 * se_var


def test_tpca_full_noise_fresh_normal():
    inst = sample_instance(TpcaParams(n=5, k=2, d=3, lam=9.0), seed=8)
    out = draw_noise_tpca(inst.Y, 1.0, generator(99))
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
        noisy = draw_noise_tpca(inst.Y, rho, generator(derive_seed(7, 1, t)))
        s = list(inst.support)
        noisy_means[t] = noisy[np.ix_(s, s, s)].mean()
        fresh = sample_instance(params_tilde, seed=derive_seed(8, 0, t))
        sf = list(fresh.support)
        fresh_means[t] = fresh.Y[np.ix_(sf, sf, sf)].mean()
    se = math.sqrt(noisy_means.var(ddof=1) / trials + fresh_means.var(ddof=1) / trials)
    assert abs(noisy_means.mean() - fresh_means.mean()) <= 3 * se
