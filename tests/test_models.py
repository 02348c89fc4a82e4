import itertools
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    gathered_row_sums,
    hex_fields,
    instances_of,
    path_edge_indices_loop,
    path_edges,
    psp_adjacency_loop,
    psp_edge_vector_loop,
    row_dots_loop,
    sample_instance_scalar,
    shape_maps_loop,
    stack_observations,
    stack_runs,
    tpca_signal_tensor,
    trial_observation,
)
from plantedlab import models
from plantedlab.bayes import posterior_means, tpca_overlap_distribution
from plantedlab.errors import ParameterError, ResourceBudgetError
from plantedlab.lowdeg import PSP_SHAPE_LIBRARY, CharacterIndex, GssPoly, PspSymmetricPoly, RlcPoly, _character_sign_tables
from plantedlab.models import (
    EVAL_CHUNK,
    GssParams,
    PspParams,
    RlcParams,
    TpcaParams,
    chunk_sampler,
    instance_from_json,
    instance_to_json,
    pair_ids,
    pairwise_row_sums,
    params_from_json,
    params_to_json,
    path_edge_indices,
    placements,
    row_dots,
    sample_instance,
    signal_norm,
    subset_sum_value,
    subset_sums,
    subsets,
)
from plantedlab.noise import noise_instance_observation
from plantedlab.rng import (
    INSTANCE_STREAM,
    coin_bits,
    derive_seeds,
    generator,
    keyed_fresh,
    keyed_generator,
    lemire_draws,
    philox_keys,
    uint32_stream,
    uniforms,
)
from plantedlab.solvers import shortest_paths
from plantedlab.stability import SOLVERS, resolve_estimator


def _trial_runs(params, seed: int, trials: int):
    """The runs of trials t < trials, trial t being sample_instance(params, derive_seed(seed, INSTANCE_STREAM, t)):
    chunk_sampler runs on one re-keyed Philox."""
    rng, draw = keyed_generator(), chunk_sampler(params)
    keys = philox_keys(derive_seeds(seed, INSTANCE_STREAM, ts=np.arange(trials)))
    for start in range(0, trials, EVAL_CHUNK):
        run = keys[start : start + EVAL_CHUNK]
        yield draw(len(run), keyed_fresh(rng, run))


def test_psp_forced_single_intermediate():
    # n=3, L=2, q=0: the only graph is the path 1-3-2
    inst = sample_instance(PspParams(n=3, L=2, q=0.0), seed=0)
    assert tuple(inst.path[0]) == (1, 3, 2)
    edges = {pair for pair, present in zip(models.vertex_pairs(3), inst.edges[0]) if present}
    assert edges == {(1, 3), (2, 3)}


def test_psp_complete_graph_at_q_one():
    inst = sample_instance(PspParams(n=5, L=2, q=1.0), seed=11)
    adjacency = psp_adjacency_loop(inst.edges[0], 5)
    for i, j in models.vertex_pairs(5):
        assert adjacency[i, j]
    path = inst.path[0].tolist()
    assert path[0] == 1 and path[-1] == 2
    assert path[1] in (3, 4, 5)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=14), st.integers(min_value=0, max_value=2**32 - 1))
def test_psp_pair_conversions_match_loop_oracle(n, seed):
    # pair_ids reads an edge vector at the loop oracle's pairs, in both orientations, so it pins the pair order
    rng = np.random.default_rng(seed)
    vec = rng.random(n * (n - 1) // 2) < rng.random()
    ids, adj = models.pair_ids(n), psp_adjacency_loop(vec, n)
    for i, j in itertools.permutations(range(1, n + 1), 2):
        assert vec[ids[i, j]] == adj[i, j]
    assert np.array_equal(psp_edge_vector_loop(adj, n), vec)
    # any matrix, bool or float, is read at the upper-triangle pairs only
    for other in (rng.random((n + 1, n + 1)) < 0.5, rng.standard_normal((n + 1, n + 1))):
        got = psp_edge_vector_loop(other, n)
        for i, j in itertools.permutations(range(1, n + 1), 2):
            assert got[ids[i, j]] == other[min(i, j), max(i, j)]


def test_psp_path_edges_always_present():
    for seed in range(200):
        inst = sample_instance(PspParams(n=10, L=4, q=0.2), seed=seed)
        adjacency, path = psp_adjacency_loop(inst.edges[0], 10), inst.path[0].tolist()
        for i, j in path_edges(path):
            assert adjacency[i, j]
        assert len(set(path)) == len(path) == inst.params.L + 1


def test_psp_nonpath_edge_frequency_matches_q():
    # {1,2} is never a path edge when L >= 2, so its marginal is exactly q.
    params = PspParams(n=10, L=3, q=0.3)
    trials = 10**5
    hits = sum(int(run.edges[:, pair_ids(10)[1, 2]].sum()) for run in _trial_runs(params, 7, trials))
    freq = hits / trials
    stderr = math.sqrt(0.3 * 0.7 / trials)
    assert abs(freq - 0.3) <= 3 * stderr


def test_rlc_parity_invariant():
    for seed in range(100):
        inst = sample_instance(RlcParams(m=9, n=5), seed=seed)
        assert np.array_equal(inst.y[0], (inst.A[0] @ inst.x[0]) % 2)


def test_rlc_zero_message_gives_zero_codeword():
    params = RlcParams(m=6, n=3)
    seen = False
    for seed in range(500):
        inst = sample_instance(params, seed=seed)
        if not inst.x[0].any():
            seen = True
            assert not inst.y[0].any()
    assert seen, "all-zero message never sampled in 500 draws at n=3"


def test_rlc_full_rank_fraction():
    # P(full column rank) >= 1 - 2^{n-m}; checked by rank oracle at m=8, n=4, every draw ranked in one batch
    from plantedlab.solvers import f2_ranks

    params = RlcParams(m=8, n=4)
    trials = 10**5
    full = int((f2_ranks(np.concatenate([run.A for run in _trial_runs(params, 3, trials)])) == params.n).sum())
    frac = full / trials
    bound = 1 - 2 ** (params.n - params.m)
    stderr = math.sqrt(frac * (1 - frac) / trials)
    assert frac >= bound - 3 * stderr


def test_gss_forced_full_subset():
    inst = sample_instance(GssParams(N=4, k=4), seed=5)
    assert tuple(inst.S[0]) == (0, 1, 2, 3)
    assert inst.Y[0] == subset_sum_value(inst.X[0], inst.S[0])


def test_gss_subset_sum_bit_exact():
    for seed in range(50):
        inst = sample_instance(GssParams(N=30, k=7), seed=seed)
        assert inst.Y[0] == subset_sum_value(inst.X[0], inst.S[0])


def test_gss_observation_moments():
    params = GssParams(N=200, k=10)
    trials = 10**5
    ys = np.concatenate([run.Y for run in _trial_runs(params, 19, trials)])
    mean = ys.mean()
    mean_stderr = ys.std(ddof=1) / math.sqrt(trials)
    assert abs(mean - 0.0) <= 3 * mean_stderr
    var = ys.var(ddof=1)
    var_stderr = var * math.sqrt(2.0 / (trials - 1))
    assert abs(var - params.k) <= 3 * var_stderr


def test_tpca_pure_noise_variance_at_lambda_zero():
    inst = sample_instance(TpcaParams(n=10, k=2, d=3, lam=0.0), seed=2)
    flat = inst.Y[0].ravel()
    var = flat.var(ddof=1)
    var_stderr = var * math.sqrt(2.0 / (flat.size - 1))
    assert abs(var - 1.0) <= 3 * var_stderr
    assert abs(flat.mean()) <= 3 * flat.std(ddof=1) / math.sqrt(flat.size)


def test_tpca_signal_tensor_entries():
    # Same seed, different lambda: Y(lam=4) - Y(lam=1) = (2-1) * x^{tensor d}
    params_hi = TpcaParams(n=6, k=2, d=3, lam=4.0)
    params_lo = TpcaParams(n=6, k=2, d=3, lam=1.0)
    hi = sample_instance(params_hi, seed=77)
    lo = sample_instance(params_lo, seed=77)
    support = hi.support[0]
    assert np.array_equal(support, lo.support[0])
    diff = hi.Y[0] - lo.Y[0]
    expected = tpca_signal_tensor(params_hi, support)
    assert np.allclose(diff, expected, atol=1e-12)
    on_support = expected[np.ix_(support, support, support)]
    assert np.allclose(on_support, 2 ** (-3 / 2))
    assert np.count_nonzero(expected) == len(support) ** 3


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
        sample_instance(TpcaParams(n=100, k=2, d=4, lam=1.0), seed=0)


@given(st.integers(min_value=0, max_value=2**63 - 1))
@settings(max_examples=20, deadline=None)
def test_samplers_deterministic(seed):
    p1 = sample_instance(PspParams(n=8, L=3, q=0.4), seed)
    p2 = sample_instance(PspParams(n=8, L=3, q=0.4), seed)
    assert np.array_equal(p1.path, p2.path) and np.array_equal(p1.edges, p2.edges)
    r1 = sample_instance(RlcParams(m=7, n=4), seed)
    r2 = sample_instance(RlcParams(m=7, n=4), seed)
    assert np.array_equal(r1.A, r2.A) and np.array_equal(r1.x, r2.x)
    g1 = sample_instance(GssParams(N=12, k=3), seed)
    g2 = sample_instance(GssParams(N=12, k=3), seed)
    assert np.array_equal(g1.S, g2.S) and np.array_equal(g1.Y, g2.Y) and np.array_equal(g1.X, g2.X)
    t1 = sample_instance(TpcaParams(n=5, k=2, d=3, lam=2.0), seed)
    t2 = sample_instance(TpcaParams(n=5, k=2, d=3, lam=2.0), seed)
    assert np.array_equal(t1.support, t2.support) and np.array_equal(t1.Y, t2.Y)


def test_signal_norms():
    assert signal_norm(PspParams(n=10, L=3, q=0.1)) == 3.0
    assert signal_norm(RlcParams(m=8, n=6)) == 3.0
    assert signal_norm(GssParams(N=10, k=4)) == 4.0
    assert signal_norm(TpcaParams(n=10, k=2, d=3, lam=1.0)) == 1.0


def test_signal_vectors_match_norms():
    inst = sample_instance(PspParams(n=9, L=4, q=0.3), seed=1)
    assert inst.signal_vectors()[0].sum() == 4.0
    tins = sample_instance(TpcaParams(n=7, k=3, d=2, lam=1.0), seed=1)
    assert math.isclose(np.sum(tins.signal_vectors()[0] ** 2), 1.0, rel_tol=1e-12)


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
        sample_instance(PspParams(n=7, L=3, q=0.3), seed=seed),
        sample_instance(RlcParams(m=6, n=4), seed=seed),
        sample_instance(GssParams(N=9, k=3), seed=seed),
        sample_instance(TpcaParams(n=5, k=2, d=3, lam=2.5), seed=seed),
    ]
    for inst in instances:
        blob = instance_to_json(inst)
        assert params_from_json(params_to_json(inst.params)) == inst.params
        # the text form, as the CLI writes it, must decode to the same instance
        for back in (instance_from_json(blob), instance_from_json(json.loads(json.dumps(blob, sort_keys=True)))):
            assert type(back) is type(inst)
            assert hex_fields(back) == hex_fields(inst)  # every field, its dtype and shape included


# a malformed PSP instance field -> the error it raises; each once loaded, then vanished on a
# round trip, moved to another pair, or raised a bare IndexError
BAD_PSP_JSON = {
    "loop-edge": ("edges", [[3, 3]], "two distinct vertex labels"),
    "label-0": ("edges", [[0, 4]], "labels in 1..5"),
    "label-below-0": ("edges", [[-1, 2]], "labels in 1..5"),
    "label-above-n": ("edges", [[2, 9]], "labels in 1..5"),
    "non-integer-label": ("edges", [[1.5, 2]], "integer vertex labels"),
    "bool-label": ("edges", [[True, 2]], "integer vertex labels"),
    "three-labels": ("edges", [[1, 3, 4]], "two distinct vertex labels"),
    "path-not-from-1": ("path", [3, 1, 2], "from 1 to 2"),
    "path-not-to-2": ("path", [1, 2, 3], "from 1 to 2"),
    "path-repeats-a-vertex": ("path", [1, 1, 2], "3 distinct vertices"),
    "path-of-another-length": ("path", [1, 3, 4, 2], "3 distinct vertices"),
    "path-label-above-n": ("path", [1, 6, 2], "labels in 1..5"),
    "path-non-integer-label": ("path", [1, 3.0, 2], "integer vertex labels"),
}


@pytest.mark.parametrize("case", BAD_PSP_JSON)
def test_psp_instance_json_rejects_malformed_fields(case):
    key, value, message = BAD_PSP_JSON[case]
    blob = instance_to_json(sample_instance(PspParams(n=5, L=2, q=0.3), seed=1))
    instance_from_json(blob)
    with pytest.raises(ParameterError, match=re.escape(message)):
        instance_from_json({**blob, key: value})


# each raised a bare TypeError ("'int' object is not iterable") that named no key
@pytest.mark.parametrize("edges", [5, None, 2.5, True], ids=repr)
def test_psp_instance_json_rejects_edges_that_are_not_a_list(edges):
    blob = instance_to_json(sample_instance(PspParams(n=6, L=3, q=0.3), seed=1))
    with pytest.raises(ParameterError) as err:
        instance_from_json({**blob, "edges": edges})
    assert str(err.value) == f"PSP 'edges' must be a list of vertex pairs, got {edges!r}"


# a malformed RLC, GSS or TPCA instance field -> the error it raises; each once loaded (a bit string
# of 2s, a repeated or out-of-range index) or raised a bare ValueError
_JSON_PARAMS = {"rlc": RlcParams(m=4, n=2), "gss": GssParams(N=5, k=2), "tpca": TpcaParams(n=2, k=1, d=2, lam=1.0)}
_RLC_BITS = "RLC 'A' must be a string of 8 characters 0 or 1"
BAD_INSTANCE_JSON = {
    "rlc-A-of-2s": ("rlc", "A", "2" * 8, f"{_RLC_BITS}, got '22222222'"),
    "rlc-A-too-short": ("rlc", "A", "0101", f"{_RLC_BITS}, got '0101'"),
    "rlc-A-too-long": ("rlc", "A", "0" * 9, f"{_RLC_BITS}, got '000000000'"),
    "rlc-A-a-list": ("rlc", "A", [0] * 8, f"{_RLC_BITS}, got [0, 0, 0, 0, 0, 0, 0, 0]"),
    "rlc-x-too-long": ("rlc", "x", "010", "RLC 'x' must be a string of 2 characters 0 or 1, got '010'"),
    "rlc-y-a-letter": ("rlc", "y", "01a1", "RLC 'y' must be a string of 4 characters 0 or 1, got '01a1'"),
    "gss-S-repeats": ("gss", "S", [3, 3], "GSS 'S' must be 2 strictly ascending integers in 0..4, got [3, 3]"),
    "gss-S-descends": ("gss", "S", [3, 1], "GSS 'S' must be 2 strictly ascending integers in 0..4, got [3, 1]"),
    "gss-S-above-N": ("gss", "S", [1, 5], "GSS 'S' must be 2 strictly ascending integers in 0..4, got [1, 5]"),
    "gss-S-below-0": ("gss", "S", [-1, 2], "GSS 'S' must be 2 strictly ascending integers in 0..4, got [-1, 2]"),
    "gss-S-too-short": ("gss", "S", [1], "GSS 'S' must be 2 strictly ascending integers in 0..4, got [1]"),
    "gss-S-non-integer": ("gss", "S", [1.0, 2], "GSS 'S' must be 2 strictly ascending integers in 0..4, got [1.0, 2]"),
    "gss-S-bool": ("gss", "S", [False, True], "GSS 'S' must be 2 strictly ascending integers in 0..4, got [False, True]"),
    "gss-X-too-short": ("gss", "X", [0.5] * 4, "GSS 'X' must be a list of 5 finite numbers"),
    "gss-X-non-numeric": ("gss", "X", ["a"] * 5, "GSS 'X' must be a list of 5 finite numbers"),
    "gss-X-infinite": ("gss", "X", [math.inf] + [0.5] * 4, "GSS 'X' must be a list of 5 finite numbers"),
    "gss-X-past-float": ("gss", "X", [10**400] + [0.5] * 4, "GSS 'X' must be a list of 5 finite numbers"),
    "gss-X-a-number": ("gss", "X", 0.5, "GSS 'X' must be a list of 5 finite numbers"),
    "gss-Y-non-numeric": ("gss", "Y", "a", "GSS 'Y' must be a finite number, got 'a'"),
    "gss-Y-nan": ("gss", "Y", math.nan, "GSS 'Y' must be a finite number, got nan"),
    "gss-Y-a-list": ("gss", "Y", [0.5], "GSS 'Y' must be a finite number, got [0.5]"),
    "gss-Y-bool": ("gss", "Y", True, "GSS 'Y' must be a finite number, got True"),
    "tpca-support-above-n": ("tpca", "support", [7], "TPCA 'support' must be 1 strictly ascending integers in 0..1, got [7]"),
    "tpca-support-too-long": ("tpca", "support", [0, 1], "TPCA 'support' must be 1 strictly ascending integers in 0..1, got [0, 1]"),
    "tpca-Y-too-long": ("tpca", "Y", [0.5] * 5, "TPCA 'Y' must be a list of 4 finite numbers"),
    "tpca-Y-nested": ("tpca", "Y", [[0.5, 0.5], [0.5, 0.5]], "TPCA 'Y' must be a list of 4 finite numbers"),
    "tpca-Y-infinite": ("tpca", "Y", [0.5, -math.inf, 0.5, 0.5], "TPCA 'Y' must be a list of 4 finite numbers"),
}


@pytest.mark.parametrize("case", BAD_INSTANCE_JSON)
def test_instance_json_rejects_malformed_fields(case):
    model, key, value, message = BAD_INSTANCE_JSON[case]
    blob = instance_to_json(sample_instance(_JSON_PARAMS[model], seed=1))
    instance_from_json(blob)
    with pytest.raises(ParameterError) as err:
        instance_from_json({**blob, key: value})
    assert str(err.value) == message



# each model's instance blob and the first field its codec writes after "params"
_ENVELOPE_BLOBS = {
    "psp": (PspParams(n=5, L=2, q=0.3), "path"),
    "rlc": (_JSON_PARAMS["rlc"], "A"),
    "gss": (_JSON_PARAMS["gss"], "X"),
    "tpca": (_JSON_PARAMS["tpca"], "support"),
}
# a malformed instance envelope -> (its blob from a well-formed one, the error it raises); each
# raised a bare KeyError or AttributeError, or (the unknown key) loaded silently
BAD_ENVELOPES = {
    "missing-params": (lambda blob, field: {k: v for k, v in blob.items() if k != "params"}, "needs the key 'params'"),
    "missing-field": (lambda blob, field: {k: v for k, v in blob.items() if k != field}, "missing ['{field}'], unknown []"),
    "params-not-an-object": (lambda blob, field: {**blob, "params": "gss"}, "instance 'params' must be an object, got 'gss'"),
    "unknown-key": (lambda blob, field: {**blob, "extra": 1}, "missing [], unknown ['extra']"),
}


@pytest.mark.parametrize("case", BAD_ENVELOPES)
@pytest.mark.parametrize("model", _ENVELOPE_BLOBS)
def test_instance_json_rejects_a_malformed_envelope(model, case):
    params, field = _ENVELOPE_BLOBS[model]
    blob = instance_to_json(sample_instance(params, seed=1))
    instance_from_json(blob)
    malformed, message = BAD_ENVELOPES[case]
    with pytest.raises(ParameterError, match=re.escape(message.format(field=field))):
        instance_from_json(malformed(blob, field))


# every consumer of one instance, a run of one trial; without the check each would read trial 0 of a longer run
_ONE_TRIAL_CONSUMERS = {
    "instance_to_json": instance_to_json,
    "noise_instance_observation": lambda inst: noise_instance_observation(inst, 0.5, 3),
}


@pytest.mark.parametrize("count", [0, 2])
@pytest.mark.parametrize("consumer", _ONE_TRIAL_CONSUMERS)
@pytest.mark.parametrize("params", [PspParams(n=6, L=2, q=0.3), RlcParams(m=5, n=3), GssParams(N=6, k=2)], ids=repr)
def test_one_trial_consumers_reject_a_run_of_another_length(params, consumer, count):
    two = chunk_sampler(params)(2, generator)
    run = two if count == 2 else type(two)(params, *(getattr(two, key)[:0] for key in vars(two) if key != "params"))
    assert len(run) == count
    _ONE_TRIAL_CONSUMERS[consumer](instances_of(two)[1])
    with pytest.raises(ParameterError) as err:
        _ONE_TRIAL_CONSUMERS[consumer](run)
    assert str(err.value) == f"an instance is a run of one trial, got a run of {count}"


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


@pytest.mark.parametrize("n", range(4, 13))
def test_placements_match_the_permutation_loops(n):
    for shapes in PSP_SHAPE_LIBRARY.values():
        for shape in shapes:
            got, want = placements(shape, n), shape_maps_loop(shape, n)
            assert got.shape == want.shape and np.array_equal(got, want), shape
            assert got.flags.c_contiguous
    for L in range(1, 6):
        got, want = path_edge_indices(n, L), path_edge_indices_loop(n, L)
        assert got.shape == want.shape and np.array_equal(got, want), L


def test_placements_of_the_empty_shape_is_one_empty_placement():
    # the constant term: one placement with an empty product, as in the oracle
    got = placements((), 8)
    assert got.shape == (1, 0) and np.array_equal(got, shape_maps_loop((), 8))


@pytest.mark.parametrize("shape", [((3, 3),), ((1, 1),), ((0, 3),), ((1, 3), (-1, 2))])
def test_placements_reject_loops_and_labels_below_one(shape):
    # each once read pair_ids' -1 entry, the index of the last vertex pair: at n = 8 a
    # PspSymmetricPoly of ((3, 3),) evaluated the seed-3 graph to -3.93 with no error
    with pytest.raises(ParameterError, match="needs two distinct labels >= 1"):
        placements(shape, 8)


def test_pair_ids_index_both_orientations():
    n = 7
    ids = pair_ids(n)
    for t, (i, j) in enumerate(models.vertex_pairs(n)):
        assert ids[i, j] == ids[j, i] == t
    # a vertex sequence reads its edges off the table, in either direction, as the PSP solver reads its paths
    path = np.array([1, 5, 3, 2])
    assert ids[path[:-1], path[1:]].tolist() == ids[path[::-1][:-1], path[::-1][1:]].tolist()[::-1]


@pytest.mark.parametrize("k", range(1, 11))
def test_subset_sums_add_left_to_right(k):
    rng = np.random.default_rng(k)
    # mixed magnitudes make the order of the additions show in the last bits
    X = rng.standard_normal(12) * 10.0 ** rng.integers(-8, 9, size=12)
    X[0] = -0.0  # 0.0 + -0.0 is 0.0: the sum starts from 0.0, not from the first column
    combos = subsets(12, k)
    want = [subset_sum_value(X, row).hex() for row in combos]
    assert [v.hex() for v in subset_sums(X, combos)] == want


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.integers(0, 7), st.integers(8, 128), st.integers(129, 300)),
    lead=st.sampled_from([(), (0,), (1,), (37,), (3, 5)]),
    rows=st.integers(1, 12),
    scale=st.integers(-300, 300),
    seed=st.integers(0, 2**32 - 1),
)
# eight accumulators of three entries each, and a split above 128 that n // 2 = 150 would misplace
@example(n=24, lead=(37,), rows=12, scale=0, seed=1)
@example(n=300, lead=(37,), rows=12, scale=0, seed=2)
def test_pairwise_row_sums_hex_equal_the_c_ordered_block_sum(n, lead, rows, scale, seed):
    # rows below 8 entries, of 8 to 128 with and without a remainder past the last multiple of 8, and split
    # above 128; entries mostly normals at one scale, so the order of the adds shows in the last bits, with
    # +-0.0, subnormals and magnitudes from 1e-300 to 1e300 mixed in
    rng = generator(seed)
    width = 20
    X = rng.standard_normal(lead + (width,)) * 10.0**scale
    kind = rng.choice(4, size=X.shape, p=[0.85, 0.05, 0.05, 0.05])
    X = np.where(kind == 1, np.copysign(0.0, X), X)
    X = np.where(kind == 2, np.copysign(5e-324, X) * rng.integers(1, 2**20, X.shape), X)
    X = np.where(kind == 3, np.copysign(10.0 ** rng.uniform(-300, 300, X.shape), X), X)
    X[..., :2] = -0.0
    cols = rng.integers(0, width, (rows, n))
    cols[0] = rng.integers(0, 2, n)  # a row of -0.0 entries, which numpy sums to +0.0
    want = gathered_row_sums(X, cols)
    got = pairwise_row_sums(X, cols)
    assert got.shape == want.shape and got.dtype == want.dtype and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    if n < 8:  # below 8 entries numpy adds left to right, as subset_sums does
        assert subset_sums(X, cols).tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(rows=st.sampled_from([0, 1, 37]), width=st.integers(1, 300), scale=st.integers(-150, 150), seed=st.integers(0, 2**32 - 1))
def test_row_dots_hex_equal_one_dot_a_row(rows, width, scale, seed):
    # normals at one scale, so a reordered sum of the squares shows in the last bits
    v = generator(seed).standard_normal((rows, width)) * 10.0**scale
    got = row_dots(v)
    assert got.shape == (rows,)
    assert [x.hex() for x in got] == [x.hex() for x in row_dots_loop(v)]


def test_subsets_run_in_combinations_order():
    assert [tuple(r) for r in subsets(6, 3)] == list(itertools.combinations(range(6), 3))


def test_shared_enumeration_caches_are_read_only():
    # every later caller gets the same array, so one caller's write would corrupt them all
    shared = [
        pair_ids(5),
        placements(((1, 3), (3, 4)), 6),
        path_edge_indices(6, 3),
        subsets(6, 2),
        *_character_sign_tables(2, 2),
    ]
    for arr in shared:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 0


# ---------------------------------------------------------------------------
# run samplers decoded from raw Philox words, against the Generator calls

# odd uint32 and uint64 word counts (RLC A of 1, 15, 49, 45 and 512 bits), PSP at q = 0 and 1
# and with one interior vertex, GSS at k = N and k = 1, TPCA
SAMPLER_PARAMS = [
    PspParams(n=3, L=2, q=0.5),
    PspParams(n=7, L=3, q=0.35),
    PspParams(n=6, L=5, q=1.0),
    PspParams(n=9, L=2, q=0.0),
    PspParams(n=10, L=3, q=0.3),  # the lowdeg benchmark cell
    PspParams(n=40, L=4, q=0.1),  # 38 candidates: the in-place shuffle rejects bounded draws often
    RlcParams(m=1, n=1),
    RlcParams(m=5, n=3),
    RlcParams(m=7, n=7),
    RlcParams(m=9, n=5),
    RlcParams(m=64, n=8),
    RlcParams(m=12, n=8),
    GssParams(N=1, k=1),
    GssParams(N=6, k=6),
    GssParams(N=20, k=3),
    GssParams(N=9, k=1),
    TpcaParams(n=4, k=2, d=3, lam=3.0),
    TpcaParams(n=3, k=3, d=2, lam=0.0),
]


@settings(max_examples=120, deadline=None)
@given(params=st.sampled_from(SAMPLER_PARAMS), seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=12))
def test_chunk_sampler_equals_the_generator_call_oracle(params, seeds):
    rng, keys = keyed_generator(), philox_keys(seeds)
    run = chunk_sampler(params)(len(seeds), keyed_fresh(rng, keys))
    want = [sample_instance_scalar(params, s) for s in seeds]
    assert hex_fields(run) == hex_fields(stack_runs(want))  # the stacked fields, dtype and shape included
    assert [hex_fields(inst) for inst in instances_of(run)] == [hex_fields(inst) for inst in want]
    assert hex_fields(sample_instance(params, seeds[0])) == hex_fields(want[0])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), count=st.integers(1, 40))
def test_word_decoders_equal_generator_draws(seed, count):
    # each decoder reads the stream from the state a Generator call starts from
    words = generator(seed).bit_generator.random_raw(2 * count)
    assert np.array_equal(uniforms(words[:count]), generator(seed).random(count))
    assert np.array_equal(coin_bits(words)[:count], generator(seed).integers(0, 2, count, dtype=np.uint8))
    assert np.array_equal(uint32_stream(words), generator(seed).integers(0, 2**32, 4 * count, dtype=np.uint32))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    r=st.one_of(st.integers(2**31 - 2**20, 2**31 + 2**20), st.integers(2, 2**32), st.just(1)),
    size=st.integers(1, 60),
)
def test_lemire_draws_equal_bounded_uint32_integers(seed, r, size):
    # near 2**31 about half of all words are rejected, so a row is flagged; at small r almost none is
    seeds = [seed ^ j for j in range(4)]
    words = uint32_stream(np.stack([generator(s).bit_generator.random_raw((size + 1) // 2) for s in seeds]))
    got, ok = lemire_draws(words, [r] * size)
    for row, s in enumerate(seeds):
        read = words[row, : size if r > 1 else 0].tolist()  # draw d reads word d; a range of 1 reads none
        assert ok[row] == (not any(u * r % 2**32 < 2**32 % r for u in read))
        if ok[row]:
            assert np.array_equal(got[row], generator(s).integers(0, r, size, dtype=np.uint32))


def test_lemire_draws_report_a_row_whose_words_run_out():
    size = 40
    words = uint32_stream(np.stack([generator(s).bit_generator.random_raw(size // 2) for s in range(6)]))
    assert not lemire_draws(words, [2**31 + 1] * size)[1].any()  # at r = 2**31 + 1 a rejection in 40 words is all but certain
    got, ok = lemire_draws(words, [2] * size)  # at r = 2 no word is rejected
    assert ok.all()
    for s in range(6):
        assert np.array_equal(got[s], generator(s).integers(0, 2, size, dtype=np.uint32))
    assert not lemire_draws(words[:, :-1], [2] * size)[1].any()  # 39 words for 40 draws
    assert lemire_draws(words[:, :0], [1, 1])[1].all()  # a range of 1 reads no word


@settings(max_examples=40, deadline=None)
@given(data=st.data(), N=st.integers(1, 30), seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6))
def test_gss_sampler_draws_every_flagged_trial_with_choice(data, N, seeds):
    # flag every row and zero its draws: only numpy's own choice gives the right support
    params = GssParams(N=N, k=data.draw(st.integers(1, N)))

    def flag_all(words, ranges):
        draws, ok = lemire_draws(words, ranges)
        return np.zeros_like(draws), np.zeros_like(ok)

    rng, keys = keyed_generator(), philox_keys(seeds)
    with mock.patch.object(models, "lemire_draws", flag_all):
        run = chunk_sampler(params)(len(seeds), keyed_fresh(rng, keys))
    assert [hex_fields(inst) for inst in instances_of(run)] == [hex_fields(sample_instance_scalar(params, s)) for s in seeds]


def test_gss_sampler_reads_on_past_a_rejection():
    # at N = 10000, k = 200, seed 837's Floyd draws reject a word, so its 100 words run out; a run of
    # three trials and the one-trial run of seed 837 both take the decoder and then the redraw
    params = GssParams(N=10000, k=200)
    g = generator(837)
    g.standard_normal(params.N)
    assert not lemire_draws(uint32_stream(g.bit_generator.random_raw(100))[None], range(9801, 10001))[1].all()
    for seeds in ((836, 837, 838), (837,)):
        rng, keys = keyed_generator(), philox_keys(seeds)
        run = chunk_sampler(params)(len(seeds), keyed_fresh(rng, keys))
        assert [hex_fields(inst) for inst in instances_of(run)] == [hex_fields(sample_instance_scalar(params, s)) for s in seeds]
    assert hex_fields(sample_instance(params, 837)) == hex_fields(sample_instance_scalar(params, 837))


def test_gss_sampler_past_floyds_range_calls_choice():
    # above N = 10000 with k > N // 50, Generator.choice shuffles a tail instead of running Floyd's method
    params = GssParams(N=12000, k=241)
    assert hex_fields(sample_instance(params, 5)) == hex_fields(sample_instance_scalar(params, 5))


# model -> the fields of an instance that instance_bytes leaves out: the planted indices and GSS's one number Y
_UNCOUNTED_FIELDS = {"psp": {"path"}, "rlc": set(), "gss": {"S", "Y"}, "tpca": {"support"}}


def test_instance_bytes_count_the_instance_arrays():
    for params in SAMPLER_PARAMS:
        inst = sample_instance(params, 1)
        uncounted = _UNCOUNTED_FIELDS[models.model_name(params)]
        assert models.instance_bytes(params) == sum(v.nbytes for k, v in vars(inst).items() if k != "params" and k not in uncounted)


# ---------------------------------------------------------------------------
# batches of observations: a run's stacked observation, each field an array with the trials along its first axis

_NOT_STACKED = "is not stacked: got a list, not an array of one row a trial"


def test_check_stack_returns_a_stacked_array_without_a_copy():
    stacked = sample_instance_scalar(GssParams(N=6, k=2), 3).X.repeat(4, axis=0)
    out = models.check_stack("X", stacked, (6,))
    assert out is stacked and np.shares_memory(out, stacked)
    with pytest.raises(ParameterError, match=f"X {_NOT_STACKED}"):
        models.check_stack("X", list(stacked), (6,))


def test_check_stack_names_the_wrong_shape():
    for listed in ([np.zeros(6), np.zeros(6), np.zeros(5), np.zeros(4)], [np.zeros(5)] * 3):
        with pytest.raises(ParameterError, match=f"X {_NOT_STACKED}"):
            models.check_stack("X", listed, (6,))
    with pytest.raises(ParameterError, match=re.escape("X has shape (5,), expected (6,)")):
        models.check_stack("X", np.zeros((3, 5)), (6,))
    with pytest.raises(ParameterError, match=re.escape("X has shape (), expected (6,)")):
        models.check_stack("X", np.zeros(3), (6,))
    with pytest.raises(ParameterError, match=re.escape("Y has shape (1,), expected ()")):
        models.check_stack("Y", np.zeros((3, 1)), ())


def test_check_stack_of_an_empty_batch():
    empty = np.zeros((0, 6))
    assert models.check_stack("X", empty, (6,)) is empty
    assert models.check_stack("Y", np.zeros(0), ()).shape == (0,)
    with pytest.raises(ParameterError, match=f"X {_NOT_STACKED}"):
        models.check_stack("X", [], (6,))


@pytest.mark.parametrize("params", SAMPLER_PARAMS, ids=repr)
def test_batch_helpers_read_a_run_and_a_list_alike(params):
    # a list of the run's per-trial observations reads alike once stacked, and raises unstacked
    rng, keys = keyed_generator(), philox_keys([5, 6, 7])
    run = chunk_sampler(params)(3, keyed_fresh(rng, keys))
    stacked, listed = run.observation, [trial_observation(inst) for inst in instances_of(run)]
    assert models.batch_size(stacked) == models.batch_size(stack_observations(listed)) == len(run) == 3
    for i in range(3):
        assert hex_fields(models.batch_rows(stacked, i)) == hex_fields(listed[i])
    assert hex_fields(models.batch_rows(stacked, slice(1, 3))) == hex_fields(stack_runs(instances_of(run)[1:3]).observation)
    fields = models.stack_observations(params, stacked)
    assert all(f is s for f, s in zip(fields, stacked if isinstance(stacked, tuple) else (stacked,)))  # no copy
    assert hex_fields(models.stack_observations(params, stack_observations(listed))) == hex_fields(fields)
    with pytest.raises(ParameterError):
        models.stack_observations(params, listed)
    empty = models.stack_observations(params, models.batch_rows(stacked, slice(0, 0)))
    assert [f.shape for f in empty] == [(0, *f.shape[1:]) for f in fields]
    assert hex_fields(run.signal_vectors()) == hex_fields(np.array([inst.signal_vectors()[0] for inst in instances_of(run)]))


_PSP, _RLC, _GSS, _TPCA = PspParams(n=6, L=3, q=0.3), RlcParams(m=6, n=4), GssParams(N=10, k=3), TpcaParams(n=6, k=2, d=3, lam=4.0)
_POLYS = {
    "psp": PspSymmetricPoly(terms=((((1, 3),), 1.0),)),
    "rlc": RlcPoly(terms=((CharacterIndex.make([(0, 0)], [1]), 1.0),)),
    "gss": GssPoly(terms=((((0, 1),), 1, 1.0),)),
}


def _observation_consumers(params, batch) -> dict:
    """Every batch entry point that reads params' observations: name -> batch -> its output."""
    name = models.model_name(params)
    out = {
        "posterior_means": lambda batch: posterior_means(params, batch, 0.5),
        "constant_prior_mean": resolve_estimator("constant_prior_mean", params, 0.5),
    }
    if name in _POLYS:
        out["evaluate_many"] = lambda batch: _POLYS[name].evaluate_many(batch, params)
    for solver, spec in SOLVERS.items():
        if spec.model == name:
            out[solver] = resolve_estimator(solver, params, 0.5)
    if name == "psp":
        out["shortest_paths"] = lambda batch: shortest_paths(batch, params.n)
    if name == "tpca" and isinstance(batch, np.ndarray) and batch.ndim:  # it takes one observation, trial 0 of the batch
        out["tpca_overlap_distribution"] = lambda batch: tpca_overlap_distribution(batch[0], [0, 1], params)
    return out


def _with_field(listed, i, field, value):
    """The stacked batch of listed with trial i's field replaced by value (field None: the whole observation)."""
    out = list(listed)
    out[i] = value if field is None else tuple(value if j == field else f for j, f in enumerate(listed[i]))
    return stack_observations(out)


# (params, the batch made from a valid (listed, stacked) one, the message every consumer raises)
_OUTSIDE_THE_MODEL = {
    "psp-complex-edges": (_PSP, lambda l, s: _with_field(l, 1, None, l[1].astype(complex)),
                          "edges entries must be real numbers, got dtype complex128"),
    "psp-0-d-batch": (_PSP, lambda l, s: np.array(True),
                      "edges is not stacked: a stacked psp batch holds (edges) as arrays of one row a trial"),
    "psp-tuple-batch": (_PSP, lambda l, s: (s,),
                        "edges is not stacked: a stacked psp batch holds (edges) as arrays of one row a trial"),
    "listed": (_PSP, lambda l, s: l, "edges is not stacked: a stacked psp batch holds (edges) as arrays of one row a trial"),
    "rlc-object-A": (_RLC, lambda l, s: _with_field(l, 2, 0, l[2][0].astype(object)),
                     "A entries must be real numbers, got dtype object"),
    "rlc-one-field": (_RLC, lambda l, s: s[:1], "a rlc observation is (A, y), got 1 fields"),
    "rlc-bare-A": (_RLC, lambda l, s: s[0], "a rlc observation is (A, y), got a ndarray"),
    "rlc-listed": (_RLC, lambda l, s: l, "a rlc observation is (A, y), got a list"),
    "gss-string-Y": (_GSS, lambda l, s: stack_observations([(X, "a") for X, _ in l]), "Y entries must be real numbers, got dtype <U1"),
    "gss-complex-X": (_GSS, lambda l, s: _with_field(l, 1, 0, l[1][0] + 0j), "X entries must be real numbers, got dtype complex128"),
    "gss-three-fields": (_GSS, lambda l, s: (*s, np.zeros(3)), "a gss observation is (X, Y), got 3 fields"),
    "gss-0-d-Y": (_GSS, lambda l, s: (s[0], s[1][0]), "Y is not stacked: a stacked gss batch holds (X, Y) as arrays of one row a trial"),
    "gss-listed-Y": (_GSS, lambda l, s: (s[0], list(s[1])), "Y is not stacked: a stacked gss batch holds (X, Y) as arrays of one row a trial"),
    "gss-listed": (_GSS, lambda l, s: l, "a gss observation is (X, Y), got a list"),
    "tpca-complex-Y": (_TPCA, lambda l, s: _with_field(l, 0, None, l[0] * (1 + 0j)), "Y entries must be real numbers, got dtype complex128"),
    "tpca-0-d-batch": (_TPCA, lambda l, s: np.array(0.5), "Y is not stacked: a stacked tpca batch holds (Y) as arrays of one row a trial"),
    "tpca-listed": (_TPCA, lambda l, s: l, "Y is not stacked: a stacked tpca batch holds (Y) as arrays of one row a trial"),
}


@pytest.mark.parametrize("params, corrupt, message", _OUTSIDE_THE_MODEL.values(), ids=_OUTSIDE_THE_MODEL)
def test_every_consumer_rejects_an_observation_outside_the_model_alike(params, corrupt, message):
    # a typed error with one message from every entry point, where a bare ValueError, TypeError or
    # IndexError, or a silently dropped imaginary part, came from some of them; a list of per-trial
    # observations is no batch
    run = stack_runs([sample_instance(params, seed) for seed in range(3)])
    bad = corrupt([trial_observation(inst) for inst in instances_of(run)], run.observation)
    consumers = _observation_consumers(params, bad)
    # the posterior, the constant estimator, the polynomial and the solver (PSP: and shortest_paths)
    assert len(consumers) >= 4 or isinstance(params, TpcaParams)
    for name, consume in consumers.items():
        with pytest.raises(ParameterError) as err:
            consume(bad)
        assert (name, str(err.value)) == (name, message)

