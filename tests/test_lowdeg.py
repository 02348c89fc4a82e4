import math
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    diagram_mc_oracle_oneshot,
    gss_poly_evaluate_loop,
    path_edges,
    psp_adjacency_loop,
    psp_poly_evaluate_loop,
    rlc_character_expectation_loop,
    rlc_poly_evaluate_loop,
    stability_moments_loop,
    stability_ratio_loop,
    stack_observations,
    symmetrize_check,
    trial_observation,
)
from plantedlab import lowdeg
from plantedlab.errors import IllConditionedError, ParameterError, ResourceBudgetError
from plantedlab.mc import mean_stderr, ratio_with_stderr
from plantedlab.lowdeg import (
    DIAGRAM_BLOCK_BYTES,
    PSP_GATHER_ELEMENTS,
    PSP_SHAPE_LIBRARY,
    CharacterIndex,
    DiagramSpec,
    GssPoly,
    PspSymmetricPoly,
    RlcPoly,
    diagram_expectation,
    diagram_mc_oracle,
    enumerate_character_indices,
    gss_stability_bound,
    hermite_eval,
    product_table,
    random_gss_poly,
    random_psp_symmetric_poly,
    random_rlc_poly,
    rlc_character_expectation,
    rlc_stability_bound,
    stability_ratio,
)
from plantedlab.models import (
    EVAL_CHUNK,
    GssParams,
    PspParams,
    RlcParams,
    batch_rows,
    chunk_sampler,
    model_name,
    placements,
    sample_instance,
)
from plantedlab.noise import CoupledTrials
from plantedlab.rng import generator


# ---------------------------------------------------------------------------
# Hermite values


def test_hermite_low_orders():
    xs = np.array([-1.3, 0.0, 0.4, 2.2])
    assert np.allclose(hermite_eval(0, xs), 1.0)
    assert np.allclose(hermite_eval(1, xs), xs)
    assert hermite_eval(2, 0.0) == -1 / math.sqrt(2)


def test_hermite_scalar_round_trip():
    assert isinstance(hermite_eval(3, 0.5), float)


def test_hermite_mc_orthonormality():
    rng = generator(12345)
    Z = rng.standard_normal(10**6)
    H = [hermite_eval(a, Z) for a in range(6)]
    for a in range(6):
        for b in range(a, 6):
            prod = H[a] * H[b]
            mean = prod.mean()
            se = prod.std(ddof=1) / math.sqrt(Z.size)
            target = 1.0 if a == b else 0.0
            assert abs(mean - target) <= 3 * se, (a, b, mean, se)


# ---------------------------------------------------------------------------
# diagram formula


def R_pair(r):
    return np.array([[1.0, r], [r, 1.0]])


def test_diagram_single_pair():
    assert diagram_expectation(DiagramSpec((1, 1), R_pair(0.3))) == 0.3


def test_diagram_two_two():
    val = diagram_expectation(DiagramSpec((2, 2), R_pair(0.3)))
    assert math.isclose(val, 0.09, rel_tol=1e-12)


def test_diagram_one_one_two():
    R = np.eye(3)
    R[0, 2] = R[2, 0] = 0.4
    R[1, 2] = R[2, 1] = 0.5
    val = diagram_expectation(DiagramSpec((1, 1, 2), R))
    assert math.isclose(val, math.sqrt(2) * 0.4 * 0.5, rel_tol=1e-12)


def test_diagram_single_vertex_mean():
    val = diagram_expectation(DiagramSpec((1,), np.eye(1), np.array([1.7])))
    assert val == 1.7


def test_diagram_mean_shifted_square():
    # E[h_2(x)] for x ~ N(mu, 1) is mu^2 / sqrt(2)
    mu = 0.9
    val = diagram_expectation(DiagramSpec((2,), np.eye(1), np.array([mu])))
    assert math.isclose(val, mu**2 / math.sqrt(2), rel_tol=1e-12)


def test_diagram_odd_degree_is_exactly_zero():
    for alpha in [(1,), (3,), (1, 2), (2, 2, 1)]:
        k = len(alpha)
        R = np.eye(k)
        if k > 1:
            R[0, 1] = R[1, 0] = 0.5
        assert diagram_expectation(DiagramSpec(alpha, R)) == 0.0


def test_diagram_orthonormality_closed_form():
    # E[h_a(x) h_b(y)] = delta_ab r^a; exact at dyadic r
    r = 0.5
    for a in range(5):
        for b in range(5):
            val = diagram_expectation(DiagramSpec((a, b), R_pair(r)))
            assert val == (r**a if a == b else 0.0), (a, b, val)


def test_diagram_degree_cap():
    with pytest.raises(ResourceBudgetError):
        diagram_expectation(DiagramSpec((6, 6), R_pair(0.2)))


def test_diagram_validates_R():
    with pytest.raises(ParameterError):
        DiagramSpec((1, 1), np.array([[1.0, 0.2], [0.3, 1.0]]))
    with pytest.raises(ParameterError):
        DiagramSpec((1, 1), np.array([[2.0, 0.2], [0.2, 1.0]]))


def test_diagram_rejects_a_nan_mean():
    # once gave an expectation of nan and a Monte-Carlo estimate of (nan, nan)
    with pytest.raises(ParameterError, match="mu must be finite"):
        DiagramSpec((1, 1), np.eye(2), [math.nan, 0.0])


def test_diagram_rejects_an_infinite_correlation():
    # once gave an expectation of inf
    with pytest.raises(ParameterError, match=r"off-diagonal entries in \[-1, 1\]"):
        DiagramSpec((1, 1), [[1.0, math.inf], [math.inf, 1.0]])


def test_diagram_rejects_a_correlation_above_one():
    # once gave an exact 3.0 while diagram_mc_oracle raised a bare LinAlgError
    with pytest.raises(ParameterError, match=r"off-diagonal entries in \[-1, 1\]"):
        DiagramSpec((1, 1), [[1.0, 3.0], [3.0, 1.0]])
    assert diagram_expectation(DiagramSpec((1, 1), [[1.0, -1.0], [-1.0, 1.0]])) == -1.0


# eigenvalues -0.8, 1.9 and 1.9: every check but positive semidefiniteness passes, and the
# exact formula once gave -1.1455 for alpha (1, 1, 2), a moment that no Gaussian vector has
_INDEFINITE_R = [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]]
_PSD_MESSAGE = "R must be positive semidefinite; its least eigenvalue is -0.8"


def test_diagram_spec_rejects_an_indefinite_correlation_matrix():
    with pytest.raises(ParameterError, match=_PSD_MESSAGE):
        DiagramSpec((1, 1, 2), _INDEFINITE_R)
    # the singular limits stay: a perfect anticorrelation, and a rank-2 cov / outer(sd, sd)
    # whose least eigenvalue rounds below 0
    DiagramSpec((1, 1), [[1.0, -1.0], [-1.0, 1.0]])
    G = np.array([[-2.33, -0.22], [-1.25, -0.73], [-0.54, -0.32]])
    cov = G @ G.T
    R = cov / np.outer(np.sqrt(np.diag(cov)), np.sqrt(np.diag(cov)))
    assert -1e-15 < np.linalg.eigvalsh(R)[0] < 0.0
    DiagramSpec((1, 1, 2), R)


def test_diagram_expectation_rejects_an_indefinite_correlation_matrix():
    spec = DiagramSpec((1, 1, 2), np.eye(3))
    with pytest.raises(ParameterError, match=_PSD_MESSAGE):
        diagram_expectation(replace(spec, R=_INDEFINITE_R))
    with pytest.raises(ValueError, match="read-only"):  # nor can a checked spec's R be changed after the check
        spec.R[0, 2] = spec.R[2, 0] = -0.9
    assert diagram_expectation(DiagramSpec((1, 1), [[1.0, -1.0], [-1.0, 1.0]])) == -1.0


def test_diagram_mc_oracle_rejects_an_indefinite_correlation_matrix():
    # the oracle once raised a bare numpy LinAlgError ("Matrix is not positive definite")
    spec = DiagramSpec((1, 1, 2), np.eye(3))
    with pytest.raises(ParameterError, match=_PSD_MESSAGE):
        diagram_mc_oracle(replace(spec, R=_INDEFINITE_R), samples=1000, seed=3)
    mc, se = diagram_mc_oracle(DiagramSpec((1, 1), [[1.0, -1.0], [-1.0, 1.0]]), samples=1000, seed=3)
    assert abs(mc + 1.0) <= 4 * se  # x * y = -x^2 there, of mean -1


def test_hermite_check_correlation_matrices_pass_the_semidefinite_check():
    # R = cov / outer(sd, sd), as hermite-check builds it, over many draws
    rng = generator(11)
    for _ in range(500):
        k = int(rng.integers(2, 4))
        G = rng.standard_normal((k, k + 1))
        cov = G @ G.T
        dd = np.sqrt(np.diag(cov))
        DiagramSpec((1,) * k, cov / np.outer(dd, dd))


def test_diagram_matches_mc_oracle_with_means():
    rng = generator(5150)
    for trial in range(3):
        k = int(rng.integers(2, 4))
        G = rng.standard_normal((k, k + 1))
        cov = G @ G.T
        dd = np.sqrt(np.diag(cov))
        R = cov / np.outer(dd, dd)
        alpha = tuple(int(a) for a in rng.integers(0, 3, size=k))
        if sum(alpha) == 0:
            alpha = (1,) + alpha[1:]
        mu = rng.standard_normal(k) * 0.7 if trial % 2 else None
        spec = DiagramSpec(alpha, R, mu)
        exact = diagram_expectation(spec)
        mc, se = diagram_mc_oracle(spec, samples=400_000, seed=60 + trial)
        assert abs(mc - exact) <= 4 * max(se, 1e-9), (alpha, exact, mc, se)


def _hermite_check_spec(alpha: tuple, seed: int, shifted: bool) -> DiagramSpec:
    """A spec drawn as hermite-check draws one: R from a random (k, k+1) factor, mu of scale 0.5."""
    rng = generator(seed)
    k = len(alpha)
    G = rng.standard_normal((k, k + 1))
    cov = G @ G.T
    dd = np.sqrt(np.diag(cov))
    return DiagramSpec(alpha, cov / np.outer(dd, dd), rng.standard_normal(k) * 0.5 if shifted else None)


@pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 7)])
@pytest.mark.parametrize("block_rows", [None, 2, 5])
@pytest.mark.parametrize("k", [1, 2, 3])
@settings(max_examples=10, deadline=None)
@given(alpha=st.tuples(*[st.integers(0, 2)] * 3), shifted=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_diagram_mc_oracle_streamed_equals_one_shot_bit_for_bit(blocks, extra, block_rows, k, alpha, shifted, seed):
    # samples = blocks * B + extra at the edges of the block's row count B; zero degrees and both mean
    # settings.  Blocks of a few rows (block_rows) let one row's last bit show in the mean: a last block
    # of one row once went through numpy's gemv and differed from the one-shot draw
    block_bytes = DIAGRAM_BLOCK_BYTES if block_rows is None else 8 * k * block_rows
    spec = _hermite_check_spec(alpha[:k], seed, shifted)
    samples = blocks * (block_bytes // (8 * k)) + extra
    with mock.patch.object(lowdeg, "DIAGRAM_BLOCK_BYTES", block_bytes):
        streamed = diagram_mc_oracle(spec, samples, seed)
    assert streamed == diagram_mc_oracle_oneshot(spec, samples, seed)


def test_diagram_mc_oracle_memory_is_one_float_a_sample_plus_blocks():
    # numpy reports its buffers to tracemalloc; drawn at once, k = 3 and 10^6 samples take 24 MB of normals
    # and 24 MB more for their correlated copy
    samples, blocks = 10**6, 4 * DIAGRAM_BLOCK_BYTES
    spec = _hermite_check_spec((2, 1, 2), seed=5, shifted=True)
    at_average = []

    def traced_mean_stderr(vals):
        at_average.append(tracemalloc.get_traced_memory()[1] - base)
        return mean_stderr(vals)

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with mock.patch.object(lowdeg, "mean_stderr", traced_mean_stderr):
            diagram_mc_oracle(spec, samples, seed=5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert at_average[0] <= 8 * samples + blocks  # the product, then the work of one block
    assert peak <= 16 * samples + blocks  # the standard deviation takes one more float a sample


@pytest.mark.parametrize("samples", [-3, 2.5, 1e3, True, "10", np.float64(4.0), None])
def test_diagram_mc_oracle_rejects_a_bad_sample_count(samples):
    # a negative count once raised numpy's "negative dimensions" ValueError, a float a bare TypeError
    with pytest.raises(ParameterError, match="samples"):
        diagram_mc_oracle(DiagramSpec((1, 1), R_pair(0.3)), samples, seed=1)


def test_diagram_mc_oracle_sample_count_forms():
    spec = DiagramSpec((1, 1), R_pair(0.3))
    assert diagram_mc_oracle(spec, np.int64(1000), seed=1) == diagram_mc_oracle(spec, 1000, seed=1)
    with pytest.raises(ParameterError, match="no values to average"):
        diagram_mc_oracle(spec, 0, seed=1)


@pytest.mark.parametrize("alpha", [(1.5, 1), (1.0, 1), (True, 1), (1, np.bool_(True)), (1, np.float64(2.0)),
                                   (1, "2"), (1, None)])
def test_diagram_spec_rejects_a_non_integer_degree(alpha):
    # (1.5, 1) and (1.0, 1) once failed later with a bare TypeError, and (True, 1) passed as degree 1
    with pytest.raises(ParameterError, match="alpha entries must be integers"):
        DiagramSpec(alpha, R_pair(0.3))


def test_diagram_spec_takes_numpy_integer_degrees():
    spec = DiagramSpec((np.int64(1), np.int32(1)), R_pair(0.3))
    assert diagram_expectation(spec) == 0.3
    assert diagram_mc_oracle(spec, 1000, seed=1) == diagram_mc_oracle(DiagramSpec((1, 1), R_pair(0.3)), 1000, seed=1)


# ---------------------------------------------------------------------------
# characters


def test_character_empty_index_is_one():
    params = RlcParams(m=3, n=2)
    empty = CharacterIndex.make()
    assert rlc_character_expectation(empty, empty, params, 0.5) == 1.0


def test_character_self_correlation_noiseless():
    params = RlcParams(m=3, n=2)
    for idx in enumerate_character_indices(params, max_degree=1):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            val = rlc_character_expectation(idx, idx, params, 0.0)
        assert math.isclose(val, 1.0, abs_tol=1e-12), (idx, val)


def test_character_noise_attenuation_on_y():
    params = RlcParams(m=3, n=2)
    idx = CharacterIndex.make(coords=[0])
    assert math.isclose(rlc_character_expectation(idx, idx, params, 0.5), 0.5, abs_tol=1e-12)


def _planted_character_moment(idx, params):
    """Independent direct enumeration of E[chi_{S,T}(A, Ax)] over (A, x)."""
    m, n = params.m, params.n
    total = 0.0
    for a_bits in range(2 ** (m * n)):
        A = [[(a_bits >> (i * n + j)) & 1 for j in range(n)] for i in range(m)]
        for x_bits in range(2**n):
            x = [(x_bits >> j) & 1 for j in range(n)]
            y = [sum(A[i][j] * x[j] for j in range(n)) % 2 for i in range(m)]
            v = 1.0
            for i, j in idx.S:
                v *= 2 * A[i][j] - 1
            for i in idx.T:
                v *= 2 * y[i] - 1
            total += v
    return total / 2 ** (m * n + n)


def test_character_orthogonality_when_codeword_parts_match():
    # with T1 == T2 the codeword factors square to 1 and the matrix characters
    # are exactly orthogonal
    params = RlcParams(m=3, n=2)
    indices = [i for i in enumerate_character_indices(params, max_degree=2) if len(i.T) <= 1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i1 in indices:
            for i2 in indices:
                if i1.S == i2.S or i1.T != i2.T:
                    continue
                val = rlc_character_expectation(i1, i2, params, 0.25)
                assert abs(val) <= 1e-12, (i1, i2, val)


def test_character_noise_factorization():
    # E[chi_1 * chi_2(T_rho)] always factors as (1-rho)^{|T2|} times the
    # noiseless planted moment of the symmetric difference
    params = RlcParams(m=3, n=2)
    rng = generator(31)
    indices = enumerate_character_indices(params, max_degree=2)
    picks = rng.choice(len(indices), size=12, replace=False)
    rho = 0.25
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for a in picks[:6]:
            for b in picks[6:]:
                i1, i2 = indices[int(a)], indices[int(b)]
                val = rlc_character_expectation(i1, i2, params, rho)
                diff = CharacterIndex(S=i1.S ^ i2.S, T=i1.T ^ i2.T)
                expect = (1 - rho) ** len(i2.T) * _planted_character_moment(diff, params)
                assert math.isclose(val, expect, abs_tol=1e-12), (i1, i2, val, expect)


def test_codeword_bit_is_not_exactly_uniform_at_small_n():
    # P(y_i = 1) = (1 - 2^{-n}) / 2 under the planted measure, so the
    # asymptotic orthogonality of characters with T1 != T2 has an exact
    # finite-size defect of order 2^{-n}
    params = RlcParams(m=3, n=2)
    idx = CharacterIndex.make(coords=[0])
    moment = _planted_character_moment(idx, params)
    assert math.isclose(moment, -(2.0**-params.n), abs_tol=1e-12)


def test_character_full_row_exception_exact_value():
    # S1 covers matrix row 0 and T2 = {0}: then chi_{S1}(A) * (2y_0 - 1) has
    # mean -1/4 (the x = (1,1) branch contributes -(2A00-1)^2 (2A01-1)^2),
    # and only an unresampled coordinate 0 survives, giving -(1-rho)/4.
    params = RlcParams(m=3, n=2)
    row = CharacterIndex.make(cells=[(0, 0), (0, 1)])
    ycoord = CharacterIndex.make(coords=[0])
    for rho in (0.0, 0.25, 0.5, 1.0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            val = rlc_character_expectation(row, ycoord, params, rho)
            swapped = rlc_character_expectation(ycoord, row, params, rho)
        assert math.isclose(val, -(1 - rho) / 4, abs_tol=1e-12)
        assert math.isclose(swapped, -1 / 4, abs_tol=1e-12)


@st.composite
def _character_case(draw):
    """(params, idx1, idx2) with 1 <= n <= m <= 3 and both indices of degree <= 2."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(n, 3))
    cells = [(i, j) for i in range(m) for j in range(n)]

    def index():
        S = draw(st.lists(st.sampled_from(cells), max_size=2, unique=True))
        T = draw(st.lists(st.integers(0, m - 1), max_size=2 - len(S), unique=True))
        return CharacterIndex.make(S, T)

    return RlcParams(m=m, n=n), index(), index()


def _closed_form_and_loop(case, rho):
    params, i1, i2 = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return rlc_character_expectation(i1, i2, params, rho), rlc_character_expectation_loop(i1, i2, params, rho)


@given(_character_case(), st.sampled_from([0.0, 0.25, 0.5, 1.0]))
@settings(max_examples=60, deadline=None)
def test_character_closed_form_equals_loop_at_dyadic_rho(case, rho):
    # every term of the loop is exact at dyadic rho, so the one-rounding
    # closed form must agree to the bit
    val, ref = _closed_form_and_loop(case, rho)
    assert val.hex() == float(ref).hex(), (case, rho, val, ref)


@given(_character_case(), st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_character_closed_form_matches_loop_at_any_rho(case, rho):
    val, ref = _closed_form_and_loop(case, rho)
    assert math.isclose(val, ref, rel_tol=0.0, abs_tol=1e-12), (case, rho, val, ref)


def test_character_benchmark_rows_bit_identical_to_loop():
    # the four criterion-04 table rows the exact benchmark workload evaluates:
    # (row index into the degree <= 2 indices at m=3, n=2, rho)
    params = RlcParams(m=3, n=2)
    indices = enumerate_character_indices(params, max_degree=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for row, rho in ((1, 0.25), (12, 0.0), (23, 0.5), (34, 1.0)):
            for idx2 in indices:
                val = rlc_character_expectation(indices[row], idx2, params, rho)
                ref = rlc_character_expectation_loop(indices[row], idx2, params, rho)
                assert val.hex() == float(ref).hex(), (row, rho, idx2, val, ref)


@pytest.mark.parametrize("rho", [1.5, math.nan])
def test_character_rejects_rho_outside_unit_interval(rho):
    idx = CharacterIndex.make(coords=[0])
    with pytest.raises(ParameterError, match="rho"):
        rlc_character_expectation(idx, idx, RlcParams(m=3, n=2), rho)


def test_character_budget():
    with pytest.raises(ResourceBudgetError):
        rlc_character_expectation(
            CharacterIndex.make(), CharacterIndex.make(), RlcParams(m=10, n=3), 0.5
        )


# ---------------------------------------------------------------------------
# stability ratios


def test_stability_ratio_constant_poly_is_zero():
    params = RlcParams(m=6, n=4)
    poly = RlcPoly(terms=((CharacterIndex.make(), 2.0),))
    r = stability_ratio(poly, params, rho=0.6, trials=50, seed=1)
    assert r.ratio == 0.0 and r.stderr == 0.0


def test_stability_ratio_zero_noise_is_zero():
    params = GssParams(N=10, k=2)
    poly = GssPoly(terms=(((), 1, 1.0),))
    r = stability_ratio(poly, params, rho=0.0, trials=400, seed=2)
    assert r.ratio == 0.0


def test_stability_ratio_zero_poly_ill_conditioned():
    params = RlcParams(m=6, n=4)
    poly = RlcPoly(terms=())
    with pytest.raises(IllConditionedError):
        stability_ratio(poly, params, rho=0.5, trials=50, seed=3)


# model -> (params, random polynomial maker, one-observation oracle (poly, observation, params) -> value)
POLY_CASES = {
    "rlc": (RlcParams(m=7, n=5), random_rlc_poly, lambda poly, obs, params: rlc_poly_evaluate_loop(poly, obs)),
    "gss": (GssParams(N=12, k=3), random_gss_poly, gss_poly_evaluate_loop),
    "psp": (PspParams(n=9, L=3, q=0.3), random_psp_symmetric_poly, psp_poly_evaluate_loop),
}
POLY_TYPES = {"rlc": RlcPoly, "gss": GssPoly, "psp": PspSymmetricPoly}


def _clean_and_noisy(params, rho, seed, trials) -> list:
    """The clean observations of a coupled run, one per trial, then the noisy ones."""
    pairs = CoupledTrials(params, [(rho, None)], seed, trials).map(
        lambda start, run, noisy: [(batch_rows(run.observation, i), batch_rows(noisy, i)) for i in range(len(run))]
    )
    return [clean for clean, _ in pairs] + [noisy for _, noisy in pairs]


def _stacked_clean_and_noisy(params, rho, seed, trials) -> list:
    """The two stacked observations of the one run of trials (trials <= EVAL_CHUNK): clean, then noisy."""
    (arms,) = CoupledTrials(params, [(rho, None)], seed, trials).map(lambda start, run, noisy: [(run.observation, noisy)])
    return list(arms)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


@settings(max_examples=30, deadline=None)
@given(
    model=st.sampled_from(sorted(POLY_CASES)),
    seed=st.integers(0, 2**32),
    degree=st.integers(1, 2),
    trials=st.integers(1, 9),
)
def test_evaluate_many_bit_identical_to_one_observation_loop(model, seed, degree, trials):
    params, make, loop = POLY_CASES[model]
    poly = make(params, degree, generator(seed))
    observations = _clean_and_noisy(params, 0.4, seed, trials)
    want = _hex(loop(poly, obs, params) for obs in observations)
    assert _hex(poly.evaluate_many(stack_observations(observations), params)) == want
    # the run record's stacked clean and noisy observations, read with no restacking
    assert [v for arm in _stacked_clean_and_noisy(params, 0.4, seed, trials) for v in _hex(poly.evaluate_many(arm, params))] == want
    values = [poly.evaluate(obs, params) for obs in observations]
    assert all(type(v) is float for v in values) and _hex(values) == want


@pytest.mark.parametrize("model", sorted(POLY_CASES))
def test_evaluate_many_of_empty_poly_is_zero(model):
    params, _, loop = POLY_CASES[model]
    poly = POLY_TYPES[model](terms=())
    observations = _clean_and_noisy(params, 0.5, 3, 4)
    batch = stack_observations(observations)
    assert _hex(poly.evaluate_many(batch, params)) == _hex(loop(poly, obs, params) for obs in observations)
    assert _hex(poly.evaluate_many(batch, params)) == [(0.0).hex()] * 8


def _psp_twos(obs):
    return 2 * obs.astype(int)


def _gss_nan_y(obs):
    return obs[0], math.nan


# (params of the polynomial, params of the observation, change to the observation, error);
# each observation was once evaluated to a number
OUTSIDE_CASES = {
    "psp-larger-n": (PspParams(n=8, L=3, q=0.3), PspParams(n=10, L=3, q=0.3), None, "edges has shape"),
    "rlc-smaller-code": (RlcParams(m=8, n=5), RlcParams(m=6, n=4), None, "A has shape"),
    "gss-smaller-N": (GssParams(N=12, k=3), GssParams(N=8, k=3), None, "X has shape"),
    "psp-twos": (PspParams(n=8, L=3, q=0.3), PspParams(n=8, L=3, q=0.3), _psp_twos, "edges entries must be 0 or 1"),
    "gss-nan-y": (GssParams(N=12, k=3), GssParams(N=12, k=3), _gss_nan_y, "Y must be finite"),
}


@pytest.mark.parametrize("case", OUTSIDE_CASES)
def test_evaluate_many_rejects_observations_outside_the_model(case):
    params, observed, change, message = OUTSIDE_CASES[case]
    poly = POLY_CASES[model_name(params)][1](params, 2, generator(5))
    obs = trial_observation(sample_instance(observed, seed=6))
    with pytest.raises(ParameterError, match=message):
        poly.evaluate_many(stack_observations([change(obs) if change else obs]), params)


# a polynomial at another model's params, or at params its terms reach past -> (the call, the error it raises);
# the first returned a StabilityRatio read off GSS's (X, Y) as (A, y), the next two raised a bare AttributeError
# and the last three a bare IndexError
FOREIGN_PARAMS_CASES = {
    "rlc-poly-at-gss-params-in-stability-ratio": (
        lambda: stability_ratio(random_rlc_poly(RlcParams(m=6, n=4), 2, generator(1)), GssParams(N=8, k=2), 0.3, 50, 1),
        "RlcPoly takes RlcParams, got GssParams",
    ),
    "gss-poly-at-rlc-params": (
        lambda: random_gss_poly(GssParams(N=8, k=2), 2, generator(1)).evaluate_many(
            _run_observation(RlcParams(m=6, n=4)), RlcParams(m=6, n=4)
        ),
        "GssPoly takes GssParams, got RlcParams",
    ),
    "psp-poly-at-rlc-params": (
        lambda: random_psp_symmetric_poly(PspParams(n=8, L=3, q=0.3), 2, generator(1)).evaluate_many(
            _run_observation(RlcParams(m=6, n=4)), RlcParams(m=6, n=4)
        ),
        "PspSymmetricPoly takes PspParams, got RlcParams",
    ),
    "rlc-poly-past-the-code": (
        lambda: RlcPoly(((CharacterIndex.make([(5, 3), (1, 1)], [4]), 1.0),)).evaluate_many(
            _run_observation(RlcParams(m=3, n=2)), RlcParams(m=3, n=2)
        ),
        "RlcPoly terms read rows [4, 5], outside 0..2 at RlcParams(m=3, n=2)",
    ),
    "rlc-poly-past-the-columns": (
        lambda: RlcPoly(((CharacterIndex.make([(0, 3)]), 1.0),)).evaluate_many(
            _run_observation(RlcParams(m=6, n=2)), RlcParams(m=6, n=2)
        ),
        "RlcPoly terms read columns [3], outside 0..1 at RlcParams(m=6, n=2)",
    ),
    "gss-poly-past-N": (
        lambda: GssPoly(((((2, 1), (18, 1)), 0, 1.0),)).evaluate_many(
            _run_observation(GssParams(N=8, k=2)), GssParams(N=8, k=2)
        ),
        "GssPoly terms read coordinates [18], outside 0..7 at GssParams(N=8, k=2)",
    ),
}


def _run_observation(params):
    return chunk_sampler(params)(3, generator).observation


@pytest.mark.filterwarnings("ignore:degree")
@pytest.mark.parametrize("case", FOREIGN_PARAMS_CASES)
def test_polynomials_reject_another_models_params_or_a_term_outside_them(case):
    call, message = FOREIGN_PARAMS_CASES[case]
    with pytest.raises(ParameterError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("model", sorted(POLY_CASES))
def test_evaluate_many_of_an_empty_batch_is_empty(model):
    # numpy's np.stack raised a bare ValueError on no observations; every estimator returns shape (0,)
    params, random_poly, _ = POLY_CASES[model]
    empty = batch_rows(sample_instance(params, seed=6).observation, slice(0, 0))
    out = random_poly(params, 2, generator(5)).evaluate_many(empty, params)
    assert out.shape == (0,) and out.dtype == np.float64


# model -> (params of the polynomial, params of a second observation in the same batch, the error)
MIXED_CASES = {
    "rlc": (RlcParams(m=8, n=5), RlcParams(m=6, n=4), "A has shape \\(6, 4\\), expected \\(8, 5\\)"),
    "gss": (GssParams(N=12, k=3), GssParams(N=8, k=3), "X has shape \\(8,\\), expected \\(12,\\)"),
    "psp": (PspParams(n=8, L=3, q=0.3), PspParams(n=10, L=3, q=0.3), "edges has shape \\(45,\\), expected \\(28,\\)"),
}


@pytest.mark.parametrize("model", sorted(MIXED_CASES))
def test_evaluate_many_rejects_a_batch_of_mixed_shapes(model):
    # numpy's np.stack raised a bare ValueError ("all input arrays must have the same shape"); a list of
    # the two is no batch, and a stack of the second names its shape
    params, other, message = MIXED_CASES[model]
    poly = POLY_CASES[model][1](params, 2, generator(5))
    batch = [trial_observation(sample_instance(params, seed=6)), trial_observation(sample_instance(other, seed=6))]
    with pytest.raises(ParameterError, match="not stacked|got a list"):
        poly.evaluate_many(batch, params)
    with pytest.raises(ParameterError, match=message):
        poly.evaluate_many(stack_observations(batch[1:] * 2), params)


def test_psp_evaluate_many_splits_the_largest_shape_across_gathers():
    params = PspParams(n=10, L=3, q=0.3)
    shape = ((3, 4), (5, 6))
    per_trial = placements(shape, params.n).size
    assert per_trial == 1680 * 2
    poly = PspSymmetricPoly(terms=((shape, 0.7), (((1, 3),), -1.2)))
    trials = 2 * (PSP_GATHER_ELEMENTS // per_trial) + 5  # over two gathers, not a multiple of one
    observations = _clean_and_noisy(params, 0.3, 5, trials)
    want = _hex(psp_poly_evaluate_loop(poly, obs, params) for obs in observations)
    assert _hex(poly.evaluate_many(stack_observations(observations), params)) == want


def test_psp_shape_without_placements_contributes_zero():
    # ((3,4),(5,6)) needs four non-endpoint vertices; n = 5 has three
    params = PspParams(n=5, L=3, q=0.3)
    edges = sample_instance(params, seed=4).edges[0]
    both = PspSymmetricPoly(terms=((((3, 4), (5, 6)), 1.0), (((1, 3),), 2.0)))
    single = PspSymmetricPoly(terms=((((1, 3),), 2.0),))
    assert both.evaluate(edges, params) == single.evaluate(edges, params)


# edges over labels 1..7: paths, stars, triangles, disjoint edges and the pinned (1, 2) all occur,
# and at small n many shapes have no placement
_psp_edges = st.tuples(st.integers(1, 7), st.integers(1, 7)).filter(lambda e: e[0] != e[1])


@settings(max_examples=60, deadline=None)
@given(
    shapes=st.lists(st.lists(_psp_edges, max_size=3).map(tuple), min_size=1, max_size=3),
    n=st.integers(3, 11),
    q=st.floats(0.01, 0.99),
    blocks=st.integers(1, 3),
    trials=st.integers(1, 9),
    seed=st.integers(0, 2**32),
)
def test_psp_evaluate_many_matches_the_placement_loop(shapes, n, q, blocks, trials, seed):
    params = PspParams(n=n, L=2, q=q)
    rng = generator(seed)
    poly = PspSymmetricPoly(terms=tuple((shape, float(rng.standard_normal())) for shape in shapes))
    pairs = n * (n - 1) // 2
    observations = [rng.random(pairs) < q for _ in range(trials)]
    want = _hex(psp_poly_evaluate_loop(poly, obs, params) for obs in observations)
    # a block holds gather // (placement indices per trial) rows, so the widest shape spans up to `blocks` blocks
    widest = max(placements(shape, n).size for shape in shapes)
    gather = max(widest, 1) * -(-trials // blocks)
    with mock.patch.object(lowdeg, "PSP_GATHER_ELEMENTS", gather):
        assert _hex(poly.evaluate_many(np.array(observations), params)) == want  # as a run's stacked edges
        with pytest.raises(ParameterError, match="edges is not stacked"):
            poly.evaluate_many(observations, params)


@pytest.mark.parametrize("P", [1, 7, 8, 9, 127, 128, 129, 336, 1680])
def test_row_sums_of_a_c_ordered_block_are_the_1d_pairwise_sums(P):
    # evaluate_many relies on numpy summing each contiguous row of a (T, P)
    # block as a 1-D sum does; the strided rows of a fancy gather are not
    rng = np.random.default_rng(P)
    centered = rng.standard_normal((37, 45)) * 10.0 ** rng.integers(-6, 7, size=(37, 45))
    maps = rng.integers(0, 45, size=(P, 2))
    prods = np.take(centered, maps[:, 0], axis=1)
    prods *= np.take(centered, maps[:, 1], axis=1)
    gathered = centered[:, maps].prod(axis=2)
    assert prods.flags.c_contiguous and gathered.flags.f_contiguous and np.array_equal(prods, gathered)
    rows = _hex(np.array(row).sum() for row in prods)
    assert _hex(prods.sum(axis=1)) == rows
    if P >= 8:
        assert _hex(gathered.sum(axis=1)) != rows


# every library shape, and hand-made ones: three disjoint edges, a triangle, a star on a pinned
# vertex, a repeated edge, and the empty shape
_TABLE_SHAPES = [shape for shapes in PSP_SHAPE_LIBRARY.values() for shape in shapes] + [
    ((3, 4), (5, 6), (7, 8)),
    ((3, 4), (4, 5), (5, 3)),
    ((1, 3), (1, 4), (1, 5)),
    ((3, 4), (4, 3), (5, 6)),
    (),
]


@pytest.mark.parametrize("shape", _TABLE_SHAPES, ids=repr)
def test_product_table_expands_to_the_placement_products(shape):
    rng = np.random.default_rng(len(shape))
    for n in range(3, 12):
        maps = placements(shape, n)
        factors, expand = product_table(shape, n)
        assert not factors.flags.writeable and (expand is None or not expand.flags.writeable)
        # placement p multiplies the factors of its product up to a swap of the first two, the
        # only reordering that cannot change the last bit, so placements that share a product
        # have equal products
        rows = factors.T[np.arange(len(maps)) if expand is None else expand]
        swapped = rows.copy()
        swapped[:, :2] = rows[:, 1::-1]
        assert ((rows == maps).all(axis=1) | (swapped == maps).all(axis=1)).all()
        # and no product is computed twice where the table expands
        if expand is not None:
            canonical = factors.T.copy()
            canonical[:, :2].sort(axis=1)
            assert len(np.unique(canonical, axis=0)) == factors.shape[1] < len(maps)
        # the expanded products, in edge order, are the per-placement products hex for hex
        centered = rng.standard_normal((5, n * (n - 1) // 2)) * 10.0 ** rng.integers(-6, 7, size=(5, n * (n - 1) // 2))
        want = np.ones((5, len(maps)))
        for col in maps.T:
            want = want * centered[:, col]
        got = np.ones((5, factors.shape[1]))
        for col in factors:
            got = got * centered[:, col]
        got = got if expand is None else got[:, expand]
        assert _hex(got.ravel()) == _hex(want.ravel())


def test_product_table_shares_the_symmetric_placements_at_the_benchmark_size():
    # n = 10: eight free vertices; a shape's products are its placements over the swaps it allows
    sizes = {shape: product_table(shape, 10)[0].shape[1] for shape in _TABLE_SHAPES}
    assert sizes[((3, 4), (5, 6))] == 1680 // 8  # each edge reversed, the two edges swapped
    assert sizes[((3, 4), (5, 6), (7, 8))] == 20160 // 16  # the third edge is not swapped
    assert sizes[((3, 4), (4, 5), (5, 3))] == 336 // 2  # the triangle's first two edges swapped
    # two edges with half as many products as placements: the gather back costs what sharing saves
    assert sizes[((3, 4), (4, 5))] == 336 and product_table(((3, 4), (4, 5)), 10)[1] is None
    assert sizes[((1, 3), (1, 4))] == 56
    assert sizes[((1, 3), (3, 4))] == 56 and sizes[((3, 4),)] == 56  # no swap, and a one-factor product


def test_psp_constant_shape_is_the_constant_term():
    params = PspParams(n=8, L=3, q=0.3)
    edges = sample_instance(params, seed=3).edges[0]
    poly = PspSymmetricPoly(terms=(((), 1.5), (((1, 3),), 2.0)))
    want = psp_poly_evaluate_loop(poly, edges, params)
    assert poly.evaluate(edges, params).hex() == want.hex()
    assert poly.evaluate(edges, params) == 1.5 + PspSymmetricPoly(terms=((((1, 3),), 2.0),)).evaluate(edges, params)


@pytest.mark.parametrize("q", [0.0, 1.0])
def test_psp_poly_rejects_q_without_a_centered_basis(q):
    # sqrt(q(1-q)) = 0: the edge basis once divided by it and returned nan
    params = PspParams(n=8, L=3, q=q)
    edges = sample_instance(params, seed=3).edges[0]
    poly = PspSymmetricPoly(terms=((((1, 3),), 1.0),))
    with pytest.raises(ParameterError, match="0 < q < 1"):
        poly.evaluate_many([edges], params)


@pytest.mark.parametrize("model", sorted(POLY_CASES))
def test_stability_ratio_bit_identical_to_trial_loop(model):
    params, make, loop = POLY_CASES[model]
    # random GSS and PSP polynomials are heavy-tailed; this seed's clear the
    # 10-stderr guard on E[f^2] for all three models
    poly = make(params, 2, generator(13))
    trials = EVAL_CHUNK + 37  # a partial last chunk
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        r = stability_ratio(poly, params, 0.3, trials, seed=8)
    ratio, stderr = stability_ratio_loop(lambda obs: loop(poly, obs, params), params, 0.3, trials, 8)
    assert (r.ratio.hex(), r.stderr.hex()) == (ratio.hex(), stderr.hex())


@pytest.mark.parametrize("model", sorted(POLY_CASES))
def test_stability_ratio_takes_the_trial_loops_moments_elementwise(model, monkeypatch):
    # (a - b) ** 2 and a ** 2 of Python floats call libm's pow, which differs in the last bit from
    # numpy's x * x on about one pair in a thousand; equal sums alone could hide such a pair
    params, make, loop = POLY_CASES[model]
    poly = make(params, 2, generator(13))
    trials = EVAL_CHUNK + 37
    seen = []

    def capture(num, den):
        seen.append((num, den))
        return ratio_with_stderr(num, den)

    monkeypatch.setattr(lowdeg, "ratio_with_stderr", capture)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stability_ratio(poly, params, 0.3, trials, seed=8)
    ((num, den),) = seen
    want_num, want_den = stability_moments_loop(lambda obs: loop(poly, obs, params), params, 0.3, trials, 8)
    assert len(num) == len(den) == trials
    assert _hex(num) == _hex(want_num) and _hex(den) == _hex(want_den)


def test_rlc_pure_codeword_character_sits_at_bound():
    params = RlcParams(m=12, n=8)
    rho = 0.3
    poly = RlcPoly(terms=((CharacterIndex.make(coords=[0, 1]), 1.0),))
    r = stability_ratio(poly, params, rho, trials=4000, seed=4)
    bound = rlc_stability_bound(2, rho)
    assert abs(r.ratio - bound) <= 3 * r.stderr


def test_gss_pure_hermite_term_sits_at_bound():
    # at k = 1, y = Y is one standard normal and its noisy copy has correlation sqrt(1 - rho^2), so h_1(y)
    # has ratio 2 (1 - sqrt(1 - rho^2)) exactly
    r = stability_ratio(GssPoly(terms=(((), 1, 1.0),)), GssParams(N=6, k=1), 0.5, trials=4000, seed=5)
    assert abs(r.ratio - gss_stability_bound(1, 0.5)) <= 3 * r.stderr


def test_random_rlc_polys_respect_bound():
    params = RlcParams(m=12, n=8)
    rho = 0.3
    rng = generator(3)
    for p in range(5):
        poly = random_rlc_poly(params, degree=2, rng=rng)
        r = stability_ratio(poly, params, rho, trials=1500, seed=40 + p)
        assert r.ratio <= rlc_stability_bound(poly.degree, rho) + 3 * r.stderr


def test_degree_regime_warning():
    params = RlcParams(m=6, n=2)
    poly = RlcPoly(terms=((CharacterIndex.make(coords=[0, 1]), 1.0),))
    with pytest.warns(UserWarning):
        stability_ratio(poly, params, rho=0.2, trials=30, seed=5)


# ---------------------------------------------------------------------------
# symmetrization


def test_symmetrize_single_edge_indicator():
    params = PspParams(n=8, L=3, q=0.3)

    def g(adj):
        return float(adj[3, 4])

    report = symmetrize_check(g, (3, 4), params, trials=300, seed=6, n_perms=300)
    se = math.sqrt(report.stderr_raw**2 + report.stderr_symmetrized**2)
    assert report.mse_symmetrized <= report.mse_raw + 3 * se


def test_symmetrize_already_symmetric_estimator():
    params = PspParams(n=7, L=2, q=0.4)

    def g(adj):
        # degree of vertex 1: invariant under permutations fixing {1, 2}
        return float(adj[1, 1:].sum()) / 5.0

    report = symmetrize_check(g, (1, 3), params, trials=150, seed=7, n_perms=100)
    se = math.sqrt(report.stderr_raw**2 + report.stderr_symmetrized**2)
    assert abs(report.mse_raw - report.mse_symmetrized) <= max(3 * se, 1e-12)


def test_planted_measure_permutation_invariance():
    # MSE of g on relabeled instances equals MSE of g composed with the
    # relabeling, up to MC error
    params = PspParams(n=8, L=3, q=0.3)
    perm = np.array([0, 1, 2, 5, 3, 6, 4, 8, 7])  # fixes 0 (unused), 1 and 2

    def g(adj):
        return float(adj[3, 4])

    trials = 4000
    a = np.empty(trials)
    b = np.empty(trials)
    from plantedlab.rng import derive_seed

    relabeled_target = tuple(sorted((int(perm[3]), int(perm[4]))))
    for t in range(trials):
        inst = sample_instance(params, derive_seed(8, 0, t))
        truth = float((3, 4) in path_edges(inst.path[0].tolist()))
        a[t] = (g(psp_adjacency_loop(inst.edges[0], params.n)) - truth) ** 2
        inst2 = sample_instance(params, derive_seed(8, 1, t))
        truth2 = float(relabeled_target in path_edges(inst2.path[0].tolist()))
        b[t] = (g(psp_adjacency_loop(inst2.edges[0], params.n)[np.ix_(perm, perm)]) - truth2) ** 2
    se = math.sqrt(a.var(ddof=1) / trials + b.var(ddof=1) / trials)
    assert abs(a.mean() - b.mean()) <= 3 * se
