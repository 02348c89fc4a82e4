import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import rlc_character_expectation_loop
from plantedlab.errors import IllConditionedError, ParameterError, ResourceBudgetError
from plantedlab.lowdeg import (
    CharacterIndex,
    DiagramSpec,
    GssPoly,
    PspSymmetricPoly,
    RlcPoly,
    diagram_expectation,
    diagram_mc_oracle,
    enumerate_character_indices,
    hermite_eval,
    random_gss_poly,
    random_psp_symmetric_poly,
    random_rlc_poly,
    rlc_character_expectation,
    rlc_stability_bound,
    stability_ratio,
    symmetrize_check,
)
from plantedlab.models import GssParams, PspParams, RlcParams, sample_psp
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


def test_rlc_pure_codeword_character_sits_at_bound():
    params = RlcParams(m=12, n=8)
    rho = 0.3
    poly = RlcPoly(terms=((CharacterIndex.make(coords=[0, 1]), 1.0),))
    r = stability_ratio(poly, params, rho, trials=4000, seed=4)
    bound = rlc_stability_bound(2, rho)
    assert abs(r.ratio - bound) <= 3 * r.stderr


def test_random_rlc_polys_respect_bound():
    params = RlcParams(m=12, n=8)
    rho = 0.3
    rng = generator(3)
    for p in range(5):
        poly = random_rlc_poly(params, degree=2, rng=rng)
        r = stability_ratio(poly, params, rho, trials=1500, seed=40 + p)
        assert r.ratio <= rlc_stability_bound(poly.degree, rho) + 3 * r.stderr


def test_poly_json_round_trips():
    rng = generator(9)
    rl = random_rlc_poly(RlcParams(m=5, n=4), 2, rng)
    assert RlcPoly.from_json(rl.to_json()) == rl
    gs = random_gss_poly(GssParams(N=8, k=2), 2, rng)
    assert GssPoly.from_json(gs.to_json()) == gs
    ps = random_psp_symmetric_poly(PspParams(n=8, L=3, q=0.3), 2, rng)
    assert PspSymmetricPoly.from_json(ps.to_json()) == ps


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
    from plantedlab.models import path_edges
    from plantedlab.rng import derive_seed

    relabeled_target = tuple(sorted((int(perm[3]), int(perm[4]))))
    for t in range(trials):
        inst = sample_psp(params, derive_seed(8, 0, t))
        truth = float((3, 4) in path_edges(inst.path))
        a[t] = (g(inst.adjacency) - truth) ** 2
        inst2 = sample_psp(params, derive_seed(8, 1, t))
        truth2 = float(relabeled_target in path_edges(inst2.path))
        b[t] = (g(inst2.adjacency[np.ix_(perm, perm)]) - truth2) ** 2
    se = math.sqrt(a.var(ddof=1) / trials + b.var(ddof=1) / trials)
    assert abs(a.mean() - b.mean()) <= 3 * se
