import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plantedlab.errors import DegenerateInputError, ParameterError
from plantedlab.models import GssParams, sample_gss
from plantedlab.rng import derive_seed, generator
from plantedlab.solvers import (
    LllConfig,
    exhaustive_subset_sum,
    f2_rank,
    f2_solve,
    lll_reduce,
    lll_subset_sum,
    shortest_path,
)

from oracles import all_simple_paths, f2_solution_set, lattice_coordinates


def adjacency_from_edges(n, edges):
    adj = np.zeros((n + 1, n + 1), dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    return adj


# ---------------------------------------------------------------------------
# shortest path


def test_shortest_path_trivial_path():
    adj = adjacency_from_edges(3, [(1, 3), (3, 2)])
    assert shortest_path(adj) == (1, 3, 2)


def test_shortest_path_disconnected():
    adj = adjacency_from_edges(4, [(1, 3), (2, 4)])
    assert shortest_path(adj) is None


def test_shortest_path_complete_graph_direct_edge():
    adj = adjacency_from_edges(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
    assert shortest_path(adj) == (1, 2)


def test_shortest_path_lexicographic_tie_break():
    # two shortest 1-x-2 paths; x in {3, 4}: pick 3
    adj = adjacency_from_edges(4, [(1, 3), (3, 2), (1, 4), (4, 2)])
    assert shortest_path(adj) == (1, 3, 2)


def test_shortest_path_against_exhaustive_enumeration():
    rng = generator(5)
    for _ in range(300):
        n = int(rng.integers(3, 11))
        p = float(rng.random() * 0.6)
        adj = np.zeros((n + 1, n + 1), dtype=bool)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if rng.random() < p:
                    adj[i, j] = adj[j, i] = True
        got = shortest_path(adj)
        everything = all_simple_paths(adj)
        if not everything:
            assert got is None
            continue
        best_len = min(len(p) for p in everything)
        shortest = sorted(p for p in everything if len(p) == best_len)
        assert got == shortest[0]


# ---------------------------------------------------------------------------
# GF(2)


def test_f2_identity_system():
    n = 5
    A = np.eye(n, dtype=np.uint8)
    y = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    sol = f2_solve(A, y)
    assert sol.kind == "unique"
    assert np.array_equal(sol.particular, y)
    assert sol.nullspace_basis == []


def test_f2_zero_matrix_inconsistent():
    A = np.zeros((3, 4), dtype=np.uint8)
    y = np.array([0, 1, 0], dtype=np.uint8)
    assert f2_solve(A, y).kind == "inconsistent"


def test_f2_hand_back_substitution():
    A = np.array([[1, 1], [0, 1]], dtype=np.uint8)
    y = np.array([1, 1], dtype=np.uint8)
    sol = f2_solve(A, y)
    assert sol.kind == "unique"
    assert np.array_equal(sol.particular, np.array([0, 1], dtype=np.uint8))


def test_f2_dimension_mismatch():
    with pytest.raises(ParameterError):
        f2_solve(np.zeros((3, 2), dtype=np.uint8), np.zeros(4, dtype=np.uint8))


def test_f2_solution_set_contains_truth():
    rng = generator(17)
    for _ in range(1000):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, 8))
        A = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
        x = rng.integers(0, 2, size=n, dtype=np.uint8)
        y = (A @ x) % 2
        sol = f2_solve(A, y.astype(np.uint8))
        assert sol.kind in ("unique", "affine")
        sols = f2_solution_set(sol)
        assert any(np.array_equal(s, x) for s in sols)
        for s in sols:
            assert np.array_equal((A @ s) % 2, y)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=30, deadline=None)
def test_f2_rank_matches_numpy_oracle(seed):
    rng = generator(seed)
    m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    A = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
    # oracle: brute count of distinct row-space elements = 2^rank
    span = {0}
    packed = [int(sum(int(A[i, j]) << j for j in range(n))) for i in range(m)]
    for row in packed:
        span |= {v ^ row for v in span}
    assert 2 ** f2_rank(A) == len(span)


# ---------------------------------------------------------------------------
# LLL


def test_lll_identity_basis_unchanged():
    basis = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert lll_reduce(basis) == basis


def test_lll_hand_example():
    assert lll_reduce([[2, 0], [1, 1]], delta=0.75) == [[1, 1], [1, -1]]


def test_lll_dependent_rows_raise():
    with pytest.raises(DegenerateInputError):
        lll_reduce([[1, 2], [2, 4]])


def test_lll_bad_delta():
    with pytest.raises(ParameterError):
        lll_reduce([[1, 0], [0, 1]], delta=0.2)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=25, deadline=None)
def test_lll_preserves_lattice_membership(seed):
    rng = generator(seed)
    dim = int(rng.integers(2, 5))
    while True:
        basis = rng.integers(-9, 10, size=(dim, dim)).tolist()
        if round(np.linalg.det(np.array(basis, dtype=float))) != 0:
            break
    reduced = lll_reduce(basis, delta=0.75)
    for row in reduced:
        coords = lattice_coordinates(basis, row)
        assert coords is not None
    for row in basis:
        coords = lattice_coordinates(reduced, row)
        assert coords is not None


# ---------------------------------------------------------------------------
# subset sum


def test_subset_sum_k_one_exact_hit():
    X = np.array([0.3, -1.2, 2.0, 0.7])
    assert lll_subset_sum(X, float(X[3]), 1) == (3,)


def test_subset_sum_recovers_planted():
    params = GssParams(N=20, k=3)
    cfg = LllConfig(bits=128)
    hits = 0
    for t in range(20):
        inst = sample_gss(params, seed=derive_seed(2024, 0, t))
        got = lll_subset_sum(inst.X, inst.Y, 3, cfg)
        oracle, err = exhaustive_subset_sum(inst.X, inst.Y, 3)
        assert oracle == inst.S and err == 0.0
        hits += got == oracle
    assert hits >= 19


def test_subset_sum_perturbed_target_returns_none():
    params = GssParams(N=20, k=3)
    cfg = LllConfig(bits=128)
    inst = sample_gss(params, seed=derive_seed(2024, 0, 0))
    shifted = inst.Y + 1.0
    _, err = exhaustive_subset_sum(inst.X, shifted, 3)
    assert err > 20 * 2.0 ** (2 - 128)
    assert lll_subset_sum(inst.X, shifted, 3, cfg) is None


def test_subset_sum_invalid_k():
    with pytest.raises(ParameterError):
        lll_subset_sum(np.ones(4), 1.0, 5)


def test_lll_config_validation():
    with pytest.raises(ParameterError):
        LllConfig(delta=1.5)
    with pytest.raises(ParameterError):
        LllConfig(bits=8)
