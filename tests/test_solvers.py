import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plantedlab import solvers
from plantedlab.errors import DegenerateInputError, ParameterError
from plantedlab.models import GssParams, PspParams, sample_instance, vertex_pairs
from plantedlab.rng import derive_seed, generator
from plantedlab.solvers import (
    LllConfig,
    _gram_det,
    _truncate,
    exhaustive_subset_sum,
    f2_rank,
    f2_ranks,
    f2_rref,
    f2_solve,
    lll_reduce,
    lll_subset_sum,
    pack_words,
    shortest_path,
    shortest_paths,
)

from oracles import (
    all_simple_paths,
    exhaustive_subset_sum_loop,
    f2_eliminate_loop,
    f2_solution_set,
    f2_solve_loop,
    gram_det_loop,
    lattice_coordinates,
    pack_rows_loop,
    psp_adjacency_loop,
    psp_edge_vector_loop,
    shortest_path_lists,
    shortest_path_loop,
)


def edge_vector(n, edges):
    """The edge vector over the pairs of [n] of a graph given by its edge list."""
    adj = np.zeros((n + 1, n + 1), dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    return psp_edge_vector_loop(adj, n)


# ---------------------------------------------------------------------------
# shortest path


def test_shortest_path_trivial_path():
    assert shortest_path(edge_vector(3, [(1, 3), (3, 2)]), 3) == (1, 3, 2)


def test_shortest_path_disconnected():
    assert shortest_path(edge_vector(4, [(1, 3), (2, 4)]), 4) is None


def test_shortest_path_complete_graph_direct_edge():
    assert shortest_path(edge_vector(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]), 4) == (1, 2)


def test_shortest_path_lexicographic_tie_break():
    # two shortest 1-x-2 paths; x in {3, 4}: pick 3
    assert shortest_path(edge_vector(4, [(1, 3), (3, 2), (1, 4), (4, 2)]), 4) == (1, 3, 2)


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
        got = shortest_path(psp_edge_vector_loop(adj, n), n)
        everything = all_simple_paths(adj)
        if not everything:
            assert got is None
            continue
        best_len = min(len(p) for p in everything)
        shortest = sorted(p for p in everything if len(p) == best_len)
        assert got == shortest[0]


@settings(max_examples=80, deadline=None)
@given(n=st.integers(3, 9), q=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2**32))
def test_shortest_path_equals_the_matrix_bfs(n, q, seed):
    # q = 0 leaves 1 and 2 apart, q = 0.3 often does, and q = 1 gives K_n
    edges = generator(seed).random(n * (n - 1) // 2) < q
    adj = psp_adjacency_loop(edges, n)
    got = shortest_path(edges, n)
    assert got == shortest_path_loop(adj)
    everything = all_simple_paths(adj)
    best = min(map(len, everything), default=None)
    assert got == min((p for p in everything if len(p) == best), default=None)


# the n=10, L=3, q=0.3 instance at seed 3, whose shortest path is (1, 4, 3, 2)
_SEED3 = sample_instance(PspParams(n=10, L=3, q=0.3), seed=3).edges[0]
# input the adjacency-matrix form once read without a check -> the error it now raises
BAD_EDGES = {
    "half-the-edges": (0.5 * _SEED3, 10, "edges entries must be 0 or 1"),
    "twice-the-edges": (2 * _SEED3.astype(int), 10, "edges entries must be 0 or 1"),
    "too-few-pairs-for-n": (_SEED3[:28], 10, re.escape("edges has shape (28,), expected (45,)")),
    "an-adjacency-matrix": (psp_adjacency_loop(_SEED3, 10), 10, re.escape("edges has shape (11, 11), expected (45,)")),
    "n-below-2": (np.zeros(0, dtype=bool), 1, "need n >= 2"),
}


@pytest.mark.parametrize("case", BAD_EDGES)
def test_shortest_path_rejects_input_outside_the_model(case):
    edges, n, message = BAD_EDGES[case]
    with pytest.raises(ParameterError, match=message):
        shortest_path(edges, n)


def test_shortest_path_walks_the_undirected_graph():
    # the upper triangle of the adjacency, walked as directed arcs, found no path
    assert shortest_path(_SEED3, 10) == shortest_path_loop(psp_adjacency_loop(_SEED3, 10)) == (1, 4, 3, 2)


def _path_rows(paths) -> list:
    """shortest_paths rows as shortest_path results: the vertices before the zero pad, or None."""
    return [tuple(row[row > 0].tolist()) if row[0] else None for row in paths]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 12),
    q=st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.9, 1.0]),
    cut=st.booleans(),
    count=st.integers(1, 6),
    seed=st.integers(0, 2**32),
)
def test_batched_bfs_equals_the_neighbour_list_bfs(n, q, cut, count, seed):
    # sparse to complete graphs, n = 2 included; cut removes every edge at vertex 2, which leaves it unreachable
    edges = generator(seed).random((count, n * (n - 1) // 2)) < q
    if cut:
        edges[:, [e for e, pair in enumerate(vertex_pairs(n)) if 2 in pair]] = False
    want = [shortest_path_lists(row, n) for row in edges]
    assert _path_rows(shortest_paths(edges, n)) == want
    assert _path_rows(shortest_paths(edges.astype(np.uint8), n)) == want
    with pytest.raises(ParameterError, match="edges is not stacked: a stacked psp batch"):
        shortest_paths(list(edges), n)
    assert [shortest_path(row, n) for row in edges] == want
    if cut:
        assert want == [None] * count


def test_batched_bfs_blocks_fit_the_byte_bound(monkeypatch):
    # one graph's adjacency per block still gives every path, in order
    edges = generator(3).random((9, 45)) < 0.3
    want = shortest_paths(edges, 10)
    monkeypatch.setattr(solvers, "trial_runs", lambda total, unit: [range(t, t + 1) for t in range(total)])
    assert np.array_equal(shortest_paths(edges, 10), want)
    assert shortest_paths(np.zeros((0, 45), dtype=bool), 10).shape == (0, 10)


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


@pytest.mark.parametrize("n", [1, 2, 7, 8, 10, 63, 64, 65, 130])
@pytest.mark.parametrize("dtype", [np.uint8, bool, np.int64])
def test_pack_rows_equals_the_bit_loop(n, dtype):
    A = generator(n).integers(0, 2, size=(9, n)).astype(dtype)
    A[0] = 1  # a row of all ones sets every bit, the highest included
    assert [int.from_bytes(row.tobytes(), "little") for row in pack_words(A)] == pack_rows_loop(A)


def _gf2_stacks(draw_n):
    """(A, y) stacks of 1..5 matrices: m from 0 to 9, n from draw_n, zero rows and columns, y consistent or not."""
    return st.tuples(st.integers(1, 5), st.integers(0, 9), draw_n, st.integers(0, 2**32), st.booleans()).map(_gf2_stack)


def _gf2_stack(args):
    count, m, n, seed, consistent = args
    rng = generator(seed)
    A = (rng.random((count, m, n)) < rng.random()).astype(np.uint8)
    A[:, rng.random(m) < 0.2] = 0  # zero rows
    A[:, :, rng.random(n) < 0.2] = 0  # zero columns
    x = rng.integers(0, 2, size=(count, n), dtype=np.uint8)
    y = np.matmul(A, x[:, :, None])[:, :, 0] % 2 if consistent else rng.integers(0, 2, size=(count, m), dtype=np.uint8)
    return A, y


def _solution_fields(sol):
    return sol.kind, sol.rank, None if sol.particular is None else sol.particular.tolist(), [v.tolist() for v in sol.nullspace_basis]


@settings(max_examples=150, deadline=None)
@given(stack=_gf2_stacks(st.integers(0, 9)) | _gf2_stacks(st.integers(60, 140)))
def test_batched_gf2_equals_the_scalar_elimination(stack):
    # n from 60 to 140 packs a row of [A | y] into two or three words
    A, y = stack
    count, m, n = A.shape
    reduced, ranks = f2_rref(A, y), f2_ranks(A)
    for t in range(count):
        rows = [row | (int(y[t, i]) << n) for i, row in enumerate(pack_rows_loop(A[t]))]
        pivot_cols = f2_eliminate_loop(rows, n)
        bits = [[(row >> j) & 1 for j in range(n + 1)] for row in rows]
        assert reduced.rows[t].tolist() == [b[:n] for b in bits]
        assert reduced.rhs[t].tolist() == [b[n] for b in bits]
        assert np.flatnonzero(reduced.pivots[t]).tolist() == pivot_cols
        assert reduced.rank[t] == ranks[t] == f2_rank(A[t]) == len(pivot_cols)
        assert _solution_fields(f2_solve(A[t], y[t])) == _solution_fields(f2_solve_loop(A[t], y[t]))


# a GF(2) entry point given a list, a float 0/1 array, or an array that is not a matrix or a stack of them
_LISTED = [[1, 0], [1, 1]]


@pytest.mark.parametrize(
    "entry, matrix, want",
    [
        ("f2_rank", _LISTED, 2),
        ("f2_rank", np.array(_LISTED, dtype=float), 2),
        ("f2_solve", _LISTED, (1, 0)),
        ("f2_solve", np.array(_LISTED, dtype=float), (1, 0)),
        ("f2_ranks", [_LISTED], [2]),
        ("f2_ranks", np.array([_LISTED], dtype=float), [2]),
        ("f2_rref", [_LISTED], [2]),
        ("f2_rref", np.array([_LISTED], dtype=float), [2]),
    ],
    ids=["rank-list", "rank-float", "solve-list", "solve-float", "ranks-list", "ranks-float", "rref-list", "rref-float"],
)
def test_gf2_entry_points_take_array_likes(entry, matrix, want):
    # a list raised AttributeError ('bool' object has no attribute 'all'), a float array a TypeError from packbits
    if entry == "f2_solve":
        assert tuple(f2_solve(matrix, [1, 1]).particular.tolist()) == want
    elif entry == "f2_rref":
        assert f2_rref(matrix, [[1, 1]]).rank.tolist() == want
    else:
        got = getattr(solvers, entry)(matrix)
        assert (got.tolist() if entry == "f2_ranks" else got) == want


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: f2_rank(np.array([1, 0, 1])), "A has shape \\(3,\\), expected a matrix"),
        (lambda: f2_rank(np.ones((2, 2, 2))), "A has shape \\(2, 2, 2\\), expected a matrix"),
        (lambda: f2_ranks(np.ones((2, 2))), "A has shape \\(2, 2\\), expected a stack"),
        (lambda: f2_rref([1, 0], [1]), "A has shape \\(2,\\), expected a stack"),
        (lambda: f2_rref(np.ones((1, 2, 2)), np.ones((1, 3))), "y has shape \\(1, 3\\), expected \\(1, 2\\)"),
    ],
    ids=["rank-vector", "rank-stack", "ranks-matrix", "rref-vector", "rref-y-shape"],
)
def test_gf2_entry_points_reject_a_non_matrix(call, message):
    # f2_rank of a vector raised numpy's AxisError
    with pytest.raises(ParameterError, match=message):
        call()


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


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
def test_lll_non_finite_delta_raises_a_parameter_error(delta):
    # once a bare ValueError or OverflowError from Fraction; LllConfig rejects the same delta
    with pytest.raises(ParameterError, match="delta"):
        lll_reduce([[1, 0], [0, 1]], delta=delta)
    with pytest.raises(ParameterError, match="delta"):
        LllConfig(delta=delta)


@given(
    rows=st.integers(1, 6).flatmap(
        lambda n: st.integers(1, 7).flatmap(
            lambda m: st.lists(
                st.lists(st.integers(-(2**60), 2**60) | st.integers(-3, 3), min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            )
        )
    ),
    repeat=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_gram_det_equals_the_gram_matrix_bareiss(rows, repeat):
    # triangular square bases take det(B)^2, the others the Gram matrix; repeat makes a dependent basis
    if repeat:
        rows = rows + [list(rows[0])]
    assert _gram_det(rows) == gram_det_loop(rows)


@given(
    rows=st.integers(1, 7).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-(2**60), 2**60) | st.integers(-3, 3), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    ),
    lower=st.booleans(),
    zero=st.one_of(st.none(), st.integers(0, 6)),
    across=st.integers(1, 2**40),
)
@settings(max_examples=300, deadline=None)
def test_gram_det_of_triangular_bases(rows, lower, zero, across):
    # square triangular bases take the diagonal product, with no elimination; a zero on the
    # diagonal makes a dependent basis
    n = len(rows)
    for i, row in enumerate(rows):
        for j in range(n):
            if (j > i) if lower else (j < i):
                row[j] = 0
    if zero is not None:
        rows[zero % n][zero % n] = 0
    with mock.patch.object(solvers, "_bareiss_det", side_effect=AssertionError("eliminated a triangular basis")):
        assert _gram_det(rows) == gram_det_loop(rows)
        assert _gram_det(rows) == math.prod(row[i] for i, row in enumerate(rows)) ** 2
    # one entry just across the diagonal: no longer triangular
    if n > 1:
        rows[0 if lower else 1][1 if lower else 0] = across
        assert _gram_det(rows) == gram_det_loop(rows)


def test_gram_det_of_subset_sum_bases():
    # the square Lagarias-Odlyzko bases that lll_subset_sum reduces at N=20, 48 fractional bits
    for seed in range(40):
        inst = sample_instance(GssParams(N=20, k=3), derive_seed(seed, 0))
        values = [_truncate(v, 48) for v in (*inst.X[0], inst.Y[0])]
        rows = [[int(i == j) for j in range(20)] + [2**24 * values[i]] for i in range(20)]
        rows.append([0] * 20 + [2**24 * values[20]])
        assert _gram_det(rows) == gram_det_loop(rows) > 0


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
        inst = sample_instance(params, seed=derive_seed(2024, 0, t))
        got = lll_subset_sum(inst.X[0], inst.Y[0], 3, cfg)
        oracle, err = exhaustive_subset_sum(inst.X[0], inst.Y[0], 3)
        assert oracle == tuple(inst.S[0].tolist()) and err == 0.0
        hits += got == oracle
    assert hits >= 19


def test_subset_sum_perturbed_target_returns_none():
    params = GssParams(N=20, k=3)
    cfg = LllConfig(bits=128)
    inst = sample_instance(params, seed=derive_seed(2024, 0, 0))
    shifted = inst.Y[0] + 1.0
    _, err = exhaustive_subset_sum(inst.X[0], shifted, 3)
    assert err > 20 * 2.0 ** (2 - 128)
    assert lll_subset_sum(inst.X[0], shifted, 3, cfg) is None


def test_subset_sum_invalid_k():
    with pytest.raises(ParameterError):
        lll_subset_sum(np.ones(4), 1.0, 5)


# y = A x over GF(2) with x = [1, 1]; each call below was once read as other bits, as zeros, or raised a bare error
_A = np.array([[1, 0], [0, 1], [1, 1]])
_Y = _A @ np.ones(2, dtype=int) % 2


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: f2_solve(_A, 2 * _Y), "y entries must be 0 or 1"),
        (lambda: f2_solve(_A, 0.5 * _Y), "y entries must be 0 or 1"),
        (lambda: f2_rank(2 * _A), "A entries must be 0 or 1"),
        (lambda: lll_subset_sum(np.array([0.3, np.nan, 0.5]), 0.8, 2), "X must be finite"),
        (lambda: lll_subset_sum(np.array([0.3, 0.2, 0.5]), np.inf, 2), "Y must be finite"),
    ],
    ids=["f2-solve-y-twos", "f2-solve-y-halves", "f2-rank-a-twos", "lll-x-nan", "lll-y-inf"],
)
def test_solver_input_outside_the_model_raises(call, message):
    with pytest.raises(ParameterError, match=message):
        call()


def test_f2_solve_rejects_a_matrix_that_is_not_2d():
    # m, n = A.shape raised a bare ValueError ("not enough values to unpack")
    with pytest.raises(ParameterError, match="A has shape \\(3,\\), expected a matrix"):
        f2_solve(np.array([1, 0, 1]), np.array([1]))


def test_lll_subset_sum_rejects_x_that_is_not_a_vector():
    # float() of a row of X raised a bare TypeError
    with pytest.raises(ParameterError, match="X has shape \\(2, 3\\), expected \\(2,\\)"):
        lll_subset_sum(np.ones((2, 3)), 1.0, 2)


def test_lll_config_validation():
    with pytest.raises(ParameterError):
        LllConfig(delta=1.5)
    with pytest.raises(ParameterError):
        LllConfig(bits=8)


@pytest.mark.parametrize("slack", [-1, -0.5, math.nan])
def test_lll_config_rejects_a_negative_or_nan_slack(slack):
    # a negative or NaN tolerance slack * 2^(2 - bits) accepted no subset, so the planted S went unfound
    inst = sample_instance(GssParams(N=12, k=3), seed=5)
    X, Y, S = inst.X[0], inst.Y[0], tuple(inst.S[0].tolist())
    assert lll_subset_sum(X, Y, 3) == lll_subset_sum(X, Y, 3, LllConfig(slack=0)) == S
    with pytest.raises(ParameterError, match="need slack >= 0 or None"):
        LllConfig(slack=slack)


@pytest.mark.parametrize(
    "field, value, kind",
    [("delta", "0.5", "a number"), ("bits", "64", "an integer"), ("bits", 64.0, "an integer"), ("slack", "3", "a number or None")],
)
def test_lll_config_rejects_a_field_that_is_not_a_number(field, value, kind):
    # a string raised a bare TypeError from the range check; a float bits passed it, then raised one from the embedding's shift
    with pytest.raises(ParameterError) as err:
        LllConfig(**{field: value})
    assert str(err.value) == f"LllConfig {field} must be {kind}, got {value!r}"


def test_exhaustive_subset_sum_matches_the_combinations_loop():
    for t in range(10):
        inst = sample_instance(GssParams(N=12, k=3), seed=derive_seed(77, 0, t))
        for target in (inst.Y[0], inst.Y[0] + 0.37 * t, -inst.Y[0]):
            got = exhaustive_subset_sum(inst.X[0], target, 3)
            want = exhaustive_subset_sum_loop(inst.X[0], target, 3)
            assert got == want and got[1].hex() == want[1].hex()
    # on a tie the first subset in combinations order wins
    assert exhaustive_subset_sum(np.array([1.0, 1.0, 2.0]), 3.0, 2) == ((0, 2), 0.0)
