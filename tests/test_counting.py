import itertools
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import census_weights_loop, overlap_pairs_by_matches, overlap_pairs_loop
from plantedlab import counting
from plantedlab.counting import (
    PAIR_BUDGET,
    approx_path_counts,
    count_approx_paths,
    count_overlap_pairs,
    expected_count,
    overlap_histogram,
    path_weights,
    sample_null_graph,
)
from plantedlab.errors import ParameterError
from plantedlab.models import edge_vector_from_adjacency
from plantedlab.noise import EVAL_CHUNK
from plantedlab.rng import derive_seed


def complete_adjacency(n):
    adj = np.ones((n + 1, n + 1), dtype=bool)
    adj[0, :] = adj[:, 0] = False
    np.fill_diagonal(adj, False)
    return adj


def empty_adjacency(n):
    return np.zeros((n + 1, n + 1), dtype=bool)


def brute_force_approx_paths(adj, n, m, eps_m):
    """Oracle: enumerate (kept subset, path) pairs literally."""
    keep = m - eps_m
    out = []
    for interior in itertools.permutations(range(3, n + 1), m - 1):
        verts = (1, *interior, 2)
        edges = [tuple(sorted(e)) for e in zip(verts[:-1], verts[1:])]
        for kept in itertools.combinations(edges, keep):
            if all(adj[i, j] for i, j in kept):
                out.append((frozenset(kept), frozenset(edges)))
    return out


def test_k4_hand_count():
    # two length-2 paths, each with two single-edge kept sets
    assert count_approx_paths(complete_adjacency(4), m=2, eps_m=1) == 4


def test_empty_graph_extremes():
    adj = empty_adjacency(6)
    assert count_approx_paths(adj, m=3, eps_m=0) == 0
    # eps_m = m keeps nothing, so every path of the complete graph counts once
    assert count_approx_paths(adj, m=3, eps_m=3) == 4 * 3


def test_count_matches_brute_force_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(5, 8))
        m = int(rng.integers(2, 4))
        eps_m = int(rng.integers(0, m + 1))
        adj = np.zeros((n + 1, n + 1), dtype=bool)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if rng.random() < 0.4:
                    adj[i, j] = adj[j, i] = True
        got = count_approx_paths(adj, m, eps_m)
        assert got == len(brute_force_approx_paths(adj, n, m, eps_m))


def test_overlap_pairs_k4_hand_enumeration():
    result = count_overlap_pairs(complete_adjacency(4), m=2, eps_m=1)
    # distinct paths 1-3-2 and 1-4-2 are edge-disjoint; only diagonal pairs
    # contribute, each of the 2 paths has 2x2 ordered kept-set pairs at overlap 2
    assert result.pair_count == 8
    assert result.histogram == {2: 8}


def test_overlap_pairs_match_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(5, 7))
        m = 3
        eps_m = int(rng.integers(0, 3))
        adj = np.zeros((n + 1, n + 1), dtype=bool)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if rng.random() < 0.5:
                    adj[i, j] = adj[j, i] = True
        result = count_overlap_pairs(adj, m, eps_m)
        items = brute_force_approx_paths(adj, n, m, eps_m)
        hist = {}
        total = 0
        for (_, p1), (_, p2) in itertools.product(items, repeat=2):
            shared = len(p1 & p2)
            if shared >= 1:
                total += 1
                hist[shared] = hist.get(shared, 0) + 1
        assert result.pair_count == total
        assert result.histogram == hist


def test_diagonal_pairs_always_counted():
    # every approximate path pairs with itself at overlap m
    adj = complete_adjacency(5)
    n_single = count_approx_paths(adj, m=2, eps_m=1)
    result = count_overlap_pairs(adj, m=2, eps_m=1)
    assert result.pair_count >= n_single
    assert result.histogram.get(2, 0) >= n_single


def test_expected_count_values():
    assert expected_count(n=5, m=2, eps_m=1, q=0.5) == 3.0
    assert expected_count(n=6, m=3, eps_m=3, q=0.0) == 4 * 3  # q^0 = 1, all paths
    assert expected_count(n=6, m=3, eps_m=1, q=0.0) == 0.0
    assert expected_count(n=6, m=3, eps_m=0, q=1.0) == 4 * 3


def test_expected_count_q_one_counts_all_kept_sets():
    n, m, eps_m = 7, 3, 1
    assert expected_count(n, m, eps_m, 1.0) == count_approx_paths(
        complete_adjacency(n), m, eps_m
    )


def test_first_moment_agreement_small():
    n, m, eps_m, q = 10, 3, 2, 0.3
    graphs = 2000
    counts = np.empty(graphs)
    for t in range(graphs):
        adj = sample_null_graph(n, q, derive_seed(100, 0, t))
        counts[t] = count_approx_paths(adj, m, eps_m)
    target = expected_count(n, m, eps_m, q)
    stderr = counts.std(ddof=1) / math.sqrt(graphs)
    assert abs(counts.mean() - target) <= 3 * stderr


def test_second_moment_jensen_and_ratio_report():
    n, m, eps_m, q = 9, 3, 1, 0.3
    graphs = 500
    counts = np.empty(graphs)
    pair_counts = np.empty(graphs)
    for t in range(graphs):
        adj = sample_null_graph(n, q, derive_seed(200, 0, t))
        counts[t] = count_approx_paths(adj, m, eps_m)
        pair_counts[t] = count_overlap_pairs(adj, m, eps_m).pair_count
    mean_sq = (counts**2).mean()
    assert mean_sq >= counts.mean() ** 2  # Jensen
    ratio = pair_counts.mean() / counts.mean() ** 2
    assert ratio > 0  # reported, not asserted against the asymptotic scale


def test_invalid_arguments():
    with pytest.raises(ParameterError):
        expected_count(n=6, m=3, eps_m=4, q=0.5)
    with pytest.raises(ParameterError):
        count_approx_paths(complete_adjacency(4), m=4, eps_m=1)


def _doubled_edge(adj):
    out = adj.astype(int)
    out[1, 3] = out[3, 1] = 2  # a present edge; the census once read 24 here instead of 17
    return out


@pytest.mark.parametrize(
    "change", [_doubled_edge, lambda adj: 0.5 * adj, lambda adj: 2 * adj.astype(int)], ids=["one-two", "halves", "twos"]
)
def test_census_rejects_a_non_binary_adjacency(change):
    adj = sample_null_graph(8, 0.3, 1)
    assert adj[1, 3] and count_approx_paths(adj, 3, 1) == 17
    for census in (count_approx_paths, count_overlap_pairs):
        with pytest.raises(ParameterError, match="adjacency entries must be 0 or 1"):
            census(change(adj), 3, 1)


def _diagonal_and_row_zero(adj):
    out = adj.copy()
    np.fill_diagonal(out, True)
    out[0, :] = True
    return out


def _float_seven(adj):
    out = adj.astype(float)
    out[3, 1] = 7.0  # a present edge, in the lower triangle the census once never read
    return out


def _diagonal(adj):
    out = adj.copy()
    out[4, 4] = True
    return out


def _row_and_column_zero(adj):
    out = adj.copy()
    out[0, 5] = out[5, 0] = True
    return out


@pytest.mark.parametrize(
    "change, message",
    [
        (np.triu, "symmetric"),
        (_diagonal_and_row_zero, "symmetric"),
        (_float_seven, "entries must be 0 or 1"),
        (_diagonal, "empty diagonal"),
        (_row_and_column_zero, "row and column 0"),
        (lambda adj: adj[:, 1:], "square"),
    ],
    ids=["triu", "diagonal-and-row-0", "float-seven", "diagonal", "row-and-column-0", "not-square"],
)
def test_census_rejects_a_matrix_that_is_no_psp_graph(change, message):
    # each of these once counted the graph's own 8 paths and 40 pairs
    adj = sample_null_graph(8, 0.4, 3)
    assert count_approx_paths(adj, 3, 1) == 8 and count_overlap_pairs(adj, 3, 1).pair_count == 40
    for census in (count_approx_paths, count_overlap_pairs):
        with pytest.raises(ParameterError, match=message):
            census(change(adj), 3, 1)
    with pytest.raises(ParameterError, match=message):
        approx_path_counts(change(adj)[None], 3, 1)  # a run of one


def test_approx_path_counts_of_a_stack_match_each_matrix():
    stack = np.stack([sample_null_graph(9, 0.35, derive_seed(6, 0, t)) for t in range(12)])
    for m, eps_m in ((2, 0), (3, 1), (4, 4)):
        counts = approx_path_counts(stack, m, eps_m)
        assert counts.dtype == np.int64
        assert counts.tolist() == [count_approx_paths(adj, m, eps_m) for adj in stack]


@pytest.mark.parametrize("q", [1.5, -0.1, math.nan, math.inf])
def test_q_outside_unit_interval_raises(q):
    with pytest.raises(ParameterError, match="q in"):
        expected_count(n=8, m=3, eps_m=1, q=q)
    with pytest.raises(ParameterError, match="q in"):
        sample_null_graph(8, q, seed=0)


def test_census_weights_match_the_per_path_loop():
    for n, m, eps_m, q, seed in [(6, 2, 1, 0.5, 1), (8, 3, 1, 0.3, 2), (8, 3, 0, 0.7, 3), (9, 4, 2, 0.4, 4), (7, 3, 3, 0.0, 5)]:
        adj = sample_null_graph(n, q, derive_seed(seed, 0))
        paths, weights = path_weights(edge_vector_from_adjacency(adj), n, m, eps_m)
        assert weights.tolist() == census_weights_loop(adj, m, eps_m)
        assert len(paths) == math.perm(n - 2, m - 1)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(4, 9),
    m=st.integers(1, 8),
    eps_m=st.integers(0, 8),
    q=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32),
    bytes_per_path=st.one_of(st.none(), st.integers(1, 200)),
)
@example(n=9, m=3, eps_m=1, q=1.0, seed=0, bytes_per_path=100)  # 42 paths in blocks of a few rows, the last one short
def test_overlap_pairs_match_the_double_loop(n, m, eps_m, q, seed, bytes_per_path):
    # every path length whose pair loop stays small; a block budget of a few bytes per path that
    # carries an approximate path spreads the pairs over row blocks of a few rows each
    assume(m < n and eps_m <= m and math.perm(n - 2, m - 1) <= 360)
    adj = sample_null_graph(n, q, seed)
    live = sum(w > 0 for w in census_weights_loop(adj, m, eps_m))
    block_bytes = live * bytes_per_path if bytes_per_path else counting.EVAL_CHUNK_BYTES
    with mock.patch.object(counting, "EVAL_CHUNK_BYTES", block_bytes):
        census = count_overlap_pairs(adj, m, eps_m)
    assert (census.pair_count, census.histogram) == overlap_pairs_loop(adj, m, eps_m)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 8),
    m=st.integers(1, 7),
    eps_m=st.integers(0, 7),
    qs=st.lists(st.sampled_from([0.0, 0.2, 0.5, 1.0]), min_size=1, max_size=4),
    seed=st.integers(0, 2**32),
    rows=st.one_of(st.none(), st.integers(1, 6)),
)
@example(n=7, m=3, eps_m=1, qs=[0.0, 0.5, 1.0], seed=0, rows=2)  # a graph that carries no path, 20 paths in blocks of 2
@example(n=6, m=3, eps_m=3, qs=[0.0, 1.0], seed=1, rows=5)  # eps_m = m: every path carries one in every graph
def test_overlap_pass_over_a_stack_matches_the_per_graph_oracles(n, m, eps_m, qs, seed, rows):
    # a block budget of 20 bytes (a float32 and an intp shared count, a float64 product) a pair
    # of paths that carry an approximate path puts `rows` rows in each row block
    assume(m < n and eps_m <= m and math.perm(n - 2, m - 1) <= 120)
    stack = np.stack([sample_null_graph(n, q, derive_seed(seed, i)) for i, q in enumerate(qs)])
    paths, weights = path_weights(edge_vector_from_adjacency(stack), n, m, eps_m)
    live = int(weights.any(axis=0).sum())
    block_bytes = 20 * max(live, 1) * rows if rows else counting.EVAL_CHUNK_BYTES
    with mock.patch.object(counting, "EVAL_CHUNK_BYTES", block_bytes):
        histogram = overlap_histogram(paths, weights)
    by_matches, by_masks = Counter(), Counter()
    for adj in stack:
        by_matches.update(overlap_pairs_by_matches(adj, m, eps_m)[1])
        by_masks.update(overlap_pairs_loop(adj, m, eps_m)[1])
    assert histogram == dict(by_matches) == dict(by_masks)


def test_overlap_pass_sums_stay_below_2_to_the_53():
    # PAIR_BUDGET admits m <= 8 (at n = m + 1, the fewest paths); a row block's float sum is at most
    # EVAL_CHUNK graphs times PAIR_BUDGET pairs of paths times the heaviest weight squared
    admitted = [m for m in range(1, 12) if math.perm(m - 1, m - 1) ** 2 <= PAIR_BUDGET]
    assert admitted == list(range(1, 9))
    for m in admitted:
        heaviest = max(math.comb(m, keep) for keep in range(m + 1))
        assert EVAL_CHUNK * PAIR_BUDGET * heaviest**2 <= EVAL_CHUNK * 4**m * PAIR_BUDGET < 2**53
    paths, weights = path_weights(np.ones((EVAL_CHUNK + 1, 21), dtype=bool), 7, 3, 1)
    with pytest.raises(ParameterError, match=f"at most {EVAL_CHUNK} graphs"):
        overlap_histogram(paths, weights)
