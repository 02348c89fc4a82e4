import itertools
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import census_weights_loop, overlap_pairs_by_matches, overlap_pairs_loop, psp_adjacency_loop
from plantedlab import counting
from plantedlab.counting import (
    PAIR_BUDGET,
    count_approx_paths,
    count_overlap_pairs,
    expected_count,
    overlap_histogram,
    path_weights,
    sample_null_graph,
)
from plantedlab.errors import ParameterError
from plantedlab.models import EVAL_CHUNK, pair_ids
from plantedlab.rng import derive_seed


def complete_graph(n):
    return np.ones(n * (n - 1) // 2, dtype=bool)


def empty_graph(n):
    return np.zeros(n * (n - 1) // 2, dtype=bool)


def brute_force_approx_paths(adj, n, m, eps_m):
    """Oracle: enumerate (kept subset, path) pairs literally, in an (n+1)x(n+1) adjacency."""
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
    assert count_approx_paths(complete_graph(4), 4, m=2, eps_m=1) == 4


def test_empty_graph_extremes():
    edges = empty_graph(6)
    assert count_approx_paths(edges, 6, m=3, eps_m=0) == 0
    # eps_m = m keeps nothing, so every path of the complete graph counts once
    assert count_approx_paths(edges, 6, m=3, eps_m=3) == 4 * 3


def test_count_matches_brute_force_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(5, 8))
        m = int(rng.integers(2, 4))
        eps_m = int(rng.integers(0, m + 1))
        edges = rng.random(n * (n - 1) // 2) < 0.4
        got = count_approx_paths(edges, n, m, eps_m)
        assert got == len(brute_force_approx_paths(psp_adjacency_loop(edges, n), n, m, eps_m))


def test_overlap_pairs_k4_hand_enumeration():
    result = count_overlap_pairs(complete_graph(4), 4, m=2, eps_m=1)
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
        edges = rng.random(n * (n - 1) // 2) < 0.5
        result = count_overlap_pairs(edges, n, m, eps_m)
        items = brute_force_approx_paths(psp_adjacency_loop(edges, n), n, m, eps_m)
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
    edges = complete_graph(5)
    n_single = count_approx_paths(edges, 5, m=2, eps_m=1)
    result = count_overlap_pairs(edges, 5, m=2, eps_m=1)
    assert result.pair_count >= n_single
    assert result.histogram.get(2, 0) >= n_single


def test_expected_count_values():
    assert expected_count(n=5, m=2, eps_m=1, q=0.5) == 3.0
    assert expected_count(n=6, m=3, eps_m=3, q=0.0) == 4 * 3  # q^0 = 1, all paths
    assert expected_count(n=6, m=3, eps_m=1, q=0.0) == 0.0
    assert expected_count(n=6, m=3, eps_m=0, q=1.0) == 4 * 3


def test_expected_count_q_one_counts_all_kept_sets():
    n, m, eps_m = 7, 3, 1
    assert expected_count(n, m, eps_m, 1.0) == count_approx_paths(complete_graph(n), n, m, eps_m)


def test_first_moment_agreement_small():
    n, m, eps_m, q = 10, 3, 2, 0.3
    graphs = 2000
    counts = np.empty(graphs)
    for t in range(graphs):
        edges = sample_null_graph(n, q, derive_seed(100, 0, t))
        counts[t] = count_approx_paths(edges, n, m, eps_m)
    target = expected_count(n, m, eps_m, q)
    stderr = counts.std(ddof=1) / math.sqrt(graphs)
    assert abs(counts.mean() - target) <= 3 * stderr


def test_second_moment_jensen_and_ratio_report():
    n, m, eps_m, q = 9, 3, 1, 0.3
    graphs = 500
    counts = np.empty(graphs)
    pair_counts = np.empty(graphs)
    for t in range(graphs):
        edges = sample_null_graph(n, q, derive_seed(200, 0, t))
        counts[t] = count_approx_paths(edges, n, m, eps_m)
        pair_counts[t] = count_overlap_pairs(edges, n, m, eps_m).pair_count
    mean_sq = (counts**2).mean()
    assert mean_sq >= counts.mean() ** 2  # Jensen
    ratio = pair_counts.mean() / counts.mean() ** 2
    assert ratio > 0  # reported, not asserted against the asymptotic scale


def test_invalid_arguments():
    with pytest.raises(ParameterError):
        expected_count(n=6, m=3, eps_m=4, q=0.5)
    with pytest.raises(ParameterError):
        count_approx_paths(complete_graph(4), 4, m=4, eps_m=1)


def _doubled_edge(edges):
    out = edges.astype(int)
    out[pair_ids(8)[1, 3]] = 2  # a present edge; the census once read 24 here instead of 17
    return out


@pytest.mark.parametrize(
    "change", [_doubled_edge, lambda edges: 0.5 * edges, lambda edges: 2 * edges.astype(int)], ids=["one-two", "halves", "twos"]
)
def test_census_rejects_a_non_binary_adjacency(change):
    edges = sample_null_graph(8, 0.3, 1)
    assert edges[pair_ids(8)[1, 3]] and count_approx_paths(edges, 8, 3, 1) == 17
    for census in (count_approx_paths, count_overlap_pairs):
        with pytest.raises(ParameterError, match="edges entries must be 0 or 1"):
            census(change(edges), 8, 3, 1)


def _float_seven(edges):
    out = edges.astype(float)
    out[np.flatnonzero(edges)[0]] = 7.0  # a present edge
    return out


def _nan(edges):
    out = edges.astype(float)
    out[5] = math.nan
    return out


# the first six ids name matrix faults that an edge vector cannot hold: handed to the census, a matrix (triu,
# not-square) is a 2-D array, and its upper triangle read with the diagonal, row 0 or both a vector of the wrong length
@pytest.mark.parametrize(
    "change, message",
    [
        (lambda edges: np.triu(psp_adjacency_loop(edges, 8)), r"shape \(9, 9\), expected \(28,\)"),
        (lambda edges: psp_adjacency_loop(edges, 8)[np.triu_indices(9)], r"shape \(45,\), expected \(28,\)"),
        (_float_seven, "entries must be 0 or 1"),
        (lambda edges: psp_adjacency_loop(edges, 8)[1:, 1:][np.triu_indices(8)], r"shape \(36,\), expected \(28,\)"),
        (lambda edges: psp_adjacency_loop(edges, 8)[np.triu_indices(9, 1)], r"shape \(36,\), expected \(28,\)"),
        (lambda edges: psp_adjacency_loop(edges, 8)[:, 1:], r"shape \(9, 8\), expected \(28,\)"),
        (_nan, "entries must be 0 or 1"),
        (lambda edges: edges[:-1], r"shape \(27,\), expected \(28,\)"),
        (lambda edges: edges[None], r"shape \(1, 28\), expected \(28,\)"),
    ],
    ids=["triu", "diagonal-and-row-0", "float-seven", "diagonal", "row-and-column-0", "not-square", "nan", "one-short", "a-stack"],
)
def test_census_rejects_a_matrix_that_is_no_psp_graph(change, message):
    # each of these once counted the graph's own 8 paths and 40 pairs
    edges = sample_null_graph(8, 0.4, 3)
    assert count_approx_paths(edges, 8, 3, 1) == 8 and count_overlap_pairs(edges, 8, 3, 1).pair_count == 40
    for census in (count_approx_paths, count_overlap_pairs):
        with pytest.raises(ParameterError, match=message):
            census(change(edges), 8, 3, 1)


def test_approx_path_counts_of_a_stack_match_each_matrix():
    # a stack of edge vectors is counted by path_weights, as the count-paths command counts a run
    stack = np.stack([sample_null_graph(9, 0.35, derive_seed(6, 0, t)) for t in range(12)])
    for m, eps_m in ((2, 0), (3, 1), (4, 4)):
        counts = path_weights(stack, 9, m, eps_m)[1].sum(axis=-1)
        assert counts.dtype == np.int64
        assert counts.tolist() == [count_approx_paths(edges, 9, m, eps_m) for edges in stack]


@pytest.mark.parametrize("q", [1.5, -0.1, math.nan, math.inf])
def test_q_outside_unit_interval_raises(q):
    with pytest.raises(ParameterError, match="q in"):
        expected_count(n=8, m=3, eps_m=1, q=q)
    with pytest.raises(ParameterError, match="q in"):
        sample_null_graph(8, q, seed=0)


def test_census_weights_match_the_per_path_loop():
    for n, m, eps_m, q, seed in [(6, 2, 1, 0.5, 1), (8, 3, 1, 0.3, 2), (8, 3, 0, 0.7, 3), (9, 4, 2, 0.4, 4), (7, 3, 3, 0.0, 5)]:
        edges = sample_null_graph(n, q, derive_seed(seed, 0))
        paths, weights = path_weights(edges, n, m, eps_m)
        assert weights.tolist() == census_weights_loop(psp_adjacency_loop(edges, n), m, eps_m)
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
    edges = sample_null_graph(n, q, seed)
    adj = psp_adjacency_loop(edges, n)
    live = sum(w > 0 for w in census_weights_loop(adj, m, eps_m))
    block_bytes = live * bytes_per_path if bytes_per_path else counting.EVAL_CHUNK_BYTES
    with mock.patch.object(counting, "EVAL_CHUNK_BYTES", block_bytes):
        census = count_overlap_pairs(edges, n, m, eps_m)
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
    paths, weights = path_weights(stack, n, m, eps_m)
    live = int(weights.any(axis=0).sum())
    block_bytes = 20 * max(live, 1) * rows if rows else counting.EVAL_CHUNK_BYTES
    with mock.patch.object(counting, "EVAL_CHUNK_BYTES", block_bytes):
        histogram = overlap_histogram(paths, weights)
    by_matches, by_masks = Counter(), Counter()
    for adj in (psp_adjacency_loop(edges, n) for edges in stack):
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
