"""Brute-force censuses of approximate paths and their overlapping pairs.

An approximate path here is a pair (kept-edge set, path): the path has m edges
between vertices 1 and 2 in the complete graph, the kept set is a subset of
its edges of size m - eps_m, and every kept edge is present in the observed
graph.  Pair counts are over ordered pairs whose underlying paths share at
least one edge.  All counts are exact integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResourceBudgetError
from .models import EVAL_CHUNK, EVAL_CHUNK_BYTES, check_bits, check_shape, path_edge_indices, vertex_pairs
from .rng import generator, uniforms

PAIR_BUDGET = 10**8


def _check_args(n: int, m: int, eps_m: int) -> None:
    if not (0 <= eps_m <= m):
        raise ParameterError(f"need 0 <= eps_m <= m, got eps_m={eps_m}, m={m}")
    if not (1 <= m <= n - 1):
        raise ParameterError(f"no length-{m} path fits in {n} vertices")


def _check_q(q: float) -> None:
    if not (0.0 <= q <= 1.0):  # false for nan too
        raise ParameterError(f"need q in [0, 1], got {q}")


def expected_count(n: int, m: int, eps_m: int, q: float) -> float:
    """Mean approximate-path count in G(n, q): (n-2)_(m-1) * C(m, eps_m) * q^(m - eps_m)."""
    _check_args(n, m, eps_m)
    _check_q(q)
    return math.perm(n - 2, m - 1) * math.comb(m, eps_m) * q ** (m - eps_m)


def _graph(edges, n: int) -> np.ndarray:
    """edges as a bool array; ParameterError unless it is one 0/1 edge vector over vertex_pairs(n)."""
    edges = np.asarray(edges)
    check_shape("edges", edges, (len(vertex_pairs(n)),))
    check_bits("edges", edges)
    return edges.astype(bool)


def path_weights(edges: np.ndarray, n: int, m: int, eps_m: int) -> tuple[np.ndarray, np.ndarray]:
    """(paths, weights): the edge indices of every length-m path, and how many approximate
    paths it carries in each graph of a stack of 0/1 edge vectors, C(present edges, m - eps_m)."""
    _check_args(n, m, eps_m)
    paths = path_edge_indices(n, m)
    comb_table = np.array([math.comb(a, m - eps_m) for a in range(m + 1)], dtype=np.int64)
    return paths, comb_table[edges[..., paths].sum(axis=-1)]


def census_bytes(n: int, m: int) -> int:
    """Bytes the census holds per graph: each path's gathered edges and its weight."""
    return len(path_edge_indices(n, m)) * (m + 16)


def count_approx_paths(edges: np.ndarray, n: int, m: int, eps_m: int) -> int:
    """Number of approximate paths of length m with eps_m missing edges in one graph's edge vector."""
    return int(path_weights(_graph(edges, n), n, m, eps_m)[1].sum())


@dataclass(frozen=True)
class OverlapPairCount:
    pair_count: int
    histogram: dict  # shared-edge count k >= 1 -> ordered pair count


def count_overlap_pairs(edges: np.ndarray, n: int, m: int, eps_m: int) -> OverlapPairCount:
    """Ordered pairs of approximate paths whose paths share >= 1 edge.

    The histogram keys are the number of shared path edges; diagonal pairs
    (identical underlying path) land at k = m.
    """
    paths, weights = path_weights(_graph(edges, n)[None], n, m, eps_m)
    histogram = overlap_histogram(paths, weights)
    return OverlapPairCount(pair_count=sum(histogram.values()), histogram=histogram)


def overlap_histogram(paths: np.ndarray, weights: np.ndarray) -> dict[int, int]:
    """Shared edges k >= 1 -> ordered pairs of approximate paths whose paths share k edges,
    summed over a stack of at most EVAL_CHUNK graphs with path_weights' (paths, weights).

    Over the paths U that carry weight in some graph, the shared-edge counts
    S = I Iᵀ of their 0/1 incidence matrix I and the weight products C = WᵀW
    summed over the graphs are float BLAS products, and each row block of
    pairs that fits EVAL_CHUNK_BYTES adds np.bincount(S, weights=C).  Every
    float sum adds integers below 2**53, so the counts are exact: S <= m, and
    PAIR_BUDGET admits m <= 8, so a stack sums to at most
    EVAL_CHUNK * 4**m * PAIR_BUDGET.
    """
    count, m = paths.shape
    if count * count > PAIR_BUDGET:
        raise ResourceBudgetError(f"{count}^2 path pairs exceed budget {PAIR_BUDGET}")
    if len(weights) > EVAL_CHUNK:
        raise ParameterError(f"the overlap pass takes at most {EVAL_CHUNK} graphs, got {len(weights)}")
    live = weights.any(axis=0)
    paths, products = paths[live], weights[:, live].astype(np.float64)
    incidence = np.zeros((len(paths), paths.max(initial=0) + 1), dtype=np.float32)
    np.put_along_axis(incidence, paths, 1.0, axis=1)
    totals = [0] * (m + 1)
    rows = max(1, EVAL_CHUNK_BYTES // (20 * max(len(paths), 1)))  # shared counts as float32 and intp, products
    for start in range(0, len(paths), rows):
        shared = (incidence[start : start + rows] @ incidence.T).astype(np.intp)
        block = products[:, start : start + rows].T @ products
        totals = [t + int(s) for t, s in zip(totals, np.bincount(shared.ravel(), block.ravel(), m + 1))]
    return {k: c for k, c in enumerate(totals) if k >= 1 and c}


def null_graphs(n: int, q: float, count: int, fresh) -> np.ndarray:
    """Boolean edge vectors of count plain G(n, q) draws (no planting), in vertex_pairs(n) order.

    Graph i is fresh(i).random(P) < q over the P vertex pairs, read as raw
    Philox words and decoded in one pass for the run.
    """
    _check_q(q)
    pairs = len(vertex_pairs(n))
    words = np.stack([fresh(i).bit_generator.random_raw(pairs) for i in range(count)]).reshape(count, pairs)
    return uniforms(words) < q


def sample_null_graph(n: int, q: float, seed: int) -> np.ndarray:
    """The edge vector of a plain G(n, q) draw from generator(seed): null_graphs' one-graph run."""
    return null_graphs(n, q, 1, lambda _: generator(seed))[0]
