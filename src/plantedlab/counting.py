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
from .models import adjacency_from_edge_vector, check_bits, edge_vector_from_adjacency, path_edge_indices, vertex_pairs
from .rng import generator

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


def _path_weights(adjacency: np.ndarray, m: int, eps_m: int) -> tuple[np.ndarray, np.ndarray]:
    """(paths, weights): the edge indices of every length-m path, and how many
    approximate paths it carries, C(present edges, m - eps_m)."""
    n = adjacency.shape[0] - 1
    _check_args(n, m, eps_m)
    paths = path_edge_indices(n, m)
    edges = edge_vector_from_adjacency(adjacency)
    check_bits("adjacency", edges)
    present = edges.astype(np.int64)
    comb_table = np.array([math.comb(a, m - eps_m) for a in range(m + 1)], dtype=np.int64)
    return paths, comb_table[present[paths].sum(axis=1)]


def count_approx_paths(adjacency: np.ndarray, m: int, eps_m: int) -> int:
    """Number of approximate paths of length m with eps_m missing edges."""
    return int(_path_weights(adjacency, m, eps_m)[1].sum())


@dataclass(frozen=True)
class OverlapPairCount:
    pair_count: int
    histogram: dict  # shared-edge count k >= 1 -> ordered pair count


def count_overlap_pairs(adjacency: np.ndarray, m: int, eps_m: int) -> OverlapPairCount:
    """Ordered pairs of approximate paths whose paths share >= 1 edge.

    The histogram keys are the number of shared path edges; diagonal pairs
    (identical underlying path) land at k = m.
    """
    paths, weights = _path_weights(adjacency, m, eps_m)
    count = paths.shape[0]
    if count * count > PAIR_BUDGET:
        raise ResourceBudgetError(f"{count}^2 path pairs exceed budget {PAIR_BUDGET}")
    weights = weights.tolist()
    masks = [sum(1 << e for e in row) for row in paths.tolist()]  # a path's edges are distinct
    histogram: dict[int, int] = {}
    total = 0
    for i in range(count):
        wi = weights[i]
        if wi == 0:
            continue
        mi = masks[i]
        for j in range(count):
            wj = weights[j]
            if wj == 0:
                continue
            shared = (mi & masks[j]).bit_count()
            if shared >= 1:
                c = wi * wj
                total += c
                histogram[shared] = histogram.get(shared, 0) + c
    return OverlapPairCount(pair_count=total, histogram=histogram)


def sample_null_graph(n: int, q: float, seed: int) -> np.ndarray:
    """Adjacency of a plain G(n, q) draw (no planting); 1-indexed like the models."""
    _check_q(q)
    rng = generator(seed)
    vec = rng.random(len(vertex_pairs(n))) < q
    return adjacency_from_edge_vector(vec, n)
