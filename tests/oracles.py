"""Slow reference implementations that the tests check the library against.

The Monte-Carlo posterior oracles are written straight from the generative
descriptions in plain numpy, on purpose sharing no code with the library's
samplers/noise/posteriors; the TPCA draw builds its planted tensor by
repeated outer products (tpca_signal_tensor).  The PSP pair loops check the library's indexed
edge-vector conversions and its path and shape placements, the matrix BFS
and the neighbour-list BFS (shortest_path_lists) check the batched
breadth-first search, the row-by-row
subset scans and the per-path census weights check the cached enumerations
in models, the double loop over path edge bitmasks checks the census's
blocked pair count, and the (A, x, mask) loop checks the closed-form RLC character
correlation.  The one-shot draw of every sample at once checks the diagram
Monte-Carlo oracle, which streams blocks of rows.  The per-observation
posterior enumerations (the RLC message profile 65,536 messages at a time,
the TPCA np.ix_ block per support) check the batched posterior kernels,
the strided per-bit bincounts of the RLC profiles (with their one reduce over each codeword's words),
the per-trial RLC finish and the one-dot-a-row squared norms
check the histogram folds, word adds and stacked matmuls that replaced them, the C-ordered
block sum of a gather (gathered_row_sums) checks the column adds of models.pairwise_row_sums, the per-bit row packing checks
solvers.pack_words, the elimination of rows as Python ints
(f2_eliminate_loop, f2_solve_loop) checks the batched GF(2) elimination,
the per-trial full-rank RLC loop checks the run-level full-rank draw, and
the Gram-matrix Bareiss determinant checks
the LLL input determinant.  numpy's own SeedSequence, and its mixing loops
as written (state_words_loop), check the folded batch seed derivation; the
per-trial Generator-call samplers and noise operators check the run
samplers and noise operators that decode raw Philox words, and the
per-trial polynomial evaluations and the per-trial MMSE,
estimator-stability and polynomial-stability loops check the batched ones,
which CoupledTrials.map runs EVAL_CHUNK trials at a time.  The per-seed
count-paths loop checks the census drawn as keyed runs.  The
exhaustive oracles at the end (all simple paths, the full GF(2) solution
set, exact lattice coordinates) check the fast solvers, and the recovery
rules on each solver's own output check stability.solver_recoveries of
one instance, a run of one trial (not a consumer of check_instance: it
reads a run of any length).  The
helpers in the last section are test-only API built on the library: a
run's trials as instances (runs of one trial) and their stack back into a
run, canonical path edges, overlap class sizes, OU composition and a
symmetrization check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from plantedlab.counting import expected_count
from plantedlab.lowdeg import DIAGRAM_PSD_TOL, hermite_eval
from plantedlab.mc import mean_stderr, ratio_with_stderr
from plantedlab.models import (
    GssParams,
    GssRun,
    PspParams,
    PspRun,
    RlcParams,
    RlcRun,
    TpcaParams,
    TpcaRun,
    sample_instance,
    subset_sum_value,
    vertex_pairs,
)
from plantedlab.noise import check_rho
from plantedlab.rng import INSTANCE_STREAM, NOISE_STREAM, derive_seed, generator
from plantedlab.solvers import F2Solution, LllConfig, f2_solve, lll_subset_sum, pack_words, shortest_path


def psp_rejection_posterior(target_edges: np.ndarray, n: int, L: int, q: float, rho: float,
                            samples: int, seed: int) -> tuple[np.ndarray, int]:
    """Sample (path, noisy graph) pairs; average path indicators over exact matches.

    target_edges: boolean vector over the C(n,2) canonical pairs.
    Returns (posterior-mean estimate, number of accepted samples).
    """
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    pair_idx = {p: t for t, p in enumerate(pairs)}
    # enumerate all ordered intermediate sequences once; sample path ids
    seqs = list(itertools.permutations(range(3, n + 1), L - 1))
    path_masks = np.zeros((len(seqs), len(pairs)), dtype=bool)
    for r, seq in enumerate(seqs):
        verts = (1, *seq, 2)
        for a, b in zip(verts[:-1], verts[1:]):
            path_masks[r, pair_idx[(min(a, b), max(a, b))]] = True

    accepted = np.zeros(len(pairs))
    hits = 0
    chunk = 200_000
    remaining = samples
    while remaining > 0:
        B = min(chunk, remaining)
        remaining -= B
        pid = rng.integers(0, len(seqs), size=B)
        graph = rng.random((B, len(pairs))) < q
        graph |= path_masks[pid]
        mask = rng.random((B, len(pairs))) < rho
        fresh = rng.random((B, len(pairs))) < q
        noisy = np.where(mask, fresh, graph)
        match = np.all(noisy == target_edges[None, :], axis=1)
        hits += int(match.sum())
        if match.any():
            accepted += path_masks[pid[match]].sum(axis=0)
    return (accepted / hits if hits else accepted, hits)


def rlc_rejection_posterior(A: np.ndarray, y_hat: np.ndarray, rho: float,
                            samples: int, seed: int) -> tuple[np.ndarray, int]:
    """Condition on the observed A: sample x and channel noise, keep exact y_hat hits."""
    rng = np.random.default_rng(seed)
    m, n = A.shape
    accepted = np.zeros(n)
    hits = 0
    chunk = 500_000
    remaining = samples
    while remaining > 0:
        B = min(chunk, remaining)
        remaining -= B
        xs = rng.integers(0, 2, size=(B, n), dtype=np.uint8)
        y = xs @ A.T % 2
        mask = rng.random((B, m)) < rho
        fresh = rng.integers(0, 2, size=(B, m), dtype=np.uint8)
        noisy = np.where(mask, fresh, y)
        match = np.all(noisy == y_hat[None, :], axis=1)
        hits += int(match.sum())
        if match.any():
            accepted += xs[match].sum(axis=0)
    return (accepted / hits if hits else accepted, hits)


def tpca_resampling_posterior(Y: np.ndarray, n: int, k: int, d: int, lam: float,
                              samples: int, seed: int) -> np.ndarray:
    """Weighted-resampling oracle: uniform supports, full Gaussian density weights.

    Uses the unsimplified likelihood exp(-||Y - sqrt(lam) x'^d||^2 / 2), so it
    independently checks the dropped-constant algebra of the fast path.
    """
    rng = np.random.default_rng(seed)
    sqk = np.sqrt(k)
    logw = np.empty(samples)
    supports = np.empty((samples, k), dtype=np.int64)
    for s in range(samples):
        sup = np.sort(rng.choice(n, size=k, replace=False))
        supports[s] = sup
        x = np.zeros(n)
        x[sup] = 1.0 / sqk
        tensor = x
        for _ in range(d - 1):
            tensor = np.multiply.outer(tensor, x)
        resid = Y - np.sqrt(lam) * tensor
        logw[s] = -0.5 * float((resid**2).sum())
    w = np.exp(logw - logw.max())
    est = np.zeros(n)
    for s in range(samples):
        est[supports[s]] += w[s] / sqk
    return est / w.sum()


def tpca_full_density_posterior(Y: np.ndarray, n: int, k: int, d: int, lam: float) -> np.ndarray:
    """Exact posterior mean via the unsimplified Gaussian density, all supports."""
    supports = list(itertools.combinations(range(n), k))
    sqk = np.sqrt(k)
    logw = np.empty(len(supports))
    for s, sup in enumerate(supports):
        x = np.zeros(n)
        x[list(sup)] = 1.0 / sqk
        tensor = x
        for _ in range(d - 1):
            tensor = np.multiply.outer(tensor, x)
        resid = Y - np.sqrt(lam) * tensor
        logw[s] = -0.5 * float((resid**2).sum())
    w = np.exp(logw - logw.max())
    est = np.zeros(n)
    for s, sup in enumerate(supports):
        est[list(sup)] += w[s] / sqk
    return est / w.sum()


def gss_counting_weights_mpmath(X: np.ndarray, y_hat: float, k: int, rho: float):
    """Extended-precision direct weight sum (no log-sum-exp); needs mpmath."""
    import mpmath as mp

    mp.mp.dps = 60
    N = len(X)
    shrink = mp.sqrt(1 - mp.mpf(rho) ** 2)
    two_rho2 = 2 * mp.mpf(rho) ** 2
    total = mp.mpf(0)
    marg = [mp.mpf(0)] * N
    for combo in itertools.combinations(range(N), k):
        s = mp.mpf(0)
        for i in combo:
            s += mp.mpf(float(X[i]))
        w = mp.e ** (-((mp.mpf(float(y_hat)) - shrink * s) ** 2) / two_rho2)
        total += w
        for i in combo:
            marg[i] += w
    return np.array([float(v / total) for v in marg])


def psp_edge_vector_loop(adjacency: np.ndarray, n: int) -> np.ndarray:
    """adjacency[i, j] over the pairs i < j of [n], 1-indexed, lexicographic."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return np.array([adjacency[i, j] for (i, j) in pairs], dtype=adjacency.dtype)


def psp_adjacency_loop(edge_vec: np.ndarray, n: int) -> np.ndarray:
    """Symmetric (n+1)x(n+1) boolean adjacency of an edge vector in pair order."""
    adj = np.zeros((n + 1, n + 1), dtype=bool)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for (i, j), present in zip(pairs, edge_vec):
        if present:
            adj[i, j] = adj[j, i] = True
    return adj


def shortest_path_loop(adjacency: np.ndarray) -> Optional[tuple[int, ...]]:
    """Minimum-edge path from vertex 1 to vertex 2 of an (n+1)x(n+1) adjacency, lexicographically smallest.

    Breadth-first distances to vertex 2 by a scan of every row, then from
    vertex 1 the smallest neighbour one step closer; None when 2 is unreachable.
    """
    n = adjacency.shape[0] - 1
    source, target = 1, 2
    dist = {target: 0}
    frontier = [target]
    while frontier:
        nxt = []
        for u in frontier:
            for v in range(1, n + 1):
                if adjacency[u, v] and v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    if source not in dist:
        return None
    path = [source]
    cur = source
    while cur != target:
        step = dist[cur] - 1
        cur = min(v for v in range(1, n + 1) if adjacency[cur, v] and dist.get(v, -1) == step)
        path.append(cur)
    return tuple(path)


def shortest_path_lists(edges: np.ndarray, n: int) -> Optional[tuple[int, ...]]:
    """shortest_path of one edge vector by a breadth-first search over neighbour lists."""
    neighbours: list[list[int]] = [[] for _ in range(n + 1)]  # ascending: the pairs run in lexicographic order
    pairs = vertex_pairs(n)
    for i, j in (pairs[e] for e in np.flatnonzero(edges).tolist()):
        neighbours[i].append(j)
        neighbours[j].append(i)
    dist, queue = {2: 0}, [2]
    for u in queue:  # breadth first from vertex 2: the loop reaches what it appends
        for v in neighbours[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    if 1 not in dist:
        return None
    path = [1]
    while path[-1] != 2:  # the smallest neighbour one step closer to vertex 2
        path.append(next(v for v in neighbours[path[-1]] if dist.get(v) == dist[path[-1]] - 1))
    return tuple(path)


def _pair_index(n: int) -> dict:
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return {p: t for t, p in enumerate(pairs)}


def path_edge_indices_loop(n: int, L: int) -> np.ndarray:
    """Edge-vector indices of every 1->2 path of length L, one interior permutation at a time."""
    idx = _pair_index(n)
    rows = []
    for interior in itertools.permutations(range(3, n + 1), L - 1):
        seq = (1, *interior, 2)
        rows.append([idx[(min(a, b), max(a, b))] for a, b in zip(seq[:-1], seq[1:])])
    return np.array(rows, dtype=np.int64).reshape(-1, L)


def shape_maps_loop(shape, n: int) -> np.ndarray:
    """Edge-vector index array of a PSP shape, one row per injective placeholder assignment."""
    placeholders = sorted({v for e in shape for v in e if v >= 3})
    idx = _pair_index(n)
    rows = []
    for assign in itertools.permutations(range(3, n + 1), len(placeholders)):
        table = {1: 1, 2: 2, **dict(zip(placeholders, assign))}
        rows.append([idx[tuple(sorted((table[a], table[b])))] for a, b in shape])
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(shape))


def gathered_row_sums(X: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """X[..., cols].sum(axis=-1) as one C-ordered (..., len(cols), n) block summed along its rows."""
    return np.ascontiguousarray(np.take(X, cols, axis=-1)).sum(axis=-1)


def gss_exact_match_posterior_loop(X: np.ndarray, y_hat: float, k: int) -> tuple[np.ndarray, int]:
    """(membership frequencies, match count) over the k-subsets whose float sum is exactly y_hat."""
    matches = [row for row in itertools.combinations(range(len(X)), k) if subset_sum_value(X, row) == y_hat]
    est = np.zeros(len(X))
    for row in matches:
        est[list(row)] += 1.0
    return est / len(matches), len(matches)


def exhaustive_subset_sum_loop(X: np.ndarray, Y: float, k: int):
    """Best k-subset by |sum - Y|, the first one in combinations order on a tie."""
    best = None
    best_err = math.inf
    for combo in itertools.combinations(range(len(X)), k):
        err = abs(subset_sum_value(X, combo) - Y)
        if err < best_err:
            best, best_err = combo, err
    return best, best_err


def census_weights_loop(adjacency: np.ndarray, m: int, eps_m: int) -> list[int]:
    """C(present edges, m - eps_m) for every length-m 1->2 path, in interior permutation order."""
    n = adjacency.shape[0] - 1
    keep = m - eps_m
    weights = []
    for interior in itertools.permutations(range(3, n + 1), m - 1):
        seq = (1, *interior, 2)
        pres = sum(bool(adjacency[a, b]) for a, b in zip(seq[:-1], seq[1:]))
        weights.append(math.comb(pres, keep) if pres >= keep else 0)
    return weights


def overlap_pairs_loop(adjacency: np.ndarray, m: int, eps_m: int) -> tuple[int, dict]:
    """(pair_count, histogram) of count_overlap_pairs: a double loop over the paths' edge bitmasks."""
    n = adjacency.shape[0] - 1
    index = _pair_index(n)
    masks = []
    for interior in itertools.permutations(range(3, n + 1), m - 1):
        seq = (1, *interior, 2)
        masks.append(sum(1 << index[(min(a, b), max(a, b))] for a, b in zip(seq[:-1], seq[1:])))
    weights = census_weights_loop(adjacency, m, eps_m)
    histogram: dict[int, int] = {}
    total = 0
    for mi, wi in zip(masks, weights):
        if wi == 0:
            continue
        for mj, wj in zip(masks, weights):
            shared = (mi & mj).bit_count()
            if wj and shared >= 1:
                total += wi * wj
                histogram[shared] = histogram.get(shared, 0) + wi * wj
    return total, histogram


def overlap_pairs_by_matches(adjacency: np.ndarray, m: int, eps_m: int) -> tuple[int, dict]:
    """(pair_count, histogram) of count_overlap_pairs, one graph at a time, as the census counted before
    its overlap pass over a stack of graphs: the shared edges of two paths that carry an approximate path
    are the matches of their edge lists, m**2 equality passes, and the weight products add up in int64."""
    paths = path_edge_indices_loop(adjacency.shape[0] - 1, m)
    weights = np.array(census_weights_loop(adjacency, m, eps_m), dtype=np.int64)
    paths, weights = paths[weights > 0], weights[weights > 0]
    shared = sum(paths[:, None, a] == paths[None, :, b] for a in range(m) for b in range(m))
    totals = np.zeros(m + 1, dtype=np.int64)
    np.add.at(totals, shared, np.outer(weights, weights))
    histogram = {k: c for k, c in enumerate(totals.tolist()) if k >= 1 and c}
    return sum(histogram.values()), histogram


def rlc_character_expectation_loop(idx1, idx2, params, rho: float) -> float:
    """E[chi_{S1,T1}(A, y) * chi_{S2,T2}(A, T_rho(y))] by a loop over every (A, x, resample mask).

    Fresh bits on resampled coordinates integrate to zero in the +-1
    convention, so a mask that hits T2 kills the term.
    """
    m, n = params.m, params.n
    total = 0.0
    for a_bits in range(2 ** (m * n)):
        A = np.array([[(a_bits >> (i * n + j)) & 1 for j in range(n)] for i in range(m)], dtype=np.uint8)
        base_A = 1.0
        for i, j in idx1.S:
            base_A *= 2.0 * A[i, j] - 1.0
        for i, j in idx2.S:
            base_A *= 2.0 * A[i, j] - 1.0
        for x_bits in range(2**n):
            x = np.array([(x_bits >> j) & 1 for j in range(n)], dtype=np.uint8)
            y = (A @ x) % 2
            val_y1 = 1.0
            for i in idx1.T:
                val_y1 *= 2.0 * y[i] - 1.0
            for mask_bits in range(2**m):
                p_mask = 1.0
                for i in range(m):
                    p_mask *= rho if (mask_bits >> i) & 1 else (1.0 - rho)
                if p_mask == 0.0:
                    continue
                val = base_A * val_y1
                for i in idx2.T:
                    if (mask_bits >> i) & 1:
                        val = 0.0
                        break
                    val *= 2.0 * y[i] - 1.0
                total += p_mask * val
    return total / 2 ** (m * n + n)


def diagram_mc_oracle_oneshot(spec, samples: int, seed: int) -> tuple[float, float]:
    """lowdeg.diagram_mc_oracle as one (samples, k) draw, the whole run's arrays at once."""
    rng = generator(seed)
    chol = np.linalg.cholesky(spec.R + DIAGRAM_PSD_TOL * np.eye(len(spec.alpha)))
    Z = rng.standard_normal((samples, len(spec.alpha))) @ chol.T
    if spec.mu is not None:
        Z = Z + spec.mu
    vals = np.ones(samples)
    for i, a in enumerate(spec.alpha):
        if a > 0:
            vals = vals * hermite_eval(a, Z[:, i])
    return mean_stderr(vals)


def seed_sequence_seed(seed: int, *path: int) -> int:
    """numpy's SeedSequence(seed, spawn_key=path) collapsed to one 64-bit seed."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=path).generate_state(1, np.uint64)[0])


def seed_sequence_philox_key(seed: int) -> np.ndarray:
    """The key that Philox(SeedSequence(seed)) runs on."""
    return np.random.SeedSequence(entropy=seed).generate_state(2, np.uint64)


_MASK32 = 0xFFFFFFFF


class _Hash:
    """One SeedSequence hash-constant sequence, applied column-wise to uint32 arrays."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = (self.const * self.mult) & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> np.uint32(16))


def _mix32(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
    return r ^ (r >> np.uint32(16))


def state_words_loop(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence(entropy row).generate_state(n_words, uint32) for every row of a (B, L) uint32 array.

    numpy's mixing loops as written, one pool column of B words per hash call.
    """
    hashmix = _Hash(0x43B0D7E5, 0x931E8875)
    zero = np.zeros(entropy.shape[0], dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < entropy.shape[1] else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix32(pool[dst], hashmix(pool[src]))
    for src in range(4, entropy.shape[1]):
        for dst in range(4):
            pool[dst] = _mix32(pool[dst], hashmix(entropy[:, src]))
    out = _Hash(0x8B51F9DD, 0x58F38DED)
    return np.stack([out(pool[i % 4]) for i in range(n_words)], axis=1)


def uint32_words(value: int) -> list[int]:
    """value as little-endian uint32 words, as SeedSequence reads an int; 0 is one word."""
    out = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        out.append(value & _MASK32)
    return out


def seed_path_entropy(seed: int, *path: int) -> list[int]:
    """The entropy words of SeedSequence(seed, spawn_key=path): the seed padded to 4 words when a path follows."""
    run = uint32_words(seed)
    if path:
        run += [0] * (4 - len(run))
    return run + [w for p in path for w in uint32_words(p)]


def count_paths_rows_loop(seed: int, n: int, m: int, eps_m: int, q: float, graphs: int, pair_graphs: int) -> list:
    """(trials, metric, value, stderr) of each count-paths CSV row, from one G(n, q) draw per scalar seed.

    Graph t is generator(derive_seed(seed, INSTANCE_STREAM, t)).random(P) < q
    over the vertex pairs, counted with census_weights_loop and, for t below
    pair_graphs, overlap_pairs_by_matches.
    """
    pairs = n * (n - 1) // 2
    counts, pair_total, totals = [], 0.0, {}
    for t in range(max(graphs, pair_graphs)):
        adj = psp_adjacency_loop(generator(derive_seed(seed, INSTANCE_STREAM, t)).random(pairs) < q, n)
        if t < graphs:
            counts.append(sum(census_weights_loop(adj, m, eps_m)))
        if t < pair_graphs:
            pair_count, histogram = overlap_pairs_by_matches(adj, m, eps_m)
            pair_total += pair_count
            for shared, c in histogram.items():
                totals[shared] = totals.get(shared, 0.0) + c
    rows = [
        (graphs, "empirical_mean_count", *mean_stderr(counts)),
        (graphs, "expected_count", expected_count(n, m, eps_m, q), 0.0),
    ]
    if pair_graphs:
        rows.append((pair_graphs, "mean_pair_count", pair_total / pair_graphs, 0.0))
        rows += [(pair_graphs, f"mean_pair_overlap[{k}]", totals[k] / pair_graphs, 0.0) for k in sorted(totals)]
    return rows


def pack_rows_loop(A: np.ndarray) -> list[int]:
    """Each row of a 0/1 matrix as the integer with bit j = column j, one bit at a time."""
    m, n = A.shape
    return [int(sum(int(A[i, j]) << j for j in range(n))) for i in range(m)]


def f2_rank_loop(A: np.ndarray) -> int:
    """GF(2) rank of a 0/1 matrix: xor elimination of its rows read as integers."""
    basis: list[int] = []
    for row in A:
        r = int("".join(str(int(v)) for v in row), 2)
        for b in sorted(basis, reverse=True):  # distinct leading bits, highest first
            r = min(r, r ^ b)
        if r:
            basis.append(r)
    return len(basis)


def f2_eliminate_loop(rows: list[int], n_cols: int) -> list[int]:
    """Gauss-Jordan elimination of packed rows, in place, over columns 0..n_cols-1.

    Returns the pivot columns; pivot r ends up alone in its column, in row r.
    Bits at n_cols and above ride along (an augmented right-hand side).
    """
    pivot_cols: list[int] = []
    for col in range(n_cols):
        rank = len(pivot_cols)
        pivot = next((r for r in range(rank, len(rows)) if (rows[r] >> col) & 1), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and (rows[r] >> col) & 1:
                rows[r] ^= rows[rank]
        pivot_cols.append(col)
    return pivot_cols


def f2_solve_loop(A: np.ndarray, y: np.ndarray) -> F2Solution:
    """f2_solve by elimination of the rows of [A | y] as Python ints, one matrix at a time."""
    m, n = A.shape
    rows = [row | (int(y[i]) << n) for i, row in enumerate(pack_rows_loop(A))]
    pivot_cols = f2_eliminate_loop(rows, n)
    rank = len(pivot_cols)
    var_mask = (1 << n) - 1
    for r in range(rank, m):
        if rows[r] & var_mask == 0 and (rows[r] >> n) & 1:
            return F2Solution(kind="inconsistent", particular=None, nullspace_basis=[], rank=rank)
    particular = np.zeros(n, dtype=np.uint8)
    for r, col in enumerate(pivot_cols):
        particular[col] = (rows[r] >> n) & 1
    free_cols = [c for c in range(n) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        vec = np.zeros(n, dtype=np.uint8)
        vec[f] = 1
        for r, col in enumerate(pivot_cols):
            vec[col] = (rows[r] >> f) & 1
        basis.append(vec)
    kind = "unique" if not free_cols else "affine"
    return F2Solution(kind=kind, particular=particular, nullspace_basis=basis, rank=rank)


def gram_det_loop(rows: list[list[int]]) -> int:
    """det(B B^T) by fraction-free (Bareiss) elimination of the Gram matrix, pivoting rows and columns together."""
    n = len(rows)
    g = [[sum(a * b for a, b in zip(rows[i], rows[j])) for j in range(n)] for i in range(n)]
    denom = 1
    for k in range(n - 1):
        if g[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if g[r][k] != 0), None)
            if swap is None:
                return 0
            g[k], g[swap] = g[swap], g[k]
            for r in range(n):
                g[r][k], g[r][swap] = g[r][swap], g[r][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                q, r = divmod(g[i][j] * g[k][k] - g[i][k] * g[k][j], denom)
                assert r == 0, "inexact Bareiss division"
                g[i][j] = q
        denom = g[k][k]
    return g[n - 1][n - 1]


# ---------------------------------------------------------------------------
# per-trial Generator-call samplers and noise operators: the references for
# models.chunk_sampler and noise.chunk_noise, which decode raw Philox words;
# each draw builds an instance, a run of one trial


def one_trial(run_type, params, *trial_fields):
    """The run of one trial whose fields are trial_fields, each stacked along a new first axis."""
    return run_type(params, *(np.asarray(field)[None] for field in trial_fields))


def trial_observation(instance):
    """The one observation of an instance, a run of one trial: each field's row 0."""
    observation = instance.observation
    return tuple(field[0] for field in observation) if isinstance(observation, tuple) else observation[0]


def draw_psp(params: PspParams, rng: np.random.Generator) -> PspRun:
    """Plant a uniform path from 1 to 2, then union an independent G(n, q)."""
    n, L, q = params.n, params.L, params.q
    interior = rng.permutation(np.arange(3, n + 1))[: L - 1]
    path = (1, *map(int, interior), 2)
    adj = psp_adjacency_loop(rng.random(len(vertex_pairs(n))) < q, n)
    for a, b in zip(path[:-1], path[1:]):
        adj[a, b] = adj[b, a] = True
    return one_trial(PspRun, params, path, psp_edge_vector_loop(adj, n))


def draw_rlc(params: RlcParams, rng: np.random.Generator) -> RlcRun:
    A = rng.integers(0, 2, size=(params.m, params.n), dtype=np.uint8)
    x = rng.integers(0, 2, size=params.n, dtype=np.uint8)
    y = (A @ x) % 2
    return one_trial(RlcRun, params, A, x, y.astype(np.uint8))


def draw_gss(params: GssParams, rng: np.random.Generator) -> GssRun:
    X = rng.standard_normal(params.N)
    S = tuple(sorted(int(i) for i in rng.choice(params.N, size=params.k, replace=False)))
    return one_trial(GssRun, params, X, S, subset_sum_value(X, S))


def tpca_signal_tensor(params: TpcaParams, support: Sequence[int]) -> np.ndarray:
    """The planted tensor x^{(x)d}, x = 1_support / sqrt(k), by repeated outer products."""
    x = np.zeros(params.n, dtype=float)
    x[list(support)] = 1.0 / math.sqrt(params.k)
    tensor = x
    for _ in range(params.d - 1):
        tensor = np.multiply.outer(tensor, x)
    return tensor


def draw_tpca(params: TpcaParams, rng: np.random.Generator) -> TpcaRun:
    support = tuple(sorted(int(i) for i in rng.choice(params.n, size=params.k, replace=False)))
    W = rng.standard_normal((params.n,) * params.d)
    Y = math.sqrt(params.lam) * tpca_signal_tensor(params, support) + W
    return one_trial(TpcaRun, params, support, Y)


def draw_noise_psp(instance: PspRun, rho: float, rng: np.random.Generator) -> np.ndarray:
    """Resample every unordered pair from Bern(q) with probability rho, on the adjacency matrix; its edge vector."""
    check_rho(rho)
    n, edges = instance.params.n, instance.edges[0]
    if rho == 0.0:
        return edges.copy()
    adj = psp_adjacency_loop(edges, n)
    mask = rng.random(edges.shape) < rho
    fresh = rng.random(edges.shape) < instance.params.q
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for (i, j), resampled, bit in zip(pairs, mask, fresh):
        if resampled:
            adj[i, j] = adj[j, i] = bit
    return psp_edge_vector_loop(adj, n)


def draw_noise_rlc(y: np.ndarray, rho: float, rng: np.random.Generator) -> np.ndarray:
    """Resample each codeword bit from Bern(1/2) with probability rho; A untouched."""
    check_rho(rho)
    if rho == 0.0:
        return y.copy()
    mask = rng.random(y.shape) < rho
    fresh = rng.integers(0, 2, size=y.shape, dtype=y.dtype)
    return np.where(mask, fresh, y)


def draw_noise_gss(Y: float, rho: float, rng: np.random.Generator) -> float:
    """Ornstein-Uhlenbeck step on the scalar observation."""
    check_rho(rho)
    if rho == 0.0:
        return float(Y)
    z = rng.standard_normal()
    return float(np.sqrt(1.0 - rho * rho) * Y + rho * z)


def draw_noise_tpca(Y: np.ndarray, rho: float, rng: np.random.Generator) -> np.ndarray:
    """Entrywise Ornstein-Uhlenbeck step on the observed tensor."""
    check_rho(rho)
    if rho == 0.0:
        return Y.copy()
    Z = rng.standard_normal(Y.shape)
    return np.sqrt(1.0 - rho * rho) * Y + rho * Z


DRAWS = {PspParams: draw_psp, RlcParams: draw_rlc, GssParams: draw_gss, TpcaParams: draw_tpca}
# params type -> (instance, rho, rng) -> the noisy observation, shaped like trial_observation(instance)
NOISE_DRAWS = {
    PspParams: draw_noise_psp,
    RlcParams: lambda inst, rho, rng: (inst.A[0], draw_noise_rlc(inst.y[0], rho, rng)),
    GssParams: lambda inst, rho, rng: (inst.X[0], draw_noise_gss(inst.Y[0], rho, rng)),
    TpcaParams: lambda inst, rho, rng: draw_noise_tpca(inst.Y[0], rho, rng),
}


def sample_instance_scalar(params, seed: int):
    """The model's instance, a run of one trial, drawn from generator(seed) with Generator calls."""
    return DRAWS[type(params)](params, generator(seed))


def noise_scalar(instance, rho: float, seed: int):
    """instance's observation after the model's noise at rho, drawn from generator(seed) with Generator calls."""
    return NOISE_DRAWS[type(instance.params)](instance, rho, generator(seed))


def hex_fields(value):
    """value with every float as float.hex and every array as (dtype, shape, bytes hex), field by field."""
    if hasattr(value, "__dataclass_fields__"):
        return {name: hex_fields(getattr(value, name)) for name in value.__dataclass_fields__}
    if isinstance(value, (tuple, list)):
        return [hex_fields(v) for v in value]
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes().hex())
    return value.hex() if isinstance(value, float) else value


def stack_observations(observations: list):
    """Per-trial observations stacked as a run's observation: each array, or each field of a tuple, along a new first axis."""
    if isinstance(observations[0], tuple):
        return tuple(np.array(field) for field in zip(*observations))
    return np.array(observations)


def full_rank_rlc_loop(params, seed: int, t: int):
    """The first of attempts 0..255 at seed path (seed, INSTANCE_STREAM, t, attempt) with full-column-rank A."""
    for attempt in range(256):
        inst = sample_instance_scalar(params, derive_seed(seed, INSTANCE_STREAM, t, attempt))
        if f2_rank_loop(inst.A[0]) == params.n:
            return inst
    raise AssertionError(f"no full-column-rank draw for trial {t} in 256 attempts")


def coupled_trial_scalar(params, rho: float, seed: int, t: int, grid_point=None, full_rank_only: bool = False):
    """Trial t of a coupled experiment from two scalar seeds, one per stream, with Generator calls."""
    if full_rank_only:
        inst = full_rank_rlc_loop(params, seed, t)
    else:
        inst = sample_instance_scalar(params, derive_seed(seed, INSTANCE_STREAM, t))
    path = (t,) if grid_point is None else (grid_point, t)
    return inst, noise_scalar(inst, rho, derive_seed(seed, NOISE_STREAM, *path))


def rlc_poly_evaluate_loop(poly, observation) -> float:
    """Sum of coeff * chi_{S,T}(A, y) over the terms, one observation, in term order."""
    A, y = observation
    total = 0
    for idx, c in poly.terms:
        val = 1.0
        for i, j in idx.S:
            val *= 2.0 * A[i, j] - 1.0
        for i in idx.T:
            val *= 2.0 * y[i] - 1.0
        total += c * val
    return total


def gss_poly_evaluate_loop(poly, observation, params) -> float:
    """Hermite polynomial at one (X, Y), term by term, factor by factor."""
    X, Y = observation
    y = Y / math.sqrt(params.k)
    total = 0.0
    for alpha, t, c in poly.terms:
        val = c * (hermite_eval(t, y) if t else 1.0)
        for coord, deg in alpha:
            val *= hermite_eval(deg, X[coord])
        total += val
    return total


def psp_poly_evaluate_loop(poly, edges: np.ndarray, params) -> float:
    """Symmetric PSP polynomial at one graph's edge vector: one placement sum per term."""
    n, q = params.n, params.q
    centered = (np.asarray(edges, dtype=float) - q) / math.sqrt(q * (1.0 - q))
    total = 0.0
    for shape, c in poly.terms:
        total += c * float(centered[shape_maps_loop(shape, n)].prod(axis=1).sum())
    return total


def stability_moments_loop(evaluate: Callable, params, rho: float, trials: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial (f - f o T_rho)^2 and f^2, one trial and one evaluate(observation) at a time, in Python floats."""
    num, den = [], []
    for t in range(trials):
        inst, noisy = coupled_trial_scalar(params, rho, seed, t)
        v0 = float(evaluate(trial_observation(inst)))
        v1 = float(evaluate(noisy))
        num.append((v0 - v1) ** 2)
        den.append(v0**2)
    return np.array(num), np.array(den)


def stability_ratio_loop(evaluate: Callable, params, rho: float, trials: int, seed: int) -> tuple[float, float]:
    """(ratio, stderr) of E[(f - f o T_rho)^2] / E[f^2] over stability_moments_loop's per-trial values."""
    return ratio_with_stderr(*stability_moments_loop(evaluate, params, rho, trials, seed))


def mmse_curve_loop(params, rho_grid: Sequence[float], trials: int, seed: int,
                    full_rank_only: bool = False) -> list[tuple[float, float]]:
    """(mmse, stderr) at each grid point, one trial and one posterior_mean_loop call at a time."""
    out = []
    for j, rho in enumerate(rho_grid):
        errs = []
        for t in range(trials):
            inst, noisy = coupled_trial_scalar(params, rho, seed, t, grid_point=j, full_rank_only=full_rank_only)
            diff = posterior_mean_loop(params, noisy, rho) - inst.signal_vectors()[0]
            errs.append(float(diff @ diff))
        out.append(mean_stderr(errs))
    return out


def measure_stability_loop(run: Callable, params, rho: float, trials: int, seed: int) -> tuple[float, ...]:
    """(eta, its stderr, mse, its stderr, norm, its stderr), one trial and one run(observation) at a time."""
    diffs, errs, norms = [], [], []
    for t in range(trials):
        inst, noisy = coupled_trial_scalar(params, rho, seed, t)
        a = np.asarray(run(trial_observation(inst)), dtype=float)
        b = np.asarray(run(noisy), dtype=float)
        d, e = a - b, a - inst.signal_vectors()[0]
        diffs.append(float(d @ d))
        errs.append(float(e @ e))
        norms.append(float(a @ a))
    return (*ratio_with_stderr(np.array(diffs), np.array(norms)), *mean_stderr(errs), *mean_stderr(norms))


def rlc_hamming_profile_loop(A: np.ndarray, y_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """count[h] and ones[h, i] over all messages x, 65,536 messages at a time.

    count[h] = #{x : w(Ax - y_hat) = h}; ones[h, i] = #{x : w(Ax - y_hat) = h, x_i = 1}.
    """
    m, n = A.shape
    count = np.zeros(m + 1, dtype=float)
    ones = np.zeros((m + 1, n), dtype=float)
    chunk = 1 << 16
    y_hat = np.asarray(y_hat, dtype=np.uint8)
    for start in range(0, 2**n, chunk):
        stop = min(start + chunk, 2**n)
        xs = ((np.arange(start, stop)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.uint8)
        ham = ((xs @ A.T % 2) != y_hat).sum(axis=1)
        count += np.bincount(ham, minlength=m + 1)
        for h in np.unique(ham):
            ones[h] += xs[ham == h].sum(axis=0)
    return count, ones


def rlc_profiles_strided(A: np.ndarray, y_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer count[t, h] and ones[t, h, i] of a stack of trials, one bincount per low bit and block.

    The message enumeration of bayes._rlc_profiles, with ones[i] of a low bit
    i counted from a strided copy of the keys of the messages that set it.
    """
    T, m, n = A.shape
    low = min(n, 16)
    cols = pack_words(A.transpose(0, 2, 1))
    table = np.empty((T, 1 << low, cols.shape[2]), dtype=np.uint64)
    table[:, 0] = pack_words(y_hat)
    high = np.zeros((T, 1 << (n - low), cols.shape[2]), dtype=np.uint64)
    for j in range(n):
        codes, at = (table, j) if j < low else (high, j - low)
        np.bitwise_xor(codes[:, :1 << at], cols[:, j, None], out=codes[:, 1 << at:2 << at])
    bins = T * (m + 1)
    keys_base = (m + 1) * np.arange(T)[:, None]
    count = np.zeros(bins, dtype=np.int64)
    ones = np.zeros((n, bins), dtype=np.int64)
    for prefix in range(1 << (n - low)):
        codes = table ^ high[:, prefix, None] if prefix else table
        keys = np.bitwise_count(codes).sum(axis=2, dtype=np.intp)
        keys += keys_base
        block = np.bincount(keys.ravel(), minlength=bins)
        count += block
        for i in range(low):
            ones[i] += np.bincount(keys.reshape(T, -1, 2, 1 << i)[:, :, 1].ravel(), minlength=bins)
        for i in range(low, n):
            if prefix >> (i - low) & 1:
                ones[i] += block
    return count.reshape(T, m + 1), np.stack([row.reshape(T, m + 1) for row in ones], axis=-1)


def rlc_finish_loop(counts: np.ndarray, ones: np.ndarray, rho: float) -> np.ndarray:
    """RLC posterior means from float profiles (count[t, h], ones[t, h, i]) at rho > 0, one trial at a time."""
    log_r = math.log(rho / (2.0 - rho))
    hs = np.arange(counts.shape[1], dtype=float)
    est = np.empty((len(counts), ones.shape[2]))
    for t, (count, one) in enumerate(zip(counts, ones)):
        occupied = count > 0
        hi = (hs * log_r)[occupied].max()
        phi = np.where(occupied, np.exp(hs * log_r - hi), 0.0)
        est[t] = (phi @ one) / float(phi @ count)
    return est


def row_dots_loop(rows: np.ndarray) -> np.ndarray:
    """Each row's squared norm, one 1-D dot a row."""
    return np.array([float(x @ x) for x in rows])


def tpca_log_weights_loop(Y: np.ndarray, params) -> tuple[np.ndarray, np.ndarray]:
    """Every k-subset and its log-weight, one np.ix_ block sum per support."""
    combos = np.array(list(itertools.combinations(range(params.n), params.k)), dtype=np.int64)
    scale = math.sqrt(params.lam) * params.k ** (-params.d / 2.0)
    lw = np.empty(combos.shape[0])
    for r, row in enumerate(combos):
        block = Y[np.ix_(*([row] * params.d))]
        lw[r] = scale * float(block.sum())
    return combos, lw


def tpca_overlap_distribution_loop(Y: np.ndarray, planted_support: Sequence[int], params) -> np.ndarray:
    """Posterior mass by overlap with the planted support, from tpca_log_weights_loop."""
    combos, lw = tpca_log_weights_loop(Y, params)
    member = np.zeros(params.n, dtype=bool)
    member[list(planted_support)] = True
    overlap = member[combos].sum(axis=1)
    w = np.exp(lw - lw.max())
    mass = np.bincount(overlap, weights=w, minlength=params.k + 1)
    return mass / w.sum()


def _weighted_marginals_loop(log_weights: np.ndarray, members: np.ndarray, size: int) -> np.ndarray:
    w = np.exp(log_weights - log_weights.max())
    est = np.zeros(size)
    np.add.at(est, members.ravel(), np.repeat(w, members.shape[1]))
    return est / w.sum()


def _coef_log(coef: np.ndarray, p: float) -> np.ndarray:
    lp = math.log(p) if p > 0.0 else -math.inf
    with np.errstate(invalid="ignore"):
        return np.where(coef > 0, coef * lp, 0.0)


def posterior_mean_loop(params, observation, rho: float) -> np.ndarray:
    """Posterior-mean estimate of one observation: the per-observation enumeration of each model.

    PSP, GSS and TPCA weigh each configuration and accumulate its mass with
    np.add.at; RLC runs rlc_hamming_profile_loop.  Inconsistent input at
    rho = 0 raises AssertionError.
    """
    check_rho(rho)
    if isinstance(params, PspParams):
        n, L, q = params.n, params.L, params.q
        edge_present = np.asarray(observation, dtype=float)
        path_idx = path_edge_indices_loop(n, L)
        m_in = edge_present[path_idx].sum(axis=1)
        p1 = 1.0 - rho * (1.0 - q)
        if 0.0 < q < 1.0:
            lw = _coef_log(m_in, p1 / q) + _coef_log(L - m_in, rho)
        else:
            total_present = edge_present.sum()
            lw = (
                _coef_log(m_in, p1)
                + _coef_log(L - m_in, rho * (1.0 - q))
                + _coef_log(total_present - m_in, q)
                + _coef_log(edge_present.size - L - (total_present - m_in), 1.0 - q)
            )
        assert np.any(lw > -np.inf)
        return _weighted_marginals_loop(lw, path_idx, edge_present.size)
    if isinstance(params, RlcParams):
        A, y_hat = observation
        count, ones = rlc_hamming_profile_loop(A, y_hat)
        if rho == 0.0:
            assert count[0] > 0
            return ones[0] / count[0]
        log_r = math.log(rho / (2.0 - rho))
        hs = np.arange(A.shape[0] + 1, dtype=float)
        occupied = count > 0
        hi = (hs * log_r)[occupied].max()
        phi = np.where(occupied, np.exp(hs * log_r - hi), 0.0)
        return (phi @ ones) / float(phi @ count)
    if isinstance(params, GssParams):
        X, y_hat = observation
        if rho == 0.0:
            est, count = gss_exact_match_posterior_loop(X, y_hat, params.k)
            assert count > 0
            return est
        combos = np.array(list(itertools.combinations(range(params.N), params.k)), dtype=np.int64)
        sums = np.asarray(X, dtype=float)[combos].sum(axis=1)
        shrink = math.sqrt(1.0 - rho * rho)
        lw = -((y_hat - shrink * sums) ** 2) / (2.0 * rho * rho)
        return _weighted_marginals_loop(lw, combos, params.N)
    assert isinstance(params, TpcaParams)
    combos, lw = tpca_log_weights_loop(observation, replace(params, lam=params.lam * (1.0 - rho * rho)))
    return _weighted_marginals_loop(lw, combos, params.n) / math.sqrt(params.k)


def all_simple_paths(adjacency: np.ndarray, source: int = 1, target: int = 2):
    """DFS enumeration of all simple paths; exhaustive oracle for small n."""
    n = adjacency.shape[0] - 1
    out = []

    def walk(path, seen):
        u = path[-1]
        if u == target:
            out.append(tuple(path))
            return
        for v in range(1, n + 1):
            if adjacency[u, v] and v not in seen:
                walk(path + [v], seen | {v})

    walk([source], {source})
    return out


def f2_solution_set(sol) -> list[np.ndarray]:
    """Materialize the full affine solution set of an F2Solution (small systems only)."""
    if sol.kind == "inconsistent":
        return []
    out = []
    for bits in itertools.product((0, 1), repeat=len(sol.nullspace_basis)):
        v = sol.particular.copy()
        for b, basis_vec in zip(bits, sol.nullspace_basis):
            if b:
                v = (v + basis_vec) % 2
        out.append(v)
    return out


def lattice_coordinates(basis: Sequence[Sequence[int]], vector: Sequence[int]) -> Optional[list[int]]:
    """Integer coordinates of vector in the row lattice of basis, or None.

    Exact rational elimination; intended for membership checks on small bases.
    """
    rows = [[Fraction(v) for v in row] for row in basis]
    target = [Fraction(v) for v in vector]
    n, m = len(rows), len(rows[0])
    coeff = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    r = 0
    pivots = []
    for col in range(m):
        piv = next((i for i in range(r, n) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        coeff[r], coeff[piv] = coeff[piv], coeff[r]
        inv = 1 / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        coeff[r] = [v * inv for v in coeff[r]]
        for i in range(n):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * bq for a, bq in zip(rows[i], rows[r])]
                coeff[i] = [a - f * bq for a, bq in zip(coeff[i], coeff[r])]
        pivots.append(col)
        r += 1
    coords = [Fraction(0)] * n
    residual = list(target)
    for i, col in enumerate(pivots):
        c = residual[col]
        if c != 0:
            coords_i = c
            residual = [a - coords_i * bq for a, bq in zip(residual, rows[i])]
            coords = [a + coords_i * bq for a, bq in zip(coords, coeff[i])]
    if any(v != 0 for v in residual):
        return None
    if any(v.denominator != 1 for v in coords):
        return None
    return [int(v) for v in coords]


def _f2_recovers(inst, cfg: LllConfig) -> bool:
    sol = f2_solve(inst.A[0], inst.y[0])
    return sol.kind == "unique" and bool(np.array_equal(sol.particular, inst.x[0]))


# model -> (instance, a run of one trial; LllConfig) -> whether the model's fast solver recovers the planted
# signal, compared on the solver's own output (path, unique message, subset) rather than on a signal vector
SOLVER_RECOVERS_RULES = {
    "psp": lambda inst, cfg: shortest_path(inst.edges[0], inst.params.n) == tuple(inst.path[0].tolist()),
    "rlc": _f2_recovers,
    "gss": lambda inst, cfg: lll_subset_sum(inst.X[0], inst.Y[0], inst.params.k, cfg) == tuple(inst.S[0].tolist()),
}


# ---------------------------------------------------------------------------
# test-only helpers


def instances_of(run) -> list:
    """Each trial of a run as an instance, a run of one trial of its own, in order."""
    return [type(run)(run.params, *(getattr(run, f.name)[i : i + 1] for f in fields(run)[1:])) for i in range(len(run))]


def stack_runs(runs: Sequence):
    """One model's runs as one run record, in order: each field concatenated along the trial axis."""
    first = runs[0]
    return type(first)(first.params, *(np.concatenate([getattr(r, f.name) for r in runs]) for f in fields(first)[1:]))


def path_edges(path: Sequence[int]) -> list[tuple[int, int]]:
    """Canonical (min, max) edges of a vertex sequence."""
    return [(min(a, b), max(a, b)) for a, b in zip(path[:-1], path[1:])]


def tpca_class_sizes(n: int, k: int) -> np.ndarray:
    """Number of k-supports at each overlap with a fixed support."""
    return np.array([math.comb(k, i) * math.comb(n - k, k - i) for i in range(k + 1)], dtype=float)


def ou_compose(rho1: float, rho2: float) -> float:
    """The single rho equivalent to applying OU noise at rho1 then rho2."""
    check_rho(rho1)
    check_rho(rho2)
    return float(np.sqrt(rho1**2 + rho2**2 - rho1**2 * rho2**2))


@dataclass(frozen=True)
class SymmetrizeReport:
    mse_raw: float
    stderr_raw: float
    mse_symmetrized: float
    stderr_symmetrized: float


def symmetrize_check(
    g: Callable[[np.ndarray], float],
    target_pair: tuple[int, int],
    params: PspParams,
    trials: int,
    seed: int,
    *,
    n_perms: int = 2000,
) -> SymmetrizeReport:
    """Compare the MSE of g with that of its average over vertex relabelings.

    The symmetrized estimator averages g over n_perms sampled permutations of
    the non-endpoint vertices (endpoints 1 and 2 stay fixed); its own MC error
    is folded into the reported stderr.  Targets the indicator that
    target_pair is a planted-path edge.
    """
    n = params.n
    rng = generator(derive_seed(seed, 7))
    perms = np.empty((n_perms, n + 1), dtype=np.int64)
    perms[:, 0] = 0
    perms[:, 1] = 1
    perms[:, 2] = 2
    for r in range(n_perms):
        perms[r, 3:] = rng.permutation(np.arange(3, n + 1))
    tp = (min(target_pair), max(target_pair))

    raw = np.empty(trials)
    sym = np.empty(trials)
    for t in range(trials):
        inst = sample_instance(params, derive_seed(seed, INSTANCE_STREAM, t))
        truth = float(tp in path_edges(inst.path[0].tolist()))
        adj = psp_adjacency_loop(inst.edges[0], n)
        raw[t] = (g(adj) - truth) ** 2
        acc = 0.0
        for r in range(n_perms):
            p = perms[r]
            acc += g(adj[np.ix_(p, p)])
        sym[t] = (acc / n_perms - truth) ** 2
    return SymmetrizeReport(*mean_stderr(raw), *mean_stderr(sym))
