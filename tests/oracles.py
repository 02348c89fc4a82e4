"""Slow reference implementations that the tests check the library against.

The Monte-Carlo posterior oracles are written straight from the generative
descriptions in plain numpy, on purpose sharing no code with the library's
samplers/noise/posteriors.  The PSP pair loops check the library's indexed
edge-vector conversions, and the (A, x, mask) loop checks the closed-form
RLC character correlation.  The exhaustive oracles at the end (all simple
paths, the full GF(2) solution set, exact lattice coordinates) check the
fast solvers.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np


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
