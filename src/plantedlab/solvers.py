"""Polynomial-time recovery routines: shortest path, GF(2) solve, LLL subset sum.

The shortest path and the GF(2) elimination run a batch of instances in one
vectorised pass, and their one-instance forms are batches of one.  LLL runs
one instance at a time, entirely in exact integer arithmetic: the
Gram-Schmidt state is kept as the classical integral (lambda, d) tables, so
size-reduction and the Lovasz condition are checked without floating point.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DegenerateInputError, ParameterError
from .models import SUBSET_BUDGET, check_bits, check_finite, check_shape, check_stack, pair_ids, subset_sum_value
from .models import subset_sums, subsets, vertex_pairs
from .noise import trial_runs


# ---------------------------------------------------------------------------
# shortest path


def _bfs_paths(edges: np.ndarray, n: int) -> np.ndarray:
    """shortest_paths of a block of bool edge vectors, one breadth-first level at a time for every graph."""
    count = len(edges)
    padded = np.zeros((count, edges.shape[1] + 1), dtype=bool)
    padded[:, :-1] = edges
    adj = padded[:, pair_ids(n)]  # a -1 of pair_ids, no vertex pair, reads the False pad
    dist = np.full((count, n + 1), -1)
    dist[:, 2] = 0
    frontier = dist == 0
    for level in range(1, n):  # breadth first from vertex 2
        frontier = (adj & frontier[:, :, None]).any(axis=1) & (dist < 0)
        if not frontier.any():
            break
        dist[frontier] = level
    paths = np.zeros((count, n), dtype=np.intp)
    hops = dist[:, 1]
    paths[hops >= 0, 0] = 1
    for step in range(1, hops.max() + 1):  # the smallest neighbour one step closer to vertex 2
        live = np.flatnonzero(hops >= step)
        closer = adj[live, paths[live, step - 1]] & (dist[live] == (hops[live] - step)[:, None])
        paths[live, step] = closer.argmax(axis=1)
    return paths


def shortest_paths(edges, n: int) -> np.ndarray:
    """shortest_path of each graph of a batch, as a (T, n) array of vertex rows.

    edges is a PSP batch's stack (T, n(n-1)/2) of edge vectors; a list raises
    ParameterError in models.stack_observations' words.  Row t holds graph
    t's path from vertex 1 to vertex 2 followed by zeros, or only zeros when
    vertex 2 is unreachable.  The adjacency matrices are built for runs of
    graphs that fit EVAL_CHUNK_BYTES (noise.trial_runs).
    """
    if n < 2:
        raise ParameterError(f"need n >= 2 for the vertices 1 and 2, got n={n}")
    if not (isinstance(edges, np.ndarray) and edges.ndim):
        raise ParameterError("edges is not stacked: a stacked psp batch holds (edges) as arrays of one row a trial")
    check_stack("edges", edges, (len(vertex_pairs(n)),))
    check_bits("edges", edges)
    paths = np.zeros((len(edges), n), dtype=np.intp)
    for run in trial_runs(len(edges), (n + 1) ** 2):
        paths[run.start : run.stop] = _bfs_paths(edges[run.start : run.stop].astype(bool), n)
    return paths


def shortest_path(edges: np.ndarray, n: int) -> Optional[tuple[int, ...]]:
    """Minimum-edge path from vertex 1 to vertex 2, lexicographically smallest.

    edges is the graph's 0/1 edge vector over vertex_pairs(n); vertices are
    1-indexed.  Returns None when vertex 2 is unreachable.  The batch of one
    of shortest_paths.
    """
    (path,) = shortest_paths(np.asarray(edges)[None], n)
    return tuple(path[path > 0].tolist()) if path[0] else None


# ---------------------------------------------------------------------------
# GF(2) linear algebra


def pack_words(bits: np.ndarray) -> np.ndarray:
    """0/1 vectors along the last axis packed into ceil(len/64) uint64 words; bit j of word w is entry 64 w + j."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    words = np.zeros(bits.shape[:-1] + (-(-bits.shape[-1] // 64) * 8,), dtype=np.uint8)
    words[..., : packed.shape[-1]] = packed
    return words.view("<u8")


def _f2_matrices(A, ndim: int) -> np.ndarray:
    """A as uint8, ParameterError unless it has ndim axes (a matrix, or a stack of them) of 0/1 entries."""
    A = np.asarray(A)
    if A.ndim != ndim:
        raise ParameterError(f"A has shape {A.shape}, expected a {'matrix (m, n)' if ndim == 2 else 'stack (T, m, n)'}")
    check_bits("A", A)
    return A.astype(np.uint8)


class F2Rref(NamedTuple):
    rows: np.ndarray  # (T, m, n) uint8: each matrix's reduced row echelon form
    rhs: np.ndarray  # (T, m) uint8: y through the same row operations
    pivots: np.ndarray  # (T, n) bool: the pivot columns; pivot r is alone in its column, in row r
    rank: np.ndarray  # (T,) intp


def f2_rref(A, y=None) -> F2Rref:
    """Gauss-Jordan elimination over GF(2) of each matrix of a stack (T, m, n), with a right-hand side y (T, m).

    y is zero by default.  Each row of [A | y] is packed into uint64 words
    (pack_words), and every matrix is eliminated at once, one column at a
    time.  The reduced row echelon form of a matrix is unique, so each
    matrix's result is that of eliminating it alone.
    """
    A = _f2_matrices(A, 3)
    T, m, n = A.shape
    y = np.zeros((T, m), dtype=np.uint8) if y is None else np.asarray(y)
    check_shape("y", y, (T, m))
    check_bits("y", y)
    words = pack_words(np.concatenate([A, y[:, :, None].astype(np.uint8)], axis=2))
    trials, row_ids = np.arange(T), np.arange(m)
    pivots = np.zeros((T, n), dtype=bool)
    rank = np.zeros(T, dtype=np.intp)
    for col in range(n if m else 0):
        bit = (words[:, :, col >> 6] >> np.uint64(col & 63)) & np.uint64(1) == 1
        candidates = bit & (row_ids >= rank[:, None])
        found = candidates.any(axis=1)
        top = np.minimum(rank, m - 1)  # a trial without a pivot swaps row top with itself
        pivot = np.where(found, candidates.argmax(axis=1), top)
        words[trials, top], words[trials, pivot] = words[trials, pivot], words[trials, top]
        bit[trials, pivot], bit[trials, top] = bit[trials, top], False
        words ^= np.where((bit & found[:, None])[:, :, None], words[trials, top][:, None, :], np.uint64(0))
        pivots[:, col] = found
        rank += found
    out = np.unpackbits(words.view(np.uint8), axis=2, count=n + 1, bitorder="little")
    return F2Rref(out[:, :, :n], out[:, :, n], pivots, rank)


def f2_ranks(A) -> np.ndarray:
    """GF(2) rank of each matrix of a stack (T, m, n)."""
    return f2_rref(A).rank


def f2_rank(A) -> int:
    """GF(2) rank of a matrix (m, n): f2_ranks of the batch of one."""
    return int(f2_ranks(_f2_matrices(A, 2)[None])[0])


@dataclass(frozen=True)
class F2Solution:
    kind: str  # "unique" | "affine" | "inconsistent"
    particular: Optional[np.ndarray]
    nullspace_basis: list
    rank: int


def f2_solve(A, y) -> F2Solution:
    """Exact solution classification of A x = y over GF(2): f2_rref of the batch of one."""
    A, y = _f2_matrices(A, 2), np.asarray(y)
    m, n = A.shape
    check_shape("y", y, (m,))
    rows, rhs, pivots, rank = (field[0] for field in f2_rref(A[None], y[None]))
    if rhs[rank:].any():  # a zero row of the reduced A with a 1 on the right
        return F2Solution(kind="inconsistent", particular=None, nullspace_basis=[], rank=int(rank))
    particular = np.zeros(n, dtype=np.uint8)
    particular[pivots] = rhs[:rank]
    # free column f's basis vector: 1 at f, and pivot r's coordinate row r's entry at f
    basis = np.zeros((n - rank, n), dtype=np.uint8)
    basis[:, ~pivots] = np.eye(n - rank, dtype=np.uint8)
    basis[:, pivots] = rows[:rank, ~pivots].T
    return F2Solution("unique" if rank == n else "affine", particular, list(basis), int(rank))


# ---------------------------------------------------------------------------
# LLL with exact integer arithmetic


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise AssertionError("inexact division in integral LLL state update")
    return q


def _bareiss_det(g: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix by fraction-free (Bareiss) elimination; g is overwritten."""
    n = len(g)
    sign, denom = 1, 1
    for k in range(n - 1):
        if g[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if g[r][k] != 0), None)
            if swap is None:
                return 0
            g[k], g[swap] = g[swap], g[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                g[i][j] = _exact_div(g[i][j] * g[k][k] - g[i][k] * g[k][j], denom)
        denom = g[k][k]
    return sign * g[n - 1][n - 1]


def _gram_det(rows: list[list[int]]) -> int:
    """det(B B^T) of the basis rows B: the determinant of the Gram matrix.

    A triangular square B (every lll_subset_sum basis is upper triangular)
    takes det(B)^2, the square of its diagonal product.
    """
    if all(len(row) == len(rows) for row in rows) and (
        all(not any(row[:i]) for i, row in enumerate(rows)) or all(not any(row[i + 1 :]) for i, row in enumerate(rows))
    ):
        return math.prod(row[i] for i, row in enumerate(rows)) ** 2
    return _bareiss_det([[_dot(u, v) for v in rows] for u in rows])


def lll_reduce(basis: Sequence[Sequence[int]], delta: float = 0.75) -> list[list[int]]:
    """LLL-reduce an integer basis (rows); exact arithmetic throughout.

    Output spans the same lattice, is size-reduced (|mu_ij| <= 1/2), and
    satisfies the Lovasz condition with the given delta.  Both properties and
    Gram-determinant preservation are verified before returning.
    """
    if not (0.25 < delta < 1.0):  # false for nan too; Fraction would raise on nan and inf
        raise ParameterError(f"need delta in (1/4, 1), got {delta}")
    frac = Fraction(delta)
    p_num, q_den = frac.numerator, frac.denominator

    b = [[int(v) for v in row] for row in basis]
    n = len(b)
    if n == 0:
        return []
    input_det = _gram_det(b)
    if input_det == 0:
        raise DegenerateInputError("basis rows are linearly dependent")

    d = [0] * (n + 1)
    d[0] = 1
    lam = [[0] * n for _ in range(n)]
    d[1] = _dot(b[0], b[0])

    def red(k: int, l: int) -> None:
        if abs(2 * lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            bq = b[l]
            bk = b[k]
            for i in range(len(bk)):
                bk[i] -= q * bq[i]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    kmax = 0
    k = 1
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                u = _dot(b[k], b[j])
                for i in range(j):
                    u = _exact_div(d[i + 1] * u - lam[k][i] * lam[j][i], d[i])
                if j < k:
                    lam[k][j] = u
                else:
                    if u == 0:
                        raise DegenerateInputError("basis rows are linearly dependent")
                    d[k + 1] = u
        while True:
            red(k, k - 1)
            if q_den * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) < p_num * d[k] ** 2:
                # swap b[k-1], b[k] and patch the integral GSO state
                b[k], b[k - 1] = b[k - 1], b[k]
                for j in range(k - 1):
                    lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
                lam_kk = lam[k][k - 1]
                B = _exact_div(d[k - 1] * d[k + 1] + lam_kk * lam_kk, d[k])
                for i in range(k + 1, kmax + 1):
                    t = lam[i][k]
                    lam[i][k] = _exact_div(d[k + 1] * lam[i][k - 1] - lam_kk * t, d[k])
                    lam[i][k - 1] = _exact_div(B * t + lam_kk * lam[i][k], d[k + 1])
                d[k] = B
                k = max(1, k - 1)
            else:
                for l in range(k - 2, -1, -1):
                    red(k, l)
                k += 1
                break

    # defining properties, checked per call
    for i in range(1, n):
        for j in range(i):
            if abs(2 * lam[i][j]) > d[j + 1]:
                raise AssertionError("output not size-reduced")
    for kk in range(1, n):
        if q_den * (d[kk + 1] * d[kk - 1] + lam[kk][kk - 1] ** 2) < p_num * d[kk] ** 2:
            raise AssertionError("Lovasz condition violated on output")
    if d[n] != input_det:
        raise AssertionError("Gram determinant changed during reduction")
    return b


# ---------------------------------------------------------------------------
# subset sum via Lagarias-Odlyzko embedding


@dataclass(frozen=True)
class LllConfig:
    delta: float = 0.75
    bits: int = 128
    slack: Optional[int] = None  # defaults to N at call time

    def __post_init__(self):
        for name, kind, what in (
            ("delta", numbers.Real, "a number"),
            ("bits", numbers.Integral, "an integer"),
            ("slack", (numbers.Real, type(None)), "a number or None"),
        ):
            if not isinstance(getattr(self, name), kind):
                raise ParameterError(f"LllConfig {name} must be {what}, got {getattr(self, name)!r}")
        if not (0.25 < self.delta < 1.0):
            raise ParameterError(f"need delta in (1/4, 1), got {self.delta}")
        if self.bits < 16:
            raise ParameterError(f"need bits >= 16, got {self.bits}")
        if not (self.slack is None or self.slack >= 0):  # a negative or NaN tolerance accepts no subset
            raise ParameterError(f"need slack >= 0 or None, got {self.slack}")


def _truncate(value: float, bits: int) -> int:
    return round(Fraction(float(value)) * (1 << bits))


def exhaustive_subset_sum(X: np.ndarray, Y: float, k: int) -> tuple[Optional[tuple[int, ...]], float]:
    """Best k-subset by |sum - Y| over all C(N, k) candidates (oracle); the first one on a tie."""
    combos = subsets(len(X), k)
    if not len(combos):
        return None, math.inf
    errs = np.abs(subset_sums(X, combos) - Y)
    best = int(np.argmin(errs))
    return tuple(int(i) for i in combos[best]), float(errs[best])


# float64 carries 53 significant bits; truncating beyond ~48 fractional bits
# only amplifies the observation's own rounding error at integer scale, which
# buries the planted short vector.  The embedding therefore caps its working
# precision here; config.bits still sets the acceptance tolerance.
EMBEDDING_BIT_CAP = 48


def lll_subset_sum(
    X: np.ndarray, Y: float, k: int, config: LllConfig = LllConfig()
) -> Optional[tuple[int, ...]]:
    """Recover a k-subset with subset sum ~ Y via lattice reduction.

    Values are truncated to min(config.bits, 48) fractional bits, embedded in
    a Lagarias-Odlyzko style basis whose weight column is scaled by
    2^ceil(eff_bits/2), and candidates are read off reduced rows with a 0/+-1
    coefficient pattern.  A candidate is accepted when its float subset sum
    (left-to-right over sorted indices) is within slack * 2^(2-bits) of Y.
    """
    N = len(X)
    check_shape("X", X, (N,))
    check_shape("Y", Y, ())
    check_finite("X", X)
    check_finite("Y", Y)
    if not (1 <= k <= N):
        raise ParameterError(f"need 1 <= k <= N, got k={k}, N={N}")
    slack = config.slack if config.slack is not None else N
    tol = slack * 2.0 ** (2 - config.bits)

    if k == 1:
        diffs = np.abs(np.asarray(X, dtype=float) - Y)
        i = int(np.argmin(diffs))
        return (i,) if diffs[i] <= tol else None

    eff_bits = min(config.bits, EMBEDDING_BIT_CAP)
    a = [_truncate(x, eff_bits) for x in X]
    t = _truncate(Y, eff_bits)
    scale = 1 << ((eff_bits + 1) // 2)
    if t == 0:
        if math.comb(N, k) <= SUBSET_BUDGET:
            best, err = exhaustive_subset_sum(X, Y, k)
            return best if best is not None and err <= tol else None
        return None

    rows = []
    for i in range(N):
        row = [0] * (N + 1)
        row[i] = 1
        row[N] = scale * a[i]
        rows.append(row)
    rows.append([0] * N + [scale * t])

    reduced = lll_reduce(rows, config.delta)
    for row in reduced:
        coeffs = row[:N]
        for sign in (1, -1):
            vals = {sign * c for c in coeffs}
            if not vals <= {0, 1}:
                continue
            subset = tuple(i for i, c in enumerate(coeffs) if c != 0)
            if len(subset) != k:
                continue
            if abs(subset_sum_value(X, subset) - Y) <= tol:
                return subset
    return None
