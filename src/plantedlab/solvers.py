"""Polynomial-time recovery routines: shortest path, GF(2) solve, LLL subset sum.

GF(2) rows are packed into Python ints (bit j = column j).  LLL runs entirely
in exact integer arithmetic: the Gram-Schmidt state is kept as the classical
integral (lambda, d) tables, so size-reduction and the Lovasz condition are
checked without floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateInputError, ParameterError
from .models import SUBSET_BUDGET, check_bits, check_finite, check_shape, subset_sum_value, subset_sums, subsets, vertex_pairs


# ---------------------------------------------------------------------------
# shortest path


def shortest_path(edges: np.ndarray, n: int) -> Optional[tuple[int, ...]]:
    """Minimum-edge path from vertex 1 to vertex 2, lexicographically smallest.

    edges is the graph's 0/1 edge vector over vertex_pairs(n); vertices are
    1-indexed.  Returns None when vertex 2 is unreachable.
    """
    if n < 2:
        raise ParameterError(f"need n >= 2 for the vertices 1 and 2, got n={n}")
    edges = np.asarray(edges)
    pairs = vertex_pairs(n)
    check_shape("edges", edges, (len(pairs),))
    check_bits("edges", edges)
    neighbours: list[list[int]] = [[] for _ in range(n + 1)]  # ascending: the pairs run in lexicographic order
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


# ---------------------------------------------------------------------------
# GF(2) linear algebra


def _pack_rows(A: np.ndarray) -> list[int]:
    return [int.from_bytes(row.tobytes(), "little") for row in np.packbits(A, axis=1, bitorder="little")]


def _f2_eliminate(rows: list[int], n_cols: int) -> list[int]:
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


def f2_rank(A: np.ndarray) -> int:
    check_bits("A", A)
    return len(_f2_eliminate(_pack_rows(A), A.shape[1]))


@dataclass(frozen=True)
class F2Solution:
    kind: str  # "unique" | "affine" | "inconsistent"
    particular: Optional[np.ndarray]
    nullspace_basis: list
    rank: int


def f2_solve(A: np.ndarray, y: np.ndarray) -> F2Solution:
    """Exact solution classification of A x = y over GF(2)."""
    A = np.asarray(A)
    y = np.asarray(y)
    if A.ndim != 2:
        raise ParameterError(f"A has shape {A.shape}, expected a matrix (m, n)")
    m, n = A.shape
    check_shape("y", y, (m,))
    check_bits("A", A)
    check_bits("y", y)
    rows = [row | (int(y[i]) << n) for i, row in enumerate(_pack_rows(A))]
    pivot_cols = _f2_eliminate(rows, n)
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
    """det(B B^T) of the basis rows B: det(B)^2 when B is square, else the determinant of the Gram matrix."""
    if all(len(row) == len(rows) for row in rows):
        return _bareiss_det([list(row) for row in rows]) ** 2
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
        if not (0.25 < self.delta < 1.0):
            raise ParameterError(f"need delta in (1/4, 1), got {self.delta}")
        if self.bits < 16:
            raise ParameterError(f"need bits >= 16, got {self.bits}")


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
