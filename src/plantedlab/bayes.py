"""Exact posterior means by enumeration, and Monte-Carlo MMSE/NMMSE curves.

All weight accumulation happens in log space with the maximum log-weight
subtracted before exponentiation.  Zero-noise posteriors are exact special
cases (indicator averages over the surviving configurations), never float
limits of rho -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from .errors import InconsistentInputError, ParameterError, ResourceBudgetError
from .mc import mean_stderr
from .models import (
    EVAL_CHUNK_BYTES,
    GssParams,
    PspParams,
    RlcParams,
    TpcaParams,
    chunk_sampler,
    model_name,
    pairwise_row_sums,
    path_edge_indices,
    per_field,
    row_dots,
    signal_norm,
    stack_observations,
    subset_sums,
    subsets,
)
from .noise import CoupledTrials, check_rho
from .rng import INSTANCE_STREAM, derive_seeds, keyed_fresh, keyed_generator, philox_keys
from .solvers import f2_ranks, pack_words

RLC_ENUM_BUDGET = 2**24


def _blocks(total: int, unit_bytes: int) -> list[slice]:
    """Consecutive slices of range(total), each as many units of unit_bytes as fit EVAL_CHUNK_BYTES (at least one)."""
    size = max(1, EVAL_CHUNK_BYTES // max(unit_bytes, 1))
    return [slice(start, start + size) for start in range(0, total, size)]


def _weighted_marginals(log_weights: np.ndarray, members: np.ndarray, size: int, what: str) -> np.ndarray:
    """Posterior mass on each of size coordinates, one row per trial; configuration r holds members[r].

    log_weights is trials x configurations.  The maximum log-weight of each
    trial is subtracted before exponentiation, and a maximum of -inf raises
    InconsistentInputError: no what supports that trial's observation.  A
    trial's total is one contiguous row sum, in numpy's pairwise order, and
    each coordinate's mass accumulates in configuration order: one bincount
    over (trial, coordinate) bins takes a block of trials, and it adds each
    bin's weights in input order.
    """
    log_weights = np.ascontiguousarray(log_weights)
    hi = log_weights.max(axis=1, keepdims=True)
    if (hi == -np.inf).any():
        raise InconsistentInputError(f"no {what} supports the observation at this noise level")
    w = np.exp(log_weights - hi)
    Z = w.sum(axis=1)
    flat = members.ravel()
    rows = max(1, min(len(w), 2**14 // flat.size))  # trials a bincount takes, bounding its key and weight arrays
    keys = (size * np.arange(rows)[:, None] + flat).ravel()
    blocks = (np.repeat(w[b : b + rows], members.shape[1], axis=1).ravel() for b in range(0, len(w), rows))
    est = np.concatenate([np.bincount(keys[: v.size], v, minlength=v.size // flat.size * size) for v in blocks])
    return est.reshape(len(w), size) / Z[:, None]


# ---------------------------------------------------------------------------
# PSP


def _psp_posteriors(params: PspParams, rho: float, edges: np.ndarray) -> np.ndarray:
    """Posterior means of the path's edge indicators given each noisy graph, a row of edges.

    A candidate path H gets weight ((1 - rho(1-q))/q)^{|E(H) & G|} * rho^{L - |E(H) & G|}:
    a planted edge survives the resampling channel as a 1 with probability
    1 - rho(1-q), while non-path pairs stay Bern(q).  At the q in {0, 1}
    corners the full likelihood is used instead of the ratio form.
    """
    n, L, q = params.n, params.L, params.q
    edge_present = edges.astype(float)
    path_idx = path_edge_indices(n, L)
    m_in = pairwise_row_sums(edge_present, path_idx)  # edges of each H present in each graph
    p1 = 1.0 - rho * (1.0 - q)

    def coef_log(coef: np.ndarray, p: float) -> np.ndarray:
        lp = math.log(p) if p > 0.0 else -math.inf
        with np.errstate(invalid="ignore"):
            return np.where(coef > 0, coef * lp, 0.0)

    if 0.0 < q < 1.0:
        lw = coef_log(m_in, p1 / q) + coef_log(L - m_in, rho)
    else:
        total_present = edge_present.sum(axis=1, keepdims=True)
        n_pairs = edge_present.shape[1]
        lw = (
            coef_log(m_in, p1)
            + coef_log(L - m_in, rho * (1.0 - q))
            + coef_log(total_present - m_in, q)
            + coef_log(n_pairs - L - (total_present - m_in), 1.0 - q)
        )
    return _weighted_marginals(lw, path_idx, edge_present.shape[1], "length-L path")


# ---------------------------------------------------------------------------
# RLC


def _rlc_profiles(A: np.ndarray, y_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """count[t, h] and ones[t, h, i] over all messages x, for a stack of trials t, as whole floats.

    count[t, h] = #{x : w(A_t x - y_hat_t) = h}; ones[t, h, i] = #{x : w(A_t x - y_hat_t) = h, x_i = 1}.
    Message x has index sum_j x_j 2^j.  Messages are enumerated 2^16 at a
    time: the low bits' codewords minus y_hat, built by XOR-doubling over the
    bit-packed columns, are XORed with each codeword of the high bits.  Each
    block's weights are counted twice, by (trial, half of the low bits,
    weight); a 0/1 matrix of each half's bits folds its histogram into ones
    by a float32 matmul, exact because a block's counts stay below 2^24.
    """
    T, m, n = A.shape
    low = min(n, 16)
    cols = pack_words(A.transpose(0, 2, 1))  # cols[t, j] is column j of A_t
    table = np.empty((T, 1 << low, cols.shape[2]), dtype=np.uint64)
    table[:, 0] = pack_words(y_hat)
    high = np.zeros((T, 1 << (n - low), cols.shape[2]), dtype=np.uint64)
    for j in range(n):
        codes, at = (table, j) if j < low else (high, j - low)
        np.bitwise_xor(codes[:, :1 << at], cols[:, j, None], out=codes[:, 1 << at:2 << at])
    a = low // 2  # messages are counted by (trial, value of index bits 0..a-1 or a..low-1, weight)
    index = np.arange(1 << low)
    lo = (index & (1 << a) - 1) * (m + 1)
    bits = (np.arange(1 << low - a) >> np.arange(low - a)[:, None] & 1).astype(np.float32)  # bit i of each value
    halves = ((0, bits[:a], lo), (a, bits, (index >> a) * (m + 1) - lo))  # (first bit, its bits, key offset)
    trial_keys = (np.arange(T)[:, None] << low - a) * (m + 1)
    count = np.zeros((T, m + 1))
    ones = np.zeros((T, m + 1, n))
    for prefix in range(1 << (n - low)):
        codes = table ^ high[:, prefix, None] if prefix else table
        keys = np.add(np.bitwise_count(codes[:, :, 0]), trial_keys, dtype=np.intp)  # a weight a word, no reduce
        for word in range(1, codes.shape[2]):
            keys += np.bitwise_count(codes[:, :, word])
        for at, half_bits, offset in halves:  # the offset turns a weight, or the key of the half before, into a key
            keys += offset
            hist = None  # the histogram before is freed before this one is counted
            hist = np.bincount(keys.ravel(), minlength=T * bits.shape[1] * (m + 1)).reshape(T, -1, m + 1)
            ones[:, :, at : at + len(half_bits)] += hist.transpose(0, 2, 1).astype(np.float32) @ half_bits.T
        block = hist.sum(axis=1)  # the block's counts, summed over either half
        count += block
        for i in range(low, n):
            if prefix >> (i - low) & 1:
                ones[:, :, i] += block
    return count, ones


def _rlc_posteriors(params: RlcParams, rho: float, A: np.ndarray, y_hat: np.ndarray) -> np.ndarray:
    """Posterior means of the message bits; weight (rho/(2-rho))^{w(Ax - y_hat)}.

    The estimate coordinate i is the marginal P(x_i = 1 | A, y_hat); the
    complementary ratio L0/(L0+L1) is 1 - estimate[i].
    """
    m, n = params.m, params.n
    if 2**n > RLC_ENUM_BUDGET:
        raise ResourceBudgetError(f"2^{n} messages exceed budget {RLC_ENUM_BUDGET}")
    A, y_hat = A.astype(np.uint8), y_hat.astype(np.uint8)
    counts, ones = _rlc_profiles(A, y_hat)
    if rho == 0.0:
        if not counts[:, 0].all():
            raise InconsistentInputError("no message reproduces y_hat exactly at rho=0")
        return ones[:, 0] / counts[:, :1]
    log_r = math.log(rho / (2.0 - rho))
    scaled = np.arange(m + 1, dtype=float) * log_r
    occupied = counts > 0
    hi = np.where(occupied, scaled, -np.inf).max(axis=1, keepdims=True)
    phi = np.where(occupied, np.exp(scaled - hi), 0.0)[:, None, :]
    # a stacked matmul makes each trial's own BLAS call: a gemv over ones[t], a dot with counts[t]
    return (phi @ ones)[:, 0] / (phi @ counts[:, :, None])[:, 0]


# ---------------------------------------------------------------------------
# GSS


def _gss_posteriors(params: GssParams, rho: float, X: np.ndarray, y_hat: np.ndarray) -> np.ndarray:
    """Posterior means of subset membership given each noisy sum.

    For rho > 0, subset S has Gaussian log-weight
    -(y_hat - sqrt(1-rho^2) * sum_S)^2 / (2 rho^2), sum_S in numpy's pairwise
    order of S's entries as a contiguous row (pairwise_row_sums).  rho = 0 is
    the exact-match case, the indicator average: log-weight 0 (weight 1) on
    each subset whose float sum (left-to-right over sorted indices)
    reproduces y_hat bit-exactly, -inf (0) elsewhere.  The orders agree for k < 8.
    """
    N, k = params.N, params.k
    X, y_hat = np.asarray(X, dtype=float), np.asarray(y_hat, dtype=float)[:, None]
    combos = subsets(N, k)
    if rho == 0.0:
        return _weighted_marginals(np.where(subset_sums(X, combos) == y_hat, 0.0, -np.inf), combos, N, "k-subset")
    # -((y_hat - shrink * sums) ** 2) / (2 rho^2), in place over the sums
    lw = pairwise_row_sums(X, combos)
    lw *= math.sqrt(1.0 - rho * rho)
    np.subtract(y_hat, lw, out=lw)
    np.square(lw, out=lw)
    lw /= -(2.0 * rho * rho)
    return _weighted_marginals(lw, combos, N, "k-subset")


# ---------------------------------------------------------------------------
# Sparse tensor PCA


def _tpca_log_weights(tensors: np.ndarray, params: TpcaParams) -> tuple[np.ndarray, np.ndarray]:
    """Every k-subset S, and log-weight sqrt(lam) k^(-d/2) <Y_t, 1_S^d> of each tensor Y_t of a stack.

    The k^d entries of each support's block are gathered in C order and
    summed as one contiguous row, so each sum keeps numpy's pairwise order
    over the block.  The gather stays, where the GSS and PSP kernels add
    columns (models.pairwise_row_sums): the pca-window command weighs one
    tensor a call, and on one row the k^d column gathers and adds take
    several times as long as the one block.
    """
    n, k, d = params.n, params.k, params.d
    flat = tensors.reshape(len(tensors), -1)
    combos = subsets(n, k)
    scale = math.sqrt(params.lam) * k ** (-d / 2.0)
    corners = np.indices((k,) * d).reshape(d, -1).T  # positions in a support's block, C order
    lw = np.empty((len(tensors), len(combos)))
    for b in _blocks(len(combos), 8 * k**d * (len(tensors) + d)):
        entries = combos[b][:, corners] @ n ** np.arange(d - 1, -1, -1)
        lw[:, b] = scale * np.ascontiguousarray(np.take(flat, entries, axis=1)).sum(axis=2)
    return combos, lw


def _tpca_posteriors(params: TpcaParams, rho: float, tensors: np.ndarray) -> np.ndarray:
    """Posterior means of the sparse spike; support weight exp(sqrt(lam) <Y, x'^d>).

    The quadratic term of the Gaussian log-likelihood is constant across
    candidate supports (all candidates have unit norm) and is dropped.  An
    observation that went through the OU operator at rho is the same model at
    lam * (1 - rho^2).
    """
    params = replace(params, lam=params.lam * (1.0 - rho * rho))
    combos, lw = _tpca_log_weights(tensors, params)
    return _weighted_marginals(lw, combos, params.n, "k-sparse support") / math.sqrt(params.k)


def tpca_overlap_distribution(Y: np.ndarray, planted_support: Sequence[int], params: TpcaParams) -> np.ndarray:
    """Posterior mass binned by support overlap with the planted support.

    Returns (p_0, ..., p_k) with p_i the posterior probability that the drawn
    support shares exactly i indices with the planted one; sums to 1.
    Raises ParameterError for another model's params.
    """
    if not isinstance(params, TpcaParams):
        raise ParameterError(f"the overlap distribution takes TpcaParams, got {type(params).__name__}")
    support = np.asarray(planted_support)
    valid = support.dtype.kind in "iu" and support.shape == (params.k,) and len(set(support.tolist())) == params.k
    if not (valid and 0 <= support.min() and support.max() < params.n):
        raise ParameterError(f"planted support {planted_support!r} needs {params.k} distinct integers in 0..{params.n - 1}")
    combos, (lw,) = _tpca_log_weights(*stack_observations(params, np.asarray(Y)[None]), params)
    member = np.zeros(params.n, dtype=bool)
    member[support] = True
    overlap = member[combos].sum(axis=1)
    w = np.exp(lw - lw.max())
    mass = np.bincount(overlap, weights=w, minlength=params.k + 1)
    return mass / w.sum()


# ---------------------------------------------------------------------------
# dispatch + MMSE curves


# model -> (kernel(params, rho, *stacked fields) -> T x dim estimates,
#           params -> bytes of the arrays the kernel enumerates for one observation)
_POSTERIORS = {
    "psp": (_psp_posteriors, lambda p: 8 * p.L * math.perm(p.n - 2, p.L - 1)),
    "rlc": (_rlc_posteriors, lambda p: 8 * 2 ** min(p.n, 16) * -(-p.m // 64)),
    "gss": (_gss_posteriors, lambda p: 8 * p.k * math.comb(p.N, p.k)),
    "tpca": (_tpca_posteriors, lambda p: 8 * p.k**p.d * math.comb(p.n, p.k)),
}


def posterior_means(params, observations, rho: float) -> np.ndarray:
    """Posterior-mean estimates of a batch of observations at rho, one row per observation.

    The batch is a run's stacked observation, which models.stack_observations
    checks.  The one way into the kernels.  The batch runs in blocks of
    trials whose enumeration arrays fit EVAL_CHUNK_BYTES.
    """
    check_rho(rho)  # also when the batch is empty
    kernel, trial_bytes = _POSTERIORS[model_name(params)]
    fields = stack_observations(params, observations)
    runs = [kernel(params, rho, *(f[b] for f in fields)) for b in _blocks(len(fields[0]), trial_bytes(params))]
    return np.concatenate(runs) if runs else np.zeros(0)


def posterior_mean_for(params, observation, rho: float) -> np.ndarray:
    """Bayes-optimal estimate from one observation that passed through noise at rho: its batch of one row."""
    return posterior_means(params, per_field(lambda a: np.asarray(a)[None], observation), rho)[0]


@dataclass(frozen=True)
class MmseReport:
    model: str
    params: object
    rho: float
    trials: int
    mmse_hat: float
    stderr: float
    signal_norm: float
    nmmse_hat: float


def full_rank_run(params: RlcParams, seed: int, ts: range):
    """The run record of trials ts, each trial's first full-column-rank draw among attempts 0, 1, ..., 255.

    Attempt a of trial t is drawn at derive_seed(seed, INSTANCE_STREAM, t, a).
    Attempt a of every trial that attempts 0..a-1 rejected is drawn as one
    keyed run and ranked in one batch.
    """
    run, todo = None, np.arange(len(ts))
    for attempt in range(256):
        keys = philox_keys(derive_seeds(seed, INSTANCE_STREAM, ts=np.asarray(ts)[todo], suffix=(attempt,)))
        drawn = chunk_sampler(params)(len(todo), keyed_fresh(keyed_generator(), keys))
        run = drawn if run is None else run
        run.A[todo], run.x[todo], run.y[todo] = drawn.A, drawn.x, drawn.y
        todo = todo[f2_ranks(drawn.A) < params.n]
        if not len(todo):
            return run
    raise ParameterError("could not sample a full-column-rank matrix in 256 attempts")


def _sample_full_rank_rlc(params: RlcParams, seed: int, t: int):
    """Trial t's first full-column-rank draw: full_rank_run of the one trial."""
    return full_rank_run(params, seed, range(t, t + 1))


def squared_errors(params, rho: float):
    """The fn of an MMSE lane at rho: fn(start, run, noisy) -> |E[x | noisy] - x|^2 of each trial of the run."""

    def chunk(start: int, run, noisy) -> np.ndarray:
        return row_dots(posterior_means(params, noisy, rho) - run.signal_vectors())

    return chunk


def mmse_report(params, rho: float, errs: list) -> MmseReport:
    """The reduce of an MMSE lane at rho: the MmseReport of its outputs, the squared errors of each run."""
    errs = np.concatenate(errs)
    mmse_hat, stderr = mean_stderr(errs)
    norm = signal_norm(params)
    return MmseReport(
        model=model_name(params),
        params=params,
        rho=float(rho),
        trials=len(errs),
        mmse_hat=mmse_hat,
        stderr=stderr,
        signal_norm=norm,
        nmmse_hat=mmse_hat / norm,
    )


def estimate_mmse_curve(
    params,
    rho_grid: Sequence[float],
    trials: int,
    seed: int,
    *,
    full_rank_only: bool = False,
) -> list[MmseReport]:
    """Monte-Carlo noisy-MMSE and NMMSE estimates on a noise grid.

    Instances are shared across grid points (trial t uses the same instance at
    every rho; noise draws are independent per grid point), which correlates
    adjacent estimates without biasing them.  The grid is one coupled pass
    with an arm and an MMSE lane per grid point, so each run of instances is
    drawn once; the lanes rank in grid order.
    """
    if model_name(params) != "rlc" and full_rank_only:
        raise ParameterError("full_rank_only applies to the linear-code model only")
    points = list(enumerate(rho_grid))
    lanes = [(j, partial(squared_errors, params, rho), partial(mmse_report, params, rho)) for j, rho in points]
    draw = full_rank_run if full_rank_only else None
    return CoupledTrials(params, [(rho, j) for j, rho in points], seed, trials, draw=draw).run_lanes(lanes)
