"""Exact posterior means by enumeration, and Monte-Carlo MMSE/NMMSE curves.

All weight accumulation happens in log space with the maximum log-weight
subtracted before exponentiation.  Zero-noise posteriors are exact special
cases (indicator averages over the surviving configurations), never float
limits of rho -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import InconsistentInputError, ParameterError, ResourceBudgetError
from .mc import mean_stderr
from .models import (
    GssParams,
    PspParams,
    RlcParams,
    TpcaParams,
    edge_vector_from_adjacency,
    model_name,
    path_edge_indices,
    sample_instance,
    signal_norm,
    subset_sums,
    subsets,
)
from .noise import CoupledTrials, check_rho
from .rng import INSTANCE_STREAM, derive_seed
from .solvers import f2_rank

RLC_ENUM_BUDGET = 2**24


@dataclass(frozen=True)
class PosteriorMean:
    estimate: np.ndarray
    log_partition: float


def _finite_or_inconsistent(log_weights: np.ndarray, what: str) -> None:
    if not np.any(log_weights > -np.inf):
        raise InconsistentInputError(f"no {what} supports the observation at this noise level")


def _weighted_marginals(log_weights: np.ndarray, members: np.ndarray, size: int) -> PosteriorMean:
    """Posterior mass on each of size coordinates; configuration r holds members[r].

    The maximum log-weight is subtracted before exponentiation.
    """
    hi = log_weights.max()
    w = np.exp(log_weights - hi)
    Z = w.sum()
    est = np.zeros(size)
    np.add.at(est, members.ravel(), np.repeat(w, members.shape[1]))
    return PosteriorMean(estimate=est / Z, log_partition=float(hi + math.log(Z)))


# ---------------------------------------------------------------------------
# PSP


def posterior_mean_psp(noisy_adjacency: np.ndarray, params: PspParams, rho: float) -> PosteriorMean:
    """Posterior mean of the path's edge indicators given the noisy graph.

    A candidate path H gets weight ((1 - rho(1-q))/q)^{|E(H) & G|} * rho^{L - |E(H) & G|}:
    a planted edge survives the resampling channel as a 1 with probability
    1 - rho(1-q), while non-path pairs stay Bern(q).  At the q in {0, 1}
    corners the full likelihood is used instead of the ratio form.
    """
    n, L, q = params.n, params.L, params.q
    check_rho(rho)
    edge_present = edge_vector_from_adjacency(noisy_adjacency).astype(float)
    path_idx = path_edge_indices(n, L)
    m_in = edge_present[path_idx].sum(axis=1)  # edges of H present in the graph
    p1 = 1.0 - rho * (1.0 - q)

    def coef_log(coef: np.ndarray, p: float) -> np.ndarray:
        lp = math.log(p) if p > 0.0 else -math.inf
        with np.errstate(invalid="ignore"):
            return np.where(coef > 0, coef * lp, 0.0)

    if 0.0 < q < 1.0:
        lw = coef_log(m_in, p1 / q) + coef_log(L - m_in, rho)
    else:
        total_present = edge_present.sum()
        n_pairs = edge_present.size
        lw = (
            coef_log(m_in, p1)
            + coef_log(L - m_in, rho * (1.0 - q))
            + coef_log(total_present - m_in, q)
            + coef_log(n_pairs - L - (total_present - m_in), 1.0 - q)
        )
    _finite_or_inconsistent(lw, "length-L path")
    return _weighted_marginals(lw, path_idx, edge_present.size)


# ---------------------------------------------------------------------------
# RLC


def _rlc_hamming_profile(A: np.ndarray, y_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """count[h] and per-coordinate ones-count[h, i] over all messages x.

    count[h] = #{x : w(Ax - y_hat) = h}; ones[h, i] = #{x : w(Ax - y_hat) = h, x_i = 1}.
    """
    m, n = A.shape
    if 2**n > RLC_ENUM_BUDGET:
        raise ResourceBudgetError(f"2^{n} messages exceed budget {RLC_ENUM_BUDGET}")
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


def posterior_mean_rlc(A: np.ndarray, y_hat: np.ndarray, rho: float) -> PosteriorMean:
    """Posterior mean of the message bits; weight (rho/(2-rho))^{w(Ax - y_hat)}.

    The estimate coordinate i is the marginal P(x_i = 1 | A, y_hat); the
    complementary ratio L0/(L0+L1) is 1 - estimate[i].
    """
    m, n = A.shape
    if y_hat.shape != (m,):
        raise ParameterError(f"y_hat has shape {y_hat.shape}, expected ({m},)")
    check_rho(rho)
    count, ones = _rlc_hamming_profile(A, y_hat)
    if rho == 0.0:
        if count[0] == 0:
            raise InconsistentInputError("no message reproduces y_hat exactly at rho=0")
        return PosteriorMean(estimate=ones[0] / count[0], log_partition=float(math.log(count[0])))
    log_r = math.log(rho / (2.0 - rho))
    hs = np.arange(m + 1, dtype=float)
    occupied = count > 0
    hi = (hs * log_r)[occupied].max()
    phi = np.where(occupied, np.exp(hs * log_r - hi), 0.0)
    den = float(phi @ count)
    est = (phi @ ones) / den
    return PosteriorMean(estimate=est, log_partition=float(hi + math.log(den)))


# ---------------------------------------------------------------------------
# GSS


def posterior_mean_gss(X: np.ndarray, y_hat: float, params: GssParams, rho: float) -> PosteriorMean:
    """Posterior mean of subset membership given the noisy sum.

    For rho > 0, subset S has Gaussian log-weight
    -(y_hat - sqrt(1-rho^2) * sum_S)^2 / (2 rho^2).  rho = 0 is the exact-match
    case: the weight concentrates on subsets whose float sum (left-to-right
    over sorted indices) reproduces y_hat bit-exactly.
    """
    N, k = params.N, params.k
    check_rho(rho)
    combos = subsets(N, k)
    if rho == 0.0:
        matches = combos[subset_sums(X, combos) == y_hat]
        if not len(matches):
            raise InconsistentInputError("no k-subset reproduces y_hat exactly at rho=0")
        est = np.bincount(matches.ravel(), minlength=N) / len(matches)
        return PosteriorMean(estimate=est, log_partition=float(math.log(len(matches))))
    sums = np.asarray(X, dtype=float)[combos].sum(axis=1)
    shrink = math.sqrt(1.0 - rho * rho)
    lw = -((y_hat - shrink * sums) ** 2) / (2.0 * rho * rho)
    return _weighted_marginals(lw, combos, N)


# ---------------------------------------------------------------------------
# Sparse tensor PCA


def _tpca_log_weights(Y: np.ndarray, params: TpcaParams) -> tuple[np.ndarray, np.ndarray]:
    combos = subsets(params.n, params.k)
    scale = math.sqrt(params.lam) * params.k ** (-params.d / 2.0)
    lw = np.empty(combos.shape[0])
    for r, row in enumerate(combos):
        block = Y[np.ix_(*([row] * params.d))]
        lw[r] = scale * float(block.sum())
    return combos, lw


def posterior_mean_tpca(Y: np.ndarray, params: TpcaParams) -> PosteriorMean:
    """Posterior mean of the sparse spike; support weight exp(sqrt(lam) <Y, x'^d>).

    The quadratic term of the Gaussian log-likelihood is constant across
    candidate supports (all candidates have unit norm) and is dropped.  An
    observation that went through the OU operator at rho is the same model at
    lam * (1 - rho^2); pass params with that lam.
    """
    combos, lw = _tpca_log_weights(Y, params)
    pm = _weighted_marginals(lw, combos, params.n)
    return PosteriorMean(estimate=pm.estimate / math.sqrt(params.k), log_partition=pm.log_partition)


def tpca_overlap_distribution(Y: np.ndarray, planted_support: Sequence[int], params: TpcaParams) -> np.ndarray:
    """Posterior mass binned by support overlap with the planted support.

    Returns (p_0, ..., p_k) with p_i the posterior probability that the drawn
    support shares exactly i indices with the planted one; sums to 1.
    """
    combos, lw = _tpca_log_weights(Y, params)
    member = np.zeros(params.n, dtype=bool)
    member[list(planted_support)] = True
    overlap = member[combos].sum(axis=1)
    w = np.exp(lw - lw.max())
    mass = np.bincount(overlap, weights=w, minlength=params.k + 1)
    return mass / w.sum()


# ---------------------------------------------------------------------------
# dispatch + MMSE curves


# model -> (params, observation, rho) -> PosteriorMean.  A TPCA
# observation at rho is the same model at lam * (1 - rho^2).
_POSTERIORS = {
    "psp": lambda params, obs, rho: posterior_mean_psp(obs, params, rho),
    "rlc": lambda params, obs, rho: posterior_mean_rlc(*obs, rho),
    "gss": lambda params, obs, rho: posterior_mean_gss(*obs, params, rho),
    "tpca": lambda params, obs, rho: posterior_mean_tpca(obs, replace(params, lam=params.lam * (1.0 - rho * rho))),
}


def posterior_mean_for(params, observation, rho: float) -> PosteriorMean:
    """Bayes-optimal estimate from an observation that passed through noise at rho."""
    return _POSTERIORS[model_name(params)](params, observation, rho)


def stack_rows(run: Callable, observations: Sequence) -> np.ndarray:
    """run(observation) for each observation, stacked as one float row per observation."""
    return np.array([run(obs) for obs in observations], dtype=float)


def posterior_means(params, observations: Sequence, rho: float) -> np.ndarray:
    """Posterior-mean estimates of a batch of observations at rho, one row per observation."""
    return stack_rows(lambda obs: posterior_mean_for(params, obs, rho).estimate, observations)


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


def _sample_full_rank_rlc(params: RlcParams, seed: int, t: int):
    for attempt in range(256):
        inst = sample_instance(params, derive_seed(seed, INSTANCE_STREAM, t, attempt))
        if f2_rank(inst.A) == params.n:
            return inst
    raise ParameterError("could not sample a full-column-rank matrix in 256 attempts")


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
    adjacent estimates without biasing them.
    """
    name = model_name(params)
    if full_rank_only and name != "rlc":
        raise ParameterError("full_rank_only applies to the linear-code model only")
    draw = _sample_full_rank_rlc if full_rank_only else None
    norm = signal_norm(params)
    out = []
    for j, rho in enumerate(rho_grid):
        def chunk(start: int, instances: list, noisy: list) -> list:
            diffs = posterior_means(params, noisy, rho) - [inst.signal_vector() for inst in instances]
            return [float(d @ d) for d in diffs]

        errs = CoupledTrials(params, rho, seed, trials, grid_point=j, draw=draw).map(chunk)
        mmse_hat, stderr = mean_stderr(errs)
        out.append(
            MmseReport(
                model=name,
                params=params,
                rho=float(rho),
                trials=trials,
                mmse_hat=mmse_hat,
                stderr=stderr,
                signal_norm=norm,
                nmmse_hat=mmse_hat / norm,
            )
        )
    return out
