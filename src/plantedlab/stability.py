"""Estimator stability measurement and the stability-barrier inequality.

A stability trial draws one instance and one coupled noise realization,
evaluates the estimator on both the clean and the noisy observation, and
accumulates three second moments: the squared output displacement, the
squared error of the clean-arm output, and the clean-arm output norm.
The barrier check compares the measured error against
mmse_rho - 2 sqrt(2 (7 + 4 eta) eta) * E||signal||^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bayes import MmseReport, posterior_mean_for
from .errors import EstimatorTrialError, ParameterError
from .mc import mean_stderr, ratio_with_stderr, run_trials
from .models import PspParams, model_name, path_indicator, vertex_pairs
from .noise import coupled_trial
from .solvers import LllConfig, f2_solve, lll_subset_sum, shortest_path


# ---------------------------------------------------------------------------
# registered estimators


def _psp_prior_mean(params: PspParams) -> np.ndarray:
    """Exact prior edge marginals of the planted path (L >= 2)."""
    n, L = params.n, params.L
    total_paths = math.perm(n - 2, L - 1)
    p_end = math.perm(n - 3, L - 2) / total_paths  # a fixed {1,u} or {2,u} pair
    p_mid = (
        2 * (L - 2) * math.perm(n - 4, L - 3) / total_paths if L >= 3 else 0.0
    )  # a fixed pair of non-endpoint vertices
    out = np.empty(len(vertex_pairs(n)))
    for t, (i, j) in enumerate(vertex_pairs(n)):
        if i == 1 and j == 2:
            out[t] = 0.0
        elif i in (1, 2):
            out[t] = p_end
        else:
            out[t] = p_mid
    return out


_PRIOR_MEANS = {
    "psp": _psp_prior_mean,
    "rlc": lambda p: np.full(p.n, 0.5),
    "gss": lambda p: np.full(p.N, p.k / p.N),
    "tpca": lambda p: np.full(p.n, (p.k / p.n) / math.sqrt(p.k)),
}


def prior_mean_vector(params) -> np.ndarray:
    """Exact prior mean of the signal vector."""
    return _PRIOR_MEANS[model_name(params)](params)


def _posterior_mean_estimator(params, rho: float) -> Callable:
    def run(observation) -> np.ndarray:
        return posterior_mean_for(params, observation, rho).estimate

    return run


def _shortest_path_indicator(params, rho: float) -> Callable:
    def run(adjacency) -> np.ndarray:
        # an unreachable target gives the all-zero vector
        return path_indicator(shortest_path(adjacency) or (), params.n)

    return run


def _f2_round_estimator(params, rho: float) -> Callable:
    def run(observation) -> np.ndarray:
        A, y = observation
        sol = f2_solve(A, y)
        if sol.kind == "inconsistent":
            return np.full(params.n, 0.5)
        out = sol.particular.astype(float)
        for basis_vec in sol.nullspace_basis:
            out[basis_vec.astype(bool)] = 0.5
        return out

    return run


def _lll_subset_indicator(params, rho: float) -> Callable:
    cfg = LllConfig()

    def run(observation) -> np.ndarray:
        X, Y = observation
        subset = lll_subset_sum(X, Y, params.k, cfg)
        if subset is None:
            return np.full(params.N, params.k / params.N)
        out = np.zeros(params.N)
        out[list(subset)] = 1.0
        return out

    return run


def _constant_prior_mean(params, rho: float) -> Callable:
    const = prior_mean_vector(params)

    def run(observation) -> np.ndarray:
        return const.copy()

    return run


# name -> factory(params, rho) -> callable(observation) -> vector.
# "posterior_mean" is the Bayes estimator matched to the measurement noise
# level, so both arms of a stability trial stay inside its support.
ESTIMATORS: dict[str, Callable] = {
    "posterior_mean": _posterior_mean_estimator,
    "shortest_path_indicator": _shortest_path_indicator,
    "f2_round": _f2_round_estimator,
    "lll_subset_indicator": _lll_subset_indicator,
    "constant_prior_mean": _constant_prior_mean,
}
# estimator -> (the one model it accepts, that model's description); the
# others accept every model
_ESTIMATOR_MODELS = {
    "shortest_path_indicator": ("psp", "planted-path"),
    "f2_round": ("rlc", "linear-code"),
    "lll_subset_indicator": ("gss", "subset-sum"),
}


def resolve_estimator(name: str, params, rho: float) -> Callable:
    if name not in ESTIMATORS:
        raise ParameterError(
            f"unknown estimator {name!r}; registered: {sorted(ESTIMATORS)}"
        )
    if name in _ESTIMATOR_MODELS:
        model, what = _ESTIMATOR_MODELS[name]
        if model_name(params) != model:
            raise ParameterError(f"{name} is a {what} estimator")
    return ESTIMATORS[name](params, rho)


# ---------------------------------------------------------------------------
# stability measurement


@dataclass(frozen=True)
class StabilityReport:
    model: str
    params: object
    estimator: str
    rho: float
    trials: int
    eta_hat: float
    eta_stderr: float
    mse_hat: float
    mse_stderr: float
    estimator_norm_hat: float
    norm_stderr: float


def measure_stability(
    estimator,
    params,
    rho: float,
    trials: int,
    seed: int,
    *,
    threads: int = 1,
) -> StabilityReport:
    """Measure (rho, eta)-stability and clean-arm MSE of an estimator.

    estimator is a registry name or a callable observation -> vector.  Each
    trial replays one coupled noise draw against both arms; the output-norm
    denominator uses the clean arm only.
    """
    name = estimator if isinstance(estimator, str) else getattr(estimator, "__name__", "custom")
    fn = resolve_estimator(estimator, params, rho) if isinstance(estimator, str) else estimator

    def trial(t: int):
        try:
            inst, noisy = coupled_trial(params, rho, seed, t)
            a = np.asarray(fn(inst.observation), dtype=float)
            b = np.asarray(fn(noisy), dtype=float)
        except Exception as exc:  # noqa: BLE001 - abort with the trial index
            raise EstimatorTrialError(t, exc) from exc
        d = a - b
        e = a - inst.signal_vector()
        return (float(d @ d), float(e @ e), float(a @ a))

    rows = run_trials(trials, trial, threads)
    diffs = np.array([r[0] for r in rows])
    errs = np.array([r[1] for r in rows])
    norms = np.array([r[2] for r in rows])
    eta_hat, eta_stderr = ratio_with_stderr(diffs, norms)
    mse_hat, mse_stderr = mean_stderr(errs)
    norm_hat, norm_stderr = mean_stderr(norms)
    return StabilityReport(
        model=model_name(params),
        params=params,
        estimator=name,
        rho=float(rho),
        trials=trials,
        eta_hat=eta_hat,
        eta_stderr=eta_stderr,
        mse_hat=mse_hat,
        mse_stderr=mse_stderr,
        estimator_norm_hat=norm_hat,
        norm_stderr=norm_stderr,
    )


# ---------------------------------------------------------------------------
# barrier inequality


def barrier_penalty(eta: float) -> float:
    """The stability penalty coefficient 2 sqrt(2 (7 + 4 eta) eta)."""
    if eta < 0:
        raise ParameterError(f"need eta >= 0, got {eta}")
    return 2.0 * math.sqrt(2.0 * (7.0 + 4.0 * eta) * eta)


@dataclass(frozen=True)
class BarrierCheck:
    lhs: float
    rhs: float
    margin: float
    combined_stderr: float
    holds: bool
    holds_within: float
    penalty: float
    eta_hat: float
    eta_threshold: Optional[float] = None
    eta_within_threshold: Optional[bool] = None


def verify_barrier(
    stab: StabilityReport,
    mmse_rho: MmseReport,
    signal_norm_value: Optional[float] = None,
    *,
    alpha: Optional[float] = None,
    sigma_mult: float = 3.0,
) -> BarrierCheck:
    """Check mse >= mmse_rho - penalty(eta) * E||signal||^2 up to MC error.

    Both reports must describe the same (model, params, rho).  When alpha is
    given, also evaluates the small-eta threshold eta <= min(alpha^2/400, 1).
    """
    if (stab.model, stab.params) != (mmse_rho.model, mmse_rho.params) or stab.rho != mmse_rho.rho:
        raise ParameterError(
            f"provenance mismatch: stability is {(stab.model, stab.params, stab.rho)}, "
            f"mmse is {(mmse_rho.model, mmse_rho.params, mmse_rho.rho)}"
        )
    norm = mmse_rho.signal_norm if signal_norm_value is None else float(signal_norm_value)
    eta = max(stab.eta_hat, 0.0)
    penalty = barrier_penalty(eta) * norm
    rhs = mmse_rho.mmse_hat - penalty
    margin = stab.mse_hat - rhs
    # the penalty's eta-derivative blows up at 0; use a one-sigma finite
    # difference instead of the delta method
    lo = barrier_penalty(max(eta - stab.eta_stderr, 0.0))
    hi = barrier_penalty(eta + stab.eta_stderr)
    penalty_se = (hi - lo) / 2.0 * norm
    combined = math.sqrt(stab.mse_stderr**2 + mmse_rho.stderr**2 + penalty_se**2)
    check = BarrierCheck(
        lhs=stab.mse_hat,
        rhs=rhs,
        margin=margin,
        combined_stderr=combined,
        holds=margin >= -sigma_mult * combined,
        holds_within=sigma_mult,
        penalty=penalty,
        eta_hat=eta,
    )
    if alpha is not None:
        threshold = min(alpha**2 / 400.0, 1.0)
        return BarrierCheck(
            **{**check.__dict__, "eta_threshold": threshold, "eta_within_threshold": eta <= threshold}
        )
    return check
