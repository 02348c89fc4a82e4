"""Estimator stability measurement and the stability-barrier inequality.

A stability trial draws one instance and one coupled noise realization,
evaluates the estimator on both the clean and the noisy observation, and
accumulates three second moments: the squared output displacement, the
squared error of the clean-arm output, and the clean-arm output norm.
The barrier check compares the measured error against
mmse_rho - 2 sqrt(2 (7 + 4 eta) eta) * E||signal||^2; barrier_cell measures
both sides on the same instances, in one coupled pass of two noise arms.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .bayes import MmseReport, mmse_report, posterior_means, squared_errors
from .errors import EstimatorTrialError, ParameterError
from .mc import mean_stderr, ratio_with_stderr
from .models import batch_rows, check_instance, model_name, pair_ids, per_field, prior_mean_vector, stack_observations, vertex_pairs
from .noise import CoupledTrials
from .solvers import LllConfig, f2_rref, lll_subset_sum, shortest_paths

# a barrier cell holds when its margin is above -BARRIER_SIGMAS combined standard errors
BARRIER_SIGMAS = 3.0


# ---------------------------------------------------------------------------
# registered estimators


class Solver(NamedTuple):
    model: str  # the one model the solver accepts
    what: str  # that model's description
    solve: Callable  # (params, stacked fields of models.stack_observations, LllConfig) -> (T x dim estimates, T found flags)
    fallback: Callable  # params -> the estimate of a trial where solve finds nothing


def _solve_psp(params, fields, cfg: LllConfig) -> tuple[np.ndarray, np.ndarray]:
    paths = shortest_paths(*fields, params.n)
    ids = pair_ids(params.n)[paths[:, :-1], paths[:, 1:]]
    out = np.zeros((len(paths), len(vertex_pairs(params.n)) + 1))
    out[np.arange(len(paths))[:, None], ids] = 1.0  # a step past vertex 2 has pair id -1, the spare last column
    return out[:, :-1], paths[:, 0] == 1


def _solve_rlc(params, fields, cfg: LllConfig) -> tuple[np.ndarray, np.ndarray]:
    # an affine solution set gives 0.5 on every free coordinate, so it never equals a 0/1 signal
    reduced = f2_rref(*fields)
    lead = reduced.rank[:, None] > np.arange(params.m)  # the rows that hold a pivot
    out = np.full((len(lead), params.n), 0.5)
    # pivot r's coordinate is row r's right-hand side, unless row r reaches a free column
    settled = lead & ~(reduced.rows & ~reduced.pivots[:, None, :]).any(axis=2)
    t, r = np.nonzero(settled)
    out[t, reduced.rows[t, r].argmax(axis=1)] = reduced.rhs[t, r]  # row r's first 1 is its pivot
    return out, ~(reduced.rhs.astype(bool) & ~lead).any(axis=1)


def _solve_gss(params, fields, cfg: LllConfig) -> tuple[np.ndarray, np.ndarray]:
    # one exact LLL reduction per instance
    out = np.zeros((len(fields[0]), params.N))
    found = np.zeros(len(out), dtype=bool)
    for i in range(len(out)):
        subset = lll_subset_sum(*batch_rows(fields, i), params.k, cfg)
        if subset is not None:
            out[i, list(subset)], found[i] = 1.0, True
    return out, found


# solver estimator name -> the fast polynomial-time solver of its model; the
# solve command recovers a trial when solve finds it and returns exactly its signal vector
SOLVERS = {
    # an unreachable target gives the all-zero vector
    "shortest_path_indicator": Solver("psp", "planted-path", _solve_psp, lambda p: np.zeros(len(vertex_pairs(p.n)))),
    "f2_round": Solver("rlc", "linear-code", _solve_rlc, prior_mean_vector),
    "lll_subset_indicator": Solver("gss", "subset-sum", _solve_gss, prior_mean_vector),
}


def solver_recoveries(run, cfg: LllConfig = LllConfig()) -> np.ndarray:
    """Whether the fast solver of the run's model finds each trial and returns exactly its signal vector.

    A trial the solver misses is not recovered, even where the fallback
    estimate equals the signal.
    """
    solver = next((s for s in SOLVERS.values() if s.model == model_name(run.params)), None)
    if solver is None:
        raise ParameterError(f"no fast solver for the {model_name(run.params)} model")
    estimates, found = solver.solve(run.params, stack_observations(run.params, run.observation), cfg)
    return found & (estimates == run.signal_vectors()).all(axis=1)


def solver_recovers(inst, cfg: LllConfig = LllConfig()) -> bool:
    """Whether the fast solver of the instance's model returns exactly its signal vector: solver_recoveries of one."""
    return bool(solver_recoveries(check_instance(inst), cfg)[0])


def _solver_estimator(solver: Solver, params, rho: float) -> Callable:
    cfg, fallback = LllConfig(), solver.fallback(params)

    def run(observations) -> np.ndarray:
        fields = stack_observations(params, observations)
        if not len(fields[0]):
            return np.zeros(0)
        estimates, found = solver.solve(params, fields, cfg)
        estimates[~found] = fallback
        return estimates

    return run


def _constant_prior_mean(params, rho: float) -> Callable:
    const = prior_mean_vector(params)

    def run(observations) -> np.ndarray:
        count = len(stack_observations(params, observations)[0])
        return np.tile(const, (count, 1)) if count else np.zeros(0)

    return run


# name -> factory(params, rho) -> batch estimator: a run's stacked observation of T
# trials in (see models.stack_observations), a T x dim array out.
# "posterior_mean" is the Bayes estimator matched to the measurement noise
# level, so both arms of a stability trial stay inside its support.
ESTIMATORS: dict[str, Callable] = {
    "posterior_mean": lambda params, rho: partial(posterior_means, params, rho=rho),
    **{name: partial(_solver_estimator, solver) for name, solver in SOLVERS.items()},
    "constant_prior_mean": _constant_prior_mean,
}


def check_estimator(name: str) -> None:
    if name not in ESTIMATORS:
        raise ParameterError(
            f"unknown estimator {name!r}; registered: {sorted(ESTIMATORS)}"
        )


def resolve_estimator(name: str, params, rho: float) -> Callable:
    check_estimator(name)
    if name in SOLVERS and model_name(params) != SOLVERS[name].model:
        raise ParameterError(f"{name} is a {SOLVERS[name].what} estimator")
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


def _second_moments(fn: Callable, start: int, clean, noisy, signals: np.ndarray) -> np.ndarray:
    """Rows (|a - b|^2, |a - x|^2, |a|^2), one a trial, from a = fn(clean), b = fn(noisy), x the signal.

    clean and noisy are a run's stacked observations, and signals its stacked
    signal vectors.  Both arms go through fn in one call, as one stacked
    observation.  When that call raises or gives non-finite output, the run
    is re-run one trial at a time, in trial order, and EstimatorTrialError
    names the first trial that fails.
    """
    count = len(signals)
    try:
        out = np.asarray(fn(per_field(lambda *arms: np.concatenate(arms), clean, noisy)), dtype=float)
        if out.ndim != 2 or len(out) != 2 * count:
            raise ValueError(f"estimator gave shape {out.shape} for {2 * count} observations")
        if not np.isfinite(out).all():
            raise ValueError("non-finite estimator output")
    except Exception as exc:  # noqa: BLE001 - abort with the index of the first trial that fails
        if count > 1:  # re-run the run one trial at a time, in trial order
            for i in range(count):
                one = slice(i, i + 1)
                _second_moments(fn, start + i, batch_rows(clean, one), batch_rows(noisy, one), signals[one])
        raise EstimatorTrialError(start, exc) from exc
    a, b = np.split(out, 2)
    # a stacked matmul makes each row's own BLAS dot, as one trial at a time would
    return np.stack([(v[:, None, :] @ v[:, :, None]).ravel() for v in (a - b, a - signals, a)], axis=1)


def _moment_lanes(estimators: Sequence, params, arms: Sequence[tuple[int, float]]) -> list:
    """The lanes of each estimator at each (arm, rho) of arms, estimator-major: _second_moments rows, reduced by stability_report.

    A lane resolves its estimator when it is built.
    """

    def lane(estimator, rho: float) -> Callable:
        fn = resolve_estimator(estimator, params, rho) if isinstance(estimator, str) else estimator
        return lambda start, run, noisy: _second_moments(fn, start, run.observation, noisy, run.signal_vectors())

    return [
        (arm, partial(lane, estimator, rho), partial(stability_report, params, estimator, rho))
        for estimator in estimators
        for arm, rho in arms
    ]


def stability_report(params, estimator, rho: float, moments: list) -> StabilityReport:
    """The StabilityReport at rho of an estimator lane's outputs, the _second_moments rows of each run.

    Raises IllConditionedError when the estimator's mean squared norm is
    not a positive finite number (e.g. an all-zero estimator).
    """
    diffs, errs, norms = np.concatenate(moments).T
    name = estimator if isinstance(estimator, str) else getattr(estimator, "__name__", "custom")
    # the fields in order: eta, then mse, then the estimator norm, each with its stderr
    return StabilityReport(
        model_name(params), params, name, float(rho), len(diffs),
        *ratio_with_stderr(diffs, norms), *mean_stderr(errs), *mean_stderr(norms),
    )


def measure_stability_grid(
    estimators: Sequence, params, rho_grid: Sequence[float], trials: int, seed: int
) -> list[StabilityReport]:
    """measure_stabilities(estimators, params, rho, trials, seed) at each rho of the grid, estimator-major, from one coupled pass.

    The pass has a noise arm (rho, None) per grid point, each at noise seed
    path (seed, NOISE_STREAM, t), so each run is drawn once and noised once
    an arm.  Its lanes rank estimator-major, so it raises the first error in
    that order: that of the first estimator in the given order that fails
    (at its first failing trial) or whose reduction is ill-conditioned, at
    the first rho where it does.
    """
    rho_grid = list(rho_grid)
    lanes = _moment_lanes(estimators, params, list(enumerate(rho_grid)))
    return CoupledTrials(params, [(rho, None) for rho in rho_grid], seed, trials).run_lanes(lanes)


def measure_stabilities(estimators: Sequence, params, rho: float, trials: int, seed: int) -> list[StabilityReport]:
    """measure_stability of each estimator, all scored on one pass over the coupled trials: measure_stability_grid at one rho.

    Each run of trials is drawn once and every estimator scores it, so each
    report equals measure_stability(estimator, params, rho, trials, seed) bit
    for bit.  Raises what the per-estimator loop raises first: the error of
    the first estimator, in the given order, that does not resolve, fails
    (at its first failing trial) or whose reduction is ill-conditioned.  An
    estimator that fails is not run on later runs, nor is any after it.
    """
    return measure_stability_grid(estimators, params, [rho], trials, seed)


def measure_stability(
    estimator,
    params,
    rho: float,
    trials: int,
    seed: int,
) -> StabilityReport:
    """Measure (rho, eta)-stability and clean-arm MSE of an estimator.

    estimator is a registry name or a batch estimator like those of ESTIMATORS.
    Each trial replays one coupled noise draw against both arms; the
    output-norm denominator uses the clean arm only.  The one-estimator case
    of measure_stabilities.
    """
    (report,) = measure_stabilities([estimator], params, rho, trials, seed)
    return report


def barrier_cell(estimators: Sequence, params, rho: float, trials: int, seed: int) -> tuple[MmseReport, list[StabilityReport]]:
    """estimate_mmse_curve(params, [rho], trials, seed) and measure_stabilities(estimators, params, rho, trials, seed), from one coupled pass.

    The pass has two noise arms over the same runs of instances: the MMSE
    arm at noise seed path (seed, NOISE_STREAM, 0, t), then the stability
    arm at (seed, NOISE_STREAM, t).  The MMSE lane ranks first, then the
    estimator lanes, so both reports are bit-identical to the two calls',
    and so are the errors: the MMSE lane's error comes first, then what
    measure_stabilities raises.
    """
    mmse_lane = (0, partial(squared_errors, params, rho), partial(mmse_report, params, rho))
    lanes = [mmse_lane, *_moment_lanes(estimators, params, [(1, rho)])]
    mmse, *reports = CoupledTrials(params, [(rho, 0), (rho, None)], seed, trials).run_lanes(lanes)
    return mmse, reports


# ---------------------------------------------------------------------------
# barrier inequality


def barrier_penalty(eta: float) -> float:
    """The stability penalty coefficient 2 sqrt(2 (7 + 4 eta) eta)."""
    if eta < 0:
        raise ParameterError(f"need eta >= 0, got {eta}")
    return 2.0 * math.sqrt(2.0 * (7.0 + 4.0 * eta) * eta)


@dataclass(frozen=True)
class BarrierCheck:
    """verify_barrier's verdict: holds when margin = lhs - rhs >= -holds_within * combined_stderr.

    The combined stderr is a normal approximation, so holds is a
    3-combined-sigma rule only at a few hundred trials or more.  Two-stderr
    intervals of mc's estimators under-cover below that: of 1,000 synthetic
    replicates, 93-94 fell beyond 2 sigma at 20 trials (the barrier goldens)
    and 58-74 at 45 trials (the benchmark's barrier cells), against 45.5
    nominal.
    """

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


def verify_barrier(stab: StabilityReport, mmse_rho: MmseReport, *, alpha: Optional[float] = None) -> BarrierCheck:
    """Check mse >= mmse_rho - penalty(eta) * E||signal||^2 up to MC error.

    Both reports must describe the same (model, params, rho).  When alpha is
    given, also evaluates the small-eta threshold eta <= min(alpha^2/400, 1).
    """
    if alpha is not None and not (isinstance(alpha, numbers.Real) and math.isfinite(alpha)):
        raise ParameterError(f"need a finite alpha, got {alpha!r}")
    if (stab.model, stab.params) != (mmse_rho.model, mmse_rho.params) or stab.rho != mmse_rho.rho:
        raise ParameterError(
            f"provenance mismatch: stability is {(stab.model, stab.params, stab.rho)}, "
            f"mmse is {(mmse_rho.model, mmse_rho.params, mmse_rho.rho)}"
        )
    norm = mmse_rho.signal_norm
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
        holds=margin >= -BARRIER_SIGMAS * combined,
        holds_within=BARRIER_SIGMAS,
        penalty=penalty,
        eta_hat=eta,
    )
    if alpha is not None:
        threshold = min(alpha**2 / 400.0, 1.0)
        return replace(check, eta_threshold=threshold, eta_within_threshold=eta <= threshold)
    return check
