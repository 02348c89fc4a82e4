"""Noise operators, one per model, with replayable seeds.

Discrete models use Bernoulli resampling: each coordinate is independently
replaced by a fresh draw from its ambient distribution with probability rho.
Gaussian models use the Ornstein-Uhlenbeck average sqrt(1-rho^2) * y + rho * Z.

rho = 0 is a bit-exact identity that draws nothing.  chunk_noise(params, rho)
applies the model's operator to a run record (models.chunk_sampler), each
trial's noise read from its own generator: PSP's and RLC's as raw Philox
words decoded once per run (rng.uniforms, coin_bits), GSS's and TPCA's as
Generator normals.  It returns the run's noisy observation stacked as
run.observation is: PSP's edges (T, P), RLC's (A, y), GSS's (X, Y) and TPCA's
Y, each array with the trials along its first axis.
noise_instance_observation takes an explicit seed instead, so the same noise
realization can be replayed against different estimators.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import ParameterError
from .mc import run_trials
from .models import batch_rows, chunk_sampler, instance_bytes, model_name, per_field, run_of, vertex_pairs
from .rng import (
    INSTANCE_STREAM,
    NOISE_STREAM,
    coin_bits,
    generator,
    keyed_fresh,
    keyed_generator,
    keyed_runs,
    trial_keys,
    uniforms,
)

# bounds on the run of consecutive trials that CoupledTrials.map hands its function
EVAL_CHUNK = 256
EVAL_CHUNK_BYTES = 2**22


def check_rho(rho: float) -> None:
    if not (0.0 <= rho <= 1.0):
        raise ParameterError(f"need rho in [0,1], got {rho}")


def check_trials(n: int) -> None:
    if n < 1:
        raise ParameterError(f"no values to average; need at least one trial, got {n}")


def trial_runs(n: int, trial_bytes: int) -> list[range]:
    """range(n) in consecutive runs of at most EVAL_CHUNK trials and EVAL_CHUNK_BYTES
    at trial_bytes a trial, but of at least one trial."""
    size = min(EVAL_CHUNK, max(1, EVAL_CHUNK_BYTES // trial_bytes))
    return [range(start, min(start + size, n)) for start in range(0, n, size)]


def instance_runs(params, seed: int, n: int):
    """The run records of trials 0..n-1 in runs of trial_runs, trial t's instance
    being sample_instance(params, derive_seed(seed, INSTANCE_STREAM, t))."""
    keys = trial_keys(seed, INSTANCE_STREAM, n=n)
    return keyed_runs(chunk_sampler(params), keys, trial_runs(n, instance_bytes(params)))


def _noise_psp(params, rho: float, run, fresh) -> np.ndarray:
    """Resample every unordered pair from Bern(q) with probability rho.

    The mask takes one uniform per pair, then the fresh edges one per pair.
    """
    pairs = len(vertex_pairs(params.n))
    u = uniforms(np.array([g.bit_generator.random_raw(2 * pairs) for g in map(fresh, range(len(run)))]))
    return np.where(u[:, :pairs] < rho, u[:, pairs:] < params.q, run.edges)


def _noise_rlc(params, rho: float, run, fresh) -> tuple[np.ndarray, np.ndarray]:
    """Resample each codeword bit from Bern(1/2) with probability rho; A untouched.

    The mask takes one uniform per bit, then the fresh bits one
    Generator.integers(0, 2) call of uint8 coin flips.
    """
    m = params.m
    words = m + ((m + 3) // 4 + 1) // 2  # m uniforms, then ceil(m/4) uint32 draws
    raw = np.array([g.bit_generator.random_raw(words) for g in map(fresh, range(len(run)))])
    return run.A, np.where(uniforms(raw[:, :m]) < rho, coin_bits(raw[:, m:])[:, :m], run.y)


def _noise_gss(params, rho: float, run, fresh) -> tuple[np.ndarray, np.ndarray]:
    """Ornstein-Uhlenbeck step on the scalar observation."""
    z = np.array([g.standard_normal() for g in map(fresh, range(len(run)))])
    return run.X, np.sqrt(1.0 - rho * rho) * run.Y + rho * z


def _noise_tpca(params, rho: float, run, fresh) -> np.ndarray:
    """Entrywise Ornstein-Uhlenbeck step on the observed tensor."""
    Z = np.empty(run.Y.shape)
    for z, g in zip(Z, map(fresh, range(len(run)))):
        g.standard_normal(out=z)
    return np.sqrt(1.0 - rho * rho) * run.Y + rho * Z


_NOISE = {"psp": _noise_psp, "rlc": _noise_rlc, "gss": _noise_gss, "tpca": _noise_tpca}


def chunk_noise(params, rho: float):
    """The model's noise operator at rho over a run: apply(run, fresh) -> the run's stacked noisy observation.

    The noisy observation is stacked as run.observation is.  fresh(i)
    returns trial i's noise generator at its fresh state, and each trial's
    draws are read from it before fresh(i + 1) is called.  At rho = 0 the
    observation is copied and fresh is never called.
    """
    check_rho(rho)
    if rho == 0.0:
        return lambda run, fresh: per_field(np.copy, run.observation)
    return partial(_NOISE[model_name(params)], params, rho)


def noise_instance_observation(instance, rho: float, seed: int):
    """The instance's observation after the model's noise operator at rho, drawn from generator(seed)."""
    rng = generator(seed)
    return batch_rows(chunk_noise(instance.params, rho)(run_of([instance]), lambda _: rng), 0)


class CoupledTrials:
    """Trials 0..n-1 of a coupled experiment: trial t is an instance and its observation after T_rho in each noise arm.

    rho is one noise level, whose noise seed path is (seed, NOISE_STREAM, t),
    or (seed, NOISE_STREAM, grid_point, t) for a point of a noise grid; or
    it is a list of noise arms (rho, grid_point), each with that seed path.
    The instance is sample_instance at seed path (seed, INSTANCE_STREAM, t),
    or, when draw is given, trial t's instance in the run record draw(params,
    seed, ts) of a range of trials ts holding t.  So the same draw replays
    against any estimator, and every arm noises the same instances.

    Each arm's noise keys, the instance keys, the one instance draw (the
    model's chunk_sampler over the instance keys, or draw) and each arm's
    chunk_noise are resolved at construction, arm by arm; an arm whose rho
    is out of range ends the arms, and its error is raised after the arms
    before it have run (at once for the first arm).  A run of trials is
    drawn with one call, and each arm's noise with one call, re-keying one
    shared Philox per trial, so trial t is the same whichever trials were
    drawn before it; indexing draws the one-trial run.
    """

    def __init__(self, params, rho, seed: int, n: int, *, grid_point=None, draw=None):
        check_trials(n)
        self._params, self._n, self._rng = params, n, keyed_generator()
        self._arms, self._failure = [], None
        for level, point in rho if isinstance(rho, list) else [(rho, grid_point)]:
            try:
                noise = chunk_noise(params, level)
            except ParameterError as err:
                if not self._arms:
                    raise
                self._failure = err
                break
            path = () if point is None else (point,)
            self._arms.append((noise, trial_keys(seed, NOISE_STREAM, *path, n=n)))
        if draw is None:
            sample, keys, rng = chunk_sampler(params), trial_keys(seed, INSTANCE_STREAM, n=n), self._rng
            self._draw = lambda ts: sample(len(ts), keyed_fresh(rng, keys[ts.start : ts.stop]))
        else:
            self._draw = partial(draw, params, seed)

    def __len__(self) -> int:
        return self._n

    def _noisy(self, arm: int, run, ts: range):
        """The stacked noisy observation of the run record of trials ts in the given arm."""
        noise, keys = self._arms[arm]
        return noise(run, keyed_fresh(self._rng, keys[ts.start : ts.stop]))

    def __getitem__(self, t: int) -> tuple:
        """(instance, its noisy observation in each arm) of trial t."""
        if not 0 <= t < len(self):
            raise IndexError(f"trial {t} outside 0..{len(self) - 1}")
        ts = range(t, t + 1)
        run = self._draw(ts)
        out = (run[0], *(batch_rows(self._noisy(arm, run, ts), 0) for arm in range(len(self._arms))))
        if self._failure is not None:
            raise self._failure
        return out

    def map(self, fn) -> list:
        """map_arms of one arm: fn(start, run, noisy) on runs of consecutive trials; its results in trial order."""
        (rows,) = self.map_arms([fn])
        return rows

    def map_arms(self, fns) -> list[list]:
        """fns[j](start, run, noisy) on runs of consecutive trials in arm j, one fn per arm; each fn's results in trial order.

        run is the run record of trials start, start + 1, ... and noisy their
        noisy observation in arm j, stacked as run.observation is (see
        chunk_noise).  Each run is drawn once, and then its arms one at a
        time, in order, so a run holds its record and one arm.  The runs are
        trial_runs of the trials, each trial counted at twice the size of
        its instance's arrays, which bounds it.  Errors come as passes of
        one arm at a time would raise them: when fns[j] raises, it and the
        arms after it stop, the arms before it run to the end, and then the
        error is raised (at once when j is 0).
        """
        runs = trial_runs(len(self), 2 * instance_bytes(self._params))
        fns, failure = list(fns)[: len(self._arms)], self._failure

        def chunk(c: int) -> list:
            nonlocal failure
            ts, rows = runs[c], []
            run = self._draw(ts)
            for arm, fn in enumerate(fns):
                try:
                    rows.append(fn(ts.start, run, self._noisy(arm, run, ts)))
                except Exception as err:  # noqa: BLE001 - the arms before this one run on
                    if not arm:
                        raise
                    del fns[arm:]
                    failure = err
                    break
            return rows

        done = run_trials(len(runs), chunk)
        if failure is not None:
            raise failure
        return [[row for rows in done for row in rows[arm]] for arm in range(len(fns))]
