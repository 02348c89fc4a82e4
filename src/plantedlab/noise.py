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
from .models import batch_rows, check_instance, chunk_sampler, instance_bytes, model_name, per_field, vertex_pairs
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

# bounds on the run of consecutive trials that a CoupledTrials pass hands its lanes
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
    """The instance's one observation after the model's noise operator at rho, drawn from generator(seed)."""
    rng = generator(seed)
    return batch_rows(chunk_noise(instance.params, rho)(check_instance(instance), lambda _: rng), 0)


class CoupledTrials:
    """Trials 0..n-1 of a coupled experiment: trial t is an instance and its observation after T_rho in each noise arm.

    arms lists the noise arms (rho, grid_point): the arm's noise seed path is
    (seed, NOISE_STREAM, t), or (seed, NOISE_STREAM, grid_point, t) for a
    point of a noise grid.  The instance is sample_instance at seed path
    (seed, INSTANCE_STREAM, t), or, when draw is given, trial t's instance in
    the run record draw(params, seed, ts) of a range of trials ts holding t.
    So the same draw replays against any estimator, and every arm noises the
    same instances.

    Each arm's noise keys, the instance keys and the one instance draw (the
    model's chunk_sampler over the instance keys, or draw) are resolved at
    construction.  A run of trials is drawn with one call, and each arm's
    noise with one call, re-keying one shared Philox per trial, so trial t
    is the same whichever trials were drawn before it.
    """

    def __init__(self, params, arms, seed: int, n: int, *, draw=None):
        check_trials(n)
        self._params, self._n, self._rng = params, n, keyed_generator()
        self._arms = [
            (rho, trial_keys(seed, NOISE_STREAM, *(() if point is None else (point,)), n=n)) for rho, point in arms
        ]
        if draw is None:
            sample, keys, rng = chunk_sampler(params), trial_keys(seed, INSTANCE_STREAM, n=n), self._rng
            self._draw = lambda ts: sample(len(ts), keyed_fresh(rng, keys[ts.start : ts.stop]))
        else:
            self._draw = partial(draw, params, seed)

    def __len__(self) -> int:
        return self._n

    def _noisy(self, arm: int, run, ts: range):
        """The stacked noisy observation of the run record of trials ts in the given arm."""
        level, keys = self._arms[arm]
        return chunk_noise(self._params, level)(run, keyed_fresh(self._rng, keys[ts.start : ts.stop]))

    def map(self, fn) -> list:
        """The one-lane pass of fn on the first arm: fn(start, run, noisy)'s rows in trial order; raises what fn raises."""
        (rows,) = self.run_lanes([(0, lambda: fn, lambda outs: [row for out in outs for row in out])])
        return rows

    def run_lanes(self, lanes) -> list:
        """One coupled pass over ranked lanes: each lane's reduction, in rank order; raises the first failure.

        lanes lists (arm, make, reduce) triples in the order their errors
        rank; make() builds the lane's fn(start, run, noisy), run being the
        run record of trials start, start + 1, ... and noisy their noisy
        observation in the arm, stacked as run.observation is, and
        reduce(outputs) takes the lane's fn results, one a run, in trial
        order.  A lane whose arm's rho is out of range or whose make raises
        fails before the pass.  Each run (trial_runs of the trials, each
        counted at twice its instance's arrays) is drawn once, then noised
        one arm at a time, in arm order, and each live lane of that arm
        scores it, in rank order.  A lane that raises stops, and so does
        every lane ranked after it; the pass ends once the top-ranked lane
        has stopped.  Then the lanes ranked before the first failure are
        reduced, in rank order, and the failure is raised.  So what is
        raised (a reduction's error, or the failure) is what one-lane
        passes in rank order, each reduced as it ends, would raise first.
        """
        fns, failure = [], None
        for arm, make, _ in lanes:
            try:
                check_rho(self._arms[arm][0])
                fns.append((arm, make()))
            except Exception as err:  # noqa: BLE001 - the lane fails before the pass
                failure = err
                break
        rows, live, arms = [[] for _ in fns], len(fns), {}  # the lanes ranked before live are still running
        for lane, (arm, _) in enumerate(fns):
            arms.setdefault(arm, []).append(lane)
        runs = trial_runs(len(self), 2 * instance_bytes(self._params))

        def chunk(c: int) -> None:
            nonlocal failure, live
            if not live:
                return
            ts = runs[c]
            run = self._draw(ts)
            for arm in sorted(arms):
                if arms[arm][0] >= live:
                    continue
                noisy = self._noisy(arm, run, ts)
                for lane in arms[arm]:
                    if lane < live:
                        try:
                            rows[lane].append(fns[lane][1](ts.start, run, noisy))
                        except Exception as err:  # noqa: BLE001 - it and the lanes ranked after it stop
                            failure, live = err, lane
                del noisy  # released before the next arm is noised

        run_trials(len(runs), chunk)
        reductions = [reduce(outs) for (_, _, reduce), outs in zip(lanes, rows[:live])]
        if failure is not None:
            raise failure
        return reductions
