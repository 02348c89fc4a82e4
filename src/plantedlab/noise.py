"""Noise operators, one per model, with replayable seeds.

Discrete models use Bernoulli resampling: each coordinate is independently
replaced by a fresh draw from its ambient distribution with probability rho.
Gaussian models use the Ornstein-Uhlenbeck average sqrt(1-rho^2) * y + rho * Z.

rho = 0 is a bit-exact identity that draws nothing.  Each operator
draw_noise_<model> draws from a given generator; noise_instance_observation
takes an explicit seed instead, so the same noise realization can be
replayed against different estimators.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .mc import run_trials
from .models import (
    PspInstance,
    adjacency_from_edge_vector,
    draw_instance,
    edge_vector_from_adjacency,
    model_name,
)
from .rng import INSTANCE_STREAM, NOISE_STREAM, derive_seeds, generator, keyed_generator, philox_keys, rekey

# bounds on the run of consecutive trials that CoupledTrials.map hands its function
EVAL_CHUNK = 256
EVAL_CHUNK_BYTES = 2**22


def check_rho(rho: float) -> None:
    if not (0.0 <= rho <= 1.0):
        raise ParameterError(f"need rho in [0,1], got {rho}")


def check_trials(n: int) -> None:
    if n < 1:
        raise ParameterError(f"no values to average; need at least one trial, got {n}")


def draw_noise_psp(instance: PspInstance, rho: float, rng: np.random.Generator) -> np.ndarray:
    """Resample every unordered pair from Bern(q) with probability rho."""
    check_rho(rho)
    adj = instance.adjacency
    if rho == 0.0:
        return adj.copy()
    vec = edge_vector_from_adjacency(adj)
    mask = rng.random(vec.shape) < rho
    fresh = rng.random(vec.shape) < instance.params.q
    return adjacency_from_edge_vector(np.where(mask, fresh, vec), instance.params.n)


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


# model -> (instance, rho, rng) -> the noisy observation, shaped like instance.observation
_NOISE = {
    "psp": draw_noise_psp,
    "rlc": lambda inst, rho, rng: (inst.A, draw_noise_rlc(inst.y, rho, rng)),
    "gss": lambda inst, rho, rng: (inst.X, draw_noise_gss(inst.Y, rho, rng)),
    "tpca": lambda inst, rho, rng: draw_noise_tpca(inst.Y, rho, rng),
}


def draw_noisy_observation(instance, rho: float, rng: np.random.Generator):
    """The instance's observation after the model's noise operator at rho, drawn from rng."""
    return _NOISE[model_name(instance.params)](instance, rho, rng)


def noise_instance_observation(instance, rho: float, seed: int):
    """The instance's observation after the model's noise operator at rho."""
    return draw_noisy_observation(instance, rho, generator(seed))


class CoupledTrials:
    """Trials 0..n-1 of a coupled experiment: trial t is (instance, its observation after T_rho).

    The instance is sample_instance at seed path (seed, INSTANCE_STREAM, t),
    or draw(params, seed, t) when given.  The noise seed path is
    (seed, NOISE_STREAM, t), or (seed, NOISE_STREAM, grid_point, t) for a
    point of a noise grid, so the same draw replays against any estimator.

    Every instance and noise key is derived at construction, and trial t is
    drawn when indexed.  Indexing re-keys one shared Philox, so trial t is
    the same whichever trials were drawn before it.
    """

    def __init__(self, params, rho: float, seed: int, n: int, *, grid_point=None, draw=None):
        check_trials(n)
        check_rho(rho)
        ts = np.arange(n)
        path = () if grid_point is None else (grid_point,)
        self._noise_keys = philox_keys(derive_seeds(seed, NOISE_STREAM, *path, ts=ts))
        self._instance_keys = None if draw is not None else philox_keys(derive_seeds(seed, INSTANCE_STREAM, ts=ts))
        self._params, self._rho, self._seed, self._draw = params, rho, seed, draw
        self._rng = keyed_generator()

    def __len__(self) -> int:
        return len(self._noise_keys)

    def __getitem__(self, t: int):
        if not 0 <= t < len(self):
            raise IndexError(f"trial {t} outside 0..{len(self) - 1}")
        if self._draw is None:
            inst = draw_instance(self._params, rekey(self._rng, self._instance_keys[t]))
        else:
            inst = self._draw(self._params, self._seed, t)
        return inst, draw_noisy_observation(inst, self._rho, rekey(self._rng, self._noise_keys[t]))

    def map(self, fn) -> list:
        """fn(start, instances, noisy observations) on runs of consecutive trials; its results in trial order.

        A run holds at most EVAL_CHUNK trials and at most EVAL_CHUNK_BYTES of
        observation arrays, but at least one trial.  Each arm of a trial is
        counted at the size of its instance's arrays, which bounds it.
        """
        head = [self[0]]  # trial 0 sizes the runs; the first run takes it over, so it is not held after
        trial_bytes = 2 * sum(v.nbytes for v in vars(head[0][0]).values() if isinstance(v, np.ndarray))
        size = min(EVAL_CHUNK, max(1, EVAL_CHUNK_BYTES // trial_bytes))
        runs = [range(start, min(start + size, len(self))) for start in range(0, len(self), size)]

        def chunk(c: int) -> list:
            pairs = [self[t] if t else head.pop() for t in runs[c]]
            return fn(runs[c].start, *[list(arm) for arm in zip(*pairs)])

        return [row for rows in run_trials(len(runs), chunk) for row in rows]
