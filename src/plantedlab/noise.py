"""Noise operators, one per model, with replayable seeds.

Discrete models use Bernoulli resampling: each coordinate is independently
replaced by a fresh draw from its ambient distribution with probability rho.
Gaussian models use the Ornstein-Uhlenbeck average sqrt(1-rho^2) * y + rho * Z.

rho = 0 is a bit-exact identity.  Each operator takes an explicit seed so the
same noise realization can be replayed against different estimators.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .models import (
    PspInstance,
    adjacency_from_edge_vector,
    edge_vector_from_adjacency,
    model_name,
    sample_instance,
)
from .rng import INSTANCE_STREAM, NOISE_STREAM, derive_seed, generator


def check_rho(rho: float) -> None:
    if not (0.0 <= rho <= 1.0):
        raise ParameterError(f"need rho in [0,1], got {rho}")


def noise_psp(instance: PspInstance, rho: float, seed: int) -> np.ndarray:
    """Resample every unordered pair from Bern(q) with probability rho."""
    check_rho(rho)
    adj = instance.adjacency
    if rho == 0.0:
        return adj.copy()
    q = instance.params.q
    vec = edge_vector_from_adjacency(adj)
    rng = generator(seed)
    mask = rng.random(vec.shape) < rho
    fresh = rng.random(vec.shape) < q
    out = np.where(mask, fresh, vec)
    return adjacency_from_edge_vector(out, instance.params.n)


def noise_rlc(y: np.ndarray, rho: float, seed: int) -> np.ndarray:
    """Resample each codeword bit from Bern(1/2) with probability rho; A untouched."""
    check_rho(rho)
    if rho == 0.0:
        return y.copy()
    rng = generator(seed)
    mask = rng.random(y.shape) < rho
    fresh = rng.integers(0, 2, size=y.shape, dtype=y.dtype)
    return np.where(mask, fresh, y)


def noise_gss(Y: float, rho: float, seed: int) -> float:
    """Ornstein-Uhlenbeck step on the scalar observation."""
    check_rho(rho)
    if rho == 0.0:
        return float(Y)
    rng = generator(seed)
    z = rng.standard_normal()
    return float(np.sqrt(1.0 - rho * rho) * Y + rho * z)


def noise_tpca(Y: np.ndarray, rho: float, seed: int) -> np.ndarray:
    """Entrywise Ornstein-Uhlenbeck step on the observed tensor."""
    check_rho(rho)
    if rho == 0.0:
        return Y.copy()
    rng = generator(seed)
    Z = rng.standard_normal(Y.shape)
    return np.sqrt(1.0 - rho * rho) * Y + rho * Z


# model -> (instance, rho, seed) -> the noisy observation, shaped like instance.observation
_NOISE = {
    "psp": noise_psp,
    "rlc": lambda inst, rho, seed: (inst.A, noise_rlc(inst.y, rho, seed)),
    "gss": lambda inst, rho, seed: (inst.X, noise_gss(inst.Y, rho, seed)),
    "tpca": lambda inst, rho, seed: noise_tpca(inst.Y, rho, seed),
}


def noise_instance_observation(instance, rho: float, seed: int):
    """The instance's observation after the model's noise operator at rho."""
    return _NOISE[model_name(instance.params)](instance, rho, seed)


def coupled_trial(params, rho: float, seed: int, t: int, *, grid_point=None, draw=None):
    """Trial t of a coupled experiment: (instance, its observation after T_rho).

    The instance is sample_instance at seed path (seed, INSTANCE_STREAM, t),
    or draw(params, seed, t) when given.  The noise seed path is
    (seed, NOISE_STREAM, t), or (seed, NOISE_STREAM, grid_point, t) for a
    point of a noise grid, so the same draw replays against any estimator.
    """
    if draw is None:
        inst = sample_instance(params, derive_seed(seed, INSTANCE_STREAM, t))
    else:
        inst = draw(params, seed, t)
    path = (t,) if grid_point is None else (grid_point, t)
    return inst, noise_instance_observation(inst, rho, derive_seed(seed, NOISE_STREAM, *path))


def ou_compose(rho1: float, rho2: float) -> float:
    """The single rho equivalent to applying OU noise at rho1 then rho2."""
    check_rho(rho1)
    check_rho(rho2)
    return float(np.sqrt(rho1**2 + rho2**2 - rho1**2 * rho2**2))
