"""The four planted models: parameters, instances, and seeded samplers.

Conventions
-----------
* PSP vertices are 1-indexed; the planted path runs from vertex 1 to vertex 2.
  Unordered pairs are stored canonically as (min, max), and edge vectors are
  laid out in lexicographic pair order (1,2), (1,3), ..., (n-1,n).
* RLC/GSS/TPCA indices are 0-based.
* Samplers are pure functions of (params, seed): identical arguments produce
  bit-identical instances.  Within a sampler the signal is drawn first, the
  ambient randomness second.

JSON schema (stable field names)
--------------------------------
* params: {"model": <name>, ...scalar fields}; TPCA uses "lambda" for the SNR.
* PSP instance: {"params", "path": [v0..vL], "edges": sorted [i, j] pairs}.
* RLC instance: {"params", "A": row-major bit string, "x": bit string,
  "y": bit string}.
* GSS instance: {"params", "X": [floats], "S": sorted indices, "Y": float}.
* TPCA instance: {"params", "support": sorted indices, "Y": row-major [floats]}.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ParameterError, ResourceBudgetError
from .rng import generator

TENSOR_ENTRY_BUDGET = 10**6


# ---------------------------------------------------------------------------
# pair bookkeeping (PSP)


@lru_cache(maxsize=None)
def vertex_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """All unordered vertex pairs of [n], 1-indexed, lexicographic."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


@lru_cache(maxsize=None)
def pair_index(n: int) -> dict[tuple[int, int], int]:
    return {p: idx for idx, p in enumerate(vertex_pairs(n))}


def path_edges(path: Sequence[int]) -> list[tuple[int, int]]:
    """Canonical (min, max) edges of a vertex sequence."""
    return [(min(a, b), max(a, b)) for a, b in zip(path[:-1], path[1:])]


def path_indicator(path: Sequence[int], n: int) -> np.ndarray:
    """Edge-indicator vector of a vertex sequence over the canonical pairs of [n]."""
    idx = pair_index(n)
    vec = np.zeros(len(idx))
    for e in path_edges(path):
        vec[idx[e]] = 1.0
    return vec


@lru_cache(maxsize=None)
def _pair_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) index arrays of vertex_pairs(n), read-only."""
    pairs = np.array(vertex_pairs(n), dtype=np.intp).reshape(-1, 2).T.copy()
    pairs.flags.writeable = False
    return pairs[0], pairs[1]


def adjacency_from_edge_vector(edge_vec: np.ndarray, n: int) -> np.ndarray:
    """Symmetric (n+1)x(n+1) boolean adjacency; row/column 0 unused."""
    rows, cols = _pair_arrays(n)
    present = np.asarray(edge_vec, dtype=bool)
    adj = np.zeros((n + 1, n + 1), dtype=bool)
    adj[rows, cols] = present
    adj[cols, rows] = present
    return adj


def edge_vector_from_adjacency(adj: np.ndarray) -> np.ndarray:
    """adj at vertex_pairs(n), n = adj.shape[0] - 1, in pair order and with adj's dtype."""
    rows, cols = _pair_arrays(adj.shape[0] - 1)
    return adj[rows, cols]


# ---------------------------------------------------------------------------
# parameter types


@dataclass(frozen=True)
class PspParams:
    n: int
    L: int
    q: float

    def __post_init__(self):
        if self.n < 3:
            raise ParameterError(f"need n >= 3, got {self.n}")
        if not (2 <= self.L <= self.n - 1):
            raise ParameterError(f"need 2 <= L <= n-1, got L={self.L}, n={self.n}")
        if not (0.0 <= self.q <= 1.0):
            raise ParameterError(f"need q in [0,1], got {self.q}")

    @classmethod
    def from_constants(cls, n: int, C: float, c: float) -> "PspParams":
        """Convenience parameterization L = round(C log n / log log n), q = c log n / n."""
        L = round(C * math.log(n) / math.log(math.log(n)))
        q = min(1.0, c * math.log(n) / n)
        return cls(n=n, L=L, q=q)


@dataclass(frozen=True)
class RlcParams:
    m: int
    n: int

    def __post_init__(self):
        if not (self.m >= self.n >= 1):
            raise ParameterError(f"need m >= n >= 1, got m={self.m}, n={self.n}")


@dataclass(frozen=True)
class GssParams:
    N: int
    k: int

    def __post_init__(self):
        if not (1 <= self.k <= self.N):
            raise ParameterError(f"need 1 <= k <= N, got k={self.k}, N={self.N}")


@dataclass(frozen=True)
class TpcaParams:
    n: int
    k: int
    d: int
    lam: float

    def __post_init__(self):
        if not (1 <= self.k <= self.n):
            raise ParameterError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.d < 2:
            raise ParameterError(f"need tensor order d >= 2, got {self.d}")
        if not (0 <= self.lam < math.inf):
            raise ParameterError(f"need finite lambda >= 0, got {self.lam}")


# ---------------------------------------------------------------------------
# instance types


@dataclass(frozen=True)
class PspInstance:
    params: PspParams
    path: tuple[int, ...]
    adjacency: np.ndarray  # (n+1, n+1) bool, symmetric, 1-indexed

    @property
    def observation(self) -> np.ndarray:
        return self.adjacency

    def signal_vector(self) -> np.ndarray:
        """Edge-indicator vector of the planted path over canonical pairs."""
        return path_indicator(self.path, self.params.n)


@dataclass(frozen=True)
class RlcInstance:
    params: RlcParams
    A: np.ndarray  # (m, n) uint8
    x: np.ndarray  # (n,) uint8
    y: np.ndarray  # (m,) uint8

    @property
    def observation(self) -> tuple[np.ndarray, np.ndarray]:
        return (self.A, self.y)

    def signal_vector(self) -> np.ndarray:
        return self.x.astype(float)


@dataclass(frozen=True)
class GssInstance:
    params: GssParams
    X: np.ndarray  # (N,) float64
    S: tuple[int, ...]  # sorted 0-based indices
    Y: float

    @property
    def observation(self) -> tuple[np.ndarray, float]:
        return (self.X, self.Y)

    def signal_vector(self) -> np.ndarray:
        vec = np.zeros(self.params.N, dtype=float)
        vec[list(self.S)] = 1.0
        return vec


@dataclass(frozen=True)
class TpcaInstance:
    params: TpcaParams
    support: tuple[int, ...]  # sorted 0-based indices
    Y: np.ndarray  # (n,)*d float64

    @property
    def observation(self) -> np.ndarray:
        return self.Y

    def signal_vector(self) -> np.ndarray:
        vec = np.zeros(self.params.n, dtype=float)
        vec[list(self.support)] = 1.0 / math.sqrt(self.params.k)
        return vec


# ---------------------------------------------------------------------------
# samplers


def sample_psp(params: PspParams, seed: int) -> PspInstance:
    """Plant a uniform path from 1 to 2, then union an independent G(n, q)."""
    n, L, q = params.n, params.L, params.q
    if n < L + 1:
        raise ParameterError(f"need n >= L+1 intermediate room, got n={n}, L={L}")
    rng = generator(seed)
    interior = rng.permutation(np.arange(3, n + 1))[: L - 1]
    path = (1, *map(int, interior), 2)
    edge_vec = rng.random(len(vertex_pairs(n))) < q
    idx = pair_index(n)
    for e in path_edges(path):
        edge_vec[idx[e]] = True
    return PspInstance(params=params, path=path, adjacency=adjacency_from_edge_vector(edge_vec, n))


def sample_rlc(params: RlcParams, seed: int) -> RlcInstance:
    rng = generator(seed)
    A = rng.integers(0, 2, size=(params.m, params.n), dtype=np.uint8)
    x = rng.integers(0, 2, size=params.n, dtype=np.uint8)
    y = (A @ x) % 2
    return RlcInstance(params=params, A=A, x=x, y=y.astype(np.uint8))


def subset_sum_value(X: np.ndarray, subset: Sequence[int]) -> float:
    """Left-to-right float sum over sorted indices; the instance's exact convention."""
    total = 0.0
    for i in sorted(subset):
        total += float(X[i])
    return total


def sample_gss(params: GssParams, seed: int) -> GssInstance:
    rng = generator(seed)
    X = rng.standard_normal(params.N)
    S = tuple(sorted(int(i) for i in rng.choice(params.N, size=params.k, replace=False)))
    return GssInstance(params=params, X=X, S=S, Y=subset_sum_value(X, S))


def tpca_signal_tensor(params: TpcaParams, support: Sequence[int]) -> np.ndarray:
    x = np.zeros(params.n, dtype=float)
    x[list(support)] = 1.0 / math.sqrt(params.k)
    tensor = x
    for _ in range(params.d - 1):
        tensor = np.multiply.outer(tensor, x)
    return tensor


def sample_tpca(params: TpcaParams, seed: int, *, entry_budget: int = TENSOR_ENTRY_BUDGET) -> TpcaInstance:
    if params.n**params.d > entry_budget:
        raise ResourceBudgetError(
            f"tensor has {params.n**params.d} entries, budget is {entry_budget}"
        )
    rng = generator(seed)
    support = tuple(sorted(int(i) for i in rng.choice(params.n, size=params.k, replace=False)))
    W = rng.standard_normal((params.n,) * params.d)
    Y = math.sqrt(params.lam) * tpca_signal_tensor(params, support) + W
    return TpcaInstance(params=params, support=support, Y=Y)


MODEL_NAMES = ("psp", "rlc", "gss", "tpca")

_PARAM_TYPES = {"psp": PspParams, "rlc": RlcParams, "gss": GssParams, "tpca": TpcaParams}
_SAMPLERS = {"psp": sample_psp, "rlc": sample_rlc, "gss": sample_gss, "tpca": sample_tpca}
# exact E||signal||^2
_SIGNAL_NORMS = {
    "psp": lambda p: float(p.L),
    "rlc": lambda p: p.n / 2.0,
    "gss": lambda p: float(p.k),
    "tpca": lambda p: 1.0,
}


def model_name(params) -> str:
    for name, tp in _PARAM_TYPES.items():
        if isinstance(params, tp):
            return name
    raise ParameterError(f"unknown params type {type(params)!r}")


def sample_instance(params, seed: int):
    return _SAMPLERS[model_name(params)](params, seed)


def signal_norm(params) -> float:
    """Exact E||signal||^2 for each model."""
    return _SIGNAL_NORMS[model_name(params)](params)


# ---------------------------------------------------------------------------
# JSON serialization

# dataclass field -> JSON key, where they differ
_JSON_KEYS = {"lam": "lambda"}


def _bits_to_string(arr: np.ndarray) -> str:
    return "".join("1" if b else "0" for b in np.asarray(arr).ravel())


def _string_to_bits(s: str, shape) -> np.ndarray:
    return np.array([int(ch) for ch in s], dtype=np.uint8).reshape(shape)


def params_to_json(params) -> dict:
    return {
        "model": model_name(params),
        **{_JSON_KEYS.get(f.name, f.name): getattr(params, f.name) for f in fields(params)},
    }


def params_from_json(obj: dict):
    """Inverse of params_to_json; every field is required and no other key is allowed.

    An int field takes an int and a float field any int or float; bools are
    rejected.  Values are passed on unconverted.
    """
    name = obj.get("model")
    if name not in _PARAM_TYPES:
        raise ParameterError(f"unknown model name {name!r}")
    fs = {_JSON_KEYS.get(f.name, f.name): f for f in fields(_PARAM_TYPES[name])}
    given = set(obj) - {"model"}
    if given != set(fs):
        raise ParameterError(
            f"{name} params need fields {sorted(fs)}; "
            f"missing {sorted(set(fs) - given)}, unknown {sorted(given - set(fs))}"
        )
    for key, f in fs.items():
        value, want_int = obj[key], f.type == "int"  # postponed annotations: f.type is a string
        if isinstance(value, bool) or not isinstance(value, int if want_int else (int, float)):
            kind = "an int" if want_int else "a number"
            raise ParameterError(f"{name} field {key!r} must be {kind}, got {value!r}")
    return _PARAM_TYPES[name](**{f.name: obj[key] for key, f in fs.items()})


def _psp_to_json(inst: PspInstance) -> dict:
    edges = [[i, j] for (i, j) in vertex_pairs(inst.params.n) if inst.adjacency[i, j]]
    return {"path": list(inst.path), "edges": edges}


def _psp_from_json(params: PspParams, obj: dict) -> PspInstance:
    adj = np.zeros((params.n + 1, params.n + 1), dtype=bool)
    for i, j in obj["edges"]:
        adj[i, j] = adj[j, i] = True
    return PspInstance(params=params, path=tuple(obj["path"]), adjacency=adj)


def _rlc_to_json(inst: RlcInstance) -> dict:
    return {"A": _bits_to_string(inst.A), "x": _bits_to_string(inst.x), "y": _bits_to_string(inst.y)}


def _rlc_from_json(params: RlcParams, obj: dict) -> RlcInstance:
    return RlcInstance(
        params=params,
        A=_string_to_bits(obj["A"], (params.m, params.n)),
        x=_string_to_bits(obj["x"], (params.n,)),
        y=_string_to_bits(obj["y"], (params.m,)),
    )


def _gss_to_json(inst: GssInstance) -> dict:
    return {"X": [float(v) for v in inst.X], "S": list(inst.S), "Y": inst.Y}


def _gss_from_json(params: GssParams, obj: dict) -> GssInstance:
    return GssInstance(params=params, X=np.array(obj["X"], dtype=float), S=tuple(obj["S"]), Y=float(obj["Y"]))


def _tpca_to_json(inst: TpcaInstance) -> dict:
    return {"support": list(inst.support), "Y": [float(v) for v in inst.Y.ravel()]}


def _tpca_from_json(params: TpcaParams, obj: dict) -> TpcaInstance:
    Y = np.array(obj["Y"], dtype=float).reshape((params.n,) * params.d)
    return TpcaInstance(params=params, support=tuple(obj["support"]), Y=Y)


_INSTANCE_CODECS = {
    "psp": (_psp_to_json, _psp_from_json),
    "rlc": (_rlc_to_json, _rlc_from_json),
    "gss": (_gss_to_json, _gss_from_json),
    "tpca": (_tpca_to_json, _tpca_from_json),
}


def instance_to_json(inst) -> dict:
    to_json, _ = _INSTANCE_CODECS[model_name(inst.params)]
    return {"params": params_to_json(inst.params), **to_json(inst)}


def instance_from_json(obj: dict):
    params = params_from_json(obj["params"])
    _, from_json = _INSTANCE_CODECS[model_name(params)]
    return from_json(params, obj)


def enumerate_paths(n: int, L: int, budget: int = 10**6) -> np.ndarray:
    """All 1->2 paths of length L as rows of intermediate-vertex sequences.

    Returned array has shape (count, L-1); count = (n-2)(n-3)...(n-L).
    """
    count = math.perm(n - 2, L - 1)
    if count > budget:
        raise ResourceBudgetError(f"{count} candidate paths exceed budget {budget}")
    if L == 1:
        return np.zeros((1, 0), dtype=np.int64)
    seqs = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(3, n + 1), L - 1)),
        dtype=np.int64,
        count=count * (L - 1),
    )
    return seqs.reshape(count, L - 1)


@lru_cache(maxsize=32)
def path_edge_indices(n: int, L: int, budget: int = 10**6) -> np.ndarray:
    """Edge-vector indices of every candidate path, shape (count, L)."""
    interiors = enumerate_paths(n, L, budget)
    idx = pair_index(n)
    count = interiors.shape[0]
    out = np.empty((count, L), dtype=np.int64)
    for r in range(count):
        seq = (1, *interiors[r], 2)
        for c, e in enumerate(path_edges(seq)):
            out[r, c] = idx[e]
    return out
