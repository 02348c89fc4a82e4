"""The four planted models: parameters, run records of trials, and seeded samplers.

Conventions
-----------
* PSP vertices are 1-indexed; the planted path runs from vertex 1 to vertex 2.
  Unordered pairs are stored canonically as (min, max), and edge vectors are
  laid out in lexicographic pair order (1,2), (1,3), ..., (n-1,n).  A PSP
  graph, from the samplers to the solvers and the path census (counting), is
  its boolean edge vector over vertex_pairs(n).
* RLC/GSS/TPCA indices are 0-based.
* Samplers are pure functions of (params, seed): identical arguments produce
  bit-identical instances.  chunk_sampler(params) draws a run of trials,
  each from its own generator at its fresh state: the few draws that are
  not cheap to decode (PSP's permutation, GSS's normals, all of TPCA) are
  Generator calls, and the rest are raw Philox words that the run decodes
  in one numpy pass with numpy's own draw rules (rng.uniforms, coin_bits,
  lemire_draws).  sample_instance(params, seed) is its one-trial run on
  generator(seed).  Within a sampler the signal is drawn first, the ambient
  randomness second.
* A run of T trials is one run record (PspRun, RlcRun, GssRun, TpcaRun):
  the model's fields, each stacked along a new first axis (PSP path
  (T, L+1) and edges (T, P); RLC A (T, m, n), x and y; GSS X (T, N), S (T, k)
  and Y (T,); TPCA support (T, k) and Y (T, n, ...)).  run.observation
  stacks the observations and run.signal_vectors() the signal vectors.  An
  instance is a run of one trial, the one record type: every consumer of
  one instance (instance_to_json, noise.noise_instance_observation,
  stability.solver_recovers) takes it through check_instance.
* An observation is the fields its model's record names (PSP edges,
  RLC (A, y), GSS (X, Y), TPCA Y), a tuple when there are several.  A batch
  of observations is a run's stacked observation, each field an array with
  the trials along its first axis, and every estimator reads its batch
  through stack_observations, the one check of a field's shape and entries.
* Each model is one record of _MODELS (params and run types, sampler,
  observed fields, instance bytes, exact signal norm and prior mean, JSON
  codec).  trial_runs cuts runs of trials at EVAL_CHUNK and EVAL_CHUNK_BYTES.

JSON schema (stable field names)
--------------------------------
* params: {"model": <name>, ...scalar fields}; TPCA uses "lambda" for the SNR.
* PSP instance: {"params", "path": [v0..vL], "edges": sorted [i, j] pairs}.
* RLC instance: {"params", "A": row-major bit string, "x": bit string,
  "y": bit string}.
* GSS instance: {"params", "X": [floats], "S": sorted indices, "Y": float}.
* TPCA instance: {"params", "support": sorted indices, "Y": row-major [floats]}.
* instance_to_json writes an instance's one trial, and instance_from_json
  returns a run of one trial.  It checks each field's type, length and
  range (not the planted relation) and raises ParameterError naming the key.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ParameterError, ResourceBudgetError
from .rng import coin_bits, generator, lemire_draws, uint32_stream, uniforms

PATH_BUDGET = 10**6
SUBSET_BUDGET = 10**6
TENSOR_ENTRY_BUDGET = 10**6


# ---------------------------------------------------------------------------
# pair bookkeeping (PSP)


@lru_cache(maxsize=None)
def vertex_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """All unordered vertex pairs of [n], 1-indexed, lexicographic."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


@lru_cache(maxsize=None)
def pair_ids(n: int) -> np.ndarray:
    """Read-only (n+1)x(n+1) table of edge-vector indices: [i, j] = [j, i] = index of {i, j}, else -1."""
    rows, cols = np.array(vertex_pairs(n), dtype=np.intp).reshape(-1, 2).T
    ids = np.full((n + 1, n + 1), -1, dtype=np.intp)
    ids[rows, cols] = ids[cols, rows] = np.arange(len(rows))
    ids.flags.writeable = False
    return ids


@lru_cache(maxsize=256)
def placements(shape: tuple, n: int) -> np.ndarray:
    """Edge-vector indices of every placement of an edge list into [n], one row each; read-only.

    Labels 1 and 2 stay pinned.  The labels >= 3, in ascending order, take
    distinct vertices of 3..n in itertools.permutations order, so a shape with
    more of them than there are such vertices has no placement (0 rows).  The
    empty shape () has one placement with no edges, a (1, 0) array.  Raises
    ParameterError on a loop edge or a label below 1, which would otherwise
    read pair_ids' -1 as the last vertex pair.
    """
    for a, b in shape:
        if a == b or min(a, b) < 1:
            raise ParameterError(f"shape edge {(a, b)} needs two distinct labels >= 1")
    holders = sorted({v for e in shape for v in e if v >= 3})
    count = math.perm(n - 2, len(holders))
    perms = itertools.chain.from_iterable(itertools.permutations(range(3, n + 1), len(holders)))
    vertex = np.tile(np.arange(max(map(max, shape), default=0) + 1), (count, 1))  # each label is its own vertex
    vertex[:, holders] = np.fromiter(perms, dtype=np.intp, count=count * len(holders)).reshape(count, len(holders))
    a, b = np.array(shape, dtype=np.intp).reshape(-1, 2).T
    out = np.ascontiguousarray(pair_ids(n)[vertex[:, a], vertex[:, b]])
    out.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def subsets(N: int, k: int) -> np.ndarray:
    """Every k-subset of range(N) as an ascending row, in itertools.combinations order; read-only."""
    total = math.comb(N, k)
    if total > SUBSET_BUDGET:
        raise ResourceBudgetError(f"C({N},{k}) = {total} subsets exceed budget {SUBSET_BUDGET}")
    combos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(N), k)),
        dtype=np.int64,
        count=total * k,
    ).reshape(total, k)
    combos.flags.writeable = False
    return combos


def subset_sums(X: np.ndarray, combos: np.ndarray) -> np.ndarray:
    """subset_sum_value of every row of combos: from 0.0, the columns added left to right.

    X may be a stack of vectors along its last axis; leading axes are kept.
    """
    X = np.asarray(X, dtype=float)
    sums = np.zeros(X.shape[:-1] + (len(combos),))
    for col in combos.T:
        sums += X[..., col]
    return sums


# ---------------------------------------------------------------------------
# checks on observations from outside the samplers


def check_shape(name: str, array, shape: tuple) -> None:
    if np.shape(array) != shape:
        raise ParameterError(f"{name} has shape {np.shape(array)}, expected {shape}")


def check_stack(name: str, arrays, shape: tuple) -> np.ndarray:
    """arrays as they are; ParameterError unless they are an array of real numbers (numpy dtype kind b, i, u
    or f) of one row a trial, each of the given shape."""
    if not (isinstance(arrays, np.ndarray) and arrays.ndim):
        raise ParameterError(f"{name} is not stacked: got a {type(arrays).__name__}, not an array of one row a trial")
    if arrays.shape[1:] != shape:
        raise ParameterError(f"{name} has shape {arrays.shape[1:]}, expected {shape}")
    if arrays.dtype.kind not in "biuf":
        raise ParameterError(f"{name} entries must be real numbers, got dtype {arrays.dtype}")
    return arrays


def check_bits(name: str, array: np.ndarray) -> None:
    if not ((array == 0) | (array == 1)).all():
        raise ParameterError(f"{name} entries must be 0 or 1")


def check_finite(name: str, array: np.ndarray) -> None:
    if not np.isfinite(array).all():
        raise ParameterError(f"{name} must be finite")


def per_field(fn, *observations):
    """fn over the fields of observations of one model: fn of each field's arrays, a tuple when there are several."""
    return tuple(map(fn, *observations)) if isinstance(observations[0], tuple) else fn(*observations)


def stack_observations(params, observations) -> tuple:
    """A run's stacked observation of params' model as the tuple of its fields, each checked and not copied.

    The batch is run.observation, or what the noise operator returns: each
    field is an array with the trials along its first axis.  Each field goes
    through check_stack, then through its model's entry check.  Raises
    ParameterError on an observation of the wrong number of fields and on a
    field that is not an array of at least one axis, such as a list.
    """
    model = model_name(params)
    spec = _MODELS[model].observed
    names = ", ".join(name for name, _, _ in spec)
    if len(spec) > 1 and not (isinstance(observations, tuple) and len(observations) == len(spec)):
        got = f"{len(observations)} fields" if isinstance(observations, tuple) else f"a {type(observations).__name__}"
        raise ParameterError(f"a {model} observation is ({names}), got {got}")
    fields = observations if len(spec) > 1 else (observations,)
    for (name, shape, check), field in zip(spec, fields):
        if not (isinstance(field, np.ndarray) and field.ndim):
            raise ParameterError(f"{name} is not stacked: a stacked {model} batch holds ({names}) as arrays of one row a trial")
        check_stack(name, field, shape(params))
        check(name, field)
    return fields


def batch_size(observations) -> int:
    """The number of observations in a batch (see stack_observations)."""
    return len(observations[0] if isinstance(observations, tuple) else observations)


def batch_rows(observations, rows):
    """The observations of a stacked batch at rows, a slice or one trial's index: each field's rows."""
    return per_field(lambda a: a[rows], observations)


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
# run records: a run of trials with each field stacked along a new first
# axis, as the samplers draw it and the estimators read it; an instance is a
# run of one trial


class _Run:
    """A run of trials of one model."""

    @property
    def observation(self):
        """The observed fields of the model, stacked, in a tuple when there are several."""
        values = tuple(getattr(self, name) for name, _, _ in _MODELS[model_name(self.params)].observed)
        return values if len(values) > 1 else values[0]

    def __len__(self) -> int:
        return batch_size(self.observation)


def check_instance(run):
    """run as it is; ParameterError unless it is an instance, a run of one trial."""
    if len(run) == 1:
        return run
    raise ParameterError(f"an instance is a run of one trial, got a run of {len(run)}")


def _indicator_rows(width: int, index_rows: np.ndarray, value: float = 1.0) -> np.ndarray:
    """One row of width zeros per row of indices, with value at those indices."""
    out = np.zeros((len(index_rows), width))
    out[np.arange(len(index_rows))[:, None], index_rows] = value
    return out


@dataclass(frozen=True)
class PspRun(_Run):
    params: PspParams
    path: np.ndarray  # (T, L+1) intp
    edges: np.ndarray  # (T, n(n-1)/2) bool over vertex_pairs(n)

    def signal_vectors(self) -> np.ndarray:
        """Edge-indicator vectors of the planted paths over vertex_pairs(n)."""
        ids = pair_ids(self.params.n)[self.path[:, :-1], self.path[:, 1:]]
        return _indicator_rows(self.edges.shape[1], ids)


@dataclass(frozen=True)
class RlcRun(_Run):
    params: RlcParams
    A: np.ndarray  # (T, m, n) uint8
    x: np.ndarray  # (T, n) uint8
    y: np.ndarray  # (T, m) uint8

    def signal_vectors(self) -> np.ndarray:
        return self.x.astype(float)


@dataclass(frozen=True)
class GssRun(_Run):
    params: GssParams
    X: np.ndarray  # (T, N) float64
    S: np.ndarray  # (T, k) int64, each row ascending
    Y: np.ndarray  # (T,) float64

    def signal_vectors(self) -> np.ndarray:
        return _indicator_rows(self.params.N, self.S)


@dataclass(frozen=True)
class TpcaRun(_Run):
    params: TpcaParams
    support: np.ndarray  # (T, k) int64, each row ascending
    Y: np.ndarray  # (T, n, ..., n) float64

    def signal_vectors(self) -> np.ndarray:
        return _indicator_rows(self.params.n, self.support, 1.0 / math.sqrt(self.params.k))


# ---------------------------------------------------------------------------
# samplers: each draws a run of trials, reading every trial's draws from its
# own generator fresh(i) and decoding the stacked words once per run


def _sample_psp(params: PspParams, count: int, fresh) -> PspRun:
    """Plant a uniform path from 1 to 2, then union an independent G(n, q).

    Each trial shuffles its own row of 3..n in place, which draws what
    Generator.permutation(3..n) draws, and takes the path's interior from it.
    """
    n, L, q = params.n, params.L, params.q
    pairs = len(vertex_pairs(n))
    rest = np.empty((count, n - 2), dtype=np.intp)
    rest[:] = np.arange(3, n + 1)
    words = np.empty((count, pairs), dtype=np.uint64)
    for i, g in enumerate(map(fresh, range(count))):
        g.shuffle(rest[i])
        words[i] = g.bit_generator.random_raw(pairs)
    paths = np.ones((count, L + 1), dtype=np.intp)
    paths[:, 1:-1] = rest[:, : L - 1]
    paths[:, -1] = 2
    edges = uniforms(words) < q
    edges[np.arange(count)[:, None], pair_ids(n)[paths[:, :-1], paths[:, 1:]]] = True
    return PspRun(params, paths, edges)


def _sample_rlc(params: RlcParams, count: int, fresh) -> RlcRun:
    """Uniform A, then uniform x, each one Generator.integers(0, 2) call of uint8 coin flips; y = Ax mod 2."""
    m, n = params.m, params.n
    a_draws = (m * n + 3) // 4  # uint32 draws of A; x starts on the next one
    words = (a_draws + (n + 3) // 4 + 1) // 2
    bits = coin_bits(np.array([g.bit_generator.random_raw(words) for g in map(fresh, range(count))]))
    A = bits[:, : m * n].reshape(count, m, n)
    x = bits[:, 4 * a_draws : 4 * a_draws + n]
    return RlcRun(params, A, x, np.matmul(A, x[:, :, None])[:, :, 0] % 2)


def subset_sum_value(X: np.ndarray, subset: Sequence[int]) -> float:
    """Left-to-right float sum over sorted indices; the instance's exact convention."""
    total = 0.0
    for i in sorted(subset):
        total += float(X[i])
    return total


# Generator.choice(N, k, replace=False) shuffles a tail of range(N) past this population
# when k > N // 50, and runs Floyd's method otherwise
_CHOICE_FLOYD_LIMIT = 10000


def _sample_gss(params: GssParams, count: int, fresh) -> GssRun:
    """X ~ N(0, I_N), then a uniform k-subset S; Y is S's subset_sum_value.

    S is Generator.choice(N, k, replace=False).  Its Floyd method draws v in
    [0, j] (a bounded uint32 draw) for j = N-k..N-1 and takes v, or j when v
    was taken before; the run decodes those draws from raw words.  A trial
    the decoder cannot give (a rejected word, or past Floyd's range, where
    it reads no word) is drawn again from fresh(i) with choice itself.
    """
    N, k = params.N, params.k
    ranges = range(N - k + 1, N + 1)
    # a range of 1 draws nothing, and past Floyd's range choice reads no word
    words = 0 if N > _CHOICE_FLOYD_LIMIT and k > N // 50 else (sum(r > 1 for r in ranges) + 1) // 2
    X, raw = np.empty((count, N)), np.empty((count, words), dtype=np.uint64)
    for x, w, g in zip(X, raw, map(fresh, range(count))):
        g.standard_normal(out=x)
        w[:] = g.bit_generator.random_raw(words)
    draws, ok = lemire_draws(uint32_stream(raw), ranges)
    chosen = np.empty((count, k), dtype=np.int64)
    for i, j in enumerate(range(N - k, N)):
        v = draws[:, i].astype(np.int64)
        chosen[:, i] = np.where((chosen[:, :i] == v[:, None]).any(axis=1), j, v)
    for i in np.flatnonzero(~ok):
        g = fresh(i)
        g.standard_normal(N)
        chosen[i] = g.choice(N, size=k, replace=False)
    S = np.sort(chosen, axis=1)
    Y = np.zeros(count)
    for col in S.T:  # left to right over sorted indices, as subset_sum_value adds them
        Y += X[np.arange(count), col]
    return GssRun(params, X, S, Y)


def _sample_tpca(params: TpcaParams, count: int, fresh) -> TpcaRun:
    """A uniform k-support, then the noise tensor W; Y = sqrt(lambda) x^{(x)d} + W."""
    if params.n**params.d > TENSOR_ENTRY_BUDGET:
        raise ResourceBudgetError(
            f"tensor has {params.n**params.d} entries, budget is {TENSOR_ENTRY_BUDGET}"
        )
    supports, Y = np.empty((count, params.k), dtype=np.int64), np.empty((count,) + (params.n,) * params.d)
    for support, y, g in zip(supports, Y, map(fresh, range(count))):
        support[:] = np.sort(g.choice(params.n, size=params.k, replace=False))
        g.standard_normal(out=y)
    x = signal = _indicator_rows(params.n, supports, 1.0 / math.sqrt(params.k))
    for axis in range(1, params.d):  # x (x) x (x) ... one factor at a time, left to right
        signal = signal[..., None] * x.reshape((count,) + (1,) * axis + (params.n,))
    Y += np.multiply(signal, math.sqrt(params.lam), out=signal)
    return TpcaRun(params, supports, Y)


def _psp_prior_mean(params: PspParams) -> np.ndarray:
    """Exact prior edge marginals of the planted path (L >= 2)."""
    n, L = params.n, params.L
    total_paths = math.perm(n - 2, L - 1)
    p_end = math.perm(n - 3, L - 2) / total_paths  # a fixed {1,u} or {2,u} pair
    p_mid = (
        2 * (L - 2) * math.perm(n - 4, L - 3) / total_paths if L >= 3 else 0.0
    )  # a fixed pair of non-endpoint vertices
    out = np.full(len(vertex_pairs(n)), p_mid)
    out[pair_ids(n)[1:3, 3:]] = p_end  # the pairs {1, u} and {2, u}
    out[pair_ids(n)[1, 2]] = 0.0
    return out


# ---------------------------------------------------------------------------
# JSON serialization

# dataclass field -> JSON key, where they differ
_JSON_KEYS = {"lam": "lambda"}


def _bits_to_string(arr: np.ndarray) -> str:
    return "".join("1" if b else "0" for b in np.asarray(arr).ravel())


def _string_to_bits(key: str, s, shape) -> np.ndarray:
    """s as a 0/1 array of the given shape; ParameterError unless it is a string of that many characters 0 or 1."""
    size = math.prod(shape)
    if not (isinstance(s, str) and len(s) == size and set(s) <= {"0", "1"}):
        raise ParameterError(f"RLC {key!r} must be a string of {size} characters 0 or 1, got {s!r}")
    return np.array([int(ch) for ch in s], dtype=np.uint8).reshape(shape)


def _finite(v) -> bool:
    """Whether v is a JSON number, not a bool, that is finite as a float; abs compares a large int exactly."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _numbers_from_json(what: str, values, size: int) -> np.ndarray:
    """values as a float array; ParameterError unless they are a list of size finite numbers."""
    if not (isinstance(values, list) and len(values) == size and all(map(_finite, values))):
        raise ParameterError(f"{what} must be a list of {size} finite numbers")
    return np.array(values, dtype=float)


def _indices_from_json(what: str, values, k: int, n: int) -> np.ndarray:
    """values as an int64 array; ParameterError unless they are k >= 1 strictly ascending integers in 0..n-1."""
    ints = isinstance(values, list) and all(isinstance(v, int) and not isinstance(v, bool) for v in values)
    if not (ints and len(values) == k and values == sorted(set(values)) and 0 <= values[0] and values[-1] < n):
        raise ParameterError(f"{what} must be {k} strictly ascending integers in 0..{n - 1}, got {values!r}")
    return np.array(values, dtype=np.int64)


def params_to_json(params) -> dict:
    return {
        "model": model_name(params),
        **{_JSON_KEYS.get(f.name, f.name): getattr(params, f.name) for f in fields(params)},
    }


_JSON_TYPE_NAMES = {
    int: "an int", float: "a number", bool: "true or false", str: "a string", dict: "an object",
    list: "a list of numbers", list[str]: "a list of strings",
}
# kind -> the Python classes of a value of that kind, or of each item of a list kind
_JSON_CLASSES = {float: (int, float), list: (int, float), list[str]: str}


def check_json_types(what: str, obj: dict, types: dict) -> None:
    """ParameterError unless every obj[key] has the JSON type types[key].

    int takes an integer, float any number, bool only true or false, str a
    string, dict any object, list a list of numbers and list[str] a list of
    strings; a bool is never a number.
    """
    for key, value in obj.items():
        kind = types[key]
        is_list = kind in (list, list[str])
        want = _JSON_CLASSES.get(kind, kind)
        if is_list != isinstance(value, list) or not all(
            isinstance(v, want) and (kind is bool) == isinstance(v, bool)
            for v in (value if is_list else [value])
        ):
            raise ParameterError(f"{what} {key!r} must be {_JSON_TYPE_NAMES[kind]}, got {value!r}")


def params_from_json(obj: dict):
    """Inverse of params_to_json; every field is required and no other key is allowed.

    An int field takes an int and a float field any int or float; bools are
    rejected.  Values are passed on unconverted.
    """
    name = obj.get("model")
    if name not in _MODELS:
        raise ParameterError(f"unknown model name {name!r}")
    fs = {_JSON_KEYS.get(f.name, f.name): f for f in fields(_MODELS[name].params)}
    given = set(obj) - {"model"}
    if given != set(fs):
        raise ParameterError(
            f"{name} params need fields {sorted(fs)}; "
            f"missing {sorted(set(fs) - given)}, unknown {sorted(given - set(fs))}"
        )
    types = {key: int if f.type == "int" else float for key, f in fs.items()}  # postponed annotations: f.type is a string
    check_json_types(f"{name} field", {key: obj[key] for key in fs}, types)
    return _MODELS[name].params(**{f.name: obj[key] for key, f in fs.items()})


def _psp_to_json(params: PspParams, path: np.ndarray, edges: np.ndarray) -> dict:
    pairs = [[i, j] for (i, j), present in zip(vertex_pairs(params.n), edges.tolist()) if present]
    return {"path": path.tolist(), "edges": pairs}


def _check_labels(what: str, labels, n: int) -> None:
    if not isinstance(labels, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) and 1 <= v <= n for v in labels
    ):
        raise ParameterError(f"PSP {what} {labels!r} needs a list of integer vertex labels in 1..{n}")


def _psp_from_json(params: PspParams, obj: dict) -> tuple:
    """ParameterError unless edges is a list, each edge two distinct labels in 1..n, and the path
    runs from 1 to 2 over L+1 distinct labels in 1..n."""
    n, path = params.n, obj["path"]
    if not isinstance(obj["edges"], list):
        raise ParameterError(f"PSP 'edges' must be a list of vertex pairs, got {obj['edges']!r}")
    edges = np.zeros(len(vertex_pairs(n)), dtype=bool)
    for edge in obj["edges"]:
        _check_labels("edge", edge, n)
        if len(edge) != 2 or edge[0] == edge[1]:
            raise ParameterError(f"PSP edge {edge!r} needs two distinct vertex labels")
        edges[pair_ids(n)[edge[0], edge[1]]] = True
    _check_labels("path", path, n)
    if len(set(path)) != len(path) or len(path) != params.L + 1 or path[0] != 1 or path[-1] != 2:
        raise ParameterError(f"PSP path {path!r} needs {params.L + 1} distinct vertices from 1 to 2")
    return np.array(path, dtype=np.intp), edges


def _rlc_to_json(params: RlcParams, A: np.ndarray, x: np.ndarray, y: np.ndarray) -> dict:
    return {"A": _bits_to_string(A), "x": _bits_to_string(x), "y": _bits_to_string(y)}


def _rlc_from_json(params: RlcParams, obj: dict) -> tuple:
    """ParameterError unless A, x and y are strings of m*n, n and m characters 0 or 1."""
    return (
        _string_to_bits("A", obj["A"], (params.m, params.n)),
        _string_to_bits("x", obj["x"], (params.n,)),
        _string_to_bits("y", obj["y"], (params.m,)),
    )


def _gss_to_json(params: GssParams, X: np.ndarray, S: np.ndarray, Y: np.ndarray) -> dict:
    return {"X": X.tolist(), "S": S.tolist(), "Y": float(Y)}


def _gss_from_json(params: GssParams, obj: dict) -> tuple:
    """ParameterError unless X is N finite numbers, S k ascending indices in 0..N-1 and Y a finite number."""
    X = _numbers_from_json("GSS 'X'", obj["X"], params.N)
    S = _indices_from_json("GSS 'S'", obj["S"], params.k, params.N)
    if not _finite(obj["Y"]):
        raise ParameterError(f"GSS 'Y' must be a finite number, got {obj['Y']!r}")
    return X, S, np.float64(obj["Y"])


def _tpca_to_json(params: TpcaParams, support: np.ndarray, Y: np.ndarray) -> dict:
    return {"support": support.tolist(), "Y": Y.ravel().tolist()}


def _tpca_from_json(params: TpcaParams, obj: dict) -> tuple:
    """ParameterError unless support is k ascending indices in 0..n-1 and Y n^d finite numbers, row-major."""
    support = _indices_from_json("TPCA 'support'", obj["support"], params.k, params.n)
    return support, _numbers_from_json("TPCA 'Y'", obj["Y"], params.n**params.d).reshape((params.n,) * params.d)


# ---------------------------------------------------------------------------
# the model table: one record per model


class _Model(NamedTuple):
    params: type  # its params dataclass
    run: type  # its run record; the fields after params are its instance's JSON keys
    sample: Callable  # (params, count, fresh) -> the run record of count trials (see chunk_sampler)
    observed: tuple  # the fields of its observation, in order: (name, params -> one trial's shape, entry check)
    instance_bytes: Callable  # params -> bytes of an instance's arrays (see instance_bytes)
    signal_norm: Callable  # params -> exact E||signal||^2
    prior_mean: Callable  # params -> exact prior mean of the signal vector
    to_json: Callable  # (params, *one trial's fields) -> the instance's JSON fields
    from_json: Callable  # (params, obj) -> one trial's fields


_MODELS = {
    "psp": _Model(
        PspParams, PspRun, _sample_psp, (("edges", lambda p: (len(vertex_pairs(p.n)),), check_bits),),
        lambda p: p.n * (p.n - 1) // 2, lambda p: float(p.L), _psp_prior_mean, _psp_to_json, _psp_from_json,
    ),
    "rlc": _Model(
        RlcParams, RlcRun, _sample_rlc, (("A", lambda p: (p.m, p.n), check_bits), ("y", lambda p: (p.m,), check_bits)),
        lambda p: p.m * p.n + p.n + p.m, lambda p: p.n / 2.0, lambda p: np.full(p.n, 0.5), _rlc_to_json, _rlc_from_json,
    ),
    "gss": _Model(
        GssParams, GssRun, _sample_gss, (("X", lambda p: (p.N,), check_finite), ("Y", lambda p: (), check_finite)),
        lambda p: 8 * p.N, lambda p: float(p.k), lambda p: np.full(p.N, p.k / p.N), _gss_to_json, _gss_from_json,
    ),
    "tpca": _Model(
        TpcaParams, TpcaRun, _sample_tpca, (("Y", lambda p: (p.n,) * p.d, check_finite),),
        lambda p: 8 * p.n**p.d, lambda p: 1.0, lambda p: np.full(p.n, (p.k / p.n) / math.sqrt(p.k)),
        _tpca_to_json, _tpca_from_json,
    ),
}
MODEL_NAMES = tuple(_MODELS)


def model_name(params) -> str:
    for name, model in _MODELS.items():
        if isinstance(params, model.params):
            return name
    raise ParameterError(f"unknown params type {type(params)!r}")


def chunk_sampler(params):
    """The model's sampler over a run of trials: draw(count, fresh) -> the run record of its count trials.

    fresh(i) returns trial i's generator at its fresh state.  Each trial's
    draws are read from it before fresh(i + 1) is called, and fresh(i) may be
    called again for a GSS trial whose support numpy's own choice draws.
    """
    return partial(_MODELS[model_name(params)].sample, params)


def sample_instance(params, seed: int):
    """The instance drawn from generator(seed): chunk_sampler's run of one trial on it."""
    return chunk_sampler(params)(1, lambda _: generator(seed))


def instance_bytes(params) -> int:
    """Bytes of the arrays of one instance of the model, but for its planted indices (PSP path, GSS S, TPCA support)
    and GSS's one number Y."""
    return _MODELS[model_name(params)].instance_bytes(params)


# bounds on the run of consecutive trials that a CoupledTrials pass hands its lanes
EVAL_CHUNK = 256
EVAL_CHUNK_BYTES = 2**22


def trial_runs(n: int, trial_bytes: int) -> list[range]:
    """range(n) in consecutive runs of at most EVAL_CHUNK trials and EVAL_CHUNK_BYTES
    at trial_bytes a trial, but of at least one trial."""
    size = min(EVAL_CHUNK, max(1, EVAL_CHUNK_BYTES // trial_bytes))
    return [range(start, min(start + size, n)) for start in range(0, n, size)]


def signal_norm(params) -> float:
    """Exact E||signal||^2 for each model."""
    return _MODELS[model_name(params)].signal_norm(params)


def prior_mean_vector(params) -> np.ndarray:
    """Exact prior mean of the signal vector."""
    return _MODELS[model_name(params)].prior_mean(params)


def instance_to_json(inst) -> dict:
    """The JSON object of an instance, a run of one trial."""
    to_json = _MODELS[model_name(check_instance(inst).params)].to_json
    return {"params": params_to_json(inst.params), **to_json(inst.params, *(getattr(inst, f.name)[0] for f in fields(inst)[1:]))}


def instance_from_json(obj: dict):
    """Inverse of instance_to_json, a run of one trial: ParameterError, naming the key, unless obj
    holds a params object and exactly the fields of its model, each well formed."""
    if "params" not in obj:
        raise ParameterError(f"an instance needs the key 'params'; got keys {sorted(obj)}")
    check_json_types("instance", {"params": obj["params"]}, {"params": dict})
    params = params_from_json(obj["params"])
    name = model_name(params)
    keys = [f.name for f in fields(_MODELS[name].run)[1:]]
    given = set(obj) - {"params"}
    if given != set(keys):
        raise ParameterError(
            f"{name} instance needs fields {sorted(keys)}; "
            f"missing {sorted(set(keys) - given)}, unknown {sorted(given - set(keys))}"
        )
    return _MODELS[name].run(params, *(field[None] for field in _MODELS[name].from_json(params, obj)))


def path_edge_indices(n: int, L: int) -> np.ndarray:
    """Edge-vector indices of every length-L path from 1 to 2, shape (count, L), read-only: placements' cached table.

    count = (n-2)(n-3)...(n-L); rows run in placements order of the interior vertices.
    """
    count = math.perm(n - 2, L - 1)
    if count > PATH_BUDGET:
        raise ResourceBudgetError(f"{count} candidate paths exceed budget {PATH_BUDGET}")
    verts = (1, *range(3, L + 2), 2)
    return placements(tuple(zip(verts[:-1], verts[1:])), n)
