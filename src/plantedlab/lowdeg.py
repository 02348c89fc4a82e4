"""Hermite diagram formula, GF(2) characters, and low-degree stability ratios.

The diagram formula evaluates E[prod_i h_{a_i}(x_i)] for jointly Gaussian
unit-variance x_i as a sum over matchings of a multigraph: one vertex per
polynomial degree unit, edges only between vertices of distinct variables.
With zero means only perfect matchings contribute; nonzero means add one
factor mu per unmatched vertex and all partial matchings count.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import IllConditionedError, ParameterError, ResourceBudgetError
from .mc import mean_stderr, ratio_with_stderr, run_trials
from .models import (
    GssParams,
    PspParams,
    RlcParams,
    edge_vector_from_adjacency,
    model_name,
    pair_index,
    path_edges,
    sample_instance,
)
from .noise import check_rho, coupled_trial
from .rng import INSTANCE_STREAM, derive_seed, generator

DIAGRAM_DEGREE_CAP = 10
CHARACTER_ENUM_BUDGET = 2**24


# ---------------------------------------------------------------------------
# Hermite polynomials (orthonormal, probabilist's)


def hermite_eval(n: int, x):
    """h_n(x) = He_n(x) / sqrt(n!), by the three-term recurrence; vectorized."""
    if n < 0:
        raise ParameterError(f"need degree n >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return prev if prev.shape else float(prev)
    cur = x.copy()
    for deg in range(1, n):
        # h_{d+1} = (x h_d - sqrt(d) h_{d-1}) / sqrt(d+1)
        cur, prev = (x * cur - math.sqrt(deg) * prev) / math.sqrt(deg + 1), cur
    return cur if cur.shape else float(cur)


# ---------------------------------------------------------------------------
# diagram formula


@dataclass(frozen=True)
class DiagramSpec:
    alpha: tuple
    R: np.ndarray
    mu: Optional[np.ndarray] = None

    def __post_init__(self):
        k = len(self.alpha)
        R = np.asarray(self.R, dtype=float)
        if R.shape != (k, k) or not np.allclose(R, R.T):
            raise ParameterError("R must be a symmetric k x k matrix")
        if not np.allclose(np.diag(R), 1.0):
            raise ParameterError("R must have unit diagonal")
        if any(a < 0 for a in self.alpha):
            raise ParameterError("alpha entries must be nonnegative")
        object.__setattr__(self, "R", R)
        if self.mu is not None:
            mu = np.asarray(self.mu, dtype=float)
            if mu.shape != (k,):
                raise ParameterError("mu must have one entry per variable")
            object.__setattr__(self, "mu", mu)

    @property
    def total_degree(self) -> int:
        return int(sum(self.alpha))


def diagram_expectation(spec: DiagramSpec, *, cap: int = DIAGRAM_DEGREE_CAP) -> float:
    """E[prod h_{alpha_i}(x_i)] over matchings of the degree multigraph.

    Unmatched vertices contribute their variable's mean, matched pairs the
    correlation of their two variables; the sum is normalized by sqrt(alpha!).
    """
    if spec.total_degree > cap:
        raise ResourceBudgetError(f"total degree {spec.total_degree} exceeds cap {cap}")
    k = len(spec.alpha)
    mu = spec.mu if spec.mu is not None else np.zeros(k)
    R = spec.R

    @lru_cache(maxsize=None)
    def rec(counts: tuple) -> float:
        first = next((i for i, c in enumerate(counts) if c > 0), None)
        if first is None:
            return 1.0
        total = 0.0
        remaining = list(counts)
        remaining[first] -= 1
        if mu[first] != 0.0:
            total += mu[first] * rec(tuple(remaining))
        for j in range(k):
            if j != first and remaining[j] > 0:
                branch = list(remaining)
                branch[j] -= 1
                total += remaining[j] * R[first, j] * rec(tuple(branch))
        return total

    norm = math.sqrt(math.prod(math.factorial(a) for a in spec.alpha))
    return float(rec(tuple(int(a) for a in spec.alpha)) / norm)


def diagram_mc_oracle(spec: DiagramSpec, samples: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo estimate of the same expectation from correlated Gaussians."""
    rng = generator(seed)
    chol = np.linalg.cholesky(spec.R + 1e-12 * np.eye(len(spec.alpha)))
    Z = rng.standard_normal((samples, len(spec.alpha))) @ chol.T
    if spec.mu is not None:
        Z = Z + spec.mu
    vals = np.ones(samples)
    for i, a in enumerate(spec.alpha):
        if a > 0:
            vals = vals * hermite_eval(a, Z[:, i])
    return mean_stderr(vals)


# ---------------------------------------------------------------------------
# GF(2) characters of the linear-code model


@dataclass(frozen=True)
class CharacterIndex:
    S: frozenset  # matrix cells (i, j)
    T: frozenset  # codeword coordinates i

    @property
    def degree(self) -> int:
        return len(self.S) + len(self.T)

    @classmethod
    def make(cls, cells: Sequence[tuple[int, int]] = (), coords: Sequence[int] = ()) -> "CharacterIndex":
        return cls(S=frozenset((int(i), int(j)) for i, j in cells), T=frozenset(int(c) for c in coords))


def character_value(idx: CharacterIndex, A: np.ndarray, y: np.ndarray) -> float:
    val = 1.0
    for i, j in idx.S:
        val *= 2.0 * A[i, j] - 1.0
    for i in idx.T:
        val *= 2.0 * y[i] - 1.0
    return val


def enumerate_character_indices(params: RlcParams, max_degree: int) -> list[CharacterIndex]:
    cells = [(i, j) for i in range(params.m) for j in range(params.n)]
    out = []
    for ds in range(max_degree + 1):
        for S in itertools.combinations(cells, ds):
            for dt in range(max_degree - ds + 1):
                for T in itertools.combinations(range(params.m), dt):
                    out.append(CharacterIndex.make(S, T))
    return out


@lru_cache(maxsize=4)
def _character_sign_tables(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """+-1 int8 signs over all (A, x), read-only; A[i, j] is bit i*n+j of a, x_j bit j of x.

    a_signs[a, i, j] = 2 A[i, j] - 1 and y_signs[a, x, i] = 2 y_i - 1 for y = Ax mod 2.
    """
    a_bits = (np.arange(2 ** (m * n))[:, None] >> np.arange(m * n) & 1).astype(np.int8)
    a_bits = a_bits.reshape(-1, m, n)
    x_bits = (np.arange(2**n)[:, None] >> np.arange(n) & 1).astype(np.int8)
    y = np.einsum("aij,xj->axi", a_bits, x_bits) & 1
    a_signs, y_signs = 2 * a_bits - 1, 2 * y - 1
    a_signs.flags.writeable = False
    y_signs.flags.writeable = False
    return a_signs, y_signs


def rlc_character_expectation(
    idx1: CharacterIndex,
    idx2: CharacterIndex,
    params: RlcParams,
    rho: float,
    *,
    budget: int = CHARACTER_ENUM_BUDGET,
) -> float:
    """Exact E[chi_{S1,T1}(A, y) * chi_{S2,T2}(A, T_rho(y))], in closed form over the noise.

    A resampled coordinate of T2 gets a fresh bit that integrates to zero in
    the +-1 convention, so only masks avoiding T2 count, with total weight
    (1-rho)^|T2|.  The remaining product is chi_{S1 ^ S2}(A) chi_{T1 ^ T2}(y),
    summed as an integer over all (A, x): the result rounds once.  budget caps
    2^(mn+n+m), the (A, x, resample mask) configurations the expectation ranges over.
    """
    check_rho(rho)
    m, n = params.m, params.n
    if 2 ** (m * n + n + m) > budget:
        raise ResourceBudgetError(f"2^{m * n + n + m} configurations exceed budget {budget}")
    if 2 * max(idx1.degree, idx2.degree) > n:
        warnings.warn(
            "character orthogonality needs 2 * degree <= n; expect nonzero cross terms",
            stacklevel=2,
        )
    weight = (1.0 - rho) ** len(idx2.T)
    if weight == 0.0:
        return 0.0  # every mask hits T2 (and no -0.0 from a negative sum)
    a_signs, y_signs = _character_sign_tables(m, n)
    rows, cols = np.array(sorted(idx1.S ^ idx2.S), dtype=np.intp).reshape(-1, 2).T
    chi_a = a_signs[:, rows, cols].prod(axis=1)
    chi_y = y_signs[:, :, sorted(idx1.T ^ idx2.T)].prod(axis=2).sum(axis=1)
    return weight * int(chi_a @ chi_y) / 2 ** (m * n + n)


# ---------------------------------------------------------------------------
# polynomial specifications


@dataclass(frozen=True)
class RlcPoly:
    """Polynomial over (A, y) bits in the +-1 character basis."""

    terms: tuple  # ((CharacterIndex, coeff), ...)

    @property
    def degree(self) -> int:
        return max((idx.degree for idx, _ in self.terms), default=0)

    def evaluate(self, observation, params: RlcParams) -> float:
        A, y = observation
        return sum(c * character_value(idx, A, y) for idx, c in self.terms)

    def to_json(self) -> list:
        return [
            {"S": sorted(map(list, idx.S)), "T": sorted(idx.T), "coeff": c}
            for idx, c in self.terms
        ]

    @classmethod
    def from_json(cls, items: list) -> "RlcPoly":
        return cls(
            terms=tuple(
                (CharacterIndex.make([tuple(e) for e in item["S"]], item["T"]), float(item["coeff"]))
                for item in items
            )
        )


@dataclass(frozen=True)
class GssPoly:
    """Polynomial in the Hermite basis over (X, y) with y = Y / sqrt(k)."""

    terms: tuple  # (((coord, deg), ...) sorted, t, coeff)

    @property
    def degree(self) -> int:
        return max((sum(d for _, d in alpha) + t for alpha, t, _ in self.terms), default=0)

    def evaluate(self, observation, params: GssParams) -> float:
        X, Y = observation
        y = Y / math.sqrt(params.k)
        total = 0.0
        for alpha, t, c in self.terms:
            val = c * (hermite_eval(t, y) if t else 1.0)
            for coord, deg in alpha:
                val *= hermite_eval(deg, X[coord])
            total += val
        return total

    def to_json(self) -> list:
        return [
            {"alpha": sorted(map(list, alpha)), "t": t, "coeff": c} for alpha, t, c in self.terms
        ]

    @classmethod
    def from_json(cls, items: list) -> "GssPoly":
        return cls(
            terms=tuple(
                (tuple((int(i), int(d)) for i, d in item["alpha"]), int(item["t"]), float(item["coeff"]))
                for item in items
            )
        )


# shapes: edges over vertex labels; 1 and 2 are the pinned endpoints, labels
# >= 3 are placeholders ranging over distinct non-special vertices
Shape = tuple


@lru_cache(maxsize=256)
def _shape_maps(shape: Shape, n: int) -> np.ndarray:
    """Edge-vector index array, one row per injective placeholder assignment."""
    placeholders = sorted({v for e in shape for v in e if v >= 3})
    idx = pair_index(n)
    rows = []
    for assign in itertools.permutations(range(3, n + 1), len(placeholders)):
        table = {1: 1, 2: 2, **dict(zip(placeholders, assign))}
        rows.append([idx[tuple(sorted((table[a], table[b])))] for a, b in shape])
    return np.array(rows, dtype=np.int64)


@dataclass(frozen=True)
class PspSymmetricPoly:
    """Vertex-permutation-invariant polynomial over centered edge indicators.

    Each term is a shape (edge list over placeholder vertices) summed over all
    injective placements into [n] - {1, 2}; chi_S(G) = prod (G_e - q)/sqrt(q(1-q)).
    """

    terms: tuple  # ((shape, coeff), ...)

    @property
    def degree(self) -> int:
        return max((len(shape) for shape, _ in self.terms), default=0)

    def evaluate(self, adjacency: np.ndarray, params: PspParams) -> float:
        n, q = params.n, params.q
        present = edge_vector_from_adjacency(adjacency).astype(float)
        centered = (present - q) / math.sqrt(q * (1.0 - q))
        total = 0.0
        for shape, c in self.terms:
            maps = _shape_maps(shape, n)
            total += c * float(centered[maps].prod(axis=1).sum())
        return total

    def to_json(self) -> list:
        return [{"shape": sorted(map(list, shape)), "coeff": c} for shape, c in self.terms]

    @classmethod
    def from_json(cls, items: list) -> "PspSymmetricPoly":
        return cls(
            terms=tuple(
                (tuple(tuple(e) for e in item["shape"]), float(item["coeff"])) for item in items
            )
        )


# ---------------------------------------------------------------------------
# measured stability of polynomials


@dataclass(frozen=True)
class StabilityRatio:
    ratio: float
    stderr: float
    num_mean: float
    den_mean: float


def _degree_regime_warning(poly, params) -> None:
    family = POLY_FAMILIES.get(model_name(params))
    message = family.regime(poly.degree, params) if family else None
    if message:
        warnings.warn(message, stacklevel=3)


def stability_ratio(
    poly,
    params,
    rho: float,
    trials: int,
    seed: int,
) -> StabilityRatio:
    """MC estimate of E[(f(obs) - f(T_rho obs))^2] / E[f(obs)^2], planted measure.

    The same noise realization couples the two arms of every trial.
    """
    _degree_regime_warning(poly, params)

    def trial(t: int) -> tuple[float, float]:
        inst, noisy = coupled_trial(params, rho, seed, t)
        v0 = poly.evaluate(inst.observation, params)
        v1 = poly.evaluate(noisy, params)
        return ((v0 - v1) ** 2, v0**2)

    results = run_trials(trials, trial)
    num = np.array([r[0] for r in results])
    den = np.array([r[1] for r in results])
    den_mean, den_se = mean_stderr(den)
    if den_mean <= 10 * den_se:
        raise IllConditionedError(
            f"E[f^2] = {den_mean:.3g} indistinguishable from zero (stderr {den_se:.3g})"
        )
    ratio, stderr = ratio_with_stderr(num, den)
    return StabilityRatio(ratio=ratio, stderr=stderr, num_mean=float(num.mean()), den_mean=den_mean)


def rlc_stability_bound(degree: int, rho: float) -> float:
    return 2.0 * (1.0 - (1.0 - rho) ** degree)


def gss_stability_bound(degree: int, rho: float) -> float:
    return 2.0 * (1.0 - (1.0 - rho * rho) ** (degree / 2.0))


# edge indicators under Bernoulli resampling obey the same bound as code bits
psp_stability_bound = rlc_stability_bound


# ---------------------------------------------------------------------------
# random polynomial ensembles (for stability experiments)


def random_rlc_poly(params: RlcParams, degree: int, rng: np.random.Generator, n_terms: int = 5) -> RlcPoly:
    cells = [(i, j) for i in range(params.m) for j in range(params.n)]
    terms = []
    for _ in range(n_terms):
        ds = int(rng.integers(0, degree + 1))
        dt = int(rng.integers(0, degree - ds + 1))
        S = [cells[i] for i in rng.choice(len(cells), size=ds, replace=False)] if ds else []
        T = list(rng.choice(params.m, size=dt, replace=False)) if dt else []
        terms.append((CharacterIndex.make(S, T), float(rng.standard_normal())))
    return RlcPoly(terms=tuple(terms))


def random_gss_poly(params: GssParams, degree: int, rng: np.random.Generator, n_terms: int = 5) -> GssPoly:
    terms = []
    for _ in range(n_terms):
        dx = int(rng.integers(0, degree + 1))
        t = int(rng.integers(0, degree - dx + 1))
        alpha = []
        remaining = dx
        coords = list(rng.choice(params.N, size=min(dx, params.N), replace=False))
        for coord in coords:
            if remaining == 0:
                break
            d = int(rng.integers(1, remaining + 1))
            alpha.append((int(coord), d))
            remaining -= d
        terms.append((tuple(sorted(alpha)), t, float(rng.standard_normal())))
    return GssPoly(terms=tuple(terms))


PSP_SHAPE_LIBRARY: dict[int, list[Shape]] = {
    1: [((1, 3),), ((2, 3),), ((3, 4),), ((1, 2),)],
    2: [
        ((1, 3), (3, 4)),
        ((1, 3), (2, 3)),
        ((3, 4), (4, 5)),
        ((1, 3), (2, 4)),
        ((3, 4), (5, 6)),
        ((1, 3), (1, 4)),
    ],
}


def random_psp_symmetric_poly(
    params: PspParams, degree: int, rng: np.random.Generator, n_terms: int = 3
) -> PspSymmetricPoly:
    pool = [s for d in range(1, degree + 1) for s in PSP_SHAPE_LIBRARY.get(d, [])]
    picks = rng.choice(len(pool), size=min(n_terms, len(pool)), replace=False)
    terms = tuple((pool[int(i)], float(rng.standard_normal())) for i in picks)
    return PspSymmetricPoly(terms=terms)


class PolyFamily(NamedTuple):
    make: Callable  # (params, degree, rng) -> random polynomial
    bound: Callable  # (degree, rho) -> stability bound
    regime: Callable  # (degree, params) -> warning when outside the bound's regime, else None


# make calls through the module globals, so a rebinding of random_*_poly
# (perfbench/tracing.py does this) is seen
POLY_FAMILIES = {
    "rlc": PolyFamily(
        lambda *a: random_rlc_poly(*a),
        rlc_stability_bound,
        lambda D, p: f"degree {D} outside the 2D <= n validity regime at n={p.n}" if 2 * D > p.n else None,
    ),
    "gss": PolyFamily(
        lambda *a: random_gss_poly(*a),
        gss_stability_bound,
        lambda D, p: f"degree {D} is large for k={p.k}, N={p.N}" if D**4 > p.k or D**5 > p.N / p.k else None,
    ),
    "psp": PolyFamily(
        lambda *a: random_psp_symmetric_poly(*a),
        psp_stability_bound,
        lambda D, p: f"degree {D} outside the 2D < L validity regime at L={p.L}" if 2 * D >= p.L else None,
    ),
}


# ---------------------------------------------------------------------------
# symmetrization check


@dataclass(frozen=True)
class SymmetrizeReport:
    mse_raw: float
    stderr_raw: float
    mse_symmetrized: float
    stderr_symmetrized: float


def symmetrize_check(
    g: Callable[[np.ndarray], float],
    target_pair: tuple[int, int],
    params: PspParams,
    trials: int,
    seed: int,
    *,
    n_perms: int = 2000,
) -> SymmetrizeReport:
    """Compare the MSE of g with that of its average over vertex relabelings.

    The symmetrized estimator averages g over n_perms sampled permutations of
    the non-endpoint vertices (endpoints 1 and 2 stay fixed); its own MC error
    is folded into the reported stderr.  Targets the indicator that
    target_pair is a planted-path edge.
    """
    n = params.n
    rng = generator(derive_seed(seed, 7))
    perms = np.empty((n_perms, n + 1), dtype=np.int64)
    perms[:, 0] = 0
    perms[:, 1] = 1
    perms[:, 2] = 2
    for r in range(n_perms):
        perms[r, 3:] = rng.permutation(np.arange(3, n + 1))
    tp = (min(target_pair), max(target_pair))

    raw = np.empty(trials)
    sym = np.empty(trials)
    for t in range(trials):
        inst = sample_instance(params, derive_seed(seed, INSTANCE_STREAM, t))
        truth = float(tp in path_edges(inst.path))
        adj = inst.adjacency
        raw[t] = (g(adj) - truth) ** 2
        acc = 0.0
        for r in range(n_perms):
            p = perms[r]
            acc += g(adj[np.ix_(p, p)])
        sym[t] = (acc / n_perms - truth) ** 2
    return SymmetrizeReport(*mean_stderr(raw), *mean_stderr(sym))
