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
from .mc import mean_stderr, ratio_with_stderr
from .models import (
    GssParams,
    PspParams,
    RlcParams,
    check_finite,
    model_name,
    per_field,
    placements,
    stack_observations,
)
from .noise import CoupledTrials, check_rho
from .rng import generator

DIAGRAM_DEGREE_CAP = 10
# a DiagramSpec's R + DIAGRAM_PSD_TOL * I must have a Cholesky factor, so the least
# eigenvalue of R may fall about this far below 0 (the rounding of a singular
# correlation matrix); diagram_mc_oracle samples through that same factor
DIAGRAM_PSD_TOL = 1e-12
CHARACTER_ENUM_BUDGET = 2**24
# PspSymmetricPoly.evaluate_many gathers row blocks of at most this many float64s
PSP_GATHER_ELEMENTS = 2**16
# diagram_mc_oracle draws and evaluates its samples in blocks of rows whose (rows, k)
# normals take this many bytes (10,922 rows at k = 3), so that a block's normals,
# their correlated copy and the Hermite temporaries stay within a 2 MB L2 cache;
# blocks of 4,096 to 32,768 rows ran at the same speed
DIAGRAM_BLOCK_BYTES = 2**18


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
        if not (np.abs(R[~np.eye(k, dtype=bool)]) <= 1.0).all():  # false for nan and inf too
            raise ParameterError("R must have off-diagonal entries in [-1, 1]")
        try:
            np.linalg.cholesky(R + DIAGRAM_PSD_TOL * np.eye(k))
        except np.linalg.LinAlgError:
            least = np.linalg.eigvalsh(R)[0]
            raise ParameterError(f"R must be positive semidefinite; its least eigenvalue is {least:.6g}") from None
        if not all(isinstance(a, (int, np.integer)) and not isinstance(a, bool) for a in self.alpha):
            raise ParameterError(f"alpha entries must be integers, got {self.alpha!r}")
        if any(a < 0 for a in self.alpha):
            raise ParameterError("alpha entries must be nonnegative")
        R = R.copy()  # a read-only copy: no later write can undo the checks
        R.flags.writeable = False
        object.__setattr__(self, "R", R)
        if self.mu is not None:
            mu = np.asarray(self.mu, dtype=float)
            if mu.shape != (k,):
                raise ParameterError("mu must have one entry per variable")
            check_finite("mu", mu)
            object.__setattr__(self, "mu", mu)

    @property
    def total_degree(self) -> int:
        return int(sum(self.alpha))


def diagram_expectation(spec: DiagramSpec) -> float:
    """E[prod h_{alpha_i}(x_i)] over matchings of the degree multigraph.

    Unmatched vertices contribute their variable's mean, matched pairs the
    correlation of their two variables; the sum is normalized by sqrt(alpha!).
    """
    if spec.total_degree > DIAGRAM_DEGREE_CAP:
        raise ResourceBudgetError(f"total degree {spec.total_degree} exceeds cap {DIAGRAM_DEGREE_CAP}")
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
    """Monte-Carlo estimate of the same expectation from correlated Gaussians.

    Draws and evaluates the samples in blocks of rows (DIAGRAM_BLOCK_BYTES of
    normals each) from one generator, bit-identical to one (samples, k) draw, so
    its arrays are one block and the product, 8 bytes a sample (mean_stderr's
    standard deviation adds one more such array).  Raises ParameterError unless
    samples is a non-negative int; a bool is not one.
    """
    if not isinstance(samples, (int, np.integer)) or isinstance(samples, bool):
        raise ParameterError(f"samples must be an integer, got {samples!r}")
    if samples < 0:
        raise ParameterError(f"need samples >= 0, got {samples}")
    k = len(spec.alpha)
    rng = generator(seed)
    chol = np.linalg.cholesky(spec.R + DIAGRAM_PSD_TOL * np.eye(k))
    rows = DIAGRAM_BLOCK_BYTES // (8 * max(k, 1))
    vals = np.ones(samples)
    # numpy multiplies a one-row block through gemv, which rounds unlike the gemm of a
    # longer draw, so a last row left over joins the block before it
    bounds = [0, *range(rows, samples - 1, rows), samples]
    for start, stop in itertools.pairwise(bounds):
        block = vals[start:stop]
        Z = rng.standard_normal((block.size, k)) @ chol.T
        if spec.mu is not None:
            Z += spec.mu
        for i, a in enumerate(spec.alpha):
            if a > 0:
                block *= hermite_eval(a, Z[:, i])
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


def character_value(idx: CharacterIndex, A: np.ndarray, y: np.ndarray):
    """chi_{S,T}(A, y) in the +-1 convention; A and y may carry leading batch axes."""
    val = 1.0
    for i, j in idx.S:
        val = val * (2.0 * A[..., i, j] - 1.0)
    for i in idx.T:
        val = val * (2.0 * y[..., i] - 1.0)
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


def rlc_character_expectation(idx1: CharacterIndex, idx2: CharacterIndex, params: RlcParams, rho: float) -> float:
    """Exact E[chi_{S1,T1}(A, y) * chi_{S2,T2}(A, T_rho(y))], in closed form over the noise.

    A resampled coordinate of T2 gets a fresh bit that integrates to zero in
    the +-1 convention, so only masks avoiding T2 count, with total weight
    (1-rho)^|T2|.  The remaining product is chi_{S1 ^ S2}(A) chi_{T1 ^ T2}(y),
    summed as an integer over all (A, x): the result rounds once.
    CHARACTER_ENUM_BUDGET caps 2^(mn+n+m), the (A, x, resample mask)
    configurations the expectation ranges over.
    """
    check_rho(rho)
    m, n = params.m, params.n
    if 2 ** (m * n + n + m) > CHARACTER_ENUM_BUDGET:
        raise ResourceBudgetError(f"2^{m * n + n + m} configurations exceed budget {CHARACTER_ENUM_BUDGET}")
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


class _OneObservation:
    def evaluate(self, observation, params) -> float:
        """evaluate_many of the observation's batch of one row."""
        return float(self.evaluate_many(per_field(lambda a: np.asarray(a)[None], observation), params)[0])


def _check_poly_model(poly, params, kind) -> None:
    """ParameterError unless params are kind, the params of the polynomial's model: once a call, never per trial."""
    if not isinstance(params, kind):
        raise ParameterError(f"{type(poly).__name__} takes {kind.__name__}, got {type(params).__name__}")


def _check_term_indices(poly, what: str, indices, bound: int, params) -> None:
    """ParameterError unless each index the polynomial's terms read lies in 0..bound-1."""
    bad = sorted({i for i in indices if not 0 <= i < bound})
    if bad:
        raise ParameterError(f"{type(poly).__name__} terms read {what} {bad}, outside 0..{bound - 1} at {params}")


@dataclass(frozen=True)
class RlcPoly(_OneObservation):
    """Polynomial over (A, y) bits in the +-1 character basis."""

    terms: tuple  # ((CharacterIndex, coeff), ...)

    @property
    def degree(self) -> int:
        return max((idx.degree for idx, _ in self.terms), default=0)

    def evaluate_many(self, observations, params: RlcParams) -> np.ndarray:
        """evaluate at each (A, y) of a batch (models.stack_observations).

        Terms accumulate in order, as for one observation.  Raises ParameterError
        for another model's params and for a cell or coordinate outside m x n.
        """
        _check_poly_model(self, params, RlcParams)
        cells, coords = [c for idx, _ in self.terms for c in idx.S], [i for idx, _ in self.terms for i in idx.T]
        _check_term_indices(self, "rows", [i for i, _ in cells] + coords, params.m, params)
        _check_term_indices(self, "columns", [j for _, j in cells], params.n, params)
        A, y = stack_observations(params, observations)
        total = np.zeros(len(A))
        for idx, c in self.terms:
            total += c * character_value(idx, A, y)
        return total


@dataclass(frozen=True)
class GssPoly(_OneObservation):
    """Polynomial in the Hermite basis over (X, y) with y = Y / sqrt(k)."""

    terms: tuple  # (((coord, deg), ...) sorted, t, coeff)

    @property
    def degree(self) -> int:
        return max((sum(d for _, d in alpha) + t for alpha, t, _ in self.terms), default=0)

    def evaluate_many(self, observations, params: GssParams) -> np.ndarray:
        """evaluate at each (X, Y) of a batch (models.stack_observations).

        Every product and sum keeps the one-observation order.  Raises
        ParameterError for another model's params and for a coordinate outside 0..N-1.
        """
        _check_poly_model(self, params, GssParams)
        coords = [coord for alpha, _, _ in self.terms for coord, _ in alpha]
        _check_term_indices(self, "coordinates", coords, params.N, params)
        X, Y = stack_observations(params, observations)
        y = Y.astype(float) / math.sqrt(params.k)
        total = np.zeros(len(X))
        for alpha, t, c in self.terms:
            val = c * hermite_eval(t, y)  # h_0 = 1 exactly
            for coord, deg in alpha:
                val *= hermite_eval(deg, X[:, coord])
            total += val
        return total


# shapes: edges over vertex labels; 1 and 2 are the pinned endpoints, labels
# >= 3 are placeholders ranging over distinct non-special vertices
Shape = tuple


@lru_cache(maxsize=256)
def product_table(shape: Shape, n: int) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The distinct edge products of shape's placements at n: (factors, expand); read-only.

    factors holds one edge-vector column per shape edge, (edges, products),
    and a product multiplies its factors in edge order.  Two placements share
    a product only when their edge lists are equal up to a swap of the first
    two edges, since x * y == y * x exactly; any other reordering can round
    differently.  expand maps each placement, in placements order, to its
    product.  It is None when the placements are the products, which holds
    for a shape of fewer than two edges, and also when sharing saves too
    little to pay for the gather back to placement order.
    """
    maps = placements(shape, n)
    count, width = maps.shape
    keys, expand = maps, None
    if width >= 2 and count:
        swapped = maps.copy()
        swapped[:, :2].sort(axis=1)
        distinct, inverse = np.unique(swapped, axis=0, return_inverse=True)
        # sharing saves width gathers and width - 1 products per shared placement, and the gather
        # back to placement order costs about two of them per placement: at n = 10 a two-edge shape
        # with half as many products as placements ran no faster with the table, a three-edge one
        # with half 11% faster and ((3, 4), (5, 6)), one product in eight, 30% faster
        if (2 * width - 1) * (count - len(distinct)) > 2 * count:
            keys, expand = distinct, inverse.reshape(-1)
            expand.flags.writeable = False
    factors = np.ascontiguousarray(keys.T)
    factors.flags.writeable = False
    return factors, expand


@dataclass(frozen=True)
class PspSymmetricPoly(_OneObservation):
    """Vertex-permutation-invariant polynomial over centered edge indicators.

    Each term is a shape (edge list over placeholder vertices) summed over all
    injective placements into [n] - {1, 2}; chi_S(G) = prod (G_e - q)/sqrt(q(1-q)).
    """

    terms: tuple  # ((shape, coeff), ...)

    @property
    def degree(self) -> int:
        return max((len(shape) for shape, _ in self.terms), default=0)

    def evaluate_many(self, observations, params: PspParams) -> np.ndarray:
        """evaluate at each edge vector of a batch (models.stack_observations), bit-identical to one evaluation at a time.

        Trials go in blocks of rows whose placement columns hold at most
        PSP_GATHER_ELEMENTS floats.  Each distinct product of product_table is
        computed once per block: its edge columns are gathered with np.take
        into C-ordered rows and multiplied in edge order, and the products
        are gathered back to one column per placement.  So one sum along the
        block's rows sums each row pairwise, as a 1-D placement sum does; the
        strided rows of a fancy gather would sum in another order.  The shape
        () is one placement with the empty product 1; a shape with no
        placements adds 0.  Raises ParameterError for another model's params
        and unless 0 < q < 1.
        """
        _check_poly_model(self, params, PspParams)
        n, q = params.n, params.q
        if not 0.0 < q < 1.0:
            raise ParameterError(f"the centered edge basis needs 0 < q < 1, got q={q}")
        (present,) = stack_observations(params, observations)
        centered = (present.astype(float) - q) / math.sqrt(q * (1.0 - q))
        total = np.zeros(len(centered))
        for shape, c in self.terms:
            factors, expand = product_table(shape, n)
            step = max(1, PSP_GATHER_ELEMENTS // max(placements(shape, n).size, 1))
            sums = np.empty(len(centered))
            for start in range(0, len(centered), step):
                block = centered[start:start + step]
                prods = np.take(block, factors[0], axis=1) if len(factors) else np.ones((len(block), factors.shape[1]))
                for col in factors[1:]:
                    prods *= np.take(block, col, axis=1)
                if expand is not None:
                    prods = np.take(prods, expand, axis=1)
                sums[start:start + step] = prods.sum(axis=1)
            total += c * sums
        return total


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

    def chunk(start: int, run, noisy) -> list:
        v0 = poly.evaluate_many(run.observation, params).tolist()
        v1 = poly.evaluate_many(noisy, params).tolist()
        # Python float arithmetic, as one trial at a time: float ** 2 is libm's pow, which can
        # differ in the last bit from numpy's x * x
        return [((a - b) ** 2, a**2) for a, b in zip(v0, v1)]

    num, den = np.array(CoupledTrials(params, [(rho, None)], seed, trials).map(chunk)).T
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


def random_rlc_poly(params: RlcParams, degree: int, rng: np.random.Generator) -> RlcPoly:
    cells = [(i, j) for i in range(params.m) for j in range(params.n)]
    terms = []
    for _ in range(5):
        ds = int(rng.integers(0, degree + 1))
        dt = int(rng.integers(0, degree - ds + 1))
        S = [cells[i] for i in rng.choice(len(cells), size=ds, replace=False)] if ds else []
        T = list(rng.choice(params.m, size=dt, replace=False)) if dt else []
        terms.append((CharacterIndex.make(S, T), float(rng.standard_normal())))
    return RlcPoly(terms=tuple(terms))


def random_gss_poly(params: GssParams, degree: int, rng: np.random.Generator) -> GssPoly:
    terms = []
    for _ in range(5):
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


def random_psp_symmetric_poly(params: PspParams, degree: int, rng: np.random.Generator) -> PspSymmetricPoly:
    pool = [s for d in range(1, degree + 1) for s in PSP_SHAPE_LIBRARY.get(d, [])]
    picks = rng.choice(len(pool), size=min(3, len(pool)), replace=False)
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

