"""Symmetries of the models as checks on the fast kernels, with no oracle.

Relabeling what the model does not tell apart (PSP vertices 3..n, RLC rows
and columns, GSS coordinates, TPCA tensor indices) moves each posterior mean
the same way, and so does the shift x -> x + x0, y -> y + A x0 over GF(2) for
f2_round.  It leaves the length and the found flag of a shortest path from 1
to 2 alone (the path itself breaks ties by label), and the TPCA posterior's
distribution of overlaps with the support.  The RLC posterior, f2_round and
the shortest paths count whole numbers, so they must match exactly.  The
other kernels sum floats in an order the relabeling changes, so they match
to ULPS.  A PSP symmetric polynomial sums its terms over every placement of
vertices 3..n, so a relabeling leaves its value alone, to POLY_ULPS of the
sum of the absolute values it adds up.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from plantedlab.bayes import posterior_means, tpca_overlap_distribution
from plantedlab.lowdeg import random_psp_symmetric_poly
from plantedlab.models import GssParams, PspParams, RlcParams, TpcaParams, pair_ids, placements, vertex_pairs
from plantedlab.noise import CoupledTrials
from plantedlab.rng import generator
from plantedlab.solvers import shortest_paths
from plantedlab.stability import resolve_estimator

RHO = 0.3
ULPS = 8 * np.finfo(float).eps  # the float kernels' tolerance, absolute, on means of at most 1
SEEDS = st.integers(0, 2**32)
# numpy sums a row of at most 128 placements in 8 running sums, each within about 20 ulps of the row's
# absolute sum at n = 8 (360 placements at most, halved pairwise), and the two sides sum in different orders
POLY_ULPS = 64 * np.finfo(float).eps


def _coupled(params, seed: int, trials: int = 16):
    """The run record of trials 0..trials-1 at seed, and their noisy observation at RHO."""
    ((run, noisy),) = CoupledTrials(params, [(RHO, None)], seed, trials).map(lambda start, run, noisy: [(run, noisy)])
    return run, noisy


def _relabeled(edges: np.ndarray, n: int, labels) -> tuple[np.ndarray, np.ndarray]:
    """(moved, the edge vectors with vertices 3..n relabeled to labels): pair p of a graph is pair moved[p] of its relabeling."""
    relabel = np.array([0, 1, 2, *labels])
    rows, cols = np.array(vertex_pairs(n)).T
    moved = pair_ids(n)[relabel[rows], relabel[cols]]
    relabeled = np.empty_like(edges)
    relabeled[:, moved] = edges
    return moved, relabeled


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, labels=st.permutations(range(3, 9)))
def test_psp_posterior_moves_with_a_relabeling_of_vertices_3_to_n(seed, labels):
    params = PspParams(n=8, L=3, q=0.3)
    _, edges = _coupled(params, seed)
    moved, relabeled = _relabeled(edges, params.n, labels)
    got = posterior_means(params, relabeled, RHO)[:, moved]
    np.testing.assert_allclose(got, posterior_means(params, edges, RHO), rtol=0, atol=ULPS)


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, rows=st.permutations(range(12)), cols=st.permutations(range(8)))
def test_rlc_posterior_moves_with_a_permutation_of_rows_and_columns_exactly(seed, rows, cols):
    params = RlcParams(m=12, n=8)
    _, (A, y) = _coupled(params, seed)
    got = posterior_means(params, (A[:, rows][:, :, cols], y[:, rows]), RHO)
    np.testing.assert_array_equal(got, posterior_means(params, (A, y), RHO)[:, cols])


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, perm=st.permutations(range(16)))
def test_gss_posterior_moves_with_a_permutation_of_coordinates(seed, perm):
    params = GssParams(N=16, k=3)
    _, (X, Y) = _coupled(params, seed)
    got = posterior_means(params, (X[:, perm], Y), RHO)
    np.testing.assert_allclose(got, posterior_means(params, (X, Y), RHO)[:, perm], rtol=0, atol=ULPS)


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, perm=st.permutations(range(8)))
def test_tpca_posterior_moves_with_a_permutation_of_tensor_indices(seed, perm):
    params = TpcaParams(n=8, k=2, d=3, lam=4.0)
    _, Y = _coupled(params, seed)
    got = posterior_means(params, Y[:, perm][:, :, perm][:, :, :, perm], RHO)
    np.testing.assert_allclose(got, posterior_means(params, Y, RHO)[:, perm], rtol=0, atol=ULPS)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=SEEDS)
def test_f2_round_moves_with_permutations_and_a_shift_exactly(data, seed):
    # square and near-square codes give unique, affine and (noisy arm) inconsistent systems alike
    n = data.draw(st.integers(1, 7))
    params = RlcParams(m=data.draw(st.integers(n, n + 3)), n=n)
    run, (A_noisy, y_noisy) = _coupled(params, seed)
    A, y = np.concatenate([run.A, A_noisy]), np.concatenate([run.y, y_noisy])
    rows = data.draw(st.permutations(range(params.m)))
    cols = data.draw(st.permutations(range(n)))
    x0 = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.uint8)
    f2_round = resolve_estimator("f2_round", params, RHO)
    shifted = (y + A @ x0) % 2  # the solutions of (A, shifted) are those of (A, y) plus x0
    got = f2_round((A[:, rows][:, :, cols], shifted[:, rows]))
    base = f2_round((A, y))
    np.testing.assert_array_equal(got, np.where(x0 == 1, 1.0 - base, base)[:, cols])


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, q=st.sampled_from([0.1, 0.2, 0.4]), labels=st.permutations(range(3, 9)))
def test_shortest_path_length_and_found_flag_stay_under_a_relabeling_of_vertices_3_to_n_exactly(seed, q, labels):
    # the noisy arms of a sparse graph lose the planted path now and then, so both flags occur
    params = PspParams(n=8, L=3, q=q)
    run, noisy = _coupled(params, seed)
    edges = np.concatenate([run.edges, noisy])
    got = shortest_paths(_relabeled(edges, params.n, labels)[1], params.n)
    want = shortest_paths(edges, params.n)
    np.testing.assert_array_equal(got[:, 0] == 1, want[:, 0] == 1)
    np.testing.assert_array_equal((got > 0).sum(axis=1), (want > 0).sum(axis=1))


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, perm=st.permutations(range(8)))
def test_tpca_overlap_distribution_stays_under_a_permutation_of_tensor_indices(seed, perm):
    params = TpcaParams(n=8, k=2, d=3, lam=4.0)
    run, Y = _coupled(params, seed, trials=4)
    inverse = np.argsort(perm)  # index i of the permuted tensor is index perm[i] of Y
    for t, support in enumerate(run.support):
        got = tpca_overlap_distribution(Y[t][perm][:, perm][:, :, perm], inverse[support], params)
        want = tpca_overlap_distribution(Y[t], support, params)
        np.testing.assert_allclose(got, want, rtol=0, atol=ULPS)


def _absolute_sum(poly, edges: np.ndarray, params) -> np.ndarray:
    """Each graph's sum over the terms of |coefficient| times the sum over placements of |product of centered edges|."""
    centered = np.abs(edges - params.q) / math.sqrt(params.q * (1.0 - params.q))
    return sum(abs(c) * centered[:, placements(shape, params.n)].prod(axis=2).sum(axis=1) for shape, c in poly.terms)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, degree=st.integers(1, 2), poly_seed=SEEDS, labels=st.permutations(range(3, 9)))
def test_psp_symmetric_polynomials_stay_under_a_relabeling_of_vertices_3_to_n(seed, degree, poly_seed, labels):
    # random polynomials of degree <= 2 from PSP_SHAPE_LIBRARY, on the clean and noisy arms alike
    params = PspParams(n=8, L=3, q=0.3)
    poly = random_psp_symmetric_poly(params, degree, generator(poly_seed))
    run, noisy = _coupled(params, seed)
    edges = np.concatenate([run.edges, noisy])
    got = poly.evaluate_many(_relabeled(edges, params.n, labels)[1], params)
    want = poly.evaluate_many(edges, params)
    assert (np.abs(got - want) <= POLY_ULPS * _absolute_sum(poly, edges, params)).all()
