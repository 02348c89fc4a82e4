"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Criterion 4 is implemented faithfully and expected
to fail; see the test docstring and the repository notes for the analysis.
"""

import itertools
import math
import time
import warnings

import numpy as np
import pytest

from plantedlab.bayes import (
    estimate_mmse_curve,
    posterior_mean_for,
    tpca_overlap_distribution,
)
from plantedlab.counting import count_approx_paths, expected_count, sample_null_graph
from plantedlab.lowdeg import (
    DiagramSpec,
    diagram_expectation,
    diagram_mc_oracle,
    enumerate_character_indices,
    gss_stability_bound,
    psp_stability_bound,
    random_gss_poly,
    random_psp_symmetric_poly,
    random_rlc_poly,
    rlc_character_expectation,
    rlc_stability_bound,
    stability_ratio,
)
from plantedlab.models import (
    GssParams,
    PspParams,
    RlcParams,
    TpcaParams,
    sample_instance,
)
from plantedlab.noise import noise_instance_observation
from plantedlab.rng import derive_seed, generator
from plantedlab.solvers import (
    exhaustive_subset_sum,
    f2_solve,
    LllConfig,
    lll_subset_sum,
    shortest_path,
)
from plantedlab.stability import measure_stabilities, verify_barrier

from oracles import all_simple_paths, f2_solution_set, psp_edge_vector_loop


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------


def test_criterion_01_barrier_inequality_grid():
    """Barrier check holds on >= 12 (model, estimator, rho) cells, >= 2000 trials."""
    t0 = time.time()
    trials = 2000
    grid = [
        (PspParams(n=10, L=3, q=0.3), ["posterior_mean", "shortest_path_indicator", "constant_prior_mean"], [0.25, 0.5]),
        (RlcParams(m=14, n=10), ["posterior_mean", "f2_round", "constant_prior_mean"], [0.3, 0.7]),
        (GssParams(N=16, k=3), ["posterior_mean", "constant_prior_mean"], [0.3, 0.6]),
        (TpcaParams(n=10, k=2, d=3, lam=8.0), ["posterior_mean", "constant_prior_mean"], [0.4]),
    ]
    cells = 0
    failures = []
    for params, estimators, rhos in grid:
        for rho in rhos:
            (mmse,) = estimate_mmse_curve(params, [rho], trials, seed=101)
            for stab in measure_stabilities(estimators, params, rho, trials, seed=202):
                check = verify_barrier(stab, mmse)
                cells += 1
                if not check.holds:
                    failures.append((type(params).__name__, stab.estimator, rho, check.margin, check.combined_stderr))
    elapsed = time.time() - t0
    ok = cells >= 12 and not failures and elapsed <= 600
    report(1, ok, f"{cells} cells, 0 violations, {elapsed:.0f}s" if ok else f"failures={failures}, {elapsed:.0f}s")
    assert cells >= 12
    assert not failures, failures
    assert elapsed <= 600


def test_criterion_02_rlc_endpoints_exact():
    """RLC: mmse == n/4 exactly at rho=1; exactly 0 at rho=0 on full-rank draws."""
    params = RlcParams(m=12, n=10)
    reports = estimate_mmse_curve(params, [0.0, 1.0], trials=200, seed=17, full_rank_only=True)
    at0, at1 = reports
    ok = (
        at0.mmse_hat == 0.0
        and at0.stderr == 0.0
        and at1.mmse_hat == params.n / 4
        and at1.stderr == 0.0
    )
    report(2, ok, f"rho=0 -> {at0.mmse_hat}, rho=1 -> {at1.mmse_hat} (= n/4 = {params.n / 4})")
    assert ok


def test_criterion_03_gss_endpoints_exact():
    """GSS: marginals k/N and error k(1-k/N) exactly at rho=1; 200/200 exact recovery at rho=0."""
    params = GssParams(N=16, k=3)
    exact_marginal = params.k / params.N
    expected_err = params.k * (1 - params.k / params.N)
    for t in range(50):
        inst = sample_instance(params, seed=derive_seed(23, 0, t))
        y1 = noise_instance_observation(inst, 1.0, derive_seed(23, 1, t))[1]
        pm = posterior_mean_for(params, (inst.X, y1), 1.0)
        assert np.all(pm == exact_marginal)
        diff = pm - inst.signal_vector()
        assert float(diff @ diff) == expected_err
    recovered = 0
    for t in range(200):
        inst = sample_instance(params, seed=derive_seed(29, 0, t))
        pm = posterior_mean_for(params, (inst.X, inst.Y), 0.0)
        recovered += bool(np.array_equal(pm, inst.signal_vector()))
    report(3, recovered == 200, f"rho=1 exact, rho=0 recovery {recovered}/200")
    assert recovered == 200


@pytest.mark.xfail(
    strict=True,
    reason="exactly false at m=3, n=2: codeword bits are Bern((1-2^-n)/2), not "
    "uniform, so cross terms with T1 != T2 are order 2^-n instead of 0; see "
    "test_criterion_04_finite_size_identities for the statements that do hold",
)
def test_criterion_04_rlc_fourier_orthogonality_noise_identity():
    """Literal check: E[chi * chi' o T_rho] = 1{equal} (1-rho)^|T| over all
    degree <= 2 index pairs at m=3, n=2 -- unattainable at this size."""
    t0 = time.time()
    params = RlcParams(m=3, n=2)
    indices = enumerate_character_indices(params, max_degree=2)
    worst = (0.0, None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for rho in (0.0, 0.25, 0.5, 1.0):
            for i1 in indices:
                for i2 in indices:
                    val = rlc_character_expectation(i1, i2, params, rho)
                    target = (1 - rho) ** len(i1.T) if (i1.S, i1.T) == (i2.S, i2.T) else 0.0
                    err = abs(val - target)
                    if err > worst[0]:
                        worst = (err, (sorted(i1.S), sorted(i1.T), sorted(i2.S), sorted(i2.T), rho))
    elapsed = time.time() - t0
    ok = worst[0] <= 1e-9 and elapsed <= 60
    report(4, ok, f"worst deviation {worst[0]:.3f} at {worst[1]} ({elapsed:.0f}s)")
    assert worst[0] <= 1e-9
    assert elapsed <= 60


def test_criterion_04_finite_size_identities():
    """The finite-size-true parts of the identity, at the stated tolerance:
    diagonal pairs equal (1-rho)^|T| and pairs with matching codeword parts
    are exactly orthogonal."""
    t0 = time.time()
    params = RlcParams(m=3, n=2)
    indices = enumerate_character_indices(params, max_degree=2)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for rho in (0.0, 0.25, 0.5, 1.0):
            for i1 in indices:
                val = rlc_character_expectation(i1, i1, params, rho)
                worst = max(worst, abs(val - (1 - rho) ** len(i1.T)))
            for i1, i2 in itertools.combinations(indices, 2):
                if i1.T != i2.T:
                    continue
                val = rlc_character_expectation(i1, i2, params, rho)
                worst = max(worst, abs(val))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed <= 60
    report(4, ok, f"finite-size identities: worst deviation {worst:.2e} ({elapsed:.0f}s)")
    assert worst <= 1e-9
    assert elapsed <= 60


def test_criterion_05_hermite_diagram_formula():
    """Exact closed forms, plus 10 random specs against a 1e6-sample MC oracle."""
    t0 = time.time()
    # delta_ab r^a for a, b <= 4, exact at dyadic correlations
    for r in (0.5, -0.25):
        R = np.array([[1.0, r], [r, 1.0]])
        for a in range(5):
            for b in range(5):
                val = diagram_expectation(DiagramSpec((a, b), R))
                assert val == (r**a if a == b else 0.0), (a, b, r, val)
    # odd total degree vanishes exactly
    for alpha in ((1,), (3,), (1, 2), (2, 2, 1)):
        k = len(alpha)
        R = np.eye(k)
        if k > 1:
            R[0, 1] = R[1, 0] = 0.5
        assert diagram_expectation(DiagramSpec(alpha, R)) == 0.0
    # mean-only cases: no correlations, products of means survive exactly
    assert diagram_expectation(DiagramSpec((1,), np.eye(1), np.array([0.75]))) == 0.75
    assert diagram_expectation(DiagramSpec((1, 1), np.eye(2), np.array([0.5, 0.25]))) == 0.125
    # random specs vs Monte-Carlo oracle
    rng = generator(3131)
    deviations = []
    for i in range(10):
        k = int(rng.integers(2, 4))
        G = rng.standard_normal((k, k + 1))
        cov = G @ G.T
        dd = np.sqrt(np.diag(cov))
        R = cov / np.outer(dd, dd)
        while True:
            alpha = tuple(int(a) for a in rng.integers(0, 4, size=k))
            if 0 < sum(alpha) <= 6:
                break
        mu = rng.standard_normal(k) * 0.5 if i % 2 else None
        spec = DiagramSpec(alpha, R, mu)
        exact = diagram_expectation(spec)
        mc, se = diagram_mc_oracle(spec, samples=10**6, seed=derive_seed(37, 0, i))
        z = abs(mc - exact) / max(se, 1e-12)
        deviations.append(z)
        assert z <= 4.0, (alpha, exact, mc, se)
    elapsed = time.time() - t0
    ok = elapsed <= 120
    report(5, ok, f"exact checks pass, max MC z = {max(deviations):.2f} ({elapsed:.0f}s)")
    assert elapsed <= 120


def test_criterion_06_path_count_first_moment():
    """MC mean of the approximate-path census matches the closed form, 3 sigma."""
    t0 = time.time()
    settings = [(12, 3, 1, 0.25), (10, 3, 2, 0.3), (12, 4, 1, 0.2)]
    zs = []
    for n, m, eps_m, q in settings:
        graphs = 10**4
        counts = np.empty(graphs)
        for t in range(graphs):
            edges = sample_null_graph(n, q, derive_seed(41, n + m, t))
            counts[t] = count_approx_paths(edges, n, m, eps_m)
        target = expected_count(n, m, eps_m, q)
        se = counts.std(ddof=1) / math.sqrt(graphs)
        z = abs(counts.mean() - target) / se
        zs.append(z)
        assert z <= 3.0, (n, m, eps_m, q, counts.mean(), target, z)
    elapsed = time.time() - t0
    ok = elapsed <= 120
    report(6, ok, f"three settings, max |z| = {max(zs):.2f} ({elapsed:.0f}s)")
    assert elapsed <= 120


def test_criterion_07_solver_correctness():
    """f2_solve and shortest_path match exhaustive search; lattice subset sum
    matches the exhaustive C(20, 3) oracle on >= 95/100 seeded trials."""
    rng = generator(4242)
    # GF(2): full solution-set equality against brute enumeration
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        A = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
        y = rng.integers(0, 2, size=m, dtype=np.uint8)
        sol = f2_solve(A, y)
        brute = {
            tuple(x)
            for x in itertools.product((0, 1), repeat=n)
            if np.array_equal((A @ np.array(x)) % 2, y)
        }
        got = {tuple(v) for v in f2_solution_set(sol)}
        assert got == brute
        if brute:
            assert sol.kind == ("unique" if len(brute) == 1 else "affine")
        else:
            assert sol.kind == "inconsistent"
    # shortest path vs exhaustive enumeration
    for _ in range(300):
        n = int(rng.integers(3, 11))
        adj = np.zeros((n + 1, n + 1), dtype=bool)
        p = float(rng.random() * 0.6)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if rng.random() < p:
                    adj[i, j] = adj[j, i] = True
        got = shortest_path(psp_edge_vector_loop(adj, n), n)
        everything = all_simple_paths(adj)
        if not everything:
            assert got is None
        else:
            best = min(len(q) for q in everything)
            assert got == sorted(q for q in everything if len(q) == best)[0]
    # lattice subset-sum recovery against the exhaustive oracle
    params = GssParams(N=20, k=3)
    cfg = LllConfig(bits=128)
    agree = 0
    for t in range(100):
        inst = sample_instance(params, seed=derive_seed(47, 0, t))
        got = lll_subset_sum(inst.X, inst.Y, params.k, cfg)
        oracle, _ = exhaustive_subset_sum(inst.X, inst.Y, params.k)
        agree += got == oracle
    report(7, agree >= 95, f"gf2 1000/1000, paths 300/300, lattice {agree}/100")
    assert agree >= 95


def test_criterion_08_monotonicity_and_window():
    """NMMSE curves nondecreasing (3 sigma at adjacent points) for all models;
    the tensor model's top overlap mass crosses 1/2 across the window."""
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    trials = 400
    problems = []
    for params in (
        PspParams(n=9, L=3, q=0.3),
        RlcParams(m=12, n=8),
        GssParams(N=14, k=3),
        TpcaParams(n=10, k=2, d=3, lam=8.0),
    ):
        reports = estimate_mmse_curve(params, grid, trials, seed=53)
        for a, b in zip(reports[:-1], reports[1:]):
            se = math.sqrt(a.stderr**2 + b.stderr**2) / a.signal_norm
            if b.nmmse_hat < a.nmmse_hat - 3 * se:
                problems.append((type(params).__name__, a.rho, b.rho, a.nmmse_hat, b.nmmse_hat))
    n, k, d = 12, 2, 3
    log_classes = math.log(math.comb(n - k, k))
    above = {}
    for mult in (4.0, 0.5):
        lam = mult * log_classes
        params = TpcaParams(n=n, k=k, d=d, lam=lam)
        wins = 0
        for t in range(100):
            inst = sample_instance(params, derive_seed(59, 0, t))
            p = tpca_overlap_distribution(inst.Y, inst.support, params)
            wins += p[k] > 0.5
        above[mult] = wins
    window_ok = above[4.0] > 50 and above[0.5] < 50
    ok = not problems and window_ok
    report(8, ok, f"monotone on 4 models, window {above[4.0]}/100 high vs {above[0.5]}/100 low")
    assert not problems, problems
    assert window_ok, above


def test_criterion_09_lowdeg_stability_bounds():
    """20 random degree-2 polynomials per model never beat the stability bound."""
    rho = 0.3
    degree = 2
    excesses = {}
    rng = generator(61)
    params = RlcParams(m=12, n=8)
    worst = -math.inf
    for p in range(20):
        poly = random_rlc_poly(params, degree, rng)
        r = stability_ratio(poly, params, rho, trials=1500, seed=derive_seed(67, 0, p))
        worst = max(worst, r.ratio - rlc_stability_bound(poly.degree, rho) - 3 * r.stderr)
    excesses["rlc"] = worst
    assert worst <= 0.0, f"rlc excess {worst}"

    gparams = GssParams(N=20, k=3)
    worst = -math.inf
    for p in range(20):
        poly = random_gss_poly(gparams, degree, rng)
        r = stability_ratio(poly, gparams, rho, trials=4000, seed=derive_seed(71, 0, p))
        worst = max(worst, r.ratio - gss_stability_bound(poly.degree, rho) - 3 * r.stderr - 0.05)
    excesses["gss"] = worst
    assert worst <= 0.0, f"gss excess {worst}"

    pparams = PspParams(n=10, L=3, q=0.3)
    worst = -math.inf
    for p in range(20):
        poly = random_psp_symmetric_poly(pparams, degree, rng)
        r = stability_ratio(poly, pparams, rho, trials=2000, seed=derive_seed(73, 0, p))
        worst = max(worst, r.ratio - psp_stability_bound(poly.degree, rho) - 3 * r.stderr - 0.1)
    excesses["psp"] = worst
    ok = all(v <= 0 for v in excesses.values())
    report(9, ok, "worst slack-adjusted excess: " + ", ".join(f"{k}={v:.3f}" for k, v in excesses.items()))
    assert worst <= 0.0, f"psp excess {worst}"


def test_criterion_10_cli_determinism(tmp_path):
    """Every command, deterministic mode: byte-identical across two runs and
    across thread counts 1 and 4."""
    from plantedlab.cli import main

    cases = {
        "mmse-curve": [
            "--model", "gss", "--params", '{"N":12,"k":2}', "--rho-grid", "0.25,0.75",
            "--trials", "30", "--seed", "5",
        ],
        "stability": [
            "--model", "rlc", "--params", '{"m":8,"n":5}', "--rho-grid", "0.5",
            "--trials", "30", "--seed", "5", "--estimators", "posterior_mean,f2_round",
        ],
        "barrier": [
            "--model", "gss", "--params", '{"N":10,"k":2}', "--rho-grid", "0.4",
            "--trials", "40", "--seed", "5", "--estimators", "posterior_mean",
        ],
        "solve": [
            "--model", "rlc", "--params", '{"m":9,"n":5}', "--trials", "25", "--seed", "5",
        ],
        "count-paths": [
            "--options", '{"n":9,"m":3,"eps_m":1,"q":0.3,"graphs":150}', "--seed", "5",
        ],
        "hermite-check": [
            "--seed", "5", "--options", '{"n_specs":2,"samples":20000}',
        ],
        "lowdeg-stability": [
            "--model", "rlc", "--params", '{"m":8,"n":6}', "--rho-grid", "0.3",
            "--trials", "400", "--seed", "5", "--options", '{"degree":2,"n_polys":2}',
        ],
        "pca-window": [
            "--model", "tpca", "--params", '{"n":8,"k":2,"d":3,"lambda":1.0}',
            "--trials", "20", "--seed", "5", "--options", '{"lambdas":[2.0]}',
        ],
    }
    for command, args in cases.items():
        blobs = []
        for tag, threads in (("r1", "1"), ("r2", "1"), ("r3", "4")):
            out = tmp_path / f"{command}-{tag}"
            code = main([command, *args, "--deterministic", "--threads", threads, "--out", str(out)])
            assert code == 0, command
            with open(out.with_suffix(".csv"), "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1] == blobs[2], f"{command} output not reproducible"
    report(10, True, f"{len(cases)} commands byte-identical across runs and thread counts")
