"""The benchmark's workloads: the fixed experiment sequence of one pass.

A pass is a closed loop with one client: each experiment starts when the
previous one returns.  Experiments are CLI invocations (``plantedlab.cli.main``)
except on ``exact``, whose character-table blocks call
``plantedlab.lowdeg.rlc_character_expectation`` directly because no CLI
command exposes it.  The workload seed reaches the program only as ``--seed``,
and two ``lowdeg`` cells ignore it (see LOWDEG_CELLS).

Every experiment carries the work it does, counted from its parameters:
``trials`` (coupled Monte-Carlo trials, or sampled instances where a command
has no coupled trials) and ``evals`` (the workload's expensive unit: posterior
enumerations on the barrier mixes, polynomial evaluations on ``lowdeg``, exact
evaluations on ``exact``).
"""

from __future__ import annotations

import json

WORKLOADS = ("barrier", "lowdeg", "exact", "barrier-t2")
THREADS = {"barrier": 1, "lowdeg": 1, "exact": 1, "barrier-t2": 2}
DEFAULT_SEED = 7
# barrier-t2 runs barrier's experiments, and its outputs must not depend on threads
REFERENCE_KEY = {"barrier": "barrier", "lowdeg": "lowdeg", "exact": "exact", "barrier-t2": "barrier"}

# A run repeats passes until --seconds have gone by, but makes at least 11, so
# that the slowest experiment alone has the 11 samples the tail rule needs.
MIN_PASSES = 11

# criterion-01 barrier cells: (model, params, estimators, rho values)
BARRIER_CELLS = (
    ("psp", {"n": 10, "L": 3, "q": 0.3}, ("posterior_mean", "shortest_path_indicator", "constant_prior_mean"), (0.25, 0.5)),
    ("rlc", {"m": 14, "n": 10}, ("posterior_mean", "f2_round", "constant_prior_mean"), (0.3, 0.7)),
    ("gss", {"N": 16, "k": 3}, ("posterior_mean", "constant_prior_mean"), (0.3, 0.6)),
    ("tpca", {"n": 10, "k": 2, "d": 3, "lambda": 8.0}, ("posterior_mean", "constant_prior_mean"), (0.4,)),
)
MMSE_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
MMSE_TRIALS = 60
BARRIER_TRIALS = 45

# criterion-09 grid: (model, params, trials per polynomial, polynomials, seeded).
# stability_ratio raises IllConditionedError when E[f^2] lies within 10
# standard errors of zero.  Random GSS and PSP polynomials are heavy-tailed:
# one of 200 GSS polynomials sat at 3.7 standard errors after 1000 trials, so
# it needs ~7500 trials to clear the guard, and PSP needs ~3600.  Those cells
# therefore run the default seed's polynomials, which clear it at the
# criterion's trial counts, whatever the workload seed; the RLC cell is far
# from the guard (worst of 80 at 375 trials: 15 standard errors) and is seeded.
LOWDEG_CELLS = (
    ("rlc", {"m": 12, "n": 8}, 1500, 1, True),
    ("gss", {"N": 20, "k": 3}, 4000, 1, False),
    ("psp", {"n": 10, "L": 3, "q": 0.3}, 2000, 1, False),
)

# criterion-04 character table at m=3, n=2: 46 indices of degree <= 2.  Each
# block is one row at one rho.  Row 1 is chi_{T={0}}; at rho=0.25 its pairing
# with the empty index is the nonzero cross term that keeps criterion 04 a
# strict xfail.  A row's cost depends on rho (at rho 0 and 1 most resampling
# masks weigh zero and are skipped), so the rows are fixed, one per rho.
CHARACTER_PARAMS = {"m": 3, "n": 2}
CHARACTER_DEGREE = 2
CHARACTER_INDICES = 46
CHARACTER_ROWS = ((1, 0.25), (12, 0.0), (23, 0.5), (34, 1.0))
CENSUS = {"n": 12, "m": 3, "eps_m": 1, "q": 0.25, "graphs": 800, "pairs": True, "pair_graphs": 20}
SOLVE_TRIALS = 20
WINDOW_TRIALS = 50
WINDOW_LAMBDAS = (1.9, 15.2)
HERMITE = {"n_specs": 10, "samples": 100000}


def _js(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _cli(name, argv, trials, evals, rows, **check):
    return {"name": name, "kind": "cli", "argv": argv, "trials": trials, "evals": evals, "rows": rows, "check": check}


def _barrier_mix(seed: int, threads: int) -> list[dict]:
    common = ["--seed", str(seed), "--threads", str(threads)]
    grid = ",".join(repr(r) for r in MMSE_GRID)
    out = [
        _cli(
            "mmse-curve.rlc",
            ["mmse-curve", "--model", "rlc", "--params", _js({"m": 14, "n": 10}), "--rho-grid", grid,
             "--trials", str(MMSE_TRIALS), "--options", _js({"full_rank_only": True}), "--svg", *common],
            trials=MMSE_TRIALS * len(MMSE_GRID),
            evals=MMSE_TRIALS * len(MMSE_GRID),
            rows=2 * len(MMSE_GRID),
        )
    ]
    for model, params, estimators, rhos in BARRIER_CELLS:
        posteriors_per_trial = 1 + 2 * ("posterior_mean" in estimators)
        for rho in rhos:
            out.append(
                _cli(
                    f"barrier.{model}.{rho}",
                    ["barrier", "--model", model, "--params", _js(params), "--rho-grid", repr(rho),
                     "--trials", str(BARRIER_TRIALS), "--estimators", ",".join(estimators), *common],
                    trials=BARRIER_TRIALS * (1 + len(estimators)),
                    evals=BARRIER_TRIALS * posteriors_per_trial,
                    rows=1 + 4 * len(estimators),
                    barrier=True,
                )
            )
    return out


def _lowdeg_mix(seed: int, threads: int) -> list[dict]:
    out = []
    for model, params, trials, polys, seeded in LOWDEG_CELLS:
        out.append(
            _cli(
                f"lowdeg-stability.{model}",
                ["lowdeg-stability", "--model", model, "--params", _js(params), "--rho-grid", "0.3",
                 "--trials", str(trials), "--options", _js({"degree": 2, "n_polys": polys}),
                 "--seed", str(seed if seeded else DEFAULT_SEED), "--threads", str(threads)],
                trials=trials * polys,
                evals=2 * trials * polys,
                rows=1 + polys,
            )
        )
    return out


def _exact_mix(seed: int, threads: int) -> list[dict]:
    common = ["--seed", str(seed), "--threads", str(threads)]
    out = [
        {"name": f"character.row{i}.{rho}", "kind": "character", "row": i, "rho": rho,
         "trials": 0, "evals": CHARACTER_INDICES, "rows": CHARACTER_INDICES, "check": {}}
        for i, rho in CHARACTER_ROWS
    ]
    out.append(
        _cli(
            "count-paths",
            ["count-paths", "--options", _js(CENSUS), *common],
            trials=CENSUS["graphs"] + CENSUS["pair_graphs"],
            evals=CENSUS["pair_graphs"],
            rows=None,  # 3 fixed rows plus one per occupied overlap size
            census=True,
        )
    )
    out.append(
        _cli(
            "solve.gss",
            ["solve", "--model", "gss", "--params", _js({"N": 20, "k": 3}), "--trials", str(SOLVE_TRIALS), *common],
            trials=SOLVE_TRIALS,
            evals=SOLVE_TRIALS,
            rows=1,
            lll=True,
        )
    )
    out.append(
        _cli(
            "pca-window",
            ["pca-window", "--model", "tpca", "--params", _js({"n": 12, "k": 2, "d": 3, "lambda": 1}),
             "--trials", str(WINDOW_TRIALS), "--options", _js({"lambdas": list(WINDOW_LAMBDAS)}), *common],
            trials=WINDOW_TRIALS * len(WINDOW_LAMBDAS),
            evals=WINDOW_TRIALS * len(WINDOW_LAMBDAS),
            rows=2 * len(WINDOW_LAMBDAS),
            overlap=True,
        )
    )
    out.append(
        _cli(
            "hermite-check",
            ["hermite-check", "--options", _js(HERMITE), *common],
            trials=0,
            evals=HERMITE["n_specs"],
            rows=2 * HERMITE["n_specs"],
        )
    )
    return out


def experiments(workload: str, seed: int) -> list[dict]:
    """The ordered experiment list of one pass of a workload."""
    threads = THREADS[workload]
    if workload in ("barrier", "barrier-t2"):
        return _barrier_mix(seed, threads)
    if workload == "lowdeg":
        return _lowdeg_mix(seed, threads)
    if workload == "exact":
        return _exact_mix(seed, threads)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
