import collections
import csv
import io
import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import count_paths_rows_loop, hex_fields, instances_of, seed_sequence_philox_key
from plantedlab.cli import COMMAND_TABLE, COMMANDS, CSV_HEADER, REQUIRED, ExperimentConfig, _build_parser, main, run
from plantedlab.models import EVAL_CHUNK, MODEL_NAMES, PspParams, RlcParams, TpcaParams, batch_size, params_to_json
from plantedlab.models import sample_instance
from plantedlab import noise
from plantedlab.noise import CoupledTrials
from plantedlab.rng import derive_seed, keyed_fresh
from plantedlab.stability import ESTIMATORS


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_mmse_curve_endpoints(tmp_path):
    out = tmp_path / "curve"
    code = main(
        [
            "mmse-curve",
            "--model", "rlc",
            "--params", '{"m":10,"n":8}',
            "--rho-grid", "0,1",
            "--trials", "25",
            "--seed", "3",
            "--options", '{"full_rank_only":true}',
            "--out", str(out),
        ]
    )
    assert code == 0
    import csv as csvmod
    import io

    text = read(out.with_suffix(".csv")).decode()
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    rows = list(csvmod.DictReader(io.StringIO(text)))
    nmmse = {float(r["rho"]): float(r["value"]) for r in rows if r["metric"] == "nmmse"}
    assert nmmse[0.0] == 0.0
    assert nmmse[1.0] == 0.5


def test_byte_identical_across_runs_and_threads(tmp_path):
    args = [
        "mmse-curve",
        "--model", "gss",
        "--params", '{"N":12,"k":2}',
        "--rho-grid", "0.25,0.75",
        "--trials", "40",
        "--seed", "11",
        "--deterministic",
    ]
    outs = []
    for tag, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / f"run_{tag}"
        code = main(args + ["--threads", threads, "--out", str(out)])
        assert code == 0
        outs.append(read(out.with_suffix(".csv")))
    assert outs[0] == outs[1] == outs[2]


def test_unknown_estimator_exits_2_and_names_registry(tmp_path, capsys):
    code = main(
        [
            "stability",
            "--model", "rlc",
            "--params", '{"m":8,"n":5}',
            "--rho-grid", "0.5",
            "--trials", "10",
            "--estimators", "bogus",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "posterior_mean" in err and "bogus" in err


def test_config_file_with_flag_override(tmp_path):
    cfg = {
        "model": "gss",
        "params": {"N": 10, "k": 2},
        "rho_grid": [0.5],
        "trials": 10,
        "seed": 4,
        "output": str(tmp_path / "from_config"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    # flag overrides the config's trial count
    code = main(["mmse-curve", "--config", str(cfg_path), "--trials", "7"])
    assert code == 0
    blob = json.loads(read((tmp_path / "from_config").with_suffix(".json")))
    assert blob["config"]["trials"] == 7


def test_sidecar_round_trips_config(tmp_path):
    out = tmp_path / "sidecar"
    config = ExperimentConfig(
        command="mmse-curve",
        model="gss",
        params={"N": 10, "k": 2},
        rho_grid=[0.3],
        trials=12,
        seed=9,
        output=str(out),
    )
    assert run(config) == 0
    blob = json.loads(read(out.with_suffix(".json")))
    assert ExperimentConfig.from_json(blob["config"]) == config


def test_budget_error_exits_1(tmp_path, capsys):
    code = main(
        [
            "mmse-curve",
            "--model", "psp",
            "--params", '{"n":40,"L":8,"q":0.2}',
            "--rho-grid", "0.5",
            "--trials", "5",
            "--out", str(tmp_path / "big"),
        ]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0.5,1.5", "a"])
def test_invalid_rho_grid_exits_2(tmp_path, grid):
    code = main(
        [
            "mmse-curve",
            "--model", "gss",
            "--params", '{"N":8,"k":2}',
            "--rho-grid", grid,
            "--out", str(tmp_path / "bad"),
        ]
    )
    assert code == 2


@pytest.mark.parametrize(
    "change, message",
    [
        ({"trials": "5"}, "'trials' must be an int"),
        ({"trials": True}, "'trials' must be an int"),
        ({"seed": True}, "'seed' must be an int"),
        ({"params": [1]}, "'params' must be an object"),
        ({"rho_grid": "0.5"}, "'rho_grid' must be a list of numbers"),
        (None, "must hold a JSON object"),
        ({"output": 5}, "'output' must be a string"),
        ({"model": 5}, "'model' must be a string"),
        ({"estimators": 5}, "'estimators' must be a list of strings"),
        ({"estimators": "posterior_mean"}, "'estimators' must be a list of strings"),
        ({"estimators": ["posterior_mean", 5]}, "'estimators' must be a list of strings"),
    ],
    ids=[
        "trials-string", "trials-bool", "seed-bool", "params-list", "rho_grid-string", "array-file",
        "output-int", "model-int", "estimators-int", "estimators-string", "estimators-int-item",
    ],
)
def test_malformed_config_exits_2(tmp_path, capsys, change, message):
    # a --config file gets the type checks that flags get; None writes the config inside a JSON array
    cfg = {"model": "gss", "params": {"N": 6, "k": 2}, "rho_grid": [0.5], "trials": 3, "output": str(tmp_path / "x")}
    path = tmp_path / "c.json"
    path.write_text(json.dumps([cfg] if change is None else {**cfg, **change}))
    assert main(["mmse-curve", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_solve_command_psp(tmp_path):
    out = tmp_path / "solve"
    code = main(
        [
            "solve",
            "--model", "psp",
            "--params", '{"n":12,"L":3,"q":0.1}',
            "--trials", "20",
            "--seed", "5",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = read(out.with_suffix(".csv")).decode().splitlines()
    assert any("exact_recovery_rate" in line for line in lines)


def test_count_paths_command(tmp_path):
    out = tmp_path / "counts"
    code = main(
        [
            "count-paths",
            "--options", '{"n":10,"m":3,"eps_m":1,"q":0.25,"graphs":200,"pairs":true,"pair_graphs":40}',
            "--seed", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    text = read(out.with_suffix(".csv")).decode()
    assert "empirical_mean_count" in text and "expected_count" in text
    assert "mean_pair_overlap[" in text


def test_count_paths_draws_each_graph_once(tmp_path, monkeypatch):
    # the pair census reuses the first pair_graphs graphs of the count: max(graphs, pair_graphs)
    # Philox keys are read, each once and in trial order
    keys = []

    def recorded(gen, run_keys):
        fresh = keyed_fresh(gen, run_keys)

        def record(i):
            keys.append(run_keys[i].tolist())
            return fresh(i)

        return record

    monkeypatch.setattr("plantedlab.rng.keyed_fresh", recorded)
    for graphs, pair_graphs in ((6, 4), (3, 5)):
        keys.clear()
        options = '{"n":9,"m":3,"eps_m":1,"q":0.3,"graphs":%d,"pairs":true,"pair_graphs":%d}' % (graphs, pair_graphs)
        assert main(["count-paths", "--seed", "5", "--options", options, "--out", str(tmp_path / "x")]) == 0
        want = [seed_sequence_philox_key(derive_seed(5, 0, t)).tolist() for t in range(max(graphs, pair_graphs))]
        assert keys == want


def _csv_rows(out) -> list:
    """(trials, metric, value, stderr) of each row of a CLI CSV."""
    text = read(out.with_suffix(".csv")).decode()
    return [(int(r["trials"]), r["metric"], float(r["value"]), float(r["stderr"])) for r in csv.DictReader(io.StringIO(text))]


@pytest.mark.parametrize(
    "options",
    [
        {"n": 9, "m": 3, "eps_m": 1, "q": 0.4, "graphs": 6, "pairs": True, "pair_graphs": 4},
        {"n": 7, "m": 3, "eps_m": 1, "q": 0.3, "graphs": 3, "pairs": True, "pair_graphs": 5},
        {"n": 7, "m": 3, "eps_m": 2, "q": 0.4, "graphs": EVAL_CHUNK + 3, "pairs": False},
        {"n": 6, "m": 2, "eps_m": 0, "q": 0.5, "graphs": EVAL_CHUNK + 3, "pairs": True, "pair_graphs": EVAL_CHUNK + 5},
    ],
    ids=["pairs-within-graphs", "pairs-beyond-graphs", "run-boundary", "pairs-beyond-a-run-boundary"],
)
def test_count_paths_matches_the_per_seed_loop(tmp_path, options):
    out = tmp_path / "census"
    assert main(["count-paths", "--seed", "11", "--options", json.dumps(options), "--out", str(out)]) == 0
    pair_graphs = options["pair_graphs"] if options["pairs"] else 0
    args = (options["n"], options["m"], options["eps_m"], options["q"], options["graphs"], pair_graphs)
    assert _csv_rows(out) == count_paths_rows_loop(11, *args)


def test_solve_and_pca_window_instances_across_a_run_boundary(tmp_path, monkeypatch):
    # both commands draw keyed runs; trial t is still sample_instance at seed path (seed, INSTANCE_STREAM, t)
    trials = EVAL_CHUNK + 2
    seen = []

    def recoveries(run, cfg):
        seen.extend(instances_of(run))
        return np.ones(len(run), dtype=bool)

    monkeypatch.setattr("plantedlab.cli.solver_recoveries", recoveries)
    params = PspParams(n=7, L=3, q=0.3)
    argv = ["solve", "--model", "psp", "--params", '{"n":7,"L":3,"q":0.3}', "--trials", str(trials), "--seed", "4"]
    assert main([*argv, "--out", str(tmp_path / "solve")]) == 0
    assert [hex_fields(inst) for inst in seen] == [
        hex_fields(sample_instance(params, derive_seed(4, 0, t))) for t in range(trials)
    ]

    overlaps = []

    def overlap(Y, support, p):
        overlaps.append((Y, support, p.lam))
        return np.zeros(p.k + 1)

    monkeypatch.setattr("plantedlab.cli.tpca_overlap_distribution", overlap)
    argv = ["pca-window", "--model", "tpca", "--params", '{"n":4,"k":2,"d":2,"lambda":1.0}', "--trials", str(trials)]
    options = ["--options", '{"lambdas":[1.0,6.0]}', "--seed", "9"]
    assert main([*argv, *options, "--out", str(tmp_path / "window")]) == 0
    want = []
    for lam in (1.0, 6.0):
        for t in range(trials):
            inst = sample_instance(TpcaParams(n=4, k=2, d=2, lam=lam), derive_seed(9, 0, t))
            want.append((hex_fields(inst.Y[0]), hex_fields(inst.support[0]), lam))
    assert [(hex_fields(Y), hex_fields(support), lam) for Y, support, lam in overlaps] == want


@pytest.mark.parametrize("graphs", ['"graphs":0', '"pairs":true,"pair_graphs":0'], ids=["graphs", "pair_graphs"])
def test_count_paths_without_graphs_exits_2(tmp_path, graphs):
    options = '{"n":9,"m":3,"eps_m":1,"q":0.3,%s}' % graphs
    code = main(["count-paths", "--options", options, "--out", str(tmp_path / "x")])
    assert code == 2


def test_count_paths_pair_graphs_without_pairs_exits_2(tmp_path, capsys):
    options = '{"n":9,"m":3,"eps_m":1,"q":0.3,"graphs":20,"pair_graphs":5}'
    for pairs in ("", ',"pairs":false'):
        code = main(["count-paths", "--options", options[:-1] + pairs + "}", "--out", str(tmp_path / "x")])
        assert code == 2 and "count-paths reads pair_graphs only with pairs" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_barrier_command(tmp_path):
    out = tmp_path / "barrier"
    code = main(
        [
            "barrier",
            "--model", "gss",
            "--params", '{"N":10,"k":2}',
            "--rho-grid", "0.4",
            "--trials", "60",
            "--seed", "6",
            "--estimators", "posterior_mean,constant_prior_mean",
            "--out", str(out),
        ]
    )
    assert code == 0
    import csv as csvmod
    import io

    text = read(out.with_suffix(".csv")).decode()
    assert "barrier_holds[posterior_mean]" in text
    for row in csvmod.DictReader(io.StringIO(text)):
        if row["metric"].startswith("barrier_holds"):
            assert row["value"] == "1.0"


def test_parser_is_built_once_and_parses_each_call_afresh(tmp_path, capsys):
    assert _build_parser() is _build_parser()
    assert main(["mmse-curve", "--model", "nope"]) == 2
    first = capsys.readouterr().err
    assert main(["mmse-curve", "--model", "nope"]) == 2
    assert capsys.readouterr().err == first and "invalid choice" in first
    out = tmp_path / "m"
    argv = ["mmse-curve", "--model", "gss", "--params", '{"N":6,"k":2}', "--rho-grid", "0.5", "--trials", "3"]
    assert main([*argv, "--out", str(out)]) == 0
    assert main([*argv[:1], *argv[3:], "--out", str(out)]) == 2  # no --model left over from the call before
    assert main(["--help"]) == 0


def _count_draws(monkeypatch) -> tuple:
    """(the runs drawn, a Counter of (arm, trial) noised, the arms noised per run), filled in as coupled passes run."""
    runs, noised, arms_of = [], collections.Counter(), collections.defaultdict(list)
    sampler, noisy = noise.chunk_sampler, CoupledTrials._noisy

    def counted_sampler(params):
        sample = sampler(params)
        return lambda count, fresh: runs.append(sample(count, fresh)) or runs[-1]

    def counted_noisy(self, arm, run, ts):
        assert any(run is drawn for drawn in runs) and len(run) == len(ts)
        noised.update((arm, t) for t in ts)
        arms_of[id(run)].append(arm)
        return noisy(self, arm, run, ts)

    monkeypatch.setattr(noise, "chunk_sampler", counted_sampler)
    monkeypatch.setattr(CoupledTrials, "_noisy", counted_noisy)
    return runs, noised, arms_of


def test_barrier_draws_each_trial_once_per_rho(tmp_path, monkeypatch):
    # per rho, one coupled pass: each run of trials is drawn once, then noised in the MMSE arm and
    # in the stability arm that scores all three estimators
    runs, noised, arms_of = _count_draws(monkeypatch)
    argv = [
        "barrier", "--model", "rlc", "--params", '{"m":8,"n":5}', "--rho-grid", "0.3,0.6", "--trials", "20",
        "--estimators", "posterior_mean,f2_round,constant_prior_mean", "--out", str(tmp_path / "b"),
    ]
    assert main(argv) == 0
    assert sum(map(len, runs)) == 2 * 20  # each trial's instance once per rho
    assert noised == {(arm, t): 2 for arm in (0, 1) for t in range(20)}
    assert sorted(arms_of.values()) == [[0, 1]] * len(runs)


def test_stability_draws_each_trial_once_per_pass(tmp_path, monkeypatch):
    # the whole rho grid is one coupled pass: each run of trials is drawn once, then noised once in the
    # arm of each grid point, where all three estimators score it
    runs, noised, arms_of = _count_draws(monkeypatch)
    argv = [
        "stability", "--model", "rlc", "--params", '{"m":8,"n":5}', "--rho-grid", "0.3,0.6,0.9", "--trials", "300",
        "--estimators", "posterior_mean,f2_round,constant_prior_mean", "--out", str(tmp_path / "s"),
    ]
    assert main(argv) == 0
    assert sum(map(len, runs)) == 300 and len(runs) > 1  # each trial's instance once
    assert noised == {(arm, t): 1 for arm in (0, 1, 2) for t in range(300)}
    assert sorted(arms_of.values()) == [[0, 1, 2]] * len(runs)


def test_stability_command_raises_the_first_failure_in_estimator_order(tmp_path, monkeypatch, capsys):
    # rows are estimator-major, and so is the failure reported: "late" fails at the second rho only and
    # "early" at the first only, and "late" comes first in the list
    def failing_at(bad_rho, message):
        def factory(params, rho):
            def run(observations):
                if rho == bad_rho:
                    raise ValueError(message)
                return np.ones((batch_size(observations), params.N))

            return run

        return factory

    monkeypatch.setitem(ESTIMATORS, "late", failing_at(0.6, "late fails at rho 0.6"))
    monkeypatch.setitem(ESTIMATORS, "early", failing_at(0.3, "early fails at rho 0.3"))
    argv = [
        "stability", "--model", "gss", "--params", '{"N":6,"k":2}', "--rho-grid", "0.3,0.6", "--trials", "5",
        "--estimators", "late,early", "--out", str(tmp_path / "s"),
    ]
    assert main(argv) == 1
    assert "late fails at rho 0.6" in capsys.readouterr().err


def test_pca_window_command(tmp_path):
    out = tmp_path / "window"
    code = main(
        [
            "pca-window",
            "--model", "tpca",
            "--params", '{"n":8,"k":2,"d":3,"lambda":1.0}',
            "--trials", "20",
            "--seed", "8",
            "--options", '{"lambdas":[1.0,20.0]}',
            "--out", str(out),
        ]
    )
    assert code == 0
    assert "p_k_majority_frac" in read(out.with_suffix(".csv")).decode()


def test_lowdeg_stability_command(tmp_path):
    out = tmp_path / "lowdeg"
    code = main(
        [
            "lowdeg-stability",
            "--model", "rlc",
            "--params", '{"m":10,"n":6}',
            "--rho-grid", "0.3",
            "--trials", "400",
            "--seed", "9",
            "--options", '{"degree":2,"n_polys":2}',
            "--out", str(out),
        ]
    )
    assert code == 0
    text = read(out.with_suffix(".csv")).decode()
    assert "stability_bound" in text and "stability_ratio[0]" in text


def test_hermite_check_command(tmp_path):
    out = tmp_path / "hermite"
    code = main(
        [
            "hermite-check",
            "--seed", "10",
            "--options", '{"n_specs":2,"samples":20000}',
            "--out", str(out),
        ]
    )
    assert code == 0
    text = read(out.with_suffix(".csv")).decode()
    assert "exact[0]" in text and "mc[1]" in text
    import csv as csvmod
    import io

    for row in csvmod.DictReader(io.StringIO(text)):
        for cell in (row["value"], row["stderr"]):
            assert "np." not in cell
            float(cell)


@pytest.mark.parametrize(
    "params, message",
    [
        ('{"m":8}', "missing ['n']"),
        ('{"m":8,"n":5,"zz":1}', "unknown ['zz']"),
        ('{"m":"8","n":5}', "field 'm' must be an int"),
        ('{"m":8.5,"n":5}', "field 'm' must be an int"),
        ('{"m":true,"n":1}', "field 'm' must be an int"),
        ('psp {"n":"10","L":3,"q":0.3}', "field 'n' must be an int"),
        ('psp {"n":10,"L":3,"q":"0.3"}', "field 'q' must be a number"),
        ('tpca {"n":5,"k":2,"d":2,"lambda":NaN}', "need finite lambda >= 0, got nan"),
        ('tpca {"n":5,"k":2,"d":2,"lambda":Infinity}', "need finite lambda >= 0, got inf"),
        # malformed command options, given as a whole argv
        pytest.param(
            ["lowdeg-stability", "--model", "gss", "--params", '{"N":6,"k":2}', "--rho-grid", "0.5",
             "--trials", "3", "--options", '{"degree":-1}'],
            "needs degree >= 0",
            id="lowdeg-stability-degree",
        ),
        pytest.param(  # a bare ValueError from numpy's choice, exit 1
            ["lowdeg-stability", "--model", "rlc", "--params", '{"m":4,"n":3}', "--rho-grid", "0.3", "--trials", "50",
             "--options", '{"degree":13,"n_polys":3}', "--seed", "1"],
            "random_rlc_poly drew 5 of 12 cells and 6 of 4 coordinates at degree 13",
            id="lowdeg-stability-rlc-degree-beyond-the-code",
        ),
        pytest.param(
            ["hermite-check", "--options", '{"n_specs":1,"samples":-3}'],
            "hermite-check needs samples >= 0",
            id="hermite-check-samples",
        ),
        pytest.param(
            ["hermite-check", "--options", '{"n_specs":1,"samples":2.5}'],
            "option 'samples' must be an int",
            id="hermite-check-samples-float",
        ),
        # a wrongly typed option, a string where a bool belongs, a misspelt key, an out-of-range q
        pytest.param(
            ["pca-window", "--model", "tpca", "--params", '{"n":5,"k":2,"d":2,"lambda":1.0}', "--trials", "3",
             "--options", '{"lambdas":5}'],
            "option 'lambdas' must be a list of numbers",
            id="pca-window-lambdas-number",
        ),
        pytest.param(
            ["pca-window", "--model", "tpca", "--params", '{"n":5,"k":2,"d":2,"lambda":1.0}', "--trials", "3",
             "--options", '{"lambdas":["a"]}'],
            "option 'lambdas' must be a list of numbers",
            id="pca-window-lambdas-string",
        ),
        pytest.param(
            ["count-paths", "--options", '{"n":"x","m":3,"eps_m":1,"q":0.3,"graphs":3}'],
            "option 'n' must be an int",
            id="count-paths-n",
        ),
        pytest.param(
            ["hermite-check", "--options", '{"n_specs":"x"}'],
            "option 'n_specs' must be an int",
            id="hermite-check-n_specs",
        ),
        pytest.param(
            ["lowdeg-stability", "--model", "gss", "--params", '{"N":6,"k":2}', "--rho-grid", "0.5",
             "--trials", "3", "--options", '{"degree":"x"}'],
            "option 'degree' must be an int",
            id="lowdeg-stability-degree-string",
        ),
        pytest.param(
            ["solve", "--model", "gss", "--params", '{"N":6,"k":2}', "--trials", "3", "--options", '{"bits":"x"}'],
            "option 'bits' must be an int",
            id="solve-bits",
        ),
        pytest.param(  # every model's solve builds the LllConfig, not only gss
            ["solve", "--model", "psp", "--params", '{"n":6,"L":3,"q":0.3}', "--trials", "3", "--options", '{"bits":8}'],
            "need bits >= 16, got 8",
            id="solve-bits-below-16",
        ),
        pytest.param(
            ["mmse-curve", "--model", "rlc", "--params", '{"m":8,"n":5}', "--rho-grid", "0.5", "--trials", "3",
             "--options", '{"full_rank_only":"false"}'],
            "option 'full_rank_only' must be true or false",
            id="mmse-curve-full_rank_only",
        ),
        pytest.param(
            ["count-paths", "--options", '{"n":8,"m":3,"eps_m":1,"q":0.3,"graphs":3,"pairs":"no"}'],
            "option 'pairs' must be true or false",
            id="count-paths-pairs",
        ),
        pytest.param(
            ["lowdeg-stability", "--model", "gss", "--params", '{"N":6,"k":2}', "--rho-grid", "0.5",
             "--trials", "3", "--options", '{"n_poly":3}'],
            "not ['n_poly']",
            id="lowdeg-stability-misspelt",
        ),
        pytest.param(
            ["stability", "--model", "gss", "--params", '{"N":6,"k":2}', "--rho-grid", "0.5", "--trials", "3",
             "--estimators", "posterior_mean", "--options", '{"degree":2}'],
            "stability reads options [], not ['degree']",
            id="stability-any-option",
        ),
        pytest.param(
            ["lowdeg-stability", "--model", "psp", "--params", '{"n":8,"L":3,"q":0.0}', "--rho-grid", "0.5",
             "--trials", "3", "--options", '{"n_polys":1}'],
            "the centered edge basis needs 0 < q < 1, got q=0.0",
            id="lowdeg-stability-psp-q0",
        ),
        pytest.param(
            ["count-paths", "--options", '{"n":8,"m":3,"eps_m":1,"q":1.5,"graphs":3}'],
            "need q in [0, 1], got 1.5",
            id="count-paths-q",
        ),
    ],
)
def test_malformed_params_exit_2(tmp_path, capsys, params, message):
    if isinstance(params, str):
        model, _, params = params.rpartition(" ")  # an optional model name precedes the JSON
        argv = ["solve", "--model", model or "rlc", "--params", params, "--trials", "3"]
    else:
        argv = params
    code = main([*argv, "--out", str(tmp_path / "x")])
    assert code == 2
    assert message in capsys.readouterr().err


# params whose "model" key names another model than --model; the first three ran on the params' model and
# exited 0, writing rows under the other name, and the last two exited 1 with a bare TypeError or AttributeError
_GRID_ARGV = ["--rho-grid", "0.5", "--trials", "3"]
OTHER_MODEL_PARAMS = {
    "solve": (["solve", "--model", "rlc", "--params", '{"model":"gss","N":8,"k":2}', "--trials", "3"], "gss", "rlc"),
    "mmse-curve": (["mmse-curve", "--model", "rlc", "--params", '{"model":"psp","n":6,"L":3,"q":0.3}', *_GRID_ARGV], "psp", "rlc"),
    "stability": (
        ["stability", "--model", "gss", "--params", '{"model":"rlc","m":6,"n":4}', *_GRID_ARGV, "--estimators", "f2_round"],
        "rlc",
        "gss",
    ),
    "pca-window": (
        ["pca-window", "--model", "tpca", "--params", '{"model":"gss","N":8,"k":2}', "--trials", "3", "--options", '{"lambdas":[1]}'],
        "gss",
        "tpca",
    ),
    "lowdeg-stability": (["lowdeg-stability", "--model", "gss", "--params", '{"model":"rlc","m":6,"n":4}', *_GRID_ARGV], "rlc", "gss"),
}


@pytest.mark.parametrize("command", OTHER_MODEL_PARAMS)
def test_params_naming_another_model_exit_2_and_write_nothing(tmp_path, capsys, command):
    argv, named, model = OTHER_MODEL_PARAMS[command]
    out = tmp_path / "x"
    assert main([*argv, "--out", str(out)]) == 2
    assert f"params name the model {named!r}, but the model is {model!r}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_params_repeating_the_model_run_as_without_the_key(tmp_path):
    # params_to_json writes the model name into params, so its output can be pasted as --params
    pasted = json.dumps(params_to_json(RlcParams(m=6, n=4)))
    for name, params in (("pasted", pasted), ("bare", '{"m":6,"n":4}')):
        assert main(["solve", "--model", "rlc", "--params", params, "--trials", "5", "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "pasted.csv").read_bytes() == (tmp_path / "bare.csv").read_bytes()


def test_negative_seed_exits_2(tmp_path, capsys):
    code = main(
        ["mmse-curve", "--model", "gss", "--params", '{"N":6,"k":2}', "--rho-grid", "0.5", "--trials", "3",
         "--seed", "-1", "--out", str(tmp_path / "x")]
    )
    assert code == 2
    assert "non-negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["mmse-curve", "--model", "gss", "--params", '{"N":6,"k":2}', "--trials", "3"],
        ["stability", "--model", "gss", "--params", '{"N":6,"k":2}', "--trials", "3", "--estimators", "posterior_mean"],
        ["barrier", "--model", "gss", "--params", '{"N":6,"k":2}', "--trials", "3", "--estimators", "posterior_mean"],
        ["hermite-check", "--options", '{"n_specs":0}'],
        ["lowdeg-stability", "--model", "gss", "--params", '{"N":6,"k":2}', "--rho-grid", "0.5", "--trials", "3",
         "--options", '{"n_polys":0}'],
    ],
    ids=["mmse-curve", "stability", "barrier", "hermite-check", "lowdeg-stability"],
)
def test_nothing_to_compute_exits_2(tmp_path, capsys, argv):
    # no rho grid, no diagram specs or no polynomials: a CSV without results would look like a result
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 2
    assert "needs" in capsys.readouterr().err
    assert not out.with_suffix(".csv").exists()


def test_missing_output_exits_2(tmp_path, capsys):
    code = main(["hermite-check", "--seed", "1", "--options", '{"n_specs":1,"samples":1000}'])
    assert code == 2
    # an output path but no Monte-Carlo samples to average is a usage error too
    code = main(["hermite-check", "--seed", "1", "--options", '{"n_specs":1,"samples":0}', "--out", str(tmp_path / "x")])
    assert code == 2
    assert "no values to average" in capsys.readouterr().err


def test_all_commands_are_wired():
    # argparse offers exactly the table's commands, and each entry runs its own implementation
    command = next(a for a in _build_parser()._actions if a.dest == "command")
    assert list(command.choices) == list(COMMAND_TABLE) == list(COMMANDS)
    for name, spec in COMMAND_TABLE.items():
        assert spec.impl.__name__ == "_cmd_" + name.replace("-", "_")


PARAMS = {
    "psp": {"n": 6, "L": 2, "q": 0.3},
    "rlc": {"m": 6, "n": 4},
    "gss": {"N": 6, "k": 2},
    "tpca": {"n": 5, "k": 2, "d": 2, "lambda": 1.0},
}
# a small valid config for every command; the table test breaks one part of it at a time
VALID = {
    "mmse-curve": {"model": "gss", "rho_grid": [0.5]},
    "stability": {"model": "gss", "rho_grid": [0.5], "estimators": ["posterior_mean"]},
    "barrier": {"model": "gss", "rho_grid": [0.5], "estimators": ["posterior_mean"]},
    "solve": {"model": "gss"},
    "count-paths": {"options": {"n": 8, "m": 3, "eps_m": 1, "q": 0.3}},
    "hermite-check": {"options": {"n_specs": 1, "samples": 100}},
    "lowdeg-stability": {"model": "gss", "rho_grid": [0.5], "options": {"n_polys": 1}},
    "pca-window": {"model": "tpca", "options": {"lambdas": [1.0]}},
}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_table_contract(tmp_path, capsys, command):
    spec = COMMAND_TABLE[command]
    fields = VALID[command]
    params = {"params": PARAMS[fields["model"]]} if "model" in fields else {}
    base = ExperimentConfig(command, trials=3, output=str(tmp_path / "x"), **fields, **params)

    def usage_error(config) -> str:
        assert run(config) == 2
        return capsys.readouterr().err

    # validate fills in every fixed default, and keeps what was given
    required = {key: base.options[key] for key, o in spec.options.items() if o[1] is REQUIRED}
    filled = replace(base, options=required).validate()
    assert filled == {key: o[1] for key, o in spec.options.items() if o[1] not in (None, REQUIRED)} | required
    for key, (_, default, least) in spec.options.items():
        if least is not None:
            assert replace(base, options={**base.options, key: least}).validate()[key] == least
            assert key in usage_error(replace(base, options={**base.options, key: least - 1}))
        if default is REQUIRED:
            options = {k: v for k, v in base.options.items() if k != key}
            assert "needs" in usage_error(replace(base, options=options))
    for key in spec.needs:
        assert "needs" in usage_error(replace(base, **{key: [] if isinstance(getattr(base, key), list) else None}))
    for model in (*MODEL_NAMES, "nope") if spec.models else ():
        if model not in spec.models:
            assert repr(model) in usage_error(replace(base, model=model, params=PARAMS.get(model, {})))


def test_readme_cli_table_matches_command_table():
    # README "CLI" documents COMMAND_TABLE row by row; a default in backquotes is worked out by the command
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    type_names = {int: "int", float: "number", bool: "bool", list: "list of numbers"}
    option = re.compile(r"`(\w+)` (int|number|bool|list of numbers)(?: ≥ (-?\d+))?, (required|default (.+))")

    def names(cell: str) -> tuple:
        return () if cell == "none" else tuple(cell.split(", "))

    def typed(default) -> tuple:  # so that a documented 0 never matches a fixed false
        return type(default), default

    documented = {}
    for row in re.findall(r"^\| `([a-z-]+)` \|(.*)\|$", section, flags=re.M):
        needs, models, options = (cell.strip() for cell in row[1].split("|"))
        parsed = {}
        for text in () if options == "none" else options.split("; "):
            key, kind, least, default, value = option.fullmatch(text).groups()
            if default == "required":
                value = REQUIRED
            else:
                value = None if value.startswith("`") else json.loads(value)
            parsed[key] = (kind, typed(value), None if least is None else int(least))
        documented[row[0]] = (names(needs), names(models), parsed)
    expected = {
        name: (
            spec.needs,
            spec.models,
            {key: (type_names[kind], typed(default), least) for key, (kind, default, least) in spec.options.items()},
        )
        for name, spec in COMMAND_TABLE.items()
    }
    assert documented == expected


def test_traced_barrier_run_with_threads_flag(tmp_path):
    # perfbench's tracer wraps mc.run_trials and calls it with three positional
    # arguments; a traced benchmark run passes --threads to every command
    root = Path(__file__).resolve().parents[1]
    argv = [
        "barrier", "--model", "rlc", "--params", '{"m":8,"n":5}', "--rho-grid", "0.3", "--trials", "30",
        "--seed", "3", "--estimators", "posterior_mean,f2_round", "--threads", "2", "--out", str(tmp_path / "b"),
    ]
    script = "\n".join(
        [
            "import json, sys",
            f"sys.path[:0] = [{str(root / 'src')!r}, {str(root / 'perfbench')!r}]",
            "import plantedlab.cli",
            "from tracing import Tracer",
            "tracer = Tracer()",
            "tracer.install()",
            f"code = plantedlab.cli.main({argv!r})",
            "print(json.dumps([code, sorted({span[1] for span in tracer.spans})]))",
        ]
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, names = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert {"mc.run_trials", "noise.trial"} <= set(names)
