import json
import subprocess
import sys
from pathlib import Path

import pytest

from plantedlab.cli import COMMANDS, CSV_HEADER, ExperimentConfig, main, run


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


def test_invalid_rho_grid_exits_2(tmp_path):
    code = main(
        [
            "mmse-curve",
            "--model", "gss",
            "--params", '{"N":8,"k":2}',
            "--rho-grid", "0.5,1.5",
            "--out", str(tmp_path / "bad"),
        ]
    )
    assert code == 2


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


def test_count_paths_without_graphs_exits_2(tmp_path):
    code = main(
        ["count-paths", "--options", '{"n":9,"m":3,"eps_m":1,"q":0.3,"graphs":0}', "--out", str(tmp_path / "x")]
    )
    assert code == 2


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
    ],
)
def test_malformed_params_exit_2(tmp_path, capsys, params, message):
    model, _, params = params.rpartition(" ")  # an optional model name precedes the JSON
    code = main(
        ["solve", "--model", model or "rlc", "--params", params, "--trials", "3", "--out", str(tmp_path / "x")]
    )
    assert code == 2
    assert message in capsys.readouterr().err


def test_missing_output_exits_2(capsys):
    code = main(["hermite-check", "--seed", "1", "--options", '{"n_specs":1,"samples":1000}'])
    assert code == 2


def test_all_commands_are_wired():
    from plantedlab.cli import _COMMAND_IMPLS

    assert set(_COMMAND_IMPLS) == set(COMMANDS)


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
    assert {"mc.run_trials", "stability.trial"} <= set(names)
