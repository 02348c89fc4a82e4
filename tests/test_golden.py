"""Golden CSVs: every command's output, byte for byte, at small sizes.

Each case runs one CLI command and compares the CSV it writes with the
checked-in file under ``tests/golden/``.  The cases cover every model on
``mmse-curve`` (plus the full-rank linear code), every registered estimator
on its model for ``stability`` and ``barrier``, the three polynomial
families of ``lowdeg-stability``, and ``solve``, ``count-paths`` (with the
pair histogram), ``pca-window`` and ``hermite-check``.

Regenerate (only for a deliberate change of output, named in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from plantedlab.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

PSP = '{"n":8,"L":3,"q":0.3}'
RLC = '{"m":8,"n":5}'
GSS = '{"N":10,"k":2}'
TPCA = '{"n":8,"k":2,"d":3,"lambda":2.0}'
ESTIMATORS = {
    "psp": (PSP, "posterior_mean,shortest_path_indicator,constant_prior_mean"),
    "rlc": (RLC, "posterior_mean,f2_round,constant_prior_mean"),
    "gss": (GSS, "posterior_mean,lll_subset_indicator,constant_prior_mean"),
    "tpca": (TPCA, "posterior_mean,constant_prior_mean"),
}

CASES: dict[str, list[str]] = {}
for _model, (_params, _names) in ESTIMATORS.items():
    CASES[f"mmse-curve-{_model}"] = [
        "mmse-curve", "--model", _model, "--params", _params,
        "--rho-grid", "0,0.25,0.75,1", "--trials", "20", "--seed", "5",
    ]
    CASES[f"stability-{_model}"] = [
        "stability", "--model", _model, "--params", _params, "--rho-grid", "0.5",
        "--trials", "20", "--seed", "5", "--estimators", _names,
    ]
    CASES[f"barrier-{_model}"] = [
        "barrier", "--model", _model, "--params", _params, "--rho-grid", "0.4",
        "--trials", "20", "--seed", "5", "--estimators", _names,
    ]
CASES.update(
    {
        "mmse-curve-rlc-full-rank": [
            "mmse-curve", "--model", "rlc", "--params", RLC, "--rho-grid", "0,0.5,1",
            "--trials", "20", "--seed", "5", "--options", '{"full_rank_only":true}',
        ],
        "lowdeg-stability-rlc": [
            "lowdeg-stability", "--model", "rlc", "--params", '{"m":8,"n":6}', "--rho-grid", "0.3",
            "--trials", "400", "--seed", "5", "--options", '{"degree":2,"n_polys":2}',
        ],
        "lowdeg-stability-gss": [
            "lowdeg-stability", "--model", "gss", "--params", GSS, "--rho-grid", "0.3",
            "--trials", "1000", "--seed", "5", "--options", '{"degree":2,"n_polys":2}',
        ],
        "lowdeg-stability-psp": [
            "lowdeg-stability", "--model", "psp", "--params", PSP, "--rho-grid", "0.3",
            "--trials", "1000", "--seed", "5", "--options", '{"degree":2,"n_polys":2}',
        ],
        "solve-psp": ["solve", "--model", "psp", "--params", PSP, "--trials", "25", "--seed", "5"],
        "solve-rlc": ["solve", "--model", "rlc", "--params", '{"m":9,"n":5}', "--trials", "25", "--seed", "5"],
        "solve-gss": ["solve", "--model", "gss", "--params", GSS, "--trials", "10", "--seed", "5"],
        "count-paths": [
            "count-paths", "--seed", "5",
            "--options", '{"n":9,"m":3,"eps_m":1,"q":0.3,"graphs":150,"pairs":true,"pair_graphs":10}',
        ],
        "pca-window": [
            "pca-window", "--model", "tpca", "--params", '{"n":8,"k":2,"d":3,"lambda":1.0}',
            "--trials", "20", "--seed", "5", "--options", '{"lambdas":[2.0,12.0]}',
        ],
        "hermite-check": ["hermite-check", "--seed", "5", "--options", '{"n_specs":4,"samples":20000}'],
    }
)


def _run(name: str, stem: Path) -> bytes:
    assert main([*CASES[name], "--out", str(stem)]) == 0, name
    return stem.with_suffix(".csv").read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_csv(name, tmp_path):
    assert _run(name, tmp_path / name) == (GOLDEN_DIR / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            (GOLDEN_DIR / f"{case}.csv").write_bytes(_run(case, Path(tmp) / case))
            print(case)
