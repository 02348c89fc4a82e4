"""Experiment runner: wires the modules together behind subcommands.

Outputs a CSV with the fixed header ``model,params_json,rho,trials,metric,
value,stderr`` (one metric per row, UTF-8, LF line endings), a JSON sidecar
echoing the full configuration, and optionally a static SVG chart of NMMSE
against the noise level.  Exit codes: 0 success, 1 runtime/budget error,
2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from functools import lru_cache, partial
from itertools import cycle
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from .bayes import estimate_mmse_curve, tpca_overlap_distribution
from .counting import census_bytes, expected_count, null_graphs, overlap_histogram, path_weights
from .errors import ParameterError
from .lowdeg import POLY_FAMILIES, DiagramSpec, diagram_expectation, diagram_mc_oracle, stability_ratio
from .mc import mean_stderr
from .models import MODEL_NAMES, check_json_types, params_from_json, params_to_json
from .noise import instance_runs, trial_runs
from .rng import DIAGRAM_STREAM, INSTANCE_STREAM, POLY_STREAM, POLY_TRIAL_STREAM, derive_seed, generator, keyed_runs, trial_keys
from .solvers import LllConfig
from .stability import SOLVERS, barrier_cell, check_estimator, measure_stability_grid, solver_recoveries, verify_barrier

CSV_HEADER = ["model", "params_json", "rho", "trials", "metric", "value", "stderr"]
# config field -> its JSON type (models.check_json_types); model, params and output may also be null
_FIELD_TYPES = {
    "model": str, "trials": int, "seed": int, "rho_grid": list, "estimators": list[str], "output": str,
    "svg": bool, "deterministic": bool, "params": dict, "options": dict,
}
REQUIRED = object()  # the default of an option that must be given (and not as an empty list)


class UsageError(Exception):
    pass


class Command(NamedTuple):
    impl: Callable  # (config, options with defaults filled in) -> (rows, svg text or None)
    needs: tuple  # config fields that must be set and non-empty
    models: tuple = ()  # the models it accepts; () when it takes none
    # --options key -> (JSON type, default, least value or None); a None default is worked out by impl
    options: dict = {}


@dataclass
class ExperimentConfig:
    command: str
    model: Optional[str] = None
    params: Optional[dict] = None
    rho_grid: list = field(default_factory=list)
    trials: int = 100
    seed: int = 0
    estimators: list = field(default_factory=list)
    output: Optional[str] = None
    deterministic: bool = True
    svg: bool = False
    options: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        return cls(**obj)

    def model_params(self):
        return params_from_json({"model": self.model, **self.params})

    def validate(self) -> dict:
        """Check the config against COMMAND_TABLE; return its options with the defaults filled in."""
        spec = COMMAND_TABLE.get(self.command)
        if spec is None:
            raise UsageError(f"unknown command {self.command!r}; choose from {COMMANDS}")
        nullable = ("model", "params", "output")
        typed = {k: getattr(self, k) for k in _FIELD_TYPES if k not in nullable or getattr(self, k) is not None}
        check_json_types("config field", typed, _FIELD_TYPES)
        for key in spec.needs:
            if getattr(self, key) in (None, []):
                raise UsageError(f"{self.command} needs {key!r}")
        if spec.models:
            self.model_params()  # malformed params are reported before an unsupported model
            if self.model not in spec.models:
                raise UsageError(f"{self.command} supports models {list(spec.models)}, not {self.model!r}")
        if self.output is None:
            raise UsageError("an output path is required")
        if any(not (0.0 <= r <= 1.0) for r in self.rho_grid):
            raise UsageError("rho_grid entries must lie in [0, 1]")
        if self.trials < 1:
            raise UsageError("trials must be >= 1")
        for name in self.estimators:
            check_estimator(name)
        unknown = sorted(set(self.options) - set(spec.options))
        if unknown:
            raise UsageError(f"{self.command} reads options {sorted(spec.options)}, not {unknown}")
        check_json_types(f"{self.command} option", self.options, {key: o[0] for key, o in spec.options.items()})
        opts = {**{key: o[1] for key, o in spec.options.items() if o[1] is not None}, **self.options}
        for key, (_, _, least) in spec.options.items():
            if opts.get(key) in (REQUIRED, []):
                raise UsageError(f"{self.command} needs option {key!r}")
            if least is not None and opts.get(key, least) < least:
                raise UsageError(f"{self.command} needs {key} >= {least}")
        return opts


@dataclass
class Row:
    model: str
    params_json: str
    rho: object  # float or "" when not applicable
    trials: int
    metric: str
    value: float
    stderr: float


def _params_blob(params) -> str:
    return json.dumps(params_to_json(params), sort_keys=True, separators=(",", ":"))


def _write_outputs(config: ExperimentConfig, rows: list[Row], svg: Optional[str]) -> list[str]:
    base = Path(config.output)
    base.parent.mkdir(parents=True, exist_ok=True)
    csv_path = base.with_suffix(".csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow(
                [r.model, r.params_json, repr(r.rho) if r.rho != "" else "", r.trials, r.metric, repr(r.value), repr(r.stderr)]
            )
    sidecar = {
        "config": config.to_json(),
        "rows": [
            {"metric": r.metric, "rho": r.rho, "value": r.value, "stderr": r.stderr}
            for r in rows
        ],
    }
    json_path = base.with_suffix(".json")
    with open(json_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(sidecar, sort_keys=True, indent=1) + "\n")
    written = [str(csv_path), str(json_path)]
    if svg is not None:
        svg_path = base.with_suffix(".svg")
        with open(svg_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(svg)
        written.append(str(svg_path))
    return written


def nmmse_svg(points: list[tuple[float, float]], title: str) -> str:
    """Static line chart (polyline + axes), no plotting dependency."""
    W, H, pad = 480, 320, 48
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<line x1="{pad}" y1="{H - pad}" x2="{W - pad}" y2="{H - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{H - pad}" stroke="black"/>',
        f'<text x="{W // 2}" y="{H - 12}" text-anchor="middle" font-size="12">noise level</text>',
        f'<text x="14" y="{H // 2}" text-anchor="middle" font-size="12" transform="rotate(-90 14 {H // 2})">NMMSE</text>',
        f'<text x="{W // 2}" y="20" text-anchor="middle" font-size="13">{title}</text>',
    ]
    if points:
        y_hi = max(1.0, max(y for _, y in points))
        # pixel coordinates, formatted once for both the polyline and the markers
        coords = [(f"{pad + (W - 2 * pad) * x:.2f}", f"{H - pad - (H - 2 * pad) * (y / y_hi):.2f}") for x, y in points]
        polyline = " ".join(f"{x},{y}" for x, y in coords)
        parts.append(f'<polyline points="{polyline}" fill="none" stroke="steelblue" stroke-width="2"/>')
        parts += [f'<circle cx="{x}" cy="{y}" r="3" fill="steelblue"/>' for x, y in coords]
    for frac, label in ((0.0, "0"), (0.5, "0.5"), (1.0, "1")):
        px = pad + (W - 2 * pad) * frac
        parts.append(f'<text x="{px:.2f}" y="{H - pad + 16}" text-anchor="middle" font-size="10">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# command implementations


def _cmd_mmse_curve(config: ExperimentConfig, opts: dict):
    params = config.model_params()
    reports = estimate_mmse_curve(
        params,
        config.rho_grid,
        config.trials,
        config.seed,
        full_rank_only=opts["full_rank_only"],
    )
    blob = _params_blob(params)
    rows = []
    for rep in reports:
        rows.append(Row(rep.model, blob, rep.rho, rep.trials, "mmse", rep.mmse_hat, rep.stderr))
        rows.append(
            Row(rep.model, blob, rep.rho, rep.trials, "nmmse", rep.nmmse_hat, rep.stderr / rep.signal_norm)
        )
    svg = None
    if config.svg:
        svg = nmmse_svg([(rep.rho, rep.nmmse_hat) for rep in reports], f"{reports[0].model} NMMSE")
    return rows, svg


def _estimator_rows(rep, blob: str, rho, *extra: tuple) -> list[Row]:
    """Rows eta[name], mse[name], then metric[name] for each (metric, value, stderr) in extra."""
    cells = [("eta", rep.eta_hat, rep.eta_stderr), ("mse", rep.mse_hat, rep.mse_stderr), *extra]
    return [Row(rep.model, blob, rho, rep.trials, f"{metric}[{rep.estimator}]", v, se) for metric, v, se in cells]


def _cmd_stability(config: ExperimentConfig, opts: dict):
    params = config.model_params()
    blob = _params_blob(params)
    # estimator-major, as the reports come, and so is the first failure raised
    reports = measure_stability_grid(config.estimators, params, config.rho_grid, config.trials, config.seed)
    rows = []
    for rep, rho in zip(reports, cycle(config.rho_grid)):
        rows += _estimator_rows(rep, blob, rho, ("estimator_norm", rep.estimator_norm_hat, rep.norm_stderr))
    return rows, None


def _cmd_barrier(config: ExperimentConfig, opts: dict):
    params = config.model_params()
    blob = _params_blob(params)
    rows = []
    for rho in config.rho_grid:
        mmse, stabs = barrier_cell(config.estimators, params, rho, config.trials, config.seed)
        rows.append(Row(mmse.model, blob, rho, mmse.trials, "mmse_rho", mmse.mmse_hat, mmse.stderr))
        for stab in stabs:
            check = verify_barrier(stab, mmse)
            margin = ("barrier_margin", check.margin, check.combined_stderr)
            rows += _estimator_rows(stab, blob, rho, margin, ("barrier_holds", float(check.holds), 0.0))
    return rows, None


def _cmd_solve(config: ExperimentConfig, opts: dict):
    params = config.model_params()
    cfg = LllConfig(bits=opts["bits"])
    hits = sum(int(solver_recoveries(run, cfg).sum()) for run in instance_runs(params, config.seed, config.trials))
    rate = hits / config.trials
    se = math.sqrt(rate * (1 - rate) / config.trials)
    rows = [Row(config.model, _params_blob(params), "", config.trials, "exact_recovery_rate", rate, se)]
    return rows, None


def _cmd_count_paths(config: ExperimentConfig, opts: dict):
    n, m, eps_m, q = opts["n"], opts["m"], opts["eps_m"], float(opts["q"])
    graphs = opts.get("graphs", config.trials)
    pairs = opts["pairs"]
    if "pair_graphs" in opts and not pairs:
        raise UsageError("count-paths reads pair_graphs only with pairs")
    pair_graphs = opts.get("pair_graphs", min(graphs, 100)) if pairs else 0
    target = expected_count(n, m, eps_m, q)  # checks n, m, eps_m and q before any draw
    total = max(graphs, pair_graphs)
    runs = trial_runs(total, census_bytes(n, m))
    edge_runs = keyed_runs(partial(null_graphs, n, q), trial_keys(config.seed, INSTANCE_STREAM, n=total), runs)
    counts = np.empty(total, dtype=np.int64)
    totals: Counter = Counter()
    # graph t serves both the count (t < graphs) and the pair census (t < pair_graphs)
    for ts, edges in zip(runs, edge_runs):
        paths, weights = path_weights(edges, n, m, eps_m)
        counts[ts.start : ts.stop] = weights.sum(axis=-1)
        if ts.start < pair_graphs:
            totals.update(overlap_histogram(paths, weights[: pair_graphs - ts.start]))
    mean, se = mean_stderr(counts[:graphs])
    blob = json.dumps({"eps_m": eps_m, "m": m, "n": n, "q": q}, sort_keys=True, separators=(",", ":"))
    rows = [
        Row("gnq", blob, "", graphs, "empirical_mean_count", mean, se),
        Row("gnq", blob, "", graphs, "expected_count", target, 0.0),
    ]
    if pairs:
        rows.append(Row("gnq", blob, "", pair_graphs, "mean_pair_count", sum(totals.values()) / pair_graphs, 0.0))
        for shared in sorted(totals):
            rows.append(
                Row("gnq", blob, "", pair_graphs, f"mean_pair_overlap[{shared}]", totals[shared] / pair_graphs, 0.0)
            )
    return rows, None


def _cmd_hermite_check(config: ExperimentConfig, opts: dict):
    samples = opts["samples"]
    rng = generator(config.seed)
    rows = []
    for i in range(opts["n_specs"]):
        k = int(rng.integers(2, 4))
        G = rng.standard_normal((k, k + 1))
        cov = G @ G.T
        dd = np.sqrt(np.diag(cov))
        R = cov / np.outer(dd, dd)
        alpha = tuple(int(a) for a in rng.integers(0, 3, size=k))
        if sum(alpha) == 0:
            alpha = (1,) + alpha[1:]
        mu = rng.standard_normal(k) * 0.5 if i % 2 else None
        spec = DiagramSpec(alpha, R, mu)
        exact = diagram_expectation(spec)
        mc, se = diagram_mc_oracle(spec, samples, derive_seed(config.seed, DIAGRAM_STREAM, i))
        blob = json.dumps({"alpha": list(alpha), "mean_shifted": mu is not None}, sort_keys=True)
        rows.append(Row("diagram", blob, "", samples, f"exact[{i}]", exact, 0.0))
        rows.append(Row("diagram", blob, "", samples, f"mc[{i}]", mc, se))
    return rows, None


def _cmd_lowdeg_stability(config: ExperimentConfig, opts: dict):
    params = config.model_params()
    name = config.model
    family = POLY_FAMILIES[name]
    rng = generator(derive_seed(config.seed, POLY_STREAM))
    blob = _params_blob(params)
    rows = []
    for rho in config.rho_grid:
        rows.append(Row(name, blob, rho, config.trials, "stability_bound", family.bound(opts["degree"], rho), 0.0))
        for p in range(opts["n_polys"]):
            poly = family.make(params, opts["degree"], rng)
            r = stability_ratio(poly, params, rho, config.trials, derive_seed(config.seed, POLY_TRIAL_STREAM, p))
            rows.append(Row(name, blob, rho, config.trials, f"stability_ratio[{p}]", r.ratio, r.stderr))
    return rows, None


def _cmd_pca_window(config: ExperimentConfig, opts: dict):
    params = config.model_params()
    rows = []
    for lam in opts["lambdas"]:
        p_lam = replace(params, lam=float(lam))
        top_mass = np.array(
            [
                tpca_overlap_distribution(Y, support, p_lam)[params.k]
                for run in instance_runs(p_lam, config.seed, config.trials)
                for Y, support in zip(run.Y, run.support)
            ]
        )
        frac = float((top_mass > 0.5).mean())
        se = math.sqrt(frac * (1 - frac) / config.trials)
        blob = _params_blob(p_lam)
        rows.append(Row("tpca", blob, "", config.trials, "p_k_majority_frac", frac, se))
        rows.append(Row("tpca", blob, "", config.trials, "p_k_mean", *mean_stderr(top_mass)))
    return rows, None


_GRID = ("model", "params", "rho_grid")
COMMAND_TABLE = {
    "mmse-curve": Command(_cmd_mmse_curve, _GRID, MODEL_NAMES, {"full_rank_only": (bool, False, None)}),
    "stability": Command(_cmd_stability, (*_GRID, "estimators"), MODEL_NAMES),
    "barrier": Command(_cmd_barrier, (*_GRID, "estimators"), MODEL_NAMES),
    "solve": Command(_cmd_solve, ("model", "params"), tuple(s.model for s in SOLVERS.values()), {"bits": (int, 128, None)}),
    "count-paths": Command(
        _cmd_count_paths,
        (),
        options={
            **dict.fromkeys(("n", "m", "eps_m"), (int, REQUIRED, None)),
            "q": (float, REQUIRED, None),
            "graphs": (int, None, 1),  # default: trials
            "pairs": (bool, False, None),
            "pair_graphs": (int, None, 1),  # default: min(graphs, 100)
        },
    ),
    "hermite-check": Command(_cmd_hermite_check, (), options={"n_specs": (int, 10, 1), "samples": (int, 10**6, 0)}),
    "lowdeg-stability": Command(
        _cmd_lowdeg_stability, _GRID, tuple(POLY_FAMILIES), {"degree": (int, 2, 0), "n_polys": (int, 10, 1)}
    ),
    "pca-window": Command(_cmd_pca_window, ("model", "params"), ("tpca",), {"lambdas": (list, REQUIRED, None)}),
}
COMMANDS = tuple(COMMAND_TABLE)


def run(config: ExperimentConfig) -> int:
    """Execute a configuration; returns the process exit status."""
    try:
        opts = config.validate()
        rows, svg = COMMAND_TABLE[config.command].impl(config, opts)
        written = _write_outputs(config, rows, svg)
    except (UsageError, ParameterError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - budget/runtime failures
        print(f"error [{config.command}]: {err}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@lru_cache(maxsize=None)  # parse_args leaves the parser as it was, so one serves every main() call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="plantedlab", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    parser.add_argument("--model", choices=MODEL_NAMES)
    parser.add_argument("--params", type=json.loads, help="model parameters as a JSON object")
    parser.add_argument("--rho-grid", type=float_list, help="comma-separated noise levels")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument(
        "--estimators", type=lambda text: [v for v in text.split(",") if v], help="comma-separated registry names"
    )
    parser.add_argument("--out", dest="output", help="output path stem (.csv/.json/.svg appended)")
    parser.add_argument("--svg", action="store_true", default=None)
    parser.add_argument("--deterministic", dest="deterministic", action="store_true", default=None)
    parser.add_argument("--no-deterministic", dest="deterministic", action="store_false")
    parser.add_argument("--threads", type=int, help="accepted and ignored: trials run serially")
    parser.add_argument("--options", type=json.loads, help="command-specific options as a JSON object")
    return parser


def float_list(text: str) -> list[float]:
    """The --rho-grid type: comma-separated numbers."""
    return [float(v) for v in text.split(",") if v]


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    base: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise UsageError(f"config file {args.config} must hold a JSON object")
    flags = {f.name: value for f in fields(ExperimentConfig) if (value := getattr(args, f.name)) is not None}
    if "options" in base and "options" in flags:  # --options keys override the file's
        flags["options"] = {**base["options"], **flags["options"]}
    return ExperimentConfig.from_json({**base, **flags})


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = config_from_args(args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except (UsageError, json.JSONDecodeError, OSError, TypeError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
