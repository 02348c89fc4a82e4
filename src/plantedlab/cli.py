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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .bayes import estimate_mmse_curve, tpca_overlap_distribution
from .counting import count_approx_paths, count_overlap_pairs, expected_count, sample_null_graph
from .errors import ParameterError
from .lowdeg import POLY_FAMILIES, DiagramSpec, diagram_expectation, diagram_mc_oracle, stability_ratio
from .mc import default_threads, mean_stderr
from .models import MODEL_NAMES, model_name, params_from_json, params_to_json, sample_instance, signal_norm
from .rng import INSTANCE_STREAM, POLY_STREAM, derive_seed, generator
from .solvers import LllConfig, f2_solve, lll_subset_sum, shortest_path
from .stability import ESTIMATORS, measure_stability, verify_barrier

COMMANDS = (
    "mmse-curve",
    "stability",
    "barrier",
    "solve",
    "count-paths",
    "hermite-check",
    "lowdeg-stability",
    "pca-window",
)

CSV_HEADER = ["model", "params_json", "rho", "trials", "metric", "value", "stderr"]


class UsageError(Exception):
    pass


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
        if self.model is None or self.params is None:
            raise UsageError(f"command {self.command!r} needs 'model' and 'params'")
        return params_from_json({"model": self.model, **self.params})

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise UsageError(f"unknown command {self.command!r}; choose from {COMMANDS}")
        if any(not (0.0 <= r <= 1.0) for r in self.rho_grid):
            raise UsageError("rho_grid entries must lie in [0, 1]")
        if self.trials < 1:
            raise UsageError("trials must be >= 1")
        for name in self.estimators:
            if name not in ESTIMATORS:
                raise UsageError(
                    f"unknown estimator {name!r}; registered: {sorted(ESTIMATORS)}"
                )


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
    if config.output is None:
        raise UsageError("an output path is required")
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
        json.dump(sidecar, fh, sort_keys=True, indent=1)
        fh.write("\n")
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
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        y_hi = max(1.0, max(ys))
        coords = []
        for x, y in points:
            px = pad + (W - 2 * pad) * (x - 0.0) / 1.0
            py = H - pad - (H - 2 * pad) * (y / y_hi)
            coords.append(f"{px:.2f},{py:.2f}")
        parts.append(
            f'<polyline points="{" ".join(coords)}" fill="none" stroke="steelblue" stroke-width="2"/>'
        )
        for c in coords:
            x, y = c.split(",")
            parts.append(f'<circle cx="{x}" cy="{y}" r="3" fill="steelblue"/>')
    for frac, label in ((0.0, "0"), (0.5, "0.5"), (1.0, "1")):
        px = pad + (W - 2 * pad) * frac
        parts.append(f'<text x="{px:.2f}" y="{H - pad + 16}" text-anchor="middle" font-size="10">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# command implementations


def _cmd_mmse_curve(config: ExperimentConfig, threads: int):
    params = config.model_params()
    reports = estimate_mmse_curve(
        params,
        config.rho_grid,
        config.trials,
        config.seed,
        full_rank_only=bool(config.options.get("full_rank_only", False)),
        threads=threads,
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


def _cmd_stability(config: ExperimentConfig, threads: int):
    params = config.model_params()
    if not config.estimators:
        raise UsageError("stability needs at least one estimator name")
    blob = _params_blob(params)
    rows = []
    for name in config.estimators:
        for rho in config.rho_grid:
            rep = measure_stability(name, params, rho, config.trials, config.seed, threads=threads)
            rows.append(Row(rep.model, blob, rho, rep.trials, f"eta[{name}]", rep.eta_hat, rep.eta_stderr))
            rows.append(Row(rep.model, blob, rho, rep.trials, f"mse[{name}]", rep.mse_hat, rep.mse_stderr))
            rows.append(
                Row(rep.model, blob, rho, rep.trials, f"estimator_norm[{name}]", rep.estimator_norm_hat, rep.norm_stderr)
            )
    return rows, None


def _cmd_barrier(config: ExperimentConfig, threads: int):
    params = config.model_params()
    if not config.estimators:
        raise UsageError("barrier needs at least one estimator name")
    blob = _params_blob(params)
    rows = []
    for rho in config.rho_grid:
        (mmse,) = estimate_mmse_curve(params, [rho], config.trials, config.seed, threads=threads)
        rows.append(Row(mmse.model, blob, rho, mmse.trials, "mmse_rho", mmse.mmse_hat, mmse.stderr))
        for name in config.estimators:
            stab = measure_stability(name, params, rho, config.trials, config.seed, threads=threads)
            check = verify_barrier(stab, mmse, signal_norm(params))
            rows.append(Row(stab.model, blob, rho, stab.trials, f"eta[{name}]", stab.eta_hat, stab.eta_stderr))
            rows.append(Row(stab.model, blob, rho, stab.trials, f"mse[{name}]", stab.mse_hat, stab.mse_stderr))
            rows.append(
                Row(stab.model, blob, rho, stab.trials, f"barrier_margin[{name}]", check.margin, check.combined_stderr)
            )
            rows.append(
                Row(stab.model, blob, rho, stab.trials, f"barrier_holds[{name}]", float(check.holds), 0.0)
            )
    return rows, None


def _f2_recovers(inst, options) -> bool:
    sol = f2_solve(inst.A, inst.y)
    return sol.kind == "unique" and bool(np.array_equal(sol.particular, inst.x))


def _lll_recovers(inst, options) -> bool:
    cfg = LllConfig(bits=int(options.get("bits", 128)))
    return lll_subset_sum(inst.X, inst.Y, inst.params.k, cfg) == inst.S


# model -> (instance, options) -> whether the model's fast solver recovers the signal
_FAST_SOLVERS = {
    "psp": lambda inst, options: shortest_path(inst.adjacency) == inst.path,
    "rlc": _f2_recovers,
    "gss": _lll_recovers,
}


def _cmd_solve(config: ExperimentConfig, threads: int):
    params = config.model_params()
    name = model_name(params)
    if name not in _FAST_SOLVERS:
        raise UsageError("solve supports psp, rlc, and gss (no fast tensor solver)")
    recovers = _FAST_SOLVERS[name]
    hits = 0
    for t in range(config.trials):
        inst = sample_instance(params, derive_seed(config.seed, INSTANCE_STREAM, t))
        hits += recovers(inst, config.options)
    rate = hits / config.trials
    se = math.sqrt(rate * (1 - rate) / config.trials)
    rows = [Row(name, _params_blob(params), "", config.trials, "exact_recovery_rate", rate, se)]
    return rows, None


def _cmd_count_paths(config: ExperimentConfig, threads: int):
    opts = config.options
    try:
        n, m, eps_m, q = int(opts["n"]), int(opts["m"]), int(opts["eps_m"]), float(opts["q"])
    except KeyError as missing:
        raise UsageError(f"count-paths needs option {missing}") from None
    graphs = int(opts.get("graphs", config.trials))
    if graphs < 1:
        raise UsageError("count-paths needs graphs >= 1")
    counts = np.empty(graphs)
    for t in range(graphs):
        adj = sample_null_graph(n, q, derive_seed(config.seed, INSTANCE_STREAM, t))
        counts[t] = count_approx_paths(adj, m, eps_m)
    mean, se = mean_stderr(counts)
    target = expected_count(n, m, eps_m, q)
    blob = json.dumps({"eps_m": eps_m, "m": m, "n": n, "q": q}, sort_keys=True, separators=(",", ":"))
    rows = [
        Row("gnq", blob, "", graphs, "empirical_mean_count", mean, se),
        Row("gnq", blob, "", graphs, "expected_count", target, 0.0),
    ]
    if opts.get("pairs", False):
        pair_graphs = int(opts.get("pair_graphs", min(graphs, 100)))
        totals: dict[int, float] = {}
        pair_total = 0.0
        for t in range(pair_graphs):
            adj = sample_null_graph(n, q, derive_seed(config.seed, INSTANCE_STREAM, t))
            census = count_overlap_pairs(adj, m, eps_m)
            pair_total += census.pair_count
            for shared, c in census.histogram.items():
                totals[shared] = totals.get(shared, 0.0) + c
        rows.append(Row("gnq", blob, "", pair_graphs, "mean_pair_count", pair_total / pair_graphs, 0.0))
        for shared in sorted(totals):
            rows.append(
                Row("gnq", blob, "", pair_graphs, f"mean_pair_overlap[{shared}]", totals[shared] / pair_graphs, 0.0)
            )
    return rows, None


def _cmd_hermite_check(config: ExperimentConfig, threads: int):
    opts = config.options
    n_specs = int(opts.get("n_specs", 10))
    samples = int(opts.get("samples", 10**6))
    rng = generator(config.seed)
    rows = []
    for i in range(n_specs):
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
        mc, se = diagram_mc_oracle(spec, samples, derive_seed(config.seed, 5, i))
        blob = json.dumps({"alpha": list(alpha), "mean_shifted": mu is not None}, sort_keys=True)
        rows.append(Row("diagram", blob, "", samples, f"exact[{i}]", exact, 0.0))
        rows.append(Row("diagram", blob, "", samples, f"mc[{i}]", mc, se))
    return rows, None


def _cmd_lowdeg_stability(config: ExperimentConfig, threads: int):
    params = config.model_params()
    name = model_name(params)
    degree = int(config.options.get("degree", 2))
    n_polys = int(config.options.get("n_polys", 10))
    if not config.rho_grid:
        raise UsageError("lowdeg-stability needs a rho_grid")
    if name not in POLY_FAMILIES:
        raise UsageError("lowdeg-stability supports psp, rlc, and gss")
    family = POLY_FAMILIES[name]
    rng = generator(derive_seed(config.seed, POLY_STREAM))
    blob = _params_blob(params)
    rows = []
    for rho in config.rho_grid:
        rows.append(Row(name, blob, rho, config.trials, "stability_bound", family.bound(degree, rho), 0.0))
        for p in range(n_polys):
            poly = family.make(params, degree, rng)
            r = stability_ratio(poly, params, rho, config.trials, derive_seed(config.seed, 4, p), threads=threads)
            rows.append(Row(name, blob, rho, config.trials, f"stability_ratio[{p}]", r.ratio, r.stderr))
    return rows, None


def _cmd_pca_window(config: ExperimentConfig, threads: int):
    params = config.model_params()
    if model_name(params) != "tpca":
        raise UsageError("pca-window needs a tpca model")
    lambdas = config.options.get("lambdas")
    if not lambdas:
        raise UsageError("pca-window needs option 'lambdas'")
    rows = []
    for lam in lambdas:
        p_lam = replace(params, lam=float(lam))
        top_mass = np.empty(config.trials)
        for t in range(config.trials):
            inst = sample_instance(p_lam, derive_seed(config.seed, INSTANCE_STREAM, t))
            p = tpca_overlap_distribution(inst.Y, inst.support, p_lam)
            top_mass[t] = p[params.k]
        frac = float((top_mass > 0.5).mean())
        se = math.sqrt(frac * (1 - frac) / config.trials)
        blob = _params_blob(p_lam)
        rows.append(Row("tpca", blob, "", config.trials, "p_k_majority_frac", frac, se))
        rows.append(Row("tpca", blob, "", config.trials, "p_k_mean", *mean_stderr(top_mass)))
    return rows, None


_COMMAND_IMPLS = {
    "mmse-curve": _cmd_mmse_curve,
    "stability": _cmd_stability,
    "barrier": _cmd_barrier,
    "solve": _cmd_solve,
    "count-paths": _cmd_count_paths,
    "hermite-check": _cmd_hermite_check,
    "lowdeg-stability": _cmd_lowdeg_stability,
    "pca-window": _cmd_pca_window,
}


def run(config: ExperimentConfig, threads: Optional[int] = None) -> int:
    """Execute a configuration; returns the process exit status."""
    try:
        config.validate()
        if threads is None:
            threads = default_threads()
        rows, svg = _COMMAND_IMPLS[config.command](config, threads)
        written = _write_outputs(config, rows, svg)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except ParameterError as err:
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="plantedlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--model", choices=MODEL_NAMES)
        p.add_argument("--params", help="model parameters as a JSON object")
        p.add_argument("--rho-grid", help="comma-separated noise levels")
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--estimators", help="comma-separated registry names")
        p.add_argument("--out", help="output path stem (.csv/.json/.svg appended)")
        p.add_argument("--svg", action="store_true", default=None)
        p.add_argument("--deterministic", dest="deterministic", action="store_true", default=None)
        p.add_argument("--no-deterministic", dest="deterministic", action="store_false")
        p.add_argument("--threads", type=int)
        p.add_argument("--options", help="command-specific options as a JSON object")
    return parser


def config_from_args(args: argparse.Namespace) -> tuple[ExperimentConfig, Optional[int]]:
    base: dict = {"command": args.command}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        loaded.pop("command", None)
        base.update(loaded)
    if args.model is not None:
        base["model"] = args.model
    if args.params is not None:
        base["params"] = json.loads(args.params)
    if args.rho_grid is not None:
        base["rho_grid"] = [float(v) for v in args.rho_grid.split(",") if v]
    if args.trials is not None:
        base["trials"] = args.trials
    if args.seed is not None:
        base["seed"] = args.seed
    if args.estimators is not None:
        base["estimators"] = [v for v in args.estimators.split(",") if v]
    if args.out is not None:
        base["output"] = args.out
    if args.svg is not None:
        base["svg"] = args.svg
    if args.deterministic is not None:
        base["deterministic"] = args.deterministic
    if args.options is not None:
        base.setdefault("options", {})
        base["options"] = {**base["options"], **json.loads(args.options)}
    return ExperimentConfig.from_json(base), args.threads


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config, threads = config_from_args(args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except (json.JSONDecodeError, OSError, TypeError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    return run(config, threads)


if __name__ == "__main__":
    sys.exit(main())
