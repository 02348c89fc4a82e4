"""Correctness checks on every experiment a pass runs.

Each check returns the names of the checks that failed; an empty list means
the experiment is correct.  Seed-independent invariants run on every seed;
at the default seed every value is also compared with ``reference.json``,
recorded from the seed commit, within 1e-9 relative.
"""

from __future__ import annotations

import csv
import math

CSV_HEADER = ["model", "params_json", "rho", "trials", "metric", "value", "stderr"]
REL_TOL = 1e-9
ABS_TOL = 1e-12
IDENTITY_TOL = 1e-9


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def number(text: str) -> float:
    """A CSV value as a float.

    The CLI writes repr(value); under numpy >= 2 a numpy scalar reads
    'np.float64(x)' (hermite-check's exact rows).  That is a defect of the CSV
    format, counted by read_csv(), not a wrong value, so parse it here.
    """
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def read_csv(path) -> tuple[list, list, int]:
    """(header, rows, numpy reprs) of a CLI CSV.

    Each row is [metric, rho, trials, value, stderr] with the numbers parsed;
    the count is how many value or stderr cells hold a numpy scalar repr.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        table = list(csv.reader(fh))
    body = table[1:]
    rows = [[r[4], r[2], int(r[3]), number(r[5]), number(r[6])] for r in body]
    reprs = sum(cell.startswith("np.") for r in body for cell in r[5:7])
    return (table[0] if table else []), rows, reprs


def check_csv(exp: dict, header: list, rows: list) -> list[str]:
    if header != CSV_HEADER:
        return ["csv.header"]
    failed = []
    if exp["rows"] is not None and len(rows) != exp["rows"]:
        failed.append("csv.row_count")
    if not all(math.isfinite(r[3]) and math.isfinite(r[4]) for r in rows):
        failed.append("csv.finite")
    check = exp["check"]
    if check.get("barrier"):
        holds = [r[3] for r in rows if r[0].startswith("barrier_holds[")]
        if not holds or any(v != 1.0 for v in holds):
            failed.append("barrier_holds")
    if check.get("census"):
        by_metric = {r[0]: r[3] for r in rows}
        hist = [r[3] for r in rows if r[0].startswith("mean_pair_overlap[")]
        if len(rows) < 4 or not close(sum(hist), by_metric.get("mean_pair_count", math.nan)):
            failed.append("census.histogram_sum")
    return failed


def check_lll(captured: list) -> list[str]:
    """Every recovered subset meets the solver's own sum tolerance."""
    from plantedlab.models import subset_sum_value

    for (X, Y, k, config), subset in captured:
        if subset is None:
            continue
        slack = config.slack if config.slack is not None else len(X)
        tol = slack * 2.0 ** (2 - config.bits)
        if len(subset) != k or abs(subset_sum_value(X, subset) - Y) > tol:
            return ["lll.subset_tolerance"]
    return [] if captured else ["lll.no_calls"]


def check_overlap(captured: list, rows: list) -> list[str]:
    """TPCA overlap masses sum to 1, and their top masses reproduce p_k_mean.

    captured holds (k, masses) per tpca_overlap_distribution call.
    """
    import numpy as np

    failed = []
    if not captured or any(not math.isclose(float(p.sum()), 1.0, abs_tol=1e-12) for _, p in captured):
        failed.append("overlap.mass_sum")
    means = [r[3] for r in rows if r[0] == "p_k_mean"]
    trials = rows[0][2] if rows else 0
    tops = np.array([p[k] for k, p in captured])
    if trials == 0 or tops.size != trials * len(means) or not all(
        close(float(tops[i * trials:(i + 1) * trials].mean()), m) for i, m in enumerate(means)
    ):
        failed.append("overlap.p_k_mean")
    return failed


def check_character_block(row, rho: float, values: list, indices: list) -> list[str]:
    """Criterion-04 finite-size identities on one table row."""
    failed = []
    for idx2, val in zip(indices, values):
        if not math.isfinite(val):
            return ["character.finite"]
        if idx2 == row:
            if abs(val - (1 - rho) ** len(row.T)) > IDENTITY_TOL:
                failed.append("character.diagonal")
        elif idx2.T == row.T and abs(val) > IDENTITY_TOL:
            failed.append("character.orthogonal")
    return sorted(set(failed))


def literal_deviation(row, rho: float, values: list, indices: list) -> float:
    """Largest deviation from the literal (strict-xfail) identity on a row."""
    worst = 0.0
    for idx2, val in zip(indices, values):
        target = (1 - rho) ** len(row.T) if idx2 == row else 0.0
        worst = max(worst, abs(val - target))
    return worst


def compare_reference(got: list, want: list) -> list[str]:
    if len(got) != len(want):
        return ["reference.row_count"]
    for g, w in zip(got, want):
        if g[:2] != w[:2] or not (close(g[2], w[2]) and close(g[3], w[3])):
            return ["reference.values"]
    return []
