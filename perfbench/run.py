"""The workbench benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload barrier --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another
    python3 perfbench/run.py --workload all --record-reference   # rewrite reference.json

Run it from the root of a checkout; it imports plantedlab from ``src/`` there.
Each pass of a workload runs in a fresh interpreter (``passrun.py``), so lazy
caches start cold as they do for a CLI user.  A run makes a fixed number of
passes sized from ``--seconds``.  With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and prints
the per-layer metrics, the layer-share table and the routing claims of
``layers.json``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
writes a record with its metadata and raw samples under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads
from tracing import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_BUDGET_S = 60.0  # stop starting passes after this; a run must exit within 180 s
# The calibration loop's fastest time on the reference host (a shared 2-core
# Xeon, in its fast regime).  Times are reported at this host speed.
CALIB_NOMINAL_S = 0.015


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile with >= 10 samples beyond it."""
    s = sorted(values)
    rank = tracing.tail_index(len(s))
    return s[rank], 100.0 * (rank + 1) / len(s), len(s)


def typical_pass(passes: list, threads: int) -> list:
    """Each experiment's latency over the passes, in pass order, filtered for
    host noise: the fastest for one thread, the median for a thread pool.

    On a shared host, neighbours slow a CPU-bound process by up to 70% in
    episodes of 5-20 s, and never speed it up, so one thread's fastest pass
    estimates its cost (the rule timeit uses).  A pool's fastest pass is the
    rare moment when both cores were free at once, so its median is steadier.
    """
    pick = min if threads == 1 else median
    return [
        pick([p["experiments"][i]["latency_s"] for p in passes])
        for i in range(len(passes[0]["experiments"]))
    ]


def host_factor(passes: list) -> float:
    """CALIB_NOMINAL_S over the calibration loop's fastest time in the run.

    Slow regimes on the shared host last a minute or more, longer than a run,
    so even an experiment's fastest pass can be 1.8 times slow.  The
    calibration loop runs before and after every pass and slows with the
    host; scaling by it reports times at the reference host's speed.
    Over 15-second windows this cut the spread of a filtered time from 0.14
    to 0.05.
    """
    return CALIB_NOMINAL_S / min(c for p in passes for c in p["calib_s"])


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PLANTEDLAB_THREADS", None)  # every experiment passes --threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # the program's own pool is the only parallelism measured
    return env


def run_pass(workload: str, seed: int, trace: bool, index: int, timeout: float) -> dict:
    tag = f"{workload}-seed{seed}-{'t' if trace else 'u'}{index}"
    work_dir = OUT / "work" / tag
    result_path = OUT / "work" / f"{tag}.json"
    log_path = OUT / "logs" / f"{tag}.stderr"
    log_path.parent.mkdir(parents=True, exist_ok=True)
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    spec = {
        "workload": workload, "seed": seed, "trace": trace, "work_dir": str(work_dir),
        "result_path": str(result_path), "spans_path": str(OUT / "spans" / f"{tag}.jsonl.gz"),
    }
    result_path.unlink(missing_ok=True)
    with open(log_path, "w", encoding="utf-8") as log:
        spec["t_spawn"] = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "passrun.py"), json.dumps(spec), str(ROOT)],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log, env=child_env(),
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "timeout"
    shutil.rmtree(work_dir, ignore_errors=True)
    if code != 0 or not result_path.is_file():
        return {"error": f"pass exited with {code}; see {log_path.relative_to(ROOT)}"}
    result = json.loads(result_path.read_text())
    result_path.unlink()
    if log_path.stat().st_size == 0:
        log_path.unlink()
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat passes until the next one would end after ``seconds``, but make
    at least MIN_PASSES (a traced run: 3 untraced and 3 traced, alternating)."""
    n_exps = len(workloads.experiments(workload, seed))
    min_passes = 6 if trace else workloads.MIN_PASSES
    started = time.perf_counter()
    deadline = started + RUN_BUDGET_S
    passes, errors = [], []
    last = longest = 0.0
    while True:
        now = time.perf_counter()
        enough = len(passes) >= min_passes and not (trace and len(passes) % 2)
        if enough and now + last > started + seconds:
            break
        if passes and now + 2 * longest > deadline:
            errors.append(f"stopped after {len(passes)} passes to stay within the time limit")
            break
        traced = trace and len(passes) % 2 == 1
        result = run_pass(workload, seed, traced, len(passes), max(5.0, deadline - now))
        last = time.perf_counter() - now
        longest = max(longest, last)
        result["traced"] = traced
        passes.append(result)
        if "error" in result:
            errors.append(result["error"])

    ok = [p for p in passes if "error" not in p]
    attempted = n_exps * len(passes)
    failed_names = {}
    failed = n_exps * (len(passes) - len(ok))
    for p in ok:
        for e in p["experiments"]:
            if e["failed"]:
                failed += 1
                failed_names.setdefault(e["name"], set()).update(e["failed"])
    untraced = [p for p in ok if not p["traced"]]
    traced_passes = [p for p in ok if p["traced"]]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "threads": workloads.THREADS[workload], "passes": len(passes),
        "experiments_per_pass": n_exps, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "failed_checks": {k: sorted(v) for k, v in sorted(failed_names.items())},
        "errors": errors, "run_s": time.perf_counter() - started,
    }
    if untraced:
        host = host_factor(untraced)
        typical = [host * t for t in typical_pass(untraced, record["threads"])]
        wall_s = sum(typical)
        tail_value, tail_pct, tail_n = tail(typical * len(untraced))
        record["tail"] = {"percentile": tail_pct, "samples": tail_n}
        first = untraced[0]["experiments"]
        record["end_to_end"] = {
            "setup_s": host * median([p["setup_s"] for p in untraced]),
            "wall_s": wall_s,
            "experiment_s.p50": median(typical),
            "experiment_s.tail": tail_value,
            "trials_per_s": sum(e["trials"] for e in first) / wall_s,
            "evals_per_s": sum(e["evals"] for e in first) / wall_s,
            "peak_rss_mb": median([p["peak_rss_mb"] for p in untraced]),
            "success_frac": 1.0 - record["failed_frac"],
        }
        record["diagnostics"] = {
            "host_factor": host,
            "calib_s": median([c for p in ok for c in p["calib_s"]]),
            "cpu_s": median([p["cpu_s"] for p in untraced]),
            "csv_numpy_reprs": max(p["csv_numpy_reprs"] for p in ok),
            "wall_s_unadjusted": wall_s / host,
            "pass_wall_s_median": median([p["wall_s"] for p in untraced]),
            "wall_s_samples": [p["wall_s"] for p in untraced],
            "setup_s_samples": [p["setup_s"] for p in untraced],
            "latency_s_samples": {
                e["name"]: [q["experiments"][i]["latency_s"] for q in untraced] for i, e in enumerate(first)
            },
            "python": ok[0]["python"], "numpy": ok[0]["numpy"],
        }
    if traced_passes:
        names = traced_passes[0]["layers"].keys()
        layers = {k: median([p["layers"][k] for p in traced_passes]) for k in names}
        layers["trace.overhead_frac"] = (
            sum(typical_pass(traced_passes, record["threads"])) / sum(typical_pass(untraced, record["threads"])) - 1.0
            if untraced else 0.0
        )
        record["layers"] = layers
        record["spans_per_pass"] = median([p["spans"] for p in traced_passes])
        record["routing"] = routing_verdicts({workload: layers})
    return record


def routing_verdicts(shares_by_workload: dict) -> list:
    """Evaluate the claims of layers.json that the given traced runs cover.

    A claim names layers; its value on a workload is the sum of their shares.
    ``min``/``max`` bound that value on one workload; ``than`` asks it to be
    larger on ``workload`` than on the workload ``than`` names.
    """
    claims = json.loads((HERE / "layers.json").read_text())["claims"]
    out = []
    for claim in claims:
        where = [claim["workload"]] + ([claim["than"]] if "than" in claim else [])
        if not all(w in shares_by_workload for w in where):
            continue
        value = [sum(shares_by_workload[w][f"{l}.share"] for l in claim["layers"]) for w in where]
        if "than" in claim:
            ok = value[0] > value[1]
        else:
            ok = claim.get("min", -1.0) <= value[0] <= claim.get("max", 2.0)
        out.append({"claim": claim["text"], "value": value, "ok": ok})
    return out


def metadata() -> dict:
    """Host and version facts recorded with every run; missing ones read None."""
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "nproc": os.cpu_count(), "cpu_model": cpu_model, "caches": caches}


def print_record(record: dict) -> None:
    w = record["workload"]
    print(f"== {w}  seed {record['seed']}  threads {record['threads']}  "
          f"passes {record['passes']}  run {record['run_s']:.1f} s")
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    for name, value in record.get("end_to_end", {}).items():
        extra = ""
        if name == "experiment_s.tail":
            extra = f"  (p{record['tail']['percentile']:.1f} of {record['tail']['samples']} experiments)"
        print(f"  {name:<22} {value:12.6g} {units[name]}{extra}")
    if "diagnostics" in record:
        d = record["diagnostics"]
        print(f"  {'calib_s (diagnostic)':<22} {d['calib_s']:12.6g} s   host factor {d['host_factor']:.3f}   "
              f"unadjusted wall_s {d['wall_s_unadjusted']:.4g} s   cpu_s {d['cpu_s']:.3f}   "
              f"failed_frac {record['failed_frac']:.4g}")
        if d["csv_numpy_reprs"]:
            print(f"  note: {d['csv_numpy_reprs']} CSV cells per pass are written as np.float64(...), not plain numbers")
    if "layers" in record:
        layers = record["layers"]
        print("  layer self-time shares: " + "  ".join(
            f"{l} {100 * layers[f'{l}.share']:.1f}%" for l in tracing.LAYERS))
        print(f"  trace.overhead_frac {layers['trace.overhead_frac']:.3f}")
        for v in record["routing"]:
            print(f"  routing {'ok  ' if v['ok'] else 'FAIL'} {v['claim']}  {v['value']}")
    verdict = "correct" if record["failed"] == 0 else f"INCORRECT: {record['failed']} of {record['attempted']} failed"
    print(f"  {verdict}")
    for name, checks in record["failed_checks"].items():
        print(f"    {name}: {', '.join(checks)}")
    for err in record["errors"]:
        print(f"    {err}")


def result_line(record: dict) -> str:
    group = "per_layer" if record["trace"] else "end_to_end"
    source = record.get("layers" if record["trace"] else "end_to_end", {})
    metrics = {m["name"]: {"value": source.get(m["name"], 0.0), "unit": m["unit"]} for m in BENCH[group]}
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def record_reference(names) -> int:
    """Rewrite the workloads' entries of reference.json from one pass each at
    the default seed; refuse if any check other than the reference fails."""
    path = HERE / "reference.json"
    ref = json.loads(path.read_text()) if path.is_file() else {}
    for w in names:
        if workloads.REFERENCE_KEY[w] != w:
            continue  # checked against another workload's references
        result = run_pass(w, workloads.DEFAULT_SEED, False, 0, RUN_BUDGET_S)
        if "error" in result:
            print(result["error"], file=sys.stderr)
            return 1
        for e in result["experiments"]:
            if any(not name.startswith("reference.") for name in e["failed"]):
                print(f"{w}: {e['name']} failed {e['failed']}; reference not written", file=sys.stderr)
                return 1
        ref[workloads.REFERENCE_KEY[w]] = {e["name"]: e["values"] for e in result["experiments"]}
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="run one untraced pass per workload at the default seed and rewrite reference.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "plantedlab" / "__init__.py").is_file():
        print(f"error: no plantedlab sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if args.record_reference:
        return record_reference(names)

    meta = metadata()
    records = {}
    for w in names:
        record = run_workload(w, args.seed, args.seconds, bool(args.trace))
        record["meta"] = meta
        runs = OUT / "runs"
        runs.mkdir(parents=True, exist_ok=True)
        (runs / f"{w}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
        print_record(record)
        records[w] = record
    if args.trace and len(records) > 1:
        for v in routing_verdicts({w: r["layers"] for w, r in records.items() if "layers" in r}):
            print(f"routing {'ok  ' if v['ok'] else 'FAIL'} {v['claim']}  {v['value']}")
    for w in names:
        print(result_line(records[w]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
