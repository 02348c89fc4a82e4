"""Repeat the benchmark over seeds and summarise it, as a gate would.

    python3 perfbench/baseline.py --workloads barrier,exact --seeds 1-10
    python3 perfbench/baseline.py --seeds 1-10 --write perfbench/results/baseline.json

For each workload it runs ``run.py --workload W --seed s --trace 0`` once per
seed, then reports each end-to-end metric's median, quartiles and spread (the
distance between the quartiles of statistics.quantiles(values, n=4), as a
share of the median) against the metric's bound in BENCHMARK.json.  With
``--write`` it also makes one traced run per workload at the first seed, checks
the cross-workload routing claims of layers.json, and stores everything with
the run metadata.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run
import workloads


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(run.BENCH["run_seconds"]), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    out = {}
    for m in run.BENCH["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[m["name"]] = {
            "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "bound": m["bound"], "values": values,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--write", help="store the summary, traced runs and metadata in this JSON file")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    gated = {w["name"] for w in run.BENCH["workloads"]}
    summary = {"seeds": seeds, "run_seconds": run.BENCH["run_seconds"], "workloads": {}}
    steady = True
    for w in args.workloads.split(","):
        results = [one_run(w, s, 0) for s in seeds]
        stats = summarise(results)
        correct = all(r["correct"] for r in results)
        summary["workloads"][w] = {"gated": w in gated, "correct": correct, "end_to_end": stats}
        print(f"== {w}: {len(seeds)} seeds, {'all correct' if correct else 'INCORRECT RUNS'}"
              f"{'' if w in gated else ' (not in BENCHMARK.json, not gated)'}")
        for name, s in stats.items():
            flag = ""
            if name != "setup_s" and s["spread"] > s["bound"]:
                flag = "  OVER BOUND"
                steady &= w not in gated
            elif name != "setup_s" and s["spread"] > s["bound"] / 3:
                flag = "  over a third of the bound"
            print(f"  {name:<20} median {s['median']:<12.6g} {s['unit']:<6} spread {s['spread']:.4f}"
                  f"  bound {s['bound']}{flag}")
        steady &= correct
    if args.write:
        traced = {}
        for w in summary["workloads"]:
            result = one_run(w, seeds[0], 1)
            traced[w] = {k: v["value"] for k, v in result["metrics"].items()}
            summary["workloads"][w]["per_layer"] = traced[w]
        summary["routing"] = run.routing_verdicts(traced)
        summary["meta"] = run.metadata()
        for v in summary["routing"]:
            print(f"routing {'ok  ' if v['ok'] else 'FAIL'} {v['claim']}  {v['value']}")
        Path(args.write).parent.mkdir(parents=True, exist_ok=True)
        Path(args.write).write_text(json.dumps(summary, indent=1) + "\n")
        print(f"wrote {args.write}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
