"""One pass of a workload, in a fresh interpreter.

``run.py`` starts this script once per pass as ``passrun.py <spec> <root>``,
where the JSON spec names the workload, seed, trace flag and output paths,
and reads back the result file the spec names.  Set-up time is measured from
the parent's spawn to the moment ``plantedlab.cli`` (with numpy) is imported
from ``<root>/src``, on the system-wide monotonic clock both processes share;
the imports therefore run at the top of the script, before anything else.
"""

import sys
import time

spec_arg = sys.argv[1]
root = sys.argv[2]
sys.path.insert(0, root + "/src")

import numpy  # noqa: E402
import plantedlab.cli  # noqa: E402

ready = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def capture(store: list, unpack):
    """A rebind() wrapper factory that records (unpack(args, kwargs), result)."""

    def make(fn):
        def hooked(*args, **kwargs):
            result = fn(*args, **kwargs)
            store.append((unpack(args, kwargs), result))
            return result

        return hooked

    return make


def stem_of(exp: dict) -> str:
    # the CLI replaces the last suffix of --out, so the stem carries no dots
    return exp["name"].replace(".", "_")


def calibrate() -> float:
    """A fixed pure-Python plus small-numpy loop, like the program's own mix of
    interpreter work and tiny array calls.  It runs no plantedlab code, so it
    tracks the host's speed and not the program's."""
    start = time.perf_counter()
    acc = 0
    for i in range(80_000):
        acc += i * i % 7
    a = numpy.arange(16.0)
    rng = numpy.random.default_rng(0)
    for _ in range(2_000):
        float((a * 1.5 + rng.random(16)).sum())
        numpy.where(a > 3.0, a, 0.0)
    return time.perf_counter() - start


def main() -> None:
    spec = json.loads(spec_arg)
    setup_s = ready - spec["t_spawn"]
    src = Path(root, "src").resolve()
    if Path(plantedlab.cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"plantedlab imported from {plantedlab.cli.__file__}, not {src}")

    from plantedlab import lowdeg
    from plantedlab.models import RlcParams
    from plantedlab.solvers import LllConfig

    workload, seed = spec["workload"], spec["seed"]
    exps = workloads.experiments(workload, seed)
    char_params = RlcParams(**workloads.CHARACTER_PARAMS)
    indices = lowdeg.enumerate_character_indices(char_params, workloads.CHARACTER_DEGREE)
    work_dir = Path(spec["work_dir"])
    work_dir.mkdir(parents=True, exist_ok=True)

    lll_calls, overlap_calls = [], []
    tracing.rebind(
        "solvers", "lll_subset_sum",
        capture(lll_calls, lambda a, kw: (*a[:3], a[3] if len(a) > 3 else kw.get("config", LllConfig()))),
    )
    tracing.rebind("bayes", "tpca_overlap_distribution", capture(overlap_calls, lambda a, kw: a[2].k))
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    warnings.filterwarnings("ignore", message="character orthogonality")

    calib_s = [calibrate()]
    outcomes = []
    cpu0 = time.process_time()
    t_pass = time.perf_counter()
    for i, exp in enumerate(exps):
        if tracer is not None:
            tracer.experiment = i
        l0, o0 = len(lll_calls), len(overlap_calls)
        error, values = None, None
        t0 = time.perf_counter()
        try:
            if exp["kind"] == "cli":
                code = plantedlab.cli.main([*exp["argv"], "--out", str(work_dir / stem_of(exp))])
                if code != 0:
                    error = f"exit code {code}"
            else:
                row, rho = indices[exp["row"]], exp["rho"]
                values = [lowdeg.rlc_character_expectation(row, idx2, char_params, rho) for idx2 in indices]
        except Exception as exc:  # noqa: BLE001 - a failed experiment is counted, never fatal
            error = repr(exc)
        t1 = time.perf_counter()
        outcomes.append((exp, t1 - t0, error, values, lll_calls[l0:], overlap_calls[o0:]))
    wall_s = time.perf_counter() - t_pass
    cpu_s = time.process_time() - cpu0
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calib_s.append(calibrate())

    reference = None
    if seed == workloads.DEFAULT_SEED:
        ref_path = Path(__file__).with_name("reference.json")
        if ref_path.is_file():
            reference = json.loads(ref_path.read_text()).get(workloads.REFERENCE_KEY[workload])
    records, bytes_written, deviation, numpy_reprs = [], 0, 0.0, 0
    for exp, latency, error, values, lll, overlaps in outcomes:
        failed = []
        if error is not None:
            failed.append("error")
        elif exp["kind"] == "cli":
            bytes_written += sum(p.stat().st_size for p in work_dir.glob(stem_of(exp) + ".*"))
            header, rows, reprs = checks.read_csv(work_dir / (stem_of(exp) + ".csv"))
            numpy_reprs += reprs
            failed += checks.check_csv(exp, header, rows)
            if exp["check"].get("lll"):
                failed += checks.check_lll(lll)
            if exp["check"].get("overlap"):
                failed += checks.check_overlap(overlaps, rows)
            values = [[r[0], r[1], r[3], r[4]] for r in rows]
        else:
            row, rho = indices[exp["row"]], exp["rho"]
            failed += checks.check_character_block(row, rho, values, indices)
            deviation = max(deviation, checks.literal_deviation(row, rho, values, indices))
        if reference is not None and not failed:
            want = reference.get(exp["name"])
            if want is None:
                failed.append("reference.missing")
            elif exp["kind"] == "cli":
                failed += checks.compare_reference(values, want)
            elif len(values) != len(want) or not all(map(checks.close, values, want)):
                failed.append("reference.values")
        records.append({
            "name": exp["name"], "latency_s": latency, "error": error, "failed": failed,
            "trials": exp["trials"], "evals": exp["evals"], "values": values,
        })
    if workload == "exact" and deviation <= checks.IDENTITY_TOL:
        # the literal criterion-04 identity must stay false at m=3, n=2
        records[0]["failed"].append("character.counterexample_vanished")

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "bytes_written": bytes_written,
        "csv_numpy_reprs": numpy_reprs,
        "experiments": records,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "calib_s": calib_s,
        "trace": spec["trace"],
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans, bytes_written)
        result["spans"] = len(tracer.spans)
        tracer.dump(spec["spans_path"])
    Path(spec["result_path"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
