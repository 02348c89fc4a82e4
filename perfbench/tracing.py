"""Outside-in tracing of plantedlab's layers, from the benchmark's own files.

``Tracer.install`` rebinds each traced function in every ``plantedlab.*``
namespace that holds it (modules resolve these globals at call time), plus the
``evaluate`` methods of the three polynomial classes.  Each call becomes a span
(name, start, end, parent span, thread, experiment id, tag).  Span stacks are
per thread; trial functions that ``mc.run_trials`` hands to its thread pool
open a ``<layer>.trial`` span whose parent is the ``mc.run_trials`` span of the
calling thread.  Self time subtracts only same-thread children, so on a pool
``mc.self_s`` is the time the caller waits for its workers.

Spans stay in memory until ``dump``.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import math
import statistics
import sys
import threading
from time import perf_counter

LAYERS = ("rng", "models", "noise", "bayes", "solvers", "stability", "mc", "lowdeg", "counting", "cli")


def _posterior_tag(args, kwargs, result):
    params = args[0]
    model = type(params).__name__[:-len("Params")].lower()
    if model == "psp":
        configs = math.perm(params.n - 2, params.L - 1)
    elif model == "rlc":
        configs = 2 ** params.n
    elif model == "gss":
        configs = math.comb(params.N, params.k)
    else:
        configs = math.comb(params.n, params.k)
    return model, configs


def _poly_tag(args, kwargs, result):
    return type(args[0]).__name__[:-len("Poly")].lower().replace("symmetric", ""), 0


def _character_tag(args, kwargs, result):
    params = args[2]
    return None, 2 ** (params.m * params.n + params.n + params.m)


def _overlap_pairs_tag(args, kwargs, result):
    adjacency, m = args[0], args[1]
    paths = math.perm(adjacency.shape[0] - 3, m - 1)
    return None, paths * paths


def _lll_tag(args, kwargs, result):
    return ("hit" if result is not None else "miss"), 0


# (module, attribute, span name, tag function).  Trial bodies handed to
# mc.run_trials are wrapped separately, under their defining module's layer.
TRACED = (
    ("rng", "derive_seed", "rng.derive_seed", None),
    ("rng", "generator", "rng.generator", None),
    ("models", "sample_instance", "models.sample", None),
    ("models", "path_edge_indices", "models.path_edge_indices", None),
    ("noise", "noise_instance_observation", "noise.apply", None),
    ("bayes", "posterior_mean_for", "bayes.posterior", _posterior_tag),
    ("bayes", "estimate_mmse_curve", "bayes.estimate_mmse_curve", None),
    ("bayes", "tpca_overlap_distribution", "bayes.overlap", None),
    ("bayes", "_sample_full_rank_rlc", "bayes.full_rank_sample", None),
    ("solvers", "shortest_path", "solvers.shortest_path", None),
    ("solvers", "f2_solve", "solvers.f2_solve", None),
    ("solvers", "f2_rank", "solvers.f2_rank", None),
    ("solvers", "lll_subset_sum", "solvers.lll_subset_sum", _lll_tag),
    ("stability", "measure_stability", "stability.measure_stability", None),
    ("stability", "verify_barrier", "stability.verify_barrier", None),
    ("mc", "mean_stderr", "mc.mean_stderr", None),
    ("mc", "ratio_with_stderr", "mc.ratio_with_stderr", None),
    ("lowdeg", "rlc_character_expectation", "lowdeg.character", _character_tag),
    ("lowdeg", "diagram_expectation", "lowdeg.diagram", None),
    ("lowdeg", "diagram_mc_oracle", "lowdeg.diagram_mc", None),
    ("lowdeg", "stability_ratio", "lowdeg.stability_ratio", None),
    ("lowdeg", "random_rlc_poly", "lowdeg.random_poly", None),
    ("lowdeg", "random_gss_poly", "lowdeg.random_poly", None),
    ("lowdeg", "random_psp_symmetric_poly", "lowdeg.random_poly", None),
    ("counting", "sample_null_graph", "counting.null_graph", None),
    ("counting", "count_approx_paths", "counting.approx_paths", None),
    ("counting", "count_overlap_pairs", "counting.overlap_pairs", _overlap_pairs_tag),
    ("counting", "expected_count", "counting.expected_count", None),
    ("cli", "main", "cli.main", None),
)
POLY_CLASSES = ("RlcPoly", "GssPoly", "PspSymmetricPoly")


def rebind(module_name: str, attr: str, make_wrapper) -> None:
    """Replace plantedlab.<module_name>.<attr> with make_wrapper(original)
    in every loaded plantedlab namespace that binds the same object."""
    original = getattr(sys.modules[f"plantedlab.{module_name}"], attr)
    wrapped = make_wrapper(original)
    for name, mod in list(sys.modules.items()):
        if name == "plantedlab" or name.startswith("plantedlab."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, parent, thread, experiment, start, end, tag, work)
        self.experiment = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, tag_fn, args, kwargs, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            stack.pop()
            tag, work = tag_fn(args, kwargs, result) if tag_fn else (None, 0)
            self.spans.append(
                (sid, name, parent, threading.get_ident(), self.experiment, start, end, tag, work)
            )

    def wrap(self, name, fn, tag_fn=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, tag_fn, args, kwargs)

        return traced

    def _wrap_run_trials(self, run_trials):
        @functools.wraps(run_trials)
        def traced(n, fn, threads=1):
            owner = self._stack()
            layer = fn.__module__.rpartition(".")[2]

            def trial(t):
                # pool threads start with an empty stack: parent them explicitly
                parent = None if self._stack() is owner else owner[-1]
                return self._call(f"{layer}.trial", fn, None, (t,), {}, parent)

            return self._call("mc.run_trials", run_trials, None, (n, trial, threads), {})

        return traced

    def install(self) -> None:
        for module, attr, name, tag_fn in TRACED:
            rebind(module, attr, lambda fn, name=name, tag_fn=tag_fn: self.wrap(name, fn, tag_fn))
        rebind("mc", "run_trials", self._wrap_run_trials)
        lowdeg = sys.modules["plantedlab.lowdeg"]
        for cls_name in POLY_CLASSES:
            cls = getattr(lowdeg, cls_name)
            cls.evaluate = self.wrap("lowdeg.poly_eval", cls.evaluate, _poly_tag)

    def dump(self, path) -> None:
        """Write the spans as gzip'd JSON lines, one span per line."""
        fields = ("id", "name", "parent", "thread", "experiment", "start", "end", "tag", "work")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span)), separators=(",", ":")))
                fh.write("\n")


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def tail_index(n: int) -> int:
    """0-based rank of the highest percentile with >= 10 samples beyond it."""
    return max(0, n - 11)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def _tail(values: list) -> float:
    return sorted(values)[tail_index(len(values))] if values else 0.0


def layer_metrics(spans: list, bytes_written: int) -> dict:
    """Per-layer metrics of one traced pass (see BENCHMARK.json for names)."""
    thread_of = {span[0]: span[3] for span in spans}
    full_rank_ids = {span[0] for span in spans if span[1] == "bayes.full_rank_sample"}
    child_time = {}
    for sid, name, parent, thread, exp, start, end, tag, work in spans:
        if parent is not None and thread_of.get(parent) == thread:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    self_s = {layer: 0.0 for layer in LAYERS}
    durations: dict[str, list] = {}
    by_tag: dict[tuple, list] = {}
    work_total: dict[str, int] = {}
    time_total: dict[str, float] = {}
    sample_calls = full_rank_calls = nested_samples = 0
    for sid, name, parent, thread, exp, start, end, tag, work in spans:
        dur = end - start
        self_s[name.partition(".")[0]] += dur - child_time.get(sid, 0.0)
        durations.setdefault(name, []).append(dur)
        if tag is not None:
            by_tag.setdefault((name, tag), []).append(dur)
        if work:
            work_total[name] = work_total.get(name, 0) + work
            time_total[name] = time_total.get(name, 0.0) + dur
        if name == "models.sample":
            sample_calls += 1
            nested_samples += parent in full_rank_ids
        elif name == "bayes.full_rank_sample":
            full_rank_calls += 1

    def calls(name):
        return len(durations.get(name, ()))

    def us_p50(name, tag=None):
        return 1e6 * median(by_tag.get((name, tag), []) if tag else durations.get(name, []))

    def ns_per(name):
        return 1e9 * time_total[name] / work_total[name] if work_total.get(name) else 0.0

    accepted = sample_calls - nested_samples + full_rank_calls
    lll = durations.get("solvers.lll_subset_sum", [])
    total_self = sum(self_s.values()) or 1.0
    out = {
        "rng.derive_seed.calls": calls("rng.derive_seed"),
        "rng.derive_seed.us_p50": us_p50("rng.derive_seed"),
        "rng.generator.calls": calls("rng.generator"),
        "rng.generator.us_p50": us_p50("rng.generator"),
        "models.sample.calls": sample_calls,
        "models.sample.us_p50": us_p50("models.sample"),
        "models.draws_per_trial": sample_calls / accepted if accepted else 0.0,
        "noise.apply.calls": calls("noise.apply"),
        "noise.apply.us_p50": us_p50("noise.apply"),
        "bayes.posterior.calls": calls("bayes.posterior"),
        "bayes.posterior.us_p50": us_p50("bayes.posterior"),
        "bayes.posterior.us_tail": 1e6 * _tail(durations.get("bayes.posterior", [])),
        **{f"bayes.posterior.{m}.us_p50": us_p50("bayes.posterior", m) for m in ("psp", "rlc", "gss", "tpca")},
        "bayes.posterior.ns_per_config": ns_per("bayes.posterior"),
        "bayes.overlap.us_p50": us_p50("bayes.overlap"),
        "solvers.shortest_path.us_p50": us_p50("solvers.shortest_path"),
        "solvers.f2_solve.us_p50": us_p50("solvers.f2_solve"),
        "solvers.f2_rank.calls": calls("solvers.f2_rank"),
        "solvers.lll_subset_sum.calls": len(lll),
        "solvers.lll_subset_sum.us_p50": us_p50("solvers.lll_subset_sum"),
        "solvers.lll_subset_sum.us_tail": 1e6 * _tail(lll),
        "solvers.lll_subset_sum.hit_ratio": (
            len(by_tag.get(("solvers.lll_subset_sum", "hit"), ())) / len(lll) if lll else 0.0
        ),
        "mc.run_trials.calls": calls("mc.run_trials"),
        "lowdeg.poly_eval.calls": calls("lowdeg.poly_eval"),
        **{f"lowdeg.poly_eval.{m}.us_p50": us_p50("lowdeg.poly_eval", m) for m in ("rlc", "gss", "psp")},
        "lowdeg.character.calls": calls("lowdeg.character"),
        "lowdeg.character.us_p50": us_p50("lowdeg.character"),
        "lowdeg.character.ns_per_config": ns_per("lowdeg.character"),
        "lowdeg.diagram.us_p50": us_p50("lowdeg.diagram"),
        "lowdeg.diagram_mc.us_p50": us_p50("lowdeg.diagram_mc"),
        "counting.null_graph.us_p50": us_p50("counting.null_graph"),
        "counting.approx_paths.us_p50": us_p50("counting.approx_paths"),
        "counting.overlap_pairs.us_p50": us_p50("counting.overlap_pairs"),
        "counting.overlap_pairs.ns_per_pair": ns_per("counting.overlap_pairs"),
        "cli.bytes_written": bytes_written,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share"] = self_s[layer] / total_self
    return out
