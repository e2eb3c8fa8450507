"""Spans around the package's layer functions, recorded from outside it.

`install(tracer)` replaces each function in `WRAPPED` by a wrapper that
records a span, and rebinds the wrapper in every `sprcause` module that
imported the name with `from .x import y`.  It also wraps the
`ReachValues.optimal_actions` property.  The returned callable restores
the originals.

A span is (name, start, end, parent, job, attrs): `parent` is the index of
the enclosing span or -1, and `attrs` holds the counts read off the call's
arguments and result at the boundary.  Spans stay in memory until the
caller writes them out.  Wrappers only observe; results are untouched.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

MIB = float(1 << 20)


def _dense_bytes(model) -> int:
    # the dense (S, A, S) float64 tensor: S * A * S * 8 bytes
    return int(model.trans.size) * 8


def _ann_sample(args, kwargs, batch) -> dict:
    return {"n": int(batch.n), "distinct": len({tuple(p) for p in batch.points.tolist()})}


def _ann_instantiate(args, kwargs, model) -> dict:
    return {"bytes": _dense_bytes(model)}


def _ann_modified(args, kwargs, modified) -> dict:
    return {"bytes": _dense_bytes(modified.model)}


def _ann_reach(args, kwargs, values) -> dict:
    return {"sweeps": int(values.sweeps), "residual": float(values.residual)}


def _ann_verdict(args, kwargs, verdict) -> dict:
    return {"branch": verdict.branch, "margin": abs(verdict.commit_prob - verdict.bypass_prob)}


def _ann_solution(args, kwargs, solution) -> dict:
    return {"members": len(solution.members)}


# (module, attribute, span name, annotation of the result)
WRAPPED = (
    ("sampling", "sample", "sampling.sample", _ann_sample),
    ("model", "instantiate", "model.instantiate", _ann_instantiate),
    ("model", "support_graph", "model.support_graph", None),
    ("reach", "min_reach", "reach.min_reach", _ann_reach),
    ("reach", "max_reach", "reach.max_reach", _ann_reach),
    ("sprcheck", "singleton_causes", "sprcheck.singleton_causes", None),
    ("sprcheck", "single_state_verdict", "sprcheck.verdict", _ann_verdict),
    ("sprcheck", "build_modified", "sprcheck.build_modified", _ann_modified),
    ("sprcheck", "single_state_verdict_exact", "exact.verdict_exact", None),
    ("exact", "exact_reach", "exact.exact_reach", None),
    ("exact", "from_concrete", "exact.from_concrete", None),
    ("bounds", "tail_root", "bounds.tail_root", None),
    ("bounds", "cause_sample_count", "bounds.cause_sample_count", None),
    ("bounds", "recall_sample_count", "bounds.recall_sample_count", None),
    ("solver", "analyze_batch", "solver.analyze_batch", None),
    ("solver", "filter_states", "solver.filter_states", None),
    ("solver", "select_indices", "solver.select_indices", None),
    ("solver", "solve_from_analyses", "solver.solve_from_analyses", _ann_solution),
    ("validate", "estimate_cause_probability", "validate.cause_estimate", None),
    ("validate", "estimate_recall_probability", "validate.recall_estimate", None),
    ("validate", "subset_recall_gap", "validate.subset_gap", None),
)
OPTIMAL_ACTIONS = "reach.optimal_actions"

# every per-layer metric with its unit; trace.overhead comes from run.py,
# which times an untraced twin of each traced job
PER_LAYER = {
    "sampling.sample_s": "s",
    "sampling.distinct_ratio": "ratio",
    "model.instantiate_s": "s",
    "model.instantiate_calls": "count",
    "model.support_graph_s": "s",
    "model.dense_mb": "MiB",
    "reach.min_reach_s": "s",
    "reach.min_reach_calls": "count",
    "reach.max_reach_s": "s",
    "reach.max_reach_calls": "count",
    "reach.sweeps": "count",
    "reach.max_residual": "prob",
    "reach.optimal_actions_s": "s",
    "reach.optimal_actions_calls": "count",
    "sprcheck.singleton_causes_s": "s",
    "sprcheck.sample_ms_p50": "ms",
    "sprcheck.sample_ms_p90": "ms",
    "sprcheck.verdict_self_s": "s",
    "sprcheck.build_modified_s": "s",
    "sprcheck.branch.strict-greater": "count",
    "sprcheck.branch.strict-less": "count",
    "sprcheck.branch.corner-reachable": "count",
    "sprcheck.branch.corner-unreachable": "count",
    "sprcheck.min_margin": "prob",
    "exact.verdict_exact_s": "s",
    "exact.verdict_exact_calls": "count",
    "exact.exact_reach_s": "s",
    "bounds.tail_root_s": "s",
    "bounds.tail_root_calls": "count",
    "bounds.cause_sample_count_s": "s",
    "bounds.recall_sample_count_s": "s",
    "solver.analyze_batch_s": "s",
    "solver.filter_states_s": "s",
    "solver.select_indices_s": "s",
    "solver.solve_from_analyses_self_s": "s",
    "solver.members": "count",
    "validate.cause_estimate_s": "s",
    "validate.recall_estimate_s": "s",
    "validate.subset_gap_s": "s",
    "validate.analyses_per_point": "count",
    "trace.overhead": "ratio",
}


class Tracer:
    """In-memory span store with the stack of open spans."""

    def __init__(self, job: int = 0):
        self.spans: list[tuple] = []
        self._open: list[int] = []
        self.job = job

    def call(self, name, annotate, fn, args, kwargs):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.job, {})
        if annotate is not None:
            self.spans[index][5].update(annotate(args, kwargs, result))
        return result


def _wrapper(tracer: Tracer, name: str, annotate, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, annotate, fn, args, kwargs)

    return traced


def install(tracer: Tracer):
    """Wrap every function in WRAPPED; return a callable that undoes it."""
    undo = []
    importlib.import_module("sprcause.cli")  # imports every layer the jobs use
    loaded = [m for name, m in list(sys.modules.items())
              if m is not None and (name == "sprcause" or name.startswith("sprcause."))]
    for module_name, attr, span_name, annotate in WRAPPED:
        original = getattr(importlib.import_module(f"sprcause.{module_name}"), attr)
        wrapped = _wrapper(tracer, span_name, annotate, original)
        for module in loaded:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    undo.append((module, key, original))
    reach_values = importlib.import_module("sprcause.reach").ReachValues
    prop = reach_values.__dict__["optimal_actions"]
    reach_values.optimal_actions = property(_wrapper(tracer, OPTIMAL_ACTIONS, None, prop.fget))
    undo.append((reach_values, "optimal_actions", prop))

    def uninstall():
        for target, key, original in reversed(undo):
            setattr(target, key, original)

    return uninstall


# --- per-layer metrics from the spans of one job ------------------------

def _self_times(spans) -> list[float]:
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _outside(spans, index: int, names: set[str]) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return False
        parent = spans[parent][3]
    return True


def _quantile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def layer_metrics(spans, points_per_estimate: int | None = None) -> dict[str, float]:
    """Per-layer figures of one traced job, keyed by metric name.

    Times are summed span durations in seconds (`_self_s`: minus the direct
    child spans); `_calls` are span counts.  `validate.recall_estimate_s` is
    the R estimate alone, without those subset_recall_gap makes.  A layer the
    job never enters reads 0.
    """
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def of(name):
        return by_name.get(name, [])

    def total(name, idx=None):
        return float(sum(spans[i][2] - spans[i][1] for i in (of(name) if idx is None else idx)))

    def attrs(name, key):
        return [spans[i][5][key] for i in of(name)]

    own = _self_times(spans)
    out: dict[str, float] = {}
    sampled = sum(attrs("sampling.sample", "n"))
    out["sampling.sample_s"] = total("sampling.sample")
    out["sampling.distinct_ratio"] = (
        sum(attrs("sampling.sample", "distinct")) / sampled if sampled else 0.0
    )
    out["model.instantiate_s"] = total("model.instantiate")
    out["model.instantiate_calls"] = len(of("model.instantiate"))
    out["model.support_graph_s"] = total("model.support_graph")
    dense = sum(attrs("model.instantiate", "bytes")) + sum(attrs("sprcheck.build_modified", "bytes"))
    out["model.dense_mb"] = dense / MIB
    for kind in ("min", "max"):
        out[f"reach.{kind}_reach_s"] = total(f"reach.{kind}_reach")
        out[f"reach.{kind}_reach_calls"] = len(of(f"reach.{kind}_reach"))
    vi = ("reach.min_reach", "reach.max_reach")
    out["reach.sweeps"] = sum(s for name in vi for s in attrs(name, "sweeps"))
    out["reach.max_residual"] = max(
        (r for name in vi for r in attrs(name, "residual")), default=0.0
    )
    out["reach.optimal_actions_s"] = total(OPTIMAL_ACTIONS)
    out["reach.optimal_actions_calls"] = len(of(OPTIMAL_ACTIONS))

    per_sample = sorted(1e3 * (spans[i][2] - spans[i][1]) for i in of("sprcheck.singleton_causes"))
    out["sprcheck.singleton_causes_s"] = total("sprcheck.singleton_causes")
    out["sprcheck.sample_ms_p50"] = _quantile(per_sample, 5)
    out["sprcheck.sample_ms_p90"] = _quantile(per_sample, 9)
    out["sprcheck.verdict_self_s"] = float(sum(own[i] for i in of("sprcheck.verdict")))
    out["sprcheck.build_modified_s"] = total("sprcheck.build_modified")
    branches = attrs("sprcheck.verdict", "branch")
    for branch in ("strict-greater", "strict-less", "corner-reachable", "corner-unreachable"):
        out[f"sprcheck.branch.{branch}"] = branches.count(branch)
    out["sprcheck.min_margin"] = min(
        (spans[i][5]["margin"] for i in of("sprcheck.verdict")
         if spans[i][5]["branch"].startswith("strict")),
        default=0.0,
    )

    out["exact.verdict_exact_s"] = total("exact.verdict_exact")
    out["exact.verdict_exact_calls"] = len(of("exact.verdict_exact"))
    out["exact.exact_reach_s"] = total("exact.exact_reach")

    out["bounds.tail_root_s"] = total("bounds.tail_root")
    out["bounds.tail_root_calls"] = len(of("bounds.tail_root"))
    out["bounds.cause_sample_count_s"] = total("bounds.cause_sample_count")
    out["bounds.recall_sample_count_s"] = total("bounds.recall_sample_count")

    out["solver.analyze_batch_s"] = total("solver.analyze_batch")
    out["solver.filter_states_s"] = total("solver.filter_states")
    out["solver.select_indices_s"] = total("solver.select_indices")
    out["solver.solve_from_analyses_self_s"] = float(
        sum(own[i] for i in of("solver.solve_from_analyses")))
    out["solver.members"] = sum(attrs("solver.solve_from_analyses", "members"))

    out["validate.cause_estimate_s"] = total("validate.cause_estimate")
    top_recall = [i for i in of("validate.recall_estimate")
                  if _outside(spans, i, {"validate.subset_gap"})]
    out["validate.recall_estimate_s"] = total("validate.recall_estimate", top_recall)
    out["validate.subset_gap_s"] = total("validate.subset_gap")
    out["validate.analyses_per_point"] = (
        len(of("sprcheck.singleton_causes")) / points_per_estimate if points_per_estimate else 0.0
    )
    return out
