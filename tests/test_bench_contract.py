"""What the benchmark's tracer (perfbench/tracer.py) needs from the package.

The tracer wraps the layer functions named in its WRAPPED table from
outside the package and counts spans, so renaming one of them, or turning
`ReachValues.optimal_actions` into a stored value, silently breaks the
per-layer metrics.  These checks load the tracer by path, as the benchmark
does, and run one verdict pass under it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from sprcause import fixtures, model, reach, sprcheck

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(tracer):
    for module_name, attr, _, _ in tracer.WRAPPED:
        assert callable(getattr(importlib.import_module(f"sprcause.{module_name}"), attr))


def test_optimal_actions_stays_a_property():
    assert isinstance(reach.ReachValues.__dict__["optimal_actions"], property)


# branches (strict-greater, strict-less, corner-reachable, corner-unreachable);
# every corner off the initial state reads optimal_actions once per state of
# the 7-state modified model
@pytest.mark.parametrize("point, branches, optimal_calls", [
    ((0.3, 0.6), (2, 2, 1, 0), 0),
    ((0.5, 0.5), (1, 1, 3, 0), 14),
])
def test_traced_verdict_pass_yields_the_layer_counts(tracer, point, branches, optimal_calls):
    concrete = model.instantiate(fixtures.builtin_model("example"), point)
    recorder = tracer.Tracer()
    uninstall = tracer.install(recorder)
    try:
        verdicts = sprcheck.singleton_causes(concrete)
    finally:
        uninstall()
    assert not hasattr(sprcheck.singleton_causes, "__wrapped__")  # uninstalled
    metrics = tracer.layer_metrics(recorder.spans)
    got = tuple(metrics[f"sprcheck.branch.{b}"] for b in (
        "strict-greater", "strict-less", "corner-reachable", "corner-unreachable"))
    assert got == branches
    assert sum(got) == len(verdicts)
    assert metrics["reach.min_reach_calls"] == 1
    assert metrics["reach.max_reach_calls"] == len(verdicts) - 1  # the initial state needs none
    assert metrics["reach.optimal_actions_calls"] == optimal_calls
