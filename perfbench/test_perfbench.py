"""Checks of the benchmark itself: the lobby model, the tracing wrappers and
the output checks.  Run with `python3 -m pytest perfbench`."""

import csv
import io
import json

import pytest

import tracer as tracing
from lobby import gauntlet_cells, lobby_model
from run import END_TO_END, ROOT
from sprcause import bounds, fixtures, model, reach, solver, sprcheck
from sprcause.cli import main as cli_main
from sprcause.gridworld import parse_cell_name
from sprcause.sampling import mean_point, sample
from workloads import GRID_SOLUTION, WORKLOADS, check_example, check_grid, check_validate


def _traced_samples(model_name: str, dist_name: str, n: int, seed: int) -> dict:
    pmodel = fixtures.builtin_model(model_name)
    dist = fixtures.builtin_dist(dist_name)
    recorder = tracing.Tracer()
    uninstall = tracing.install(recorder)
    try:
        for point in sample(dist, n, seed).points:
            sprcheck.singleton_causes(model.instantiate(pmodel, point))
    finally:
        uninstall()
    return tracing.layer_metrics(recorder.spans)


def test_lobby_verdicts_keep_the_gauntlet_mix():
    pmodel = lobby_model()
    assert pmodel.n_states == 151
    concrete = model.instantiate(pmodel, mean_point(fixtures.builtin_dist("grid")))
    verdicts = sprcheck.singleton_causes(concrete)
    branches = [v.branch for v in verdicts.values()]
    assert branches.count("strict-greater") > 0
    assert sum(b.startswith("corner") for b in branches) > 0
    inside = gauntlet_cells()
    causes = [parse_cell_name(pmodel.states[c]) for c, v in verdicts.items() if v.sign == 1]
    assert causes and all(c in inside for c in causes)


@pytest.mark.parametrize("model_name, dist_name, counts, margin, optimal_calls", [
    ("grid-a", "grid", (240, 330, 300), "6.3e-05", 8640),
    ("example", "example", (58, 58, 34), "7.9e-04", 28),
])
def test_traced_counts_match_the_hand_measured_baseline(
    model_name, dist_name, counts, margin, optimal_calls
):
    got = _traced_samples(model_name, dist_name, 30, 0)
    branches = tuple(got[f"sprcheck.branch.{b}"]
                     for b in ("strict-greater", "strict-less", "corner-reachable"))
    assert branches == counts
    assert got["sprcheck.branch.corner-unreachable"] == 0
    assert f"{got['sprcheck.min_margin']:.1e}" == margin
    assert got["reach.optimal_actions_calls"] == optimal_calls


def test_uninstall_restores_every_binding():
    before = (solver.singleton_causes, sprcheck.max_reach, bounds.tail_root,
              reach.ReachValues.__dict__["optimal_actions"])
    uninstall = tracing.install(tracing.Tracer())
    assert solver.singleton_causes is not before[0]
    uninstall()
    after = (solver.singleton_causes, sprcheck.max_reach, bounds.tail_root,
             reach.ReachValues.__dict__["optimal_actions"])
    assert after == before


def _cli(argv, traced: bool):
    recorder = tracing.Tracer()
    uninstall = tracing.install(recorder) if traced else None
    try:
        cli_main(argv, standalone_mode=False)
    finally:
        if uninstall:
            uninstall()
    return recorder.spans


@pytest.mark.parametrize("command", ["identify", "validate"])
def test_traced_and_untraced_outputs_are_byte_identical(tmp_path, command):
    if command == "identify":
        argv = ["identify", "--model", "example", "--dist", "example", "-N", "60",
                "--exact", "--workers", "1", "--seed", "3"]
    else:
        argv = ["validate", "--model", "grid-a", "--dist", "grid", "--solution",
                str(GRID_SOLUTION), "-M", "2", "--seed", "3"]
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    assert _cli(argv + ["--out", str(plain)], traced=False) == []
    spans = _cli(argv + ["--out", str(traced)], traced=True)
    assert plain.read_bytes() == traced.read_bytes()
    layers = {name.split(".")[0] for name, *_ in spans}
    if command == "identify":
        assert {"sampling", "model", "reach", "sprcheck", "exact", "bounds", "solver"} <= layers
    else:
        assert "validate" in layers and "solver" not in layers
    assert all(0 <= parent < i for i, (*_, parent, _, _) in enumerate(spans) if parent != -1)


def test_self_time_subtracts_direct_children():
    spans = [("a", 0.0, 10.0, -1, 0, {}), ("b", 1.0, 4.0, 0, 0, {}), ("c", 2.0, 3.0, 1, 0, {})]
    assert tracing._self_times(spans) == [7.0, 2.0, 1.0]


def test_checks_accept_reference_outputs_and_reject_others():
    assert check_grid(GRID_SOLUTION.read_bytes()) == []
    doc = json.loads(GRID_SOLUTION.read_text())
    assert check_grid(json.dumps({**doc, "members": doc["members"][:1]}).encode())
    assert check_grid(json.dumps({**doc, "eta": [0.9, *doc["eta"][1:]]}).encode())
    good = {"members": [["s3"]], "eta": [0.995405417351527], "n": [1000],
            "zeta": 0.995405417351527, "m": 1000, "S_N": ["s1", "s2", "s3"],
            "N": 1000, "beta": 0.99, "delta": 0.0}
    assert check_example(json.dumps(good).encode()) == []
    assert check_example(json.dumps({**good, "m": 990}).encode())
    assert check_example(json.dumps({**good, "members": [["s2"]]}).encode())
    estimates = {"F['c4_6']": "0.9", "F['c4_6', 'c6_5']": "0.1", "F['c5_5', 'c7_8']": "0.1",
                 "R": "1.000000", "R_sub_max": "0.940000", "R_gap": "0.060000"}

    def csv_rows(values):
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["quantity", "estimate", "M", "half_width", "seed"])
        writer.writerows([q, v, 50, "0.0", 0] for q, v in values.items())
        return out.getvalue().encode()

    assert check_validate(csv_rows(estimates)) == []
    assert check_validate(csv_rows({**estimates, "R_gap": "0.050000"}))
    assert check_validate(csv_rows({**estimates, "R": "0.980000", "R_gap": "0.040000"}))


def test_benchmark_json_lists_what_run_py_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.PER_LAYER
