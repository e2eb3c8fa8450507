import json

import pytest
from click.testing import CliRunner

from sprcause import fixtures, model
from sprcause.cli import main
from sprcause.sampling import parse_dist


@pytest.fixture
def runner():
    return CliRunner()


def test_bounds_prints_value(runner):
    result = runner.invoke(main, ["bounds", "0", "1000", "0.99"])
    assert result.exit_code == 0
    assert result.output.startswith("0.995")


def test_bounds_rejects_bad_query(runner):
    result = runner.invoke(main, ["bounds", "11", "10", "0.9"])
    assert result.exit_code == 1


def test_identify_writes_canonical_json(runner, tmp_path):
    out = tmp_path / "sol.json"
    args = [
        "identify", "--model", "example", "--dist", "example",
        "-N", "60", "--delta", "0", "--beta", "0.99", "--seed", "5",
        "--workers", "1", "--out", str(out),
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["members"] == [["s3"]]
    assert doc["N"] == 60


def test_identify_byte_identical_across_runs_and_workers(runner, tmp_path):
    outs = []
    for name, workers in (("a.json", "1"), ("b.json", "1"), ("c.json", "2")):
        out = tmp_path / name
        result = runner.invoke(main, [
            "identify", "--model", "example", "--dist", "example",
            "-N", "40", "--seed", "9", "--workers", workers, "--out", str(out),
        ])
        assert result.exit_code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_identify_default_workers_follow_cpu_affinity(runner, tmp_path, monkeypatch):
    from sprcause import cli, solver

    seen = []
    original = cli.solve

    def recording(pmodel, dist, n, delta, beta, seed, config, verbose):
        seen.append(config.workers)
        return original(pmodel, dist, n, delta, beta, seed, config, verbose)

    monkeypatch.setattr(cli, "solve", recording)
    monkeypatch.setattr(solver.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(solver.os, "cpu_count", lambda: 8)
    result = runner.invoke(main, [
        "identify", "--model", "example", "--dist", "example",
        "-N", "10", "--out", str(tmp_path / "sol.json"),
    ])
    assert result.exit_code == 0
    assert seen == [1]


def test_identify_empty_solution_exits_two(runner, tmp_path):
    out = tmp_path / "sol.json"
    result = runner.invoke(main, [
        "identify", "--model", "example", "--dist", "example",
        "-N", "20", "--delta", "0.999", "--seed", "1", "--workers", "1",
        "--out", str(out),
    ])
    assert result.exit_code == 2
    doc = json.loads(out.read_text())
    assert doc["members"] == [] and doc["empty_canonical_samples"] == 20


def test_identify_missing_model_exits_one(runner):
    result = runner.invoke(main, [
        "identify", "--model", "/nonexistent.json", "--dist", "example", "-N", "5",
    ])
    assert result.exit_code == 1


def test_check_reports_branches(runner):
    result = runner.invoke(main, [
        "check", "--model", "example", "--point", "0.3,0.6", "s2", "s3",
    ])
    assert result.exit_code == 0
    assert "is_spr_cause: True" in result.output
    assert "w_c=0.6" in result.output


def test_check_unknown_state_exits_one(runner):
    result = runner.invoke(main, [
        "check", "--model", "example", "--point", "0.3,0.6", "nosuch",
    ])
    assert result.exit_code == 1


def test_check_exact_mode(runner):
    result = runner.invoke(main, [
        "check", "--model", "appendix-e", "--point", "0.5,0.5", "--exact", "s1",
    ])
    assert result.exit_code == 0
    assert "corner" in result.output


def test_check_exact_result_follows_the_printed_verdicts(runner):
    # w_c and q differ by 5e-8: within KAPPA for the float check, strictly
    # less in exact arithmetic
    args = ["check", "--model", "appendix-e", "--point", "0.5,0.50000005", "s1"]
    plain = runner.invoke(main, args)
    assert plain.exit_code == 0
    assert "branch=corner-unreachable" in plain.output
    assert "is_spr_cause: True" in plain.output
    exact = runner.invoke(main, args + ["--exact"])
    assert exact.exit_code == 0
    assert "sign=-1 branch=strict-less" in exact.output
    assert "is_spr_cause: False" in exact.output


@pytest.mark.parametrize("argv", [
    ["validate", "--model", "example", "--dist", "grid", "--solution", "SOLUTION", "-M", "5"],
    ["baseline", "na1", "--model", "example", "--dist", "grid"],
    ["baseline", "na2", "--model", "example", "--dist", "grid"],
])
def test_distribution_model_mismatch_is_a_usage_error(runner, tmp_path, argv):
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"members": [["s3"]], "S_N": ["s3"], "N": 5}))
    result = runner.invoke(main, [str(sol) if a == "SOLUTION" else a for a in argv])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "distribution covers ['p0', 'p1', 'p2'], model needs ['p', 'q']" in result.output
    assert "Traceback" not in result.output


def _example_with_numeric_prob():
    from sprcause.model import model_to_json

    doc = model_to_json(fixtures.builtin_model("example"))
    doc["transitions"][0]["prob"] = 1
    return doc


@pytest.mark.parametrize("flag, doc, message", [
    ("--dist", {"mixture": [{"weight": 1}]},
     "mixture entries need a 'weight' and a 'marginals' object, got {'weight': 1}"),
    ("--dist", {"p": {"uniform": [0.1]}, "q": {"point": 0.5}},
     "marginal {'uniform': [0.1]}: not enough values to unpack"),
    ("--dist", {"mixture": 5}, "mixture must be a nonempty list, got 5"),
    ("--dist", {"p": {"uniform": ["a", 1]}, "q": {"point": 0.5}},
     "marginal {'uniform': ['a', 1]}: could not convert string to float: 'a'"),
    ("--dist", {"p": {"uniform": [float("nan"), 1]}, "q": {"point": 0.5}},
     "marginal bounds must be finite, got [nan, 1.0]"),
    ("--dist", {"mixture": [{"weight": float("nan"), "marginals": {
        "p": {"point": 0.5}, "q": {"point": 0.5}}}]}, "weights must be positive"),
    ("--model", _example_with_numeric_prob(), "'prob': 1}: from, action, to and prob must be strings"),
], ids=["entry-without-marginals", "uniform-one-bound", "mixture-not-a-list",
        "uniform-bound-not-a-number", "uniform-bound-nan", "weight-nan",
        "model-prob-not-a-string"])
def test_malformed_input_file_is_a_usage_error(runner, tmp_path, flag, doc, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    refs = {"--model": "example", "--dist": "example", flag: str(path)}
    result = runner.invoke(main, [
        "identify", "--model", refs["--model"], "--dist", refs["--dist"], "-N", "5",
    ])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert message in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("point, at", [("nan,0.5", "(s1, a)"), ("0.5,nan", "(s2, a)")])
def test_a_nan_parameter_is_a_usage_error(runner, point, at):
    # every comparison with NaN is false, so the entry check must be one it fails
    result = runner.invoke(main, ["check", "--model", "example", "--point", point, "s3", "s1"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"entry nan out of [0,1] at {at}" in result.output
    assert "is_spr_cause" not in result.output


def test_a_model_nested_too_deeply_is_a_usage_error(runner, tmp_path):
    from sprcause.model import model_to_json

    doc = model_to_json(fixtures.builtin_model("example"))
    doc["transitions"][5]["prob"] = "(" * 400 + "p" + ")" * 400
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["identify", "--model", str(path), "--dist", "example", "-N", "5"])
    assert result.exit_code == 1
    assert "transition s1-a->s3: expression nested too deeply" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("terms", [400, 1500])
def test_a_long_sum_gives_the_same_bytes_with_one_and_two_workers(runner, tmp_path,
                                                                   monkeypatch, terms):
    from sprcause import solver
    from sprcause.model import model_to_json

    monkeypatch.setattr(solver, "usable_cpus", lambda: 2)  # a pool even on one CPU
    doc = model_to_json(fixtures.builtin_model("example"))
    assert doc["transitions"][5]["prob"] == "p"
    doc["transitions"][5]["prob"] = "p" + "+0" * (terms - 1)  # exactly p
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    outputs = []
    for model_ref, workers in [("example", "1"), (str(path), "1"), (str(path), "2")]:
        result = runner.invoke(main, ["identify", "--model", model_ref, "--dist", "example",
                                      "-N", "60", "--seed", "5", "--workers", workers])
        assert result.exit_code == 0, result.output
        outputs.append(result.output)
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("argv", [
    ["identify", "--model", "DEEP", "--dist", "example", "-N", "5"],
    ["identify", "--model", "example", "--dist", "DEEP", "-N", "5"],
    ["validate", "--model", "example", "--dist", "example", "--solution", "DEEP", "-M", "5"],
    ["gridworld", "gen", "--spec", "DEEP"],
], ids=["model", "dist", "solution", "spec"])
def test_json_nested_too_deeply_is_a_usage_error(runner, tmp_path, argv):
    # json.loads raises RecursionError, not JSONDecodeError, on this input
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    result = runner.invoke(main, [str(path) if a == "DEEP" else a for a in argv])
    assert result.exit_code == 1
    assert "Error:" in result.output and "invalid JSON: nested too deeply" in result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


def test_unknown_baseline_is_a_usage_error(runner):
    result = runner.invoke(main, ["baseline", "na3", "--model", "example", "--dist", "example"])
    assert result.exit_code == 1
    assert "'na3' is not one of 'na1', 'na2'" in result.output


@pytest.mark.parametrize("argv", [
    ["validate", "--model", "example", "--dist", "example", "--solution", "SOLUTION",
     "-M", "5", "--repeat", "0"],
    ["validate", "--model", "example", "--dist", "example", "--solution", "SOLUTION",
     "-M", "5", "--repeat", "-2"],
    ["identify", "--model", "example", "--dist", "example", "-N", "5", "--workers", "0"],
], ids=["repeat-zero", "repeat-negative", "workers-zero"])
def test_out_of_range_counts_are_usage_errors(runner, tmp_path, argv):
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"members": [["s3"]], "S_N": ["s3"], "N": 5}))
    result = runner.invoke(main, [str(sol) if a == "SOLUTION" else a for a in argv])
    assert result.exit_code == 1
    assert f"{argv[-1]} is not in the range x>=1" in result.output
    assert "Traceback" not in result.output


GOOD_SPEC = {"width": 2, "height": 2, "start": [0, 0], "red": [[1, 1]],
             "risky": [{"cell": [1, 0], "param": "p1"}]}


@pytest.mark.parametrize("spec, message", [
    ({k: v for k, v in GOOD_SPEC.items() if k != "width"}, "grid spec lacks key 'width'"),
    ([GOOD_SPEC], "grid spec must be a JSON object, got list"),
    ({**GOOD_SPEC, "risky": [{"cell": [1, 0]}]}, "grid spec lacks key 'param'"),
], ids=["no-width", "a-list", "risky-without-param"])
def test_malformed_grid_spec_is_a_usage_error(runner, tmp_path, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    result = runner.invoke(main, ["gridworld", "gen", "--spec", str(path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert message in result.output
    assert "Traceback" not in result.output


def test_grid_spec_round_trips_through_gen(runner, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(GOOD_SPEC))
    result = runner.invoke(main, ["gridworld", "gen", "--spec", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.output)["params"] == ["p0", "p1"]


@pytest.mark.parametrize("solution, repeat, message", [
    ({"members": [1], "S_N": ["s1"], "N": 5}, "1", "expected a list of state names, got 1"),
    ([{"members": [["s1"]], "S_N": ["s1"], "N": 5}], "1", "expected a JSON object, got list"),
    ({"members": [["s1"]], "S_N": ["s1"]}, "2", "solution file: missing key 'N'"),
], ids=["member-not-a-list", "a-list", "repeat-without-N"])
def test_malformed_solution_is_a_usage_error(runner, tmp_path, solution, repeat, message):
    path = tmp_path / "sol.json"
    path.write_text(json.dumps(solution))
    result = runner.invoke(main, [
        "validate", "--model", "appendix-e", "--dist", "appendix-e",
        "--solution", str(path), "-M", "5", "--repeat", repeat,
    ])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert message in result.output
    assert "Traceback" not in result.output


def test_validate_csv_deterministic(runner, tmp_path):
    sol = tmp_path / "sol.json"
    runner.invoke(main, [
        "identify", "--model", "appendix-e", "--dist", "appendix-e",
        "-N", "80", "--delta", "0.1", "--seed", "2", "--workers", "1",
        "--out", str(sol),
    ])
    csvs = []
    for name in ("v1.csv", "v2.csv"):
        out = tmp_path / name
        result = runner.invoke(main, [
            "validate", "--model", "appendix-e", "--dist", "appendix-e",
            "--solution", str(sol), "-M", "200", "--seed", "3", "--out", str(out),
        ])
        assert result.exit_code == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]
    header, first = csvs[0].decode().splitlines()[:2]
    assert header == "quantity,estimate,M,half_width,seed"
    assert first.startswith("F['s1']")


def test_validate_repeat_emits_plot_rows(runner, tmp_path):
    sol = tmp_path / "sol.json"
    runner.invoke(main, [
        "identify", "--model", "appendix-e", "--dist", "appendix-e",
        "-N", "50", "--delta", "0.1", "--seed", "2", "--workers", "1",
        "--out", str(sol),
    ])
    out = tmp_path / "plot.csv"
    result = runner.invoke(main, [
        "validate", "--model", "appendix-e", "--dist", "appendix-e",
        "--solution", str(sol), "-M", "100", "--seed", "3", "--repeat", "3",
        "--out", str(out),
    ])
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,quantity,mean,sd"
    assert all(line.split(",")[0] == "50" for line in lines[1:])


def test_validate_analyses_each_point_once(runner, tmp_path, monkeypatch):
    from sprcause import solver, sprcheck

    calls = []
    original = sprcheck.singleton_causes

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sprcheck, "singleton_causes", counting)
    monkeypatch.setattr(solver, "singleton_causes", counting)
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"members": [["s1"], ["s2"]], "S_N": ["s1", "s2"], "N": 20}))
    result = runner.invoke(main, [
        "validate", "--model", "appendix-e", "--dist", "appendix-e",
        "--solution", str(sol), "-M", "20", "--seed", "4",
    ])
    assert result.exit_code == 0
    # F per member, R and R without each member all read one analysis per point
    assert len(calls) == 20


def test_gridworld_gen_and_baselines(runner, tmp_path):
    out = tmp_path / "grid.json"
    result = runner.invoke(main, ["gridworld", "gen", "--env", "a", "--out", str(out)])
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    assert "c4_6" in doc["states"]

    result = runner.invoke(main, [
        "baseline", "na1", "--model", str(out), "--dist", "grid",
    ])
    assert result.exit_code == 0
    assert result.output.strip() == '["c4_6"]'

    result = runner.invoke(main, [
        "baseline", "na2", "--model", "grid-a", "--dist", "grid",
    ])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert '["c4_6"]' in lines
    assert any("c7_8" in line for line in lines)


# stdout of `baseline na1|na2` on each builtin model with its distribution
BASELINE_OUTPUTS = [
    ("na1", "example", "example", '["s2", "s3"]\n'),
    ("na2", "example", "example", '["s2", "s3"]\n["s1", "s3"]\n'),
    ("na1", "appendix-e", "appendix-e", '["s1"]\n'),
    ("na2", "appendix-e", "appendix-e", '["s1"]\n[]\n'),
    ("na1", "grid-a", "grid", '["c4_6"]\n'),
    ("na2", "grid-a", "grid", '["c4_6"]\n["c5_5", "c7_8"]\n'),
    ("na1", "grid-b", "grid", '["c5_9"]\n'),
    ("na2", "grid-b", "grid", '["c5_9"]\n["c6_5", "c7_8"]\n'),
]


@pytest.mark.parametrize("command, model, dist, stdout", BASELINE_OUTPUTS,
                         ids=[f"{c}-{m}" for c, m, _, _ in BASELINE_OUTPUTS])
def test_baseline_output_is_pinned(runner, command, model, dist, stdout):
    result = runner.invoke(main, ["baseline", command, "--model", model, "--dist", dist])
    assert result.exit_code == 0
    assert result.stdout == stdout
    assert result.stderr == ""


def test_gridworld_dist_prints_the_shipped_grid_distribution(runner):
    result = runner.invoke(main, ["gridworld", "dist"])
    assert result.exit_code == 0
    assert result.output == (
        '{"p0": {"uniform": [0.85, 0.9]}, "p1": {"uniform": [0.45, 0.6]}, '
        '"p2": {"uniform": [0.5, 0.7]}}\n'
    )
    assert parse_dist(result.output) == fixtures.builtin_dist("grid")


@pytest.mark.parametrize("argv", [
    ["identify", "--model", "example", "--dist", "example", "-N", "4", "--workers", "1"],
    ["check", "--model", "example", "--point", "0.3,0.6", "s2"],
    ["baseline", "na1", "--model", "example", "--dist", "example"],
])
def test_dense_tensor_over_the_bound_is_a_usage_error(runner, monkeypatch, argv):
    monkeypatch.setattr(model, "MAX_DENSE_BYTES", 100)
    result = runner.invoke(main, argv)
    assert result.exit_code == 1
    assert "6 states x 2 actions needs 576 bytes, over the bound of 100" in result.output
