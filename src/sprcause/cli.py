"""Command-line surface.

Exit codes: 0 success, 1 usage or parse error, 2 identification returned
an empty solution (no-cause flag).  Every command is deterministic given
its full flag set including the seed; worker count never changes output.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import fixtures
from .bounds import cause_sample_count, tail_root
from .exact import from_concrete
from .gridworld import builtin_env, generate, spec_from_json
from .model import ModelError, instantiate, load_model, model_to_json, support_graph
from .sampling import DistError, load_dist
from .solver import DEFAULT_STATE_CAP, SolveConfig, solve, usable_cpus
from .sprcheck import satisfies_minimality, single_state_verdict_exact, singleton_causes
from .validate import Estimate, fresh_analyses, mean_point_baseline, recall_gap, vertex_baseline

click.UsageError.exit_code = 1


def _load(what: str, ref: str, names, builtin, load):
    """The builtin `builtin(ref)` if `ref` is in `names`, else `load(ref)` of a file."""
    if ref in names:
        return builtin(ref)
    try:
        return load(ref)
    except FileNotFoundError:
        raise click.UsageError(f"{what} {ref!r}: no such file or builtin name")
    except (ModelError, DistError) as e:
        raise click.UsageError(f"{what} {ref!r}: {e}")


def _load_model(ref: str):
    return _load("model", ref, fixtures.builtin_model_names(), fixtures.builtin_model, load_model)


def _load_dist(ref: str):
    names = fixtures.builtin_dist_names()
    return _load("distribution", ref, names, fixtures.builtin_dist, load_dist)


def _write(out: str | None, text: str):
    if out is None or out == "-":
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text, encoding="utf-8")


@click.group()
def main():
    """Probability-raising cause identification for uncertain parametric MDPs."""


@main.command()
@click.option("--model", "model_ref", required=True, help="model file or builtin name")
@click.option("--dist", "dist_ref", required=True, help="distribution file or builtin name")
@click.option("-N", "n_samples", type=int, required=True, help="number of parameter samples")
@click.option("--delta", type=float, default=0.0, show_default=True)
@click.option("--beta", type=float, default=0.99, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--workers", type=click.IntRange(min=1), default=None,
              help="parallel sample analysis (default: usable CPUs, at most 8)")
@click.option("--out", default=None, help="write the solution JSON here (default: stdout)")
@click.option("--exact", is_flag=True,
              help="re-decide corner verdicts with exact arithmetic (models of at most "
                   f"{DEFAULT_STATE_CAP} states; larger models log a warning and skip it)")
@click.option("--geq-filter", is_flag=True, help="use >= delta instead of > delta in the state filter")
@click.option("--verbose", is_flag=True, help="include per-sample canonical causes in the JSON")
def identify(model_ref, dist_ref, n_samples, delta, beta, seed, workers, out, exact,
             geq_filter, verbose):
    """Identify probable cause sets with PAC lower bounds."""
    pmodel = _load_model(model_ref)
    dist = _load_dist(dist_ref)
    config = SolveConfig(
        geq_filter=geq_filter,
        exact_corners=exact,
        workers=workers if workers is not None else min(usable_cpus(), 8),
    )
    try:
        solution = solve(pmodel, dist, n_samples, delta, beta, seed, config, verbose)
    except (ValueError, ModelError) as e:
        raise click.UsageError(str(e))
    _write(out, solution.to_json())
    click.echo(f"samples: {solution.n_samples}  seed: {solution.seed}", err=True)
    click.echo(
        f"candidate states (S_N): {len(solution.candidate_states)}  "
        f"empty-canonical samples: {solution.empty_canonical_samples}",
        err=True,
    )
    click.echo(f"zeta: {solution.zeta:.6f}  covered samples m: {solution.m_count}", err=True)
    click.echo(f"selected indices: {list(solution.indices)}", err=True)
    for member, eta, count in zip(solution.members, solution.eta, solution.n_counts):
        click.echo(f"  member {sorted(member)}  eta={eta:.6f}  n={count}", err=True)
    if solution.no_cause:
        click.echo("no cause found on any sample", err=True)
        sys.exit(2)


@main.command()
@click.option("--model", "model_ref", required=True)
@click.option("--point", "point_str", required=True, help="comma-separated parameter values")
@click.option("--exact", is_flag=True,
              help="decide every listed state's verdict with exact arithmetic (any model size)")
@click.argument("cause_states", nargs=-1, required=True)
def check(model_ref, point_str, exact, cause_states):
    """Check whether a state set is an SPR cause at a concrete point."""
    pmodel = _load_model(model_ref)
    try:
        point = [float(x) for x in point_str.split(",")]
        concrete = instantiate(pmodel, point)
        cause = [concrete.state_index(s) for s in cause_states]
        if set(cause) & concrete.effect:
            raise click.UsageError("cause states must avoid the effect set")
        if exact:
            rational = from_concrete(concrete)
            verdicts = {c: single_state_verdict_exact(rational, c, set(concrete.effect))
                        for c in cause}
        else:
            verdicts = singleton_causes(concrete, cause)
    except (ModelError, ValueError) as e:
        raise click.UsageError(str(e))
    # the printed verdicts decide the members; (M) decides the set
    result = all(verdicts[c].sign == 1 for c in cause) and satisfies_minimality(
        support_graph(concrete), concrete.initial, cause
    )
    for c in cause:
        v = verdicts[c]
        click.echo(
            f"{concrete.states[c]}: sign={v.sign:+d} branch={v.branch} "
            f"w_c={v.commit_prob:.10f} q_s0={v.bypass_prob:.10f}"
        )
    click.echo(f"is_spr_cause: {result}")


@main.command()
@click.option("--model", "model_ref", required=True)
@click.option("--dist", "dist_ref", required=True)
@click.option("--solution", "solution_path", required=True, help="JSON from `identify`")
@click.option("-M", "n_samples", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", default=None)
@click.option("--repeat", type=click.IntRange(min=1), default=1, show_default=True,
              help="with k>1, emit (N, quantity, mean, sd) rows over k seeded estimates")
def validate(model_ref, dist_ref, solution_path, n_samples, seed, out, repeat):
    """Monte-Carlo estimates of the cause and recall probabilities of a solution."""
    pmodel = _load_model(model_ref)
    dist = _load_dist(dist_ref)
    members, candidates, n_solution = _read_solution(solution_path, pmodel, repeat > 1)

    def quantities(run_seed: int) -> list[tuple[str, float]]:
        analyses = fresh_analyses(pmodel, dist, n_samples, run_seed)
        rows = [
            (f"F{sorted(pmodel.states[s] for s in m)}", cause_sample_count(m, analyses) / n_samples)
            for m in members
        ]
        gap = recall_gap(members, candidates, analyses)
        rows.append(("R", gap.full.value))
        rows.append(("R_sub_max", gap.max_subset_value))
        rows.append(("R_gap", gap.gap))
        return rows

    buf = io.StringIO()
    writer = csv.writer(buf)
    try:
        _emit_validation(writer, quantities, n_solution, n_samples, seed, repeat)
    except ValueError as e:  # a distribution that does not fit the model
        raise click.UsageError(str(e))
    _write(out, buf.getvalue())


def _read_solution(path: str, pmodel, needs_n: bool):
    """Members, S_N and (when `needs_n`) N of an `identify` solution file."""

    def states(names):
        if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
            raise ValueError(f"expected a list of state names, got {names!r}")
        return frozenset(pmodel.state_index(s) for s in names)

    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
        members = [states(m) for m in doc["members"]]
        candidates = states(doc["S_N"])
        n_solution = doc["N"] if needs_n else None
        if needs_n and not isinstance(n_solution, int):
            raise ValueError(f"N must be an integer, got {n_solution!r}")
    except KeyError as e:
        raise click.UsageError(f"solution file: missing key {e}")
    except (OSError, json.JSONDecodeError, TypeError, ValueError) as e:
        raise click.UsageError(f"solution file: {e}")
    except RecursionError:
        raise click.UsageError("solution file: invalid JSON: nested too deeply")
    return members, candidates, n_solution


def _emit_validation(writer, quantities, n_solution, n_samples, seed, repeat):
    if repeat == 1:
        writer.writerow(["quantity", "estimate", "M", "half_width", "seed"])
        for name, value in quantities(seed):
            hw = Estimate(value, n_samples).half_width
            writer.writerow([name, f"{value:.6f}", n_samples, f"{hw:.6f}", seed])
    else:
        runs = [quantities(seed + r) for r in range(repeat)]
        writer.writerow(["N", "quantity", "mean", "sd"])
        for i, (name, _) in enumerate(runs[0]):
            vals = np.array([run[i][1] for run in runs])
            writer.writerow(
                [n_solution, name, f"{vals.mean():.6f}", f"{vals.std(ddof=1):.6f}"]
            )


@main.command()
@click.argument("k", type=int)
@click.argument("n", type=int)
@click.argument("beta", type=float)
def bounds(k, n, beta):
    """Print the PAC lower-bound value t*(k, beta) for k discarded of N samples."""
    try:
        click.echo(f"{tail_root(k, n, beta):.12f}")
    except ValueError as e:
        raise click.UsageError(str(e))


@main.group()
def gridworld():
    """Grid-world model generation."""


@gridworld.command("gen")
@click.option("--env", "which", type=click.Choice(["a", "b"]), default=None)
@click.option("--spec", "spec_path", default=None, help="custom GridSpec JSON")
@click.option("--out", default=None)
def gridworld_gen(which, spec_path, out):
    """Emit the parametric model JSON for a grid specification."""
    if (which is None) == (spec_path is None):
        raise click.UsageError("pass exactly one of --env and --spec")
    try:
        spec = builtin_env(which) if which else spec_from_json(
            json.loads(Path(spec_path).read_text(encoding="utf-8"))
        )
        pmodel = generate(spec)
    except (OSError, json.JSONDecodeError, ValueError) as e:
        raise click.UsageError(str(e))
    except RecursionError:
        raise click.UsageError("spec: invalid JSON: nested too deeply")
    _write(out, json.dumps(model_to_json(pmodel), indent=2) + "\n")


@gridworld.command("dist")
@click.option("--out", default=None)
def gridworld_dist(out):
    """Emit the experiment distribution for the builtin environments."""
    _write(out, fixtures.builtin_dist_text("grid"))


@main.command(no_args_is_help=True)
@click.argument("kind", type=click.Choice(["na1", "na2"]))
@click.option("--model", "model_ref", required=True)
@click.option("--dist", "dist_ref", required=True)
@click.option("--out", default=None)
def baseline(kind, model_ref, dist_ref, out):
    """Single-point baselines for comparison runs.

    na1: the canonical cause at the mean parameter point.  na2: the canonical
    causes at the support-box vertices, deduplicated.
    """
    pmodel = _load_model(model_ref)
    dist = _load_dist(dist_ref)
    try:
        sets = [mean_point_baseline(pmodel, dist)] if kind == "na1" else vertex_baseline(pmodel, dist)
    except ValueError as e:
        raise click.UsageError(str(e))
    lines = [json.dumps(sorted(pmodel.states[s] for s in c)) for c in sets]
    _write(out, "\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
