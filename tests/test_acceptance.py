"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest -v tests/test_acceptance.py` (every test prints
``[acceptance] criterion k PASS`` once its assertions hold).
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from oracles import (
    prob_first_greater,
    random_rational_mdp,
    rational_tail_root,
    rational_to_concrete,
)
from sprcause.bounds import cause_probability_bound, recall_probability_bound, tail_root
from sprcause.cli import main as cli_main
from sprcause.gridworld import parse_cell_name
from sprcause.sampling import sample
from sprcause.solver import analyze_batch, solve, solve_from_analyses
from sprcause.sprcheck import single_state_verdict, single_state_verdict_exact
from sprcause.validate import estimate_recall_probability, subset_recall_gap

LOWER_CELLS = {(3, 5), (5, 5), (7, 8)}


def _ok(num: int, detail: str = ""):
    print(f"\n[acceptance] criterion {num} PASS {detail}".rstrip())


def test_criterion_01_bound_formula_exactness():
    start = time.time()
    for n in (1, 10, 100, 1000):
        for beta in (0.9, 0.99):
            assert abs(tail_root(0, n, beta) - (1 - beta) ** (1 / n)) <= 1e-12
    assert f"{tail_root(0, 1000, 0.99):.3f}" == "0.995"
    elapsed = time.time() - start
    assert elapsed < 1.0
    _ok(1, f"({elapsed:.2f}s)")


def test_criterion_02_equation_root_vs_rational_oracle():
    start = time.time()
    worst = 0.0
    for beta_f, beta_q in ((0.9, Fraction(9, 10)), (0.99, Fraction(99, 100))):
        for k in range(1, 50):
            got = tail_root(k, 50, beta_f)
            want = float(rational_tail_root(k, 50, beta_q))
            worst = max(worst, abs(got - want))
    assert worst <= 1e-9
    elapsed = time.time() - start
    assert elapsed < 10.0
    _ok(2, f"(worst |diff| {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_03_example_reproduction(example_model, example_dist):
    start = time.time()
    n = 1000
    regime_totals = {"eq": 0, "up": 0, "down": 0}
    want = {
        "eq": ("s3",),
        "up": ("s1", "s3"),
        "down": ("s2", "s3"),
    }
    for seed in range(1, 21):
        batch = sample(example_dist, n, seed=seed)
        analyses = analyze_batch(example_model, batch)
        sol = solve_from_analyses(
            example_model, analyses, 0.0, 0.99, seed, verbose=True
        )
        assert [sorted(m) for m in sol.members] == [["s3"]]
        assert abs(sol.zeta - 0.995) <= 5e-4
        assert sol.eta[0] >= 0.99
        # the canonical-cause tally must partition along the regimes
        for (p, q), canonical in zip(batch.points, sol.canonical_causes):
            regime = "eq" if p == q else ("up" if p > q else "down")
            regime_totals[regime] += 1
            assert canonical == want[regime]
    total = 20 * n
    p_down = 0.9 * 0.8621875
    for regime, prob in (("eq", 0.1), ("up", 0.9 * 0.1378125), ("down", p_down)):
        sigma = np.sqrt(prob * (1 - prob) * total)
        assert abs(regime_totals[regime] - prob * total) <= 3 * sigma
    elapsed = time.time() - start
    assert elapsed < 30.0
    _ok(3, f"(tally {regime_totals}, {elapsed:.1f}s)")


def test_criterion_04_appendix_reproduction(appendix_model, appendix_dist):
    start = time.time()
    sol = solve(appendix_model, appendix_dist, 1000, 0.1, 0.99, seed=4)
    assert [sorted(m) for m in sol.members] == [["s1"]]
    assert 0.95 <= sol.eta[0] <= 0.995
    assert abs(sol.zeta - 0.995) <= 5e-4
    elapsed = time.time() - start
    assert elapsed < 10.0
    _ok(4, f"(eta {sol.eta[0]:.4f}, n {sol.n_counts[0]}, {elapsed:.1f}s)")


def test_criterion_05_verdicts_match_exact_oracle():
    start = time.time()
    rng = np.random.default_rng(55)
    pairs = 0
    corner_disagreements = 0
    for _ in range(200):
        mdp, effect = random_rational_mdp(rng, max_states=8, max_actions=3)
        concrete = rational_to_concrete(mdp, effect)
        for s in range(mdp.n_states):
            if s in effect:
                continue
            pairs += 1
            exact = single_state_verdict_exact(mdp, s, effect)
            fl = single_state_verdict(concrete, s)
            gap = abs(
                Fraction(exact.commit_prob).limit_denominator(10**15)
                - Fraction(exact.bypass_prob).limit_denominator(10**15)
            )
            if gap > Fraction(1, 10**6):
                assert fl.sign == exact.sign, f"state {s}: {fl} vs {exact}"
            elif fl.sign != exact.sign:
                corner_disagreements += 1
    assert corner_disagreements < 0.01 * pairs
    elapsed = time.time() - start
    assert elapsed < 120.0
    _ok(5, f"({pairs} pairs, {corner_disagreements} corner diffs, {elapsed:.1f}s)")


def test_criterion_06_pac_empirical_soundness(appendix_model, appendix_dist):
    start = time.time()
    runs, n, beta = 200, 50, 0.9
    f_true = prob_first_greater((0.45, 0.85), (0.1, 0.5))
    s1 = appendix_model.state_index("s1")
    f_hold = 0
    r_hold = 0
    recall_cache: dict = {}
    for r in range(runs):
        batch = sample(appendix_dist, n, seed=10_000 + r)
        analyses = analyze_batch(appendix_model, batch)
        sol = solve_from_analyses(appendix_model, analyses, 0.1, beta, seed=r)
        eta = cause_probability_bound({s1}, analyses, beta)
        if f_true >= eta:
            f_hold += 1
        key = (sol.members, sol.candidate_states)
        if key not in recall_cache:
            members = [
                frozenset(appendix_model.state_index(x) for x in m) for m in sol.members
            ]
            candidates = frozenset(
                appendix_model.state_index(x) for x in sol.candidate_states
            )
            recall_cache[key] = estimate_recall_probability(
                appendix_model, appendix_dist, members, candidates, 10_000, seed=777
            ).value
        if recall_cache[key] >= sol.zeta:
            r_hold += 1
    floor = beta - 3 * np.sqrt(beta * (1 - beta) / runs)
    assert f_hold / runs >= floor
    assert r_hold / runs >= floor
    elapsed = time.time() - start
    assert elapsed < 300.0
    _ok(6, f"(F holds {f_hold}/{runs}, R holds {r_hold}/{runs}, floor {floor:.3f}, {elapsed:.0f}s)")


@pytest.fixture(scope="module")
def grid_run(grid_model_a, grid_dist):
    batch = sample(grid_dist, 100, seed=0)
    analyses = analyze_batch(grid_model_a, batch)
    low = solve_from_analyses(grid_model_a, analyses, 0.001, 0.99, 0)
    high = solve_from_analyses(grid_model_a, analyses, 0.1, 0.99, 0)
    return low, high


def _cells(member) -> set:
    return {parse_cell_name(s) for s in member}


def test_criterion_07_gridworld_properties(grid_model_a, grid_dist, grid_run):
    start = time.time()
    low, high = grid_run
    # (i) delta = 0.001: members spanning both regimes, one touching (7,8)
    low_cells = [_cells(m) for m in low.members]
    assert len(low_cells) >= 2
    assert any(cells & {(7, 8)} for cells in low_cells)
    assert any(not cells & LOWER_CELLS for cells in low_cells)
    # (ii) delta = 0.1: a single member, disjoint from (7,8)
    high_cells = [_cells(m) for m in high.members]
    assert len(high_cells) == 1 and not high_cells[0] & {(7, 8)}
    # (iii) full coverage in both runs
    for sol in (low, high):
        assert sol.m_count == 100
        assert sol.zeta == pytest.approx(0.01 ** (1 / 100))
    # (iv) proper subsets lose recall probability
    members = [frozenset(grid_model_a.state_index(s) for s in m) for m in low.members]
    candidates = frozenset(grid_model_a.state_index(s) for s in low.candidate_states)
    gap = subset_recall_gap(grid_model_a, grid_dist, members, candidates, 800, seed=70)
    assert gap.max_subset_value < gap.full.value
    elapsed = time.time() - start
    assert elapsed < 300.0
    _ok(7, f"(members {sorted(map(sorted, low_cells))}, R {gap.full.value:.3f} vs "
           f"R_sub {gap.max_subset_value:.3f}, {elapsed:.0f}s)")


def test_criterion_08_baseline_contrast(grid_model_a, grid_dist):
    from sprcause.validate import mean_point_baseline, vertex_baseline

    na1 = mean_point_baseline(grid_model_a, grid_dist)
    na1_cells = {parse_cell_name(grid_model_a.states[s]) for s in na1}
    assert na1_cells and not na1_cells & LOWER_CELLS  # a single upper-route set
    na2 = vertex_baseline(grid_model_a, grid_dist)
    na2_cells = [
        {parse_cell_name(grid_model_a.states[s]) for s in member} for member in na2
    ]
    assert na1_cells in na2_cells
    assert len(na2_cells) > 1  # strict superset of candidate sets
    assert any((7, 8) in cells for cells in na2_cells)
    _ok(8, f"(NA1 {sorted(na1_cells)}, NA2 {sorted(map(sorted, na2_cells))})")


def test_criterion_09_monotonicity_suite(example_model, example_dist):
    start = time.time()
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(2, 300))
        k = int(rng.integers(0, n))
        beta = float(rng.uniform(0.5, 0.995))
        assert tail_root(k + 1, n, beta) < tail_root(k, n, beta)
        assert tail_root(k, n, beta + 0.004) < tail_root(k, n, beta)
    # on a fixed batch the bounds follow the counts strictly
    batch = sample(example_dist, 200, seed=90)
    analyses = analyze_batch(example_model, batch)
    idx = example_model.state_index
    eta_by_count = [
        cause_probability_bound(c, analyses, 0.99)
        for c in ({idx("s3")}, {idx("s2")}, {idx("s1")})
    ]
    assert eta_by_count[0] > eta_by_count[1] > eta_by_count[2]
    s_n = frozenset({idx("s1"), idx("s2"), idx("s3")})
    zetas = [
        recall_probability_bound(coll, s_n, analyses, 0.99)
        for coll in ([ {idx("s3")} ], [ {idx("s2"), idx("s3")} ], [ {idx("s1"), idx("s3")} ])
    ]
    assert zetas[0] > zetas[1] > zetas[2]
    elapsed = time.time() - start
    assert elapsed < 5.0
    _ok(9, f"({elapsed:.1f}s)")


def test_criterion_10_cli_determinism(tmp_path):
    runner = CliRunner()
    payloads = []
    for name, workers in (("one.json", "1"), ("two.json", "1"), ("three.json", "2")):
        out = tmp_path / name
        result = runner.invoke(cli_main, [
            "identify", "--model", "example", "--dist", "example",
            "-N", "100", "--delta", "0", "--beta", "0.99", "--seed", "12",
            "--workers", workers, "--out", str(out),
        ])
        assert result.exit_code == 0
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1] == payloads[2]
    _ok(10)
