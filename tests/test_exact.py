import itertools
import json
from fractions import Fraction
from math import lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    fraction_optimal_successors,
    fraction_solve_linear,
    from_parametric,
    random_rational_mdp,
)
from sprcause.exact import (
    RationalMDP,
    _evaluate,
    _scaled_rows,
    _solve_bareiss,
    exact_reach,
    from_concrete,
    optimal_successors,
)
from sprcause.model import ModelError, instantiate, parse_model
from sprcause.reach import max_reach, min_reach
from sprcause.sampling import align_dist, sample
from sprcause.sprcheck import _modified_rational, singleton_causes


def test_two_state_chain_is_exactly_one():
    p = Fraction(1, 4)
    mdp = RationalMDP(n_states=2, rows=(({1: p, 0: 1 - p},), ((None,))), initial=0)
    assert exact_reach(mdp, {1}, "max") == [Fraction(1), Fraction(1)]


def test_example_model_exact_value(example_model):
    mdp = from_parametric(example_model, [Fraction(3, 10), Fraction(6, 10)])
    values = exact_reach(mdp, example_model.effect, "max")
    assert values[example_model.initial] == Fraction(12, 25)


def test_min_prefers_avoidance():
    # one action loops safely, the other jumps to the target
    rows = (
        ({0: Fraction(1)}, {1: Fraction(1)}),
        (None, None),
    )
    mdp = RationalMDP(n_states=2, rows=rows, initial=0)
    assert exact_reach(mdp, {1}, "min")[0] == 0
    assert exact_reach(mdp, {1}, "max")[0] == 1


def test_min_avoids_a_two_state_cycle_with_exits():
    # each state may exit to the target or step to the other; policy
    # iteration started on the exits sees no strict improvement (both
    # values 1), so only the avoid-forever set gives the true value 0
    cycle = {0: ({2: Fraction(1)}, {1: Fraction(1)}), 1: ({2: Fraction(1)}, {0: Fraction(1)})}
    mdp = RationalMDP(n_states=3, rows=(cycle[0], cycle[1], (None, None)), initial=0)
    assert exact_reach(mdp, {2}, "min") == [0, 0, 1]
    assert exact_reach(mdp, {2}, "max") == [1, 1, 1]


def test_policy_evaluation_leaves_a_closed_cycle_at_zero():
    # under this policy 0 and 1 step into each other forever; 2 leaks into
    # the cycle or the target 3, and 4 retries until it reaches 3
    half, third = Fraction(1, 2), Fraction(1, 3)
    rows = (({1: Fraction(1)},), ({0: Fraction(1)},), ({3: half, 0: half},), (None,),
            ({3: third, 4: 1 - third},))
    mdp = RationalMDP(n_states=5, rows=rows, initial=2)
    nums, det = _evaluate(mdp, _scaled_rows(mdp), [0, 0, 0, -1, 0], {3}, set())
    assert [Fraction(x, det) for x in nums] == [0, 0, half, 1, 1]


def test_values_are_bellman_fixed_points():
    rng = np.random.default_rng(5)
    for _ in range(40):
        mdp, effect = random_rational_mdp(rng)
        for objective, pick in (("max", max), ("min", min)):
            values = exact_reach(mdp, effect, objective)
            for s in range(mdp.n_states):
                if s in effect:
                    assert values[s] == 1
                    continue
                acts = mdp.enabled(s)
                if not acts:
                    assert values[s] == 0
                    continue
                backups = [
                    sum((p * values[t] for t, p in mdp.rows[s][a].items()), Fraction(0))
                    for a in acts
                ]
                assert values[s] == pick(backups)


def test_zero_probability_entries_are_not_edges():
    # at p = 0 the s1 -> t entry is 0; kept as an edge it made s1 look able
    # to reach t, and the policy evaluation system singular
    pmodel = parse_model(json.dumps({
        "states": ["s0", "s1", "t"], "actions": ["a"], "initial": "s0",
        "terminal_effect": ["t"], "params": ["p"],
        "transitions": [
            {"from": "s0", "action": "a", "to": "s1", "prob": "1"},
            {"from": "s1", "action": "a", "to": "s1", "prob": "1-p"},
            {"from": "s1", "action": "a", "to": "t", "prob": "p"},
        ],
    }))
    mdp = from_parametric(pmodel, [Fraction(0)])
    assert mdp.rows[1][0] == {1: Fraction(1)}
    concrete = instantiate(pmodel, [0.0])
    assert list(min_reach(concrete, concrete.effect).values) == [0, 0, 1]
    assert list(max_reach(concrete, concrete.effect).values) == [0, 0, 1]
    for objective in ("min", "max"):
        assert exact_reach(mdp, pmodel.effect, objective) == [0, 0, 1]
        assert exact_reach(from_concrete(concrete), pmodel.effect, objective) == [0, 0, 1]


def test_from_parametric_rejects_ill_defined_points():
    pmodel = parse_model(json.dumps({
        "states": ["s0", "e"], "actions": ["a"], "initial": "s0",
        "terminal_effect": ["e"], "params": ["p"],
        "transitions": [
            {"from": "s0", "action": "a", "to": "e", "prob": "p"},
            {"from": "s0", "action": "a", "to": "s0", "prob": "1-p/2"},
        ],
    }))
    with pytest.raises(ModelError, match="dimension"):
        from_parametric(pmodel, [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ModelError, match=r"out of \[0,1\] at \(s0, a\)"):
        from_parametric(pmodel, [Fraction(3, 2)])
    with pytest.raises(ModelError, match=r"does not sum to 1 at \(s0, a\)"):
        from_parametric(pmodel, [Fraction(1, 2)])
    assert from_parametric(pmodel, [Fraction(0)]).rows[0][0] == {0: Fraction(1)}


# --- the integer solver against Fraction Gauss-Jordan ----------------------

def _integer_system(a, b):
    """Each equation times the lcm of its denominators."""
    rows, rhs = [], []
    for row, r in zip(a, b):
        big = lcm(*(x.denominator for x in row + [r]))
        rows.append([int(x * big) for x in row])
        rhs.append(int(r * big))
    return rows, rhs


def _det(a):
    n = len(a)
    return sum(
        (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        * prod(a[i][perm[i]] for i in range(n))
        for perm in itertools.permutations(range(n))
    )


def _assert_same_solution(a, b):
    ints, rhs = _integer_system(a, b)
    try:
        want = fraction_solve_linear(a, b)
    except ZeroDivisionError:
        assert _det(ints) == 0
        with pytest.raises(ZeroDivisionError):
            _solve_bareiss(ints, rhs)
        return
    nums, det = _solve_bareiss(ints, rhs)
    assert det == abs(_det(ints)) > 0
    assert [Fraction(x, det) for x in nums] == want


F = Fraction


# (a, b, sign of the integer system's determinant)
@pytest.mark.parametrize("a, b, sign", [
    # zero leading pivot: one swap
    ([[F(0), F(1, 3)], [F(2, 5), F(1)]], [F(1), F(2, 7)], -1),
    # zero leading pivots: two swaps
    ([[F(0), F(1), F(0)], [F(0), F(0), F(3, 7)], [F(5, 9), F(0), F(0)]], [F(1, 3), F(2), F(-1)], 1),
    # no swap, negative determinant
    ([[F(1, 3), F(1)], [F(1), F(1, 7)]], [F(1, 11), F(0)], -1),
    # singular: proportional rows, then a zero column
    ([[F(1, 3), F(2, 3)], [F(1, 2), F(1)]], [F(1), F(1)], 0),
    ([[F(0), F(1, 3)], [F(0), F(2, 5)]], [F(1), F(1)], 0),
])
def test_integer_solve_on_the_edge_cases(a, b, sign):
    det = _det(_integer_system(a, b)[0])
    assert (det > 0) - (det < 0) == sign
    _assert_same_solution(a, b)


_entries = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 7, 9, 12]))


@st.composite
def _systems(draw):
    n = draw(st.integers(1, 5))
    a = [[draw(_entries) for _ in range(n)] for _ in range(n)]
    return a, [draw(_entries) for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(_systems())
def test_integer_solve_matches_fraction_gauss_jordan(system):
    _assert_same_solution(*system)


def test_optimal_successors_match_the_fraction_loop(example_model, example_dist):
    dist = align_dist(example_dist, example_model.param_space.names)
    effect = set(example_model.effect)
    corners = 0
    for point in sample(dist, 200, seed=11).points:
        concrete = instantiate(example_model, point)
        mdp = from_concrete(concrete)
        for c, verdict in singleton_causes(concrete).items():
            if not verdict.branch.startswith("corner"):
                continue
            w = exact_reach(mdp, effect, "min")[c]
            modified = _modified_rational(mdp, c, effect, w)
            values = exact_reach(modified, effect, "max")
            got = optimal_successors(modified, values)
            assert got == fraction_optimal_successors(modified, values)
            corners += 1
    assert corners >= 200
    rng = np.random.default_rng(7)
    for _ in range(40):
        mdp, effect = random_rational_mdp(rng)
        for objective in ("min", "max"):
            values = exact_reach(mdp, effect, objective)
            assert optimal_successors(mdp, values) == fraction_optimal_successors(mdp, values)
