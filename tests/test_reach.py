import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    cause_front_per_member,
    exists_path_via_per_via,
    minimality_per_member,
    prob1_max_mask_dense,
    random_rational_mdp,
    rational_to_concrete,
    sink_lattice_grid,
    value_iteration_loop,
)
from sprcause import fixtures, reach
from sprcause.exact import RationalMDP, exact_reach
from sprcause.gridworld import GridSpec, derive_careful, generate
from sprcause.model import (
    ConcreteModel,
    Graph,
    instantiate,
    parse_model,
    support_graph,
    support_mask,
)
from sprcause.reach import (
    KAPPA_ACT,
    _target_mask,
    avoid_forever,
    exists_path_via,
    max_reach,
    min_reach,
    prob1_max,
    reachable_avoiding,
)
from sprcause.sampling import align_dist, sample
from sprcause.sprcheck import (
    _modified_support,
    build_modified,
    cause_front,
    satisfies_minimality,
    support_key,
    support_table,
)

CHAIN = parse_model(json.dumps({
    "states": ["s0", "e"],
    "actions": ["a"],
    "initial": "s0",
    "terminal_effect": ["e"],
    "params": ["p"],
    "transitions": [
        {"from": "s0", "action": "a", "to": "e", "prob": "p"},
        {"from": "s0", "action": "a", "to": "s0", "prob": "1-p"},
    ],
}))


def test_almost_sure_absorption_is_pinned_to_one():
    c = instantiate(CHAIN, [0.25])
    values = max_reach(c, c.effect).values
    assert values[0] == 1.0  # exact, via the qualitative precomputation


def test_empty_target_gives_zeros():
    c = instantiate(CHAIN, [0.25])
    assert (max_reach(c, []).values == 0.0).all()
    assert (min_reach(c, []).values == 0.0).all()


def test_target_state_has_value_one():
    c = instantiate(CHAIN, [0.25])
    assert min_reach(c, c.effect).values[1] == 1.0


def test_example_model_pinned_values(example_model):
    c = instantiate(example_model, [0.3, 0.6])
    assert max_reach(c, c.effect).values[c.initial] == pytest.approx(0.48, abs=1e-9)
    mn = min_reach(c, c.effect).values
    assert mn[c.state_index("s2")] == pytest.approx(0.6, abs=1e-9)
    assert mn[c.state_index("s3")] == 1.0


def test_monotone_convergence(example_model):
    c = instantiate(example_model, [0.3, 0.6])
    for reach in (max_reach, min_reach):
        trace = []
        res = reach(c, c.effect, trace=trace)
        for earlier, later in zip(trace, trace[1:]):
            assert (later >= earlier - 1e-15).all()
        assert res.residual <= 1e-10


def test_min_equals_max_on_single_action_models():
    rng = np.random.default_rng(3)
    for _ in range(30):
        mdp, effect = random_rational_mdp(rng, max_states=6, max_actions=1)
        c = rational_to_concrete(mdp, effect)
        mx = max_reach(c, effect).values
        mn = min_reach(c, effect).values
        assert np.allclose(mx, mn, atol=1e-12)


def test_float_vs_exact_on_random_models():
    rng = np.random.default_rng(7)
    for _ in range(200):
        mdp, effect = random_rational_mdp(rng, max_states=8, max_actions=3)
        c = rational_to_concrete(mdp, effect)
        for objective, reach in (("max", max_reach), ("min", min_reach)):
            got = reach(c, effect).values
            want = exact_reach(mdp, effect, objective)
            for s in range(mdp.n_states):
                assert abs(got[s] - float(want[s])) <= 1e-6


@st.composite
def _rational_mdp_and_target(draw):
    # any state may be terminal, so targets sit beside non-target terminals
    n = draw(st.integers(2, 7))
    m = draw(st.integers(1, 3))
    rows = []
    for _ in range(n):
        row = []
        for _ in range(m):
            weights = draw(st.dictionaries(st.integers(0, n - 1), st.integers(1, 4), max_size=3))
            total = sum(weights.values())
            row.append({t: Fraction(w, total) for t, w in weights.items()} or None)
        rows.append(tuple(row))
    target = draw(st.frozensets(st.integers(0, n - 1)))
    return RationalMDP(n_states=n, rows=tuple(rows), initial=0), target


@settings(max_examples=300, deadline=None)
@given(_rational_mdp_and_target())
def test_float_values_are_exactly_zero_where_the_exact_values_are(case):
    mdp, target = case
    c = rational_to_concrete(mdp, target)
    for objective, reach in (("max", max_reach), ("min", min_reach)):
        got = reach(c, target).values
        want = exact_reach(mdp, set(target), objective)
        zero = [s for s in range(mdp.n_states) if want[s] == 0]
        assert all(got[s] == 0.0 for s in zero), (objective, zero, got)


@settings(max_examples=300, deadline=None)
@given(_rational_mdp_and_target())
def test_qualitative_sets_are_the_exact_zero_and_one_sets(case):
    # actionless non-target states sit in the min objective's prob0 set
    mdp, target = case
    c = rational_to_concrete(mdp, target)
    edges = np.nonzero(support_mask(c))
    tgt = _target_mask(c.n_states, target)
    low = exact_reach(mdp, set(target), "min")
    high = exact_reach(mdp, set(target), "max")
    assert avoid_forever(edges, c.enabled, tgt).tolist() == [v == 0 for v in low]
    assert prob1_max(edges, c.enabled, tgt).tolist() == [v == 1 for v in high]


def test_appendix_fixture_matches_policy_formula(appendix_model):
    # the fixture's reach probability under a policy mixing the two initial
    # actions is pi(a)*q + pi(b)*p*p, so the extremes are max/min of (q, p^2)
    rng = np.random.default_rng(17)
    for _ in range(10):
        p, q = rng.uniform(0.05, 0.95, size=2)
        c = instantiate(appendix_model, [p, q])
        mx = max_reach(c, c.effect).values[c.initial]
        mn = min_reach(c, c.effect).values[c.initial]
        assert mx == pytest.approx(max(q, p * p), abs=1e-9)
        assert mn == pytest.approx(min(q, p * p), abs=1e-9)


def test_reachable_avoiding_plain(example_model):
    c = instantiate(example_model, [0.3, 0.6])
    g = support_graph(c)
    assert reachable_avoiding(g, c.initial, ()) == frozenset(range(6))


def test_reachable_avoiding_origin_in_avoid():
    c = instantiate(CHAIN, [0.25])
    g = support_graph(c)
    assert reachable_avoiding(g, 0, [0]) == frozenset({0})


def test_reachable_avoiding_until_semantics(example_model):
    c = instantiate(example_model, [0.3, 0.6])
    g = support_graph(c)
    reached = reachable_avoiding(g, c.initial, [c.state_index("s3")])
    assert c.state_index("s2") in reached
    assert c.state_index("s3") in reached  # reported as the first avoid state
    assert c.state_index("s5") not in reached  # only reachable through s3


def test_exists_path_via_trivialities(example_model):
    c = instantiate(example_model, [0.3, 0.6])
    g = support_graph(c)
    s2, s3 = c.state_index("s2"), c.state_index("s3")
    assert not exists_path_via(g, c.initial, via=[s2], target=c.effect, avoid=[s2, s3])
    assert exists_path_via(g, c.initial, via=[c.initial], target=c.effect, avoid=[])


def test_exists_path_via_example_false_case(example_model):
    # every effect path through {s2, s3} crosses s3
    c = instantiate(example_model, [0.3, 0.6])
    g = support_graph(c)
    s2, s3 = c.state_index("s2"), c.state_index("s3")
    assert not exists_path_via(g, c.initial, via=[s2, s3], target=c.effect, avoid=[s3])


# --- one search per graph predicate, against the per-member definitions ----

@st.composite
def _digraph_and_sets(draw):
    n = draw(st.integers(1, 8))
    state = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(state, state), max_size=2 * n))
    graph = Graph(n=n, succ=tuple(frozenset(t for s, t in edges if s == u) for u in range(n)))
    return graph, draw(state), [draw(st.frozensets(state)) for _ in range(4)]


@settings(max_examples=1000, deadline=None)
@given(_digraph_and_sets())
def test_one_search_predicates_match_their_per_member_definitions(case):
    graph, start, (members, via, target, avoid) = case
    assert cause_front(members, graph, start) == cause_front_per_member(members, graph, start)
    assert satisfies_minimality(graph, start, members) == minimality_per_member(
        graph, start, members)
    assert exists_path_via(graph, start, via, target, avoid) == exists_path_via_per_via(
        graph, start, via, target, avoid)
    union = frozenset().union(*(reachable_avoiding(graph, s, avoid) for s in members))
    assert reachable_avoiding(graph, members, avoid) == union


def test_exists_path_via_searches_on_from_the_via_states():
    # 0 -> 1 and 0 -> 2: the effect state 2 is reachable, but not after 1
    fork = Graph(n=3, succ=(frozenset({1, 2}), frozenset(), frozenset()))
    assert not exists_path_via(fork, 0, via=[1], target=[2], avoid=[])
    joined = Graph(n=3, succ=(frozenset({1, 2}), frozenset({2}), frozenset()))
    assert exists_path_via(joined, 0, via=[1], target=[2], avoid=[])
    assert not exists_path_via(joined, 0, via=[1], target=[2], avoid=[0])


# --- prob1 masks of the support table, and optimal actions ---------------

def _support(c, target):
    return support_mask(c), _target_mask(c.n_states, target)


def _points(model_name, dist_name, n, seed=3):
    parametric = fixtures.builtin_model(model_name)
    dist = align_dist(fixtures.builtin_dist(dist_name), parametric.param_space.names)
    return parametric, sample(dist, n, seed).points


# the pivots' w_c classes (0, 1, interior) each model's samples reach
@pytest.mark.parametrize("model_name, dist_name, n, classes_seen", [
    ("example", "example", 8, {"0", "1", "interior"}),
    ("appendix-e", "appendix-e", 8, {"0", "interior"}),
    ("grid-a", "grid", 2, {"0", "interior"}),
])
def test_cached_masks_equal_a_fresh_computation(model_name, dist_name, n, classes_seen):
    # every interior pivot's mask in the table is the dense fixpoint of its
    # modified model, and the table decides exactly the pivots with w_c = 0 or 1
    parametric, points = _points(model_name, dist_name, n)
    classes = set()
    for point in points:
        c = instantiate(parametric, point)
        table = support_table(c)
        base_min = min_reach(c, c.effect).values
        for pivot in range(c.n_states):
            if pivot in c.effect or pivot == c.initial:
                continue
            w = float(base_min[pivot])
            classes.add("0" if w == 0.0 else "1" if w == 1.0 else "interior")
            assert (w == 0.0) == (pivot in table.avoid)
            assert (pivot in table.masks) != (pivot in table.verdicts)
            if pivot not in table.masks:
                assert table.verdicts[pivot].commit_prob in (0.0, 1.0)
                continue
            assert 0.0 < w < 1.0
            mod = build_modified(c, pivot, commit_prob=w).model
            pos, tgt = _support(mod, mod.effect)
            assert np.array_equal(table.masks[pivot], prob1_max_mask_dense(pos, mod.enabled, tgt))
            assert not table.masks[pivot].flags.writeable
    assert classes == classes_seen


def test_each_commit_class_of_a_pivot_has_its_own_entry(example_model):
    # w_c = 0, 1 and in between differ only in the pivot row's support: the
    # edge-list form of each modified support gives its model's dense mask,
    # and the table keeps the interior one
    c = instantiate(example_model, [0.5, 0.5])
    s2, eff, noeff = c.state_index("s2"), min(c.effect), c.n_states
    edges = np.nonzero(support_mask(c))
    masks, supports = [], set()
    for w, heads in ((0.0, (noeff,)), (0.5, (eff, noeff)), (1.0, (eff,))):
        mod = build_modified(c, s2, commit_prob=w).model
        pos, tgt = _support(mod, mod.effect)
        supports.add(np.packbits(pos).tobytes())
        mod_edges, mod_enabled = _modified_support(edges, c.enabled, s2, heads)
        assert np.array_equal(mod_enabled, mod.enabled)
        masks.append(prob1_max(mod_edges, mod_enabled, tgt))
        assert np.array_equal(masks[-1], prob1_max_mask_dense(pos, mod.enabled, tgt))
    assert len(supports) == 3
    assert np.array_equal(support_table(c).masks[s2], masks[1])


def test_cold_and_warm_cache_give_identical_values():
    # a table built on one sample hands another sample of the same support
    # the masks that max_reach would compute, so the values are bit for bit
    for model_name, dist_name in (("example", "example"), ("grid-a", "grid")):
        parametric, points = _points(model_name, dist_name, 2, seed=8)
        first, second = (instantiate(parametric, p) for p in points)
        assert support_key(first) == support_key(second)
        table = support_table(first)
        base_min = min_reach(second, second.effect).values
        assert table.masks
        for pivot, mask in table.masks.items():
            mod = build_modified(second, pivot, commit_prob=float(base_min[pivot])).model
            warm = max_reach(mod, mod.effect, prob1=mask)
            cold = max_reach(mod, mod.effect)
            assert (warm.values.tobytes(), warm.residual, warm.sweeps) == (
                cold.values.tobytes(), cold.residual, cold.sweeps)


def test_min_reach_builds_no_mask(example_model, monkeypatch):
    def refuse(*args):
        raise AssertionError("min_reach computed a prob1 mask")

    monkeypatch.setattr(reach, "prob1_max", refuse)
    c = instantiate(example_model, [0.5, 0.5])
    min_reach(c, c.effect)


def test_optimal_actions_are_computed_once_per_values(example_model):
    c = instantiate(example_model, [0.5, 0.5])
    for pivot in (c.state_index("s2"), c.state_index("s3")):
        mod = build_modified(c, pivot).model
        mx = max_reach(mod, mod.effect)
        first = mx.optimal_actions
        assert mx.optimal_actions is first
        n, m = mod.n_states, len(mod.actions)
        q = (mod.trans.reshape(n * m, n) @ mx.values).reshape(n, m)
        mask = mod.enabled & (np.abs(mx.values[:, None] - q) <= KAPPA_ACT)
        assert first == tuple(tuple(int(a) for a in np.flatnonzero(row)) for row in mask)


# --- the edge-list fixpoint and the penalty sweep, against the former forms -

@st.composite
def _support_and_target(draw):
    # free bits: actionless states, self-loops, targets with actions or
    # unreachable, and support bits on disabled pairs
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 3))
    bits = st.lists(st.booleans(), min_size=n * m * n, max_size=n * m * n)
    pos = np.array(draw(bits), dtype=bool).reshape(n, m, n)
    enabled = np.array(draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m)),
                       dtype=bool).reshape(n, m)
    tgt = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    return pos, enabled, tgt


@settings(max_examples=500, deadline=None)
@given(_support_and_target())
def test_prob1_mask_matches_the_dense_fixpoint_on_random_supports(case):
    pos, enabled, tgt = case
    for support in (pos, pos & enabled[:, :, None]):
        got = prob1_max(np.nonzero(support), enabled, tgt)
        assert np.array_equal(got, prob1_max_mask_dense(support, enabled, tgt))


@pytest.mark.parametrize("model_name, dist_name", [
    ("example", "example"), ("appendix-e", "appendix-e"), ("grid-a", "grid"), ("grid-b", "grid"),
])
def test_prob1_mask_matches_the_dense_fixpoint_on_every_modified_model(model_name, dist_name):
    parametric, (point,) = _points(model_name, dist_name, 1)
    for m in _base_and_modified(instantiate(parametric, point)):
        pos, tgt = _support(m, m.effect)
        assert np.array_equal(prob1_max(np.nonzero(pos), m.enabled, tgt),
                              prob1_max_mask_dense(pos, m.enabled, tgt))


def _assert_sweep_matches_the_loop(model, target):
    for objective, reach_ in (("min", min_reach), ("max", max_reach)):
        got = reach_(model, target)
        values, residual, sweeps = value_iteration_loop(model, target, objective)
        assert got.values.tobytes() == values.tobytes(), objective
        assert (repr(got.residual), got.sweeps) == (repr(residual), sweeps), objective


def _concrete(trans, enabled, effect):
    enabled = np.array(enabled, dtype=bool)
    n, m = enabled.shape
    return ConcreteModel(
        states=tuple(f"s{i}" for i in range(n)), actions=tuple(f"a{i}" for i in range(m)),
        initial=0, effect=frozenset(effect), trans=np.array(trans, dtype=float), enabled=enabled,
    )


def test_sweep_ignores_entries_in_disabled_rows():
    # s0's disabled a1 points at the target with probability 1, and s1's
    # disabled a0 at the sink: a sweep that took disabled rows to be zero,
    # or read them at all, would raise s0's max and lower s1's min
    trans = np.zeros((4, 2, 4))
    trans[0, 0] = (0.5, 0.25, 0.25, 0.0)
    trans[0, 1, 3] = 1.0
    trans[1, 1, 3] = 1.0
    trans[1, 0, 2] = 1.0
    enabled = [[True, False], [False, True], [False, False], [False, False]]
    model = _concrete(trans, enabled, {3})
    _assert_sweep_matches_the_loop(model, {3})
    assert max_reach(model, {3}).values[0] < 0.5
    assert min_reach(model, {3}).values[1] == 1.0


def test_sweep_with_no_free_state_stops_after_one_sweep():
    # every state is pinned or actionless
    model = _concrete(np.zeros((3, 1, 3)), [[False]] * 3, {2})
    _assert_sweep_matches_the_loop(model, {2})
    for reach_ in (min_reach, max_reach):
        res = reach_(model, {2})
        assert (res.sweeps, res.residual) == (1, 0.0)
        assert res.values.tolist() == [0.0, 0.0, 1.0]


@settings(max_examples=300, deadline=None)
@given(_rational_mdp_and_target())
def test_sweep_matches_the_former_loop_bit_for_bit(case):
    # any state may be terminal, so the min objective meets actionless
    # non-target states
    mdp, target = case
    _assert_sweep_matches_the_loop(rational_to_concrete(mdp, target), set(target))


# --- value-iteration digest -------------------------------------------------

# SHA-256 over values.tobytes(), residual, sweeps and optimal_actions of
# min_reach and max_reach on every base and modified model of seeded samples
# of the four builtins and an open 8x8 grid, and on seeded random MDPs whose
# non-target terminals give the min objective avoid-forever states.  A change
# that claims to keep value iteration bit for bit must keep this digest.
VI_DIGEST = "db762dd06e457ff92a03277e81e6293dd5e648bedb767f299647ce23e086f962"

OPEN_RED, OPEN_RISKY = frozenset({(7, 7)}), {(6, 7): "p1"}
OPEN_GRID = GridSpec(
    width=8, height=8, start=(0, 0), obstacles=frozenset(), red=OPEN_RED, risky=OPEN_RISKY,
    careful=derive_careful(OPEN_RED, OPEN_RISKY, frozenset(), 8, 8),
)


def _vi_repr(model, target) -> bytes:
    parts = []
    for r in (min_reach(model, target), max_reach(model, target)):
        parts.append((r.values.tobytes(), repr(r.residual), r.sweeps, r.optimal_actions))
    return repr(parts).encode()


def _base_and_modified(c):
    yield c
    base_min = min_reach(c, c.effect).values
    for pivot in range(c.n_states):
        if pivot not in c.effect:
            yield build_modified(c, pivot, commit_prob=float(base_min[pivot])).model


def test_vi_digest_is_pinned():
    digest = hashlib.sha256()
    rng = np.random.default_rng(29)
    cases = [_points(name, dist_name, n, seed=13) for name, dist_name, n in (
        ("example", "example", 30), ("appendix-e", "appendix-e", 30),
        ("grid-a", "grid", 4), ("grid-b", "grid", 4))]
    cases.append((generate(OPEN_GRID), rng.uniform((0.5, 0.1), (0.95, 0.9), size=(3, 2))))
    for parametric, points in cases:
        for point in points:
            for m in _base_and_modified(instantiate(parametric, point)):
                digest.update(_vi_repr(m, m.effect))
    for _ in range(300):
        # two terminals, one of them the target: the other avoids it forever
        mdp, terminals = random_rational_mdp(rng, max_states=8, max_actions=3, n_effect=2)
        c = rational_to_concrete(mdp, terminals)
        digest.update(_vi_repr(c, {max(terminals)}))
    assert digest.hexdigest() == VI_DIGEST


# The same digest over every base and modified model of two seeded samples
# of one 110-state open grid: no obstacles, a red corner behind two risky
# cells, absorbing sinks on a lattice and no "stay" elsewhere, so the slip
# gives the max objective values strictly between 0 and 1 and slow cycles.
VI_DIGEST_LARGE = "35fe26efb72ceb40ffb3730724a561f9a5374a11aab56783fdecfe8476ff1213"


def test_vi_digest_on_a_large_open_grid_is_pinned():
    parametric = sink_lattice_grid()
    assert parametric.n_states == 110
    digest = hashlib.sha256()
    points = np.random.default_rng(31).uniform((0.5, 0.1, 0.1), (0.95, 0.9, 0.9), size=(2, 3))
    for point in points:
        for m in _base_and_modified(instantiate(parametric, point)):
            digest.update(_vi_repr(m, m.effect))
    assert digest.hexdigest() == VI_DIGEST_LARGE
