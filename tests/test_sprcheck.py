import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    canonical_cause,
    from_parametric,
    is_spr_cause,
    random_layered_mdp,
    random_rational_mdp,
    rational_to_concrete,
    singleton_cause_set,
    sink_lattice_grid,
)
from sprcause import fixtures
from sprcause.exact import RationalMDP, exact_reach, from_concrete
from sprcause.model import ConcreteModel, instantiate, parse_model, support_graph
from sprcause.sampling import align_dist, sample
from sprcause.sprcheck import (
    BRANCH_CORNER_UNREACHABLE,
    BRANCH_GREATER,
    build_modified,
    cause_front,
    recall_covers,
    satisfies_minimality,
    single_state_verdict,
    single_state_verdict_exact,
    singleton_causes,
    support_table,
)


def _names(model, indices):
    return sorted(model.states[s] for s in indices)


# --- modified model -------------------------------------------------------

def test_modified_rows_split_on_commit_probability(example_model):
    c = instantiate(example_model, [0.3, 0.6])
    s3 = c.state_index("s3")
    mod = build_modified(c, s3)
    assert mod.commit_prob == pytest.approx(1.0)
    assert mod.model.trans[s3, -1, mod.eff] == pytest.approx(1.0)
    assert mod.model.trans[s3, -1, mod.noeff] == pytest.approx(0.0)
    assert not mod.model.enabled[s3, :-1].any()
    assert not mod.model.enabled[mod.noeff].any()  # fresh terminal
    assert mod.noeff not in mod.model.effect


def test_modified_zero_commit(example_model):
    c = instantiate(example_model, [0.3, 0.6])
    s4 = c.state_index("s4")
    mod = build_modified(c, s4)
    assert mod.commit_prob == 0.0
    assert mod.model.trans[s4, -1, mod.noeff] == pytest.approx(1.0)


def test_modified_rejects_effect_pivot(example_model):
    c = instantiate(example_model, [0.3, 0.6])
    with pytest.raises(ValueError):
        build_modified(c, c.state_index("s5"))


# --- single-state verdicts ------------------------------------------------

def test_example_members_raise(example_model):
    c = instantiate(example_model, [0.3, 0.6])
    for name in ("s2", "s3"):
        v = single_state_verdict(c, c.state_index(name))
        assert v.sign == 1


def test_appendix_regimes(appendix_model):
    up = instantiate(appendix_model, [0.5, 0.3])
    down = instantiate(appendix_model, [0.2, 0.6])
    assert single_state_verdict(up, up.state_index("s1")).sign == 1
    assert single_state_verdict(down, down.state_index("s1")).sign == -1


def test_unreachable_state_with_high_commit_is_strict():
    doc = {
        "states": ["s0", "island", "e", "safe"],
        "actions": ["a"],
        "initial": "s0",
        "terminal_effect": ["e"],
        "params": ["p"],
        "transitions": [
            {"from": "s0", "action": "a", "to": "e", "prob": "p"},
            {"from": "s0", "action": "a", "to": "safe", "prob": "1-p"},
            {"from": "island", "action": "a", "to": "e", "prob": "1"},
            {"from": "safe", "action": "a", "to": "safe", "prob": "1"},
        ],
    }
    c = instantiate(parse_model(json.dumps(doc)), [0.3])
    v = single_state_verdict(c, c.state_index("island"))
    assert v.sign == 1 and v.branch == BRANCH_GREATER


def test_verdict_determinism(example_model):
    c = instantiate(example_model, [0.42, 0.42])
    first = single_state_verdict(c, 1)
    second = single_state_verdict(c, 1)
    assert first == second


# --- singleton cause sets -------------------------------------------------

def test_empty_restriction(example_model):
    c = instantiate(example_model, [0.3, 0.6])
    assert singleton_cause_set(c, restrict=()) == frozenset()


def test_example_restricted_set(example_model):
    c = instantiate(example_model, [0.3, 0.6])  # p < q
    full = singleton_cause_set(c)
    assert _names(c, full) == ["s2", "s3"]
    assert singleton_cause_set(c, restrict=full) == full


def test_random_models_match_exact_oracle():
    rng = np.random.default_rng(11)
    disagreements = 0
    total = 0
    for _ in range(40):
        mdp, effect = random_rational_mdp(rng)
        c = rational_to_concrete(mdp, effect)
        for s in range(mdp.n_states):
            if s in effect:
                continue
            total += 1
            want = single_state_verdict_exact(mdp, s, effect)
            got = single_state_verdict(c, s)
            gap = abs(
                Fraction(want.commit_prob).limit_denominator(10**15)
                - Fraction(want.bypass_prob).limit_denominator(10**15)
            )
            if gap > Fraction(1, 10**6):
                assert got.sign == want.sign
            elif got.sign != want.sign:
                disagreements += 1
    assert disagreements <= max(1, total // 100)


# --- the support table against exact arithmetic ---------------------------

def _graph_verdicts_match_exact(concrete, mdp, effect) -> int:
    """Every verdict the support table decides is the exact one, and the
    table's classes are the exact w_c classes; returns the decided count."""
    table = support_table(concrete)
    w = exact_reach(mdp, effect, "min")
    pivots = [c for c in range(mdp.n_states) if c not in effect]
    assert table.avoid == frozenset(c for c in pivots if w[c] == 0)
    for c in pivots:
        if c == mdp.initial:
            assert c not in table.verdicts and c not in table.masks
        elif c in table.masks:
            assert 0 < w[c] < 1
        else:
            assert w[c] in (0, 1)
            got, want = table.verdicts[c], single_state_verdict_exact(mdp, c, effect)
            assert (got.branch, got.commit_prob, got.decided) == (want.branch, float(w[c]), "graph")
            assert np.isnan(got.bypass_prob) or got.bypass_prob == want.bypass_prob
    return len(table.verdicts)


def test_graph_verdicts_match_the_exact_verdicts_on_random_models():
    # random rows over a few states make many end components
    rng = np.random.default_rng(37)
    decided = 0
    for _ in range(300):
        mdp, effect = random_rational_mdp(rng)
        decided += _graph_verdicts_match_exact(rational_to_concrete(mdp, effect), mdp, effect)
    assert decided >= 300


@pytest.mark.parametrize("model_name, dist_name, n", [
    ("example", "example", 40), ("grid-a", "grid", 4),
])
def test_graph_verdicts_match_the_exact_verdicts_on_seeded_samples(model_name, dist_name, n):
    parametric = fixtures.builtin_model(model_name)
    dist = align_dist(fixtures.builtin_dist(dist_name), parametric.param_space.names)
    decided = 0
    for point in sample(dist, n, seed=5).points:
        concrete = instantiate(parametric, point)
        decided += _graph_verdicts_match_exact(
            concrete, from_concrete(concrete), set(parametric.effect))
    assert decided >= n


def test_a_unit_commit_corner_follows_only_the_actions_inside_the_prob1_set():
    # s0 reaches the effect surely by a0, and c only by a1, which also
    # risks the sink: w_c = 1 = q0, and no optimal action leads to c
    half, one = Fraction(1, 2), Fraction(1)
    s0_rows = ({3: one}, {1: half, 2: half})
    mdp = RationalMDP(n_states=4, initial=0, rows=(
        s0_rows, ({3: one}, None), ({2: one}, None), (None, None)))
    concrete = rational_to_concrete(mdp, {3})
    table = support_table(concrete)
    want = single_state_verdict_exact(mdp, 1, {3})
    assert want.branch == BRANCH_CORNER_UNREACHABLE
    assert table.verdicts[1].branch == want.branch
    assert single_state_verdict(concrete, 1).branch == want.branch


def test_a_float_commit_of_one_on_an_interior_pivot_takes_no_table_mask():
    # c's edge to the sink is too small to move its float w_c off 1.0, but
    # it is in the support: the table's mask, made for 0 < w_c < 1, would
    # unpin s0 and stop q0 short of 1
    trans = np.zeros((4, 1, 4))
    trans[0, 0, :2] = 0.5  # s0 -> s0, c
    trans[1, 0, 2], trans[1, 0, 3] = 1.0, 1e-17  # c -> effect, sink
    trans[3, 0, 3] = 1.0
    concrete = ConcreteModel(
        states=("s0", "c", "e", "sink"), actions=("a",), initial=0, effect=frozenset({2}),
        trans=trans, enabled=np.array([[True], [True], [False], [True]]))
    assert 1 in support_table(concrete).masks
    got = singleton_causes(concrete)[1]
    assert got == single_state_verdict(concrete, 1)
    assert (got.commit_prob, got.bypass_prob) == (1.0, 1.0)


# --- minimality and set-level checks --------------------------------------

def test_a_support_table_holds_the_support_graph():
    # the analyses of a table's points read this graph instead of their own
    rng = np.random.default_rng(37)
    randoms = (rational_to_concrete(*random_rational_mdp(rng)) for _ in range(100))
    for concrete in (*_fingerprint_models(), *randoms):
        assert support_table(concrete).graph == support_graph(concrete)


def test_minimality_initial_state(example_model):
    c = instantiate(example_model, [0.3, 0.6])
    assert satisfies_minimality(support_graph(c), c.initial, [c.initial])  # empty prefix


def test_minimality_example_pair(example_model):
    c = instantiate(example_model, [0.3, 0.6])
    assert satisfies_minimality(support_graph(c), c.initial, [c.state_index("s2"), c.state_index("s3")])


def test_minimality_fails_on_chained_states():
    doc = {
        "states": ["s0", "x", "y", "e", "safe"],
        "actions": ["a"],
        "initial": "s0",
        "terminal_effect": ["e"],
        "params": ["p"],
        "transitions": [
            {"from": "s0", "action": "a", "to": "x", "prob": "p"},
            {"from": "s0", "action": "a", "to": "safe", "prob": "1-p"},
            {"from": "x", "action": "a", "to": "y", "prob": "1"},
            {"from": "y", "action": "a", "to": "e", "prob": "1"},
            {"from": "safe", "action": "a", "to": "safe", "prob": "1"},
        ],
    }
    c = instantiate(parse_model(json.dumps(doc)), [0.5])
    # every path to y passes x
    assert not satisfies_minimality(support_graph(c), c.initial, [c.state_index("x"), c.state_index("y")])


def test_is_spr_cause_examples(example_model, appendix_model):
    c = instantiate(example_model, [0.3, 0.6])
    assert is_spr_cause(c, [c.state_index("s2"), c.state_index("s3")])
    down = instantiate(appendix_model, [0.2, 0.6])
    assert not is_spr_cause(down, [down.state_index("s1")])
    with pytest.raises(ValueError):
        is_spr_cause(c, [c.state_index("s5")])
    with pytest.raises(ValueError):
        is_spr_cause(c, [])


# --- canonical cause and recall coverage ----------------------------------

def test_canonical_empty_when_no_causes(appendix_model):
    c = instantiate(appendix_model, [0.2, 0.6])
    assert canonical_cause(c) == frozenset()


def test_canonical_example_regimes(example_model):
    for point, want in [
        ([0.3, 0.6], ["s2", "s3"]),
        ([0.5, 0.3], ["s1", "s3"]),
        ([0.5, 0.5], ["s3"]),
    ]:
        c = instantiate(example_model, point)
        assert _names(c, canonical_cause(c)) == want


def test_canonical_appendix_up(appendix_model):
    c = instantiate(appendix_model, [0.5, 0.3])
    assert _names(c, canonical_cause(c)) == ["s1"]


def test_recall_covers_examples(example_model):
    c = instantiate(example_model, [0.3, 0.6])
    g, s2, s3 = support_graph(c), c.state_index("s2"), c.state_index("s3")
    assert recall_covers(g, [s2, s3], [s2, s3], c.effect, c.initial)  # reflexive
    assert recall_covers(g, [s3], [s2, s3], c.effect, c.initial)
    assert not recall_covers(g, [s2], [s2, s3], c.effect, c.initial)
    assert recall_covers(g, [s2], [], c.effect, c.initial)  # unreachable/empty reference: vacuous


def test_set_check_agrees_with_member_verdicts(example_model, appendix_model):
    # wherever the set-level check says yes, the member verdicts and (M) agree
    for model, point, cause in [
        (example_model, [0.3, 0.6], ("s2", "s3")),
        (example_model, [0.5, 0.3], ("s1", "s3")),
        (appendix_model, [0.5, 0.3], ("s1",)),
    ]:
        c = instantiate(model, point)
        idx = [c.state_index(s) for s in cause]
        assert is_spr_cause(c, idx)
        assert all(single_state_verdict(c, s).sign == 1 for s in idx)
        assert satisfies_minimality(support_graph(c), c.initial, idx)


def test_canonical_recall_dominance_exhaustive():
    # every SPR cause found by subset enumeration is covered by the canonical
    rng = np.random.default_rng(23)
    import itertools

    checked = 0
    for _ in range(400):
        if checked >= 25:
            break
        mdp, effect = random_layered_mdp(rng, max_states=6, max_actions=2)
        c = rational_to_concrete(mdp, effect)
        graph = support_graph(c)
        causes = singleton_cause_set(c)
        canonical = cause_front(causes, graph, c.initial)
        candidates = sorted(causes)  # set-level causes are made of singleton causes
        for r in range(1, len(candidates) + 1):
            for combo in itertools.combinations(candidates, r):
                if is_spr_cause(c, combo):
                    checked += 1
                    assert recall_covers(graph, canonical, combo, c.effect, c.initial)
    assert checked >= 25


# --- verdict fingerprint --------------------------------------------------

# SHA-256 of the repr of every singleton_causes verdict on fixed seeded
# samples.  A change that claims to keep the verdict arithmetic bit for bit
# must keep this digest; a change to the arithmetic replaces it on purpose.
VERDICT_FINGERPRINT = "423983f79a48748a4250f72015c949e5d8cef30941cbdf86475fd246ad3bfe78"


def _fingerprint_models():
    for model_name, dist_name, n in (
        ("example", "example", 50), ("appendix-e", "appendix-e", 50), ("grid-a", "grid", 10),
    ):
        parametric = fixtures.builtin_model(model_name)
        dist = align_dist(fixtures.builtin_dist(dist_name), parametric.param_space.names)
        for point in sample(dist, n, seed=11).points:
            yield instantiate(parametric, point)


def test_verdict_fingerprint_is_pinned():
    digest = hashlib.sha256()
    for concrete in _fingerprint_models():
        verdicts = singleton_causes(concrete)
        digest.update(repr(sorted(verdicts.items())).encode())
    assert digest.hexdigest() == VERDICT_FINGERPRINT


# SHA-256 over (state, branch) of every singleton_causes verdict on the
# fingerprint's samples and on two seeded samples of the 110-state
# sink-lattice grid of VI_DIGEST_LARGE.  It holds the branches alone, so
# any change to how a verdict is reached (graph rules, another numeric
# engine) must keep it; w_c and q0 may move.
BRANCH_DIGEST = "41eca2781dc57738a9301e2d0b5b8f5b0e5f69f203a5ff9f6fc80496b1ad873b"


def test_branch_digest_is_pinned():
    large = sink_lattice_grid()
    points = np.random.default_rng(31).uniform((0.5, 0.1, 0.1), (0.95, 0.9, 0.9), size=(2, 3))
    digest = hashlib.sha256()
    for concrete in (*_fingerprint_models(), *(instantiate(large, p) for p in points)):
        branches = [(c, v.branch) for c, v in sorted(singleton_causes(concrete).items())]
        digest.update(repr(branches).encode())
    assert digest.hexdigest() == BRANCH_DIGEST


# SHA-256 over the exact layer: every non-effect single_state_verdict_exact
# verdict plus the exact min and max values, on from_concrete of seeded
# samples and on from_parametric at interior rational points (boundary
# points, where rows lose entries, are left out on purpose).  The exact
# optimum is unique and Fraction is canonical, so any correct solver keeps
# this digest.
EXACT_DIGEST = "c235007715825e5eb6af4e6205c202d02dae13ec2fad41127416b8b757314480"


def _exact_layer_repr(mdp, effect) -> bytes:
    verdicts = [
        single_state_verdict_exact(mdp, c, effect)
        for c in range(mdp.n_states) if c not in effect
    ]
    values = [exact_reach(mdp, effect, objective) for objective in ("min", "max")]
    return repr((verdicts, values)).encode()


def test_exact_digest_is_pinned():
    digest = hashlib.sha256()
    interior = [Fraction(k, 7) for k in range(1, 7)] + [Fraction(1, 3), Fraction(5, 11)]
    for model_name, dist_name in (("example", "example"), ("appendix-e", "appendix-e")):
        parametric = fixtures.builtin_model(model_name)
        effect = set(parametric.effect)
        dist = align_dist(fixtures.builtin_dist(dist_name), parametric.param_space.names)
        for point in sample(dist, 150, seed=23).points:
            digest.update(_exact_layer_repr(from_concrete(instantiate(parametric, point)), effect))
        for p in interior:
            for q in interior:
                digest.update(_exact_layer_repr(from_parametric(parametric, [p, q]), effect))
    assert digest.hexdigest() == EXACT_DIGEST
