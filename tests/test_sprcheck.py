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
)
from sprcause import fixtures
from sprcause.exact import exact_reach, from_concrete
from sprcause.model import instantiate, parse_model, support_graph
from sprcause.sampling import align_dist, sample
from sprcause.sprcheck import (
    BRANCH_GREATER,
    build_modified,
    cause_front,
    recall_covers,
    satisfies_minimality,
    single_state_verdict,
    single_state_verdict_exact,
    singleton_causes,
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


# --- minimality and set-level checks --------------------------------------

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
VERDICT_FINGERPRINT = "8fa15e1f6394493afc2f1ed36f08dacaf160ef88a25dc2969621cba7da9a7913"


def test_verdict_fingerprint_is_pinned():
    digest = hashlib.sha256()
    for model_name, dist_name, n in (
        ("example", "example", 50), ("appendix-e", "appendix-e", 50), ("grid-a", "grid", 10),
    ):
        parametric = fixtures.builtin_model(model_name)
        dist = align_dist(fixtures.builtin_dist(dist_name), parametric.param_space.names)
        for point in sample(dist, n, seed=11).points:
            verdicts = singleton_causes(instantiate(parametric, point))
            digest.update(repr(sorted(verdicts.items())).encode())
    assert digest.hexdigest() == VERDICT_FINGERPRINT


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
