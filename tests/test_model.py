import hashlib
import json
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import enabled_actions, from_parametric
from sprcause import fixtures, model
from sprcause.gridworld import GridSpec, derive_careful, generate
from sprcause.model import (
    ModelError,
    instantiate,
    model_to_json,
    parse_model,
    support_graph,
)
from sprcause.sprcheck import build_modified

TWO_STATE = {
    "states": ["s0", "e"],
    "actions": ["a"],
    "initial": "s0",
    "terminal_effect": ["e"],
    "params": ["p"],
    "transitions": [
        {"from": "s0", "action": "a", "to": "e", "prob": "p"},
        {"from": "s0", "action": "a", "to": "s0", "prob": "1-p"},
    ],
}


def test_minimal_two_state_model():
    m = parse_model(json.dumps(TWO_STATE))
    assert m.states == ("s0", "e")
    assert enabled_actions(m, 0) == (0,)
    assert enabled_actions(m, 1) == ()


def test_missing_terminal_effect_is_format_error():
    doc = {k: v for k, v in TWO_STATE.items() if k != "terminal_effect"}
    with pytest.raises(ModelError, match="missing"):
        parse_model(json.dumps(doc))


def test_unknown_keys_rejected():
    doc = dict(TWO_STATE, extra=1)
    with pytest.raises(ModelError, match="unknown"):
        parse_model(json.dumps(doc))


def test_duplicate_transition_rejected():
    doc = dict(TWO_STATE)
    doc["transitions"] = doc["transitions"] + [
        {"from": "s0", "action": "a", "to": "e", "prob": "0.5"}
    ]
    with pytest.raises(ModelError, match="duplicate"):
        parse_model(json.dumps(doc))


def test_dangling_state_rejected():
    doc = dict(TWO_STATE)
    doc["transitions"] = doc["transitions"] + [
        {"from": "s0", "action": "a", "to": "ghost", "prob": "0.1"}
    ]
    with pytest.raises(ModelError, match="ghost"):
        parse_model(json.dumps(doc))


def test_example_model_enabled_actions(example_model):
    # both actions at the initial state, only the first elsewhere
    m = example_model
    assert enabled_actions(m, m.state_index("s0")) == (0, 1)
    for name in ("s1", "s2", "s3", "s4"):
        assert enabled_actions(m, m.state_index(name)) == (0,)
    assert enabled_actions(m, m.state_index("s5")) == ()


def test_instantiate_two_state():
    m = parse_model(json.dumps(TWO_STATE))
    c = instantiate(m, [0.25])
    assert c.trans[0, 0, 1] == 0.25
    assert c.trans[0, 0, 0] == 0.75


def test_instantiate_out_of_range_entry():
    m = parse_model(json.dumps(TWO_STATE))
    with pytest.raises(ModelError, match=r"\(s0, a\)"):
        instantiate(m, [1.3])


def test_instantiate_wrong_dimension():
    m = parse_model(json.dumps(TWO_STATE))
    with pytest.raises(ModelError, match="dimension"):
        instantiate(m, [0.2, 0.3])


def test_appendix_rows_sum_exactly(appendix_model):
    rows = from_parametric(appendix_model, [Fraction(1, 2), Fraction(3, 10)]).rows
    for per_state in rows:
        for row in per_state:
            if row is not None:
                assert sum(row.values()) == 1


def test_support_graph_two_state():
    m = parse_model(json.dumps(TWO_STATE))
    g = support_graph(instantiate(m, [0.25]))
    assert g.succ[0] == frozenset({0, 1})
    g1 = support_graph(instantiate(m, [1.0]))
    assert g1.succ[0] == frozenset({1})  # the zero-probability self-loop drops out


def test_support_graph_appendix_matches_entries(appendix_model):
    c = instantiate(appendix_model, [0.5, 0.3])
    g = support_graph(c)
    for s in range(c.n_states):
        expected = {
            int(t)
            for a in np.flatnonzero(c.enabled[s])
            for t in np.flatnonzero(c.trans[s, a] > 0)
        }
        assert g.succ[s] == frozenset(expected)


def test_model_json_round_trip(example_model):
    doc = model_to_json(example_model)
    again = parse_model(json.dumps(doc))
    assert model_to_json(again) == doc


# --- property: random complementary-pair models instantiate cleanly -------

@st.composite
def _pair_models(draw):
    n = draw(st.integers(2, 5))
    states = [f"s{i}" for i in range(n)] + ["eff"]
    transitions = []
    for i in range(n):
        kind = draw(st.sampled_from(["const", "p", "q", "prod"]))
        expr = {"const": "0.3", "p": "p", "q": "q", "prod": "p*q"}[kind]
        target = draw(st.sampled_from(states))
        other = draw(st.sampled_from([s for s in states if s != target]))
        transitions.append({"from": f"s{i}", "action": "a", "to": target, "prob": expr})
        transitions.append(
            {"from": f"s{i}", "action": "a", "to": other, "prob": f"1-({expr})"}
        )
    return {
        "states": states,
        "actions": ["a"],
        "initial": "s0",
        "terminal_effect": ["eff"],
        "params": ["p", "q"],
        "transitions": transitions,
    }


@settings(max_examples=40, deadline=None)
@given(_pair_models(), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_random_pair_rows_sum_to_one(doc, p, q):
    m = parse_model(json.dumps(doc))
    c = instantiate(m, [p, q])
    for s in range(c.n_states):
        for a in np.flatnonzero(c.enabled[s]):
            assert abs(c.trans[s, a].sum() - 1.0) <= 1e-9


# --- the bound on dense transition tensors ----------------------------------

def test_instantiate_refuses_a_tensor_over_the_bound(example_model, monkeypatch):
    n, m = example_model.n_states, example_model.n_actions
    size = n * m * n * 8
    monkeypatch.setattr(model, "MAX_DENSE_BYTES", size - 1)
    with pytest.raises(ModelError, match=rf"{n} states x {m} actions needs {size} bytes"):
        instantiate(example_model, [0.5, 0.5])


def test_build_modified_refuses_a_tensor_over_the_bound(example_model, monkeypatch):
    n, m = example_model.n_states, example_model.n_actions
    monkeypatch.setattr(model, "MAX_DENSE_BYTES", n * m * n * 8)
    c = instantiate(example_model, [0.5, 0.5])  # exactly at the bound
    size = (n + 1) * (m + 1) * (n + 1) * 8
    with pytest.raises(ModelError, match=rf"{n + 1} states x {m + 1} actions needs {size} bytes"):
        build_modified(c, c.state_index("s2"), commit_prob=0.5)


def test_a_50x50_open_grid_fits_the_bound():
    red, risky = frozenset({(49, 49)}), {(48, 49): "p1"}
    grid = generate(GridSpec(
        width=50, height=50, start=(0, 0), obstacles=frozenset(), red=red, risky=risky,
        careful=derive_careful(red, risky, frozenset(), 50, 50),
    ))
    n, m = grid.n_states, grid.n_actions
    assert (n + 1) * (m + 1) * (n + 1) * 8 <= model.MAX_DENSE_BYTES


def test_a_long_sum_pickles_and_instantiates():
    # workers receive the model pickled, so its size must not bound any depth
    doc = json.loads(json.dumps(TWO_STATE))
    doc["transitions"][0]["prob"] = "+".join(["p/1500"] * 1500)
    m = parse_model(json.dumps(doc))
    again = pickle.loads(pickle.dumps(m))
    assert again == m
    c, d = instantiate(m, [0.5]), instantiate(again, [0.5])
    assert c.trans.tobytes() == d.trans.tobytes()
    assert c.trans[0, 0, 1] == pytest.approx(0.5)


# sha256 of `gridworld gen`'s text form of model_to_json, pinned before
# expressions became postfix programs: the printer must keep every byte
MODEL_JSON_DIGESTS = {
    "example": "2ec661cb61d620014074909d574f92bf5ea175e7725503ec5f44247d7302abb8",
    "appendix-e": "6d71abd1b66adae806b072472f376d35b3cfcd8087eb8fc18be8e9eb3d230d81",
    "grid-a": "a1922295d682f681377502c04d25d667decb88996ce793a6afcf240b4a9c260e",
    "grid-b": "655b684ab9f644da5b44cb4372b2282c5b00ea03cb8a15d716e6e3414093f2c5",
}


@pytest.mark.parametrize("name", sorted(MODEL_JSON_DIGESTS))
def test_model_json_digest_is_pinned(name):
    text = json.dumps(model_to_json(fixtures.builtin_model(name)), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == MODEL_JSON_DIGESTS[name]
