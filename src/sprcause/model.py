"""Parametric MDPs, their JSON file format, and concrete instantiations.

A parametric model is a finite MDP whose transition probabilities are
arithmetic expressions over a parameter vector, each held as a flat
postfix program (`expr.Program`), so a model of any expression length
pickles for worker processes at constant depth.  Instantiating it at a
parameter point yields a concrete MDP with dense per-(state, action)
probability rows; rows are validated (sum to 1, entries in [0,1] up to a
small float tolerance, NaN rejected) rather than assumed well defined.

States and actions are strings in files and dense integer indices
internally; index order is file order, which keeps every downstream
computation deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import ExprError, ParamSpace, Program, evaluate, is_literal_zero, parse_expr

ROW_SUM_TOL = 1e-9
ENTRY_TOL = 1e-12
# the largest dense (S, A, S) float64 transition tensor a model may need:
# a modified model of a 50x50 open grid (2501 states, 6 actions) takes 0.3 GB
MAX_DENSE_BYTES = 2**30

_MODEL_KEYS = {"states", "actions", "initial", "terminal_effect", "params", "transitions"}
_TRANS_KEYS = {"from", "action", "to", "prob"}


class ModelError(ValueError):
    """Malformed model document or ill-defined instantiation."""


@dataclass(frozen=True)
class ParametricModel:
    states: tuple[str, ...]
    actions: tuple[str, ...]
    initial: int
    effect: frozenset[int]  # terminal effect states
    param_space: ParamSpace
    # transitions[s][a] is a dict {target: Program}; missing (s, a) means disabled
    transitions: tuple[tuple[dict[int, Program] | None, ...], ...]

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    def state_index(self, name: str) -> int:
        try:
            return self.states.index(name)
        except ValueError:
            raise ModelError(f"unknown state {name!r}") from None


@dataclass(frozen=True)
class ConcreteModel:
    """A parametric model evaluated at one parameter point (dense rows)."""

    states: tuple[str, ...]
    actions: tuple[str, ...]
    initial: int
    effect: frozenset[int]
    trans: np.ndarray  # (S, A, S), zero rows where disabled
    enabled: np.ndarray  # (S, A) bool

    def __post_init__(self):
        self.trans.setflags(write=False)
        self.enabled.setflags(write=False)

    @property
    def n_states(self) -> int:
        return len(self.states)

    def state_index(self, name: str) -> int:
        try:
            return self.states.index(name)
        except ValueError:
            raise ModelError(f"unknown state {name!r}") from None


@dataclass(frozen=True)
class Graph:
    """Support graph: edge s -> t iff some action moves s to t with P > 0."""

    n: int
    succ: tuple[frozenset[int], ...]


def parse_model(document: str) -> ParametricModel:
    """Parse and validate the JSON model format."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as e:
        raise ModelError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise ModelError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ModelError("model document must be a JSON object")
    unknown = set(doc) - _MODEL_KEYS
    if unknown:
        raise ModelError(f"unknown keys: {sorted(unknown)}")
    missing = _MODEL_KEYS - set(doc)
    if missing:
        raise ModelError(f"missing keys: {sorted(missing)}")

    for key in ("states", "actions", "terminal_effect", "params"):
        if not isinstance(doc[key], list) or not all(isinstance(x, str) for x in doc[key]):
            raise ModelError(f"{key} must be a list of names, got {doc[key]!r}")
    states = tuple(doc["states"])
    actions = tuple(doc["actions"])
    if len(set(states)) != len(states) or len(set(actions)) != len(actions):
        raise ModelError("duplicate state or action names")
    if not doc["terminal_effect"]:
        raise ModelError("terminal_effect must be nonempty")
    s_index = {s: i for i, s in enumerate(states)}
    a_index = {a: i for i, a in enumerate(actions)}
    if not isinstance(doc["initial"], str) or doc["initial"] not in s_index:
        raise ModelError(f"initial state {doc['initial']!r} not declared")
    for e in doc["terminal_effect"]:
        if e not in s_index:
            raise ModelError(f"effect state {e!r} not declared")
    effect = frozenset(s_index[e] for e in doc["terminal_effect"])
    try:
        params = ParamSpace(tuple(doc["params"]))
    except ValueError as e:
        raise ModelError(f"params: {e}") from None

    rows: list[list[dict[int, Program] | None]] = [
        [None] * len(actions) for _ in states
    ]
    seen: set[tuple[int, int, int]] = set()
    if not isinstance(doc["transitions"], list):
        raise ModelError(f"transitions must be a list, got {doc['transitions']!r}")
    for tr in doc["transitions"]:
        if not isinstance(tr, dict) or set(tr) != _TRANS_KEYS:
            raise ModelError(f"transition must have exactly keys {sorted(_TRANS_KEYS)}, got {tr!r}")
        if not all(isinstance(v, str) for v in tr.values()):
            raise ModelError(f"transition {tr!r}: from, action, to and prob must be strings")
        for key in ("from", "to"):
            if tr[key] not in s_index:
                raise ModelError(f"transition references unknown state {tr[key]!r}")
        if tr["action"] not in a_index:
            raise ModelError(f"transition references unknown action {tr['action']!r}")
        s, a, t = s_index[tr["from"]], a_index[tr["action"]], s_index[tr["to"]]
        if (s, a, t) in seen:
            raise ModelError(f"duplicate transition {tr['from']}-{tr['action']}->{tr['to']}")
        seen.add((s, a, t))
        try:
            prob = parse_expr(tr["prob"], params)
        except ExprError as e:
            raise ModelError(
                f"transition {tr['from']}-{tr['action']}->{tr['to']}: {e}"
            ) from None
        if is_literal_zero(prob):
            continue  # identically zero: does not enable the action
        if rows[s][a] is None:
            rows[s][a] = {}
        rows[s][a][t] = prob

    # Terminal states must be exactly the declared effect set.
    for i, s in enumerate(states):
        has_action = any(rows[i][a] is not None for a in range(len(actions)))
        if i in effect and has_action:
            raise ModelError(f"effect state {s!r} must be terminal (no transitions)")
        if i not in effect and not has_action:
            raise ModelError(f"non-effect state {s!r} has no enabled action")

    return ParametricModel(
        states=states,
        actions=actions,
        initial=s_index[doc["initial"]],
        effect=effect,
        param_space=params,
        transitions=tuple(tuple(r) for r in rows),
    )


def dense_transitions(n_states: int, n_actions: int) -> np.ndarray:
    """A zero (S, A, S) float64 tensor, or ModelError over MAX_DENSE_BYTES."""
    size = n_states * n_actions * n_states * 8
    if size > MAX_DENSE_BYTES:
        raise ModelError(
            f"a dense transition tensor of {n_states} states x {n_actions} actions needs "
            f"{size} bytes, over the bound of {MAX_DENSE_BYTES} (model.MAX_DENSE_BYTES)"
        )
    return np.zeros((n_states, n_actions, n_states))


def load_model(path) -> ParametricModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


def instantiate(model: ParametricModel, point: Sequence[float]) -> ConcreteModel:
    """Evaluate every transition program at the parameter point.

    Raises ModelError when a row is not a probability distribution: an
    entry further than ENTRY_TOL outside [0,1] or NaN, or a row sum off by
    more than ROW_SUM_TOL.  Entries within tolerance are clamped to [0,1].
    Also raises it, before evaluating any program, when the dense tensor
    would exceed MAX_DENSE_BYTES.
    """
    if len(point) != model.param_space.dimension:
        raise ModelError(
            f"parameter point has dimension {len(point)}, expected {model.param_space.dimension}"
        )
    point = tuple(map(float, point))
    n, m = model.n_states, model.n_actions
    trans = dense_transitions(n, m)
    enabled = np.zeros((n, m), dtype=bool)
    for s in range(n):
        for a in range(m):
            row = model.transitions[s][a]
            if row is None:
                continue
            enabled[s, a] = True
            total = 0.0
            for t, program in row.items():
                v = evaluate(program, point)
                # written so that NaN fails it
                if not -ENTRY_TOL <= v <= 1.0 + ENTRY_TOL:
                    raise ModelError(
                        f"entry {v!r} out of [0,1] at ({model.states[s]}, {model.actions[a]})"
                    )
                v = min(max(v, 0.0), 1.0)
                trans[s, a, t] = v
                total += v
            if not abs(total - 1.0) <= ROW_SUM_TOL:
                raise ModelError(
                    f"row sums to {total!r} at ({model.states[s]}, {model.actions[a]})"
                )
    return ConcreteModel(
        states=model.states,
        actions=model.actions,
        initial=model.initial,
        effect=model.effect,
        trans=trans,
        enabled=enabled,
    )


def model_to_json(model: ParametricModel) -> dict:
    """The JSON mirror of a parametric model (inverse of parse_model)."""
    from .expr import to_string

    transitions = []
    for s in range(model.n_states):
        for a in range(model.n_actions):
            row = model.transitions[s][a]
            if row is None:
                continue
            for t in sorted(row):
                transitions.append(
                    {
                        "from": model.states[s],
                        "action": model.actions[a],
                        "to": model.states[t],
                        "prob": to_string(row[t], model.param_space.names),
                    }
                )
    return {
        "states": list(model.states),
        "actions": list(model.actions),
        "initial": model.states[model.initial],
        "terminal_effect": sorted(model.states[e] for e in model.effect),
        "params": list(model.param_space.names),
        "transitions": transitions,
    }


def support_mask(model: ConcreteModel) -> np.ndarray:
    """The boolean support: (S, A, S), the positive entries of enabled actions."""
    return (model.trans > 0.0) & model.enabled[:, :, None]


def support_graph(model: ConcreteModel) -> Graph:
    """Edges with positive probability under some action."""
    return edge_graph(model.n_states, *np.nonzero(support_mask(model).any(axis=1)))


def edge_graph(n: int, src: np.ndarray, dst: np.ndarray) -> Graph:
    """The graph of the edges src -> dst, listed in ascending src order
    (as `np.nonzero` lists them), so each state's successors form one run."""
    ends = np.searchsorted(src, np.arange(1, n + 1)).tolist()
    dst = dst.tolist()
    return Graph(n=n, succ=tuple(frozenset(dst[a:b]) for a, b in zip([0, *ends], ends)))
