"""Deciding strict-probability-raising (SPR) cause-hood.

The single-state check follows the standard modified-model construction:
all actions at the pivot state c are replaced by one action that jumps to
a fixed effect state with probability w_c (the worst-case probability of
reaching the effect from c) and to a fresh terminal non-effect state
otherwise.  c raises the probability strictly iff w_c exceeds the
best-case reachability q of the effect from the initial state in that
modified model by more than the fixed KAPPA; ties fall back to a
reachability check inside the sub-model of value-optimal actions
(`_corner`, shared with the exact-rational twin).

Set-level cause-hood reduces to the singleton verdicts plus the
minimality condition (M): every member must be reachable without first
crossing the other members.  Cut at its first visit to c, a path to c
that avoids the other members avoids all of C, so one search finds every
such c: `cause_front(C)` is C & reachable_avoiding(initial, C), and (M)
holds iff the front is all of C.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from . import exact as exact_mod
from .model import ConcreteModel, Graph, dense_transitions
from .reach import max_reach, min_reach, reachable_avoiding, exists_path_via

KAPPA = 1e-7

BRANCH_GREATER = "strict-greater"
BRANCH_LESS = "strict-less"
BRANCH_CORNER_REACHABLE = "corner-reachable"
BRANCH_CORNER_UNREACHABLE = "corner-unreachable"


@dataclass(frozen=True)
class ModifiedModel:
    eff: int  # fixed member of the effect set
    noeff: int  # fresh terminal state outside the effect set
    commit_prob: float  # worst-case reach probability from the pivot
    model: ConcreteModel


@dataclass(frozen=True)
class CauseVerdict:
    state: int
    branch: str
    commit_prob: float  # w_c
    bypass_prob: float  # q at the initial state of the modified model

    @property
    def sign(self) -> int:
        """+1: singleton SPR cause, -1: not."""
        return 1 if self.branch in (BRANCH_GREATER, BRANCH_CORNER_UNREACHABLE) else -1


def build_modified(
    model: ConcreteModel, pivot: int, commit_prob: float | None = None
) -> ModifiedModel:
    """Replace the pivot's actions by a single effect/no-effect coin flip.

    Raises ModelError when the modified model's dense tensor would exceed
    `model.MAX_DENSE_BYTES`."""
    if pivot in model.effect:
        raise ValueError(f"pivot {model.states[pivot]!r} is an effect state")
    if commit_prob is None:
        commit_prob = float(min_reach(model, model.effect).values[pivot])
    n, m = model.n_states, len(model.actions)
    eff = min(model.effect)
    noeff = n
    trans = dense_transitions(n + 1, m + 1)
    trans[:n, :m, :n] = model.trans
    enabled = np.zeros((n + 1, m + 1), dtype=bool)
    enabled[:n, :m] = model.enabled
    trans[pivot, :, :] = 0.0
    enabled[pivot, :] = False
    enabled[pivot, m] = True
    trans[pivot, m, eff] = commit_prob
    trans[pivot, m, noeff] = 1.0 - commit_prob
    modified = ConcreteModel(
        states=model.states + ("noeff",),
        actions=model.actions + ("gamma",),
        initial=model.initial,
        effect=model.effect,
        trans=trans,
        enabled=enabled,
    )
    return ModifiedModel(eff=eff, noeff=noeff, commit_prob=float(commit_prob), model=modified)


def _corner(
    state: int, initial: int, optimal_succ: list[frozenset[int]], w, q0
) -> CauseVerdict:
    """Tie verdict: is the pivot reachable from the initial state when only
    value-optimal actions remain (`optimal_succ`, the successors per state)?"""
    sub = Graph(n=len(optimal_succ), succ=tuple(optimal_succ))
    reachable = state in reachable_avoiding(sub, initial, ())
    branch = BRANCH_CORNER_REACHABLE if reachable else BRANCH_CORNER_UNREACHABLE
    return CauseVerdict(state, branch, float(w), float(q0))


def single_state_verdict(
    model: ConcreteModel, state: int, commit_prob: float | None = None
) -> CauseVerdict:
    """Decide whether {state} is an SPR cause for the model's effect set."""
    if state == model.initial:
        # the modified initial state keeps only the coin-flip action, so its
        # best-case value equals the commit probability and the corner
        # reachability check is reflexively true
        if commit_prob is None:
            commit_prob = float(min_reach(model, model.effect).values[state])
        return CauseVerdict(state, BRANCH_CORNER_REACHABLE, commit_prob, commit_prob)
    modified = build_modified(model, state, commit_prob)
    mod = modified.model
    mx = max_reach(mod, mod.effect)
    w, q0 = modified.commit_prob, float(mx.values[model.initial])
    if w - q0 > KAPPA:
        return CauseVerdict(state, BRANCH_GREATER, w, q0)
    if w - q0 < -KAPPA:
        return CauseVerdict(state, BRANCH_LESS, w, q0)
    # one optimal_actions read per state into one mask, then one `any`
    optimal = np.zeros_like(mod.enabled)
    for s in range(mod.n_states):
        for a in mx.optimal_actions[s]:
            optimal[s, a] = True
    reached = ((mod.trans > 0.0) & optimal[:, :, None]).any(axis=1)
    rows, cols = np.nonzero(reached)  # row-major: each state's successors in one run
    ends = np.searchsorted(rows, np.arange(1, mod.n_states + 1)).tolist()
    cols = cols.tolist()
    succ = [frozenset(cols[a:b]) for a, b in zip([0, *ends], ends)]
    return _corner(state, mod.initial, succ, w, q0)


def singleton_causes(
    model: ConcreteModel, restrict: Iterable[int] | None = None
) -> dict[int, CauseVerdict]:
    """Verdicts for every candidate state (or a restriction of them).

    Shares one worst-case reachability pass across all pivots.
    """
    base_min = min_reach(model, model.effect)
    candidates = sorted(set(restrict) if restrict is not None else range(model.n_states))
    out: dict[int, CauseVerdict] = {}
    for c in candidates:
        if c in model.effect:
            continue
        out[c] = single_state_verdict(model, c, commit_prob=float(base_min.values[c]))
    return out


def satisfies_minimality(graph: Graph, initial: int, cause: Iterable[int]) -> bool:
    """Condition (M): each member reachable while avoiding the others."""
    cause = frozenset(cause)
    return cause_front(cause, graph, initial) == cause


def cause_front(causes: Iterable[int], graph: Graph, initial: int) -> frozenset[int]:
    """Members reachable without first crossing another member."""
    causes = frozenset(causes)
    return causes & reachable_avoiding(graph, initial, causes)


def recall_covers(
    graph: Graph, cause: Iterable[int], reference: Iterable[int],
    effect: Iterable[int], initial: int,
) -> bool:
    """Does every finite path from `initial` that hits `reference` and
    reaches `effect` also hit `cause`?  Vacuously true when `reference` is
    unreachable."""
    return not exists_path_via(graph, initial, via=reference, target=effect, avoid=cause)


# --- exact-rational twin (oracle for the float verdicts) ------------------

def _modified_rational(
    mdp: exact_mod.RationalMDP, pivot: int, effect: set[int], w: Fraction
) -> exact_mod.RationalMDP:
    n, m = mdp.n_states, mdp.n_actions
    rows = [list(r) + [None] for r in mdp.rows]
    rows[pivot] = [None] * m + [{min(effect): w, n: 1 - w}]
    rows.append([None] * (m + 1))  # the fresh terminal no-effect state
    return exact_mod.RationalMDP(
        n_states=n + 1, rows=tuple(tuple(r) for r in rows), initial=mdp.initial
    )


def single_state_verdict_exact(
    mdp: exact_mod.RationalMDP, state: int, effect: set[int]
) -> CauseVerdict:
    """Same trichotomy with exact arithmetic; the corner is exact equality."""
    if state in effect:
        raise ValueError("pivot is an effect state")
    w = exact_mod.exact_reach(mdp, effect, "min")[state]
    modified = _modified_rational(mdp, state, effect, w)
    values = exact_mod.exact_reach(modified, effect, "max")
    q0 = values[modified.initial]
    if w > q0:
        return CauseVerdict(state, BRANCH_GREATER, float(w), float(q0))
    if w < q0:
        return CauseVerdict(state, BRANCH_LESS, float(w), float(q0))
    return _corner(state, modified.initial, exact_mod.optimal_successors(modified, values), w, q0)
