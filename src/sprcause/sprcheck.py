"""Deciding strict-probability-raising (SPR) cause-hood.

The single-state check follows the standard modified-model construction:
all actions at the pivot state c are replaced by one action that jumps to
a fixed effect state with probability w_c (the worst-case probability of
reaching the effect from c) and to a fresh terminal non-effect state
otherwise.  c raises the probability strictly iff w_c exceeds the
best-case reachability q0 of the effect from the initial state in that
modified model; ties fall back to a reachability check inside the
sub-model of value-optimal actions (`_corner`, shared with the
exact-rational twin).

Where w_c is 0 or 1 the boolean support alone decides, exactly and with
no value iteration (the Prob0/Prob1 sets of Baier and Katoen, *Principles
of Model Checking*, 2008, §10.6).  Z is the min objective's avoid-forever
set (Pmin = 0), and the effect states are terminal.
- w_c = 0 iff c is in Z.  Then q0 > 0 iff the initial state reaches the
  effect while avoiding c: strict-less.  Otherwise q0 = 0 = w_c, every
  action the initial state can reach is optimal, and the corner is "c is
  reachable from the initial state".
- w_c = 1 iff no effect-avoiding path leads from c into Z (Z included).
  Then q0 = 1 iff the initial state lies in the max prob1 set P of the
  modified support; if not, strict-greater.  If so, the optimal actions
  are those that stay inside P, and the corner is "c is reachable over
  them".
`support_table` applies both rules once per support, and also holds the
support graph and, for every other pivot, the prob1 mask of its modified
model, whose support does not depend on w_c either.  `singleton_causes`
takes those verdicts and runs value iteration only for the pivots in
between, comparing w_c and q0 within the fixed KAPPA.  A verdict records
how it was decided: "graph" (from the support; the initial state's
verdict is one too, q0 = w_c by construction), "float" (the KAPPA
comparison) or "exact" (rational arithmetic).  A graph verdict's q0 is NaN
where its rule does not fix it.

Set-level cause-hood reduces to the singleton verdicts plus the
minimality condition (M): every member must be reachable without first
crossing the other members.  Cut at its first visit to c, a path to c
that avoids the other members avoids all of C, so one search finds every
such c: `cause_front(C)` is C & reachable_avoiding(initial, C), and (M)
holds iff the front is all of C.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

import numpy as np

from . import exact as exact_mod
from .model import ConcreteModel, Graph, dense_transitions, edge_graph, support_mask
from .reach import (
    avoid_forever,
    exists_path_via,
    max_reach,
    min_reach,
    prob1_max,
    reachable_avoiding,
    reaching,
    staying_actions,
)

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
    # "graph", "float" or "exact"; how a verdict was reached is not part of
    # its value, so it stays out of the repr and of comparisons
    decided: str = field(default="float", repr=False, compare=False)

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
    state: int, initial: int, optimal_succ, w, q0, decided: str
) -> CauseVerdict:
    """Tie verdict: is the pivot reachable from the initial state when only
    value-optimal actions remain (`optimal_succ`, the successors per state)?"""
    sub = Graph(n=len(optimal_succ), succ=tuple(optimal_succ))
    reachable = state in reachable_avoiding(sub, initial, ())
    branch = BRANCH_CORNER_REACHABLE if reachable else BRANCH_CORNER_UNREACHABLE
    return CauseVerdict(state, branch, float(w), float(q0), decided)


def single_state_verdict(
    model: ConcreteModel,
    state: int,
    commit_prob: float | None = None,
    prob1: np.ndarray | None = None,
) -> CauseVerdict:
    """Decide whether {state} is an SPR cause for the model's effect set.

    `prob1`, when given, is the modified model's prob1 mask (see
    `support_table`)."""
    if state == model.initial:
        # the modified initial state keeps only the coin-flip action, so its
        # best-case value equals the commit probability and the corner
        # reachability check is reflexively true
        if commit_prob is None:
            commit_prob = float(min_reach(model, model.effect).values[state])
        return CauseVerdict(state, BRANCH_CORNER_REACHABLE, commit_prob, commit_prob, "graph")
    modified = build_modified(model, state, commit_prob)
    mod = modified.model
    mx = max_reach(mod, mod.effect, prob1=prob1)
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
    rows, cols = np.nonzero(((mod.trans > 0.0) & optimal[:, :, None]).any(axis=1))
    return _corner(state, mod.initial, edge_graph(mod.n_states, rows, cols).succ, w, q0, "float")


@dataclass(frozen=True)
class SupportTable:
    """What one boolean support decides, shared by every point with it."""

    graph: Graph  # the support graph, shared by the points' analyses
    avoid: frozenset[int]  # Z, the min objective's avoid-forever set (w = 0)
    verdicts: dict[int, CauseVerdict]  # the pivots with w_c = 0 or 1, decided
    masks: dict[int, np.ndarray]  # the other pivots: their modified model's prob1 mask


def support_key(model: ConcreteModel) -> bytes:
    """The packed boolean support: models of one parametric model with
    equal keys share their support table."""
    return np.packbits(support_mask(model)).tobytes()


def _modified_support(edges, enabled: np.ndarray, pivot: int, heads) -> tuple:
    """The edges and enabled mask of a modified model's support: the
    pivot's actions give way to one last action with an edge to each of
    `heads`, and the fresh no-effect state (index S) has no action."""
    src, act, dst = edges
    n, m = enabled.shape
    keep = src != pivot
    k = len(heads)
    mod_edges = (np.append(src[keep], [pivot] * k), np.append(act[keep], [m] * k),
                 np.append(dst[keep], heads))
    mod_enabled = np.zeros((n + 1, m + 1), dtype=bool)
    mod_enabled[:n, :m] = enabled
    mod_enabled[pivot] = False
    mod_enabled[pivot, m] = True
    return mod_edges, mod_enabled


def support_table(model: ConcreteModel) -> SupportTable:
    """Decide on the support every non-initial pivot whose w_c is 0 or 1
    (rules in the module docstring), and give every other pivot the prob1
    mask of its modified model."""
    n = model.n_states
    edges = np.nonzero(support_mask(model))
    src, act, dst = edges
    effect = np.zeros(n + 1, dtype=bool)  # the modified models' target too
    effect[list(model.effect)] = True
    avoid = avoid_forever(edges, model.enabled, effect[:n])
    below_one = reaching(src, dst, avoid)  # Z, and the states with a path into it
    graph = edge_graph(n, src, dst)
    eff, nan = min(model.effect), float("nan")
    verdicts: dict[int, CauseVerdict] = {}
    masks: dict[int, np.ndarray] = {}
    for c in range(n):
        if effect[c] or c == model.initial:
            continue
        # a corner's search never expands c, so c's own edges do not matter
        if avoid[c]:
            if reachable_avoiding(graph, model.initial, (c,)) & model.effect:
                verdicts[c] = CauseVerdict(c, BRANCH_LESS, 0.0, nan, "graph")
            else:
                verdicts[c] = _corner(c, model.initial, graph.succ, 0.0, 0.0, "graph")
        elif below_one[c]:
            mask = prob1_max(*_modified_support(edges, model.enabled, c, (eff, n)), effect)
            mask.setflags(write=False)
            masks[c] = mask
        else:
            inside = prob1_max(*_modified_support(edges, model.enabled, c, (eff,)), effect)[:n]
            if inside[model.initial]:
                stay = staying_actions(edges, model.enabled, inside)[src, act]
                sub = edge_graph(n, src[stay], dst[stay])
                verdicts[c] = _corner(c, model.initial, sub.succ, 1.0, 1.0, "graph")
            else:
                verdicts[c] = CauseVerdict(c, BRANCH_GREATER, 1.0, nan, "graph")
    return SupportTable(graph=graph, avoid=frozenset(np.flatnonzero(avoid).tolist()),
                        verdicts=verdicts, masks=masks)


def singleton_causes(
    model: ConcreteModel,
    restrict: Iterable[int] | None = None,
    table: SupportTable | None = None,
) -> dict[int, CauseVerdict]:
    """Verdicts for every candidate state (or a restriction of them).

    The support table (built here when none is given) decides the pivots
    with w_c = 0 or 1; the others share one worst-case reachability pass
    and run value iteration with the table's prob1 mask.
    """
    if table is None:
        table = support_table(model)
    base_min = min_reach(model, model.effect)
    candidates = sorted(set(restrict) if restrict is not None else range(model.n_states))
    out: dict[int, CauseVerdict] = {}
    for c in candidates:
        if c in model.effect:
            continue
        if c in table.verdicts:
            out[c] = table.verdicts[c]
            continue
        w = float(base_min.values[c])
        # the mask is of the support with both coin-flip edges: 0 < w < 1
        mask = table.masks.get(c) if 0.0 < w < 1.0 else None
        out[c] = single_state_verdict(model, c, commit_prob=w, prob1=mask)
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
        return CauseVerdict(state, BRANCH_GREATER, float(w), float(q0), "exact")
    if w < q0:
        return CauseVerdict(state, BRANCH_LESS, float(w), float(q0), "exact")
    return _corner(state, modified.initial, exact_mod.optimal_successors(modified, values), w, q0,
                   "exact")
