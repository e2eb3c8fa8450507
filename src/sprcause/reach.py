"""Extremal reachability probabilities and qualitative path queries.

Quantitative min/max reachability is computed by value iteration from
below.  Both extremal vectors are least fixed points, and iteration upward
from 0 reaches them: a state that cannot reach the target (max), or that
has an action whose support stays in the avoid-forever set (min), backs up
exact +0.0 terms on every sweep and stays at 0 with residual 0.  The prob0
sets matter only for iterates that come down from above, so none is
computed.  The max objective pins its prob1 states at 1 (those with an
almost-surely-reaching policy, the standard double fixpoint): a residual
check alone can stop far below the true value when the only mass flows
through slow cycles.  A min iteration pins only the target.

One sweep is one product of the (state, action) rows with the values,
then per state the extremum over its enabled actions, then the fixed
states (pinned or actionless) set back to their start values.  The
extremum adds an (A, S) penalty, 0.0 where an action is enabled and -inf
(max) or +inf (min) where it is not, into a transposed buffer and reduces
it along its contiguous action axis.  This is exact: every Q-entry is at
least +0.0, so adding 0.0 leaves it unchanged and an infinity absorbs it
whatever a disabled row holds, and max and min select an element, so the
reduction order cannot change the result.  Only the product rounds, and
it is the same product over all rows as always.

The prob1 mask depends on the model only through its boolean support.
`max_reach` computes it unless the caller passes it: `sprcheck`'s support
table computes each pivot's mask once per support and hands it to every
sample with that support, and the value iteration that follows runs the
same float operations either way.  The computation runs the double
fixpoint on the support's edge list (s, a, t), not on the dense (S, A, S)
tensor: an inner step adds every s with an edge into the growing set
whose pair (s, a) is enabled and has no edge leaving the candidate set.
Those are the states the dense step adds, so every iterate and the mask
are the same.

The same edge list gives the qualitative sets the support table decides
with (Baier and Katoen, *Principles of Model Checking*, 2008, §10.6):
`avoid_forever`, the min objective's prob0 set, and `reaching`, the
states with a path into a given set.

The exact layer (`exact.exact_reach`) keeps its avoid-forever set: policy
iteration does not climb from 0, and without that set two states that
cycle into each other, each with an exit to the target, would stop at min
value 1 when the true value is 0.

`reachable_avoiding` also searches from several start states at once, so
`exists_path_via` takes two searches and `sprcheck.cause_front` one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .model import ConcreteModel, Graph, support_mask

# fixed, not options: stopping residual, optimal-action slack, sweep cap
VI_TOL = 1e-10
KAPPA_ACT = 1e-7
MAX_SWEEPS = 10**6


class IterationLimitError(RuntimeError):
    """Value iteration hit the sweep cap without converging."""


@dataclass(frozen=True)
class ReachValues:
    values: np.ndarray
    residual: float
    sweeps: int
    _model: "ConcreteModel"
    _optimal: tuple[tuple[int, ...], ...] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def optimal_actions(self) -> tuple[tuple[int, ...], ...]:
        """Per state, the enabled actions whose backup matches the value
        within KAPPA_ACT (computed on first read, then stored)."""
        if self._optimal is None:
            n, m = self._model.n_states, len(self._model.actions)
            q = (self._model.trans.reshape(n * m, n) @ self.values).reshape(n, m)
            mask = self._model.enabled & (np.abs(self.values[:, None] - q) <= KAPPA_ACT)
            # one conversion to Python bools, not one flatnonzero per state
            optimal = tuple(tuple(a for a, on in enumerate(row) if on) for row in mask.tolist())
            object.__setattr__(self, "_optimal", optimal)
        return self._optimal


def _target_mask(n: int, target: Iterable[int]) -> np.ndarray:
    tgt = np.zeros(n, dtype=bool)
    for t in target:
        tgt[t] = True
    return tgt


def reaching(src: np.ndarray, dst: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """The seed states and every state with a path into them along the
    edges src -> dst."""
    v = seed.copy()
    while True:
        grown = v.copy()
        grown[src[v[dst]]] = True
        if (grown == v).all():
            return v
        v = grown


def staying_actions(edges, enabled: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """(S, A) mask of the enabled pairs whose every edge lands inside."""
    src, act, dst = edges
    out = ~inside[dst]
    leaves = np.zeros(enabled.shape, dtype=bool)
    leaves[src[out], act[out]] = True
    return enabled & ~leaves


def prob1_max(edges, enabled: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """The max objective's prob1 states of the support `edges` = (s, a, t)."""
    src, act, dst = edges
    u = np.ones(tgt.shape, dtype=bool)
    while True:
        # grow from the target the states that can step toward it while
        # staying inside the current candidate set
        allin = staying_actions(edges, enabled, u)[src, act]
        v = reaching(src[allin], dst[allin], tgt)
        if (v == u).all():
            return u
        u = v


def avoid_forever(edges, enabled: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """The min objective's prob0 states (Pmin = 0): the largest set of
    non-target states each of which has no action or one that stays in it."""
    free = enabled.any(axis=1)
    x = ~tgt
    while True:
        y = x & (staying_actions(edges, enabled, x).any(axis=1) | ~free)
        if (y == x).all():
            return x
        x = y


def _value_iteration(
    model: ConcreteModel,
    target: set[int],
    objective: str,
    trace: list[np.ndarray] | None = None,
    prob1: np.ndarray | None = None,
) -> ReachValues:
    n, m = model.n_states, len(model.actions)
    tgt = _target_mask(n, target)
    pinned = tgt
    if objective == "max":
        if prob1 is None:
            prob1 = prob1_max(np.nonzero(support_mask(model)), model.enabled, tgt)
        pinned = prob1  # contains the target
    v = pinned.astype(float)

    # why this sweep gives the masked loop's floats bit for bit: see the
    # module docstring
    fixed = pinned | ~model.enabled.any(axis=1)
    keep = v.copy()
    fill = -np.inf if objective == "max" else np.inf
    penalty = np.where(model.enabled.T, 0.0, fill)
    reduce_ = np.maximum.reduce if objective == "max" else np.minimum.reduce
    flat = model.trans.reshape(n * m, n)
    qbuf = np.empty(n * m)
    q_t = qbuf.reshape(n, m).T
    qsum = np.empty((m, n))
    new = np.empty(n)
    diff = np.empty(n)

    residual = np.inf
    sweeps = 0
    while residual > VI_TOL:
        if sweeps >= MAX_SWEEPS:
            raise IterationLimitError(f"no convergence after {MAX_SWEEPS} sweeps")
        np.matmul(flat, v, out=qbuf)
        np.add(q_t, penalty, out=qsum)
        reduce_(qsum, axis=0, out=new)
        np.copyto(new, keep, where=fixed)
        np.subtract(new, v, out=diff)
        residual = float(np.abs(diff, out=diff).max())
        v, new = new, v
        sweeps += 1
        if trace is not None:
            trace.append(v.copy())

    v = np.clip(v, 0.0, 1.0)
    return ReachValues(
        values=v,
        residual=residual,
        sweeps=sweeps,
        _model=model,
    )


def max_reach(
    model: ConcreteModel,
    target: Iterable[int],
    trace: list[np.ndarray] | None = None,
    prob1: np.ndarray | None = None,
) -> ReachValues:
    """Best-case (policy-maximal) probability of eventually reaching target.

    `prob1`, when given, must be the prob1 mask of this model's support
    and target (`prob1_max`); it is computed otherwise."""
    return _value_iteration(model, set(target), "max", trace, prob1)


def min_reach(
    model: ConcreteModel,
    target: Iterable[int],
    trace: list[np.ndarray] | None = None,
) -> ReachValues:
    """Worst-case-for-the-adversary (policy-minimal) reachability probability."""
    return _value_iteration(model, set(target), "min", trace)


def reachable_avoiding(
    graph: Graph, start: int | Iterable[int], avoid: Iterable[int]
) -> frozenset[int]:
    """States s with a path start .. s whose strict prefix avoids `avoid`.

    Until semantics: the start itself is always reported (empty prefix), and
    states inside `avoid` are reported when first reached but never expanded.
    `start` may also be a set of states: one search from all of them gives
    the union of their single-start answers.
    """
    avoid = set(avoid)
    seen = set(start) if isinstance(start, Iterable) else {start}
    stack = [s for s in seen if s not in avoid]
    while stack:
        s = stack.pop()
        for t in graph.succ[s]:
            if t not in seen:
                seen.add(t)
                if t not in avoid:
                    stack.append(t)
    return frozenset(seen)


def exists_path_via(
    graph: Graph,
    start: int,
    via: Iterable[int],
    target: Iterable[int],
    avoid: Iterable[int],
) -> bool:
    """Is there a path from start that hits `via` and then `target`, never
    touching `avoid`?"""
    avoid = set(avoid)
    hubs = reachable_avoiding(graph, start, avoid) & (set(via) - avoid)
    return bool(reachable_avoiding(graph, hubs, avoid) & (set(target) - avoid))
