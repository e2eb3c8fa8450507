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

The prob1 mask depends on the model only through its boolean support, so
it is cached by it: the key is the shape, the packed positive-transition
mask, the enabled mask and the target mask.  A hit therefore returns
exactly the mask a fresh computation would, and the value iteration that
follows runs the same float operations.  Samples of one parametric model
usually share their support (every sample of the builtin models does), so
each pivot's modified model (one entry per class of w_c: 0, 1 or in
between) computes its mask once.  The cached arrays are read-only, and the
cache is cleared when its key bytes would pass `model.MAX_DENSE_BYTES`, the
memory bound of one dense tensor.  A miss runs the
double fixpoint on the support's edge list (s, a, t), not on the dense
(S, A, S) tensor: an inner step adds every s with an edge into the
growing set whose pair (s, a) is enabled and has no edge leaving the
candidate set.  Those are the states the dense step adds, so every iterate
and the mask are the same.

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

from .model import MAX_DENSE_BYTES, ConcreteModel, Graph

# fixed, not options: stopping residual, optimal-action slack, sweep cap
VI_TOL = 1e-10
KAPPA_ACT = 1e-7
MAX_SWEEPS = 10**6

_MASK_CACHE: dict[tuple, np.ndarray] = {}


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


def _prob1_max_mask(pos: np.ndarray, enabled: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    n, m = enabled.shape
    src, act, dst = np.nonzero(pos)
    pair = src * m + act
    enabled_flat = enabled.ravel()
    u = np.ones(tgt.shape, dtype=bool)
    while True:
        # grow from the target the states that can step toward it while
        # staying inside the current candidate set
        leaves = np.zeros(n * m, dtype=bool)
        leaves[pair[~u[dst]]] = True
        allin = (enabled_flat & ~leaves)[pair]  # per edge: its (s, a) stays in u
        v = tgt.copy()
        while True:
            grown = v.copy()
            grown[src[allin & v[dst]]] = True
            if (grown == v).all():
                break
            v = grown
        if (v == u).all():
            return u
        u = v


def _prob1_max_cached(pos: np.ndarray, enabled: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """The max objective's prob1 mask, cached by the boolean support."""
    n, m = enabled.shape
    key = (n, m, np.packbits(pos).tobytes(), enabled.tobytes(), tgt.tobytes())
    mask = _MASK_CACHE.get(key)
    if mask is None:
        mask = _prob1_max_mask(pos, enabled, tgt)
        mask.setflags(write=False)
        # the key bytes held with this key added, recounted: misses are rare
        if sum(len(k[2]) + len(k[3]) + len(k[4]) for k in (*_MASK_CACHE, key)) > MAX_DENSE_BYTES:
            _MASK_CACHE.clear()
        _MASK_CACHE[key] = mask
    return mask


def _value_iteration(
    model: ConcreteModel,
    target: set[int],
    objective: str,
    trace: list[np.ndarray] | None = None,
) -> ReachValues:
    n, m = model.n_states, len(model.actions)
    tgt = _target_mask(n, target)
    pinned = tgt
    if objective == "max":
        pos = (model.trans > 0.0) & model.enabled[:, :, None]
        pinned = _prob1_max_cached(pos, model.enabled, tgt)  # contains the target
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
) -> ReachValues:
    """Best-case (policy-maximal) probability of eventually reaching target."""
    return _value_iteration(model, set(target), "max", trace)


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
