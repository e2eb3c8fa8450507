"""Extremal reachability probabilities and qualitative path queries.

Quantitative min/max reachability is computed by value iteration from
below with graph-based precomputation pinning the exact 0 and 1 values:

* max objective: states that cannot reach the target at all get 0, states
  with an almost-surely-reaching policy get 1 (the standard double
  fixpoint), and the rest iterate to the least fixed point.
* min objective: states from which some policy avoids the target forever
  get 0 (greatest fixpoint over closed sub-systems); on the remainder the
  Bellman-min operator has a unique fixed point, so plain iteration is
  safe.

Pinning matters: a residual check alone can stop far below the true value
when the only mass flows through slow cycles.

The pinning masks depend on the model only through its boolean support, so
they are cached by it: the key is the objective, the shape, the packed
positive-transition mask, the enabled mask and the target mask.  A hit
therefore returns exactly the masks a fresh computation would, and the
value iteration that follows runs the same float operations.  Samples of
one parametric model usually share their support (every sample of the
builtin models does), so the base model and each pivot's modified model
(one entry per class of w_c: 0, 1 or in between) compute their masks once.  The cached arrays are read-only, and the cache
is cleared when it reaches MASK_CACHE_MAX entries.

`reachable_avoiding` also searches from several start states at once, so
`exists_path_via` takes two searches and `sprcheck.cause_front` one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .model import ConcreteModel, Graph

# fixed, not options: stopping residual, optimal-action slack, sweep cap
VI_TOL = 1e-10
KAPPA_ACT = 1e-7
MAX_SWEEPS = 10**6
MASK_CACHE_MAX = 4096

_MASK_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


class IterationLimitError(RuntimeError):
    """Value iteration hit the sweep cap without converging."""


@dataclass(frozen=True)
class ReachValues:
    objective: str  # "min" | "max"
    target: frozenset[int]
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


def _prob0_max_mask(pos: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    can = tgt.copy()
    while True:
        grown = can | (pos & can[None, None, :]).any(axis=(1, 2))
        if (grown == can).all():
            return ~can
        can = grown


def _prob1_max_mask(pos: np.ndarray, enabled: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    u = np.ones(tgt.shape, dtype=bool)
    while True:
        # grow from the target the states that can step toward it while
        # staying inside the current candidate set
        allin = ~((pos & ~u[None, None, :]).any(axis=2)) & enabled
        v = tgt.copy()
        while True:
            somein = (pos & v[None, None, :]).any(axis=2)
            grown = v | (allin & somein).any(axis=1)
            if (grown == v).all():
                break
            v = grown
        if (v == u).all():
            return u
        u = v


def _prob0_min_mask(pos: np.ndarray, enabled: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    # greatest fixpoint of "some enabled action keeps the support inside";
    # terminal states avoid trivially
    terminal = ~enabled.any(axis=1)
    u = ~tgt
    while True:
        allin = ~((pos & ~u[None, None, :]).any(axis=2)) & enabled
        keep = allin.any(axis=1) | terminal
        grown = u & keep
        if (grown == u).all():
            return u
        u = grown


def _pinning_masks(
    objective: str, pos: np.ndarray, enabled: np.ndarray, tgt: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(prob0, prob1) of the objective, cached by the boolean support."""
    n, m = enabled.shape
    key = (objective, n, m, np.packbits(pos).tobytes(), enabled.tobytes(), tgt.tobytes())
    masks = _MASK_CACHE.get(key)
    if masks is None:
        if objective == "max":
            masks = (_prob0_max_mask(pos, tgt), _prob1_max_mask(pos, enabled, tgt))
        else:
            masks = (_prob0_min_mask(pos, enabled, tgt), np.zeros(n, dtype=bool))
        for mask in masks:
            mask.setflags(write=False)
        if len(_MASK_CACHE) >= MASK_CACHE_MAX:
            _MASK_CACHE.clear()
        _MASK_CACHE[key] = masks
    return masks


def _value_iteration(
    model: ConcreteModel,
    target: set[int],
    objective: str,
    trace: list[np.ndarray] | None = None,
) -> ReachValues:
    n, m = model.n_states, len(model.actions)
    tgt = _target_mask(n, target)
    pos = (model.trans > 0.0) & model.enabled[:, :, None]
    p0, p1 = _pinning_masks(objective, pos, model.enabled, tgt)

    pinned = p0 | p1 | tgt
    v = np.zeros(n)
    v[p1] = 1.0
    v[tgt] = 1.0

    no_action = ~model.enabled.any(axis=1)
    flat = model.trans.reshape(n * m, n)
    disabled = ~model.enabled
    fill = -np.inf if objective == "max" else np.inf
    reduce_ = np.maximum.reduce if objective == "max" else np.minimum.reduce
    qbuf = np.empty(n * m)

    residual = np.inf
    sweeps = 0
    while residual > VI_TOL:
        if sweeps >= MAX_SWEEPS:
            raise IterationLimitError(f"no convergence after {MAX_SWEEPS} sweeps")
        np.matmul(flat, v, out=qbuf)
        q = qbuf.reshape(n, m)
        q[disabled] = fill
        new = reduce_(q, axis=1)
        new[no_action] = 0.0
        new[pinned] = v[pinned]
        residual = float(np.abs(new - v).max())
        v = new
        sweeps += 1
        if trace is not None:
            trace.append(v.copy())

    v = np.clip(v, 0.0, 1.0)
    return ReachValues(
        objective=objective,
        target=frozenset(target),
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
