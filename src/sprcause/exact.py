"""Exact-rational reachability.

Independent oracle for the float value-iteration path: deterministic
memoryless policy iteration in exact arithmetic.  Memoryless
deterministic policies attain extremal reachability probabilities, and at
termination the (honest) policy value is a fixed point of the optimal
Bellman operator, which pins it to the true optimum.

For the min objective, states from which some policy avoids the target
forever are pinned to exactly 0 in every evaluation; on the remaining
states every policy leaks into target-or-pinned, which makes the policy
evaluation systems nonsingular and the Bellman-min fixed point unique.

The iteration runs on integers.  Each enabled row is scaled once to
(L, {t: k}) with p_t = k / L.  Policy evaluation solves the integer system
L·x_s − Σ k·x_t = Σ_{t in target} k by Bareiss' fraction-free elimination
(Math. Comp. 22, 1968), which returns x = nums / det with det > 0; policy
improvement compares Σ k·nums[t] with L·nums[s], the Bellman backup and
the value both multiplied by L·det.  Fractions are built only for the
returned values.  The optimum is unique and Fraction is canonical, so the
result is bit-identical to the same iteration on Fraction arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

from .model import ConcreteModel, Graph
from .reach import reachable_avoiding


@dataclass(frozen=True)
class RationalMDP:
    n_states: int
    # rows[s][a] is {target: Fraction} or None when the action is disabled
    rows: tuple[tuple[dict[int, Fraction] | None, ...], ...]
    initial: int = 0

    @property
    def n_actions(self) -> int:
        return len(self.rows[0])

    def enabled(self, s: int) -> list[int]:
        return [a for a, row in enumerate(self.rows[s]) if row is not None]


def from_concrete(model: ConcreteModel) -> RationalMDP:
    """Convert float rows to exact binary rationals."""
    trans, enabled = model.trans.tolist(), model.enabled.tolist()
    rows = tuple(
        tuple(
            {t: Fraction(p) for t, p in enumerate(row) if p > 0.0} if on else None
            for row, on in zip(trans[s], enabled[s])
        )
        for s in range(model.n_states)
    )
    return RationalMDP(n_states=model.n_states, rows=rows, initial=model.initial)


def _scaled(row: dict[int, Fraction]) -> tuple[int, dict[int, int]]:
    """One row over its common denominator: (L, {t: k}) with p_t = k / L."""
    big = lcm(*(p.denominator for p in row.values()))
    return big, {t: p.numerator * (big // p.denominator) for t, p in row.items()}


def _scaled_rows(mdp: RationalMDP) -> list[list[tuple[int, dict[int, int]] | None]]:
    return [[None if row is None else _scaled(row) for row in rows] for rows in mdp.rows]


def _solve_bareiss(a: list[list[int]], b: list[int]) -> tuple[list[int], int]:
    """Solve the integer system a·x = b by fraction-free elimination.

    Bareiss' forward pass keeps every entry an integer (each division is
    exact); back substitution then yields x = nums / det with integer
    nums, by Cramer's rule.  Returns (nums, det) with det > 0.
    """
    n = len(b)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular system")
        m[col], m[pivot] = m[pivot], m[col]
        top, d = m[col], m[col][col]
        for r in range(col + 1, n):
            row, f = m[r], m[r][col]
            for j in range(col + 1, n + 1):
                row[j] = (d * row[j] - f * top[j]) // prev
            row[col] = 0
        prev = d
    det = prev
    nums = [0] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        acc = det * row[n] - sum(row[j] * nums[j] for j in range(i + 1, n))
        nums[i] = acc // row[i]
    if det < 0:
        return [-x for x in nums], -det
    return nums, det


def _avoid_forever(mdp: RationalMDP, target: set[int]) -> set[int]:
    """States with a policy whose support never meets the target."""
    u = set(range(mdp.n_states)) - target
    while True:
        drop = set()
        for s in u:
            acts = mdp.enabled(s)
            if not acts:
                continue  # terminal: avoids trivially
            if not any(set(mdp.rows[s][a]) <= u for a in acts):
                drop.add(s)
        if not drop:
            return u
        u -= drop


def _evaluate(
    mdp: RationalMDP,
    scaled: list[list[tuple[int, dict[int, int]] | None]],
    policy: list[int],
    target: set[int],
    zero: set[int],
) -> tuple[list[int], int]:
    """Exact reach probabilities of the policy's chain, as (nums, det) with
    value_s = nums[s] / det; `zero` states pinned."""
    n = mdp.n_states
    # states that can reach the target in this chain, by one backward search
    # from it; the rest stay 0
    pred: list[set[int]] = [set() for _ in range(n)]
    for s in range(n):
        if s not in target and s not in zero and policy[s] >= 0:
            for t in mdp.rows[s][policy[s]]:
                pred[t].add(s)
    can = reachable_avoiding(Graph(n, tuple(pred)), target, ())
    unknown = [s for s in range(n) if s in can and s not in target and s not in zero]
    nums, det = [0] * n, 1
    if unknown:
        # L·x_s − Σ_{t unknown} k·x_t = Σ_{t in target} k
        idx = {s: i for i, s in enumerate(unknown)}
        k = len(unknown)
        a = [[0] * k for _ in range(k)]
        b = [0] * k
        for s in unknown:
            i = idx[s]
            big, row = scaled[s][policy[s]]
            a[i][i] += big
            for t, c in row.items():
                if t in idx:
                    a[i][idx[t]] -= c
                elif t in target:
                    b[i] += c
        sol, det = _solve_bareiss(a, b)
        for s in unknown:
            nums[s] = sol[idx[s]]
    for t in target:
        nums[t] = det
    return nums, det


def exact_reach(
    mdp: RationalMDP,
    target: Iterable[int],
    objective: str,
) -> list[Fraction]:
    """Exact optimal reachability values (min or max over policies)."""
    if objective not in ("min", "max"):
        raise ValueError("objective must be 'min' or 'max'")
    target = set(target)
    n = mdp.n_states
    zero = _avoid_forever(mdp, target) if objective == "min" else set()
    better = (lambda q, v: q > v) if objective == "max" else (lambda q, v: q < v)
    scaled = _scaled_rows(mdp)

    policy = [acts[0] if (acts := mdp.enabled(s)) else -1 for s in range(n)]
    seen_policies = set()
    while True:
        key = tuple(policy)
        if key in seen_policies:
            raise RuntimeError("policy iteration cycled")
        seen_policies.add(key)
        nums, det = _evaluate(mdp, scaled, policy, target, zero)
        improved = False
        for s in range(n):
            if s in target or s in zero or policy[s] < 0:
                continue
            # q_a > v_s  <=>  Σ k·nums[t] > L·nums[s]  (both sides times L·det > 0)
            for a, scaled_row in enumerate(scaled[s]):
                if scaled_row is None:
                    continue
                big, row = scaled_row
                if better(sum(c * nums[t] for t, c in row.items()), big * nums[s]):
                    policy[s] = a
                    improved = True
                    break
        if not improved:
            return [Fraction(x, det) for x in nums]


def optimal_successors(mdp: RationalMDP, values: list[Fraction]) -> list[frozenset[int]]:
    """Per state, the successors of its value-optimal actions: the actions
    whose one-step backup equals the state's value exactly."""
    den = lcm(*(v.denominator for v in values))
    nums = [v.numerator * (den // v.denominator) for v in values]
    succ = []
    for s, rows in enumerate(_scaled_rows(mdp)):
        targets: set[int] = set()
        for scaled in rows:
            if scaled is not None:
                big, row = scaled
                if sum(c * nums[t] for t, c in row.items()) == big * nums[s]:
                    targets.update(row)
        succ.append(frozenset(targets))
    return succ
