"""Independent oracles used across the test suite.

Each oracle deliberately avoids the code path it checks: the tail-bound
oracle works on integers, the probability oracles integrate the density,
the cover oracle enumerates simple paths, the graph-predicate oracles
run one search per member where the package runs one in all, and the
exact-solver oracles work on Fractions where the exact back end works on
integers.  The restricted estimators re-analyse every point per quantity,
with the analysis restricted to the states the quantity asks about,
instead of querying one shared batch.

The single-model references analyse one concrete model outside
`solver.analyze_batch`: `singleton_cause_set`, `is_spr_cause` (singleton
verdicts plus condition (M)) and `canonical_cause` (the front of the
singleton causes), the references for the NA1/NA2 baselines and the
restricted estimators.  `rational_to_concrete` is the float twin of a
rational MDP, for float-against-exact comparisons.

`from_parametric` (a parametric model at an exact rational point),
`enabled_actions`, `spec_to_json` and `binomial_cdf` (the float value of
the binomial tail that `tail_root` decides against) are helpers that only
tests call, and
`sample_analyses` reads each sample's analysis back from a batch's classes.

`select_indices_reference` is the greedy cover's former form, which
rescans the index order for each pick and restarts its prune after every
drop; the package takes the builtin `max` and prunes in one pass.

`prob1_max_mask_dense` and `value_iteration_loop` are the value
iteration's former forms: the prob1 double fixpoint over the dense
(state, action, successor) support tensor, and the sweep that masks the
disabled Q-entries in place and reduces along each state's actions.  The
package's edge-list fixpoint and penalty sweep must match them bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, exp
from typing import Iterable

import numpy as np
from scipy import integrate

from sprcause.bounds import _log_cdf
from sprcause.exact import RationalMDP
from sprcause.expr import evaluate
from sprcause.gridworld import GridSpec
from sprcause.model import ConcreteModel, ModelError, ParametricModel, instantiate, support_graph
from sprcause.reach import VI_TOL, reachable_avoiding
from sprcause.sampling import sample
from sprcause.sprcheck import cause_front, recall_covers, satisfies_minimality, singleton_causes


def singleton_cause_set(model: ConcreteModel, restrict=None) -> frozenset[int]:
    """States whose singletons are SPR causes, intersected with `restrict`."""
    verdicts = singleton_causes(model, restrict)
    return frozenset(c for c, v in verdicts.items() if v.sign == 1)


def is_spr_cause(model: ConcreteModel, cause) -> bool:
    """Set-level check: every member a singleton cause, plus condition (M)."""
    cause = set(cause)
    if not cause:
        raise ValueError("the empty set is not a cause candidate")
    if cause & model.effect:
        raise ValueError("cause states must avoid the effect set")
    members = singleton_cause_set(model, cause)
    if members != frozenset(cause):
        return False
    return satisfies_minimality(support_graph(model), model.initial, cause)


def canonical_cause(model: ConcreteModel, restrict=None) -> frozenset[int]:
    """The front of all singleton causes within the given state restriction."""
    causes = singleton_cause_set(model, restrict)
    return cause_front(causes, support_graph(model), model.initial)


def from_parametric(pmodel: ParametricModel, point: Iterable[Fraction]) -> RationalMDP:
    """Instantiate a parametric model at an exact rational point.

    Raises ModelError unless every row is exactly a distribution.  Zero
    entries are dropped, as in `exact.from_concrete`: a row's keys are its
    support, and the exact layer's graph steps read them as edges."""
    point = [Fraction(x) for x in point]
    if len(point) != pmodel.param_space.dimension:
        raise ModelError("parameter point has wrong dimension")
    rows = [[None] * pmodel.n_actions for _ in range(pmodel.n_states)]
    for s, a in product(range(pmodel.n_states), range(pmodel.n_actions)):
        programs = pmodel.transitions[s][a]
        if programs is None:
            continue
        vals = {t: evaluate(program, point, Fraction) for t, program in programs.items()}
        if any(v < 0 or v > 1 for v in vals.values()):
            raise ModelError(f"entry out of [0,1] at ({pmodel.states[s]}, {pmodel.actions[a]})")
        if sum(vals.values()) != 1:
            raise ModelError(f"row does not sum to 1 at ({pmodel.states[s]}, {pmodel.actions[a]})")
        rows[s][a] = {t: v for t, v in vals.items() if v != 0}
    return RationalMDP(pmodel.n_states, tuple(map(tuple, rows)), pmodel.initial)


def enabled_actions(pmodel: ParametricModel, s: int) -> tuple[int, ...]:
    return tuple(a for a, row in enumerate(pmodel.transitions[s]) if row is not None)


def spec_to_json(spec: GridSpec) -> dict:
    return {
        "width": spec.width,
        "height": spec.height,
        "start": list(spec.start),
        "obstacles": sorted(list(c) for c in spec.obstacles),
        "red": sorted(list(c) for c in spec.red),
        "risky": [{"cell": list(c), "param": p} for c, p in sorted(spec.risky.items())],
        "careful": sorted(list(c) for c in spec.careful),
        "one_way": [
            {"cell": list(c), "actions": list(a)} for c, a in sorted(spec.one_way.items())
        ],
        "slip": spec.slip,
    }


def rational_to_concrete(mdp: RationalMDP, effect) -> ConcreteModel:
    """Float twin of a rational MDP, states s0.. and actions a0.."""
    n, m = mdp.n_states, mdp.n_actions
    trans = np.zeros((n, m, n))
    enabled = np.zeros((n, m), dtype=bool)
    for s in range(n):
        for a, row in enumerate(mdp.rows[s]):
            if row is None:
                continue
            enabled[s, a] = True
            for t, p in row.items():
                trans[s, a, t] = float(p)
    return ConcreteModel(
        states=tuple(f"s{i}" for i in range(n)),
        actions=tuple(f"a{i}" for i in range(m)),
        initial=mdp.initial,
        effect=frozenset(effect),
        trans=trans,
        enabled=enabled,
    )


def prob1_max_mask_dense(pos: np.ndarray, enabled: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """The max objective's prob1 states by the double fixpoint over the
    dense (S, A, S) support; the reference for `reach._prob1_max_mask`."""
    u = np.ones(tgt.shape, dtype=bool)
    while True:
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


def value_iteration_loop(model: ConcreteModel, target, objective: str):
    """(values, residual, sweeps) of the former sweep: fill the disabled
    Q-entries in place, reduce each state's row, zero the actionless states
    and restore the pinned ones; the reference for `reach._value_iteration`."""
    n, m = model.n_states, len(model.actions)
    tgt = np.zeros(n, dtype=bool)
    tgt[list(target)] = True
    pinned = tgt
    if objective == "max":
        pos = (model.trans > 0.0) & model.enabled[:, :, None]
        pinned = prob1_max_mask_dense(pos, model.enabled, tgt)
    v = pinned.astype(float)
    no_action = ~model.enabled.any(axis=1)
    flat = model.trans.reshape(n * m, n)
    disabled = ~model.enabled
    fill = -np.inf if objective == "max" else np.inf
    reduce_ = np.maximum.reduce if objective == "max" else np.minimum.reduce
    qbuf = np.empty(n * m)
    residual, sweeps = np.inf, 0
    while residual > VI_TOL:
        np.matmul(flat, v, out=qbuf)
        q = qbuf.reshape(n, m)
        q[disabled] = fill
        new = reduce_(q, axis=1)
        new[no_action] = 0.0
        new[pinned] = v[pinned]
        residual = float(np.abs(new - v).max())
        v = new
        sweeps += 1
    return np.clip(v, 0.0, 1.0), residual, sweeps


def rational_tail_root(k: int, n: int, beta: Fraction, bits: int = 60) -> Fraction:
    """Bisect the binomial-tail equation exactly.

    With t = a/2^bits the defining sum is a pure integer comparison:
        sum_{i<=k} C(n,i) (2^bits-a)^i a^(n-i)   vs   (1-beta)/n * 2^(bits*n),
    so the bracket is exact; the returned midpoint is within 2^-(bits+1)
    of the true root.
    """
    if k == 0:
        raise ValueError("k = 0 is the closed-form case, not a root")
    if k >= n:
        return Fraction(0)
    rhs = (Fraction(1) - Fraction(beta)) / n
    binom = [1] * (k + 1)
    for i in range(1, k + 1):
        binom[i] = binom[i - 1] * (n - i + 1) // i
    two_d = 1 << bits
    bound = rhs.numerator * two_d**n

    def sum_exceeds(a: int) -> bool:
        b = two_d - a
        a_pows = [a ** (n - k)]  # a^(n-k) .. a^n
        for _ in range(k):
            a_pows.append(a_pows[-1] * a)
        total = 0
        b_pow = 1
        for i in range(k + 1):
            total += binom[i] * b_pow * a_pows[k - i]
            b_pow *= b
        return total * rhs.denominator > bound

    lo, hi = 0, two_d
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if sum_exceeds(mid):
            hi = mid
        else:
            lo = mid
    return Fraction(lo + hi, 2 * two_d)


def binomial_cdf(k: int, n: int, success: float) -> float:
    """P[Bin(n, success) <= k], by the float sum of `bounds._log_cdf` at
    x = 1 - success: the float layer of `tail_root`'s decisions, as a value."""
    x = 1.0 - success
    if k >= n or x >= 1.0:
        return 1.0
    if x <= 0.0:
        return 0.0
    return exp(_log_cdf(k, n, x)[0])


def binomial_cdf_below(k: int, n: int, x: float, rhs: float) -> bool:
    """Is P[Bin(n, 1 - x) <= k] < rhs, decided on integers?

    With x = a/b the CDF is sum_{i<=k} C(n,i) (b-a)^i a^(n-i) / b^n.  The
    sum runs over the shorter tail, one term at a time with its own powers.
    """
    a, b = x.as_integer_ratio()
    num, den = rhs.as_integer_ratio()

    def term(i: int) -> int:
        return comb(n, i) * (b - a) ** i * a ** (n - i)

    if 2 * k < n:
        lower = sum(map(term, range(k + 1)))
    else:
        lower = b**n - sum(map(term, range(k + 1, n + 1)))
    return lower * den < num * b**n


def uniform_box_probability(pred, p_range, q_range) -> float:
    """P[pred(p, q)] for independent uniforms by 2-D quadrature."""
    (plo, phi), (qlo, qhi) = p_range, q_range
    density = 1.0 / ((phi - plo) * (qhi - qlo))

    def integrand(q, p):
        return density if pred(p, q) else 0.0

    value, _ = integrate.dblquad(integrand, plo, phi, qlo, qhi, epsabs=1e-10)
    return value


def prob_first_greater(p_range, q_range) -> float:
    """P[p > q] for independent uniforms, integrating the inner CDF (smooth)."""
    (plo, phi), (qlo, qhi) = p_range, q_range

    def cdf_q(v: float) -> float:
        return min(max((v - qlo) / (qhi - qlo), 0.0), 1.0)

    breakpoints = [b for b in (qlo, qhi) if plo < b < phi]
    value, _ = integrate.quad(
        lambda v: cdf_q(v) / (phi - plo), plo, phi, points=breakpoints or None,
        epsabs=1e-13, limit=200,
    )
    return value


def enumerate_simple_paths(succ, start: int, max_len: int | None = None):
    """All simple paths from start (as tuples of states)."""
    n = len(succ)
    limit = max_len if max_len is not None else n
    out = []

    def walk(path):
        out.append(tuple(path))
        if len(path) >= limit:
            return
        for t in succ[path[-1]]:
            if t not in path:
                walk(path + [t])

    walk([start])
    return out


def path_cover_holds(succ, start: int, effect, cause, reference) -> bool:
    """Brute force: every simple path hitting `reference` and `effect` also
    hits `cause` (lasso-free models only: effect terminal, so simple paths
    suffice for reach-and-avoid witnesses)."""
    cause, reference, effect = set(cause), set(reference), set(effect)
    for path in enumerate_simple_paths(succ, start):
        if set(path) & reference and set(path) & effect and not set(path) & cause:
            return False
    return True


def random_layered_mdp(
    rng: np.random.Generator, max_states: int = 6, max_actions: int = 2
) -> tuple[RationalMDP, set[int]]:
    """Forward-flowing random MDP (all rows point at later states).

    The last two states are a safe self-loop and a terminal effect, so
    reachable probability-raising states show up frequently.
    """
    n = int(rng.integers(4, max_states + 1))
    safe, eff = n - 2, n - 1
    rows = []
    for s in range(n):
        if s == eff:
            rows.append(tuple([None] * max_actions))
            continue
        if s == safe:
            rows.append(tuple([{safe: Fraction(1)}] + [None] * (max_actions - 1)))
            continue
        per_action: list[dict[int, Fraction] | None] = []
        n_enabled = int(rng.integers(1, max_actions + 1))
        for a in range(max_actions):
            if a >= n_enabled:
                per_action.append(None)
                continue
            later = list(range(s + 1, n))
            size = int(rng.integers(1, min(3, len(later)) + 1))
            support = rng.choice(later, size=size, replace=False)
            weights = [int(rng.integers(1, 5)) for _ in support]
            total = sum(weights)
            per_action.append({int(t): Fraction(w, total) for t, w in zip(support, weights)})
        rows.append(tuple(per_action))
    return RationalMDP(n_states=n, rows=tuple(rows), initial=0), {eff}


def random_rational_mdp(
    rng: np.random.Generator,
    max_states: int = 8,
    max_actions: int = 3,
    n_effect: int = 1,
) -> tuple[RationalMDP, set[int]]:
    """Random small MDP with fraction rows; effect states are terminal."""
    n = int(rng.integers(3, max_states + 1))
    m = int(rng.integers(1, max_actions + 1))
    effect = set(range(n - n_effect, n))
    rows = []
    for s in range(n):
        per_action: list[dict[int, Fraction] | None] = []
        if s in effect:
            rows.append(tuple([None] * m))
            continue
        n_enabled = int(rng.integers(1, m + 1))
        enabled = rng.choice(m, size=n_enabled, replace=False)
        for a in range(m):
            if a not in enabled:
                per_action.append(None)
                continue
            support = rng.choice(n, size=int(rng.integers(1, min(3, n) + 1)), replace=False)
            weights = [int(rng.integers(1, 5)) for _ in support]
            total = sum(weights)
            per_action.append(
                {int(t): Fraction(w, total) for t, w in zip(support, weights)}
            )
        rows.append(tuple(per_action))
    return RationalMDP(n_states=n, rows=tuple(rows), initial=0), effect


def cause_front_per_member(causes, graph, initial) -> frozenset[int]:
    """One search per member: members reachable while avoiding the others.
    The reference for the one-search `sprcheck.cause_front`."""
    causes = set(causes)
    return frozenset(
        c for c in causes if c in reachable_avoiding(graph, initial, causes - {c})
    )


def minimality_per_member(graph, initial, cause) -> bool:
    """Condition (M) with one search per member; the reference for
    `sprcheck.satisfies_minimality`."""
    cause = set(cause)
    return all(c in reachable_avoiding(graph, initial, cause - {c}) for c in cause)


def exists_path_via_per_via(graph, start, via, target, avoid) -> bool:
    """One second-leg search per reachable `via` state; the reference for
    the two-search `reach.exists_path_via`."""
    avoid = set(avoid)
    targets = set(target) - avoid
    first_leg = reachable_avoiding(graph, start, avoid)
    return any(
        v in first_leg and bool(reachable_avoiding(graph, v, avoid) & targets)
        for v in set(via) - avoid
    )


def sample_analyses(batch) -> list:
    """Each sample's analysis, read back from an `AnalysisBatch`'s classes."""
    out = [None] * batch.n
    for analysis, samples in zip(batch.classes, batch.samples):
        for i in samples:
            out[i] = analysis
    return out


def recall_optimal_reference(analysis, initial, effect, member, canonical, restrict) -> bool:
    """The recall-optimality test written out inline; the reference for
    `bounds.recall_optimal`."""
    return (
        member <= (analysis.cause_states & restrict)
        and satisfies_minimality(analysis.graph, initial, member)
        and recall_covers(analysis.graph, member, canonical, effect=effect, initial=initial)
    )


def restricted_cause_fraction(pmodel, dist, cause, n_samples: int, seed: int) -> float:
    """Fraction of points on which `cause` is an SPR cause, each point
    instantiated and checked on the cause's own states."""
    points = sample(dist, n_samples, seed).points
    return sum(1 for p in points if is_spr_cause(instantiate(pmodel, p), cause)) / n_samples


def restricted_recall_indicator(concrete, collection, candidate_states) -> bool:
    """Is some member recall-optimal on this concrete model, with the
    analysis restricted to the candidate states?"""
    causes = singleton_cause_set(concrete, candidate_states)
    graph = support_graph(concrete)
    canonical = canonical_cause(concrete, candidate_states)
    return any(
        member <= causes
        and satisfies_minimality(graph, concrete.initial, member)
        and recall_covers(graph, member, canonical, effect=concrete.effect,
                          initial=concrete.initial)
        for member in collection
    )


def restricted_recall_fraction(
    pmodel, dist, collection, candidate_states, n_samples: int, seed: int
) -> float:
    """Fraction of points on which some member is recall-optimal, each point
    re-instantiated and analysed over the candidate states only; a point
    with no singleton cause contributes 0."""
    collection = [frozenset(c) for c in collection]
    candidate_states = frozenset(candidate_states)
    points = sample(dist, n_samples, seed).points
    hits = sum(
        1 for p in points
        if restricted_recall_indicator(instantiate(pmodel, p), collection, candidate_states)
    )
    return hits / n_samples


def fraction_solve_linear(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Gauss-Jordan elimination on Fractions (the exact back end's former solver)."""
    n = len(b)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular system")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def fraction_optimal_successors(mdp: RationalMDP, values: list[Fraction]) -> list[frozenset[int]]:
    """Successors of the value-optimal actions by Fraction backups, one action at a time."""
    succ = []
    for s in range(mdp.n_states):
        targets: set[int] = set()
        for a in mdp.enabled(s):
            row = mdp.rows[s][a]
            q = sum((p * values[t] for t, p in row.items()), Fraction(0))
            if q == values[s]:
                targets |= set(row)
        succ.append(frozenset(targets))
    return succ


def select_indices_reference(cover_sets: dict[int, frozenset[int]], universe: frozenset[int]) -> list[int]:
    """The former `solver.select_indices`: greedy cover, then prune with a restart."""
    chosen: list[int] = []
    covered: set[int] = set()
    remaining = dict(cover_sets)
    while covered < universe:
        best = None
        best_key = None
        for i in sorted(remaining):
            gain = len(remaining[i] - covered)
            key = (gain, len(remaining[i]), -i)
            if best_key is None or key > best_key:
                best, best_key = i, key
        if best is None or best_key[0] == 0:
            raise AssertionError("cover sets cannot cover all samples")
        chosen.append(best)
        covered |= remaining.pop(best)

    pruned = True
    while pruned:
        pruned = False
        for i in sorted(chosen):
            rest = set().union(*(cover_sets[j] for j in chosen if j != i)) if len(chosen) > 1 else set()
            if cover_sets[i] <= rest:
                chosen.remove(i)
                pruned = True
                break
    return sorted(chosen)
