"""Scenario-style PAC lower bounds from sample counts.

The bound after discarding k of N samples at confidence beta is the root
t of

    sum_{i<=k} C(N,i) (1-t)^i t^(N-i)  =  (1-beta)/N,

i.e. the binomial CDF at k with success probability 1-t.  The no-discard
case (k = 0) is special: the un-union-bounded scenario bound applies and
gives (1-beta)^(1/N), which is larger than the k=0 root of the equation
above.  The CDF is evaluated through the regularized incomplete beta
function, which stays finite for sample counts far beyond direct
summation.

Every count, cover set and Monte-Carlo estimate is the size of a union of
sample sets that one memo on `AnalysisBatch` answers once per key: the
samples where the canonical cause is empty, where a set is an SPR cause,
and where a member is recall-optimal (plus each sample's canonical cause).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from scipy.special import betainc

from .model import Graph
from .sprcheck import cause_front, recall_covers, satisfies_minimality

BISECT_TOL = 1e-12


def binomial_cdf(k: int, n: int, success: float) -> float:
    """P[Bin(n, success) <= k] via the regularized incomplete beta identity."""
    if k >= n:
        return 1.0
    return float(betainc(n - k, k + 1, 1.0 - success))


def tail_root(discarded: int, total: int, confidence: float) -> float:
    """The PAC lower-bound value t*(k, beta) for k discarded of N samples."""
    k, n, beta = discarded, total, confidence
    if not 0 <= k <= n:
        raise ValueError(f"discard count {k} outside 0..{n}")
    if n < 1:
        raise ValueError("need at least one sample")
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"confidence {beta} outside (0, 1]")
    if k == 0:
        return (1.0 - beta) ** (1.0 / n)
    if k == n:
        return 0.0
    rhs = (1.0 - beta) / n

    def cdf_at(t: float) -> float:
        # success probability of a "violation" is 1 - t
        return binomial_cdf(k, n, 1.0 - t)

    lo, hi = 0.0, 1.0
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if cdf_at(mid) < rhs:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class SampleAnalysis:
    """Per-sample cache: singleton-cause states and the support graph."""

    cause_states: frozenset[int]
    graph: Graph


@dataclass(frozen=True)
class AnalysisBatch:
    """Analyses for one sampled batch, and the memo of the queries on it."""

    initial: int
    effect: frozenset[int]
    analyses: tuple[SampleAnalysis, ...]

    def __post_init__(self):
        object.__setattr__(self, "_memo", {})

    @property
    def n(self) -> int:
        return len(self.analyses)

    def _memoized(self, key: tuple, compute: Callable[[], frozenset[int]]) -> frozenset[int]:
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def canonical(self, index: int, restrict: frozenset[int]) -> frozenset[int]:
        a = self.analyses[index]
        return self._memoized(("canonical", index, restrict), lambda: cause_front(
            a.cause_states & restrict, a.graph, self.initial))

    def empty_canonical_samples(self, restrict: frozenset[int]) -> frozenset[int]:
        """Samples whose canonical cause over `restrict` is empty."""
        return self._memoized(("empty", restrict), lambda: frozenset(
            i for i in range(self.n) if not self.canonical(i, restrict)))

    def cause_samples(self, cause: frozenset[int]) -> frozenset[int]:
        """Samples on which `cause` is an SPR cause: members all singleton
        causes over the full state space, plus minimality."""
        return self._memoized(("cause", cause), lambda: frozenset(
            i for i, a in enumerate(self.analyses)
            if cause <= a.cause_states and satisfies_minimality(a.graph, self.initial, cause)))

    def recall_samples(self, member: frozenset[int], restrict: frozenset[int]) -> frozenset[int]:
        """Samples on which `member` is recall-optimal (`recall_optimal`)."""
        return self._memoized(("recall", member, restrict), lambda: frozenset(
            i for i in range(self.n) if recall_optimal(member, self, i, restrict)))


def cause_sample_count(cause: Iterable[int], batch: AnalysisBatch) -> int:
    """Samples on which `cause` is an SPR cause; duplicates count separately."""
    cause = frozenset(cause)
    if cause & batch.effect:
        raise ValueError("cause states must avoid the effect set")
    return len(batch.cause_samples(cause))


def cause_probability_bound(cause: Iterable[int], batch: AnalysisBatch, confidence: float) -> float:
    """eta: PAC lower bound on the probability that `cause` is an SPR cause."""
    n = cause_sample_count(cause, batch)
    return tail_root(batch.n - n, batch.n, confidence)


def recall_optimal(
    member: frozenset[int], batch: AnalysisBatch, index: int, restrict: frozenset[int]
) -> bool:
    """Is `member` a recall-optimal SPR cause on sample `index`?

    The member must be made of singleton causes within `restrict`, satisfy
    minimality, and cover every effect path through the sample's canonical
    cause over `restrict`.
    """
    a = batch.analyses[index]
    return (
        member <= (a.cause_states & restrict)
        and satisfies_minimality(a.graph, batch.initial, member)
        and recall_covers(
            a.graph, member, batch.canonical(index, restrict), batch.effect, batch.initial
        )
    )


def recall_sample_count(
    collection: Iterable[Iterable[int]],
    candidate_states: Iterable[int],
    batch: AnalysisBatch,
) -> int:
    """Samples on which some member is recall-optimal (`recall_optimal`).

    Samples whose canonical cause is empty have nothing to cover and count
    as covered.
    """
    restrict = frozenset(candidate_states)
    return len(batch.empty_canonical_samples(restrict).union(
        *(batch.recall_samples(frozenset(c), restrict) for c in collection)))


def recall_probability_bound(
    collection: Iterable[Iterable[int]],
    candidate_states: Iterable[int],
    batch: AnalysisBatch,
    confidence: float,
) -> float:
    """zeta: PAC lower bound on the recall-optimal probability of `collection`."""
    m = recall_sample_count(collection, candidate_states, batch)
    return tail_root(batch.n - m, batch.n, confidence)
