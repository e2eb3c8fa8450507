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
sample sets.  A query reads a sample only through its analysis, so
`AnalysisBatch` keeps each distinct analysis once (a class) with the
samples that share it, and answers a query once per class: the samples
where the canonical cause is empty, where a set is an SPR cause, and where
a member is recall-optimal.
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
    """One sample's analysis: singleton-cause states and the support graph."""

    cause_states: frozenset[int]
    graph: Graph


@dataclass(frozen=True)
class AnalysisBatch:
    """One batch's distinct analyses (`classes`, in the order of their first
    sample) and, for each class, the indices of the samples that have it."""

    initial: int
    effect: frozenset[int]
    classes: tuple[SampleAnalysis, ...]
    samples: tuple[frozenset[int], ...]

    @classmethod
    def of(cls, initial: int, effect: frozenset[int],
           analyses: Iterable[SampleAnalysis]) -> AnalysisBatch:
        """Group per-sample analyses into classes of equal analyses."""
        members: dict[SampleAnalysis, list[int]] = {}
        for i, a in enumerate(analyses):
            members.setdefault(a, []).append(i)
        return cls(initial, effect, tuple(members), tuple(map(frozenset, members.values())))

    @property
    def n(self) -> int:
        return sum(map(len, self.samples))

    def _where(self, holds: Callable[[SampleAnalysis], bool]) -> frozenset[int]:
        """The samples of every class on which `holds` is true."""
        return frozenset().union(*(s for a, s in zip(self.classes, self.samples) if holds(a)))

    def canonical(self, analysis: SampleAnalysis, restrict: frozenset[int]) -> frozenset[int]:
        """The front of the analysis's singleton causes within `restrict`."""
        return cause_front(analysis.cause_states & restrict, analysis.graph, self.initial)

    def empty_canonical_samples(self, restrict: frozenset[int]) -> frozenset[int]:
        """Samples whose canonical cause over `restrict` is empty."""
        return self._where(lambda a: not self.canonical(a, restrict))

    def cause_samples(self, cause: frozenset[int]) -> frozenset[int]:
        """Samples on which `cause` is an SPR cause: members all singleton
        causes over the full state space, plus minimality."""
        return self._where(lambda a: cause <= a.cause_states
                           and satisfies_minimality(a.graph, self.initial, cause))

    def recall_samples(self, member: frozenset[int], restrict: frozenset[int]) -> frozenset[int]:
        """Samples on which `member` is recall-optimal (`recall_optimal`)."""
        return self._where(lambda a: recall_optimal(member, self, a, restrict))


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
    member: frozenset[int], batch: AnalysisBatch, analysis: SampleAnalysis,
    restrict: frozenset[int],
) -> bool:
    """Is `member` a recall-optimal SPR cause on the samples with `analysis`?

    The member must be made of singleton causes within `restrict`, satisfy
    minimality, and cover every effect path through the analysis's canonical
    cause over `restrict`.
    """
    graph = analysis.graph
    return (
        member <= (analysis.cause_states & restrict)
        and satisfies_minimality(graph, batch.initial, member)
        and recall_covers(
            graph, member, batch.canonical(analysis, restrict), batch.effect, batch.initial
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
