"""Scenario-style PAC lower bounds from sample counts.

The bound after discarding k of N samples at confidence beta is the root
t of

    sum_{i<=k} C(N,i) (1-t)^i t^(N-i)  =  (1-beta)/N,

i.e. the binomial CDF at k with success probability 1-t.  The no-discard
case (k = 0) is special: the un-union-bounded scenario bound applies and
gives (1-beta)^(1/N), which is larger than the k=0 root of the equation
above.

`tail_root` bisects on t and decides every step, CDF < (1-beta)/N,
exactly, at x = 1 - (1 - mid) in floats, whose complement 1 - x is a
float too:

- a float sum first (`_log_cdf`): the log of the tail's largest term from
  `lgamma`, ratios to its neighbours walking down to 0 and up to k, and
  `math.fsum`.  Each direction stops once a geometric bound on the rest
  falls below 2^-60 of the sum.  Its error bound grows with the size of
  the lgamma and log terms (8 ulps of their sum, where CPython's `lgamma`
  and `log` are within about 1 and 0.5 ulp) and with the number of ratio
  steps, and it counts the truncation;
- inside that band, a sum in `decimal` at 40 digits, whose n + 2k + 1
  correctly rounded operations bound its relative error by about
  (n + 2k + 1) 10^-40;
- inside that band too, the sum on integers, which is exact.

Every count, cover set and Monte-Carlo estimate is the size of a union of
sample sets.  A query reads a sample only through its analysis, so
`AnalysisBatch` keeps each distinct analysis once (a class) with the
samples that share it, and answers a query once per class: the samples
where the canonical cause is empty, where a set is an SPR cause, and where
a member is recall-optimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from operator import floordiv, truediv
from typing import Callable, Iterable

from .model import Graph
from .sprcheck import cause_front, recall_covers, satisfies_minimality

BISECT_TOL = 1e-12
EPS = math.ulp(1.0)
TAIL_STOP = 2.0**-60
DECIMAL = Context(prec=40, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _log_cdf(k: int, n: int, x: float) -> tuple[float, float]:
    """log P[Bin(n, 1 - x) <= k] as a float sum, and a bound on its error.

    For 0 < k < n and 0 < x < 1, where 1 - x must be exact in floats, as it
    is for x = 1 - y.
    """
    p, q = 1.0 - x, x
    log_p, log_q = math.log(p), math.log(q)
    s = min(k, int((n + 1) * p))  # the tail's largest term, or one next to it
    lg_n, lg_s, lg_rest = math.lgamma(n + 1), math.lgamma(s + 1), math.lgamma(n - s + 1)
    log_top = lg_n - lg_s - lg_rest + s * log_p + (n - s) * log_q
    terms = [1.0]
    term, i = 1.0, s
    while i > 0:  # T(i-1) / T(i)
        r = i * q / ((n - i + 1) * p)
        if r < 1.0 and term * r <= TAIL_STOP * (1.0 - r):
            break
        term *= r
        terms.append(term)
        i -= 1
    term, i = 1.0, s
    while i < k:  # T(i+1) / T(i)
        r = (n - i) * p / ((i + 1) * q)
        if r < 1.0 and term * r <= TAIL_STOP * (1.0 - r):
            break
        term *= r
        terms.append(term)
        i += 1
    magnitude = lg_n + lg_s + lg_rest - s * log_p - (n - s) * log_q + len(terms)
    return log_top + math.log(math.fsum(terms)), 8 * EPS * (magnitude + 4)


def _horner(k: int, n: int, p, q, div):
    """sum_{i<=k} C(n,i) p^i q^(k-i) by Horner's rule in q.

    `div` divides C(n,i) p^i (n - i) p by i + 1, which is exact on integers.
    """
    total, term = 0, 1
    for i in range(k):
        total = total * q + term
        term = div(term * (n - i) * p, i + 1)
    return total * q + term


def _decimal_below(k: int, n: int, x: float, rhs: float) -> bool | None:
    """The decision in `decimal`, or None when its error bound cannot tell."""
    with localcontext(DECIMAL):
        q = Decimal(x)
        total = _horner(k, n, Decimal(1.0 - x), q, truediv)
        for _ in range(n - k):
            total *= q
        # every rounding is at most half a unit in the 40th digit
        margin = total * (4 * (n + 2 * k + 1)) * Decimal("5e-40")
        if total + margin < rhs:
            return True
        if total - margin > rhs:
            return False
    return None


def _exact_below(k: int, n: int, x: float, rhs: float) -> bool:
    """The decision on integers: x = a/b with b a power of two."""
    a, b = x.as_integer_ratio()
    num, den = rhs.as_integer_ratio()
    return _horner(k, n, b - a, a, floordiv) * a ** (n - k) * den < num * b**n


def _cdf_below(k: int, n: int, x: float, rhs: float) -> bool:
    """Is P[Bin(n, 1 - x) <= k] < rhs, exactly?  For 0 < k < n and 0 < x < 1
    whose complement 1 - x is exact in floats."""
    if rhs <= 0.0:  # beta = 1
        return False
    log_cdf, err = _log_cdf(k, n, x)
    log_rhs = math.log(rhs)
    err += 8 * EPS * abs(log_rhs)
    if abs(log_cdf - log_rhs) > err:
        return log_cdf < log_rhs
    decided = _decimal_below(k, n, x, rhs)
    return _exact_below(k, n, x, rhs) if decided is None else decided


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

    lo, hi = 0.0, 1.0
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        # the CDF at success probability 1 - mid, at an x whose complement is exact
        if _cdf_below(k, n, 1.0 - (1.0 - mid), rhs):
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
