"""Monte-Carlo estimates of the cause and recall probabilities, and the
NA1/NA2 single-point baselines.

One analysis per fresh point, queried for every quantity: `fresh_analyses`
draws the batch and runs `identify`'s own per-sample analysis once on each
point, and every estimate (F per member, R, R without each member) is the
size of a union of that batch's sample sets, the ones the bounds count,
each answered once per class of equal analyses.  The points are fresh and
the estimates plain fractions, so they serve as oracles against the PAC
bounds.

The baselines use the same batch analysis: NA1 analyses a batch of the
mean point and NA2 one of the support-box vertices, and each reads one
canonical cause over all states per class of its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .bounds import AnalysisBatch, cause_sample_count
from .model import ParametricModel
from .sampling import DistSpec, SampleBatch, align_dist, mean_point, sample, support_vertices
from .solver import analyze_batch

@dataclass(frozen=True)
class Estimate:
    value: float
    n_samples: int

    @property
    def half_width(self) -> float:
        """Three-sigma binomial half width."""
        return 3.0 * math.sqrt(self.value * (1.0 - self.value) / self.n_samples)


def fresh_analyses(
    pmodel: ParametricModel, dist: DistSpec, n_samples: int, seed: int
) -> AnalysisBatch:
    """Draw `n_samples` points and analyse each once, as `identify` does."""
    dist = align_dist(dist, pmodel.param_space.names)
    return analyze_batch(pmodel, sample(dist, n_samples, seed))


def _recall_fraction(
    members: Iterable[frozenset[int]], restrict: frozenset[int], analyses: AnalysisBatch
) -> Estimate:
    """Fraction of samples on which some member is recall-optimal."""
    # unlike zeta's count, an empty canonical cause counts only if a member hits
    hits = frozenset().union(*(analyses.recall_samples(m, restrict) for m in members))
    return Estimate(len(hits) / analyses.n, analyses.n)


def estimate_cause_probability(
    pmodel: ParametricModel,
    dist: DistSpec,
    cause: Iterable[int],
    n_samples: int,
    seed: int,
) -> Estimate:
    """Fraction of fresh samples on which `cause` is an SPR cause."""
    cause = frozenset(cause)
    if not cause:
        raise ValueError("empty cause")
    analyses = fresh_analyses(pmodel, dist, n_samples, seed)
    return Estimate(cause_sample_count(cause, analyses) / n_samples, n_samples)


def estimate_recall_probability(
    pmodel: ParametricModel,
    dist: DistSpec,
    collection: Iterable[Iterable[int]],
    candidate_states: Iterable[int],
    n_samples: int,
    seed: int,
) -> Estimate:
    """Fraction of fresh samples on which some member is recall-optimal.

    A sample without any singleton cause contributes 0: with no SPR cause
    there is nothing recall-optimal to contain.
    """
    members = [frozenset(c) for c in collection]
    analyses = fresh_analyses(pmodel, dist, n_samples, seed)
    return _recall_fraction(members, frozenset(candidate_states), analyses)


@dataclass(frozen=True)
class SubsetGap:
    full: Estimate
    # the k leave-one-out collections: the largest proper subsets
    subsets: tuple[tuple[tuple[frozenset[int], ...], Estimate], ...]

    @property
    def max_subset_value(self) -> float:
        return max((e.value for _, e in self.subsets), default=0.0)

    @property
    def gap(self) -> float:
        return self.full.value - self.max_subset_value


def recall_gap(
    members: list[frozenset[int]],
    candidate_states: Iterable[int],
    analyses: AnalysisBatch,
) -> SubsetGap:
    """R of the whole collection and of each leave-one-out collection, from
    one batch.  Union is monotone, so the largest leave-one-out R is the
    largest R over all proper subsets: k unions instead of 2^k - 1."""
    restrict = frozenset(candidate_states)
    rest = [tuple(members[:i] + members[i + 1:]) for i in range(len(members))]
    subsets = tuple((combo, _recall_fraction(combo, restrict, analyses)) for combo in rest)
    return SubsetGap(full=_recall_fraction(members, restrict, analyses), subsets=subsets)


def subset_recall_gap(
    pmodel: ParametricModel,
    dist: DistSpec,
    members: list[frozenset[int]],
    candidate_states: Iterable[int],
    n_samples: int,
    seed: int,
) -> SubsetGap:
    """Recall estimates for the whole collection and each leave-one-out one."""
    analyses = fresh_analyses(pmodel, dist, n_samples, seed)
    return recall_gap(list(members), candidate_states, analyses)


def _canonical_causes(pmodel: ParametricModel, dist: DistSpec, points_of) -> list[frozenset[int]]:
    """Canonical causes over all states at `points_of(dist)`, one per class
    of the batch analysis, in the order of each class's first point."""
    points = points_of(align_dist(dist, pmodel.param_space.names))
    analyses = analyze_batch(pmodel, SampleBatch(points=np.array(points)))
    every = frozenset(range(pmodel.n_states))
    return [analyses.canonical(a, every) for a in analyses.classes]


def mean_point_baseline(pmodel: ParametricModel, dist: DistSpec) -> frozenset[int]:
    """NA1: the canonical cause at the mean parameter point."""
    return _canonical_causes(pmodel, dist, lambda d: [mean_point(d)])[0]


def vertex_baseline(pmodel: ParametricModel, dist: DistSpec) -> list[frozenset[int]]:
    """NA2: canonical causes at the support-box vertices, deduplicated."""
    return list(dict.fromkeys(_canonical_causes(pmodel, dist, support_vertices)))
