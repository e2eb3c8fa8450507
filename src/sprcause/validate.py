"""Monte-Carlo estimates of the cause and recall probabilities, and the
NA1/NA2 single-point baselines.

One analysis per fresh point, queried for every quantity: `fresh_analyses`
draws the batch and runs `identify`'s own per-sample analysis once on each
point, and every estimate (F per member, R, R of each proper subset) is a
count over that one batch through the predicates the bounds use.  The
points are fresh and the estimates plain fractions, so they serve as
oracles against the PAC bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

from .bounds import AnalysisBatch, cause_sample_count, recall_optimal
from .model import ParametricModel, instantiate
from .sampling import DistSpec, align_dist, mean_point, sample, support_vertices
from .solver import analyze_batch
from .sprcheck import canonical_cause

SUBSET_CAP = 12


class CapExceededError(ValueError):
    """Enumeration larger than the configured cap."""


@dataclass(frozen=True)
class Estimate:
    value: float
    n_samples: int
    seed: int

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


def _recall_masks(
    members: list[frozenset[int]], candidate_states: Iterable[int], analyses: AnalysisBatch
) -> list[int]:
    """Per sample, the bitmask of the members that are recall-optimal there."""
    restrict = frozenset(candidate_states)
    return [
        sum(1 << k for k, m in enumerate(members) if recall_optimal(m, analyses, i, restrict))
        for i in range(analyses.n)
    ]


def _recall_estimate(masks: list[int], want: int, seed: int) -> Estimate:
    """Fraction of samples on which a member selected by `want` is recall-optimal."""
    # unlike zeta's count, an empty canonical cause counts only if a member hits
    hits = sum(1 for mask in masks if mask & want)
    return Estimate(hits / len(masks), len(masks), seed)


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
    return Estimate(cause_sample_count(cause, analyses) / n_samples, n_samples, seed)


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
    masks = _recall_masks(members, candidate_states, analyses)
    return _recall_estimate(masks, (1 << len(members)) - 1, seed)


@dataclass(frozen=True)
class SubsetGap:
    full: Estimate
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
    seed: int,
) -> SubsetGap:
    """R of the whole collection and of every proper subset, from one batch."""
    if len(members) > SUBSET_CAP:
        raise CapExceededError(f"{len(members)} members exceeds the subset cap {SUBSET_CAP}")
    masks = _recall_masks(members, candidate_states, analyses)
    k = len(members)
    subsets = tuple(
        (tuple(members[j] for j in combo),
         _recall_estimate(masks, sum(1 << j for j in combo), seed))
        for r in range(k)
        for combo in itertools.combinations(range(k), r)
    )
    return SubsetGap(full=_recall_estimate(masks, (1 << k) - 1, seed), subsets=subsets)


def subset_recall_gap(
    pmodel: ParametricModel,
    dist: DistSpec,
    members: list[frozenset[int]],
    candidate_states: Iterable[int],
    n_samples: int,
    seed: int,
) -> SubsetGap:
    """Recall estimates for every proper subset of the member collection."""
    analyses = fresh_analyses(pmodel, dist, n_samples, seed)
    return recall_gap(list(members), candidate_states, analyses, seed)


def mean_point_baseline(pmodel: ParametricModel, dist: DistSpec) -> frozenset[int]:
    """NA1: the canonical cause at the mean parameter point."""
    dist = align_dist(dist, pmodel.param_space.names)
    return canonical_cause(instantiate(pmodel, mean_point(dist)))


def vertex_baseline(pmodel: ParametricModel, dist: DistSpec) -> list[frozenset[int]]:
    """NA2: canonical causes at the support-box vertices, deduplicated."""
    seen: list[frozenset[int]] = []
    for vertex in support_vertices(align_dist(dist, pmodel.param_space.names)):
        c = canonical_cause(instantiate(pmodel, vertex))
        if c not in seen:
            seen.append(c)
    return seen
