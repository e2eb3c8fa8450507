"""End-to-end identification: sampling, filtering, set cover, bounds.

Pipeline per run: draw the parameter batch, analyze every sampled MDP
(singleton-cause verdicts + support graph), keep the states whose
singleton bound clears the threshold delta, compute each sample's
canonical cause over those states, build the per-sample cover sets, pick
an irredundant index set greedily, and attach the PAC bounds.

Everything is deterministic given (model, distribution, N, delta, beta,
seed); worker count only changes scheduling, never results: the distinct
points go out in chunks of ceil(points / workers), one process per worker,
never more than the points or the usable CPUs.
"""

from __future__ import annotations

import json
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

from .bounds import (
    AnalysisBatch,
    SampleAnalysis,
    cause_probability_bound,
    cause_sample_count,
    recall_sample_count,
    tail_root,
)
from .model import ParametricModel, instantiate, support_graph
from .sprcheck import single_state_verdict_exact, singleton_causes
from . import exact as exact_mod
from .sampling import DistSpec, SampleBatch, align_dist, sample

log = logging.getLogger(__name__)

# --exact re-decides corners only on models this small; larger ones warn
DEFAULT_STATE_CAP = 12


@dataclass(frozen=True)
class SolveConfig:
    geq_filter: bool = False  # delta filter with >= instead of the default >
    exact_corners: bool = False  # re-decide corner verdicts with exact arithmetic
    workers: int = 1


@dataclass(frozen=True)
class CauseSolution:
    members: tuple[frozenset[str], ...]
    eta: tuple[float, ...]
    n_counts: tuple[int, ...]
    zeta: float
    m_count: int
    candidate_states: tuple[str, ...]  # S_N, sorted by state name
    indices: tuple[int, ...]  # selected sample indices (0-based)
    delta: float
    beta: float
    n_samples: int
    seed: int
    empty_canonical_samples: int
    canonical_causes: tuple[tuple[str, ...], ...] | None = None  # verbose payload

    @property
    def no_cause(self) -> bool:
        return not self.members

    def to_json_dict(self) -> dict:
        doc = {
            "members": [sorted(m) for m in self.members],
            "eta": list(self.eta),
            "n": list(self.n_counts),
            "zeta": self.zeta,
            "m": self.m_count,
            "S_N": list(self.candidate_states),
            "indices": list(self.indices),
            "delta": self.delta,
            "beta": self.beta,
            "N": self.n_samples,
            "seed": self.seed,
            "empty_canonical_samples": self.empty_canonical_samples,
        }
        if self.canonical_causes is not None:
            doc["canonical_causes"] = [list(c) for c in self.canonical_causes]
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def usable_cpus() -> int:
    """The CPUs this process may run on (taskset, cpusets), not the machine's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _analyze_point(
    pmodel: ParametricModel, point: tuple[float, ...], config: SolveConfig
) -> SampleAnalysis:
    concrete = instantiate(pmodel, point)
    verdicts = singleton_causes(concrete)
    if config.exact_corners and concrete.n_states <= DEFAULT_STATE_CAP:
        # the initial state's corner is exact by construction (q0 = w_c)
        corners = [c for c, v in verdicts.items()
                   if v.branch.startswith("corner") and c != concrete.initial]
        rational = exact_mod.from_concrete(concrete) if corners else None
        for c in corners:
            verdicts[c] = single_state_verdict_exact(rational, c, set(concrete.effect))
    causes = frozenset(c for c, v in verdicts.items() if v.sign == 1)
    return SampleAnalysis(cause_states=causes, graph=support_graph(concrete))


def analyze_batch(
    pmodel: ParametricModel, batch: SampleBatch, config: SolveConfig = SolveConfig()
) -> AnalysisBatch:
    """Singleton-cause analysis for every sampled point (duplicates shared),
    grouped into classes of equal analyses."""
    if config.exact_corners and pmodel.n_states > DEFAULT_STATE_CAP:
        log.warning(
            "exact corners (--exact) skipped: %d states exceed the exact state cap %d",
            pmodel.n_states, DEFAULT_STATE_CAP,
        )
    points = [tuple(float(x) for x in p) for p in batch.points]
    distinct = sorted(set(points))
    analyze = partial(_analyze_point, pmodel, config=config)
    workers = min(config.workers, len(distinct), usable_cpus())
    if workers > 1:
        chunksize = math.ceil(len(distinct) / workers)
        # one process per chunk: ceil(points / chunksize) can be below `workers`
        with ProcessPoolExecutor(max_workers=math.ceil(len(distinct) / chunksize)) as pool:
            results = list(pool.map(analyze, distinct, chunksize=chunksize))
    else:
        results = list(map(analyze, distinct))
    by_point = dict(zip(distinct, results))
    return AnalysisBatch.of(pmodel.initial, pmodel.effect, (by_point[p] for p in points))


def filter_states(
    batch: AnalysisBatch,
    delta: float,
    beta: float,
    geq: bool = False,
) -> frozenset[int]:
    """S_N: non-effect states whose singleton bound clears delta."""
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta {delta} outside [0, 1)")
    keep = set()
    for c in range(batch.classes[0].graph.n):
        if c in batch.effect:
            continue
        bound = cause_probability_bound({c}, batch, beta)
        if bound >= delta if geq else bound > delta:
            keep.add(c)
    return frozenset(keep)


def select_indices(cover_sets: dict[int, frozenset[int]], universe: frozenset[int]) -> list[int]:
    """Greedy cover of `universe`, then a pruning pass restoring irredundancy.

    Ties go to the larger cover set, then the smaller index.  Raises when
    the sets cannot cover the universe (impossible with self-coverage).
    One ascending prune suffices: dropping a member only shrinks the union
    of the others, so a member kept earlier stays irredundant.
    """
    chosen: list[int] = []
    covered: set[int] = set()
    remaining = dict(cover_sets)
    while covered < universe:
        best = max(remaining, default=None,
                   key=lambda i: (len(remaining[i] - covered), len(remaining[i]), -i))
        if best is None or remaining[best] <= covered:
            raise AssertionError("cover sets cannot cover all samples")
        chosen.append(best)
        covered |= remaining.pop(best)

    kept = sorted(chosen)
    for i in sorted(chosen):
        if cover_sets[i] <= set().union(*(cover_sets[j] for j in kept if j != i)):
            kept.remove(i)
    return kept


def solve(
    pmodel: ParametricModel,
    dist: DistSpec,
    n_samples: int,
    delta: float,
    beta: float,
    seed: int,
    config: SolveConfig = SolveConfig(),
    verbose: bool = False,
) -> CauseSolution:
    """Identify a nonredundant collection of probable causes with PAC bounds."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta {delta} outside [0, 1)")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta {beta} outside (0, 1)")
    dist = align_dist(dist, pmodel.param_space.names)
    batch = sample(dist, n_samples, seed)
    analyses = analyze_batch(pmodel, batch, config)
    return solve_from_analyses(pmodel, analyses, delta, beta, seed, config, verbose)


def solve_from_analyses(
    pmodel: ParametricModel,
    analyses: AnalysisBatch,
    delta: float,
    beta: float,
    seed: int,
    config: SolveConfig = SolveConfig(),
    verbose: bool = False,
) -> CauseSolution:
    s_n = filter_states(analyses, delta, beta, geq=config.geq_filter)
    canonicals = [analyses.canonical(a, s_n) for a in analyses.classes]
    empty = analyses.empty_canonical_samples(s_n)
    universe = frozenset(range(analyses.n))

    # distinct nonempty canonical causes, each at its first sample; the cover
    # set depends only on the set, and always holds the samples with an empty
    # canonical cause, which have nothing to cover (a sample's own canonical
    # cause covers that sample: self-coverage)
    rep_index: dict[frozenset[int], int] = {}
    for c, samples in zip(canonicals, analyses.samples):
        if c and c not in rep_index:
            rep_index[c] = min(samples)
    member_at = {i: c for c, i in rep_index.items()}
    covers = {i: empty | analyses.recall_samples(c, s_n) for c, i in rep_index.items()}

    if covers:
        chosen = select_indices(covers, universe)
    else:
        chosen = []  # no sample produced a cause: everything vacuously covered

    # a member whose own bound misses delta cannot sit in the candidate
    # family; drop it and report the honest (possibly lower) zeta
    eta = {i: cause_probability_bound(member_at[i], analyses, beta) for i in chosen}
    kept = []
    for i in chosen:
        if eta[i] >= delta if config.geq_filter else eta[i] > delta:
            kept.append(i)
        else:
            log.warning(
                "dropping member %s: eta below the delta filter",
                sorted(pmodel.states[s] for s in member_at[i]),
            )

    for i in kept:
        rest = frozenset().union(*(covers[j] for j in kept if j != i))
        assert not covers[i] <= rest, "redundant member survived pruning"

    chosen = sorted(kept, key=lambda i: sorted(pmodel.states[s] for s in member_at[i]))
    member_sets = [member_at[i] for i in chosen]
    m_count = recall_sample_count(member_sets, s_n, analyses)
    zeta = tail_root(analyses.n - m_count, analyses.n, beta)

    names = pmodel.states
    return CauseSolution(
        members=tuple(frozenset(names[s] for s in m) for m in member_sets),
        eta=tuple(eta[i] for i in chosen),
        n_counts=tuple(cause_sample_count(m, analyses) for m in member_sets),
        zeta=zeta,
        m_count=m_count,
        candidate_states=tuple(sorted(names[s] for s in s_n)),
        indices=tuple(sorted(chosen)),
        delta=delta,
        beta=beta,
        n_samples=analyses.n,
        seed=seed,
        empty_canonical_samples=len(empty),
        canonical_causes=(
            tuple(tuple(sorted(names[s] for s in c)) for _, c in sorted(  # in sample order
                (i, c) for c, samples in zip(canonicals, analyses.samples) for i in samples))
            if verbose else None
        ),
    )
