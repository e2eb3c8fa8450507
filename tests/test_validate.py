import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    canonical_cause,
    prob_first_greater,
    restricted_cause_fraction,
    restricted_recall_fraction,
    restricted_recall_indicator,
    sample_analyses,
)
from sprcause import fixtures
from sprcause.bounds import recall_optimal
from sprcause.model import instantiate, model_to_json, parse_model
from sprcause.sampling import align_dist, mean_point, parse_dist, sample, support_vertices
from sprcause.validate import (
    fresh_analyses,
    estimate_cause_probability,
    estimate_recall_probability,
    mean_point_baseline,
    recall_gap,
    subset_recall_gap,
    vertex_baseline,
)


def test_never_a_cause_estimates_zero(appendix_model, appendix_dist):
    s0 = appendix_model.state_index("s0")
    est = estimate_cause_probability(appendix_model, appendix_dist, {s0}, 200, seed=1)
    assert est.value == 0.0 and est.half_width == 0.0


def test_appendix_cause_probability_matches_quadrature(appendix_model, appendix_dist):
    s1 = appendix_model.state_index("s1")
    est = estimate_cause_probability(appendix_model, appendix_dist, {s1}, 4000, seed=2)
    truth = prob_first_greater((0.45, 0.85), (0.1, 0.5))
    assert abs(est.value - truth) <= max(est.half_width, 3 * np.sqrt(truth * (1 - truth) / 4000))


def test_example_always_cause_estimates_one(example_model, example_dist):
    s3 = example_model.state_index("s3")
    est = estimate_cause_probability(example_model, example_dist, {s3}, 2000, seed=12)
    assert est.value == 1.0  # raises the probability on the whole support


def test_example_recall_of_s3_is_one(example_model, example_dist):
    m = example_model
    s_n = frozenset(m.state_index(s) for s in ("s1", "s2", "s3"))
    est = estimate_recall_probability(
        m, example_dist, [{m.state_index("s3")}], s_n, 500, seed=3
    )
    assert est.value == 1.0


def test_recall_empty_collection_is_zero(example_model, example_dist):
    est = estimate_recall_probability(example_model, example_dist, [], {1, 2, 3}, 100, seed=4)
    assert est.value == 0.0


def test_recall_collection_from_grid_of_canonicals(example_model, example_dist):
    # canonical causes collected across the regimes cover every fresh sample
    m = example_model
    collection = []
    for point in ([0.3, 0.6], [0.5, 0.3], [0.5, 0.5]):
        c = canonical_cause(instantiate(m, point))
        if c and c not in collection:
            collection.append(c)
    s_n = frozenset(m.state_index(s) for s in ("s1", "s2", "s3"))
    est = estimate_recall_probability(m, example_dist, collection, s_n, 400, seed=5)
    assert est.value == 1.0


def test_subset_gap_singleton(example_model, example_dist):
    m = example_model
    s_n = frozenset(m.state_index(s) for s in ("s1", "s2", "s3"))
    gap = subset_recall_gap(m, example_dist, [frozenset({m.state_index("s3")})], s_n, 300, seed=6)
    assert len(gap.subsets) == 1  # only the empty set
    assert gap.max_subset_value == 0.0
    assert gap.gap == gap.full.value


def test_single_sample_half_width_is_defined(appendix_model, appendix_dist):
    s1 = appendix_model.state_index("s1")
    est = estimate_cause_probability(appendix_model, appendix_dist, {s1}, 1, seed=8)
    assert est.value in (0.0, 1.0)
    assert est.half_width == 0.0


def test_baselines_on_appendix(appendix_model, appendix_dist):
    # the shipped distribution's mean has p > q, so both baselines find {s1}
    s1 = appendix_model.state_index("s1")
    assert mean_point_baseline(appendix_model, appendix_dist) == frozenset({s1})
    na2 = vertex_baseline(appendix_model, appendix_dist)
    assert frozenset({s1}) in na2
    assert frozenset() in na2  # the p < q corner has no cause


# (model, its builtin distribution, a point inside that distribution's box)
BASELINE_CASES = [
    ("example", "example", [0.5, 0.3]),
    ("appendix-e", "appendix-e", [0.5, 0.3]),
    ("grid-a", "grid", [0.88, 0.5, 0.6]),
    ("grid-b", "grid", [0.88, 0.5, 0.6]),
]


@pytest.mark.parametrize("name, dist_name, point", BASELINE_CASES, ids=[c[0] for c in BASELINE_CASES])
def test_point_mass_baseline_matches_canonical(name, dist_name, point):
    pmodel = fixtures.builtin_model(name)
    params = pmodel.param_space.names
    dist = parse_dist(json.dumps({p: {"point": x} for p, x in zip(params, point)}))
    got = mean_point_baseline(pmodel, dist)
    assert got == canonical_cause(instantiate(pmodel, point))
    # the builtin distribution: NA1 at its mean point, NA2 at every box vertex
    dist = align_dist(fixtures.builtin_dist(dist_name), params)
    assert mean_point_baseline(pmodel, dist) == canonical_cause(instantiate(pmodel, mean_point(dist)))
    at_vertices = [canonical_cause(instantiate(pmodel, v)) for v in support_vertices(dist)]
    assert vertex_baseline(pmodel, dist) == list(dict.fromkeys(at_vertices))


@pytest.mark.parametrize("baseline", [mean_point_baseline, vertex_baseline])
def test_each_baseline_is_one_batch_analysis(baseline, example_model, example_dist, monkeypatch):
    from sprcause import validate

    calls = []
    original = validate.analyze_batch

    def counting(pmodel, batch, *args):
        calls.append(batch.n)
        return original(pmodel, batch, *args)

    monkeypatch.setattr(validate, "analyze_batch", counting)
    baseline(example_model, example_dist)
    assert len(calls) == 1


# --- one analysis per point, checked against per-quantity re-analysis ---

# (model, members, candidate states); appendix-e's p < q points have no cause
ORACLE_CASES = {
    "example": ([["s1", "s3"], ["s2", "s3"], ["s3"]], ["s1", "s2", "s3"]),
    "example-restricted": ([["s1", "s3"], ["s3"]], ["s1", "s3"]),
    "appendix-e": ([["s1"], ["s2"]], ["s1", "s2"]),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_estimates_equal_the_restricted_reference(case, seed):
    name = case.removesuffix("-restricted")
    pmodel, dist = fixtures.builtin_model(name), fixtures.builtin_dist(name)
    names, s_n_names = ORACLE_CASES[case]
    members = [frozenset(pmodel.state_index(s) for s in m) for m in names]
    s_n = frozenset(pmodel.state_index(s) for s in s_n_names)
    n = 80
    for m in members:
        got = estimate_cause_probability(pmodel, dist, m, n, seed)
        assert got.value == restricted_cause_fraction(pmodel, dist, m, n, seed)
    recall = estimate_recall_probability(pmodel, dist, members, s_n, n, seed)
    assert recall.value == restricted_recall_fraction(pmodel, dist, members, s_n, n, seed)
    gap = subset_recall_gap(pmodel, dist, members, s_n, n, seed)
    assert gap.full == recall
    assert len(gap.subsets) == len(members)
    for combo, est in gap.subsets:
        assert est.value == restricted_recall_fraction(pmodel, dist, combo, s_n, n, seed)
    # the leave-one-out maximum is the maximum over every proper subset
    proper = [combo for r in range(len(members)) for combo in itertools.combinations(members, r)]
    assert gap.max_subset_value == max(
        restricted_recall_fraction(pmodel, dist, combo, s_n, n, seed) for combo in proper)


def test_reordered_parameters_give_the_same_answers(example_model, example_dist):
    doc = model_to_json(example_model)
    doc["params"] = ["q", "p"]
    reordered = parse_model(json.dumps(doc))
    assert vertex_baseline(reordered, example_dist) == vertex_baseline(example_model, example_dist)
    assert mean_point_baseline(reordered, example_dist) == mean_point_baseline(
        example_model, example_dist
    )
    # point masses only: every draw is the same point whatever the parameter
    # order, and p > q on a 0.3 share of them
    dist = parse_dist(json.dumps({"mixture": [
        {"weight": 0.3, "marginals": {"p": {"point": 0.5}, "q": {"point": 0.3}}},
        {"weight": 0.7, "marginals": {"p": {"point": 0.3}, "q": {"point": 0.6}}},
    ]}))
    s1, s3 = example_model.state_index("s1"), example_model.state_index("s3")
    got = estimate_cause_probability(reordered, dist, {s1, s3}, 60, seed=9)
    want = estimate_cause_probability(example_model, dist, {s1, s3}, 60, seed=9)
    assert got == want
    assert 0.0 < want.value < 0.5


GRID_SOLUTION = (
    Path(__file__).resolve().parents[1] / "perfbench" / "data" / "grid-a-N100-delta0.001.solution.json"
)


def test_recall_gap_evaluates_each_member_once_per_class(grid_model_a, grid_dist, monkeypatch):
    # R and the three leave-one-out R are unions of one recall set per member
    from sprcause import bounds

    doc = json.loads(GRID_SOLUTION.read_text(encoding="utf-8"))
    members = [frozenset(grid_model_a.state_index(s) for s in m) for m in doc["members"]]
    s_n = frozenset(grid_model_a.state_index(s) for s in doc["S_N"])
    analyses = fresh_analyses(grid_model_a, grid_dist, 50, 0)
    calls = []
    original = bounds.recall_optimal

    def spy(member, batch, analysis, restrict):
        calls.append(member)
        return original(member, batch, analysis, restrict)

    monkeypatch.setattr(bounds, "recall_optimal", spy)
    recall_gap(members, s_n, analyses)
    assert len(members) == 3
    assert len(calls) == len(members) * len(analyses.classes)


def _missed_points(pmodel, dist, seed):
    """Indices of the `validate -M 50 --seed SEED` points on which no member
    of the benchmark's grid-a solution is recall-optimal; each one checked
    against the restricted oracle.  Returns the analyses too."""
    doc = json.loads(GRID_SOLUTION.read_text(encoding="utf-8"))
    members = [frozenset(pmodel.state_index(s) for s in m) for m in doc["members"]]
    s_n = frozenset(pmodel.state_index(s) for s in doc["S_N"])
    analyses = fresh_analyses(pmodel, dist, 50, seed)
    missed = [
        i for i, a in enumerate(sample_analyses(analyses))
        if not any(recall_optimal(m, analyses, a, s_n) for m in members)
    ]
    points = sample(align_dist(dist, pmodel.param_space.names), 50, seed).points
    for i in missed:
        assert not restricted_recall_indicator(instantiate(pmodel, points[i]), members, s_n)
    return missed, analyses, points, s_n


def test_grid_validate_seed_5008_misses_one_point(grid_model_a, grid_dist):
    # `validate --model grid-a --dist grid -M 50 --seed 5008` on the benchmark's
    # solution reports R = 0.98.  That is the right answer: at one point no
    # member is made of singleton causes, and the canonical cause there
    # shares no member.  The solution's zeta (0.955) allows such misses.
    missed, analyses, points, s_n = _missed_points(grid_model_a, grid_dist, 5008)
    assert missed == [44]
    assert np.allclose(points[44], (0.879, 0.542, 0.507), atol=5e-4)
    canonical = analyses.canonical(sample_analyses(analyses)[44], s_n)
    assert sorted(grid_model_a.states[s] for s in canonical) == ["c6_5", "c7_7"]


# The other `grid-validate` job seeds 1000*s + k (s < 30, k < 70) whose
# correct output is R = 0.98: each misses exactly one point, so a check of
# R == 1 misjudges these jobs.
@pytest.mark.parametrize("seed, index", [
    (4044, 13), (4054, 6), (7024, 13), (16018, 7), (16063, 9), (19004, 8), (21019, 32),
    (21049, 0), (23051, 9), (27017, 7), (29005, 49),
])
def test_grid_validate_seeds_that_miss_one_point(grid_model_a, grid_dist, seed, index):
    missed, _, _, _ = _missed_points(grid_model_a, grid_dist, seed)
    assert missed == [index]
