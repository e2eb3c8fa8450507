import hashlib
import json
import logging
import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from oracles import (
    path_cover_holds,
    recall_optimal_reference,
    sample_analyses,
    select_indices_reference,
    singleton_cause_set,
)
from sprcause import bounds, fixtures, solver
from sprcause.bounds import SampleAnalysis, recall_sample_count
from sprcause.cli import main
from sprcause.exact import from_concrete
from sprcause.model import instantiate, support_graph
from sprcause.sampling import SampleBatch, align_dist, parse_dist, sample
from sprcause.sprcheck import single_state_verdict_exact, singleton_causes, support_key
from sprcause.solver import (
    SolveConfig,
    analyze_batch,
    filter_states,
    select_indices,
    solve,
    solve_from_analyses,
)


def test_filter_empty_when_counts_zero(appendix_model, appendix_dist):
    # delta = 0 uses a strict comparison: a zero count gives eta = 0, not > 0
    batch = sample(appendix_dist, 20, seed=1)
    analyses = analyze_batch(appendix_model, batch)
    s_n = filter_states(analyses, 0.0, 0.99)
    s0 = appendix_model.state_index("s0")
    s2 = appendix_model.state_index("s2")
    assert s0 not in s_n and s2 not in s_n


def test_filter_example_keeps_regime_states(example_model, example_dist):
    batch = sample(example_dist, 400, seed=2)
    analyses = analyze_batch(example_model, batch)
    s_n = filter_states(analyses, 0.0, 0.99)
    names = sorted(example_model.states[s] for s in s_n)
    assert names == ["s1", "s2", "s3"]


def test_filter_appendix_delta(appendix_model, appendix_dist):
    batch = sample(appendix_dist, 1000, seed=3)
    analyses = analyze_batch(appendix_model, batch)
    s_n = filter_states(analyses, 0.1, 0.99)
    assert sorted(appendix_model.states[s] for s in s_n) == ["s1"]


def test_geq_filter_is_weaker(example_model, example_dist):
    batch = sample(example_dist, 50, seed=4)
    analyses = analyze_batch(example_model, batch)
    strict = filter_states(analyses, 0.0, 0.99)
    geq = filter_states(analyses, 0.0, 0.99, geq=True)
    assert strict <= geq
    # with delta = 0, >= keeps even never-counted states
    assert example_model.state_index("s4") in geq


def test_analyze_batch_groups_equal_analyses_by_first_sample(example_model, example_dist):
    points = sample(example_dist, 40, seed=3).points
    points = np.vstack([points, points[::-3]])  # repeated points as well as equal analyses
    analyses = analyze_batch(example_model, SampleBatch(points=points))
    per_point = [
        SampleAnalysis(singleton_cause_set(c), support_graph(c))
        for c in (instantiate(example_model, p) for p in points)
    ]
    assert 1 < len(analyses.classes) < len(points)
    assert analyses.classes == tuple(dict.fromkeys(per_point))
    assert analyses.samples == tuple(
        frozenset(i for i, a in enumerate(per_point) if a == c) for c in analyses.classes)
    assert sorted(i for s in analyses.samples for i in s) == list(range(len(points)))


def test_cover_set_single_sample(example_model, example_dist):
    batch = sample(example_dist, 1, seed=5)
    analyses = analyze_batch(example_model, batch)
    s_n = filter_states(analyses, 0.0, 0.99)
    member = analyses.canonical(analyses.classes[0], s_n)
    cover = analyses.empty_canonical_samples(s_n) | analyses.recall_samples(member, s_n)
    assert cover == frozenset({0})


def test_cover_set_point_mass_sample_covers_all(example_model, example_dist):
    batch = sample(example_dist, 300, seed=6)
    analyses = analyze_batch(example_model, batch)
    s_n = filter_states(analyses, 0.0, 0.99)
    tie = next(
        i for i, p in enumerate(batch.points) if p[0] == 0.5 and p[1] == 0.5
    )
    member = analyses.canonical(sample_analyses(analyses)[tie], s_n)
    cover = analyses.empty_canonical_samples(s_n) | analyses.recall_samples(member, s_n)
    assert cover == frozenset(range(300))


def _oracle_minimality(succ, start, member) -> bool:
    # condition (M) by simple-path enumeration
    from oracles import enumerate_simple_paths

    paths = enumerate_simple_paths(succ, start)
    return all(
        any(c in p and not set(p[: p.index(c)]) & (member - {c}) for p in paths)
        for c in member
    )


def test_cover_set_matches_path_enumeration_oracle(example_model, example_dist):
    batch = sample(example_dist, 60, seed=7)
    analyses = analyze_batch(example_model, batch)
    s_n = filter_states(analyses, 0.0, 0.99)
    per_sample = sample_analyses(analyses)
    empty = analyses.empty_canonical_samples(s_n)
    for i in (0, 1, 2):
        member = analyses.canonical(per_sample[i], s_n)
        got = empty | analyses.recall_samples(member, s_n)
        for j, a in enumerate(per_sample):
            canonical_j = analyses.canonical(a, s_n)
            if not canonical_j:
                want = True
            else:
                want = (
                    member <= (a.cause_states & s_n)
                    and _oracle_minimality(a.graph.succ, analyses.initial, member)
                    and path_cover_holds(
                        a.graph.succ, analyses.initial, analyses.effect,
                        member, canonical_j,
                    )
                )
            assert (j in got) == want


@pytest.mark.parametrize("name, dist_name, n", [
    ("example", "example", 120),
    ("appendix-e", "appendix-e", 120),
    ("grid-a", "grid", 12),  # singleton causes in series: sets that fail minimality
])
def test_recall_predicate_matches_the_inline_reference(name, dist_name, n):
    pmodel, dist = fixtures.builtin_model(name), fixtures.builtin_dist(dist_name)
    analyses = analyze_batch(pmodel, sample(dist, n, seed=11))
    s_n = filter_states(analyses, 0.0, 0.99)
    per_sample = sample_analyses(analyses)
    canonicals = [analyses.canonical(a, s_n) for a in per_sample]

    def reference(member, j):
        return recall_optimal_reference(
            per_sample[j], analyses.initial, analyses.effect, member, canonicals[j], s_n
        )

    # the solver builds one cover set per distinct nonempty canonical cause
    members = sorted({c for c in canonicals if c}, key=sorted)
    assert members
    for member in members:
        want = frozenset(
            j for j in range(analyses.n) if not canonicals[j] or reference(member, j)
        )
        got = analyses.empty_canonical_samples(s_n) | analyses.recall_samples(member, s_n)
        assert got == want
    every_cause = [a.cause_states & s_n for a in per_sample[:3]]
    for collection in ([], members[:1], members, every_cause):
        want = sum(
            1 for j in range(analyses.n)
            if not canonicals[j] or any(reference(m, j) for m in collection)
        )
        assert recall_sample_count(collection, s_n, analyses) == want


# the cover sets evaluate each distinct canonical cause once per class, and
# the final count m is the size of the kept members' cover sets' union, with
# no evaluation of its own: 3 causes and 3 classes in both runs
@pytest.mark.parametrize("name, dist_name, n, delta, evaluations", [
    ("example", "example", 1000, 0.0, 9),
    ("grid-a", "grid", 100, 0.001, 9),
], ids=["example", "grid-a"])
def test_solve_evaluates_recall_optimal_once_per_cause_and_class(
    name, dist_name, n, delta, evaluations, monkeypatch
):
    pmodel = fixtures.builtin_model(name)
    dist = align_dist(fixtures.builtin_dist(dist_name), pmodel.param_space.names)
    analyses = analyze_batch(pmodel, sample(dist, n, seed=0))
    calls = []
    original = bounds.recall_optimal

    def spy(member, batch, analysis, restrict):
        calls.append((member, analysis))
        return original(member, batch, analysis, restrict)

    monkeypatch.setattr(bounds, "recall_optimal", spy)
    solve_from_analyses(pmodel, analyses, delta, 0.99, seed=0)
    s_n = filter_states(analyses, delta, 0.99)
    causes = {analyses.canonical(a, s_n) for a in analyses.classes} - {frozenset()}
    classes = len(analyses.classes)
    assert len(calls) == evaluations == len(causes) * classes


def test_exact_over_the_state_cap_warns_once(grid_model_a, grid_dist, caplog):
    with caplog.at_level(logging.WARNING, logger="sprcause.solver"):
        solve(grid_model_a, grid_dist, 1, 0.0, 0.99, 0, SolveConfig(exact_corners=True))
    warned = [r for r in caplog.records if "exact state cap" in r.getMessage()]
    assert len(warned) == 1 and warned[0].levelno == logging.WARNING
    assert "31 states" in warned[0].getMessage() and "cap 12" in warned[0].getMessage()


def test_exact_within_the_state_cap_does_not_warn(example_model, example_dist, caplog):
    with caplog.at_level(logging.WARNING, logger="sprcause.solver"):
        solve(example_model, example_dist, 5, 0.0, 0.99, 0, SolveConfig(exact_corners=True))
    assert not [r for r in caplog.records if "exact state cap" in r.getMessage()]


def test_exact_corners_skip_the_initial_state(example_model, example_dist, monkeypatch):
    # seeded points plus (0.5, 0.5), where s1 and s2 are corners as well
    points = np.vstack([sample(example_dist, 40, seed=0).points, [[0.5, 0.5]]])
    batch = SampleBatch(points=points)
    effect = set(example_model.effect)
    calls = []

    def spy(mdp, state, *rest):
        calls.append(state)
        return single_state_verdict_exact(mdp, state, *rest)

    monkeypatch.setattr(solver, "single_state_verdict_exact", spy)
    analyses = analyze_batch(example_model, batch, SolveConfig(exact_corners=True))
    assert calls and example_model.initial not in calls

    # reference: re-decide every corner exactly, the initial state's included
    for point, analysis in zip(points, sample_analyses(analyses)):
        concrete = instantiate(example_model, point)
        verdicts = singleton_causes(concrete)
        assert verdicts[concrete.initial].branch.startswith("corner")
        rational = from_concrete(concrete)
        for c, v in verdicts.items():
            if v.branch.startswith("corner"):
                verdicts[c] = single_state_verdict_exact(rational, c, effect)
        assert analysis.cause_states == frozenset(c for c, v in verdicts.items() if v.sign == 1)


def test_a_chunk_builds_one_support_table_per_support(example_model, monkeypatch):
    # point masses at p = 0 and p = 1 drop s1's edge to s3 or to s4, so the
    # batch spans three supports; each point's causes are those of a table
    # built for it alone
    uniform = {"uniform": [0.2, 0.8]}
    dist = parse_dist(json.dumps({"mixture": [
        {"weight": 0.3, "marginals": {"p": {"point": 0.0}, "q": uniform}},
        {"weight": 0.3, "marginals": {"p": {"point": 1.0}, "q": uniform}},
        {"weight": 0.4, "marginals": {"p": uniform, "q": uniform}},
    ]}))
    built = []
    original = solver.support_table

    def spy(concrete):
        built.append(support_key(concrete))
        return original(concrete)

    monkeypatch.setattr(solver, "support_table", spy)
    batch = sample(align_dist(dist, example_model.param_space.names), 60, seed=1)
    analyses = analyze_batch(example_model, batch)
    assert len(built) == len(set(built)) == 3
    for point, analysis in zip(batch.points, sample_analyses(analyses)):
        assert analysis.cause_states == singleton_cause_set(instantiate(example_model, point))


def test_the_analyses_of_one_support_share_its_graph(example_model, example_dist):
    # every example point of this batch has the same support, and its three
    # classes hold the one graph the chunk's support table built
    batch = sample(example_dist, 200, seed=0)
    analyses = analyze_batch(example_model, batch)
    concrete = [instantiate(example_model, p) for p in batch.points]
    assert len({support_key(c) for c in concrete}) == 1
    assert len(analyses.classes) == 3
    graph = analyses.classes[0].graph
    assert all(a.graph is graph for a in analyses.classes)
    assert all(support_graph(c) == graph for c in concrete)


def test_select_indices_prefers_superset():
    covers = {0: frozenset({1, 2}), 1: frozenset({0, 2}), 2: frozenset({0, 1, 2})}
    assert select_indices(covers, frozenset({0, 1, 2})) == [2]


def test_select_indices_identical_sets_take_smallest():
    covers = {3: frozenset({0, 1}), 1: frozenset({0, 1})}
    assert select_indices(covers, frozenset({0, 1})) == [1]


def test_select_indices_prunes_redundant():
    covers = {
        0: frozenset({0, 1}),
        1: frozenset({1, 2}),
        2: frozenset({2, 3}),
        3: frozenset({0, 3}),
    }
    chosen = select_indices(covers, frozenset(range(4)))
    union = frozenset().union(*(covers[i] for i in chosen))
    assert union == frozenset(range(4))
    for i in chosen:
        rest = frozenset().union(*(covers[j] for j in chosen if j != i)) if len(chosen) > 1 else frozenset()
        assert not covers[i] <= rest


@st.composite
def _cover_families(draw):
    n = draw(st.integers(1, 12))
    indices = draw(st.lists(st.integers(0, 30), min_size=0, max_size=8, unique=True))
    sets = st.frozensets(st.integers(0, n - 1))
    return {i: draw(sets) for i in indices}, frozenset(range(n))


def _family(n, sets):
    return {i: frozenset(s) for i, s in sets.items()}, frozenset(range(n))


@settings(max_examples=400, deadline=None)
@given(_cover_families())
# random families rarely pick two members that are each redundant but not
# both at once; in these two the greedy picks do, so the prune order matters
@example(_family(8, {16: [3, 4, 7], 0: [0, 1, 4, 5], 12: [0, 2, 5, 7], 9: [5],
                     11: [0, 4, 5, 7], 17: [0, 4], 25: [1, 2, 7], 24: [1, 2, 5, 6]}))
@example(_family(9, {24: [3, 7, 8], 2: [0, 1, 8], 28: [0], 13: [2, 3, 6, 8],
                     27: [1, 2, 4, 6], 20: [2, 4, 5], 6: [4]}))
def test_select_indices_matches_the_restarting_reference(family):
    # uncoverable families included: both must raise the same error
    covers, universe = family
    try:
        expected = select_indices_reference(covers, universe)
    except AssertionError as e:
        with pytest.raises(AssertionError, match=str(e)):
            select_indices(covers, universe)
    else:
        assert select_indices(covers, universe) == expected


def test_solve_example_reproduction(example_model, example_dist):
    sol = solve(example_model, example_dist, 1000, 0.0, 0.99, seed=8)
    assert [sorted(m) for m in sol.members] == [["s3"]]
    assert sol.zeta == pytest.approx(0.01 ** (1 / 1000), abs=5e-4)
    assert sol.eta[0] >= 0.99
    assert sol.m_count == 1000


def test_solve_appendix_reproduction(appendix_model, appendix_dist):
    sol = solve(appendix_model, appendix_dist, 1000, 0.1, 0.99, seed=9)
    assert [sorted(m) for m in sol.members] == [["s1"]]
    assert 0.95 <= sol.eta[0] <= 0.995
    assert sol.zeta == pytest.approx(0.01 ** (1 / 1000), abs=5e-4)
    assert sol.candidate_states == ("s1",)


def test_solve_no_cause_flag(appendix_model):
    down = parse_dist(json.dumps({"p": {"point": 0.2}, "q": {"point": 0.6}}))
    sol = solve(appendix_model, down, 50, 0.1, 0.99, seed=10)
    assert sol.no_cause and sol.members == ()
    assert sol.empty_canonical_samples == 50
    assert sol.m_count == 50  # vacuously covered
    assert sol.zeta == pytest.approx(0.01 ** (1 / 50))


def test_solve_is_deterministic_and_worker_independent(example_model, example_dist):
    one = solve(example_model, example_dist, 120, 0.0, 0.99, seed=11)
    two = solve(example_model, example_dist, 120, 0.0, 0.99, seed=11)
    four = solve(
        example_model, example_dist, 120, 0.0, 0.99, seed=11,
        config=SolveConfig(workers=2),
    )
    assert one.to_json() == two.to_json() == four.to_json()


def _process_starts(monkeypatch) -> list:
    """Every process start from here on, through a spy on BaseProcess.start."""
    import multiprocessing.process

    started = []
    original = multiprocessing.process.BaseProcess.start

    def counting(self):
        started.append(self)
        return original(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting)
    return started


@pytest.mark.parametrize("points, chunks", [(2, 2), (5, 3)])
def test_worker_pool_starts_one_process_per_chunk(example_model, example_dist, monkeypatch,
                                                  points, chunks):
    # four workers on 2 distinct points make 2 chunks; on 5 points, chunks
    # of ceil(5 / 4) = 2 make 3, so a fourth process would stay idle
    started = _process_starts(monkeypatch)
    monkeypatch.setattr(solver, "usable_cpus", lambda: 4)  # as on a 4-CPU host
    solve(example_model, example_dist, points, 0.0, 0.99, seed=0, config=SolveConfig(workers=4))
    assert len(started) == chunks


def test_worker_pool_never_exceeds_the_usable_cpus(example_model, example_dist, monkeypatch):
    # one worker more than the usable CPUs, and more distinct points than both
    usable = solver.usable_cpus()
    batch = sample(example_dist, usable + 3, seed=0)
    distinct = len({tuple(p) for p in batch.points.tolist()})
    workers = min(distinct, usable)
    started = _process_starts(monkeypatch)
    solve(example_model, example_dist, usable + 3, 0.0, 0.99, seed=0,
          config=SolveConfig(workers=usable + 1))
    chunks = math.ceil(distinct / math.ceil(distinct / workers))
    assert len(started) == (chunks if workers > 1 else 0)


def test_analysis_classes_do_not_depend_on_the_worker_count(grid_model_a, grid_dist,
                                                            monkeypatch):
    batch = sample(align_dist(grid_dist, grid_model_a.param_space.names), 7, seed=3)
    assert len({tuple(p) for p in batch.points.tolist()}) == 7
    monkeypatch.setattr(solver, "usable_cpus", lambda: 3)
    runs = [analyze_batch(grid_model_a, batch, SolveConfig(workers=w)) for w in (1, 2, 3)]
    assert all((r.classes, r.samples) == (runs[0].classes, runs[0].samples) for r in runs)
    assert len(runs[0].classes) > 1


def test_pc1_surrogate_zeta_is_max(example_model, example_dist):
    for seed in range(4):
        sol = solve(example_model, example_dist, 80, 0.0, 0.99, seed=seed)
        assert sol.m_count == 80
        assert sol.zeta == pytest.approx(0.01 ** (1 / 80))


def test_pc2_surrogate_proper_subsets_lose_coverage(example_model, example_dist):
    from sprcause.bounds import recall_sample_count

    # engineered run with two members: restrict candidates so that the
    # up-regime and down-regime members both survive
    batch = sample(example_dist, 200, seed=12)
    analyses = analyze_batch(example_model, batch)
    s_n = filter_states(analyses, 0.0, 0.99) - {
        example_model.state_index("s3")
    }
    distinct = {c for c in (analyses.canonical(a, s_n) for a in analyses.classes) if c}
    full = recall_sample_count(distinct, s_n, analyses)
    for drop in distinct:
        rest = [c for c in distinct if c != drop]
        assert recall_sample_count(rest, s_n, analyses) < full


def test_member_bounds_exceed_delta(example_model, example_dist):
    sol = solve(example_model, example_dist, 150, 0.05, 0.99, seed=13)
    assert all(e > 0.05 for e in sol.eta)


def test_solve_parameter_validation(example_model, example_dist):
    with pytest.raises(ValueError):
        solve(example_model, example_dist, 0, 0.0, 0.99, seed=1)
    with pytest.raises(ValueError):
        solve(example_model, example_dist, 10, 1.0, 0.99, seed=1)
    with pytest.raises(ValueError):
        solve(example_model, example_dist, 10, 0.0, 1.0, seed=1)


def test_solution_json_shape(example_model, example_dist):
    sol = solve(example_model, example_dist, 30, 0.0, 0.9, seed=14, verbose=True)
    doc = json.loads(sol.to_json())
    assert list(doc) == [
        "members", "eta", "n", "zeta", "m", "S_N", "indices", "delta", "beta",
        "N", "seed", "empty_canonical_samples", "canonical_causes",
    ]
    assert doc["N"] == 30 and doc["seed"] == 14
    assert len(doc["canonical_causes"]) == 30


GRID_SOLUTION = (
    Path(__file__).resolve().parents[1] / "perfbench" / "data" / "grid-a-N100-delta0.001.solution.json"
)

# SHA-256 over every query of four seeded batches (seed 0): each sample's
# canonical cause over S_N, the empty-canonical samples, cause_samples({c})
# for every state, recall_samples of every distinct canonical cause, and
# the verbose solution (n and m included); then the `validate` rows of the
# grid-a job seeds 5008 and 19004.  A change to how the batch answers its
# queries must keep this digest.
BATCH_DIGEST = "be3221abb3234310d981a79fc69e4160509e9592bfe113ea2e93e70de077ca9b"


def test_batch_digest_is_pinned():
    digest = hashlib.sha256()
    for name, dist_name, n, delta, config in (
        ("example", "example", 1000, 0.0, SolveConfig(exact_corners=True)),
        ("appendix-e", "appendix-e", 1000, 0.1, SolveConfig()),
        ("grid-a", "grid", 100, 0.001, SolveConfig()),
        ("grid-b", "grid", 100, 0.001, SolveConfig()),
    ):
        pmodel = fixtures.builtin_model(name)
        dist = align_dist(fixtures.builtin_dist(dist_name), pmodel.param_space.names)
        analyses = analyze_batch(pmodel, sample(dist, n, seed=0), config)
        s_n = filter_states(analyses, delta, 0.99)
        canonicals = [analyses.canonical(a, s_n) for a in sample_analyses(analyses)]
        queries = (
            sorted(s_n),
            [sorted(c) for c in canonicals],
            sorted(analyses.empty_canonical_samples(s_n)),
            [sorted(analyses.cause_samples(frozenset({c}))) for c in range(pmodel.n_states)],
            [(sorted(c), sorted(analyses.recall_samples(c, s_n)))
             for c in sorted(set(canonicals), key=sorted)],
        )
        digest.update(repr(queries).encode())
        solution = solve_from_analyses(pmodel, analyses, delta, 0.99, 0, config, verbose=True)
        digest.update(solution.to_json().encode())
    for seed in (5008, 19004):
        result = CliRunner().invoke(main, [
            "validate", "--model", "grid-a", "--dist", "grid", "--solution", str(GRID_SOLUTION),
            "-M", "50", "--seed", str(seed),
        ])
        assert result.exit_code == 0, result.output
        digest.update(result.output.encode())
    assert digest.hexdigest() == BATCH_DIGEST
