import hashlib
import itertools
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    binomial_cdf,
    binomial_cdf_below,
    cause_front_per_member,
    minimality_per_member,
    random_layered_mdp,
    rational_tail_root,
    rational_to_concrete,
    recall_optimal_reference,
    singleton_cause_set,
)
from sprcause import bounds
from sprcause.bounds import (
    AnalysisBatch,
    SampleAnalysis,
    cause_probability_bound,
    cause_sample_count,
    recall_probability_bound,
    recall_sample_count,
    tail_root,
)
from sprcause.model import Graph, support_graph
from sprcause.sampling import sample
from sprcause.solver import analyze_batch, filter_states


@pytest.fixture(scope="module")
def example_batch(example_model, example_dist):
    batch = sample(example_dist, 400, seed=2)
    return batch, analyze_batch(example_model, batch)


def test_no_discard_closed_form():
    for n in (1, 10, 100, 1000):
        for beta in (0.9, 0.99):
            assert tail_root(0, n, beta) == pytest.approx((1 - beta) ** (1 / n), abs=1e-15)


def test_all_discarded_is_zero():
    assert tail_root(50, 50, 0.9) == 0.0
    assert tail_root(1000, 1000, 0.99) == 0.0


def test_zero_discards_differ_from_equation_root():
    # the closed form is deliberately not the k=0 root of the tail equation:
    # the root would be ((1-beta)/n)^(1/n), a looser value
    n, beta = 100, 0.9
    closed = tail_root(0, n, beta)
    equation_root = ((1 - beta) / n) ** (1 / n)
    assert closed > equation_root


def test_matches_rational_oracle_spot():
    for k in (1, 7, 25, 49):
        want = rational_tail_root(k, 50, Fraction(9, 10))
        assert abs(tail_root(k, 50, 0.9) - float(want)) <= 1e-9


def test_bisection_residual():
    for k, n, beta in [(3, 40, 0.9), (12, 200, 0.99), (77, 100, 0.95)]:
        t = tail_root(k, n, beta)
        assert abs(binomial_cdf(k, n, 1 - t) - (1 - beta) / n) <= 1e-10


# SHA-256 over float.hex of tail_root(k, N, beta) for every k at the N and
# beta below, pinned when the bisection still evaluated the tail with
# scipy's betainc.  The pure-Python tail decides each step exactly, and
# on this grid every exact decision agrees with betainc's.
TAIL_ROOT_DIGEST = "e2a171548e350067fc92c8515cb0fb9b865a1ccea28f231132480bcbed16ec4c"


def test_tail_root_digest_is_pinned():
    digest = hashlib.sha256()
    for n in (1, 2, 3, 4, 5, 10, 20, 30, 50, 100, 200, 300, 500, 800, 1000):
        for beta in (0.9, 0.99, 0.999):
            for k in range(n + 1):
                digest.update(tail_root(k, n, beta).hex().encode() + b"\n")
    assert digest.hexdigest() == TAIL_ROOT_DIGEST


# Roots where a plain lgamma + fsum sum decides one bisection step the other
# way; the exact sum sides with betainc, and these are betainc's roots.
@pytest.mark.parametrize("k, n, beta, root", [
    (144, 500, 0.999, "0x1.398d7f553d000p-1"),
    (201, 500, 0.999, "0x1.fa062a780e000p-2"),
    (67, 800, 0.9, "0x1.bfeb6dc735000p-1"),
    (515, 1000, 0.99, "0x1.aba2940036000p-2"),
    (461, 1000, 0.999, "0x1.da897544f2000p-2"),
])
def test_tail_root_where_a_float_sum_flips_a_step(k, n, beta, root):
    assert tail_root(k, n, beta) == float.fromhex(root)


@st.composite
def _tail_queries(draw):
    n = draw(st.integers(2, 1000))
    beta = draw(st.sampled_from([0.9, 0.99, 0.999]) | st.floats(0.01, 0.9999))
    offsets = draw(st.lists(st.floats(-1e-12, 1e-12), min_size=1, max_size=4))
    return draw(st.integers(1, n - 1)), n, beta, offsets


@settings(max_examples=15, deadline=None)
@given(_tail_queries())
def test_every_bisection_decision_is_exact(query):
    k, n, beta, offsets = query
    decide, seen = bounds._cdf_below, []

    def spy(*args):
        seen.append((args, decide(*args)))
        return seen[-1][1]

    with mock.patch.object(bounds, "_cdf_below", spy):
        root = tail_root(k, n, beta)
    assert len(seen) == 40  # 2^-40 is the first width under BISECT_TOL
    for args, got in seen:
        assert got == binomial_cdf_below(*args), args
    # points within 1e-12 of the root, with a float complement as in the bisection
    rhs = (1.0 - beta) / n
    for x in {1.0 - (1.0 - root * (1.0 + d)) for d in offsets}:
        want = binomial_cdf_below(k, n, x, rhs)
        assert decide(k, n, x, rhs) == want
        assert bounds._exact_below(k, n, x, rhs) == want
        assert bounds._decimal_below(k, n, x, rhs) in (None, want)


def test_monotone_in_discards_and_confidence():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 400))
        k = int(rng.integers(0, n))
        beta = float(rng.uniform(0.5, 0.999))
        assert tail_root(k + 1, n, beta) < tail_root(k, n, beta)
        assert tail_root(k, n, min(beta + 0.0005, 0.9995)) < tail_root(k, n, beta)


def test_invalid_queries():
    with pytest.raises(ValueError):
        tail_root(-1, 10, 0.9)
    with pytest.raises(ValueError):
        tail_root(11, 10, 0.9)
    with pytest.raises(ValueError):
        tail_root(0, 10, 0.0)


# --- counts over an analyzed batch ----------------------------------------

def test_regime_count_identities(example_model, example_batch):
    batch, analyses = example_batch
    m = example_model
    s1, s2, s3 = (m.state_index(s) for s in ("s1", "s2", "s3"))
    p, q = batch.points[:, 0], batch.points[:, 1]
    n_up = int(np.sum(p > q))
    n_down = int(np.sum(p < q))
    assert cause_sample_count({s1}, analyses) == n_up
    assert cause_sample_count({s2}, analyses) == n_down
    assert cause_sample_count({s3}, analyses) == analyses.n
    assert cause_sample_count({s1, s3}, analyses) == n_up
    assert cause_sample_count({s2, s3}, analyses) == n_down


def test_eta_endpoints(example_model, example_batch):
    _, analyses = example_batch
    m = example_model
    s3, s4 = m.state_index("s3"), m.state_index("s4")
    beta = 0.99
    assert cause_probability_bound({s3}, analyses, beta) == pytest.approx(
        (1 - beta) ** (1 / analyses.n)
    )
    assert cause_probability_bound({s4}, analyses, beta) == 0.0


def test_eta_rejects_effect_states(example_model, example_batch):
    _, analyses = example_batch
    with pytest.raises(ValueError):
        cause_sample_count({example_model.state_index("s5")}, analyses)


def test_recall_count_full_cover(example_model, example_batch):
    _, analyses = example_batch
    m = example_model
    s_n = filter_states(analyses, 0.0, 0.99)
    s3 = m.state_index("s3")
    assert recall_sample_count([{s3}], s_n, analyses) == analyses.n
    beta = 0.99
    assert recall_probability_bound([{s3}], s_n, analyses, beta) == pytest.approx(
        (1 - beta) ** (1 / analyses.n)
    )


def test_recall_count_empty_collection(example_model, example_batch):
    _, analyses = example_batch
    m = example_model
    s_n = filter_states(analyses, 0.0, 0.99)
    assert recall_sample_count([], s_n, analyses) == 0
    assert recall_probability_bound([], s_n, analyses, 0.99) == 0.0


def test_appendix_count_matches_coordinates(appendix_model, appendix_dist):
    batch = sample(appendix_dist, 100, seed=9)
    analyses = analyze_batch(appendix_model, batch)
    s1 = appendix_model.state_index("s1")
    direct = int(np.sum(batch.points[:, 0] > batch.points[:, 1]))
    assert cause_sample_count({s1}, analyses) == direct


def test_partial_cover_matches_oracle(example_model, example_batch):
    _, analyses = example_batch
    m = example_model
    s_n = filter_states(analyses, 0.0, 0.99)
    s1, s3 = m.state_index("s1"), m.state_index("s3")
    count = recall_sample_count([{s1, s3}], s_n, analyses)
    got = recall_probability_bound([{s1, s3}], s_n, analyses, 0.99)
    want = rational_tail_root(analyses.n - count, analyses.n, Fraction(99, 100))
    assert abs(got - float(want)) <= 1e-9


# --- class-level answers against per-sample references -----------------------

@st.composite
def _layered_batches(draw):
    """Per-sample analyses of 1-4 random layered MDPs with one state count,
    drawn with repeats; equal analyses arrive as distinct objects."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_states, size = draw(st.integers(4, 5)), draw(st.integers(1, 4))
    pool = []
    while len(pool) < size:
        mdp, effect = random_layered_mdp(rng, max_states=5)
        if mdp.n_states == n_states:
            concrete = rational_to_concrete(mdp, effect)
            pool.append((singleton_cause_set(concrete), support_graph(concrete).succ))
    picks = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=30))
    per_sample = [SampleAnalysis(pool[j][0], Graph(n_states, pool[j][1])) for j in picks]
    restrict = draw(st.frozensets(st.integers(0, n_states - 2)))
    return frozenset({n_states - 1}), per_sample, restrict


@settings(max_examples=150, deadline=None)
@given(_layered_batches())
def test_class_answers_match_per_sample_references(case):
    effect, per_sample, restrict = case
    n = len(per_sample)
    batch = AnalysisBatch.of(0, effect, per_sample)

    # equal analyses share one class, classes come in first-sample order, and
    # the classes' samples partition range(N)
    assert batch.classes == tuple(dict.fromkeys(per_sample))
    assert batch.samples == tuple(
        frozenset(i for i, a in enumerate(per_sample) if a == c) for c in batch.classes)
    assert batch.n == n and sorted(i for s in batch.samples for i in s) == list(range(n))

    canonicals = [cause_front_per_member(a.cause_states & restrict, a.graph, 0) for a in per_sample]
    assert [batch.canonical(a, restrict) for a in per_sample] == canonicals
    assert batch.empty_canonical_samples(restrict) == frozenset(
        i for i, c in enumerate(canonicals) if not c)

    def reference(member, i):
        return recall_optimal_reference(
            per_sample[i], 0, effect, member, canonicals[i], restrict)

    states = range(per_sample[0].graph.n - 1)
    subsets = [frozenset(c) for r in range(1, len(states) + 1)
               for c in itertools.combinations(states, r)]
    for cause in subsets:
        with mock.patch.object(bounds, "satisfies_minimality",
                               wraps=bounds.satisfies_minimality) as spy:
            got = batch.cause_samples(cause)
        assert spy.call_count <= len(batch.classes)
        assert got == frozenset(
            i for i, a in enumerate(per_sample)
            if cause <= a.cause_states and minimality_per_member(a.graph, 0, cause))
        with mock.patch.object(bounds, "recall_optimal", wraps=bounds.recall_optimal) as spy:
            got = batch.recall_samples(cause, restrict)
        assert spy.call_count == len(batch.classes)
        assert got == frozenset(i for i in range(n) if reference(cause, i))

    nonempty = sorted({c for c in canonicals if c}, key=sorted)
    for collection in ([], nonempty, subsets[:len(states)]):
        assert recall_sample_count(collection, restrict, batch) == sum(
            1 for i in range(n) if not canonicals[i] or any(reference(m, i) for m in collection))
