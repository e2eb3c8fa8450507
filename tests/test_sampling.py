import json
import math

import numpy as np
import pytest
from scipy import stats

from oracles import uniform_box_probability
from sprcause.sampling import (
    DistError,
    mean_point,
    parse_dist,
    sample,
    support_vertices,
)

UNIFORMS = json.dumps(
    {"p": {"uniform": [0.11, 0.51]}, "q": {"uniform": [0.3, 0.7]}}
)


def test_point_mass_repeats():
    dist = parse_dist(json.dumps({"p": {"point": 0.3}}))
    batch = sample(dist, 3, seed=7)
    assert batch.points.shape == (3, 1)
    assert (batch.points == 0.3).all()


def test_bit_reproducibility():
    dist = parse_dist(UNIFORMS)
    a = sample(dist, 500, seed=123)
    b = sample(dist, 500, seed=123)
    assert a.points.tobytes() == b.points.tobytes()
    c = sample(dist, 500, seed=124)
    assert a.points.tobytes() != c.points.tobytes()


def test_prefix_stability():
    # sample i depends only on (seed, i), so prefixes agree across sizes
    dist = parse_dist(UNIFORMS)
    small = sample(dist, 10, seed=5)
    big = sample(dist, 200, seed=5)
    assert np.array_equal(small.points, big.points[:10])


def test_mixture_point_mass_frequency(example_dist):
    batch = sample(example_dist, 100_000, seed=11)
    hits = np.sum((batch.points[:, 0] == 0.5) & (batch.points[:, 1] == 0.5))
    frac = hits / batch.n
    assert abs(frac - 0.1) <= 3 * math.sqrt(0.1 * 0.9 / batch.n)


def test_uniform_pair_against_quadrature():
    dist = parse_dist(UNIFORMS)
    batch = sample(dist, 100_000, seed=13)
    frac = float(np.mean(batch.points[:, 0] < batch.points[:, 1]))
    oracle = uniform_box_probability(lambda p, q: p < q, (0.11, 0.51), (0.3, 0.7))
    assert abs(frac - oracle) <= 0.005


def test_mean_point_examples(example_dist):
    assert mean_point(parse_dist(json.dumps({"p": {"point": 0.3}})))[0] == 0.3
    assert mean_point(parse_dist(json.dumps({"p": {"uniform": [0.45, 0.6]}})))[0] == pytest.approx(0.525)
    # mixture-weighted mean of the worked example's p component
    assert mean_point(example_dist)[0] == pytest.approx(0.1 * 0.5 + 0.9 * 0.31)


def test_vertices_one_dimensional():
    dist = parse_dist(json.dumps({"p": {"uniform": [0.1, 0.5]}}))
    assert [v[0] for v in support_vertices(dist)] == [0.1, 0.5]


def test_vertices_grid_box(grid_dist):
    verts = support_vertices(grid_dist)
    assert len(verts) == 8
    as_tuples = [tuple(v) for v in verts]
    assert as_tuples[0] == (0.85, 0.45, 0.5)
    assert as_tuples[-1] == (0.9, 0.6, 0.7)
    assert as_tuples == sorted(as_tuples)  # lexicographic order


def test_vertices_collapse_degenerate_axes():
    dist = parse_dist(
        json.dumps({"p": {"point": 0.3}, "q": {"uniform": [0.1, 0.2]}})
    )
    assert [tuple(v) for v in support_vertices(dist)] == [(0.3, 0.1), (0.3, 0.2)]


def test_uniform_marginals_pass_ks(example_dist):
    # conditional on the uniform component, each marginal is uniform
    batch = sample(parse_dist(UNIFORMS), 100_000, seed=17)
    for j, (lo, hi) in enumerate([(0.11, 0.51), (0.3, 0.7)]):
        stat, _ = stats.kstest(batch.points[:, j], "uniform", args=(lo, hi - lo))
        assert stat < 1.628 / math.sqrt(batch.n)  # 1% critical value


def test_weight_validation():
    bad = {"mixture": [
        {"weight": 0.5, "marginals": {"p": {"point": 0.1}}},
        {"weight": 0.6, "marginals": {"p": {"point": 0.2}}},
    ]}
    with pytest.raises(DistError, match="sum"):
        parse_dist(json.dumps(bad))


def test_component_coverage_validation():
    bad = {"mixture": [
        {"weight": 0.5, "marginals": {"p": {"point": 0.1}}},
        {"weight": 0.5, "marginals": {"q": {"point": 0.1}}},
    ]}
    with pytest.raises(DistError, match="covers"):
        parse_dist(json.dumps(bad))
