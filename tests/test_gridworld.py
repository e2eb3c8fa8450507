import numpy as np
import pytest

from oracles import canonical_cause, spec_to_json
from sprcause.gridworld import (
    GridError,
    GridSpec,
    builtin_env,
    cell_name,
    derive_careful,
    generate,
    parse_cell_name,
    spec_from_json,
)
from sprcause.model import instantiate
from sprcause.sampling import sample

UPPER_FORBIDDEN = {(3, 5), (5, 5), (7, 8)}


def _canonical_cells(model, concrete):
    return {parse_cell_name(model.states[s]) for s in canonical_cause(concrete)}


def test_tiny_grid_boundary_folding():
    spec = GridSpec(
        width=2, height=1, start=(0, 0), obstacles=frozenset(),
        red=frozenset({(1, 0)}), risky={},
    )
    m = generate(spec)
    assert m.param_space.names == ("p0",)
    c = instantiate(m, [0.9])
    left = m.state_index(cell_name((0, 0)))
    right = m.state_index(cell_name((1, 0)))
    # perpendicular slips leave the grid, so their mass folds onto the cell
    a_right = m.actions.index("right")
    assert c.trans[left, a_right, right] == pytest.approx(0.9)
    assert c.trans[left, a_right, left] == pytest.approx(0.1)


def test_stay_is_deterministic():
    spec = GridSpec(
        width=3, height=1, start=(0, 0), obstacles=frozenset(),
        red=frozenset({(2, 0)}), risky={(1, 0): "p1"},
    )
    m = generate(spec)
    c = instantiate(m, [0.8, 0.3])
    s = m.state_index(cell_name((0, 0)))
    stay = m.actions.index("stay")
    assert c.trans[s, stay, s] == 1.0


def test_slip_splits_perpendicular():
    spec = GridSpec(
        width=3, height=3, start=(1, 1), obstacles=frozenset(),
        red=frozenset({(2, 2)}), risky={(2, 1): "p1"},
    )
    m = generate(spec)
    c = instantiate(m, [0.8, 0.3])
    mid = m.state_index(cell_name((1, 1)))
    up = m.actions.index("up")
    assert c.trans[mid, up, m.state_index(cell_name((1, 2)))] == pytest.approx(0.8)
    assert c.trans[mid, up, m.state_index(cell_name((0, 1)))] == pytest.approx(0.1)
    assert c.trans[mid, up, m.state_index(cell_name((2, 1)))] == pytest.approx(0.1)


def test_careful_cells_move_deterministically():
    spec = GridSpec(
        width=3, height=1, start=(0, 0), obstacles=frozenset(),
        red=frozenset({(2, 0)}), risky={(1, 0): "p1"},
        careful=frozenset({(0, 0)}),
    )
    m = generate(spec)
    c = instantiate(m, [0.8, 0.3])
    s = m.state_index(cell_name((0, 0)))
    right = m.actions.index("right")
    assert c.trans[s, right, m.state_index(cell_name((1, 0)))] == 1.0


def test_invariant_validation():
    with pytest.raises(GridError):
        GridSpec(width=2, height=1, start=(0, 0), obstacles=frozenset(),
                 red=frozenset({(1, 0)}), risky={(0, 0): "p1", (5, 5): "p2"})
    with pytest.raises(GridError):  # risky cell with no adjacent red
        GridSpec(width=3, height=1, start=(0, 0), obstacles=frozenset(),
                 red=frozenset({(2, 0)}), risky={(0, 0): "p1"})


def test_builtin_env_actions():
    a = builtin_env("a")
    b = builtin_env("b")
    assert a.one_way[(4, 7)] == ("up",)
    assert set(b.one_way[(4, 7)]) == {"up", "down"}
    for env in (a, b):
        assert env.risky[(9, 5)] == "p1"
        assert env.risky[(8, 9)] == "p2"


def test_builtin_structural_audit(grid_model_a):
    spec = builtin_env("a")
    n_free = 100 - len(spec.obstacles) - len(spec.red)
    assert grid_model_a.n_states == n_free + len(spec.red)
    assert len(grid_model_a.effect) == len(spec.red)


def test_rows_sum_to_one_at_random_points(grid_model_a):
    rng = np.random.default_rng(31)
    for _ in range(20):
        point = [rng.uniform(0.01, 0.99) for _ in range(3)]
        instantiate(grid_model_a, point)  # raises on any bad row
    m_b = generate(builtin_env("b"))
    for _ in range(5):
        point = [rng.uniform(0.01, 0.99) for _ in range(3)]
        instantiate(m_b, point)


def test_regime_property_on_sampled_points(grid_model_a, grid_dist):
    batch = sample(grid_dist, 400, seed=33)
    upper_checked = lower_checked = 0
    for point in batch.points:
        if upper_checked >= 4 and lower_checked >= 4:
            break
        p1, p2 = point[1], point[2]
        if p1 < 0.9 * p2 and upper_checked < 4:
            cells = _canonical_cells(grid_model_a, instantiate(grid_model_a, point))
            assert cells and not cells & UPPER_FORBIDDEN
            upper_checked += 1
        elif p1 > 1.1 * p2 and lower_checked < 4:
            cells = _canonical_cells(grid_model_a, instantiate(grid_model_a, point))
            assert (7, 8) in cells
            lower_checked += 1
    assert upper_checked == 4 and lower_checked == 4


def test_spec_json_round_trip():
    spec = builtin_env("a")
    again = spec_from_json(spec_to_json(spec))
    assert again == spec


def test_derive_careful_walled_reds_have_none():
    spec = builtin_env("a")
    assert derive_careful(spec.red, spec.risky, spec.obstacles, 10, 10) == frozenset()
