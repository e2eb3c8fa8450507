"""The lobby model: grid-a's gauntlet shifted up on top of an open lobby.

The lobby is an open 10 x 12 block of slippery cells starting at (0, 0).
Grid-a's cells sit above it, shifted up by the lobby height, so the only
way into the gauntlet is the riser entrance above the lobby's (0, 11).
The verdicts inside the gauntlet keep grid-a's mix, and every lobby cell
adds a reachable pivot, so the per-sample cost grows with the 151 states.
"""

from __future__ import annotations

from sprcause.gridworld import GridSpec, builtin_env, derive_careful, generate
from sprcause.model import ParametricModel

LOBBY_WIDTH = 10
LOBBY_HEIGHT = 12


def _shift(cell: tuple[int, int]) -> tuple[int, int]:
    return cell[0], cell[1] + LOBBY_HEIGHT


def lobby_spec() -> GridSpec:
    gauntlet = builtin_env("a")
    if gauntlet.width != LOBBY_WIDTH:
        raise ValueError("the lobby must be as wide as the gauntlet")
    height = gauntlet.height + LOBBY_HEIGHT
    obstacles = frozenset(_shift(c) for c in gauntlet.obstacles)
    red = frozenset(_shift(c) for c in gauntlet.red)
    risky = {_shift(c): p for c, p in gauntlet.risky.items()}
    return GridSpec(
        width=gauntlet.width,
        height=height,
        start=(0, 0),
        obstacles=obstacles,
        red=red,
        risky=risky,
        careful=derive_careful(red, risky, obstacles, gauntlet.width, height),
        one_way={_shift(c): a for c, a in gauntlet.one_way.items()},
        slip=gauntlet.slip,
    )


def gauntlet_cells() -> frozenset[tuple[int, int]]:
    """The shifted free cells of grid-a, where every lobby member must lie."""
    gauntlet = builtin_env("a")
    return frozenset(_shift(c) for c in gauntlet.free_cells())


def lobby_model() -> ParametricModel:
    return generate(lobby_spec())
