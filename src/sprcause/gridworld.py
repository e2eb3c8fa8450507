"""Grid-world pMDP generator.

Cells move with a slip: the intended direction succeeds with probability
p0 and the two perpendicular directions get (1-p0)/2 each; moves into
obstacles or off the grid fold their mass back onto the current cell, and
"stay" is deterministic.  Risky cells enter their adjacent red cell with
a dedicated parameter regardless of the chosen action and otherwise move
deterministically in the intended direction; careful cells move
deterministically.  Red cells are the terminal effect states.

The builtin 10x10 environments realize two gauntlets behind one-way
corridors: an upper route through the aisle (4,6)..(4,8) toward the risky
cell (8,9), and a lower route along row 5 toward (9,5), joined by the
descent through (7,8).  Environment "b" differs only in making the aisle
two-way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .expr import ParamSpace, Program
from .model import ParametricModel

Cell = tuple[int, int]

ACTIONS = ("up", "right", "down", "left", "stay")
_DELTA = {"up": (0, 1), "right": (1, 0), "down": (0, -1), "left": (-1, 0), "stay": (0, 0)}
_PERP = {"up": ("left", "right"), "down": ("left", "right"),
         "left": ("up", "down"), "right": ("up", "down"), "stay": ()}


class GridError(ValueError):
    """Invalid grid specification."""


@dataclass(frozen=True)
class GridSpec:
    width: int
    height: int
    start: Cell
    obstacles: frozenset[Cell]
    red: frozenset[Cell]
    risky: dict[Cell, str]  # cell -> parameter name for the red entry
    careful: frozenset[Cell] = frozenset()
    one_way: dict[Cell, tuple[str, ...]] = field(default_factory=dict)
    slip: str = "p0"

    def __post_init__(self):
        cells = set(self.obstacles) | set(self.red) | set(self.risky) | set(self.careful)
        cells |= {self.start} | set(self.one_way)
        for c in cells:
            if not (0 <= c[0] < self.width and 0 <= c[1] < self.height):
                raise GridError(f"cell {c} outside the {self.width}x{self.height} grid")
        if self.start in self.obstacles or self.start in self.red:
            raise GridError("start cell is blocked or terminal")
        if not self.red:
            raise GridError("no red cells")
        if self.red & self.obstacles:
            raise GridError("red cells overlap obstacles")
        for c in self.risky:
            if c in self.obstacles or c in self.red:
                raise GridError(f"risky cell {c} is blocked or red")
            if not any(n in self.red for n in self._neighbors(c)):
                raise GridError(f"risky cell {c} has no adjacent red cell")
        for c, acts in self.one_way.items():
            if c in self.obstacles or c in self.red:
                raise GridError(f"one-way cell {c} is blocked or red")
            if not acts or any(a not in ACTIONS for a in acts):
                raise GridError(f"bad action set {acts!r} at {c}")

    def _neighbors(self, c: Cell) -> list[Cell]:
        x, y = c
        return [(x, y + 1), (x + 1, y), (x, y - 1), (x - 1, y)]

    def free_cells(self) -> list[Cell]:
        return [
            (x, y)
            for x in range(self.width)
            for y in range(self.height)
            if (x, y) not in self.obstacles
        ]


def cell_name(c: Cell) -> str:
    return f"c{c[0]}_{c[1]}"


def parse_cell_name(name: str) -> Cell:
    x, y = name[1:].split("_")
    return int(x), int(y)


def derive_careful(spec_red: frozenset[Cell], risky: dict[Cell, str],
                   obstacles: frozenset[Cell], width: int, height: int) -> frozenset[Cell]:
    """Cells adjacent to a red cell, other than the risky ones."""
    out = set()
    for (x, y) in spec_red:
        for n in ((x, y + 1), (x + 1, y), (x, y - 1), (x - 1, y)):
            if not (0 <= n[0] < width and 0 <= n[1] < height):
                continue
            if n in obstacles or n in spec_red or n in risky:
                continue
            out.add(n)
    return frozenset(out)


def _sum(parts: list[Program]) -> Program:
    total = parts[0]
    for p in parts[1:]:
        total += p + ("+",)
    return total


def generate(spec: GridSpec) -> ParametricModel:
    """Build the parametric MDP for a grid specification."""
    free = spec.free_cells()
    index = {c: i for i, c in enumerate(free)}
    states = tuple(cell_name(c) for c in free)
    effect = frozenset(index[c] for c in spec.red)
    params = (spec.slip,) + tuple(sorted(set(spec.risky.values())))
    space = ParamSpace(params)

    def target(c: Cell, action: str) -> Cell:
        dx, dy = _DELTA[action]
        t = (c[0] + dx, c[1] + dy)
        if not (0 <= t[0] < spec.width and 0 <= t[1] < spec.height) or t in spec.obstacles:
            return c  # collisions fold back onto the current cell
        return t

    rows: list[list[dict[int, Program] | None]] = [[None] * len(ACTIONS) for _ in free]
    for c in free:
        if c in spec.red:
            continue  # terminal
        allowed = spec.one_way.get(c, ACTIONS)
        for action in allowed:
            a = ACTIONS.index(action)
            masses: dict[Cell, list[Program]] = {}
            if c in spec.risky:
                red_nb = [n for n in spec._neighbors(c) if n in spec.red]
                if len(red_nb) != 1:
                    raise GridError(f"risky cell {c} needs exactly one red neighbor")
                p = params.index(spec.risky[c])
                masses.setdefault(red_nb[0], []).append((p,))
                masses.setdefault(target(c, action), []).append(("1", p, "-"))
            elif c in spec.careful or action == "stay":
                masses.setdefault(target(c, action), []).append(("1",))
            else:
                masses.setdefault(target(c, action), []).append((0,))  # the slip
                for perp in _PERP[action]:
                    masses.setdefault(target(c, perp), []).append(("1", 0, "-", "2", "/"))
            rows[index[c]][a] = {index[t]: _sum(parts) for t, parts in masses.items()}
    return ParametricModel(
        states=states,
        actions=ACTIONS,
        initial=index[spec.start],
        effect=effect,
        param_space=space,
        transitions=tuple(tuple(r) for r in rows),
    )


def _builtin_cells() -> dict:
    riser = [(0, y) for y in range(0, 5)]
    west = [(0, 5), (1, 5), (2, 5), (3, 5)]
    aisle = [(4, 6), (4, 7), (4, 8)]
    conveyor = [(4, 9), (5, 9), (6, 9)]
    descent = [(7, 8), (7, 7), (7, 6)]
    east = [(5, 5), (6, 5), (7, 5), (8, 5)]
    return {
        "riser": riser, "west": west, "aisle": aisle, "conveyor": conveyor,
        "descent": descent, "east": east,
        "junction": (4, 5), "fork": (7, 9),
        "risky_low": (9, 5), "risky_high": (8, 9),
        "red": [(9, 6), (9, 9)],
        "safe": [(8, 8), (5, 4), (9, 4)],
    }


def builtin_env(which: str) -> GridSpec:
    """The two shipped 10x10 environments; "b" has a two-way aisle."""
    if which not in ("a", "b"):
        raise GridError(f"unknown environment {which!r}")
    c = _builtin_cells()
    free = (
        c["riser"] + c["west"] + [c["junction"]] + c["aisle"] + c["conveyor"]
        + [c["fork"], c["risky_high"], c["risky_low"]] + c["descent"] + c["east"]
        + c["red"] + c["safe"]
    )
    obstacles = frozenset(
        (x, y) for x in range(10) for y in range(10) if (x, y) not in set(free)
    )
    red = frozenset(c["red"])
    risky = {c["risky_low"]: "p1", c["risky_high"]: "p2"}
    one_way: dict[Cell, tuple[str, ...]] = {}
    for cell in c["riser"]:
        one_way[cell] = ("up",)
    for cell in c["west"]:
        one_way[cell] = ("right",)
    one_way[c["junction"]] = ("up", "right")
    aisle_actions = ("up",) if which == "a" else ("up", "down")
    for cell in c["aisle"]:
        one_way[cell] = aisle_actions
    for cell in c["conveyor"]:
        one_way[cell] = ("right",)
    one_way[c["fork"]] = ("right", "down")
    one_way[c["risky_high"]] = ("down",)
    for cell in c["descent"]:
        one_way[cell] = ("down",)
    for cell in c["east"]:
        one_way[cell] = ("right",)
    one_way[c["risky_low"]] = ("down",)
    for cell in c["safe"]:
        one_way[cell] = ("stay",)
    careful = derive_careful(red, risky, obstacles, 10, 10)
    return GridSpec(
        width=10,
        height=10,
        start=(0, 0),
        obstacles=obstacles,
        red=red,
        risky=risky,
        careful=careful,
        one_way=one_way,
        slip="p0",
    )


def spec_from_json(doc) -> GridSpec:
    """GridSpec from its JSON mirror (lists for cells, maps keyed by "x,y").

    Raises GridError naming a missing key, or quoting a malformed value."""
    if not isinstance(doc, dict):
        raise GridError(f"grid spec must be a JSON object, got {type(doc).__name__}")

    def cell(v) -> Cell:
        return (int(v[0]), int(v[1]))

    try:
        fields = dict(
            width=int(doc["width"]),
            height=int(doc["height"]),
            start=cell(doc["start"]),
            obstacles=frozenset(cell(c) for c in doc.get("obstacles", [])),
            red=frozenset(cell(c) for c in doc["red"]),
            risky={cell(e["cell"]): e["param"] for e in doc.get("risky", [])},
            careful=frozenset(cell(c) for c in doc.get("careful", [])),
            one_way={cell(e["cell"]): tuple(e["actions"]) for e in doc.get("one_way", [])},
            slip=doc.get("slip", "p0"),
        )
    except KeyError as e:
        raise GridError(f"grid spec lacks key {e}") from None
    except (TypeError, ValueError, IndexError) as e:
        raise GridError(f"grid spec: {e}") from None
    return GridSpec(**fields)
