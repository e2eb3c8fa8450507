"""The four workloads: the CLI job each runs and the check of its output.

Every check holds whatever the seed; a job whose output fails it counts as
a failed operation.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from scipy.special import betaincinv

from sprcause.gridworld import parse_cell_name

DATA = Path(__file__).resolve().parent / "data"
GRID_SOLUTION = DATA / "grid-a-N100-delta0.001.solution.json"
LOWER_CELLS = {(3, 5), (5, 5), (7, 8)}  # criterion 7's marks of the lower route
# grid-a's lower route: row 5 from the west to the risky (9,5), and the
# descent from the fork that joins it
LOWER_ROUTE = {(x, 5) for x in range(10)} | {(7, 6), (7, 7), (7, 8)}
GRID_N = 100
LOBBY_N = 4
VALIDATE_M = 50


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: str  # builtin name, or "lobby" for the model the benchmark generates
    dist: str
    args: tuple[str, ...]  # CLI arguments after the command, model and distribution
    check: Callable[[bytes], list[str]]  # output bytes -> problems found
    command: str = "identify"
    solution: Path | None = None  # the solution a validate job reads
    points: int | None = None  # M of a validate job

    def cli_args(self, model_ref: str, seed: int, workers: int, out: Path) -> list[str]:
        argv = [self.command, "--model", model_ref, "--dist", self.dist, *self.args,
                "--seed", str(seed), "--out", str(out)]
        if self.solution is not None:
            argv += ["--solution", str(self.solution)]
        else:
            argv += ["--workers", str(workers)]
        return argv


def _pac_bound(discarded: int, total: int, beta: float) -> float:
    """t*(k, beta), computed apart from the package: the closed form at k=0,
    else the root of the binomial tail through the inverse incomplete beta."""
    if discarded == 0:
        return (1.0 - beta) ** (1.0 / total)
    if discarded == total:
        return 0.0
    return float(betaincinv(total - discarded, discarded + 1, (1.0 - beta) / total))


def _solution(output: bytes) -> tuple[dict, list[str]]:
    """The solution document and the problems every identify output is free of."""
    doc = json.loads(output.decode("utf-8"))
    n, beta = doc["N"], doc["beta"]
    problems = []
    if not 0 <= doc["m"] <= n:
        problems.append(f"m {doc['m']} outside 0..{n}")
    if abs(doc["zeta"] - _pac_bound(n - doc["m"], n, beta)) > 1e-9:
        problems.append(f"zeta {doc['zeta']} is not the bound for m={doc['m']}")
    if len(doc["eta"]) != len(doc["members"]) or len(doc["n"]) != len(doc["members"]):
        problems.append("eta, n and members differ in length")
    for member, eta, count in zip(doc["members"], doc["eta"], doc["n"]):
        if abs(eta - _pac_bound(n - count, n, beta)) > 1e-9:
            problems.append(f"eta {eta} of {member} is not the bound for n={count}")
        if not eta > doc["delta"]:
            problems.append(f"eta {eta} of {member} misses the delta filter")
        if not set(member) <= set(doc["S_N"]):
            problems.append(f"member {member} outside S_N")
    return doc, problems


def _cells(member) -> set[tuple[int, int]]:
    return {parse_cell_name(s) for s in member}


def check_example(output: bytes) -> list[str]:
    doc, problems = _solution(output)
    if doc["members"] != [["s3"]]:
        problems.append(f"members {doc['members']} != [['s3']]")
    if abs(doc["zeta"] - 0.995) > 5e-4:
        problems.append(f"zeta {doc['zeta']} not within 5e-4 of 0.995")
    return problems


def check_grid(output: bytes) -> list[str]:
    # criterion 7 (iii), m == N, fails when the delta filter drops a member
    # seen on too few samples (2 of 2000 batches resampled from 1500 points);
    # criterion 7 (i)'s member through (7,8), like the validate fixture's
    # members, is missing on about 15% of seeds, which pick [c6_5, c7_7]
    doc, problems = _solution(output)
    members = [_cells(m) for m in doc["members"]]
    # criterion 7 (i): members on both routes
    if len(members) < 2:
        problems.append("fewer than two members")
    if not any(not m & LOWER_CELLS for m in members):
        problems.append("every member touches the lower route")
    if not any(m & LOWER_ROUTE for m in members):
        problems.append("no member on the lower route")
    return problems


def check_validate(output: bytes) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(output.decode("utf-8"))))
    values = {r["quantity"]: float(r["estimate"]) for r in rows}
    members = json.loads(GRID_SOLUTION.read_text(encoding="utf-8"))["members"]
    want = [f"F{m}" for m in members] + ["R", "R_sub_max", "R_gap"]
    problems = []
    if [r["quantity"] for r in rows] != want:
        return [f"rows {[r['quantity'] for r in rows]} != {want}"]
    if any(int(r["M"]) != VALIDATE_M for r in rows):
        problems.append(f"M differs from {VALIDATE_M}")
    if any(not 0.0 <= v <= 1.0 for v in values.values()):
        problems.append(f"estimate outside [0, 1]: {values}")
    # the three members cover every point between them (1200 of 1200 drawn),
    # so R is 1; criterion 7 (iv), R_sub_max < R, fails on about 3% of M=50
    # batches, those where no point needs the rarest member alone
    if values["R"] != 1.0:
        problems.append(f"R {values['R']} != 1")
    if values["R_sub_max"] > values["R"]:
        problems.append(f"R_sub_max {values['R_sub_max']} > R {values['R']}")
    if abs(values["R_gap"] - (values["R"] - values["R_sub_max"])) > 2e-6:
        problems.append("R_gap != R - R_sub_max")
    return problems


def check_lobby(output: bytes) -> list[str]:
    from lobby import gauntlet_cells

    doc, problems = _solution(output)
    inside = gauntlet_cells()
    if not doc["members"]:
        problems.append("no members")
    for m in doc["members"]:
        if not _cells(m) <= inside:
            problems.append(f"member {m} leaves the gauntlet")
    # m == N fails on about one job in ten: with N=4 a member seen on one
    # sample only misses the delta filter and is dropped
    if doc["m"] < 1:
        problems.append("no sample covered")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "example-identify",
            "6-state models, N=1000 with exact corners: fixed per-sample costs, "
            "duplicate draws and the exact layer dominate",
            "example", "example", ("-N", "1000", "--exact"), check_example,
        ),
        Workload(
            "grid-identify",
            "the paper's grid-a experiment: 31 states, a third of verdicts are corners, "
            "so per-pivot VI and optimal_actions dominate",
            "grid-a", "grid", ("-N", str(GRID_N), "--delta", "0.001"), check_grid,
        ),
        Workload(
            "grid-validate",
            "Monte-Carlo validation of the grid-a solution: about 12 restricted analyses "
            "per point, never enters the solver",
            "grid-a", "grid",
            ("-M", str(VALIDATE_M)), check_validate,
            command="validate", solution=GRID_SOLUTION, points=VALIDATE_M,
        ),
        Workload(
            "lobby-identify",
            "grid-a behind an open 10x12 lobby, 151 states: costs that grow with the "
            "state count (dense tensor, model copies, VI sweeps) dominate",
            "lobby", "grid", ("-N", str(LOBBY_N), "--delta", "0.001"), check_lobby,
        ),
    )
}
