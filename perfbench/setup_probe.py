"""What every CLI call pays before its job starts, timed from outside.

    python3 perfbench/setup_probe.py MODEL DIST [SOLUTION]

Imports the package, loads or generates the model and the distribution the
way the CLI resolves them, and for validate reads the solution file and
maps its states.  run.py times this whole process from a fresh interpreter.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import sprcause.cli  # noqa: F401  (the CLI imports every layer)
from sprcause import fixtures
from sprcause.model import load_model
from sprcause.sampling import load_dist


def main(argv: list[str]) -> int:
    model_ref, dist_ref, *rest = argv
    if model_ref in fixtures.builtin_model_names():
        pmodel = fixtures.builtin_model(model_ref)
    else:
        pmodel = load_model(model_ref)
    if dist_ref in fixtures.builtin_dist_names():
        fixtures.builtin_dist(dist_ref)
    else:
        load_dist(dist_ref)
    for path in rest:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        [frozenset(pmodel.state_index(s) for s in m) for m in doc["members"]]
        frozenset(pmodel.state_index(s) for s in doc["S_N"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
