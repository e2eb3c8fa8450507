"""The package root exports exactly what the README's Library paragraph
documents, and the single-model helpers that moved to tests/oracles.py
stay out of the package."""

import inspect
from pathlib import Path

import sprcause
from sprcause import exact, sprcheck

README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_root_exports_the_documented_names():
    from sprcause import (  # noqa: F401
        AnalysisBatch,
        analyze_batch,
        cause_probability_bound,
        estimate_cause_probability,
        estimate_recall_probability,
        exact_reach,
        generate,
        instantiate,
        max_reach,
        mean_point_baseline,
        min_reach,
        parse_model,
        recall_covers,
        recall_probability_bound,
        single_state_verdict,
        solve,
        subset_recall_gap,
        tail_root,
        vertex_baseline,
    )

    documented = set(locals())
    exported = {name for name, value in vars(sprcause).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == documented and len(exported) == 19
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    assert all(f"`{name}" in library for name in documented)
    for name in ("canonical_cause", "singleton_cause_set", "is_spr_cause"):
        assert not hasattr(sprcheck, name)
    assert not hasattr(exact.RationalMDP, "to_concrete")
