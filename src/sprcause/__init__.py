"""PAC identification of probability-raising causes in uncertain parametric MDPs."""

from .expr import ExprError, ParamSpace, parse_expr, to_string
from .model import (
    ConcreteModel,
    Graph,
    ModelError,
    ParametricModel,
    instantiate,
    load_model,
    model_to_json,
    parse_model,
    support_graph,
)
from .sampling import DistSpec, SampleBatch, load_dist, mean_point, parse_dist, sample, support_vertices
from .reach import max_reach, min_reach, reachable_avoiding, exists_path_via
from .exact import RationalMDP, exact_reach, from_concrete
from .sprcheck import (
    CauseVerdict,
    build_modified,
    canonical_cause,
    is_spr_cause,
    recall_covers,
    single_state_verdict,
    singleton_cause_set,
)
from .bounds import (
    AnalysisBatch,
    SampleAnalysis,
    cause_probability_bound,
    cause_sample_count,
    recall_probability_bound,
    recall_sample_count,
    tail_root,
)
from .solver import CauseSolution, SolveConfig, analyze_batch, solve
from .validate import (
    Estimate,
    estimate_cause_probability,
    estimate_recall_probability,
    mean_point_baseline,
    subset_recall_gap,
    vertex_baseline,
)
from .gridworld import GridSpec, builtin_env, generate

__version__ = "0.1.0"
