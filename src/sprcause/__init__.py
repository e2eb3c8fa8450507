"""PAC identification of probability-raising causes in uncertain parametric MDPs."""

from .model import instantiate, parse_model
from .reach import max_reach, min_reach
from .exact import exact_reach
from .sprcheck import recall_covers, single_state_verdict
from .bounds import AnalysisBatch, cause_probability_bound, recall_probability_bound, tail_root
from .solver import analyze_batch, solve
from .validate import (
    estimate_cause_probability,
    estimate_recall_probability,
    mean_point_baseline,
    subset_recall_gap,
    vertex_baseline,
)
from .gridworld import generate

__version__ = "0.1.0"
