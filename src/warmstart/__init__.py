"""Deterministic simulation toolkit for warm-started solvers.

Models each day's computation as growing a search ball around a predicted
solution, and measures online strategies (predict-yesterday, rate-decay
parallel search with subsumption, k-server reductions) against exact offline
benchmarks on seeded scenario generators.
"""

from .baselines import (
    WorkFunctionState,
    brute_force_best_trajectories,
    offline_opt_kserver,
    wfa_step,
)
from .errors import CapExceeded, DimensionMismatch, InvariantViolation
from .kmedians import (
    CenterSet,
    cost_of_centers,
    learn_centers,
    learn_centers_local_search,
    learn_centers_subset_erm,
)
from .ledger import CostLedger, DayLedger
from .metric import (
    L1,
    L2,
    LINF,
    NORMS,
    Point,
    distance,
    distance_matrix,
    origin,
    search_steps,
)
from .online import (
    kserver_reduction,
    predict_yesterday,
    quadratic_decay_day,
    rate,
    run_quadratic_decay,
)
from .oracle import (
    HiddenInstance,
    SearchThread,
    run_parallel_k,
    run_parallel_k_detail,
)
from .partition import (
    LabeledSample,
    ThresholdClass,
    ThresholdTree,
    c_loss,
    compose,
    construct_rotation,
    cost_of_partition,
    enumerate_threshold_trees,
    predict_and_solve,
    rc_erm,
    rotate_centers,
    two_step_learn,
)
from .scenarios import (
    Scenario,
    default_corpus,
    gen_adversarial_switch,
    gen_drifting_trajectories,
    gen_planted_lower_bound,
    gen_static_clusters,
    generate,
    planted_baseline,
)
from .trajectories import TrajectorySet, trajectory_cost

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "CenterSet",
    "CostLedger",
    "DayLedger",
    "DimensionMismatch",
    "HiddenInstance",
    "InvariantViolation",
    "L1",
    "L2",
    "LINF",
    "LabeledSample",
    "NORMS",
    "Point",
    "Scenario",
    "SearchThread",
    "ThresholdClass",
    "ThresholdTree",
    "TrajectorySet",
    "WorkFunctionState",
    "brute_force_best_trajectories",
    "c_loss",
    "compose",
    "construct_rotation",
    "cost_of_centers",
    "cost_of_partition",
    "default_corpus",
    "distance",
    "distance_matrix",
    "enumerate_threshold_trees",
    "gen_adversarial_switch",
    "gen_drifting_trajectories",
    "gen_planted_lower_bound",
    "gen_static_clusters",
    "generate",
    "kserver_reduction",
    "learn_centers",
    "learn_centers_local_search",
    "learn_centers_subset_erm",
    "offline_opt_kserver",
    "origin",
    "planted_baseline",
    "predict_and_solve",
    "predict_yesterday",
    "quadratic_decay_day",
    "rate",
    "rc_erm",
    "rotate_centers",
    "run_parallel_k",
    "run_parallel_k_detail",
    "run_quadratic_decay",
    "search_steps",
    "trajectory_cost",
    "two_step_learn",
    "wfa_step",
]
