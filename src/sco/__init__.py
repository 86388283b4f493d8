"""Simultaneous clustering and optimization on evolving datasets.

The package solves graph-coupled per-instance learning problems through
their constrained dual, decides when evolving data warrants a re-solve,
sweeps cluster paths, and verifies the accuracy bounds that justify
keeping a stale model.
"""

from .admm import (ConvergenceTrace, DualState, SolveResult, SolverConfig,
                   solve_dual)
from .bounds import (BoundReport, clustering_dual_image_bound,
                     clustering_dual_image_check, clustering_model_check,
                     regression_dual_image_check, regression_model_check)
from .clusterpath import (ClusterPath, canonical_labels, default_fuse_tolerance,
                          extract_clusters, sweep)
from .errors import (DataValidationError, DimensionError, NumericFailure,
                     ParameterError, SCOError)
from .evolution import (EvolutionDecision, SessionState, Snapshot, delta_metric,
                        run_session)
from .graph import Dataset, VariableGraph, build_knn_graph, validate_graph
from .incidence import EdgeIncidence
from .norms import as_norm, dual_norm, sum_norms, vec_norm
from .problems import (ConvexClusteringProblem, Problem, RidgeProblem,
                       make_problem)
from .prox import project_l1_ball, project_rows, prox_norm

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
