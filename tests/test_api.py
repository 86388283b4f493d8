import sco

# Every public name of the package. A change here adds or removes public
# API and belongs in CHANGES.md.
PUBLIC_NAMES = [
    "BoundReport", "ClusterPath", "ConvergenceTrace", "ConvexClusteringProblem",
    "DataValidationError", "Dataset", "DimensionError", "DualState", "EdgeIncidence",
    "EvolutionDecision", "NumericFailure", "ParameterError", "Problem", "RidgeProblem",
    "SCOError", "SessionState", "Snapshot", "SolveResult", "SolverConfig",
    "VariableGraph", "admm", "as_norm", "bounds", "build_knn_graph", "canonical_labels",
    "clustering_dual_image_bound", "clustering_dual_image_check", "clustering_model_check",
    "clusterpath", "default_fuse_tolerance", "delta_metric", "dual_norm", "errors",
    "evolution", "extract_clusters", "graph", "h_norm_step", "incidence", "lambda_step",
    "make_problem", "mu_step", "norms", "operator_norm_estimate", "parallel_lambda_step",
    "problems", "project_ball", "project_l1_ball", "project_rows", "prox", "prox_norm",
    "regression_dual_image_check", "regression_model_check", "run_session", "solve_dual",
    "stack_columns", "sum_norms", "sweep", "u_step", "unstack_columns", "validate_graph",
    "vec_norm", "zero_state",
]


def test_public_api_is_pinned():
    assert sorted(sco.__all__) == PUBLIC_NAMES
