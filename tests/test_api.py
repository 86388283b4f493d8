import ast
import dataclasses
import inspect
from pathlib import Path

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
    "problems", "project_l1_ball", "project_rows", "prox", "prox_norm",
    "regression_dual_image_check", "regression_model_check", "run_session", "solve_dual",
    "sum_norms", "sweep", "u_step", "validate_graph", "vec_norm", "zero_state",
]


# Every solver setting, in declaration order. A new field (a relaxation
# factor or a rho rule, say) is a new knob and belongs in CHANGES.md.
SOLVER_CONFIG_FIELDS = [
    "alpha", "beta", "rho", "p", "s", "outer_max_iters", "inner_max_iters",
    "eps_abs", "eps_rel", "inner_tol", "parallel",
]


def test_public_api_is_pinned():
    assert sorted(sco.__all__) == PUBLIC_NAMES


def test_solver_config_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(sco.SolverConfig)] == SOLVER_CONFIG_FIELDS


def library_references() -> set[str]:
    """Every name the package's source reads: plain names and attribute
    names. Definitions and imports bind names without reading them, so
    they do not count."""
    names = set()
    for path in Path(sco.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_function_and_class_is_used_by_the_library():
    # a helper that only the tests call belongs in tests/, not in sco
    used = library_references()
    unused = [name for name in sco.__all__
              if (inspect.isfunction(getattr(sco, name)) or inspect.isclass(getattr(sco, name)))
              and name not in used]
    assert unused == []


def test_problems_import_neither_the_operator_nor_the_norms():
    # a task sees only the dual image Q^T lam, never the operator that maps
    # to it or the regulariser's norms
    source = (Path(sco.__file__).parent / "problems.py").read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            prefix = "sco." if node.level else ""
            if node.module:
                imported.add(prefix + node.module)
            else:
                imported.update(prefix + alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not imported & {"sco.incidence", "sco.norms"}
