"""Simultaneous clustering and optimization on evolving datasets.

The package solves graph-coupled per-instance learning problems through
their constrained dual, decides when evolving data warrants a re-solve,
sweeps cluster paths, and verifies the accuracy bounds that justify
keeping a stale model.

Importing the package loads none of its modules: a public name loads its
home module on first access (PEP 562). ``sco graph`` loads ``errors``,
``graph``, ``io`` and ``cli``; the other commands also load the solver
modules ``admm``, ``bounds``, ``clusterpath``, ``evolution``,
``incidence``, ``norms``, ``problems`` and ``prox``.
"""

import importlib

# Every public name by its home module; the modules are public names too.
_PUBLIC = {
    "admm": ("ConvergenceTrace", "DualState", "SolveResult", "SolverConfig", "solve_dual"),
    "bounds": ("BoundReport", "clustering_dual_image_bound", "clustering_dual_image_check",
               "clustering_model_check", "regression_dual_image_check",
               "regression_model_check"),
    "clusterpath": ("ClusterPath", "canonical_labels", "default_fuse_tolerance",
                    "extract_clusters", "sweep"),
    "errors": ("DataValidationError", "DimensionError", "NumericFailure", "ParameterError",
               "SCOError"),
    "evolution": ("EvolutionDecision", "SessionState", "Snapshot", "delta_metric",
                  "run_session"),
    "graph": ("Dataset", "VariableGraph", "build_knn_graph", "validate_graph"),
    "incidence": ("EdgeIncidence",),
    "norms": ("as_norm", "dual_norm", "sum_norms", "vec_norm"),
    "problems": ("ConvexClusteringProblem", "Problem", "RidgeProblem", "make_problem"),
    "prox": ("project_l1_ball", "project_rows", "prox_norm"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted([*_PUBLIC, *_HOME])

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME and name not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importing a submodule binds it here; a name is bound on first access
    module = importlib.import_module(f"{__name__}.{_HOME.get(name, name)}")
    value = globals()[name] = module if name in _PUBLIC else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
