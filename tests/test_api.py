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
    "evolution", "extract_clusters", "graph", "incidence", "make_problem", "norms",
    "problems", "project_l1_ball", "project_rows", "prox", "prox_norm",
    "regression_dual_image_check", "regression_model_check", "run_session", "solve_dual",
    "sum_norms", "sweep", "validate_graph", "vec_norm",
]


# Every solver setting, in declaration order. A new field (a relaxation
# factor or a rho rule, say) is a new knob and belongs in CHANGES.md.
SOLVER_CONFIG_FIELDS = [
    "beta", "rho", "p", "s", "outer_max_iters", "inner_max_iters",
    "eps_abs", "eps_rel", "inner_tol", "parallel",
]


def test_public_api_is_pinned():
    assert sorted(sco.__all__) == PUBLIC_NAMES


def test_solver_config_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(sco.SolverConfig)] == SOLVER_CONFIG_FIELDS


def test_the_solver_reads_every_solver_setting():
    # a field that sco.admm never reads as config.<field> is a setting that
    # does nothing in the solver; it belongs with the code that reads it
    tree = ast.parse((Path(sco.__file__).parent / "admm.py").read_text(encoding="utf-8"))
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "config"}
    unread = [f.name for f in dataclasses.fields(sco.SolverConfig) if f.name not in read]
    assert unread == []


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


def package_imports(name: str) -> list[tuple[str, str]]:
    """(module, name) for every ``from ... import name`` in one ``sco``
    module, with the package's own modules written as ``sco.<module>``."""
    source = (Path(sco.__file__).parent / f"{name}.py").read_text(encoding="utf-8")
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = ("sco" + ("." + node.module if node.module else "")) if node.level \
                else node.module
            imported += [(module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.name, "") for alias in node.names]
    return imported


def imported_modules(name: str) -> set[str]:
    return {module if module != "sco" else f"sco.{alias}"
            for module, alias in package_imports(name)}


def test_problems_import_neither_the_operator_nor_the_norms():
    # a task sees only the dual image Q^T lam, never the operator that maps
    # to it or the regulariser's norms
    assert not imported_modules("problems") & {"sco.incidence", "sco.norms"}


def test_bounds_import_nothing_from_the_graph_module():
    # the checks read every array from the two tasks they are given, so they
    # build no dataset of their own
    assert "sco.graph" not in imported_modules("bounds")


def test_no_module_imports_a_private_name_of_another():
    modules = [path.stem for path in Path(sco.__file__).parent.glob("*.py")]
    private = [(name, module, alias) for name in modules
               for module, alias in package_imports(name)
               if module.startswith("sco") and alias.startswith("_")]
    assert private == []


def enclosing_definitions(name: str):
    """(top-level definition name, node) for every node of one ``sco``
    module; nodes outside any top-level definition get None."""
    tree = ast.parse((Path(sco.__file__).parent / f"{name}.py").read_text(encoding="utf-8"))
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            yield owner, node


def test_only_the_solver_takes_a_generator():
    # one fixed power-iteration start: a random generator is a parameter of
    # the solver and the norm estimate only, never threaded through the
    # sweep, the refresh loop or the command line
    modules = [path.stem for path in Path(sco.__file__).parent.glob("*.py")]
    takers = {name for name in modules for _, node in enclosing_definitions(name)
              if isinstance(node, ast.arg) and node.arg == "rng"}
    assert takers == {"admm", "incidence"}


def test_np_random_is_called_only_for_the_fixed_start_and_the_synthetic_snapshots():
    # annotations may name np.random.Generator; only these two build one
    modules = [path.stem for path in Path(sco.__file__).parent.glob("*.py")]
    callers = {(name, owner) for name in modules for owner, node in enclosing_definitions(name)
               if isinstance(node, ast.Call) and ast.unparse(node.func).startswith("np.random.")}
    assert callers == {("incidence", "operator_norm_estimate"), ("cli", "_synthetic_stream")}
