"""Spans and call counters recorded from outside the program.

``Tracer.install`` replaces the public functions of each ``sco`` module
with timing wrappers, at every name the command path looks them up
through (``from .x import y`` binds a second name that must be wrapped
too), and ``Tracer.uninstall`` puts the originals back. Nothing inside
``src/`` changes.

Coarse calls (command, solve, dual step, sweep, session, bound check,
graph build, io) become spans with a name, start, end, parent and the
run id of their command. The hot per-iteration calls (``apply``,
``apply_t``, ``project_rows``, ``conjugate_curvature``, ``u_step``,
``mu_step``, ``prox_norm``, ``recover_primal``) only add a count and a
total time to the span they run under, so memory stays bounded however
many iterations a solve takes. Everything stays in memory until
``dump``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name). Several entries share a span name when a
# function is bound under more than one module.
SPAN_TARGETS = [
    ("sco.cli", "main", "command"),
    ("sco.cli", "solve_dual", "solve_dual"),
    ("sco.evolution", "solve_dual", "solve_dual"),
    ("sco.clusterpath", "solve_dual", "solve_dual"),
    ("sco.admm", "lambda_step", "lambda_step"),
    ("sco.admm", "parallel_lambda_step", "parallel_lambda_step"),
    ("sco.admm", "operator_norm_estimate", "operator_norm_estimate"),
    ("sco.cli", "sweep", "sweep"),
    ("sco.clusterpath", "extract_clusters", "extract_clusters"),
    ("sco.cli", "run_session", "run_session"),
    ("sco.evolution", "delta_metric", "delta_metric"),
    ("sco.cli", "delta_metric", "delta_metric"),
    ("sco.cli", "build_knn_graph", "build_knn_graph"),
    ("sco.evolution", "build_knn_graph", "build_knn_graph"),
    ("sco.bounds", "clustering_model_check", "bound_check"),
    ("sco.bounds", "clustering_dual_image_check", "bound_check"),
    ("sco.bounds", "regression_model_check", "bound_check"),
    ("sco.bounds", "regression_dual_image_check", "bound_check"),
    ("sco.cli", "read_matrix_csv", "io_read"),
    ("sco.cli", "read_snapshot_jsonl", "io_read"),
    ("sco.cli", "load_graph_json", "io_read"),
    ("sco.cli", "write_json_atomic", "io_write"),
    ("sco.cli", "write_jsonl_atomic", "io_write"),
    ("sco.cli", "write_path_csv", "io_write"),
    ("sco.cli", "write_trace_csv", "io_write"),
]

# (module, class or None, attribute, counter name).
HOT_TARGETS = [
    ("sco.incidence", "EdgeIncidence", "apply", "apply"),
    ("sco.incidence", "EdgeIncidence", "apply_t", "apply_t"),
    ("sco.admm", None, "project_rows", "project_rows"),
    ("sco.admm", None, "prox_norm", "prox_norm"),
    ("sco.admm", None, "u_step", "u_step"),
    ("sco.admm", None, "mu_step", "mu_step"),
    ("sco.problems", "ConvexClusteringProblem", "conjugate_curvature", "conjugate_curvature"),
    ("sco.problems", "RidgeProblem", "conjugate_curvature", "conjugate_curvature"),
    ("sco.problems", "Problem", "recover_primal", "recover_primal"),
]


def _owner(module: str, cls: str | None):
    mod = importlib.import_module(module)
    return mod if cls is None else getattr(mod, cls)


def _incidence_bytes(args) -> float:
    """Computed, not measured: 8 bytes per float read or written, counting
    the input block, the output block and the three edge arrays."""
    Q, block = args[0], np.asarray(args[1])
    cols = block.shape[1] if block.ndim == 2 else 1
    return 8.0 * ((Q.row_count + Q.col_count) * cols + 3 * Q.row_count)


def _l1_rows_over(args) -> float:
    lam, q = np.asarray(args[0]), float(args[1])
    if q != 1.0 or lam.ndim != 2:
        return 0.0
    return float(np.count_nonzero(np.abs(lam).sum(axis=1) > 1.0))


HOT_EXTRA = {"apply": _incidence_bytes, "apply_t": _incidence_bytes,
             "project_rows": _l1_rows_over}


class Span:
    __slots__ = ("id", "name", "site", "parent", "run_id", "start", "end",
                 "children", "hot", "hot_top_s", "attrs")

    def __init__(self, span_id, name, site, parent, run_id):
        self.id, self.name, self.site, self.parent, self.run_id = \
            span_id, name, site, parent, run_id
        self.start = time.perf_counter()
        self.end = None
        self.children = []
        self.hot = {}          # counter name -> [calls, seconds, extra]
        self.hot_top_s = 0.0   # hot time not nested in another hot call
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "site": self.site, "parent": self.parent,
                "run_id": self.run_id, "start": self.start, "end": self.end,
                "hot": self.hot, "attrs": self.attrs}


class Tracer:
    """Installs the wrappers, owns the spans, and restores the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = None
        self._ids = itertools.count()
        self.originals = []    # (owner, attribute, original)
        self._local = threading.local()
        self._hot_lock = threading.Lock()
        self._main_stack: list[Span] = []

    # --- recording ------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._local.stack = self._main_stack if is_main else []
            self._local.hot_depth = 0
        return stack

    def _current(self) -> Span | None:
        stack = self._stack()
        if stack:
            return stack[-1]
        # Pool threads of the parallel dual step inherit the main thread's
        # innermost span as their parent.
        return self._main_stack[-1] if self._main_stack else None

    def open(self, name: str, site: str) -> Span:
        parent = self._current()
        span = Span(next(self._ids), name, site, parent.id if parent else None, self.run_id)
        self.spans.append(span)
        if parent is not None:
            parent.children.append(span)
        self._stack().append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def span_wrapper(self, fn, name: str, site: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name, site)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            _annotate(span, args, result)
            return result
        wrapper.perfbench_wrapper = True
        return wrapper

    def hot_wrapper(self, fn, name: str):
        extra = HOT_EXTRA.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._current()
            local = self._local
            depth = local.hot_depth
            local.hot_depth = depth + 1
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                local.hot_depth = depth
                if parent is not None:
                    added = extra(args) if extra is not None else 0.0
                    # Pool threads of the parallel dual step can share a parent span.
                    with self._hot_lock:
                        entry = parent.hot.setdefault(name, [0, 0.0, 0.0])
                        entry[0] += 1
                        entry[1] += elapsed
                        entry[2] += added
                        if depth == 0:
                            parent.hot_top_s += elapsed
        wrapper.perfbench_wrapper = True
        return wrapper

    # --- installing -----------------------------------------------------

    def install(self) -> None:
        if self.originals:
            raise RuntimeError("tracer already installed")
        self._stack()
        try:
            for module, attr, name in SPAN_TARGETS:
                owner = _owner(module, None)
                original = getattr(owner, attr)
                self.originals.append((owner, attr, original))
                setattr(owner, attr, self.span_wrapper(original, name, module))
            for module, cls, attr, name in HOT_TARGETS:
                owner = _owner(module, cls)
                original = owner.__dict__[attr]
                self.originals.append((owner, attr, original))
                setattr(owner, attr, self.hot_wrapper(original, name))
        except (ImportError, AttributeError, KeyError):
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self.originals:
            owner, attr, original = self.originals.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span.as_dict() for span in self.spans], handle)


def _annotate(span: Span, args, result) -> None:
    """Keep the counts a span's arguments and return value carry."""
    if span.name == "solve_dual":
        span.attrs = {"iterations": int(result.iterations), "converged": bool(result.converged)}
    elif span.name == "build_knn_graph":
        span.attrs = {"edges": result.edge_count}
    elif span.name == "extract_clusters":
        span.attrs = {"clusters": int(len(np.unique(result)))}
    elif span.name == "run_session":
        decisions = result[0]
        span.attrs = {"decisions": len(decisions),
                      "resolves": sum(d.action == "resolve" for d in decisions)}
    elif span.name == "bound_check":
        span.attrs = {"satisfied": bool(result.satisfied)}
    elif span.name == "io_write":
        span.attrs = {"bytes": os.path.getsize(args[0])}


def current_targets() -> dict:
    """The object now bound at every traced name, for the restore check."""
    out = {}
    for module, attr, _ in SPAN_TARGETS:
        out[(module, None, attr)] = getattr(_owner(module, None), attr)
    for module, cls, attr, _ in HOT_TARGETS:
        out[(module, cls, attr)] = _owner(module, cls).__dict__[attr]
    return out


def is_wrapper(fn) -> bool:
    return getattr(fn, "perfbench_wrapper", False)


# Per-layer metrics: name, unit, and the workloads whose traced run must
# show a non-zero value (the layer-coverage self-check).
SOLVING = ("solve-cc", "path-pinf", "monitor-ridge")
PER_LAYER = [
    ("graph.build_s", "s", ("graph-knn", "solve-cc")),
    ("graph.edges", "count", ("graph-knn", "solve-cc")),
    ("io.read_s", "s", ("graph-knn",)),
    ("io.write_s", "s", ("graph-knn",)),
    ("io.bytes_written", "bytes", ("graph-knn",)),
    ("incidence.apply_s", "s", ("solve-cc", "monitor-ridge")),
    ("incidence.apply_calls", "count", ("solve-cc", "monitor-ridge")),
    ("incidence.apply_t_s", "s", ("solve-cc", "monitor-ridge")),
    ("incidence.apply_t_calls", "count", ("solve-cc", "monitor-ridge")),
    ("incidence.norm_estimate_s", "s", ("solve-cc", "monitor-ridge")),
    ("incidence.computed_bytes", "bytes", ("solve-cc", "monitor-ridge")),
    ("prox.project_rows_s", "s", ("path-pinf",)),
    ("prox.project_rows_calls", "count", ("path-pinf",)),
    ("prox.l1_rows_projected", "count", ("path-pinf",)),
    ("prox.prox_norm_s", "s", ("path-pinf",)),
    ("problems.curvature_s", "s", ("monitor-ridge",)),
    ("admm.recover_s", "s", ("monitor-ridge",)),
    ("admm.solves", "count", SOLVING),
    ("admm.solve_s", "s", SOLVING),
    ("admm.outer_iters", "count", SOLVING),
    ("admm.inner_iters", "count", SOLVING),
    ("admm.lambda_step_self_s", "s", SOLVING),
    ("admm.parallel_step_s", "s", ("monitor-ridge",)),
    ("admm.u_mu_s", "s", SOLVING),
    ("admm.converged", "count", SOLVING),
    ("admm.x_rel_err_max", "ratio", ("solve-cc", "path-pinf")),
    ("admm.serial_over_parallel", "ratio", ("monitor-ridge",)),
    ("clusterpath.extract_s", "s", ("path-pinf",)),
    ("clusterpath.clusters", "count", ("path-pinf",)),
    ("evolution.decisions", "count", ("monitor-ridge",)),
    ("evolution.resolves", "count", ("monitor-ridge",)),
    ("evolution.delta_metric_s", "s", ("monitor-ridge",)),
    ("evolution.shadow_solves", "count", ("monitor-ridge",)),
    ("evolution.shadow_solve_s", "s", ("monitor-ridge",)),
    ("bounds.check_s", "s", ("monitor-ridge",)),
    ("bounds.reports", "count", ("monitor-ridge",)),
    ("bounds.satisfied", "count", ("monitor-ridge",)),
    ("cli.self_s", "s", ("solve-cc", "graph-knn")),
    ("trace.overhead", "ratio", ("solve-cc", "path-pinf", "monitor-ridge", "graph-knn")),
]


def _self_time(span: Span) -> float:
    """Duration minus the union of child-span intervals and the hot calls
    made directly under the span."""
    covered, reach = 0.0, span.start
    for child in sorted(span.children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return max(span.duration - covered - span.hot_top_s, 0.0)


def _has_ancestor(span: Span, by_id: dict, name: str) -> bool:
    while span.parent is not None:
        span = by_id[span.parent]
        if span.name == name:
            return True
    return False


def per_layer_metrics(spans: list[Span], extra: dict) -> dict:
    """Per-command means of every per-layer metric from the recorded spans.
    ``extra`` carries the values measured outside the spans."""
    named = defaultdict(list)
    for span in spans:
        named[span.name].append(span)
    ops = max(len(named["command"]), 1)
    by_id = {span.id: span for span in spans}

    def durations(name):
        return sum(s.duration for s in named[name])

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in named[name])

    def hot(counter, field, among=None):
        return sum(s.hot.get(counter, (0, 0.0, 0.0))[field] for s in (among or spans))

    shadows = [s for s in named["solve_dual"]
               if s.site == "sco.cli" and _has_ancestor(s, by_id, "run_session")]
    totals = {
        "graph.build_s": durations("build_knn_graph"),
        "graph.edges": attr("build_knn_graph", "edges"),
        "io.read_s": durations("io_read"),
        "io.write_s": durations("io_write"),
        "io.bytes_written": attr("io_write", "bytes"),
        "incidence.apply_s": hot("apply", 1),
        "incidence.apply_calls": hot("apply", 0),
        "incidence.apply_t_s": hot("apply_t", 1),
        "incidence.apply_t_calls": hot("apply_t", 0),
        "incidence.norm_estimate_s": durations("operator_norm_estimate"),
        "incidence.computed_bytes": hot("apply", 2) + hot("apply_t", 2),
        "prox.project_rows_s": hot("project_rows", 1),
        "prox.project_rows_calls": hot("project_rows", 0),
        "prox.l1_rows_projected": hot("project_rows", 2),
        "prox.prox_norm_s": hot("prox_norm", 1),
        "problems.curvature_s": hot("conjugate_curvature", 1),
        "admm.recover_s": hot("recover_primal", 1),
        "admm.solves": len(named["solve_dual"]),
        "admm.solve_s": durations("solve_dual"),
        "admm.outer_iters": attr("solve_dual", "iterations"),
        "admm.inner_iters": hot("conjugate_curvature", 0, named["lambda_step"]),
        "admm.lambda_step_self_s": sum(_self_time(s) for s in named["lambda_step"]),
        "admm.parallel_step_s": durations("parallel_lambda_step"),
        "admm.u_mu_s": hot("u_step", 1) + hot("mu_step", 1),
        "admm.converged": attr("solve_dual", "converged"),
        "clusterpath.extract_s": durations("extract_clusters"),
        "clusterpath.clusters": attr("extract_clusters", "clusters"),
        "evolution.decisions": attr("run_session", "decisions"),
        "evolution.resolves": attr("run_session", "resolves"),
        "evolution.delta_metric_s": durations("delta_metric"),
        "evolution.shadow_solves": len(shadows),
        "evolution.shadow_solve_s": sum(s.duration for s in shadows),
        "bounds.check_s": durations("bound_check"),
        "bounds.reports": len(named["bound_check"]),
        "bounds.satisfied": attr("bound_check", "satisfied"),
        "cli.self_s": sum(_self_time(s) for s in named["command"]),
    }
    metrics = {name: value / ops for name, value in totals.items()}
    metrics.update(extra)
    return {name: {"value": float(metrics[name]), "unit": unit} for name, unit, _ in PER_LAYER}
