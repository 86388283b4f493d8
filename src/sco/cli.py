"""Command line entry points.

Subcommands: graph, solve, path, monitor, bound. Errors print a
machine-readable JSON object on stderr; exit codes are 0 (ok), 2
(configuration or input problem), 3 (numeric failure). Output files are
written atomically and serialised canonically, so repeated runs with the
same flags produce identical bytes. Every solve takes the solver's one
fixed power-iteration start; ``--seed`` seeds only the synthetic
snapshots of ``monitor --synthetic`` and the ``--sigma`` draw of ``bound``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bounds as bounds_mod
from .admm import SolverConfig, solve_dual
from .clusterpath import sweep
from .errors import ParameterError, SCOError
from .evolution import Snapshot, run_session
# Not called here; the benchmark's tracer wraps it under this module's name.
from .evolution import delta_metric  # noqa: F401
from .graph import Dataset, build_knn_graph, validate_graph
from .incidence import EdgeIncidence
from .io import (graph_to_dict, iter_snapshot_files, load_graph_json,
                 matrix_to_lists, read_matrix_csv, read_snapshot_jsonl,
                 write_json_atomic, write_jsonl_atomic, write_path_csv,
                 write_trace_csv)
from .problems import TASKS, make_problem


class _Parser(argparse.ArgumentParser):
    # argparse exits with usage text by default; route through our error path
    def error(self, message):
        raise ParameterError(message)


def finite_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def nonnegative_float(text: str) -> float:
    value = finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return value


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return value


def _require_file(path: str) -> str:
    if not os.path.exists(path):
        raise ParameterError(f"file not found: {path}")
    return path


def _add_solver_flags(sub):
    sub.add_argument("--alpha", type=nonnegative_float, default=1.0, help="coupling strength")
    sub.add_argument("--beta", type=finite_float, default=5.0, help="dual-image regulariser weight")
    sub.add_argument("--gamma", type=finite_float, default=5.0, help="l2 shrinkage (ridge only)")
    sub.add_argument("--rho", type=finite_float, default=1.0, help="penalty parameter")
    sub.add_argument("--p", default="2", choices=["1", "2", "inf"],
                     help="regulariser row norm (constraint geometry is its dual)")
    sub.add_argument("--s", default="1", choices=["1", "2", "inf"],
                     help="dual-image regulariser norm")
    sub.add_argument("--outer-max-iters", type=int, default=500)
    sub.add_argument("--inner-max-iters", type=int, default=200)
    sub.add_argument("--eps-abs", type=finite_float, default=1e-6)
    sub.add_argument("--eps-rel", type=finite_float, default=1e-4)
    sub.add_argument("--inner-tol", type=finite_float, default=1e-8,
                     help="floor of the inner stopping test; each inner solve stops at 1%% "
                          "of the last outer residual (the first at 1%% of its starting "
                          "gradient-mapping norm), never below it")
    sub.add_argument("--parallel", action="store_true",
                     help="kept for compatibility: runs the same dual update (needs --p 1)")
    sub.add_argument("--seed", type=nonnegative_int, default=0,
                     help="seed of monitor's --synthetic snapshots and bound's --sigma draw; "
                          "solve and path accept it and read it nowhere")


def _add_data_flags(sub):
    sub.add_argument("--input", required=True, help="dataset CSV, one row per instance")
    sub.add_argument("--targets", action="store_true",
                     help="treat the final CSV column as the regression target")
    sub.add_argument("--k", type=int, default=10, help="neighbours per vertex")
    sub.add_argument("--weight-cap", type=finite_float, default=1e6)
    sub.add_argument("--graph", default=None, help="load a graph JSON instead of building one")


def build_parser(command: str | None = None) -> _Parser:
    """The ``sco`` argument parser. Given one of the subcommand names as
    ``command``, only that subcommand's arguments are added: it parses,
    helps and fails on that subcommand's command lines as the full parser
    does, at a fraction of the set-up cost."""
    parser = _Parser(prog="sco", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    if command in (None, "graph"):
        g = subs.add_parser("graph", help="build the k-nearest-neighbour variable graph")
        _add_data_flags(g)
        g.add_argument("--out", required=True)

    if command in (None, "solve"):
        s = subs.add_parser("solve", help="solve one dataset and write the solution")
        _add_data_flags(s)
        _add_solver_flags(s)
        s.add_argument("--task", default="cc", choices=TASKS)
        s.add_argument("--out", required=True)
        s.add_argument("--trace-out", default=None, help="also write the residual trace CSV")

    if command in (None, "path"):
        p = subs.add_parser("path", help="sweep the coupling strength and emit the cluster path")
        _add_data_flags(p)
        _add_solver_flags(p)
        p.add_argument("--alphas", required=True,
                       help="comma-separated increasing strengths, e.g. 0,0.5,1")
        p.add_argument("--fuse-tol", type=finite_float, default=None,
                       help="fusion tolerance (default: 1e-3 of the widest feature range)")
        p.add_argument("--no-warm-start", action="store_true")
        p.add_argument("--out", required=True, help="per-vertex CSV output")
        p.add_argument("--summary-out", default=None,
                       help="JSON summary (default: <out>.summary.json)")

    if command in (None, "monitor"):
        m = subs.add_parser("monitor", help="process an evolving snapshot stream")
        _add_data_flags(m)
        _add_solver_flags(m)
        m.add_argument("--task", default="cc", choices=TASKS)
        m.add_argument("--c", type=nonnegative_float, default=10.0, help="refresh threshold")
        m.add_argument("--stream", default=None,
                       help="directory of CSV snapshots (lexicographic) or a JSONL file; "
                            "not with a positive --synthetic")
        m.add_argument("--synthetic", type=nonnegative_int, default=0,
                       help="generate this many perturbed snapshots instead of reading a "
                            "stream; a positive count cannot go with --stream")
        m.add_argument("--sigma", type=finite_float, default=0.1,
                       help="noise scale for synthetic snapshots")
        m.add_argument("--rebuild-graph", action="store_true",
                       help="rebuild the graph when a snapshot is accepted")
        m.add_argument("--no-bounds", action="store_true",
                       help="skip the per-decision accuracy-bound reports")
        m.add_argument("--out", required=True, help="decisions JSONL output")
        m.add_argument("--bounds-out", default=None,
                       help="bound reports JSONL (default: <out>.bounds.jsonl)")
        m.add_argument("--metrics-out", default=None,
                       help="also write run-dependent per-decision metrics (wall_ms) as JSONL")

    if command in (None, "bound"):
        b = subs.add_parser("bound", help="evaluate the accuracy bounds for one perturbation")
        _add_data_flags(b)
        _add_solver_flags(b)
        b.add_argument("--task", default="cc", choices=TASKS)
        b.add_argument("--c", type=nonnegative_float, default=10.0)
        b.add_argument("--delta", default=None, help="perturbation CSV of the same shape")
        b.add_argument("--sigma", type=finite_float, default=0.1,
                       help="scale for a synthetic Gaussian perturbation when --delta is absent")
        b.add_argument("--out", required=True)
    return parser


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        beta=args.beta, rho=args.rho, p=args.p, s=args.s,
        outer_max_iters=args.outer_max_iters, inner_max_iters=args.inner_max_iters,
        eps_abs=args.eps_abs, eps_rel=args.eps_rel, inner_tol=args.inner_tol,
        parallel=args.parallel,
    )


def _config_echo(args) -> dict:
    skip = {"command", "out", "trace_out", "summary_out", "bounds_out", "metrics_out"}
    return {key: value for key, value in sorted(vars(args).items()) if key not in skip}


def _load_dataset(args) -> Dataset:
    values, targets = read_matrix_csv(_require_file(args.input), with_targets=args.targets)
    return Dataset(values, targets)


def _load_or_build_graph(args, data: Dataset):
    if args.graph is not None:
        graph = load_graph_json(_require_file(args.graph))
        problems = validate_graph(graph)
        if problems:
            raise ParameterError("invalid graph: " + "; ".join(problems))
        if graph.vertex_count != data.row_count:
            raise ParameterError(
                f"graph has {graph.vertex_count} vertices but data has {data.row_count} rows")
        return graph
    return build_knn_graph(data, args.k, args.weight_cap)


def cmd_graph(args) -> int:
    data = _load_dataset(args)
    graph = _load_or_build_graph(args, data)
    write_json_atomic(args.out, {**graph_to_dict(graph), "config": _config_echo(args)})
    return 0


def cmd_solve(args) -> int:
    data = _load_dataset(args)
    config = _solver_config(args)
    problem = make_problem(args.task, data, gamma=args.gamma)
    graph = _load_or_build_graph(args, data)
    result = solve_dual(problem, EdgeIncidence(graph, args.alpha), config)
    payload = {
        "X": matrix_to_lists(result.x_star),
        "dual_objective": float(result.dual_objective),
        "primal_objective": float(result.primal_objective),
        "iters": int(result.iterations),
        "inner_iters": int(result.inner_iterations),
        "converged": bool(result.converged),
        "stop_reason": result.stop_reason,
        "config": _config_echo(args),
    }
    write_json_atomic(args.out, payload)
    if args.trace_out:
        write_trace_csv(args.trace_out, result.trace)
    return 0


def cmd_path(args) -> int:
    data = _load_dataset(args)
    config = _solver_config(args)
    graph = _load_or_build_graph(args, data)
    try:
        alphas = [float(a) for a in args.alphas.split(",") if a.strip() != ""]
    except ValueError:
        raise ParameterError(f"cannot parse --alphas {args.alphas!r}") from None
    path = sweep(data, graph, alphas, config, warm_start=not args.no_warm_start,
                 eps_fuse=args.fuse_tol)
    write_path_csv(args.out, path)
    summary = {
        "alphas": [float(a) for a in path.alphas],
        "cluster_counts": [int(c) for c in path.cluster_counts],
        "fuse_tolerance": float(path.fuse_tolerance),
        "converged": [bool(c) for c in path.converged],
        "failure_index": path.failure_index,
        "failure_message": path.failure_message,
        "config": _config_echo(args),
    }
    write_json_atomic(args.summary_out or args.out + ".summary.json", summary)
    return 0 if path.failure_index is None else 3


def _synthetic_stream(data: Dataset, count: int, sigma: float, seed: int) -> list[Snapshot]:
    draw = np.random.default_rng(seed).standard_normal
    shape = data.values.shape
    return [Snapshot(index=idx, values=data.values + sigma * draw(shape),
                     targets=data.targets) for idx in range(count)]


def _read_stream(args, data: Dataset) -> list[Snapshot]:
    if args.synthetic > 0:
        if args.stream is not None:
            raise ParameterError("monitor takes --stream or a positive --synthetic N, not both")
        return _synthetic_stream(data, args.synthetic, args.sigma, args.seed)
    if args.stream is None:
        raise ParameterError("monitor needs --stream or --synthetic N")
    _require_file(args.stream)
    if os.path.isdir(args.stream):
        arrivals = (read_matrix_csv(path, with_targets=args.targets)
                    for path in iter_snapshot_files(args.stream))
    else:
        arrivals = read_snapshot_jsonl(args.stream, with_targets=args.targets)
    snapshots = [Snapshot(index=idx, values=values, targets=targets)
                 for idx, (values, targets) in enumerate(arrivals)]
    if not snapshots:
        raise ParameterError(f"no snapshots found in {args.stream}")
    for snap in snapshots:
        if snap.values.shape != data.values.shape:
            raise ParameterError(
                f"snapshot {snap.index} shape {snap.values.shape} != initial {data.values.shape}")
    return snapshots


def _decision_bounds(decision, before, after, evolved, config, c):
    """Bound reports for one decision: the model of ``before`` against the
    true model on the snapshot's task ``evolved`` (``before.problem`` when
    the snapshot is unchanged). A re-solve left that model in ``after``; a
    keep on a changed snapshot needs one extra solve on ``evolved`` to
    obtain it, which leaves the later decisions as they are without bounds."""
    x_tilde, lam_tilde = after.x_star, after.dual.lam
    if decision.action == "keep" and evolved is not None:
        result = solve_dual(evolved, before.Q, config, warm_start=before.dual)
        x_tilde, lam_tilde = result.x_star, result.state.lam
    reports = bounds_mod.reports(after.Q, before.problem, evolved or before.problem,
                                 before.x_star, x_tilde, lam_tilde, config.beta, config.s, c)
    return [report.as_dict() for report in reports]


def cmd_monitor(args) -> int:
    data = _load_dataset(args)
    problem = make_problem(args.task, data, gamma=args.gamma)
    config = _solver_config(args)
    graph = _load_or_build_graph(args, data)
    stream = _read_stream(args, data)

    bound_records = []
    records = []
    metric_records = []

    def on_decision(decision, before, after, evolved):
        records.append({
            "idx": decision.index,
            "delta_metric": decision.delta_metric,
            "threshold": decision.threshold,
            "action": decision.action,
            "solve_iters": decision.solve_iters,
            "solve_inner_iters": decision.solve_inner_iters,
            "converged": decision.converged,
            "stop_reason": decision.stop_reason,
        })
        metric_records.append({"idx": decision.index, "wall_ms": decision.wall_ms})
        if not args.no_bounds:
            for report in _decision_bounds(decision, before, after, evolved, config, args.c):
                report["idx"] = decision.index
                bound_records.append(report)

    run_session(problem, graph, stream, config, args.c, alpha=args.alpha,
                rebuild_k=args.k if args.rebuild_graph else None,
                weight_cap=args.weight_cap, on_decision=on_decision)

    write_jsonl_atomic(args.out, [{"config": _config_echo(args)}] + records)
    if not args.no_bounds:
        write_jsonl_atomic(args.bounds_out or args.out + ".bounds.jsonl", bound_records)
    if args.metrics_out:
        write_jsonl_atomic(args.metrics_out, metric_records)
    return 0


def cmd_bound(args) -> int:
    """A one-snapshot monitor session on values + delta that never accepts
    the snapshot, so its reports come from the keep path's shadow solve."""
    data = _load_dataset(args)
    problem = make_problem(args.task, data, gamma=args.gamma)
    config = _solver_config(args)
    graph = _load_or_build_graph(args, data)

    if args.delta is None:
        stream = _synthetic_stream(data, 1, args.sigma, args.seed)
    else:
        delta, _ = read_matrix_csv(_require_file(args.delta))
        if delta.shape != data.values.shape:
            raise ParameterError(
                f"delta shape {delta.shape} != data shape {data.values.shape}")
        stream = [Snapshot(index=0, values=data.values + delta, targets=data.targets)]

    reports = []

    def on_decision(decision, before, after, evolved):
        reports.extend(_decision_bounds(decision, before, after, evolved, config, args.c))

    decisions, _ = run_session(problem, graph, stream, config, np.inf, alpha=args.alpha,
                               on_decision=on_decision)
    write_json_atomic(args.out, {"reports": reports, "delta_metric": decisions[0].delta_metric,
                                 "config": _config_echo(args)})
    return 0


_COMMANDS = {
    "graph": cmd_graph,
    "solve": cmd_solve,
    "path": cmd_path,
    "monitor": cmd_monitor,
    "bound": cmd_bound,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # any first word but a subcommand name gets the full parser and its messages
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SCOError as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "kind": type(exc).__name__}) + "\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
