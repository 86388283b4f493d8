"""Refresh loop for evolving data: detect a change, score it, re-solve
only when the score crosses the threshold.

The score is the absolute change of the full conjugate value at the last
accepted dual optimum when the data matrix is swapped for the new
snapshot. Every data-dependent term participates, including constants
dropped during optimisation, since the score is defined on the conjugate
itself.

Session state (accepted data, dual state, primal model) is owned by a
single sequential loop; independent sessions may run concurrently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .admm import DualState, SolverConfig, solve_dual
from .errors import DimensionError, ParameterError, SCOError
from .graph import Dataset, VariableGraph, build_knn_graph
from .incidence import EdgeIncidence
from .problems import Problem


@dataclass(frozen=True)
class Snapshot:
    """One arrival of the evolving dataset."""

    index: int
    values: np.ndarray
    targets: np.ndarray | None = None


@dataclass
class EvolutionDecision:
    """Outcome for one snapshot: the score, the threshold and the action.

    The solve fields stay None on a keep. ``wall_ms`` is the re-solve's
    wall time, the one field that differs between repeated runs.
    """

    index: int
    delta_metric: float
    threshold: float
    action: str  # "keep" | "resolve"
    solve_iters: int | None = None
    solve_inner_iters: int | None = None
    wall_ms: float | None = None
    converged: bool | None = None
    stop_reason: str | None = None


def delta_metric(problem: Problem, Q: EdgeIncidence, lam_star: np.ndarray,
                 new_values: np.ndarray, new_targets: np.ndarray | None = None) -> float:
    """Absolute conjugate-value change at a fixed dual point when the data
    evolves, with all data-dependent terms included. Both conjugates are
    taken at the one dual image ``Q^T lam_star``."""
    new_values = np.asarray(new_values, dtype=float)
    if new_values.shape != problem.values.shape:
        raise DimensionError(
            f"evolved data shape {new_values.shape} != current shape {problem.values.shape}")
    V = Q.apply_t(lam_star)
    evolved = problem.with_values(new_values, new_targets)
    return abs(evolved.conjugate_value_full(V) - problem.conjugate_value_full(V))


@dataclass
class SessionState:
    """Accepted model after the last solve.

    ``previous_problem`` / ``previous_x_star`` hold the model that was
    replaced by the most recent re-solve (None until one happens), which
    is what the accuracy bounds compare against.
    """

    problem: Problem
    graph: VariableGraph
    Q: EdgeIncidence
    dual: DualState
    x_star: np.ndarray
    previous_problem: Problem | None = None
    previous_x_star: np.ndarray | None = None


def _snapshot_changed(problem: Problem, snapshot: Snapshot) -> bool:
    if not np.array_equal(problem.values, snapshot.values):
        return True
    if snapshot.targets is not None:
        current = problem.dataset.targets
        if current is None or not np.array_equal(current, np.asarray(snapshot.targets, dtype=float)):
            return True
    return False


def run_session(initial_problem: Problem, graph: VariableGraph, stream,
                config: SolverConfig, threshold: float,
                rebuild_graph: bool = False, knn_k: int | None = None,
                weight_cap: float = 1e6,
                rng: np.random.Generator | None = None,
                on_decision=None) -> tuple[list[EvolutionDecision], SessionState]:
    """Solve once on the initial data, then process snapshots in order.

    A snapshot identical to the accepted data is a "keep" with a zero
    score (no change is detected, so the score is never evaluated). A
    changed snapshot is scored; at or above ``threshold`` the snapshot is
    accepted and the dual is re-solved, warm-started from the previous
    state. Graph topology stays frozen across the session unless
    ``rebuild_graph`` asks for reconstruction on every accepted change.
    Dual row k is the multiplier of edge k, so a rebuilt graph warm-starts
    only when its edge ends equal the old ones, in order; otherwise its
    solve starts cold.

    ``on_decision(decision, session, snapshot)`` is invoked after each
    snapshot, letting callers attach per-decision reporting.

    Returns the decision log and the final accepted state. Solver errors
    propagate with the snapshot index attached.
    """
    if not threshold >= 0:  # NaN too: no score is ever >= NaN
        raise ParameterError(f"threshold must be nonnegative, got {threshold}")
    Q = EdgeIncidence(graph, config.alpha)
    result = solve_dual(initial_problem, Q, config, rng=rng)
    session = SessionState(problem=initial_problem, graph=graph, Q=Q,
                           dual=result.state, x_star=result.x_star)

    decisions: list[EvolutionDecision] = []
    for snapshot in stream:
        if not _snapshot_changed(session.problem, snapshot):
            decision = EvolutionDecision(index=snapshot.index, delta_metric=0.0,
                                         threshold=threshold, action="keep")
        else:
            score = delta_metric(session.problem, session.Q, session.dual.lam,
                                 snapshot.values, snapshot.targets)
            if score >= threshold:
                decision = _accept_and_resolve(session, snapshot, score, threshold, config,
                                               rebuild_graph, knn_k, weight_cap, rng)
            else:
                decision = EvolutionDecision(index=snapshot.index, delta_metric=score,
                                             threshold=threshold, action="keep")
        decisions.append(decision)
        if on_decision is not None:
            on_decision(decision, session, snapshot)
    return decisions, session


def _accept_and_resolve(session: SessionState, snapshot: Snapshot, score: float,
                        threshold: float, config: SolverConfig, rebuild_graph: bool,
                        knn_k: int | None, weight_cap: float,
                        rng: np.random.Generator | None) -> EvolutionDecision:
    try:
        new_problem = session.problem.with_values(snapshot.values, snapshot.targets)
        new_graph, new_Q = session.graph, session.Q
        warm = session.dual
        if rebuild_graph:
            if knn_k is None:
                raise ParameterError("graph rebuild requested but no neighbour count given")
            new_graph = build_knn_graph(Dataset(snapshot.values), knn_k, weight_cap)
            new_Q = EdgeIncidence(new_graph, config.alpha)
            if not (np.array_equal(new_Q.head, session.Q.head)
                    and np.array_equal(new_Q.tail, session.Q.tail)):
                warm = None  # other edges: the old rows are other edges' multipliers
        started = time.perf_counter()
        result = solve_dual(new_problem, new_Q, config, warm_start=warm, rng=rng)
        wall_ms = (time.perf_counter() - started) * 1000.0
    except SCOError as exc:
        raise type(exc)(f"snapshot {snapshot.index}: {exc}") from exc
    session.previous_problem = session.problem
    session.previous_x_star = session.x_star
    session.graph = new_graph
    session.Q = new_Q
    session.problem = new_problem
    session.dual = result.state
    session.x_star = result.x_star
    return EvolutionDecision(index=snapshot.index, delta_metric=score, threshold=threshold,
                             action="resolve", solve_iters=result.iterations,
                             solve_inner_iters=result.inner_iterations,
                             wall_ms=wall_ms, converged=result.converged,
                             stop_reason=result.stop_reason)
