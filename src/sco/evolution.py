"""Refresh loop for evolving data: detect a change, score it, re-solve
only when the score crosses the threshold.

Each changed snapshot becomes one evolved task, the accepted task on its
data, which the score, the re-solve and the per-decision hook all take.
The score is the absolute change of the full conjugate value at the last
accepted dual optimum between the two tasks. Every data-dependent term
participates, including constants dropped during optimisation.

Session state (accepted task, dual state, primal model) is owned by a
single sequential loop; independent sessions may run concurrently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .admm import DualState, SolverConfig, solve_dual
from .errors import DimensionError, ParameterError, SCOError
from .graph import DEFAULT_WEIGHT_CAP, VariableGraph, build_knn_graph
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
                 evolved: Problem) -> float:
    """Absolute conjugate-value change at a fixed dual point between the
    accepted task ``problem`` and the ``evolved`` task, the same task on
    the new data (``problem.with_values`` builds it), with all
    data-dependent terms included. Both conjugates are taken at the one
    dual image ``Q^T lam_star``."""
    if evolved.values.shape != problem.values.shape:
        raise DimensionError(
            f"evolved data shape {evolved.values.shape} != current shape {problem.values.shape}")
    V = Q.apply_t(lam_star)
    return abs(evolved.conjugate_value_full(V) - problem.conjugate_value_full(V))


@dataclass
class SessionState:
    """Accepted model after the last solve. ``run_session`` makes a new
    state on every re-solve and never changes one it has handed out."""

    problem: Problem
    Q: EdgeIncidence
    dual: DualState
    x_star: np.ndarray


def _evolved_task(problem: Problem, snapshot: Snapshot) -> Problem | None:
    """The accepted task on the snapshot's data, or None when the snapshot
    equals the accepted data. Targets count only where both the snapshot
    and the task carry them: a task that reads none (cc) carries none."""
    values = np.asarray(snapshot.values, dtype=float)
    if values.shape != problem.values.shape:
        # before with_values, which would fail on kept targets of another length
        raise DimensionError(f"snapshot {snapshot.index}: evolved data shape {values.shape} "
                             f"!= current shape {problem.values.shape}")
    if np.array_equal(problem.values, values) and (
            snapshot.targets is None or problem.dataset.targets is None
            or np.array_equal(problem.dataset.targets, snapshot.targets)):
        return None
    return problem.with_values(values, snapshot.targets)


def run_session(initial_problem: Problem, graph: VariableGraph, stream,
                config: SolverConfig, threshold: float, alpha: float = 1.0,
                rebuild_k: int | None = None, weight_cap: float = DEFAULT_WEIGHT_CAP,
                on_decision=None) -> tuple[list[EvolutionDecision], SessionState]:
    """Solve once on the initial data, then process snapshots in order.

    A snapshot identical to the accepted data is a "keep" with a zero
    score, and no task is built for it. A changed snapshot's task is built
    once, with ``with_values`` of the accepted task, and scored; at or
    above ``threshold`` the snapshot is accepted and its task re-solved,
    warm-started from the previous state. A snapshot of another shape
    raises DimensionError. Every operator has coupling strength ``alpha``.
    The graph stays frozen unless ``rebuild_k`` is given: each accepted
    change rebuilds it with that many neighbours. Dual row k is the
    multiplier of edge k, so a rebuilt graph warm-starts only when its edge
    ends equal the old ones, in order; otherwise its solve starts cold. No
    solve depends on a solve run before it, in the session or by a hook.

    ``on_decision(decision, before, after, evolved)`` is invoked after
    each snapshot: ``before`` is the state the snapshot met, ``after``
    the state it left (``before`` itself on a keep) and ``evolved`` its
    task, or None when it equals the accepted data.

    Returns the decision log and the final accepted state. Solver errors
    propagate with the snapshot index attached.
    """
    if not threshold >= 0:  # NaN too: no score is ever >= NaN
        raise ParameterError(f"threshold must be nonnegative, got {threshold}")
    Q = EdgeIncidence(graph, alpha)
    result = solve_dual(initial_problem, Q, config)
    session = SessionState(problem=initial_problem, Q=Q, dual=result.state,
                           x_star=result.x_star)

    decisions: list[EvolutionDecision] = []
    for snapshot in stream:
        before = session
        evolved = _evolved_task(before.problem, snapshot)
        score = 0.0 if evolved is None else \
            delta_metric(before.problem, before.Q, before.dual.lam, evolved)
        if evolved is not None and score >= threshold:
            decision, session = _accept_and_resolve(before, snapshot.index, evolved, score,
                                                    threshold, config, alpha, rebuild_k,
                                                    weight_cap)
        else:
            decision = EvolutionDecision(index=snapshot.index, delta_metric=score,
                                         threshold=threshold, action="keep")
        decisions.append(decision)
        if on_decision is not None:
            on_decision(decision, before, session, evolved)
    return decisions, session


def _accept_and_resolve(session: SessionState, index: int, evolved: Problem, score: float,
                        threshold: float, config: SolverConfig, alpha: float,
                        rebuild_k: int | None, weight_cap: float
                        ) -> tuple[EvolutionDecision, SessionState]:
    try:
        Q, warm = session.Q, session.dual
        if rebuild_k is not None:
            Q = EdgeIncidence(build_knn_graph(evolved.dataset, rebuild_k, weight_cap), alpha)
            if not (np.array_equal(Q.head, session.Q.head)
                    and np.array_equal(Q.tail, session.Q.tail)):
                warm = None  # other edges: the old rows are other edges' multipliers
        started = time.perf_counter()
        result = solve_dual(evolved, Q, config, warm_start=warm)
        wall_ms = (time.perf_counter() - started) * 1000.0
    except SCOError as exc:
        raise type(exc)(f"snapshot {index}: {exc}") from exc
    decision = EvolutionDecision(index=index, delta_metric=score, threshold=threshold,
                                 action="resolve", solve_iters=result.iterations,
                                 solve_inner_iters=result.inner_iterations,
                                 wall_ms=wall_ms, converged=result.converged,
                                 stop_reason=result.stop_reason)
    return decision, SessionState(problem=evolved, Q=Q, dual=result.state,
                                  x_star=result.x_star)
