"""Regularisation sweeps and cluster extraction.

Increasing the coupling strength fuses model rows together; the sweep
records the solved model and the fused-component memberships at every
strength value. Rounding to clusters needs an explicit tolerance; by
default it scales with the data (a thousandth of the widest feature
range), since no universal rule exists.

The sweep warm-starts each solve from the previous one; correctness is
guarded by the cold-start equivalence property rather than assumed.
Cluster nesting along the sweep is reported, never asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .admm import SolverConfig, solve_dual
from .errors import DimensionError, ParameterError, SCOError
from .graph import Dataset, VariableGraph
from .incidence import EdgeIncidence
from .problems import ConvexClusteringProblem


def default_fuse_tolerance(values: np.ndarray) -> float:
    """Scale-aware rounding tolerance: 1e-3 of the widest column range."""
    values = np.asarray(values, dtype=float)
    spread = float((values.max(axis=0) - values.min(axis=0)).max())
    if spread == 0.0:
        return 1e-9  # all rows coincide; any positive tolerance fuses them
    return 1e-3 * spread


def extract_clusters(X: np.ndarray, graph: VariableGraph, eps_fuse: float) -> np.ndarray:
    """Connected components of the subgraph of edges whose endpoint rows
    lie within ``eps_fuse`` of each other.

    Returns one label per vertex, the smallest member index of its
    component. The distance test runs on all edges at once and only the
    fused edges enter the union-find. ``X`` has one row per vertex.
    """
    if not eps_fuse > 0:
        raise ParameterError(f"eps_fuse must be positive, got {eps_fuse}")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = graph.vertex_count
    if X.shape[0] != n:
        raise DimensionError(f"expected {n} rows, one per vertex, got {X.shape[0]}")
    head, tail = graph.head, graph.tail
    diff = X[head] - X[tail]
    close = np.sqrt(np.einsum("ij,ij->i", diff, diff)) <= eps_fuse
    # Each root is the smallest member of its set: a union hangs the larger
    # root under the smaller one.
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j in zip(head[close].tolist(), tail[close].tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    return np.array([find(v) for v in range(n)], dtype=int)


def canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel to consecutive ids 0..k-1 in order of first appearance."""
    mapping: dict[int, int] = {}
    out = np.empty(len(labels), dtype=int)
    for idx, lab in enumerate(labels):
        key = int(lab)
        if key not in mapping:
            mapping[key] = len(mapping)
        out[idx] = mapping[key]
    return out


@dataclass
class ClusterPath:
    """Sweep output: per-strength solutions and canonical memberships.

    ``memberships`` labels are consecutive ids starting at 0.
    ``failure_index`` marks the sweep position where the solver failed,
    if any; entries beyond it are absent.
    """

    alphas: list
    solutions: list
    memberships: list
    cluster_counts: list
    fuse_tolerance: float
    converged: list
    failure_index: int | None = None
    failure_message: str | None = None


def sweep(data: Dataset, graph: VariableGraph, alphas, config: SolverConfig,
          warm_start: bool = True, eps_fuse: float | None = None) -> ClusterPath:
    """Solve along an increasing grid of coupling strengths.

    The incidence operator is built once, at unit strength, and each
    strength rescales its coefficients (alpha * w, the bits a fresh
    operator at that strength has). Solves are warm-started from the
    previous strength unless disabled; a cold one gives the same bits
    whatever strengths come before it. A solver failure truncates the
    path and records the failing position instead of raising.
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ParameterError("need at least one strength value")
    if not np.all(np.isfinite(alphas)):
        raise ParameterError(f"strength values must be finite, got {alphas}")
    if any(a < 0 for a in alphas):
        raise ParameterError("strength values must be nonnegative")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ParameterError("strength values must be strictly increasing")
    problem = ConvexClusteringProblem(data)
    if eps_fuse is None:
        eps_fuse = default_fuse_tolerance(data.values)

    path = ClusterPath(alphas=[], solutions=[], memberships=[], cluster_counts=[],
                       fuse_tolerance=eps_fuse, converged=[])
    previous_state = None
    base = EdgeIncidence(graph, 1.0)
    for idx, alpha in enumerate(alphas):
        Q = base.with_coef(alpha * base.coef)
        try:
            result = solve_dual(problem, Q, config,
                                warm_start=previous_state if warm_start else None)
        except SCOError as exc:
            path.failure_index = idx
            path.failure_message = f"alpha={alpha}: {exc}"
            break
        if warm_start:
            previous_state = result.state
        labels = canonical_labels(extract_clusters(result.x_star, graph, eps_fuse))
        path.alphas.append(alpha)
        path.solutions.append(result.x_star)
        path.memberships.append(labels)
        path.cluster_counts.append(int(labels.max()) + 1)
        path.converged.append(result.converged)
    return path
