"""Helpers the tests share: graphs from (i, j, w) triples and back, and
the files the CLI tests write as inputs and read back as solutions."""

import json

import numpy as np

from sco.graph import VariableGraph

SOLUTION_KEYS = {"X", "dual_objective", "primal_objective", "iters", "converged"}


def graph_of(n: int, triples) -> VariableGraph:
    """The graph on n vertices whose edges are the (i, j, w) triples, in order."""
    triples = list(triples)
    head = np.array([t[0] for t in triples], dtype=np.intp)
    tail = np.array([t[1] for t in triples], dtype=np.intp)
    weight = np.array([t[2] for t in triples], dtype=np.float64)
    return VariableGraph(n, head, tail, weight)


def edge_triples(graph: VariableGraph) -> list:
    """The graph's edges as (int, int, float) triples, in edge order."""
    return list(zip(graph.head.tolist(), graph.tail.tolist(), graph.weight.tolist()))


def write_matrix_csv(path: str, values, targets=None) -> None:
    """One row per instance, full-precision floats, the target (if any) last."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if targets is not None:
        values = np.column_stack([values, np.asarray(targets, dtype=float)])
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(",".join(repr(float(v)) for v in row) + "\n" for row in values))


def load_solution_json(path: str) -> dict:
    """Read a ``sco solve`` document back and check it has every solution key."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    missing = SOLUTION_KEYS - payload.keys()
    assert not missing, f"{path}: missing solution keys {sorted(missing)}"
    return payload
