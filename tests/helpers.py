"""File helpers the CLI tests use to write inputs and read solutions back."""

import json

import numpy as np

SOLUTION_KEYS = {"X", "dual_objective", "primal_objective", "iters", "converged"}


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
