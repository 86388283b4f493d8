"""Benchmark workloads: generated inputs, pinned command lines and the
per-operation correctness gate.

Every workload starts from fixed base data drawn from ``BASE_SEED``. The
workload seed picks a symmetry of the problem: a row order, a signed
permutation of the features and, for convex clustering, a translation.
The kNN graph, convex clustering and per-instance ridge are all
equivariant under these maps, so the reference outputs computed once on
the base data (``reference/<workload>.json``, written by
``make_reference.py``) answer every seed: each output is mapped back to
base coordinates and compared there.

Every solver and graph flag is pinned on the command line, so a changed
CLI default shows up as a benchmark change instead of silently changing
a workload.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
BASE_SEED = 20190804

# Correctness tolerances. Measured on the seed code with ``rel_err``: the
# pinned flags land 5.1e-5 (solve-cc) and 4.2e-5 (path-pinf) from the
# tight reference on every seed. A 10x looser outer stop (--eps-rel 1e-3)
# lands 5e-4, a 20-iteration inner cap on path-pinf 6.1e-4 and a single
# inner step on solve-cc 1.4e-3; all of these still report converged=True.
X_RTOL = 3e-4
# ||X* - A||_F / ||A||_F below this means the beta term pinned the model
# to the data and the solve did no fusing work.
VACUITY_FLOOR = 1e-2
# Refresh scores and bound-report sides, relative to max(|reference|, 1).
# The pinned flags land 5.9e-4 away and --eps-rel 1e-3 lands 4.1e-3.
MONITOR_RTOL = 3e-3
# kNN weights against direct evaluation of min(1/dist, cap) on the input.
WEIGHT_RTOL = 1e-9

SOLVER_FLAGS = {
    "--alpha": "1", "--beta": "0.5", "--gamma": "5", "--rho": "1", "--p": "2", "--s": "1",
    "--outer-max-iters": "500", "--inner-max-iters": "200", "--eps-abs": "1e-6",
    "--eps-rel": "1e-4", "--inner-tol": "1e-8", "--seed": "0",
}
GRAPH_FLAGS = {"--k": "10", "--weight-cap": "1e6"}
# Tolerances the reference solves run at; the model flags stay as pinned.
TIGHT_FLAGS = {
    "--eps-abs": "1e-10", "--eps-rel": "1e-8", "--inner-tol": "1e-12",
    "--inner-max-iters": "5000", "--outer-max-iters": "50000",
}


@dataclass
class Symmetry:
    """Transformed row i is base row ``rows[i]``, feature c is base feature
    ``cols[c]`` times ``signs[c]``, then ``shift`` is added."""

    rows: np.ndarray
    cols: np.ndarray
    signs: np.ndarray
    shift: np.ndarray

    @staticmethod
    def from_seed(seed: int | None, n: int, d: int, translate: bool) -> "Symmetry":
        if seed is None:
            return Symmetry(np.arange(n), np.arange(d), np.ones(d), np.zeros(d))
        rng = np.random.default_rng([seed, n, d])
        shift = rng.uniform(-2.0, 2.0, d) if translate else np.zeros(d)
        return Symmetry(rng.permutation(n), rng.permutation(d),
                        rng.choice([-1.0, 1.0], d), shift)

    def apply(self, M: np.ndarray) -> np.ndarray:
        return M[self.rows][:, self.cols] * self.signs + self.shift

    def apply_rows(self, v: np.ndarray) -> np.ndarray:
        return v[self.rows]

    def undo(self, M: np.ndarray) -> np.ndarray:
        unsigned = (np.asarray(M, dtype=float) - self.shift) * self.signs
        base = np.empty_like(unsigned)
        base[np.ix_(self.rows, self.cols)] = unsigned
        return base


@dataclass
class OpResult:
    """Outcome of one command: units attempted, units failed and why."""

    units: int
    failed: int = 0
    errors: list = field(default_factory=list)
    x_rel_err: float = 0.0


def blobs(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Four Gaussian blobs with unit spread around well separated centres."""
    centres = 4.0 * rng.standard_normal((4, d))
    return centres[np.arange(n) % 4] + rng.standard_normal((n, d))


def write_csv(path: str, values: np.ndarray, targets: np.ndarray | None = None) -> None:
    rows = values if targets is None else np.column_stack([values, targets])
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(",".join(repr(float(v)) for v in row) + "\n" for row in rows)


def rel_err(X: np.ndarray, ref: np.ndarray, base: np.ndarray) -> float:
    """Distance to the reference model relative to how far the reference
    moved from the data, so the error is measured against the fusion
    work the solve does rather than against the size of the data."""
    return float(np.linalg.norm(X - ref) / max(np.linalg.norm(ref - base), 1e-300))


def close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * max(abs(ref), 1.0)


def _flags(flags: dict, tight: bool) -> list[str]:
    merged = dict(flags, **TIGHT_FLAGS) if tight else flags
    return [item for pair in sorted(merged.items()) for item in pair]


class Workload:
    """One benchmark workload: ``prepare`` writes the inputs of a seed,
    ``argv`` is the command, ``canonical`` maps its outputs to base
    coordinates and ``check`` compares those with the reference."""

    name = ""
    why = ""
    n = d = 0
    translate = True
    units_per_op = 1
    flags = {**SOLVER_FLAGS, **GRAPH_FLAGS}

    def __init__(self):
        self.base = blobs(np.random.default_rng(BASE_SEED), self.n, self.d)

    def prepare(self, workdir: str, seed: int | None) -> None:
        self.workdir = workdir
        self.sym = Symmetry.from_seed(seed, self.n, self.d, self.translate)
        self.input = os.path.join(workdir, "data.csv")
        self.out = os.path.join(workdir, "out")
        self.values = self.sym.apply(self.base)
        write_csv(self.input, self.values)

    def input_files(self) -> tuple[str, bool, str | None]:
        """(data CSV, has targets, snapshot stream or None) for the set-up probe."""
        return self.input, False, None

    def argv(self, tight: bool = False) -> list[str]:
        raise NotImplementedError

    def canonical(self) -> dict:
        raise NotImplementedError

    def check(self, got: dict, ref: dict) -> OpResult:
        raise NotImplementedError

    def reference(self) -> dict:
        with open(os.path.join(REFERENCE_DIR, self.name + ".json"), encoding="utf-8") as handle:
            return json.load(handle)

    def run_check(self, exit_code: int, ref: dict) -> OpResult:
        """Check the outputs of the command that just ran."""
        if exit_code != 0:
            return OpResult(self.units_per_op, self.units_per_op, [f"exit code {exit_code}"])
        return self.check(self.canonical(), ref)

    def model_errors(self, X: np.ndarray, ref_X: list, converged: bool) -> tuple[list, float]:
        """Failures of one solved model against its reference, and its error."""
        errors = [] if converged else ["not converged"]
        err = rel_err(X, np.array(ref_X), self.base)
        if err > X_RTOL:
            errors.append(f"X relative error {err:.3g} > {X_RTOL}")
        vacuity = float(np.linalg.norm(X - self.base) / np.linalg.norm(self.base))
        if vacuity < VACUITY_FLOOR:
            errors.append(f"vacuous model: ||X-A||/||A|| = {vacuity:.3g}")
        return errors, err


class SolveCC(Workload):
    name = "solve-cc"
    why = ("cold sco solve --task cc, p=2: the large-array path, where the incidence "
           "apply/apply_t calls move whole m-by-d blocks and the l2 row projection is vectorised")
    n, d = 250, 10

    def argv(self, tight=False):
        return ["solve", "--input", self.input, "--task", "cc", "--out", self.out] \
            + _flags(self.flags, tight)

    def canonical(self):
        with open(self.out, encoding="utf-8") as handle:
            payload = json.load(handle)
        return {"X": self.sym.undo(np.array(payload["X"])).tolist(),
                "converged": payload["converged"], "iters": payload["iters"]}

    def check(self, got, ref):
        errors, err = self.model_errors(np.array(got["X"]), ref["X"], got["converged"])
        return OpResult(1, int(bool(errors)), errors, err)


class PathPinf(Workload):
    name = "path-pinf"
    why = ("warm-started sco path at p=inf: the per-row l1-ball projection loop takes "
           "nearly all the time, and fusion makes warm starts and cluster extraction do real work")
    n, d = 40, 3
    alphas = "8,16"
    units_per_op = 2
    flags = {**SOLVER_FLAGS, **GRAPH_FLAGS, "--p": "inf"}

    def argv(self, tight=False):
        return ["path", "--input", self.input, "--alphas", self.alphas, "--out", self.out] \
            + _flags(self.flags, tight)

    def canonical(self):
        with open(self.out + ".summary.json", encoding="utf-8") as handle:
            summary = json.load(handle)
        table = np.loadtxt(self.out, delimiter=",", skiprows=1, ndmin=2)
        points = []
        for alpha in summary["alphas"]:
            block = table[table[:, 0] == alpha]
            X = np.empty((self.n, self.d))
            X[block[:, 1].astype(int)] = block[:, 3:]
            points.append(self.sym.undo(X).tolist())
        return {"alphas": summary["alphas"], "cluster_counts": summary["cluster_counts"],
                "converged": summary["converged"], "failure_index": summary["failure_index"],
                "X": points}

    def check(self, got, ref):
        result = OpResult(len(ref["alphas"]))
        if got["failure_index"] is not None or got["alphas"] != ref["alphas"]:
            result.errors.append(f"path stopped at {got['failure_index']}")
            result.failed = result.units
            return result
        for idx, alpha in enumerate(ref["alphas"]):
            errors, err = self.model_errors(np.array(got["X"][idx]), ref["X"][idx],
                                            got["converged"][idx])
            result.x_rel_err = max(result.x_rel_err, err)
            if got["cluster_counts"][idx] != ref["cluster_counts"][idx]:
                errors.append(f"{got['cluster_counts'][idx]} clusters, "
                              f"reference {ref['cluster_counts'][idx]}")
            result.errors += [f"alpha={alpha}: {e}" for e in errors]
            result.failed += int(bool(errors))
        return result


class MonitorRidge(Workload):
    name = "monitor-ridge"
    why = ("sco monitor --task ridge --p 1 --parallel with bounds: thousands of tiny incidence "
           "calls per solve, the thread-pool dual step, refresh scoring, shadow solves and bound checks")
    n, d = 40, 3
    translate = False  # the ridge quadratic form uses the data values, not only differences
    threshold = "1"
    units_per_op = 3
    # rho=0.1 keeps the outer sweeps of each solve in the tens; rho=1 needs hundreds.
    flags = {**SOLVER_FLAGS, **GRAPH_FLAGS, "--p": "1", "--rho": "0.1"}
    # Snapshot recipe: (start from the base or the previous snapshot, noise scale).
    # Resolve, repeat of the accepted data (zero-score keep without a solve),
    # small change (keep with a shadow solve).
    stream_recipe = (("base", 0.3), ("previous", 0.0), ("previous", 0.02))

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng([BASE_SEED, 1])
        weights = rng.standard_normal((4, self.d))
        self.targets = np.einsum("ij,ij->i", self.base, weights[np.arange(self.n) % 4]) \
            + 0.1 * rng.standard_normal(self.n)
        self.stream = []
        previous = self.base
        for start, scale in self.stream_recipe:
            origin = self.base if start == "base" else previous
            previous = origin + scale * rng.standard_normal(origin.shape)
            self.stream.append(previous)

    def prepare(self, workdir, seed):
        self.workdir = workdir
        self.sym = Symmetry.from_seed(seed, self.n, self.d, self.translate)
        self.input = os.path.join(workdir, "data.csv")
        self.stream_path = os.path.join(workdir, "stream.jsonl")
        self.out = os.path.join(workdir, "decisions.jsonl")
        targets = self.sym.apply_rows(self.targets)
        write_csv(self.input, self.sym.apply(self.base), targets)
        with open(self.stream_path, "w", encoding="utf-8") as handle:
            for snapshot in self.stream:
                handle.write(json.dumps({"values": self.sym.apply(snapshot).tolist(),
                                         "targets": targets.tolist()}) + "\n")

    def input_files(self):
        return self.input, True, self.stream_path

    def argv(self, tight=False):
        return ["monitor", "--input", self.input, "--targets", "--stream", self.stream_path,
                "--task", "ridge", "--parallel", "--c", self.threshold, "--out", self.out] \
            + _flags(self.flags, tight)

    def canonical(self):
        # Decisions are compared by content: wall_ms is run-dependent.
        with open(self.out, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle][1:]
        with open(self.out + ".bounds.jsonl", encoding="utf-8") as handle:
            reports = [json.loads(line) for line in handle]
        decisions = [{key: r[key] for key in ("idx", "action", "delta_metric", "solve_iters")}
                     for r in records]
        bounds = [{key: r[key] for key in ("idx", "name", "lhs", "rhs", "satisfied")}
                  for r in reports]
        return {"decisions": decisions, "bounds": bounds}

    def check(self, got, ref):
        outer_cap = int(self.flags["--outer-max-iters"])
        result = OpResult(len(ref["decisions"]))
        if len(got["decisions"]) != len(ref["decisions"]) or \
                len(got["bounds"]) != len(ref["bounds"]):
            result.errors.append("decision or bound-report count differs from the reference")
            result.failed = result.units
            return result
        for dec, want in zip(got["decisions"], ref["decisions"]):
            errors = []
            if dec["action"] != want["action"]:
                errors.append(f"action {dec['action']}, reference {want['action']}")
            if not close(dec["delta_metric"], want["delta_metric"], MONITOR_RTOL):
                errors.append(f"score {dec['delta_metric']:.6g}, "
                              f"reference {want['delta_metric']:.6g}")
            # The decision log has no converged flag: a solve that used the whole
            # outer budget is the one that did not converge.
            if dec["solve_iters"] is not None and dec["solve_iters"] >= outer_cap:
                errors.append("re-solve hit the outer iteration cap")
            for rep, want_rep in zip(got["bounds"], ref["bounds"]):
                if want_rep["idx"] != dec["idx"]:
                    continue
                if (rep["idx"], rep["name"]) != (want_rep["idx"], want_rep["name"]):
                    errors.append(f"bound report {rep['name']}, reference {want_rep['name']}")
                    continue
                if not rep["satisfied"]:
                    errors.append(f"{rep['name']} unsatisfied")
                errors += [f"{rep['name']} {side} {rep[side]:.6g}, reference {want_rep[side]:.6g}"
                           for side in ("lhs", "rhs")
                           if not close(rep[side], want_rep[side], MONITOR_RTOL)]
            result.errors += [f"snapshot {dec['idx']}: {e}" for e in errors]
            result.failed += int(bool(errors))
        return result


class GraphKnn(Workload):
    name = "graph-knn"
    why = ("sco graph at n=2500: the dense distance matrix and per-row loop of the kNN build "
           "plus about 0.6 MB of JSON output set time and peak memory; no solver runs")
    n, d = 2500, 10
    flags = GRAPH_FLAGS

    def argv(self, tight=False):
        return ["graph", "--input", self.input, "--out", self.out] + _flags(self.flags, False)

    def canonical(self):
        with open(self.out, encoding="utf-8") as handle:
            edges = np.array(json.load(handle)["edges"], dtype=float).reshape(-1, 3)
        i, j = edges[:, 0].astype(int), edges[:, 1].astype(int)
        weights = np.minimum(1.0 / np.linalg.norm(self.values[i] - self.values[j], axis=1),
                             float(self.flags["--weight-cap"]))
        weight_err = float(np.max(np.abs(edges[:, 2] - weights) / weights, initial=0.0))
        bi, bj = self.sym.rows[i], self.sym.rows[j]
        pairs = np.unique(np.column_stack([np.minimum(bi, bj), np.maximum(bi, bj)]), axis=0)
        digest = hashlib.sha256(pairs.astype(np.int64).tobytes()).hexdigest()
        return {"edges": int(len(edges)), "pairs_sha256": digest, "weight_rel_err": weight_err}

    def check(self, got, ref):
        result = OpResult(1)
        if got["edges"] != ref["edges"] or got["pairs_sha256"] != ref["pairs_sha256"]:
            result.errors.append(f"edge pairs differ from the reference ({got['edges']} edges, "
                                 f"reference {ref['edges']})")
        if got["weight_rel_err"] > WEIGHT_RTOL:
            result.errors.append(f"weight relative error {got['weight_rel_err']:.3g}")
        result.failed = int(bool(result.errors))
        return result


WORKLOADS = {w.name: w for w in (SolveCC, PathPinf, MonitorRidge, GraphKnn)}
