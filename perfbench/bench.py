"""Runs one workload for a fixed time and reports its metrics.

End-to-end metrics come from untraced commands; the traced run gives the
per-layer metrics and the tracing overhead. Every command's outputs go
through the workload's correctness gate, and a command whose outputs
fail counts its units as failed.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import sco.cli
import tracing
from sco import EdgeIncidence, solve_dual
from sco.problems import make_problem
from workloads import WORKLOADS, OpResult

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(HERE, "_work")
MIN_OPS = 5
PROBES_PER_OP = 2
# Just before and just after each timed command the host's current speed is
# sampled by running fixed chunks of reference work, each time for this
# share of the command's time.
REFERENCE_SHARE = 0.25
# Time of one reference chunk on the 2-core host the records were made on,
# in its fast mode (Python 3.11.7, numpy 2.4.6). wall_s and setup_s are in
# seconds at that speed.
REFERENCE_CHUNK_S = 0.0085
REFERENCE_ROWS = np.random.default_rng(0).standard_normal((240, 3))

# A fresh interpreter imports the package and parses the workload's input.
SETUP_PROBE = """
import sys, time
started = time.perf_counter()
import sco.cli
from sco.io import read_matrix_csv, read_snapshot_jsonl
targets = sys.argv[2] == "1"
read_matrix_csv(sys.argv[1], with_targets=targets)
if len(sys.argv) > 3:
    read_snapshot_jsonl(sys.argv[3], with_targets=targets)
print(time.perf_counter() - started)
"""


def environment() -> dict:
    """Machine, interpreter, library and thread settings of this run."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SCO_THREADS")
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "threads": {var: os.environ.get(var) for var in thread_vars}}


def setup_time(workload) -> float:
    """Set-up time of one fresh interpreter."""
    data, targets, stream = workload.input_files()
    argv = [sys.executable, "-c", SETUP_PROBE, data, "1" if targets else "0"]
    if stream is not None:
        argv.append(stream)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def reference_chunk() -> None:
    """A fixed piece of interpreted and small-array numpy work, the mix
    the program's commands spend their time on. It calls nothing in sco."""
    total = 0.0
    for i in range(3000):
        total += float(np.abs(REFERENCE_ROWS * 1.0001).sum()) + (i * i) % 7


def sample_speed(seconds: float) -> tuple[int, float]:
    """Run reference chunks for about ``seconds``; return (chunks, time)."""
    chunks, started = 0, time.perf_counter()
    while chunks == 0 or time.perf_counter() - started < seconds:
        reference_chunk()
        chunks += 1
    return chunks, time.perf_counter() - started


def run_op(workload, ref: dict, tracer: tracing.Tracer | None = None):
    """Run the workload's command once through the CLI entry point.

    Returns the wall time of the command and the checked outcome.
    """
    argv = workload.argv()
    failed = OpResult(workload.units_per_op, workload.units_per_op)
    first_span = len(tracer.spans) if tracer is not None else 0
    if tracer is not None:
        tracer.install()
    started = time.perf_counter()
    try:
        code = sco.cli.main(argv)
    except Exception:  # a crash is a failed operation, not a failed benchmark
        code = None
        failed.errors.append(traceback.format_exc(limit=4))
    finally:
        wall = time.perf_counter() - started
        if tracer is not None:
            tracer.uninstall()
    if code is None:
        return wall, failed
    try:
        result = workload.run_check(code, ref)
    except Exception:  # unreadable or malformed outputs
        failed.errors.append(traceback.format_exc(limit=4))
        return wall, failed
    if tracer is not None:
        # The traced command also shows the solves its outputs do not report,
        # such as the initial and shadow solves of a monitor session.
        unconverged = sum(not span.attrs.get("converged", True)
                          for span in tracer.spans[first_span:] if span.name == "solve_dual")
        if unconverged:
            result.errors.append(f"{unconverged} traced solve(s) not converged")
            result.failed = result.units
    return wall, result


def serial_over_parallel(workload) -> float:
    """Serial over thread-pool time of one cold solve of the initial problem,
    built by the same CLI helpers the command uses."""
    args = sco.cli.build_parser().parse_args(workload.argv())
    data = sco.cli._load_dataset(args)
    graph = sco.cli._load_or_build_graph(args, data)
    problem = make_problem(args.task, data, gamma=args.gamma)
    Q = EdgeIncidence(graph, args.alpha)
    config = sco.cli._solver_config(args)
    times = {}
    for parallel in (False, True):
        started = time.perf_counter()
        solve_dual(problem, Q, dataclasses.replace(config, parallel=parallel),
                   rng=np.random.default_rng(args.seed))
        times[parallel] = time.perf_counter() - started
    return times[False] / times[True]


class Run:
    """Counts units attempted and failed over every command of a run."""

    def __init__(self, workload, ref):
        self.workload, self.ref = workload, ref
        self.attempted = self.failed = 0
        self.x_rel_err = 0.0
        self.errors = []
        self.raw = {}

    def op(self, tracer=None) -> float:
        if tracer is not None:
            tracer.run_id = f"{self.workload.name}-op{self.attempted}"
        wall, result = run_op(self.workload, self.ref, tracer)
        self.attempted += result.units
        self.failed += result.failed
        self.x_rel_err = max(self.x_rel_err, result.x_rel_err)
        self.errors += result.errors
        return wall


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for ``seconds`` and return the result object."""
    workload = WORKLOADS[name]()
    workdir = os.path.join(WORK_DIR, f"{name}-s{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload.prepare(workdir, seed)
        run = Run(workload, workload.reference())
        if trace:
            run.op()  # warm-up, checked but not timed
            metrics, tracer = traced_metrics(run, seconds)
            tracer.dump(os.path.join(WORK_DIR, f"spans-{name}-s{seed}.json"))
        else:
            metrics = untraced_metrics(run, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics, "errors": run.errors, "raw": run.raw}


def untraced_metrics(run: Run, seconds: float) -> dict:
    """End-to-end metrics: a warm-up, then timed commands with set-up
    probes spread between them, so both sample the whole run.

    Both times are given at a fixed host speed. A shared host's speed
    flips between modes about 1.5x apart, for under a second to tens of
    seconds at a time, so raw times follow the host more than the
    program. Just before and just after each command, fixed reference
    chunks run for a share of its time. ``wall_s`` is the run's mean
    command time and ``setup_s`` its median set-up probe, each scaled by
    the chunks' reference time over their measured time. A command that
    would end past ``seconds``, going by the typical cycle so far, is not
    started."""
    if any(tracing.is_wrapper(fn) for fn in tracing.current_targets().values()):
        raise RuntimeError("tracing wrappers installed during an untraced run")
    setup_time(run.workload)  # warm-up probe, discarded
    walls, setup, cycles = [run.op()], [], []  # warm-up, checked but not timed
    chunks = reference_s = 0.0
    started = time.perf_counter()
    while len(walls) <= MIN_OPS or \
            time.perf_counter() - started + statistics.median(cycles) <= seconds:
        cycle_start = time.perf_counter()
        before = sample_speed(REFERENCE_SHARE * walls[-1])
        walls.append(run.op())
        after = sample_speed(REFERENCE_SHARE * walls[-1])
        chunks += before[0] + after[0]
        reference_s += before[1] + after[1]
        setup += [setup_time(run.workload) for _ in range(PROBES_PER_OP)]
        cycles.append(time.perf_counter() - cycle_start)
    walls = walls[1:]
    speed = chunks * REFERENCE_CHUNK_S / reference_s
    run.raw = {"walls": walls, "setup": setup, "speed": speed}
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"wall_s": {"value": statistics.fmean(walls) * speed, "unit": "s"},
            "setup_s": {"value": statistics.median(setup) * speed, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"}}


def traced_metrics(run: Run, seconds: float) -> tuple[dict, tracing.Tracer]:
    """Per-layer metrics: traced and untraced commands in alternation, at
    least one of each; the untraced ones give the tracing overhead."""
    tracer = tracing.Tracer()
    plain, traced = [], []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        # Alternate which side goes first so drift does not favour one.
        if len(traced) % 2 == 0:
            plain.append(run.op())
            traced.append(run.op(tracer))
        else:
            traced.append(run.op(tracer))
            plain.append(run.op())
    extra = {"admm.x_rel_err_max": run.x_rel_err,
             "trace.overhead": min(traced) / min(plain),
             "admm.serial_over_parallel": 0.0}
    if run.workload.name == "monitor-ridge":
        extra["admm.serial_over_parallel"] = serial_over_parallel(run.workload)
    return tracing.per_layer_metrics(tracer.spans, extra), tracer
