"""Layer-coverage self-check of the benchmark's tracing.

For each workload, one untraced and one traced command run through the
benchmark. The check asserts that every per-layer metric is non-zero on
the workload meant to exercise it, that the traced functions are
restored afterwards, and that the untraced command went through no
wrapper. Run with ``pytest perfbench``.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
for path in (os.path.join(os.path.dirname(HERE), "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    originals = tracing.current_targets()
    out = {}
    for name, cls in WORKLOADS.items():
        workload = cls()
        workload.prepare(str(tmp_path_factory.mktemp(name)), seed=7)
        run = bench.Run(workload, workload.reference())
        metrics, tracer = bench.traced_metrics(run, seconds=0)
        out[name] = (run, metrics, tracer)
    return originals, out


def test_every_layer_metric_is_exercised(traced):
    _, out = traced
    for metric, _, workloads in tracing.PER_LAYER:
        for name in workloads:
            value = out[name][1][metric]["value"]
            assert value > 0, f"{metric} is {value} on {name}"


def test_commands_pass_the_correctness_gate(traced):
    _, out = traced
    for name, (run, _, _) in out.items():
        assert run.failed == 0, (name, run.errors)
        assert run.attempted == 2 * WORKLOADS[name].units_per_op


def test_originals_restored_and_untraced_command_unwrapped(traced):
    originals, out = traced
    assert tracing.current_targets() == originals
    assert not any(tracing.is_wrapper(fn) for fn in originals.values())
    for name, (_, _, tracer) in out.items():
        # One traced and one untraced command ran; only the traced one
        # left a command span, so the untraced one called the originals.
        commands = [span for span in tracer.spans if span.name == "command"]
        assert len(commands) == 1, name
        assert {span.run_id for span in tracer.spans} == {commands[0].run_id}


def test_benchmark_json_lists_the_per_layer_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _ in tracing.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: cls.why for name, cls in WORKLOADS.items()}
