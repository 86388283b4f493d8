import json
import os
import subprocess
import sys

import numpy as np
import pytest

import sco
import sco.cli
import sco.clusterpath
import sco.evolution
import sco.io
from sco import (DataValidationError, Dataset, EdgeIncidence, ParameterError, RidgeProblem,
                 SolverConfig, build_knn_graph, make_problem, solve_dual)
from sco.cli import build_parser, main
from sco.io import canonical_json, load_graph_json, read_matrix_csv

from helpers import edge_triples, load_solution_json, write_matrix_csv
from oracles import (DataSymmetry, add_at_norm_estimate, clip_project_rows, fancy_index_apply,
                     per_column_apply_t, per_line_read_matrix_csv, per_row_l1_projection,
                     reference_lambda_step, same_bits, stacked_ridge_curvature)


@pytest.fixture
def three_points(tmp_path):
    path = tmp_path / "data.csv"
    write_matrix_csv(str(path), np.array([[0.0], [1.0], [3.0]]))
    return str(path)


@pytest.fixture
def random_csv(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "rand.csv"
    write_matrix_csv(str(path), rng.standard_normal((6, 2)))
    return str(path)


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_graph_command_matches_builder_example(three_points, tmp_path):
    out = tmp_path / "graph.json"
    assert main(["graph", "--input", three_points, "--k", "1", "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["n"] == 3
    assert payload["edges"] == [[0, 1, 1.0], [1, 2, 0.5]]
    assert "config" in payload
    graph = load_graph_json(str(out))
    assert graph.edge_count == 2


def test_graph_file_bytes_match_the_list_form(tmp_path):
    # the writer encodes the edges from the graph's arrays a slice at a time;
    # the bytes must be those of the [int, int, float] lists the file was
    # once built from
    rng = np.random.default_rng(2)
    data = tmp_path / "data.csv"
    write_matrix_csv(str(data), rng.standard_normal((30, 3)))
    out = tmp_path / "graph.json"
    assert main(["graph", "--input", str(data), "--k", "4", "--out", str(out)]) == 0
    values, _ = read_matrix_csv(str(data))
    graph = build_knn_graph(Dataset(values), 4)
    lists = [[int(i), int(j), float(w)] for i, j, w in edge_triples(graph)]
    expected = {"n": 30, "edges": lists, "config": read_json(out)["config"]}
    assert out.read_text(encoding="utf-8") == canonical_json(expected) + "\n"


def test_solve_alpha_zero_returns_input(random_csv, tmp_path):
    out = tmp_path / "sol.json"
    code = main(["solve", "--input", random_csv, "--task", "cc", "--alpha", "0",
                 "--beta", "0", "--k", "2", "--out", str(out)])
    assert code == 0
    payload = load_solution_json(str(out))
    values, _ = read_matrix_csv(random_csv)
    np.testing.assert_allclose(np.array(payload["X"]), values, atol=1e-12)
    assert payload["converged"] is True


def test_solve_deterministic_bytes(random_csv, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["solve", "--input", random_csv, "--task", "cc", "--alpha", "1",
            "--beta", "1", "--k", "2", "--seed", "7"]
    for extra in ([], ["--p", "1", "--parallel"]):
        assert main(args + extra + ["--out", str(out1)]) == 0
        assert main(args + extra + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = read_json(out1)
        assert 0 < payload["inner_iters"] < payload["iters"] * 200  # default inner cap


def test_solve_parallel_matches_serial(random_csv, tmp_path):
    serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
    base = ["solve", "--input", random_csv, "--task", "cc", "--alpha", "1",
            "--beta", "1", "--p", "1", "--k", "2", "--inner-tol", "1e-10"]
    assert main(base + ["--out", str(serial)]) == 0
    assert main(base + ["--parallel", "--out", str(parallel)]) == 0
    payloads = read_json(serial), read_json(parallel)
    for key in ("X", "dual_objective", "iters", "inner_iters"):
        assert payloads[0][key] == payloads[1][key], key


@pytest.mark.parametrize("task, flags", [
    ("cc", {"--p": "2", "--s": "1"}),
    ("ridge", {"--p": "1", "--s": "inf", "--gamma": "2"}),
])
def test_solve_file_matches_a_library_solve(tmp_path, task, flags):
    # the file holds the library's model, objectives and counts bit for bit
    # (JSON round-trips floats exactly), and no dual rows
    rng = np.random.default_rng(5)
    data = tmp_path / "data.csv"
    values = np.vstack([rng.standard_normal((6, 2)) + shift for shift in (0.0, 3.0)])
    write_matrix_csv(str(data), values, targets=values @ [1.0, -1.0])
    graph, out = tmp_path / "graph.json", tmp_path / "sol.json"
    common = ["--input", str(data), "--targets", "--k", "3"]
    assert main(["graph"] + common + ["--out", str(graph)]) == 0
    argv = ["solve", "--task", task, "--graph", str(graph), "--alpha", "1.5", "--beta", "0.5",
            "--seed", "4", "--out", str(out)] + common
    assert main(argv + [a for pair in flags.items() for a in pair]) == 0
    payload = read_json(out)
    assert "lambda" not in payload
    assert sorted(payload) == ["X", "config", "converged", "dual_objective", "inner_iters",
                               "iters", "primal_objective", "stop_reason"]

    values, targets = read_matrix_csv(str(data), with_targets=True)
    problem = make_problem(task, Dataset(values, targets), gamma=float(flags.get("--gamma", 5.0)))
    config = SolverConfig(beta=0.5, p=flags["--p"], s=flags["--s"])
    result = solve_dual(problem, EdgeIncidence(load_graph_json(str(graph)), 1.5), config)
    assert same_bits(np.array(payload["X"]), result.x_star)
    assert payload["dual_objective"] == result.dual_objective
    assert payload["primal_objective"] == result.primal_objective
    assert (payload["iters"], payload["inner_iters"]) == \
        (result.iterations, result.inner_iterations)
    assert (payload["converged"], payload["stop_reason"]) == (True, result.stop_reason)


def test_solve_seed_changes_no_result(tmp_path):
    # every solve takes the solver's one fixed start: --seed is echoed in
    # config and changes nothing else
    rng = np.random.default_rng(6)
    data = tmp_path / "data.csv"
    write_matrix_csv(str(data), np.vstack([rng.standard_normal((8, 3)) + shift
                                           for shift in (0.0, 4.0)]))
    payloads = []
    for seed in ("0", "9"):
        out = tmp_path / f"seed{seed}.json"
        assert main(["solve", "--input", str(data), "--k", "3", "--beta", "0.5",
                     "--seed", seed, "--out", str(out)]) == 0
        payloads.append(read_json(out))
    assert [p["config"]["seed"] for p in payloads] == [0, 9]
    for payload in payloads:
        del payload["config"]
    assert payloads[0] == payloads[1]


def test_solve_trace_output(random_csv, tmp_path):
    out = tmp_path / "sol.json"
    trace = tmp_path / "trace.csv"
    assert main(["solve", "--input", random_csv, "--alpha", "1", "--k", "2",
                 "--out", str(out), "--trace-out", str(trace)]) == 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "iter,primal_res,dual_res,h_step"
    assert len(lines) >= 2


def test_solve_ridge_with_targets(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "ridge.csv"
    write_matrix_csv(str(path), rng.standard_normal((5, 2)), targets=rng.standard_normal(5))
    out = tmp_path / "sol.json"
    code = main(["solve", "--input", str(path), "--task", "ridge", "--targets",
                 "--alpha", "0.5", "--k", "2", "--out", str(out)])
    assert code == 0
    payload = load_solution_json(str(out))
    assert np.array(payload["X"]).shape == (5, 2)


def test_path_command_alpha_zero(random_csv, tmp_path):
    out = tmp_path / "path.csv"
    code = main(["path", "--input", random_csv, "--alphas", "0", "--k", "2",
                 "--beta", "0", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("alpha,vertex,label")
    labels = [int(line.split(",")[2]) for line in lines[1:]]
    assert labels == list(range(6))  # n singletons
    summary = read_json(str(out) + ".summary.json")
    assert summary["cluster_counts"] == [6]
    assert "config" in summary


def test_path_cold_point_does_not_depend_on_the_points_before_it(tmp_path):
    # without warm starts each strength's solve stands alone: the alpha=2
    # rows of a 1,2 sweep are those of a sweep of 2 alone, bit for bit
    rng = np.random.default_rng(3)
    data = tmp_path / "data.csv"
    write_matrix_csv(str(data), np.vstack([rng.standard_normal((10, 3)) + centre
                                           for centre in (0.0, 5.0, -5.0)]))
    rows = {}
    for alphas in ("1,2", "2"):
        out = tmp_path / f"path{alphas}.csv"
        assert main(["path", "--input", str(data), "--k", "5", "--beta", "0.5",
                     "--alphas", alphas, "--no-warm-start", "--out", str(out)]) == 0
        rows[alphas] = [line for line in out.read_text().splitlines()[1:]
                        if line.startswith("2.0,")]
    assert len(rows["2"]) == 30 and rows["1,2"] == rows["2"]


def test_pinf_outputs_match_per_row_projection(tmp_path, monkeypatch):
    # --p inf holds each dual row in the l1 ball; the batched projection must
    # write the same bytes as the plain sort-based projection of each
    # over-budget row
    rng = np.random.default_rng(3)
    data = tmp_path / "blobs.csv"
    write_matrix_csv(str(data), np.vstack([rng.standard_normal((6, 3)) + shift
                                           for shift in (0.0, 4.0)]))
    common = ["--input", str(data), "--p", "inf", "--k", "3", "--beta", "0.5"]
    commands = {"path.csv": ["path", "--alphas", "0.5,2,8"] + common,
                "solve.json": ["solve", "--s", "inf", "--alpha", "2"] + common}
    over_rows = []

    def counted(lam, q):
        over_rows.append(int((np.abs(lam).sum(axis=1) > 1.0).sum()))
        return per_row_l1_projection(lam, q)

    for label, patch in (("batched", None), ("per-row", counted)):
        if patch is not None:
            monkeypatch.setattr("sco.admm.project_rows", patch)
        for name, argv in commands.items():
            assert main(argv + ["--out", str(tmp_path / f"{label}-{name}")]) == 0
    assert sum(over_rows) > 0
    for name in ("path.csv", "path.csv.summary.json", "solve.json"):
        assert (tmp_path / f"batched-{name}").read_bytes() == \
            (tmp_path / f"per-row-{name}").read_bytes(), name


def test_kernel_outputs_match_reference_kernels(tmp_path, monkeypatch):
    # the flat-scatter incidence maps, the bincount power iteration, the
    # leaner inner loop, the min/max box projection and the matrix ridge
    # curvature must write the same bytes as the reference kernels
    rng = np.random.default_rng(8)
    base = np.vstack([rng.standard_normal((8, 3)) + shift for shift in (0.0, 3.0)])
    data = tmp_path / "blobs.csv"
    targets = base @ [1.0, -2.0, 0.5]
    write_matrix_csv(str(data), np.column_stack([base, targets]))
    stream = tmp_path / "stream.jsonl"
    stream.write_text("".join(
        json.dumps({"values": (base + 0.3 * rng.standard_normal(base.shape)).tolist(),
                    "targets": targets.tolist()}) + "\n" for _ in range(2)))
    common = ["--input", str(data), "--targets", "--k", "3", "--beta", "0.5"]
    commands = {
        "solve.json": ["solve", "--task", "cc", "--p", "2", "--trace-out", "{out}.trace"],
        "monitor.jsonl": ["monitor", "--task", "ridge", "--p", "1", "--parallel",
                          "--stream", str(stream), "--c", "0"],
    }
    outputs = ("solve.json", "solve.json.trace", "monitor.jsonl", "monitor.jsonl.bounds.jsonl")
    for label in ("library", "reference"):
        if label == "reference":
            monkeypatch.setattr("sco.incidence.EdgeIncidence.apply_t", per_column_apply_t)
            monkeypatch.setattr("sco.incidence.EdgeIncidence.apply", fancy_index_apply)
            monkeypatch.setattr("sco.problems.RidgeProblem.conjugate_curvature",
                                stacked_ridge_curvature)
            monkeypatch.setattr("sco.admm.operator_norm_estimate", add_at_norm_estimate)
            monkeypatch.setattr("sco.admm.project_rows", clip_project_rows)
            monkeypatch.setattr("sco.admm.lambda_step", reference_lambda_step)
        for name, argv in commands.items():
            out = str(tmp_path / f"{label}-{name}")
            argv = [a.replace("{out}", out) for a in argv]
            assert main(argv + common + ["--out", out]) == 0
    decisions = (tmp_path / "library-monitor.jsonl").read_text().strip().splitlines()[1:]
    assert [json.loads(d)["action"] for d in decisions] == ["resolve"] * 2
    for name in outputs:
        assert (tmp_path / f"library-{name}").read_bytes() == \
            (tmp_path / f"reference-{name}").read_bytes(), name


def test_monitor_identical_stream(three_points, tmp_path):
    stream_dir = tmp_path / "stream"
    stream_dir.mkdir()
    values, _ = read_matrix_csv(three_points)
    for idx in range(3):
        write_matrix_csv(str(stream_dir / f"{idx:03d}.csv"), values)
    out = tmp_path / "decisions.jsonl"
    code = main(["monitor", "--input", three_points, "--stream", str(stream_dir),
                 "--k", "1", "--c", "10", "--out", str(out)])
    assert code == 0
    lines = [json.loads(line) for line in out.read_text().strip().splitlines()]
    assert "config" in lines[0]
    decisions = lines[1:]
    assert [d["action"] for d in decisions] == ["keep"] * 3
    assert all(d["solve_iters"] is None for d in decisions)
    assert all(d["converged"] is None for d in decisions)
    assert all(d["stop_reason"] is None for d in decisions)
    bounds = [json.loads(line) for line in
              (tmp_path / "decisions.jsonl.bounds.jsonl").read_text().strip().splitlines()]
    assert all(b["satisfied"] for b in bounds)


def test_monitor_synthetic_zero_threshold_resolves(random_csv, tmp_path):
    out, metrics = tmp_path / "decisions.jsonl", tmp_path / "metrics.jsonl"
    code = main(["monitor", "--input", random_csv, "--synthetic", "3", "--sigma", "0.1",
                 "--seed", "5", "--k", "2", "--c", "0", "--no-bounds", "--out", str(out),
                 "--metrics-out", str(metrics)])
    assert code == 0
    decisions = [json.loads(line) for line in out.read_text().strip().splitlines()][1:]
    assert [d["action"] for d in decisions] == ["resolve"] * 3
    assert all(isinstance(d["delta_metric"], float) for d in decisions)
    assert all(d["converged"] is True for d in decisions)
    assert all(d["stop_reason"] == "converged" for d in decisions)
    assert all(0 < d["solve_inner_iters"] < d["solve_iters"] * 200 for d in decisions)
    assert all("wall_ms" not in d for d in decisions)
    timings = [json.loads(line) for line in metrics.read_text().strip().splitlines()]
    assert [t["idx"] for t in timings] == [d["idx"] for d in decisions]
    assert all(t["wall_ms"] is not None for t in timings)


def test_monitor_repeat_runs_byte_identical(random_csv, tmp_path):
    # forced re-solves with bound reports; the metrics sidecar, asked for
    # on one run only, leaves the decision log untouched
    args = ["monitor", "--input", random_csv, "--synthetic", "3", "--sigma", "0.1",
            "--seed", "5", "--k", "2", "--c", "0"]
    assert main(args + ["--out", str(tmp_path / "a.jsonl"),
                        "--metrics-out", str(tmp_path / "metrics.jsonl")]) == 0
    assert main(args + ["--out", str(tmp_path / "b.jsonl")]) == 0
    decisions = (tmp_path / "a.jsonl").read_text().strip().splitlines()[1:]
    assert [json.loads(d)["action"] for d in decisions] == ["resolve"] * 3
    for name in ("{}.jsonl", "{}.jsonl.bounds.jsonl"):
        assert (tmp_path / name.format("a")).read_bytes() == \
            (tmp_path / name.format("b")).read_bytes(), name


def test_monitor_rebuild_graph_repeat_runs_byte_identical(random_csv, tmp_path, monkeypatch):
    # every forced re-solve builds a new kNN graph from its snapshot
    builds = []
    build = sco.evolution.build_knn_graph
    monkeypatch.setattr(sco.evolution, "build_knn_graph",
                        lambda *args: builds.append(args) or build(*args))
    args = ["monitor", "--input", random_csv, "--synthetic", "3", "--sigma", "0.1",
            "--seed", "5", "--k", "2", "--c", "0", "--rebuild-graph"]
    for name in ("a", "b"):
        assert main(args + ["--out", str(tmp_path / f"{name}.jsonl")]) == 0
    assert len(builds) == 6
    decisions = (tmp_path / "a.jsonl").read_text().strip().splitlines()[1:]
    assert [json.loads(d)["action"] for d in decisions] == ["resolve"] * 3
    for name in ("{}.jsonl", "{}.jsonl.bounds.jsonl"):
        assert (tmp_path / name.format("a")).read_bytes() == \
            (tmp_path / name.format("b")).read_bytes(), name


def test_bound_zero_delta_gives_half_threshold(random_csv, tmp_path):
    delta_path = tmp_path / "delta.csv"
    values, _ = read_matrix_csv(random_csv)
    write_matrix_csv(str(delta_path), np.zeros_like(values))
    out = tmp_path / "bound.json"
    code = main(["bound", "--input", random_csv, "--task", "cc", "--delta", str(delta_path),
                 "--alpha", "1", "--beta", "5", "--c", "10", "--k", "2", "--out", str(out)])
    assert code == 0
    payload = read_json(out)
    t3 = [r for r in payload["reports"] if r["name"] == "clustering-model-difference"][0]
    assert abs(t3["rhs"] - 5.0) <= 1e-9
    assert t3["satisfied"]
    assert payload["delta_metric"] == 0.0


def test_bound_ridge_synthetic(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "ridge.csv"
    write_matrix_csv(str(path), rng.standard_normal((5, 2)), targets=rng.standard_normal(5))
    out = tmp_path / "bound.json"
    code = main(["bound", "--input", str(path), "--task", "ridge", "--targets",
                 "--sigma", "0.05", "--seed", "3", "--alpha", "1", "--beta", "5",
                 "--k", "2", "--out", str(out)])
    assert code == 0
    payload = read_json(out)
    names = {r["name"] for r in payload["reports"]}
    assert names == {"regression-model-energy", "regression-dual-image"}
    assert all(r["satisfied"] for r in payload["reports"])


def test_missing_file_exits_2(tmp_path, capsys):
    code = main(["solve", "--input", str(tmp_path / "nope.csv"), "--out",
                 str(tmp_path / "out.json")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "ParameterError"


def test_bad_flag_exits_2(three_points, tmp_path, capsys):
    code = main(["solve", "--input", three_points, "--p", "3",
                 "--out", str(tmp_path / "out.json")])
    assert code == 2
    assert "error" in json.loads(capsys.readouterr().err.strip())


def test_bad_csv_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\nx,3.0\n")
    code = main(["graph", "--input", str(bad), "--k", "1",
                 "--out", str(tmp_path / "g.json")])
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["kind"] == "DataValidationError"


def test_nan_csv_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\nnan,3.0\n")
    code = main(["graph", "--input", str(bad), "--k", "1",
                 "--out", str(tmp_path / "g.json")])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("text, cells", [
    ("1_5,2\n3,4\n5,6\n", ["1_5", "2"]),               # float() reads 1_5 as 15
    ("\u0661\u0665,2\n3,4\n", ["\u0661\u0665", "2"]),   # Arabic-Indic 15
    ("1,\uff12\n3,4\n", ["1", "\uff12"]),               # fullwidth 2
])
def test_csv_rejects_cells_float_would_coerce(tmp_path, capsys, text, cells):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    message = f"{path}:1: non-numeric cell in {cells!r}"
    with pytest.raises(DataValidationError) as caught:
        read_matrix_csv(str(path))
    assert str(caught.value) == message
    code = main(["graph", "--input", str(path), "--k", "1", "--out", str(tmp_path / "g.json")])
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip()) == {
        "error": message, "kind": "DataValidationError"}


@pytest.mark.parametrize("text", [
    "1,2\n\n1,inf\n3,x\n",          # non-finite line before a non-numeric one
    "1,2\n3,x\n\n1,nan\n",          # non-numeric line before a non-finite one
    "1,2\n1,2,3\n\n1e999,0\n",      # ragged rows with a non-finite line after them
    "1,2\n1,2,3\n4,y\n1,-inf\n",    # ragged rows, then non-numeric, then non-finite
    "1,2,3\n\n1,2\n4,5\n",          # ragged rows only
    "nan\n1,2\n",                    # non-finite first line, ragged after it
    "\n\n  \n",                      # blank lines only
    "1,2\n\n3,4\n",                  # clean
    "1,2\n3_0,4\n1,nan\n",           # digit-group underscore before a non-finite line
    "1,2\n\u0663,4\n",               # non-ASCII digit
    # cells and lines that a C text reader and float() could read differently
    "1.5,2\r\n3,-4e-3\r\n",          # CRLF line endings
    "1,2\r3,4\r",                    # lone CR line endings
    " 1 ,\t2\t\n  3\t, 4 \n",        # spaces and tabs around cells
    "+.5,5.\n-0,0\n",                # signs, bare dots and a negative zero
    "1\n2\n3\n",                     # one column
    "1,2\n \t \n3,4\n",              # a whitespace-only line
    "1,,2\n3,4,5\n",                 # an empty cell
    "1,2,\n3,4,\n",                  # a trailing comma
    "\ufeff1,2\n3,4\n",              # a UTF-8 byte order mark
    "",                              # an empty file
    "4.9e-324,1e-400\n0.1000000000000000055511151231257827021181583404541015625,2\n",
    "1\x1c,2\n3,4\n",                # a separator float() refuses in a cell
    "1,2\x1c\n3,4\n",                # the same at a line end, where strip() drops it
    # bytes outside the C parse's set, which the line reader judges alone
    *(f"1{c},2\n3,4\n" for c in "\x0b\x0c\x1d\x1e\x1f"),  # in a cell: float() strips them
    *(f"1,2{c}\n3,4\n" for c in "\x0b\x0c\x1d\x1e\x1f"),  # at a line end: strip() drops them
    "1,2\n3,inf\n",                  # non-finite words inside a line
    "1,2\nnan,3\n4,5\n",
    "1,2\n3,-Infinity\n",
    "1,2\n1e999,3\n",                # a cell that overflows to inf in either parse
    "1,2\n3,e\n",                    # a lone exponent mark
    "1,2\n-,3\n",                    # a lone sign
])
def test_csv_faults_report_the_first_faulty_line(tmp_path, capsys, text):
    # one finiteness check per file reports the fault, message and line
    # (blank lines counted) that checking each line as it is read does
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    try:
        expected = per_line_read_matrix_csv(str(path))
    except DataValidationError as exc:
        expected = exc
    if isinstance(expected, DataValidationError):
        with pytest.raises(DataValidationError) as caught:
            read_matrix_csv(str(path))
        assert str(caught.value) == str(expected)
        code = main(["graph", "--input", str(path), "--k", "1",
                     "--out", str(tmp_path / "g.json")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": str(expected), "kind": "DataValidationError"}
    else:
        values, _ = read_matrix_csv(str(path))
        assert same_bits(values, expected)


def random_plain_csv(rng, rows: int, cols: int) -> str:
    """A valid CSV of random floats in the C parse's byte set: cells in
    repr, %.17g or %e form with optional signs and spaces or tabs around
    them, blank lines between rows, and LF, CRLF or lone CR line ends."""
    magnitudes = 10.0 ** rng.integers(-320, 300, size=(rows, cols))
    values = rng.standard_normal((rows, cols)) * magnitudes
    values[rng.random((rows, cols)) < 0.1] = -0.0
    values[rng.random((rows, cols)) < 0.1] = rng.integers(-9, 10)
    end = str(rng.choice(["\n", "\r\n", "\r"]))
    lines = []
    for row in values.tolist():
        cells = []
        for x in row:
            cell = str(rng.choice(["{!r}", "{:.17g}", "{:e}"])).format(x)
            if rng.random() < 0.2 and not cell.startswith("-"):
                cell = "+" + cell
            pad = ["", " ", "\t", " \t "]
            cells.append(pad[rng.integers(4)] + cell + pad[rng.integers(4)])
        lines.append(",".join(cells))
        if rng.random() < 0.05:
            lines.append("")
    return end.join(lines) + (end if rng.random() < 0.8 else "")


def check_plain_csv(path, monkeypatch):
    """read_matrix_csv on a valid file, with and without targets: the C
    parse alone (the line reader is made to raise) gives the oracle's
    matrix bit for bit."""
    expected = per_line_read_matrix_csv(str(path))

    def no_line_reader(path):
        raise AssertionError(f"{path} reached the line reader")

    monkeypatch.setattr(sco.io, "_read_lines", no_line_reader)
    values, targets = read_matrix_csv(str(path))
    assert targets is None and same_bits(values, expected)
    if expected.shape[1] > 1:
        values, targets = read_matrix_csv(str(path), with_targets=True)
        assert same_bits(values, expected[:, :-1]) and same_bits(targets, expected[:, -1])


@pytest.mark.parametrize("text", [
    "1.5,2\r\n3,-4e-3\r\n", "1,2\r3,4\r", " 1 ,\t2\t\n  3\t, 4 \n", "+.5,5.\n-0,0\n",
    "1\n2\n3\n", "1,2\n\n3,4", "7", "4.9e-324,1e-400\n2.5E+3,1e308\n",
])
def test_valid_csv_never_reaches_the_line_reader(tmp_path, monkeypatch, text):
    # the C parse must take every valid file, so that it cannot go dead unnoticed
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    check_plain_csv(path, monkeypatch)
    # the benchmark's form: repr cells, the target last
    write_matrix_csv(str(path), np.random.default_rng(3).standard_normal((40, 4)),
                     np.arange(40.0))
    check_plain_csv(path, monkeypatch)


@pytest.mark.parametrize("seeds, rows, cols", [
    (range(20), 12, 4),
    pytest.param(range(20, 420), 150, 12, marks=pytest.mark.slow),
])
def test_c_parse_matches_the_line_reader_on_random_files(tmp_path, monkeypatch, seeds, rows,
                                                         cols):
    path = tmp_path / "data.csv"
    for seed in seeds:
        rng = np.random.default_rng(seed)
        text = random_plain_csv(rng, int(rng.integers(1, rows + 1)), int(rng.integers(1, cols + 1)))
        path.write_text(text, encoding="ascii", newline="")
        check_plain_csv(path, monkeypatch)


def test_csv_targets_need_a_feature_beside_them(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1\n2\n3\n")
    assert read_matrix_csv(str(path))[0].shape == (3, 1)
    with pytest.raises(DataValidationError) as caught:
        read_matrix_csv(str(path), with_targets=True)
    assert str(caught.value) == f"{path}: need at least one feature beside the target"


def test_csv_byte_that_is_not_utf8_names_its_line(tmp_path, capsys):
    # a strict decoder would raise UnicodeDecodeError, which no handler maps to exit 2
    path = tmp_path / "data.csv"
    path.write_bytes(b"1,2\n3,\xe94\n")
    cells = ["3", "\ufffd4"]  # the byte reads as U+FFFD
    message = f"{path}:2: non-numeric cell in {cells!r}"
    with pytest.raises(DataValidationError) as caught:
        read_matrix_csv(str(path))
    assert str(caught.value) == message
    assert main(["graph", "--input", str(path), "--k", "1", "--out", str(tmp_path / "g.json")]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": message, "kind": "DataValidationError"}


# The modules that only solving commands need; `sco graph` loads none of them.
SOLVER_MODULES = {"sco.admm", "sco.bounds", "sco.clusterpath", "sco.evolution",
                  "sco.incidence", "sco.norms", "sco.problems", "sco.prox"}


def fresh_python(*argv) -> str:
    """Run ``python *argv`` in a fresh interpreter that finds this package;
    return its standard output."""
    src = os.path.dirname(os.path.dirname(sco.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return proc.stdout


def test_start_up_imports_no_costly_modules(tmp_path):
    # gzip comes with a path handed to np.loadtxt, numpy.ma with np.unique
    # (16-19 ms), scipy with anything from it, and the solver modules cost
    # about 15 ms to compile and load; each would add set-up time
    path = tmp_path / "data.csv"
    write_matrix_csv(str(path), np.random.default_rng(1).standard_normal((20, 3)))
    costly = sorted({"gzip", "numpy.ma", "scipy"} | SOLVER_MODULES)
    code = ("import sys\nimport sco.cli\nfrom sco.io import read_matrix_csv\n"
            "read_matrix_csv(sys.argv[1])\n"
            f"print(*sorted(set({costly!r}) & set(sys.modules)))\n")
    assert fresh_python("-c", code, str(path)).split() == []


@pytest.mark.parametrize("command, loaded", [("graph", []), ("solve", sorted(SOLVER_MODULES))])
def test_only_solving_commands_load_the_solver(tmp_path, command, loaded):
    path = tmp_path / "data.csv"
    write_matrix_csv(str(path), np.random.default_rng(1).standard_normal((20, 3)))
    code = ("import sys\nfrom sco.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            f"print(*sorted(set({sorted(SOLVER_MODULES)!r}) & set(sys.modules)))\n")
    argv = [command, "--input", str(path), "--k", "2", "--out", str(tmp_path / "out.json")]
    assert fresh_python("-c", code, *argv).split() == loaded


def test_tracer_wraps_the_solver_names_before_any_command(tmp_path):
    # the benchmark's tracer reads each of its sco.cli targets before a
    # command has loaded the solver, then replaces it with setattr; the
    # first command must call the replacement
    path = tmp_path / "data.csv"
    write_matrix_csv(str(path), np.random.default_rng(1).standard_normal((20, 3)))
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench")
    code = """
import sys
sys.path.insert(0, sys.argv[1])
import sco.cli
from tracing import SPAN_TARGETS
for module, name, _ in SPAN_TARGETS:
    if module == "sco.cli":
        getattr(sco.cli, name)
calls = []
original = sco.cli.solve_dual

def spy(*args, **kwargs):
    calls.append(args)
    return original(*args, **kwargs)

sco.cli.solve_dual = spy
assert sco.cli.main(sys.argv[2:]) == 0
print(len(calls))
"""
    argv = ["solve", "--input", str(path), "--k", "2", "--out", str(tmp_path / "s.json")]
    assert fresh_python("-c", code, perfbench, *argv).strip() == "1"


def test_module_entry_point_writes_the_bytes_of_main(random_csv, tmp_path):
    by_main, by_module = tmp_path / "main.json", tmp_path / "module.json"
    argv = ["graph", "--input", random_csv, "--k", "2", "--out"]
    assert main(argv + [str(by_main)]) == 0
    fresh_python("-m", "sco.cli", *argv, str(by_module))  # check=True: exit 0
    assert by_module.read_bytes() == by_main.read_bytes()


@pytest.mark.parametrize("command, out", [("graph", "missing/dir/out.json"), ("solve", "a_dir")])
def test_unwritable_output_exits_2(random_csv, tmp_path, capsys, command, out):
    # a directory that does not exist fails at the temp file, a directory
    # in place of the file at the rename
    (tmp_path / "a_dir").mkdir()
    out = str(tmp_path / out)
    assert main([command, "--input", random_csv, "--k", "2", "--out", out]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["kind"] == "ParameterError"
    assert error["error"].startswith(f"cannot write {out}: ")
    assert list(tmp_path.rglob(".sco-*.tmp")) == []


PARSER_ARGV = {
    "graph": ["graph", "--input", "d.csv", "--k", "4", "--weight-cap", "10", "--out", "g.json"],
    "solve": ["solve", "--input", "d.csv", "--task", "ridge", "--p", "inf", "--alpha", "0.5",
              "--out", "s.json", "--trace-out", "t.csv"],
    "path": ["path", "--input", "d.csv", "--alphas", "0,1", "--no-warm-start", "--out", "p.csv"],
    "monitor": ["monitor", "--input", "d.csv", "--synthetic", "3", "--rebuild-graph",
                "--p", "1", "--parallel", "--out", "m.jsonl"],
    "bound": ["bound", "--input", "d.csv", "--targets", "--sigma", "0.2", "--c", "3",
              "--out", "b.json"],
}


@pytest.mark.parametrize("command", list(PARSER_ARGV))
def test_subcommand_parser_matches_the_full_parser(command, capsys):
    one, full = build_parser(command), build_parser()
    argv = PARSER_ARGV[command]
    assert one.parse_args(argv) == full.parse_args(argv)
    helps = []
    for parser in (one, full):
        with pytest.raises(SystemExit) as exited:
            parser.parse_args([command, "--help"])
        assert exited.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and helps[0].startswith(f"usage: sco {command} ")
    for bad in (argv + ["--bogus"], argv + ["--p", "3"]):
        messages = []
        for parser in (one, full):
            with pytest.raises(ParameterError) as caught:
                parser.parse_args(bad)
            messages.append(str(caught.value))
        assert messages[0] == messages[1], bad


def test_main_builds_the_invoked_subcommand_only(monkeypatch, capsys, three_points, tmp_path):
    import sco.cli as cli
    built = []
    full = cli.build_parser

    def recorded(command=None):
        built.append(command)
        return full(command)

    monkeypatch.setattr(cli, "build_parser", recorded)
    assert main(["graph", "--input", three_points, "--k", "1",
                 "--out", str(tmp_path / "g.json")]) == 0
    assert built == ["graph"]
    capsys.readouterr()
    # no subcommand, an unknown one and the top-level help get the full
    # parser, with its exit codes and messages
    assert main([]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "the following arguments are required: command", "kind": "ParameterError"}
    assert main(["bogus"]) == 2
    err = json.loads(capsys.readouterr().err)
    with pytest.raises(ParameterError) as caught:
        full().parse_args(["bogus"])
    assert err == {"error": str(caught.value), "kind": "ParameterError"}
    assert all(f"'{name}'" in err["error"] for name in PARSER_ARGV)
    with pytest.raises(SystemExit) as exited:
        main(["--help"])
    assert exited.value.code == 0
    assert capsys.readouterr().out == full().format_help()
    assert built == ["graph", None, None, None]


def test_graph_roundtrip_via_solve(three_points, tmp_path):
    gpath = tmp_path / "graph.json"
    assert main(["graph", "--input", three_points, "--k", "1", "--out", str(gpath)]) == 0
    out = tmp_path / "sol.json"
    code = main(["solve", "--input", three_points, "--graph", str(gpath),
                 "--alpha", "1", "--beta", "0", "--out", str(out)])
    assert code == 0
    load_solution_json(str(out))


@pytest.mark.parametrize("n, edge", [
    (3, [0, 1.7, 1.0]),     # fractional endpoint, once truncated to 1
    (3, [0.9, 2, 1.0]),     # once truncated to 0
    (3, [0, True, 1.0]),    # a bool is not an endpoint
    (3, [0, "1", 1.0]),     # nor a numeric string
    (3, [0, 1, "1.0"]),     # a weight must be a JSON number
    (3, [0, 1, False]),
    (3, [0, 1]),
    (2.5, [0, 1, 1.0]),     # once truncated to 2
    (True, [0, 1, 1.0]),
])
def test_graph_json_with_non_integer_fields_exits_2(three_points, tmp_path, capsys, n, edge):
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps({"n": n, "edges": [edge, [1, 2, 0.5]]}))
    code = main(["solve", "--input", three_points, "--graph", str(gpath),
                 "--alpha", "1", "--beta", "0", "--out", str(tmp_path / "sol.json")])
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["kind"] == "DataValidationError"


@pytest.mark.parametrize("edge, fault", [
    ([0, 2 ** 70, 1.0], "endpoints (0, 1180591620717411303424) violate 0 <= i < j < 3"),
    ([-2 ** 64, 1, 1.0], "endpoints (-18446744073709551616, 1) violate 0 <= i < j < 3"),
    ([0, 1, 10 ** 400], "weight is an integer beyond the float range"),
])
def test_graph_json_numbers_beyond_the_machine_range_exit_2(three_points, tmp_path, capsys,
                                                            edge, fault):
    # an index array holds no endpoint past intp, and float() of a JSON
    # integer past the float range raised OverflowError
    for edges, idx in (([edge, [1, 2, 0.5]], 0), ([[0, 1, 1.0], [1, 2, 0.5], edge], 2)):
        gpath = tmp_path / "graph.json"
        gpath.write_text(json.dumps({"n": 3, "edges": edges}))
        code = main(["solve", "--input", three_points, "--graph", str(gpath),
                     "--alpha", "1", "--beta", "0", "--out", str(tmp_path / "sol.json")])
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": f"malformed graph payload: edge {idx}: {fault}",
            "kind": "DataValidationError"}


def test_graph_json_integer_past_the_digit_limit_exits_2(three_points, tmp_path, capsys):
    gpath = tmp_path / "graph.json"
    gpath.write_text('{"n": 3, "edges": [[0, 1, 1' + "0" * 5000 + ']]}')
    code = main(["solve", "--input", three_points, "--graph", str(gpath),
                 "--alpha", "1", "--beta", "0", "--out", str(tmp_path / "sol.json")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "ParameterError" and "cannot read graph" in err["error"]


def test_graph_json_faults_are_listed_in_edge_order(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_matrix_csv(str(data), np.arange(10.0).reshape(5, 2))
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps({"n": 5, "edges": [[0, 1, 1.0], [3, 2, 1.0], [0, 1, 2.0],
                                                   [1, 4, -1.0]]}))
    code = main(["solve", "--input", str(data), "--graph", str(gpath),
                 "--alpha", "1", "--beta", "0", "--out", str(tmp_path / "sol.json")])
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip()) == {
        "error": "invalid graph: edge 1: endpoints (3, 2) violate 0 <= i < j < 5; "
                 "edge 2: duplicate pair (0, 1); "
                 "edge 3: weight -1.0 is not a positive finite real",
        "kind": "ParameterError"}


def test_graph_json_integer_weight_loads_as_float(tmp_path):
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps({"n": 3, "edges": [[0, 1, 1], [1, 2, 0.5]]}))
    graph = load_graph_json(str(gpath))
    assert edge_triples(graph) == [(0, 1, 1.0), (1, 2, 0.5)]
    assert (graph.head.dtype, graph.tail.dtype, graph.weight.dtype) == (np.intp, np.intp,
                                                                        np.float64)


def test_parallel_with_wrong_p_exits_2(random_csv, tmp_path, capsys):
    code = main(["solve", "--input", random_csv, "--p", "2", "--parallel",
                 "--k", "2", "--out", str(tmp_path / "x.json")])
    assert code == 2
    capsys.readouterr()


def test_numeric_failure_maps_to_exit_3(monkeypatch, capsys):
    from sco.errors import NumericFailure
    import sco.cli as cli

    def boom(args):
        raise NumericFailure("iterates diverged")

    monkeypatch.setitem(cli._COMMANDS, "solve", boom)
    code = main(["solve", "--input", "whatever", "--out", "x.json"])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "NumericFailure"


def test_monitor_jsonl_stream(random_csv, tmp_path):
    values, _ = read_matrix_csv(random_csv)
    rng = np.random.default_rng(4)
    stream = tmp_path / "stream.jsonl"
    lines = []
    for _ in range(2):
        snap = values + 0.02 * rng.standard_normal(values.shape)
        lines.append(json.dumps({"values": snap.tolist()}))
    stream.write_text("\n".join(lines) + "\n")
    out = tmp_path / "dec.jsonl"
    code = main(["monitor", "--input", random_csv, "--stream", str(stream),
                 "--k", "2", "--c", "0", "--no-bounds", "--out", str(out)])
    assert code == 0
    decisions = [json.loads(line) for line in out.read_text().strip().splitlines()][1:]
    assert len(decisions) == 2 and all(d["action"] == "resolve" for d in decisions)


def test_monitor_keep_decisions_verify_bounds(random_csv, tmp_path):
    # changed snapshots below the threshold: the kept model is verified
    # against a shadow solve on the snapshot data
    out = tmp_path / "dec.jsonl"
    code = main(["monitor", "--input", random_csv, "--synthetic", "2", "--sigma", "0.01",
                 "--seed", "9", "--k", "2", "--c", "1e9", "--out", str(out)])
    assert code == 0
    decisions = [json.loads(line) for line in out.read_text().strip().splitlines()][1:]
    assert all(d["action"] == "keep" for d in decisions)
    bounds = [json.loads(line) for line in
              (tmp_path / "dec.jsonl.bounds.jsonl").read_text().strip().splitlines()]
    assert len(bounds) == 4  # two reports per decision
    assert all(b["satisfied"] for b in bounds)


def test_monitor_keep_on_changed_targets_exits_2_with_bounds(tmp_path, capsys):
    # same values, targets moved by 5 and a threshold far above the score:
    # the regression bounds are stated for fixed targets, so with bounds on
    # the monitor exits 2 before writing any file; with --no-bounds the
    # snapshot is scored and kept
    rng = np.random.default_rng(12)
    values, targets = rng.standard_normal((12, 2)), rng.standard_normal(12)
    data = tmp_path / "ridge.csv"
    write_matrix_csv(str(data), values, targets=targets)
    stream = tmp_path / "stream.jsonl"
    stream.write_text(json.dumps({"values": values.tolist(),
                                  "targets": (targets + 5.0).tolist()}) + "\n")
    out = tmp_path / "dec.jsonl"
    argv = ["monitor", "--input", str(data), "--targets", "--task", "ridge",
            "--stream", str(stream), "--k", "3", "--c", "1e12", "--out", str(out)]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "ParameterError" and "targets" in err["error"]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["ridge.csv", "stream.jsonl"]

    assert main(argv + ["--no-bounds"]) == 0
    decisions = [json.loads(line) for line in out.read_text().strip().splitlines()][1:]
    assert [d["action"] for d in decisions] == ["keep"] and decisions[0]["delta_metric"] > 0
    assert not (tmp_path / "dec.jsonl.bounds.jsonl").exists()


def test_ridge_monitor_builds_each_snapshot_task_once(tmp_path, monkeypatch):
    # one RidgeProblem for the input and one per changed snapshot: the
    # score, the re-solve, the shadow solve and the bound checks all take
    # the snapshot's task (resolve, repeat, kept change: 3, not 17)
    rng = np.random.default_rng(15)
    values, targets = rng.standard_normal((20, 2)), rng.standard_normal(20)
    moved = values + 2.0 * rng.standard_normal(values.shape)
    kept = moved + 0.02 * rng.standard_normal(values.shape)
    data, stream = tmp_path / "ridge.csv", tmp_path / "stream.jsonl"
    write_matrix_csv(str(data), values, targets=targets)
    stream.write_text("".join(json.dumps({"values": v.tolist(), "targets": targets.tolist()})
                              + "\n" for v in (moved, moved, kept)))
    init = RidgeProblem.__init__
    built = []

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RidgeProblem, "__init__", counting_init)
    out = tmp_path / "dec.jsonl"
    assert main(["monitor", "--input", str(data), "--targets", "--task", "ridge",
                 "--stream", str(stream), "--k", "3", "--beta", "0.5", "--c", "1",
                 "--out", str(out)]) == 0
    decisions = [json.loads(line) for line in out.read_text().strip().splitlines()][1:]
    assert [d["action"] for d in decisions] == ["resolve", "keep", "keep"]
    assert decisions[1]["delta_metric"] == 0.0 < decisions[2]["delta_metric"]
    bounds = (tmp_path / "dec.jsonl.bounds.jsonl").read_text().strip().splitlines()
    assert len(bounds) == 6
    assert len(built) == 1 + 2


def test_thread_env_var_caps_workers(random_csv, tmp_path, monkeypatch):
    # the parallel dual step is one vectorised update with no worker count,
    # so the former SCO_THREADS cap is read nowhere: any value, even one
    # that is not a number, leaves a --parallel solve byte-identical
    args = ["solve", "--input", random_csv, "--p", "1", "--parallel",
            "--k", "2", "--alpha", "1"]
    monkeypatch.delenv("SCO_THREADS", raising=False)
    unset = tmp_path / "unset.json"
    assert main(args + ["--out", str(unset)]) == 0
    for value in ("1", "4", "not-a-number"):
        monkeypatch.setenv("SCO_THREADS", value)
        out = tmp_path / f"threads-{value}.json"
        assert main(args + ["--out", str(out)]) == 0
        assert out.read_bytes() == unset.read_bytes()


@pytest.mark.parametrize("bad_line", [
    [[0.0, 0.0], [1.0, 1.0]],                       # not an object
    {"targets": [0.0] * 6},                         # no values
    {"values": "abc"},
    {"values": [[0.0, 0.0], [1.0]]},                # ragged
    {"values": [[0.0, 0.0]], "targets": "abc"},     # non-numeric targets
    {"values": [[True, False], [1, 2]]},            # bools
    {"values": [[0.0, 0.0], [1, 2]], "targets": [True, "1"]},  # bool and string targets
    {"values": json.loads("[" * 900 + "0.0" + "]" * 900)},  # nested past numpy's 64 dims
])
def test_monitor_jsonl_bad_snapshot_exits_2(random_csv, tmp_path, capsys, bad_line):
    values, _ = read_matrix_csv(random_csv)
    stream = tmp_path / "stream.jsonl"
    stream.write_text(json.dumps({"values": values.tolist()}) + "\n"
                      + json.dumps(bad_line) + "\n")
    code = main(["monitor", "--input", random_csv, "--stream", str(stream), "--k", "2",
                 "--no-bounds", "--out", str(tmp_path / "dec.jsonl")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "DataValidationError"
    assert f"{stream}:2:" in err["error"]



@pytest.mark.parametrize("bad_line", [
    '{"values": [[0.0, 0.0], [1.0, NaN]]}',
    '{"values": [[0.0, 0.0], [1.0, -Infinity]]}',
    '{"values": [[0.0, 0.0], [1.0, 1e999]]}',
    '{"values": [[0.0, 0.0], [1.0, 1%s]]}' % ("0" * 400),
    '{"values": [[0.0, 0.0], [1.0, 2.0]], "targets": [0.0, Infinity]}',
], ids=["nan", "-infinity", "float-overflow", "int-overflow", "infinite-target"])
def test_monitor_jsonl_non_finite_snapshot_names_its_line(random_csv, tmp_path, capsys,
                                                          bad_line):
    # json reads these; the stream reader rejects them as read_matrix_csv does
    values, _ = read_matrix_csv(random_csv)
    stream = tmp_path / "stream.jsonl"
    stream.write_text(json.dumps({"values": values.tolist()}) + "\n" + bad_line + "\n")
    code = main(["monitor", "--input", random_csv, "--stream", str(stream), "--k", "2",
                 "--no-bounds", "--out", str(tmp_path / "dec.jsonl")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": f"{stream}:2: non-finite value", "kind": "DataValidationError"}


def test_monitor_jsonl_integer_past_the_digit_limit_names_its_line(random_csv, tmp_path,
                                                                   capsys):
    # json raises a bare ValueError, not JSONDecodeError, for an integer of
    # over 4300 digits
    values, _ = read_matrix_csv(random_csv)
    stream = tmp_path / "stream.jsonl"
    stream.write_text(json.dumps({"values": values.tolist()}) + "\n"
                      + '{"values": [[1' + "0" * 5000 + ', 1.0]]}\n')
    code = main(["monitor", "--input", random_csv, "--stream", str(stream), "--k", "2",
                 "--no-bounds", "--out", str(tmp_path / "dec.jsonl")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "DataValidationError"
    assert err["error"].startswith(f"{stream}:2: bad JSON: ")


@pytest.mark.parametrize("with_targets", [True, False])
def test_monitor_cc_keeps_a_repeated_snapshot_that_carries_targets(tmp_path, with_targets):
    # cc reads no targets: a snapshot equal to the accepted data is a keep
    # with score 0, whether the targets come in through --targets, before
    # and after a re-solve, or ride along unread in the JSONL stream
    rng = np.random.default_rng(13)
    values, targets = rng.standard_normal((10, 2)), rng.standard_normal(10)
    data = tmp_path / "cc.csv"
    write_matrix_csv(str(data), values, targets=targets if with_targets else None)
    moved = values + 0.1 if with_targets else values
    stream = tmp_path / "stream.jsonl"
    stream.write_text(3 * (json.dumps({"values": moved.tolist(),
                                       "targets": targets.tolist()}) + "\n"))
    out = tmp_path / "dec.jsonl"
    argv = ["monitor", "--input", str(data), "--task", "cc", "--stream", str(stream),
            "--k", "3", "--c", "0", "--out", str(out)]
    assert main(argv + (["--targets"] if with_targets else [])) == 0
    decisions = [json.loads(line) for line in out.read_text().strip().splitlines()][1:]
    assert decisions[0]["action"] == ("resolve" if with_targets else "keep")
    assert [(d["action"], d["delta_metric"]) for d in decisions[1:]] == [("keep", 0.0)] * 2


def test_monitor_decisions_do_not_depend_on_the_bound_reports(tmp_path):
    # a small change kept, a large one re-solved, a small one scored: the
    # keep's shadow solve for its bound reports leaves the later re-solve,
    # and so the last score, as they are with --no-bounds
    rng = np.random.default_rng(3)
    values = np.vstack([rng.standard_normal((20, 3)) + centre for centre in (0.0, 5.0, -5.0)])
    data, stream = tmp_path / "data.csv", tmp_path / "stream.jsonl"
    write_matrix_csv(str(data), values)
    snapshots = []
    for sigma in (0.01, 1.0, 0.01):
        values = values + sigma * rng.standard_normal(values.shape)
        snapshots.append(json.dumps({"values": values.tolist()}) + "\n")
    stream.write_text("".join(snapshots))
    logs = []
    for extra in ([], ["--no-bounds"]):
        out = tmp_path / f"dec{len(extra)}.jsonl"
        assert main(["monitor", "--input", str(data), "--stream", str(stream), "--k", "5",
                     "--beta", "0.5", "--c", "1", "--out", str(out)] + extra) == 0
        logs.append([json.loads(line) for line in out.read_text().splitlines()])
    assert [d["action"] for d in logs[0][1:]] == ["keep", "resolve", "keep"]
    assert [log[0]["config"].pop("no_bounds") for log in logs] == [False, True]
    assert logs[0] == logs[1]


def test_monitor_cc_ignores_a_snapshot_that_moves_only_the_targets(tmp_path, monkeypatch):
    # cc reads no targets: the snapshot is unchanged, scores 0 and costs no
    # solve beyond the initial one, neither a re-solve at --c 0 nor a
    # shadow solve for its bound reports at --c 10
    rng = np.random.default_rng(16)
    values, targets = rng.standard_normal((12, 2)), rng.standard_normal(12)
    data, stream = tmp_path / "cc.csv", tmp_path / "stream.jsonl"
    write_matrix_csv(str(data), values, targets=targets)
    stream.write_text(json.dumps({"values": values.tolist(),
                                  "targets": (targets + 1.0).tolist()}) + "\n")
    solves = []

    def counting_solve(*args, **kwargs):
        solves.append(args[0])
        return solve_dual(*args, **kwargs)

    monkeypatch.setattr("sco.evolution.solve_dual", counting_solve)
    monkeypatch.setattr("sco.cli.solve_dual", counting_solve)
    for c in ("0", "10"):
        solves.clear()
        out = tmp_path / f"dec{c}.jsonl"
        assert main(["monitor", "--input", str(data), "--targets", "--task", "cc",
                     "--stream", str(stream), "--k", "3", "--c", c, "--out", str(out)]) == 0
        decisions = [json.loads(line) for line in out.read_text().splitlines()][1:]
        assert [(d["action"], d["delta_metric"]) for d in decisions] == [("keep", 0.0)]
        assert len(solves) == 1
        bounds = (tmp_path / f"dec{c}.jsonl.bounds.jsonl").read_text().splitlines()
        assert len(bounds) == 2 and all(json.loads(b)["satisfied"] for b in bounds)


@pytest.mark.parametrize("task", ["cc", "ridge"])
def test_bound_equals_a_monitor_keep_on_the_moved_snapshot(tmp_path, task):
    # sco bound is the monitor's keep path on one snapshot A + D: both
    # commands write the same reports, bit for bit
    rng = np.random.default_rng(14)
    values, targets = rng.standard_normal((12, 2)), rng.standard_normal(12)
    delta = 0.05 * rng.standard_normal(values.shape)
    data, delta_path = tmp_path / "data.csv", tmp_path / "delta.csv"
    write_matrix_csv(str(data), values, targets=targets if task == "ridge" else None)
    write_matrix_csv(str(delta_path), delta)
    stream = tmp_path / "stream.jsonl"
    stream.write_text(json.dumps({"values": (values + delta).tolist(),
                                  "targets": targets.tolist()}) + "\n")
    common = ["--input", str(data), "--task", task, "--k", "3", "--beta", "0.5",
              "--c", "1e12", "--seed", "4"] + (["--targets"] if task == "ridge" else [])
    bound_out, monitor_out = tmp_path / "bound.json", tmp_path / "dec.jsonl"
    assert main(["bound", "--delta", str(delta_path), "--out", str(bound_out)] + common) == 0
    assert main(["monitor", "--stream", str(stream), "--out", str(monitor_out)] + common) == 0
    bound = read_json(bound_out)
    decision = json.loads(monitor_out.read_text().splitlines()[1])
    assert decision["action"] == "keep"
    assert bound["delta_metric"] == decision["delta_metric"] > 0
    monitored = [json.loads(line) for line in
                 (tmp_path / "dec.jsonl.bounds.jsonl").read_text().splitlines()]
    for report in monitored:
        assert report.pop("idx") == 0
    assert len(monitored) == 2 and bound["reports"] == monitored


@pytest.mark.parametrize("argv", [["monitor", "--synthetic", "1"], ["bound"]])
def test_ridge_without_targets_exits_2(random_csv, tmp_path, capsys, argv):
    code = main(argv + ["--input", random_csv, "--task", "ridge", "--k", "2",
                        "--out", str(tmp_path / "out")])
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["kind"] == "DataValidationError"


@pytest.mark.parametrize("argv", [
    ["monitor", "--synthetic", "1", "--c", "nan"],
    ["monitor", "--synthetic", "1", "--c", "inf"],
    ["bound", "--c", "nan"],
    ["bound", "--c", "inf"],
    ["solve", "--task", "cc", "--gamma", "inf"],
    ["solve", "--weight-cap", "inf", "--graph", "GRAPH"],
    ["graph", "--weight-cap=-inf", "--graph", "GRAPH"],
    ["path", "--alphas", "1,nan"],
    ["path", "--alphas", "1,inf"],
    ["path", "--alphas", "0.5,1e400"],
    ["path", "--alphas", "nan,1"],
])
def test_non_finite_float_flag_exits_2_before_any_solve(three_points, tmp_path, capsys,
                                                        monkeypatch, argv):
    graph = tmp_path / "graph.json"
    assert main(["graph", "--input", three_points, "--k", "1", "--out", str(graph)]) == 0
    argv = [str(graph) if arg == "GRAPH" else arg for arg in argv]

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before rejecting the flag")

    for module in (sco.cli, sco.clusterpath, sco.evolution):
        monkeypatch.setattr(module, "solve_dual", no_solve)
    code = main(argv + ["--input", three_points, "--k", "1", "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "ParameterError" and "must be finite" in err["error"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("task, translate", [("cc", False), ("cc", True), ("ridge", False)])
def test_monitor_scores_and_bound_sides_are_equivariant(tmp_path, task, translate):
    # sco monitor on an instance and on its image under a row permutation and
    # a signed feature permutation (and a translation for cc): the same
    # actions, scores and bound sides. The cc bounds read the data through
    # <A, D>, <A, X~ - X> and ||A + D||^2, so a translation moves every cc
    # bound side but the dual-image norm (by up to 58% over seeds 0-19); only
    # the scores and that norm are checked then. Over seeds 0-19 of this
    # construction the largest relative differences were 5.0e-9 for a score,
    # and 2.3e-10 for a bound side (of the larger side of its report) or
    # 7.5e-10 for a translated dual-image norm, so the bounds 1e-7 and 1e-8
    # leave margins of 20x and 13x
    n, d = 40, 3
    rng = np.random.default_rng(0)
    values = 4.0 * rng.standard_normal((4, d))[np.arange(n) % 4] + rng.standard_normal((n, d))
    targets = values @ rng.standard_normal(d) + 0.1 * rng.standard_normal(n)
    sym = DataSymmetry(rng, n, d, translate)
    snapshots = [values + 1e-3 * rng.standard_normal((n, d))]
    snapshots += [values + rng.standard_normal((n, d))] * 2
    runs = {}
    for label, forward, rows in (("base", lambda M: M, slice(None)),
                                 ("image", sym.forward, sym.rows)):
        data, stream, out = (str(tmp_path / f"{label}.{ext}") for ext in ("csv", "jsonl", "out"))
        write_matrix_csv(data, forward(values), targets[rows])
        with open(stream, "w", encoding="utf-8") as handle:
            for snapshot in snapshots:
                handle.write(json.dumps({"values": forward(snapshot).tolist(),
                                         "targets": targets[rows].tolist()}) + "\n")
        assert main(["monitor", "--input", data, "--targets", "--stream", stream,
                     "--task", task, "--k", "5", "--beta", "0.5", "--p", "2", "--c", "0.1",
                     "--eps-abs", "1e-9", "--eps-rel", "1e-7", "--outer-max-iters", "5000",
                     "--out", out]) == 0
        with open(out, encoding="utf-8") as handle:
            decisions = [json.loads(line) for line in handle][1:]
        with open(out + ".bounds.jsonl", encoding="utf-8") as handle:
            runs[label] = decisions, [json.loads(line) for line in handle]
    (base, base_bounds), (image, image_bounds) = runs["base"], runs["image"]
    assert [x["action"] for x in base] == [x["action"] for x in image]
    assert {x["action"] for x in base} == {"keep", "resolve"}
    assert all(x["converged"] is not False for x in base + image)
    for before, after in zip(base, image):
        assert abs(after["delta_metric"] - before["delta_metric"]) \
            <= 1e-7 * abs(before["delta_metric"])
    assert [r["name"] for r in base_bounds] == [r["name"] for r in image_bounds]
    for before, after in zip(base_bounds, image_bounds):
        if not translate:
            scale = max(abs(before["lhs"]), abs(before["rhs"]))
            for side in ("lhs", "rhs"):
                assert abs(after[side] - before[side]) <= 1e-8 * scale, (before["name"], side)
        elif before["name"] == "clustering-dual-image":
            assert abs(after["lhs"] - before["lhs"]) <= 1e-8 * abs(before["lhs"])


@pytest.mark.parametrize("argv", [["solve"], ["monitor", "--synthetic", "1"], ["bound"]])
def test_negative_seed_exits_2(three_points, tmp_path, capsys, argv):
    code = main(argv + ["--input", three_points, "--seed", "-1", "--k", "1",
                        "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "ParameterError" and "nonnegative" in err["error"]


@pytest.mark.parametrize("argv", [["solve"], ["path", "--alphas", "0,1"],
                                  ["monitor", "--synthetic", "1"], ["bound"]])
def test_negative_alpha_exits_2(three_points, tmp_path, capsys, argv):
    # the strength is checked as the flag is parsed, so path, which solves at
    # its --alphas instead, rejects it too
    code = main(argv + ["--input", three_points, "--alpha", "-1", "--k", "1",
                        "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "ParameterError" and "--alpha" in err["error"] \
        and "nonnegative" in err["error"]


@pytest.mark.parametrize("argv", [["monitor", "--synthetic", "1"], ["bound"]])
def test_negative_threshold_exits_2_before_any_solve(three_points, tmp_path, capsys,
                                                    monkeypatch, argv):
    # bound's session never re-solves, so only the flag type can reject a
    # negative --c before its report shows a negative rhs
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before rejecting --c")

    monkeypatch.setattr(sco.evolution, "solve_dual", no_solve)
    code = main(argv + ["--input", three_points, "--c=-1e6", "--k", "1",
                        "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "ParameterError" and "nonnegative" in err["error"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("with_stream", [False, True])
def test_negative_synthetic_count_exits_2_naming_the_flag(three_points, tmp_path, capsys,
                                                          with_stream):
    # the count is parsed as nonnegative: a negative one used to fail as a
    # missing stream when alone, and to be ignored next to --stream
    stream = tmp_path / "stream"
    stream.mkdir()
    write_matrix_csv(str(stream / "000.csv"), np.array([[0.0], [1.0], [3.0]]))
    argv = ["monitor", "--input", three_points, "--synthetic", "-1", "--k", "1",
            "--out", str(tmp_path / "out")]
    code = main(argv + (["--stream", str(stream)] if with_stream else []))
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "ParameterError" and "--synthetic" in err["error"] \
        and "nonnegative" in err["error"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("stream_exists", [False, True])
def test_positive_synthetic_next_to_stream_exits_2_naming_both(three_points, tmp_path, capsys,
                                                               monkeypatch, stream_exists):
    # a positive count used to win silently, even over a missing stream
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before rejecting --stream with --synthetic")

    monkeypatch.setattr(sco.evolution, "solve_dual", no_solve)
    stream = tmp_path / "stream"
    if stream_exists:
        stream.mkdir()
        write_matrix_csv(str(stream / "000.csv"), np.array([[0.0], [1.0], [3.0]]))
    code = main(["monitor", "--input", three_points, "--synthetic", "2", "--k", "1",
                 "--stream", str(stream), "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "ParameterError" and "--synthetic" in err["error"] \
        and "--stream" in err["error"]
    assert not (tmp_path / "out").exists()
    # a zero count is the default and leaves the stream in charge
    monkeypatch.undo()
    assert main(["monitor", "--input", three_points, "--synthetic", "0", "--k", "1",
                 "--stream", str(stream), "--no-bounds", "--out", str(tmp_path / "out")]) \
        == (0 if stream_exists else 2)
