import os
import tracemalloc

import numpy as np
import pytest

import sco.io
from sco.io import canonical_json, write_json_atomic

SLICE = 4


def payloads():
    """(name, payload) pairs around a slice of SLICE items."""
    for length in (0, SLICE - 1, SLICE, SLICE + 1, 3 * SLICE + 2):
        yield f"list-{length}", [[i, i + 1, 0.5 * i] for i in range(length)]
        yield f"tuple-{length}", tuple((i, i + 1, 1.0 / (i + 1)) for i in range(length))
        yield f"graph-{length}", {"n": length + 1,
                                  "edges": tuple((i, i + 1, 2.0) for i in range(length)),
                                  "config": {"k": 3, "input": "aé\"b.csv"}}
    yield "nested-dicts", {"b": {"z": {"y": [1, 2, 3, 4, 5, 6]}, "a": None},
                           "a": [{"x": 1.5}] * (SLICE + 2), "ü": "☃"}
    yield "tuples-of-tuples", ((1, (2, (3,))), (), ((4.0, -0.0),)) * SLICE
    yield "no-long-list", {"X": [[0.1, 0.2]] * SLICE, "iters": 7, "converged": True}
    yield "empty-dict", {}
    yield "scalar", 3.25


@pytest.mark.parametrize("name, payload", list(payloads()))
def test_sliced_write_gives_the_canonical_bytes(tmp_path, monkeypatch, name, payload):
    monkeypatch.setattr(sco.io, "_JSON_SLICE", SLICE)
    path = tmp_path / "out.json"
    write_json_atomic(str(path), payload)
    assert path.read_bytes() == (canonical_json(payload) + "\n").encode("utf-8"), name


def test_nan_in_a_late_slice_leaves_the_target_alone(tmp_path, monkeypatch):
    monkeypatch.setattr(sco.io, "_JSON_SLICE", SLICE)
    path = tmp_path / "out.json"
    path.write_text("old\n", encoding="utf-8")
    edges = [(i, i + 1, 1.0) for i in range(5 * SLICE)]
    edges[-1] = (5 * SLICE - 1, 5 * SLICE, float("nan"))
    with pytest.raises(ValueError):
        write_json_atomic(str(path), {"n": 5 * SLICE + 1, "edges": edges})
    assert path.read_text(encoding="utf-8") == "old\n"
    assert os.listdir(tmp_path) == ["out.json"]


def test_sliced_write_holds_less_than_the_text(tmp_path):
    # a graph payload of 50,000 edges is about 1.5 MB of JSON; encoding it
    # whole held the encoder's chunks and two copies of the text
    rng = np.random.default_rng(3)
    heads = rng.integers(0, 10_000, 50_000)
    tails = heads + rng.integers(1, 50, 50_000)
    payload = {"n": 10_050, "config": {"k": 10},
               "edges": tuple(zip(heads.tolist(), tails.tolist(), rng.random(50_000).tolist()))}
    size = len(canonical_json(payload)) + 1
    tracemalloc.start()
    try:
        write_json_atomic(str(tmp_path / "graph.json"), payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < size, (peak, size)
