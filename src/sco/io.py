"""File formats: strict numeric CSV, graph/solution JSON, snapshot
streams, trace CSV. All writes are atomic (temp file + rename) and JSON
is serialised canonically so identical runs produce identical bytes.

A valid CSV is parsed by one C call, ``np.loadtxt``; a file it refuses
goes to a Python line reader, which names the first faulty line.

JSON writes are sliced: a dict payload is encoded one top-level key at a
time and a list in slices of ``_JSON_SLICE`` items, and each piece goes
to the temp file before the next is made. The bytes are those of
``canonical_json`` in one piece, but a graph's edge list is never held
as one string, and its rows are Python objects only one slice at a time.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import tempfile

import numpy as np

from .errors import DataValidationError, ParameterError
from .graph import VariableGraph

# the bytes of a CSV that np.loadtxt may parse: digits, float signs and
# marks, the comma, and the whitespace that it and float() strip alike
_PLAIN_CSV_BYTES = b"0123456789.eE+-, \t\r\n"

# items of a long list encoded per piece of a sliced JSON write; a fresh
# `sco graph` at n=2500, k=10 peaked 0.8 MB lower with 1024 than with 4096,
# at the same write time (2-core host, Python 3.11, numpy 2.4)
_JSON_SLICE = 1024


def _finite_matrix(path: str, rows: list, linenos: list):
    """The parsed rows as a matrix, or None when their widths differ,
    after raising DataValidationError for the first row that holds a
    non-finite value. One check over all rows: a check per line took
    about 40% of the time to read a 2500-by-10 file."""
    try:
        matrix = np.array(rows, dtype=float)
        finite = np.isfinite(matrix).all(axis=1)
    except ValueError:  # ragged rows: check them one by one
        matrix = None
        finite = np.array([np.isfinite(row).all() for row in rows], dtype=bool)
    if not finite.all():
        raise DataValidationError(f"{path}:{linenos[int(finite.argmin())]}: non-finite value")
    return matrix


def read_matrix_csv(path: str, with_targets: bool = False):
    """Read a numeric CSV: one row per instance, comma-separated,
    decimal-dot floats only, in ASCII and without digit-group
    underscores. Non-numeric or non-finite entries fail; the error names
    the first faulty line, counting blank lines.

    A file made only of digits, float signs and marks, commas and
    whitespace is parsed by one C call, ``np.loadtxt``; anything that
    call refuses, and an empty or non-finite result, goes to the line
    reader, which names the fault. Both parse a cell with CPython's
    ``PyOS_string_to_double``, so the matrix is the same either way.

    With ``with_targets`` the final column is split off as the target
    vector.

    Returns (values, targets_or_None).
    """
    try:
        with open(path, "rb") as handle:
            matrix = _plain_matrix(handle)
        if matrix is None:
            matrix = _read_lines(path)
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc}") from exc
    if with_targets:
        if matrix.shape[1] < 2:
            raise DataValidationError(f"{path}: need at least one feature beside the target")
        return matrix[:, :-1], matrix[:, -1]
    return matrix, None


def _plain_matrix(handle):
    """The matrix of a plain numeric CSV read from the binary ``handle``,
    or None when a byte is not in ``_PLAIN_CSV_BYTES``, the file is blank,
    ``np.loadtxt`` refuses it or a value is not finite. The text wrapper
    reads the open handle, not the path, which would make numpy import
    gzip, and takes one byte per character where a StringIO takes four;
    its codec is UTF-8, loaded at start-up, which reads ASCII alike."""
    data = handle.read()
    if data.translate(None, _PLAIN_CSV_BYTES) or not data.strip():
        return None
    del data  # not held through the parse, which reads the file again
    handle.seek(0)
    with io.TextIOWrapper(handle, encoding="utf-8") as text:
        try:
            matrix = np.loadtxt(text, delimiter=",", comments=None, ndmin=2)
        except ValueError:  # a bad cell, an empty one or ragged rows
            return None
    return matrix if np.isfinite(matrix).all() else None


def _read_lines(path: str) -> np.ndarray:
    """The matrix of the CSV at ``path``, read line by line, or
    DataValidationError naming the first fault: a non-numeric or
    non-finite line, whichever comes first, then an empty file or ragged
    rows."""
    rows, linenos, non_numeric = [], [], None
    # a byte that is not UTF-8 reads as U+FFFD, a non-numeric cell
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            try:
                # float() also takes digit-group underscores and
                # non-ASCII digits; one test per line keeps them out
                if "_" in line or not line.isascii():
                    raise ValueError(line)
                rows.append([float(c) for c in cells])
            except ValueError:
                non_numeric = f"{path}:{lineno}: non-numeric cell in {cells!r}"
                break
            linenos.append(lineno)
    # a non-finite line before a non-numeric one is the first fault
    matrix = _finite_matrix(path, rows, linenos) if rows else None
    if non_numeric is not None:
        raise DataValidationError(non_numeric)
    if not rows:
        raise DataValidationError(f"{path}: empty dataset")
    if matrix is None:
        widths = sorted({len(r) for r in rows})
        raise DataValidationError(f"{path}: ragged rows with widths {widths}")
    return matrix


def canonical_json(obj) -> str:
    """Deterministic JSON serialisation (sorted keys, fixed separators)."""
    # every payload is a tree built fresh by its command, so no container can
    # hold itself; the cycle check only cost time, and the bytes are the same
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False,
                      check_circular=False)


class _EdgeRows:
    """A graph's edges as the JSON list of [i, j, w] rows, for
    :func:`_sliced_json` only: a slice of it is a list of (int, int, float)
    tuples, made from ``.tolist()`` of the array slices, so the rows exist
    as Python objects one slice at a time."""

    def __init__(self, graph: VariableGraph):
        self.graph = graph

    def __len__(self) -> int:
        return self.graph.edge_count

    def __getitem__(self, part: slice) -> list:
        g = self.graph
        return list(zip(g.head[part].tolist(), g.tail[part].tolist(), g.weight[part].tolist()))


def _sliced_json(value):
    """canonical_json(value) in pieces: a list, a tuple or a graph's
    :class:`_EdgeRows` slice by slice, ``_JSON_SLICE`` items at a time,
    anything else whole."""
    if type(value) not in (list, tuple, _EdgeRows):
        yield canonical_json(value)
        return
    yield "["
    for start in range(0, len(value), _JSON_SLICE):
        text = canonical_json(value[start:start + _JSON_SLICE])
        yield ("," if start else "") + text[1:-1]
    yield "]"


def _json_pieces(obj):
    """canonical_json(obj) in pieces: a dict with string keys key by key
    in sorted order, each value by :func:`_sliced_json`."""
    if type(obj) is not dict or not all(type(key) is str for key in obj):
        yield from _sliced_json(obj)
        return
    yield "{"
    for count, key in enumerate(sorted(obj)):
        yield ("," if count else "") + canonical_json(key) + ":"
        yield from _sliced_json(obj[key])
    yield "}"


def _write_text_atomic(path: str, pieces) -> None:
    """Write the text pieces, in order, to a temp file beside ``path`` and
    rename it over ``path``; on any error the temp file is removed and
    ``path`` is left as it was. A path that cannot be written raises
    ParameterError."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sco-", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            for piece in pieces:
                handle.write(piece)
        os.replace(tmp, path)
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc}") from exc
    finally:
        # gone after a successful rename
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def write_json_atomic(path: str, obj) -> None:
    """canonical_json(obj) and a newline, written atomically in pieces."""
    _write_text_atomic(path, itertools.chain(_json_pieces(obj), ("\n",)))


def write_jsonl_atomic(path: str, records) -> None:
    _write_text_atomic(path, ("".join(canonical_json(r) + "\n" for r in records),))


def matrix_to_lists(M: np.ndarray):
    return np.atleast_2d(np.asarray(M, dtype=float)).tolist()


def graph_to_dict(graph: VariableGraph) -> dict:
    """The graph's JSON form for :func:`write_json_atomic`: ``n`` and the
    edges as [i, j, w] rows, which the writer makes a slice at a time."""
    return {"n": graph.vertex_count, "edges": _EdgeRows(graph)}


def graph_from_dict(payload: dict) -> VariableGraph:
    """Graph from its JSON form. ``n`` and the edge endpoints must be JSON
    integers and the weights JSON numbers; anything else, bools and
    numeric strings included, raises DataValidationError instead of being
    truncated or coerced, and so do endpoints beyond the index range and
    integer weights beyond the float range."""
    try:
        n, edges = payload["n"], list(payload["edges"])
    except (KeyError, TypeError) as exc:
        raise DataValidationError(f"malformed graph payload: {exc}") from exc
    if type(n) is not int:
        raise DataValidationError(f"malformed graph payload: n must be an integer, got {n!r}")
    for idx, edge in enumerate(edges):
        if type(edge) is not list or tuple(map(type, edge)) not in ((int, int, int),
                                                                     (int, int, float)):
            raise DataValidationError(
                f"malformed graph payload: edge {idx} must be [int, int, number], "
                f"got {edge!r}")
    table = np.array(edges, dtype=object).reshape(-1, 3)
    try:
        head, tail = table[:, 0].astype(np.intp), table[:, 1].astype(np.intp)
    except OverflowError:
        ends = table[:, :2]
        limits = np.iinfo(np.intp)
        idx = int(np.argmax(((ends < limits.min) | (ends > limits.max)).any(axis=1)))
        raise DataValidationError(
            f"malformed graph payload: edge {idx}: endpoints ({ends[idx, 0]}, {ends[idx, 1]}) "
            f"violate 0 <= i < j < {n}") from None
    try:
        weight = table[:, 2].astype(np.float64)
    except OverflowError:  # a JSON integer beyond the float range
        idx = int(np.argmax(np.abs(table[:, 2]) > float(np.finfo(np.float64).max)))
        raise DataValidationError(
            f"malformed graph payload: edge {idx}: weight is an integer beyond the float "
            f"range") from None
    return VariableGraph(n, head, tail, weight)


def load_graph_json(path: str) -> VariableGraph:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:  # json's bare ValueError: an int of over 4300 digits
        raise ParameterError(f"cannot read graph {path}: {exc}") from exc
    return graph_from_dict(payload)


def iter_snapshot_files(directory: str):
    """CSV files in a directory in lexicographic order."""
    try:
        names = sorted(os.listdir(directory))
    except OSError as exc:
        raise ParameterError(f"cannot list {directory}: {exc}") from exc
    return [os.path.join(directory, name) for name in names if name.endswith(".csv")]


def _json_numbers(obj) -> bool:
    """Whether obj is a JSON number, or nested lists of JSON numbers; bools
    and strings are not numbers. Iterative, so any depth JSON can parse
    is checked without recursion."""
    pending = [obj]
    while pending:
        item = pending.pop()
        if type(item) is list:
            pending.extend(item)
        elif type(item) not in (int, float):
            return False
    return True


def read_snapshot_jsonl(path: str, with_targets: bool = False):
    """Snapshots from a JSONL file: one {"values": [[...]], "targets": [...]}
    object per line (targets optional). Values and targets must be JSON
    numbers in rectangular arrays; bools, strings and ragged rows raise
    DataValidationError naming ``path:lineno`` instead of being coerced,
    and so do NaN, Infinity and numbers beyond the float range, as in
    :func:`read_matrix_csv`.
    Without ``with_targets`` the targets are checked but returned as None,
    as :func:`read_matrix_csv` does for CSV snapshots."""
    out = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except ValueError as exc:  # json's bare ValueError: an int of over 4300 digits
                    raise DataValidationError(f"{path}:{lineno}: bad JSON: {exc}") from None
                if not isinstance(payload, dict) or "values" not in payload:
                    raise DataValidationError(
                        f"{path}:{lineno}: snapshot must be a JSON object with \"values\"")
                targets = payload.get("targets")
                if targets is None and with_targets:
                    raise DataValidationError(f"{path}:{lineno}: snapshot lacks targets")
                if not (_json_numbers(payload["values"])
                        and (targets is None or _json_numbers(targets))):
                    raise DataValidationError(
                        f"{path}:{lineno}: values and targets must be JSON numbers")
                try:
                    values = np.asarray(payload["values"], dtype=float)
                    if targets is not None:
                        targets = np.asarray(targets, dtype=float)
                except OverflowError:  # a JSON integer beyond the float range
                    raise DataValidationError(f"{path}:{lineno}: non-finite value") from None
                except ValueError as exc:
                    raise DataValidationError(
                        f"{path}:{lineno}: values or targets are not a numeric array: "
                        f"{exc}") from None
                # json also reads NaN, Infinity and overflowing numbers such as 1e999
                if not (np.isfinite(values).all()
                        and (targets is None or np.isfinite(targets).all())):
                    raise DataValidationError(f"{path}:{lineno}: non-finite value")
                out.append((values, targets if with_targets else None))
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc}") from exc
    return out


def write_trace_csv(path: str, trace) -> None:
    lines = ["iter,primal_res,dual_res,h_step"]
    for it, p, d, h in trace.rows():
        lines.append(f"{it},{repr(p)},{repr(d)},{repr(h)}")
    _write_text_atomic(path, ("\n".join(lines) + "\n",))


def write_path_csv(path: str, cluster_path) -> None:
    """Sweep output rows: alpha, vertex, label, then the model coordinates."""
    if cluster_path.solutions:
        d = cluster_path.solutions[0].shape[1]
    else:
        d = 0
    header = "alpha,vertex,label" + "".join(f",x_{k + 1}" for k in range(d))
    lines = [header]
    for alpha, X, labels in zip(cluster_path.alphas, cluster_path.solutions,
                                cluster_path.memberships):
        for v in range(X.shape[0]):
            coords = "".join("," + repr(float(x)) for x in X[v])
            lines.append(f"{repr(float(alpha))},{v},{int(labels[v])}{coords}")
    _write_text_atomic(path, ("\n".join(lines) + "\n",))
