"""Datasets and the k-nearest-neighbour variable graph built from them.

Every instance becomes a vertex; an undirected edge joins two instances
when either is among the k Euclidean-nearest neighbours of the other.
Edge weights are inversely proportional to the distance, capped so that
coincident points get a finite weight.

The graph is built over blocks of rows, each compared with all n points
through one matrix product into one reused ranking buffer, and no n-by-n
distance matrix is made.
Neighbours are ranked by |v_j|^2 - 2 v_i.v_j, the squared distance less
the row's own |v_i|^2, which the product with the table [v^T; |v|^2]
gives whole; weights come from the direct row differences of the kept
pairs, not from that key, taken in chunks of the same budget. So the
whole build holds the temporaries of one block (about ``_BLOCK_ENTRIES``
floats) at a time and one (d+1)-by-n copy of the data, plus the m edges:
the O(m) sorted pair keys and the head, tail and weight arrays the graph
keeps.

All functions here are pure and operate on immutable inputs, so they are
safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError, ParameterError

DEFAULT_WEIGHT_CAP = 1e6

# squared distances held per block of rows in build_knn_graph: 512 KiB of
# float64, small enough for the block's passes to run in cache
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class Dataset:
    """An n-by-d matrix of instances plus optional regression targets.

    Rows are instances, columns are features. ``targets`` (length n) is
    only needed for the regression task.
    """

    values: np.ndarray
    targets: np.ndarray | None = None

    def __post_init__(self):
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise DataValidationError(f"dataset must be n x d with n,d >= 1, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise DataValidationError("dataset contains non-finite entries")
        object.__setattr__(self, "values", values)
        if self.targets is not None:
            targets = np.asarray(self.targets, dtype=float).ravel()
            if targets.shape[0] != values.shape[0]:
                raise DataValidationError(
                    f"targets length {targets.shape[0]} does not match row count {values.shape[0]}"
                )
            if not np.all(np.isfinite(targets)):
                raise DataValidationError("targets contain non-finite entries")
            object.__setattr__(self, "targets", targets)

    @property
    def row_count(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class VariableGraph:
    """Weighted undirected graph over the per-instance variables.

    Edge k joins ``head[k]`` and ``tail[k]`` with weight ``weight[k]``:
    three 1-D arrays of one length, ``intp``, ``intp`` and ``float64``. A
    valid graph has head < tail and weight > 0 on every edge, its edges in
    lexicographic order of (head, tail) and free of duplicates;
    :func:`validate_graph` reports what breaks that. The fields are
    read-only views; an array already of its dtype is shared, not copied,
    and the caller's own array stays writable. ``eq=False``: arrays have no
    single truth value, so the generated ``__eq__`` would raise.
    """

    vertex_count: int
    head: np.ndarray
    tail: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        for name, dtype in (("head", np.intp), ("tail", np.intp), ("weight", np.float64)):
            given = np.asarray(getattr(self, name))
            try:
                with np.errstate(invalid="ignore"):  # NaN to intp; caught below
                    view = given.astype(dtype, copy=False).view()
            except (TypeError, ValueError, OverflowError) as exc:
                raise DataValidationError(f"{name} is not a numeric array: {exc}") from None
            # a cast to intp truncates; endpoints must be whole numbers already
            if dtype is np.intp and given.dtype.kind not in "biu" and not np.array_equal(
                    view, given):
                raise DataValidationError(f"{name} holds endpoints that are not integers")
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        if not (self.head.ndim == self.tail.ndim == self.weight.ndim == 1
                and self.head.size == self.tail.size == self.weight.size):
            raise DataValidationError(
                f"edge arrays must be 1-D of one length, got shapes {self.head.shape}, "
                f"{self.tail.shape} and {self.weight.shape}")

    @property
    def edge_count(self) -> int:
        return self.head.size


def neighbour_count(k, n: int, name: str = "k") -> int:
    """``k`` as an int when it is a whole number with 1 <= k <= n - 1, the
    neighbour counts :func:`build_knn_graph` takes on n points; otherwise
    ParameterError, naming the value ``name``."""
    try:
        whole = int(k) == k
    except (TypeError, ValueError, OverflowError):  # NaN, infinity, non-numbers
        whole = False
    if not (whole and 1 <= k <= n - 1):
        raise ParameterError(f"{name} must be an integer with 1 <= k <= n-1 = {n - 1}, got {k!r}")
    return int(k)


def build_knn_graph(data: Dataset, k: int, weight_cap: float = DEFAULT_WEIGHT_CAP) -> VariableGraph:
    """Build the variable graph by symmetric k-nearest-neighbour linking.

    An edge (i, j) exists iff j is among the k nearest neighbours of i or
    i is among the k nearest of j. Distance ties are broken by the smaller
    index, which makes the output deterministic. The weight is
    min(1/dist, weight_cap), with dist taken from the direct difference
    ||v_i - v_j||; coincident points have dist exactly 0 and hit the cap.

    The build runs over blocks of rows. Row i ranks every point j by the
    key |v_j|^2 - 2 v_i.v_j, which is ||v_i - v_j||^2 less |v_i|^2, a
    constant along the row. A block's keys are one matrix product, written
    into one ranking buffer that every block reuses: its rows [-2 v_i, 1]
    (scaling by -2 is exact) times the (d+1)-by-n table [v^T; |v|^2],
    built once. The key's last bits follow the BLAS build's summation
    order. The key is not clamped at 0; it may be negative. A row keeps
    every point whose key is below its k-th smallest key and, of the
    points whose computed key ties with it, the ones of smallest index,
    so ties at the rounding level are decided on the key, not on a
    distance.

    No full row is partitioned to find that k-th key when n > 64k. The
    columns are dealt into w = 16k strided groups (the last n mod w
    columns are groups of one), and the k-th smallest of the group minima
    bounds the k-th key from above, because the k smallest minima are k
    distinct keys. Only the keys at or under the bound are candidates;
    the exact k-th key among them comes from one partition of a small
    inf-padded array, and is skipped when every row has exactly k
    candidates. With n <= 64k every column is a group of one and the
    bound is the exact k-th key. The kept pairs are those of a full-row
    partition, bit for bit.

    A block holds about ``_BLOCK_ENTRIES`` keys, and the weights are
    computed for at most ``_BLOCK_ENTRIES // d`` pairs at a time, after the
    block buffers and the table are freed, so the build's memory is the
    temporaries of one block, the (d+1)-by-n table (one copy of the data)
    and the m edges (their sorted pair keys and the returned head, tail
    and weight arrays); nothing n-by-n or m-by-d is made.

    One check before the loop raises DataValidationError when 4 max|v|^2,
    the bound on every squared distance, overflows; below it every key and
    every direct distance is finite.

    Parameters
    ----------
    data : Dataset
        At least two instances.
    k : int
        Number of neighbours per vertex, 1 <= k <= n - 1; a value of another
        type must be a whole number (2.0, not 2.7).
    weight_cap : float
        Upper bound for the inverse-distance weights (> 0).

    Returns
    -------
    VariableGraph
        Edges sorted lexicographically by (i, j).
    """
    n = data.row_count
    if n < 2:
        raise ParameterError("need at least two instances to build a graph")
    k = neighbour_count(k, n)
    if not (np.isfinite(weight_cap) and weight_cap > 0):
        raise ParameterError(f"weight_cap must be a positive finite real, got {weight_cap}")

    values = data.values
    d = values.shape[1]
    # [v^T; |v|^2], C-contiguous: a block's rows [-2 v_i, 1] times it are the keys
    table = np.empty((d + 1, n))
    table[:d] = values.T
    sq = np.einsum("ij,ij->i", values, values, out=table[d])
    # a ranking key is at most 3 max|v|^2 and a squared distance 4 max|v|^2;
    # a bound of 2 max|v|^2 alone would let an overflowed key tie with the
    # masked-out self entry, or a weight come out as 1/inf = 0
    if not sq.max() <= np.finfo(float).max / 4:
        raise DataValidationError("data magnitudes overflow the distance computation")
    rows = min(n, max(1, _BLOCK_ENTRIES // n))
    scaled = np.empty((rows, d + 1))
    scaled[:, d] = 1.0
    # group g holds the columns g, g + w, g + 2w, ... below `cut`; the columns
    # from `cut` on are groups of one, and so is every column of a short row
    groups, w = (n // (16 * k), 16 * k) if n > 64 * k else (0, 0)
    cut = groups * w
    ranking = np.empty((rows, n))
    minima = np.empty((rows, w + n - cut))
    keys = []
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        # ranking keys |v_j|^2 - 2 v_i.v_j; scaling by -2 is exact
        rank, left = ranking[:stop - start], scaled[:stop - start]
        np.multiply(values[start:stop], -2.0, out=left[:, :d])
        np.matmul(left, table, out=rank)
        local = np.arange(stop - start)
        rank[local, start + local] = np.inf  # a point is not its own neighbour
        # the k-th smallest group minimum bounds the row's k-th key
        low = minima[:stop - start]
        if groups:
            np.minimum.reduce(rank[:, :cut].reshape(-1, groups, w), axis=1, out=low[:, :w])
        low[:, w:] = rank[:, cut:]
        low.partition(k - 1, axis=1)
        flat = np.flatnonzero(rank <= low[:, k - 1:k])
        if flat.size > k * local.size:
            # the exact k-th key among each row's candidates, which sit in
            # column order in the rows of an inf-padded array
            counts = np.diff(np.searchsorted(flat, n * (local + 1)), prepend=0)
            filled = np.arange(counts.max()) < counts[:, None]
            cand = np.full(filled.shape, np.inf)
            cand[filled] = rank.ravel()[flat]
            kth = np.partition(cand, k - 1, axis=1)[:, k - 1:k]
            keep = cand <= kth
            if np.count_nonzero(keep) > k * local.size:
                # rows with ties at the k-th key keep the smallest tied indices
                closer = cand < kth
                tied = keep & ~closer
                room = k - np.count_nonzero(closer, axis=1, keepdims=True)
                keep = closer | (tied & (np.cumsum(tied, axis=1) <= room))
            flat = flat[keep[filled]]
        r, c = np.divmod(flat, n)
        r += start
        keys.append(np.minimum(r, c) * n + np.maximum(r, c))
    del table, sq, scaled, left, ranking, minima, rank, low
    keys = np.sort(np.concatenate(keys))
    # a repeated pair sits next to its first copy; np.unique would do the
    # same, but its first call imports numpy.ma (about 16 ms)
    heads, tails = np.divmod(keys[np.append(True, keys[1:] != keys[:-1])], n)

    # the kept pairs' distances in chunks of one block's budget; each norm is
    # taken along its own row, so chunking keeps every bit
    weights = np.empty(heads.size)
    chunk = max(1, _BLOCK_ENTRIES // d)
    for start in range(0, heads.size, chunk):
        diff = values[heads[start:start + chunk]]
        diff -= values[tails[start:start + chunk]]
        weights[start:start + chunk] = np.linalg.norm(diff, axis=1)
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(1.0, weights, out=weights)
        np.minimum(weights, weight_cap, out=weights)
    return VariableGraph(n, heads, tails, weights)


def validate_graph(graph: VariableGraph) -> list[str]:
    """Check the graph invariants; return a list of violations (empty = ok).

    Each message names the offending edge index; the messages run in edge
    order, and an edge's endpoint, weight and duplicate faults in that
    order. A repeated pair is reported at every index after its first.
    Diagnostic only, never raises.
    """
    violations = []
    n = graph.vertex_count
    if n < 1:
        violations.append("graph: vertex_count must be >= 1")
    head, tail, weight = graph.head, graph.tail, graph.weight
    bad_ends = ~((0 <= head) & (head < tail) & (tail < n))
    bad_weight = ~(np.isfinite(weight) & (weight > 0))
    # a stable sort by (head, tail) puts each repeat right after an earlier copy
    order = np.lexsort((tail, head))
    sorted_head, sorted_tail = head[order], tail[order]
    repeat = np.zeros(head.size, dtype=bool)
    repeat[order[1:]] = ((sorted_head[1:] == sorted_head[:-1])
                         & (sorted_tail[1:] == sorted_tail[:-1]))
    for idx in np.flatnonzero(bad_ends | bad_weight | repeat).tolist():
        i, j = int(head[idx]), int(tail[idx])
        if bad_ends[idx]:
            violations.append(f"edge {idx}: endpoints ({i}, {j}) violate 0 <= i < j < {n}")
        if bad_weight[idx]:
            violations.append(
                f"edge {idx}: weight {float(weight[idx])} is not a positive finite real")
        if repeat[idx]:
            violations.append(f"edge {idx}: duplicate pair ({i}, {j})")
    return violations
