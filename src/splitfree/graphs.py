"""Core graph and split-graph types plus split verification and normalization.

A split graph is a graph together with an assignment of its vertices to n
nonempty blobs of size at most k.  A split is *lax* when every pair of blobs
spans at least one edge and *strict* when additionally no edge is internal to
a blob and every pair spans exactly one edge, so a strict split of n blobs
has exactly n(n-1)/2 edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import formats
from .errors import (
    InvariantViolation,
    NotALaxSplit,
    ParameterError,
    SizeGuard,
    TargetTooLarge,
)

MAX_MISSING_PAIRS = 1 << 20  # verify_split lists at most this many missing blob pairs


class Graph:
    """Immutable simple undirected graph on vertices 0..V-1.

    Edges are held as a canonical (M, 2) int64 array with u < v, sorted
    lexicographically.  The only adjacency structure is the CSR neighbor
    lists, built on first use; neighbor queries, edge tests and common
    neighbors all read it.
    """

    def __init__(self, vertex_count: int, edges: np.ndarray):
        self.V = int(vertex_count)
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self._set_keys(np.minimum(e[:, 0], e[:, 1]) * self.V + np.maximum(e[:, 0], e[:, 1]))

    @classmethod
    def from_edge_keys(cls, vertex_count: int, keys: np.ndarray) -> "Graph":
        """Graph of the edges keyed u*V+v (u < v); may sort `keys` in place."""
        g = cls.__new__(cls)
        g.V = int(vertex_count)
        g._set_keys(keys)
        return g

    def _set_keys(self, keys: np.ndarray) -> None:
        """The one canonicalization: ascending keys are taken as they are,
        others are sorted in place; a repeated edge raises."""
        if len(keys) > 1 and not (keys[1:] > keys[:-1]).all():
            keys.sort()
            repeated = keys[1:] == keys[:-1]
            if repeated.any():
                u, v = divmod(int(keys[np.argmax(repeated)]), self.V)
                raise InvariantViolation(f"edge ({u}, {v}) is repeated")
        self.M = len(keys)
        self.edges = np.empty((self.M, 2), dtype=np.int64)
        np.divmod(keys, self.V, out=(self.edges[:, 0], self.edges[:, 1]))
        self._indptr = self._indices = None

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.V)

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices): the sorted neighbors of v are indices[indptr[v]:indptr[v+1]]."""
        if self._indptr is None:
            # a stable sort by row puts each row's lower neighbors (edges
            # (u, row), ascending u) before its upper ones, so rows are sorted
            rows = np.concatenate((self.edges[:, 1], self.edges[:, 0]))
            order = np.argsort(rows, kind="stable")
            self._indices = np.concatenate((self.edges[:, 0], self.edges[:, 1]))[order]
            self._indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=self.V))))
        return self._indptr, self._indices

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of v."""
        indptr, indices = self.csr()
        return indices[indptr[v]:indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        nb = self.neighbors(u)
        i = np.searchsorted(nb, v)
        return i < len(nb) and nb[i] == v

    def common_neighbors(self, u: int, v: int) -> np.ndarray:
        """Sorted ids adjacent to both u and v."""
        return np.intersect1d(self.neighbors(u), self.neighbors(v), assume_unique=True)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.V == other.V
            and self.edges.shape == other.edges.shape
            and bool(np.array_equal(self.edges, other.edges))
        )

    def __repr__(self) -> str:
        return f"Graph(V={self.V}, M={self.M})"


@dataclass(frozen=True)
class SplitGraph:
    """A Graph plus a blob assignment: blob_of[v] in [0, n), max blob size <= k."""

    graph: Graph
    blob_of: np.ndarray
    n: int
    k: int

    def __post_init__(self):
        b = np.asarray(self.blob_of, dtype=np.int64)
        object.__setattr__(self, "blob_of", b)
        if len(b) != self.graph.V:
            raise InvariantViolation(
                f"{len(b)} blob assignments for {self.graph.V} vertices")
        if self.n < 1:
            raise InvariantViolation("blob count must be positive")
        if len(b) and (b.min() < 0 or b.max() >= self.n):
            raise InvariantViolation("blob id outside [0, n)")
        counted = min(self.n, len(b) + 1)  # with n > V one of blobs 0..V is empty
        sizes = np.bincount(b if counted == self.n else b[b < counted], minlength=counted)
        if (sizes == 0).any():
            raise InvariantViolation(f"blob {int(np.argmax(sizes == 0))} is empty")
        if sizes.max() > self.k:
            raise InvariantViolation(
                f"blob {int(sizes.argmax())} has {int(sizes.max())} vertices > k={self.k}")

    def blob_sizes(self) -> np.ndarray:
        return np.bincount(self.blob_of, minlength=self.n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SplitGraph)
            and self.n == other.n
            and self.k == other.k
            and self.graph == other.graph
            and bool(np.array_equal(self.blob_of, other.blob_of))
        )

    def __repr__(self) -> str:
        return f"SplitGraph(n={self.n}, k={self.k}, V={self.graph.V}, M={self.graph.M})"


@dataclass
class VerificationReport:
    mode: str
    passed: bool
    missing_pairs: list = field(default_factory=list)
    multi_pairs: int = 0
    internal_edges: int = 0
    max_blob_size: int = 0
    edge_count: int = 0


def _cross_pair_keys(s: SplitGraph) -> tuple[np.ndarray, np.ndarray]:
    """Encoded keys i*n+j (i<j) of the blob pairs crossed by the crossing
    edges, plus the mask of crossing edges (False for intra-blob ones)."""
    e = s.graph.edges
    bu = s.blob_of[e[:, 0]]
    bv = s.blob_of[e[:, 1]]
    cross = bu != bv
    i = np.minimum(bu, bv)[cross]
    j = np.maximum(bu, bv)[cross]
    return i * s.n + j, cross


def _missing_pairs(present_sorted: np.ndarray, n: int):
    """Blob pairs absent from the sorted key array, in order; rows that hold
    all their pairs are counted, not scanned."""
    starts = np.searchsorted(present_sorted, np.arange(n + 1, dtype=np.int64) * n)
    for i in np.flatnonzero(np.diff(starts) < n - 1 - np.arange(n)).tolist():
        expected = np.arange(i * n + i + 1, (i + 1) * n, dtype=np.int64)
        for key in np.setdiff1d(expected, present_sorted[starts[i]:starts[i + 1]]).tolist():
            yield i, key - i * n


def verify_split(s: SplitGraph, mode: str = "strict") -> VerificationReport:
    """Check the split against the lax or strict contract; failures are
    reported, never raised.  A split missing more than MAX_MISSING_PAIRS
    blob pairs is refused with SizeGuard before any pair is listed."""
    if mode not in ("strict", "lax"):
        raise ParameterError(f"mode must be 'strict' or 'lax', got {mode!r}")
    keys, _ = _cross_pair_keys(s)
    internal = s.graph.M - len(keys)
    present, counts = np.unique(keys, return_counts=True)
    absent = s.n * (s.n - 1) // 2 - len(present)
    if absent > MAX_MISSING_PAIRS:
        raise SizeGuard(f"{absent} blob pairs have no edge; guard is {MAX_MISSING_PAIRS}")
    missing = list(_missing_pairs(present, s.n)) if absent else []
    multi = int((counts >= 2).sum())
    passed = not missing and (mode == "lax" or (multi == 0 and internal == 0))
    return VerificationReport(
        mode=mode,
        passed=passed,
        missing_pairs=missing,
        multi_pairs=multi,
        internal_edges=internal,
        max_blob_size=int(s.blob_sizes().max()),
        edge_count=s.graph.M,
    )


def prune_to_split(s: SplitGraph) -> SplitGraph:
    """Normalize a lax split to strict form.

    Deletes intra-blob edges and keeps, for every blob pair, exactly the
    lexicographically smallest crossing edge: its first, as edges are held
    in canonical order.  The result is a subgraph of the input on the same
    vertices and blobs, so any freeness property of the input is preserved.
    """
    keys, cross = _cross_pair_keys(s)
    present, first = np.unique(keys, return_index=True)
    if len(present) != s.n * (s.n - 1) // 2:
        pair = next(_missing_pairs(present, s.n))
        raise NotALaxSplit(f"blob pair {pair} has no crossing edge")
    return SplitGraph(Graph(s.graph.V, s.graph.edges[cross][np.sort(first)]), s.blob_of, s.n, s.k)


def restrict_blobs(s: SplitGraph, n_target: int) -> SplitGraph:
    """Keep blobs 0..n_target-1 with their induced edges; vertices are
    relabeled contiguously in their original order."""
    if n_target < 1:
        raise ParameterError("n_target must be >= 1")
    if n_target > s.n:
        raise TargetTooLarge(f"n_target={n_target} exceeds blob count {s.n}")
    keep = s.blob_of < n_target
    new_id = np.cumsum(keep) - 1
    e = s.graph.edges
    return SplitGraph(Graph(int(keep.sum()), new_id[e[keep[e[:, 0]] & keep[e[:, 1]]]]),
                      s.blob_of[keep], n_target, s.k)


def _search(g: Graph) -> tuple[np.ndarray, np.ndarray, bool]:
    """Stack search from each unlabeled vertex in id order.  Returns the component
    label per vertex (dense, ordered by smallest member), a 0/1 color that flips
    along every search edge, and whether some edge joins two equal colors."""
    label = np.full(g.V, -1, dtype=np.int64)
    color = np.zeros(g.V, dtype=np.int64)
    clash = False
    current = 0
    for start in range(g.V):
        if label[start] != -1:
            continue
        label[start] = current
        stack = [start]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v).tolist():
                if label[w] == -1:
                    label[w] = current
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    clash = True
        current += 1
    return label, color, clash


def two_coloring(g: Graph) -> np.ndarray | None:
    """A proper 2-coloring of the vertices (0/1 array), or None if none exists."""
    _, color, clash = _search(g)
    return None if clash else color


def connected_components(g: Graph) -> np.ndarray:
    """Component label per vertex; labels are dense, ordered by smallest member."""
    return _search(g)[0]


def read_split(path) -> SplitGraph:
    (n, k, vcount, _), (blob_of, edges) = formats.read(path, "splitgraph")
    return SplitGraph(Graph(vcount, edges), blob_of, n, k)


def write_split(s: SplitGraph, path) -> None:
    formats.write(path, "splitgraph", (s.n, s.k, s.graph.V, s.graph.M), s.blob_of, s.graph.edges)


def read_graph(path) -> Graph:
    (vcount, _), (edges,) = formats.read(path, "graph")
    return Graph(vcount, edges)


def write_graph(g: Graph, path) -> None:
    formats.write(path, "graph", (g.V, g.M), g.edges)
