"""Core graph and split-graph types plus split verification and normalization.

A split graph is a graph together with an assignment of its vertices to n
nonempty blobs of size at most k.  A split is *lax* when every pair of blobs
spans at least one edge and *strict* when additionally no edge is internal to
a blob and every pair spans exactly one edge, so a strict split of n blobs
has exactly n(n-1)/2 edges.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EndpointOutOfRange,
    InvariantViolation,
    LoopEdge,
    NotALaxSplit,
    ParameterError,
    ParseError,
    SizeGuard,
    TargetTooLarge,
)

MAX_VERTICES = math.isqrt(2 ** 63 - 1)  # edge keys u*V+v must fit in int64
MAX_FILE_VERTICES = 1 << 24  # guard on a file header's vertex count: O(V) arrays follow


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
        """Graph of the edges keyed u*V+v (u < v); may sort `keys` in place; repeats raise."""
        g = cls.__new__(cls)
        g.V = int(vertex_count)
        g._set_keys(keys)
        if g.M != len(keys):
            raise InvariantViolation("duplicate edge keys")
        return g

    def _set_keys(self, keys: np.ndarray) -> None:
        """The one canonicalization: ascending keys are taken as they are,
        others are sorted in place, and copied only to drop repeats."""
        if len(keys) > 1 and not (keys[1:] > keys[:-1]).all():
            keys.sort()
            if not (keys[1:] != keys[:-1]).all():
                keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        self.M = len(keys)
        self.edges = np.empty((self.M, 2), dtype=np.int64)
        np.divmod(keys, self.V, out=(self.edges[:, 0], self.edges[:, 1]))
        self._indptr = self._indices = None

    def degrees(self) -> np.ndarray:
        d = np.zeros(self.V, dtype=np.int64)
        if self.M:
            d += np.bincount(self.edges[:, 0], minlength=self.V)
            d += np.bincount(self.edges[:, 1], minlength=self.V)
        return d

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


def build_graph(vertex_count: int, edges) -> Graph:
    """Validated Graph constructor: rejects loops and out-of-range endpoints,
    collapses duplicate edges."""
    e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                   dtype=np.int64).reshape(-1, 2)
    if e.size:
        if e.min() < 0 or e.max() >= vertex_count:
            bad = e[(e < 0).any(axis=1) | (e >= vertex_count).any(axis=1)][0]
            raise EndpointOutOfRange(f"edge {tuple(bad)} outside [0, {vertex_count})")
        loops = e[:, 0] == e[:, 1]
        if loops.any():
            raise LoopEdge(f"loop at vertex {int(e[loops][0][0])}")
    return Graph(vertex_count, e)


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
        # with n > V blobs one of blobs 0..V is empty: count no further
        sizes = np.bincount(b, minlength=min(self.n, len(b) + 1))
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


def _missing_pairs(present_sorted: np.ndarray, n: int) -> list[tuple[int, int]]:
    """All blob pairs absent from the sorted key array (row-chunked scan)."""
    missing = []
    for i in range(n - 1):
        lo = np.searchsorted(present_sorted, i * n)
        hi = np.searchsorted(present_sorted, (i + 1) * n)
        expected = np.arange(i * n + i + 1, (i + 1) * n, dtype=np.int64)
        for key in np.setdiff1d(expected, present_sorted[lo:hi]).tolist():
            missing.append((i, key - i * n))
    return missing


def verify_split(s: SplitGraph, mode: str = "strict") -> VerificationReport:
    """Check the split against the lax or strict contract; failures are
    reported, never raised."""
    if mode not in ("strict", "lax"):
        raise ParameterError(f"mode must be 'strict' or 'lax', got {mode!r}")
    keys, _ = _cross_pair_keys(s)
    internal = s.graph.M - len(keys)
    present, counts = np.unique(keys, return_counts=True)
    total_pairs = s.n * (s.n - 1) // 2
    if len(present) == total_pairs:
        missing = []
    else:
        missing = _missing_pairs(present, s.n)
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
    lexicographically smallest crossing edge.  The result is a subgraph of
    the input on the same vertices and blobs, so any freeness property of
    the input is preserved.
    """
    keys, cross = _cross_pair_keys(s)
    ec = s.graph.edges[cross]
    order = np.lexsort((ec[:, 1], ec[:, 0], keys))
    keys = keys[order]
    ec = ec[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    total_pairs = s.n * (s.n - 1) // 2
    if int(first.sum()) != total_pairs:
        pair = _missing_pairs(keys[first], s.n)[0]
        raise NotALaxSplit(f"blob pair {pair} has no crossing edge")
    return SplitGraph(Graph(s.graph.V, ec[first]), s.blob_of, s.n, s.k)


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
    ek = e[keep[e[:, 0]] & keep[e[:, 1]]] if len(e) else e
    return SplitGraph(
        Graph(int(keep.sum()), new_id[ek] if len(ek) else ek),
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


# ---------------------------------------------------------------------------
# Text formats.  Both are UTF-8 with LF line endings; '#' lines are comments.
#
#   splitgraph 1                       graph 1
#   n <n> k <k> v <V> e <E>            v <V> e <E>
#   b <vid> <blobid>   (vid 0..V-1)    e <u> <v>  (u < v, lex sorted)
#   e <u> <v>          (u < v, lex sorted)
# ---------------------------------------------------------------------------

def _edge_lines(g: Graph) -> list[str]:
    """The 'e <u> <v>' lines, joined into one string per low endpoint u."""
    ids = [str(i) for i in range(g.V)]
    high = [ids[v] for v in g.edges[:, 1].tolist()]
    starts = np.searchsorted(g.edges[:, 0], np.arange(g.V + 1)).tolist()
    return [f"e {u} " + f"\ne {u} ".join(high[a:b])
            for u, (a, b) in enumerate(zip(starts, starts[1:])) if a < b]


def write_split(s: SplitGraph, path) -> None:
    lines = [
        "splitgraph 1",
        f"n {s.n} k {s.k} v {s.graph.V} e {s.graph.M}",
    ]
    lines.extend(f"b {v} {b}" for v, b in enumerate(s.blob_of.tolist()))
    lines.extend(_edge_lines(s.graph))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_graph(g: Graph, path) -> None:
    lines = ["graph 1", f"v {g.V} e {g.M}"]
    lines.extend(_edge_lines(g))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# Bulk parsing of exactly the form the writers emit, integers cut at 17 digits
# so np.fromstring cannot saturate.  Anything else (comments, blank lines, CRLF,
# signs, leading zeros, bad ids or order) goes to the line scanner.  Rows are
# matched 1024 at a time: re keeps state for each repeat of a group, ~280 B.
_UINT = rb"(?:0|[1-9][0-9]{0,16})"
_SPLIT_HEADER = re.compile(rb"splitgraph 1\nn (%s) k (%s) v (%s) e (%s)\n" % ((_UINT,) * 4))
_GRAPH_HEADER = re.compile(rb"graph 1\nv (%s) e (%s)\n" % (_UINT, _UINT))
_ROWS = {t: re.compile(rb"(?:%s %s %s\n){0,1024}" % (t, _UINT, _UINT)) for t in (b"b", b"e")}


def _bulk_parse(path, header: re.Pattern, tags: tuple[bytes, ...]):
    """Header numbers and one (count, 2) array per row tag, the counts being the header's
    last numbers; None unless the rows are all there and the edges (last tag) are canonical.
    Header counts are checked before anything is read by them."""
    with open(path, "rb") as fh:
        data = fh.read()
    head = header.match(data)
    if head is None:
        return None
    nums = [int(x) for x in head.groups()]
    _check_counts(2, *nums[-2:])
    pos, sections = head.end(), []
    for tag, count in zip(tags, nums[-len(tags):]):
        end = pos
        while (nxt := _ROWS[tag].match(data, end).end()) > end:
            end = nxt
        rows = np.fromstring(data[pos:end].translate(None, tag), dtype=np.int64, sep=" ")
        if len(rows) != 2 * count:
            return None
        sections.append(rows.reshape(-1, 2))
        pos = end
    vcount, (u, v) = nums[-2], sections[-1].T
    if pos < len(data) or not (v < vcount).all() \
            or not (u < v).all() or not (np.diff(u * vcount + v) > 0).all():
        return None
    return nums, sections


class _LineReader:
    def __init__(self, path):
        self.rows = []  # (lineno, tokens)
        # undecodable bytes become lone surrogates, which strict encoding rejects
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if not raw.isascii():
                    try:
                        raw.encode("utf-8")
                    except UnicodeEncodeError:
                        raise ParseError(lineno, "line is not valid UTF-8") from None
                text = raw.strip()
                if not text or text.startswith("#"):
                    continue
                self.rows.append((lineno, text.split()))
        self.pos = 0

    def next(self, what: str) -> tuple[int, list[str]]:
        if self.pos >= len(self.rows):
            last = self.rows[-1][0] if self.rows else 0
            raise ParseError(last + 1, f"unexpected end of file, expected {what}")
        row = self.rows[self.pos]
        self.pos += 1
        return row

    def done(self) -> None:
        if self.pos < len(self.rows):
            lineno, toks = self.rows[self.pos]
            raise ParseError(lineno, f"unexpected extra line {' '.join(toks)!r}")


def _int_field(lineno: int, token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(lineno, f"{what} is not an integer: {token!r}") from None


def _read_edges(reader: _LineReader, count: int, vertex_count: int) -> np.ndarray:
    edges = []  # grown line by line: no array is sized by an unchecked header count
    prev = (-1, -1)
    for _ in range(count):
        lineno, toks = reader.next("an 'e <u> <v>' line")
        if len(toks) != 3 or toks[0] != "e":
            raise ParseError(lineno, f"expected 'e <u> <v>', got {' '.join(toks)!r}")
        u = _int_field(lineno, toks[1], "endpoint")
        v = _int_field(lineno, toks[2], "endpoint")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ParseError(lineno, f"endpoint outside [0, {vertex_count})")
        if u >= v:
            raise ParseError(lineno, f"edge ({u}, {v}) must have u < v")
        if (u, v) <= prev:
            raise ParseError(lineno, "edges out of lexicographic order or duplicated")
        prev = (u, v)
        edges.append(prev)
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def _check_counts(lineno: int, vcount: int, ecount: int) -> None:
    if not (0 <= vcount <= MAX_VERTICES and ecount >= 0):
        raise ParseError(lineno, f"need 0 <= vertex count <= {MAX_VERTICES} and edge count >= 0")
    if vcount > MAX_FILE_VERTICES:
        raise SizeGuard(f"line {lineno}: {vcount} vertices; guard is {MAX_FILE_VERTICES}")


def read_split(path) -> SplitGraph:
    parsed = _bulk_parse(path, _SPLIT_HEADER, (b"b", b"e"))
    if parsed is not None:
        (n, k, vcount, _), (b, e) = parsed
        if np.array_equal(b[:, 0], np.arange(vcount)) and (b[:, 1] < n).all():
            return SplitGraph(Graph(vcount, e), b[:, 1].copy(), n, k)
    return _scan_split(path)


def read_graph(path) -> Graph:
    parsed = _bulk_parse(path, _GRAPH_HEADER, (b"e",))
    return _scan_graph(path) if parsed is None else Graph(parsed[0][0], parsed[1][0])


def _scan_split(path) -> SplitGraph:
    reader = _LineReader(path)
    lineno, toks = reader.next("'splitgraph 1' header")
    if toks != ["splitgraph", "1"]:
        raise ParseError(lineno, "expected header 'splitgraph 1'")
    lineno, toks = reader.next("'n <n> k <k> v <V> e <E>' line")
    if len(toks) != 8 or toks[0] != "n" or toks[2] != "k" or toks[4] != "v" or toks[6] != "e":
        raise ParseError(lineno, "expected 'n <n> k <k> v <V> e <E>'")
    n = _int_field(lineno, toks[1], "n")
    k = _int_field(lineno, toks[3], "k")
    vcount = _int_field(lineno, toks[5], "vertex count")
    ecount = _int_field(lineno, toks[7], "edge count")
    _check_counts(lineno, vcount, ecount)
    blob_of = []
    for vid in range(vcount):
        lineno, toks = reader.next("a 'b <vid> <blobid>' line")
        if len(toks) != 3 or toks[0] != "b":
            raise ParseError(lineno, f"expected 'b <vid> <blobid>', got {' '.join(toks)!r}")
        got = _int_field(lineno, toks[1], "vertex id")
        if got != vid:
            raise ParseError(lineno, f"vertex ids must ascend from 0; expected {vid}, got {got}")
        blob = _int_field(lineno, toks[2], "blob id")
        if not 0 <= blob < n:
            raise ParseError(lineno, f"blob id {blob} outside [0, {n})")
        blob_of.append(blob)
    edges = _read_edges(reader, ecount, vcount)
    reader.done()
    return SplitGraph(Graph(vcount, edges), blob_of, n, k)


def _scan_graph(path) -> Graph:
    reader = _LineReader(path)
    lineno, toks = reader.next("'graph 1' header")
    if toks != ["graph", "1"]:
        raise ParseError(lineno, "expected header 'graph 1'")
    lineno, toks = reader.next("'v <V> e <E>' line")
    if len(toks) != 4 or toks[0] != "v" or toks[2] != "e":
        raise ParseError(lineno, "expected 'v <V> e <E>'")
    vcount = _int_field(lineno, toks[1], "vertex count")
    ecount = _int_field(lineno, toks[3], "edge count")
    _check_counts(lineno, vcount, ecount)
    edges = _read_edges(reader, ecount, vcount)
    reader.done()
    return Graph(vcount, edges)
