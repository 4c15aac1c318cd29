"""Forbidden-subgraph checks.

`contains_subgraph` is the exhaustive backtracking oracle (ground truth for
small patterns).  `is_c4_free` and `is_kst_free` are the fast family
checkers; their verdicts agree with the oracle, which the test suite asserts
on a seeded random corpus.  All containment is plain subgraph containment,
never induced.

`check_forbidden` picks the checker from the pattern's shape alone: a
complete bipartite pattern (C4, K<s>,<t>, S<t>; its `sides` are set) goes to
`is_c4_free` for K2,2 and to `is_kst_free` otherwise, and every other
pattern (other cycles, paths, `file:` graphs) goes to the oracle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (GrammarError, InstanceTooLarge, InvariantViolation, ParameterError,
                     PatternTooLarge, SizeGuard)
from .formats import MAX_FILE_VERTICES
from .graphs import Graph, connected_components, read_graph

ORACLE_PATTERN_CAP = 12   # contains_subgraph is for desk-scale cross-checks
ORACLE_WORK_CAP = 1 << 26  # pool elements contains_subgraph may scan (about a second)
KST_ENUM_CAP = 1 << 12    # host-size cap for the exhaustive s >= 3 search
WEDGE_BLOCK = 1 << 16     # wedges sorted at once by the common-neighbor scan


@dataclass(frozen=True)
class ForbiddenGraph:
    sides: tuple | None  # pattern vertex ids of a complete bipartite pattern's sides, else None
    graph: Graph
    spec: str

    @cached_property
    def is_tree(self) -> bool:
        """Connected with V - 1 edges; the search runs once per pattern."""
        g = self.graph
        return g.M == g.V - 1 and int(connected_components(g).max()) == 0


def _sized(spec: str, vcount: int, ecount: int) -> None:
    """Refuse a pattern above the file guard before any of it is built."""
    if max(vcount, ecount) > MAX_FILE_VERTICES:
        raise SizeGuard(f"{spec} has {vcount} vertices and {ecount} edges; "
                        f"guard is {MAX_FILE_VERTICES}")


def _cycle(k: int) -> Graph:
    i = np.arange(k, dtype=np.int64)
    return Graph(k, np.column_stack((i, (i + 1) % k)))


def _biclique(s: int, t: int) -> Graph:
    left = np.repeat(np.arange(s, dtype=np.int64), t)
    return Graph(s + t, np.column_stack((left, s + np.tile(np.arange(t, dtype=np.int64), s))))


def _path(k: int) -> Graph:
    i = np.arange(k - 1, dtype=np.int64)
    return Graph(k, np.column_stack((i, i + 1)))


def parse_forbidden_spec(spec: str) -> ForbiddenGraph:
    """Parse `C<k>` | `K<s>,<t>` | `S<t>` | `P<k>` | `file:<path>`."""
    if m := re.fullmatch(r"C(\d+)", spec):
        k = int(m.group(1))
        if k < 3:
            raise ParameterError(f"cycle length must be >= 3, got {k}")
        _sized(spec, k, k)
        return ForbiddenGraph(((0, 2), (1, 3)) if k == 4 else None, _cycle(k), spec)
    if m := re.fullmatch(r"K(\d+),(\d+)", spec):
        s, t = int(m.group(1)), int(m.group(2))
        if not 1 <= s <= t:
            raise ParameterError(f"biclique needs 1 <= s <= t, got ({s}, {t})")
        _sized(spec, s + t, s * t)
        return ForbiddenGraph((range(s), range(s, s + t)), _biclique(s, t), spec)
    if m := re.fullmatch(r"S(\d+)", spec):
        t = int(m.group(1))
        if t < 1:
            raise ParameterError(f"star needs t >= 1, got {t}")
        _sized(spec, t + 1, t)
        return ForbiddenGraph((range(1), range(1, t + 1)), _biclique(1, t), spec)
    if m := re.fullmatch(r"P(\d+)", spec):
        k = int(m.group(1))
        if k < 2:
            raise ParameterError(f"path needs >= 2 vertices, got {k}")
        _sized(spec, k, k - 1)
        return ForbiddenGraph(None, _path(k), spec)
    if m := re.fullmatch(r"file:(.+)", spec):
        return ForbiddenGraph(None, read_graph(m.group(1)), spec)
    raise GrammarError(f"unrecognized forbidden-graph spec {spec!r}")


# ---------------------------------------------------------------------------
# Backtracking oracle
# ---------------------------------------------------------------------------

def contains_subgraph(g: Graph, h: ForbiddenGraph) -> dict[int, int] | None:
    """First embedding of h into g (pattern vertex -> host vertex), or None.

    Pattern vertices are tried in a static high-degree-first order; host
    candidates are pruned by degree and by adjacency to already-placed
    pattern neighbors, and scanned in ascending id order, so the returned
    embedding is deterministic.  A host vertex's neighbor set is built from
    the CSR when the search first places it.  The work, counted per step as
    the smallest pool intersected (the host's vertex count for a pattern
    vertex with no placed neighbor), is capped at ORACLE_WORK_CAP.
    """
    hg = h.graph
    if hg.V > ORACLE_PATTERN_CAP:
        raise PatternTooLarge(f"pattern has {hg.V} > {ORACLE_PATTERN_CAP} vertices")
    if hg.V > g.V or hg.M > g.M:
        return None

    h_deg = hg.degrees().tolist()
    order = sorted(range(hg.V), key=lambda v: (-h_deg[v], v))
    # pattern neighbors of order[i] that are placed before step i
    earlier = [[w for w in order[:i] if hg.has_edge(v, w)] for i, v in enumerate(order)]

    g_adj: dict[int, set[int]] = {}  # neighbor sets of the host vertices placed so far
    g_deg = g.degrees().tolist()
    image = [-1] * hg.V
    used: set[int] = set()
    work = 0

    def place(i: int) -> bool:
        nonlocal work
        if i == hg.V:
            return True
        hv = order[i]
        if earlier[i]:
            pools = [g_adj[image[w]] for w in earlier[i]]
            pools.sort(key=len)
            work += len(pools[0])
            cands = sorted(pools[0].intersection(*pools[1:]))
        else:
            work += g.V
            cands = range(g.V)
        if work > ORACLE_WORK_CAP:
            raise InstanceTooLarge(f"subgraph search for {h.spec} passed its work cap "
                                   f"{ORACLE_WORK_CAP} on a host of {g.V} vertices")
        need = h_deg[hv]
        for gv in cands:
            if gv in used or g_deg[gv] < need:
                continue
            if gv not in g_adj:
                g_adj[gv] = set(g.neighbors(gv).tolist())
            image[hv] = gv
            used.add(gv)
            if place(i + 1):
                return True
            used.discard(gv)
            image[hv] = -1
        return False

    if place(0):
        return _verified(g, h, {hv: image[hv] for hv in range(hg.V)})
    return None


def verify_embedding(g: Graph, h: ForbiddenGraph, mapping: dict[int, int]) -> bool:
    """Independent witness check: injectivity plus one adjacency query per
    pattern edge."""
    if len(set(mapping.values())) != h.graph.V or len(mapping) != h.graph.V:
        return False
    return all(g.has_edge(mapping[u], mapping[v]) for u, v in h.graph.edges.tolist())


def _verified(g: Graph, h: ForbiddenGraph, mapping: dict[int, int]) -> dict[int, int]:
    """The mapping, once verify_embedding accepts it as a witness of h in g."""
    if not verify_embedding(g, h, mapping):
        raise InvariantViolation(f"checker returned a false {h.spec} witness {mapping}")
    return mapping


# ---------------------------------------------------------------------------
# Family checkers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BicliqueWitness:
    """Vertex sets with every left-right pair adjacent in the host."""
    left: tuple[int, ...]
    right: tuple[int, ...]


def _pair_with_common_at_least(g: Graph, t: int) -> tuple[int, int] | None:
    """Lexicographically smallest vertex pair with >= t common neighbors.

    Wedges (u, c, w) with u < w, keyed u*V+w, are built from the CSR arrays for blocks of
    consecutive low endpoints u (at most WEDGE_BLOCK wedges unless one u alone has more),
    sorted and scanned for a run of t equal keys.  A pair's wedges all fall in its low
    endpoint's block and blocks ascend in u, so the first block with a run holds the answer.
    """
    V = g.V
    indptr, nb = g.csr()
    deg = np.diff(indptr)
    rowkeys = np.repeat(np.arange(V, dtype=np.int64) * V, deg) + nb
    # bound[u] >= wedges of the low endpoints below u (all w in N(c) but u counted)
    bound = np.concatenate(([0], np.cumsum(deg[nb] - 1)))[indptr]
    a = 0
    while a < V:
        b = max(int(np.searchsorted(bound, bound[a] + WEDGE_BLOCK, side="right")) - 1, a + 1)
        u = np.repeat(np.arange(a, b, dtype=np.int64), deg[a:b])
        c = nb[indptr[a]:indptr[b]]
        # row c lists u itself; its neighbors after u are the w > u
        lo = np.searchsorted(rowkeys, c * V + u, side="right")
        count = indptr[c + 1] - lo
        total = int(count.sum())
        if total >= t:
            pos = np.repeat(lo - (np.cumsum(count) - count), count) + np.arange(total)
            keys = nb[pos] + np.repeat(u * V, count)
            keys.sort()
            runs = keys[t - 1:] == keys[:total - t + 1]
            if runs.any():
                key = int(keys[int(runs.argmax())])
                return key // V, key % V
        a = b
    return None


def is_c4_free(g: Graph) -> BicliqueWitness | None:
    """None iff no two vertices share two common neighbors; otherwise the
    lexicographically first offending pair with two shared neighbors."""
    return is_kst_free(g, 2, 2)


def _kst_enumerate(g: Graph, s: int, t: int) -> BicliqueWitness | None:
    """Exhaustive search for s vertices with t common neighbors via Python-int
    bitset intersections, in ascending lexicographic order."""
    if g.V > KST_ENUM_CAP:
        raise InstanceTooLarge(
            f"exhaustive K_{{s,t}} search capped at {KST_ENUM_CAP} vertices, host has {g.V}")
    deg = g.degrees()
    candidates = [v for v in range(g.V) if deg[v] >= t]
    bitrow = [0] * g.V  # bit i of bitrow[v] set iff i is adjacent to v
    for u, w in g.edges.tolist():
        bitrow[u] |= 1 << w
        bitrow[w] |= 1 << u

    # depth d holds the next candidate index to try and the common neighbors of the
    # d vertices chosen so far (-1, every bit, at depth 0); candidates[starts[d] - 1]
    # is the vertex chosen at depth d
    starts, commons = [0], [-1]
    while starts:
        idx = starts[-1]
        if idx == len(candidates):
            del starts[-1], commons[-1]
            continue
        starts[-1] = idx + 1
        common = commons[-1] & bitrow[candidates[idx]]
        if common.bit_count() < t:
            continue
        if len(starts) == s:
            right = [i for i, bit in enumerate(bin(common)[:1:-1]) if bit == "1"][:t]
            return BicliqueWitness(tuple(candidates[i - 1] for i in starts), tuple(right))
        starts.append(idx + 1)
        commons.append(common)
    return None


def is_kst_free(g: Graph, s: int, t: int) -> BicliqueWitness | None:
    """None iff g contains no K_{s,t}; otherwise a biclique witness.

    s=1 reduces to a max-degree check, s=2 to common-neighbor counting over
    vertex pairs, s>=3 to capped exhaustive enumeration.
    """
    if not 1 <= s <= t:
        raise ParameterError(f"need 1 <= s <= t, got ({s}, {t})")
    if s == 1:
        deg = g.degrees()
        over = np.flatnonzero(deg >= t)
        if not len(over):
            return None
        v = int(over[0])
        return BicliqueWitness((v,), tuple(g.neighbors(v)[:t].tolist()))
    if s == 2:
        pair = _pair_with_common_at_least(g, t)
        if pair is None:
            return None
        common = g.common_neighbors(*pair)[:t]
        return BicliqueWitness(pair, tuple(int(w) for w in common))
    return _kst_enumerate(g, s, t)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def check_forbidden(g: Graph, h: ForbiddenGraph) -> dict[int, int] | None:
    """Embedding of h in g (None if g is h-free): the biclique checker for a
    complete bipartite h, the oracle otherwise; every witness is re-verified
    before being returned."""
    if h.sides is None:
        return contains_subgraph(g, h)
    left, right = h.sides
    s, t = len(left), len(right)
    w = is_c4_free(g) if (s, t) == (2, 2) else is_kst_free(g, s, t)
    return None if w is None else _verified(g, h, dict(zip([*left, *right], w.left + w.right)))


def witness_json(mapping: dict[int, int] | None) -> dict:
    if mapping is None:
        return {"found": False, "mapping": []}
    return {"found": True, "mapping": [[hv, gv] for hv, gv in sorted(mapping.items())]}
