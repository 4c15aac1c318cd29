"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the package's numpy code paths: they
recount things with plain Python dicts and itertools so that test
expectations are computed on an independent route.
"""

from __future__ import annotations

import faulthandler
import itertools
import os
import sys
from typing import NamedTuple

import numpy as np
import pytest

from splitfree.errors import NotALaxSplit
from splitfree.fields import Field
from splitfree.freeness import BicliqueWitness
from splitfree.graphs import Graph, SplitGraph, _cross_pair_keys, _missing_pairs

HANG_LIMIT_S = 600  # a test still running after this long has hung: dump every thread and exit
TERMINAL_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # output capture is off while plugins configure, so fd 2 is still the terminal's
    config.stash[TERMINAL_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[TERMINAL_STDERR])


@pytest.fixture(autouse=True)
def fail_a_hang(pytestconfig):
    """Ends the whole run with every thread's traceback when a test hangs,
    instead of stalling it; pytest-timeout is not a dependency."""
    faulthandler.dump_traceback_later(
        HANG_LIMIT_S, exit=True, file=pytestconfig.stash[TERMINAL_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()


def build_graph(vertex_count: int, edges) -> Graph:
    """Graph of an edge list that may repeat an edge, in either orientation;
    Graph itself refuses repeats."""
    e = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
    return Graph(vertex_count, np.unique(np.sort(e.reshape(-1, 2), axis=1), axis=0))


class FieldElement(NamedTuple):
    """c0 + c1*w in GF(p^2): the scalar reference for Field's array operations."""

    c0: int
    c1: int = 0


def field_check(f: Field, a: FieldElement) -> FieldElement:
    if not (0 <= a.c0 < f.p and 0 <= a.c1 < f.p):
        raise ValueError(f"{a} has coefficients outside [0, {f.p})")
    return a


def field_add(f: Field, a: FieldElement, b: FieldElement) -> FieldElement:
    field_check(f, a), field_check(f, b)
    return FieldElement((a.c0 + b.c0) % f.p, (a.c1 + b.c1) % f.p)


def field_mul(f: Field, a: FieldElement, b: FieldElement) -> FieldElement:
    field_check(f, a), field_check(f, b)
    # (a0 + a1 w)(b0 + b1 w) with w^2 = -r1 w - r0
    r0, r1 = f.reduction
    hi = a.c1 * b.c1
    return FieldElement((a.c0 * b.c0 - hi * r0) % f.p,
                        (a.c0 * b.c1 + a.c1 * b.c0 - hi * r1) % f.p)


def cycle_graph(k: int) -> Graph:
    return build_graph(k, [(i, (i + 1) % k) for i in range(k)])


def path_graph(k: int) -> Graph:
    return build_graph(k, [(i, i + 1) for i in range(k - 1)])


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def biclique_graph(s: int, t: int) -> Graph:
    return build_graph(s + t, [(i, s + j) for i in range(s) for j in range(t)])


@pytest.fixture
def c6() -> Graph:
    return cycle_graph(6)


def lexsort_prune(s: SplitGraph) -> SplitGraph:
    """The sort-based prune: crossing edges lexsorted by (blob pair, u, v), the
    first of each pair kept, then sorted again by Graph."""
    keys, cross = _cross_pair_keys(s)
    ec = s.graph.edges[cross]
    order = np.lexsort((ec[:, 1], ec[:, 0], keys))
    keys = keys[order]
    ec = ec[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    if int(first.sum()) != s.n * (s.n - 1) // 2:
        pair = next(_missing_pairs(keys[first], s.n))
        raise NotALaxSplit(f"blob pair {pair} has no crossing edge")
    return SplitGraph(Graph(s.graph.V, ec[first]), s.blob_of, s.n, s.k)


def brute_split_census(split: SplitGraph) -> dict:
    """Pure-Python recount of crossing/internal edges per blob pair."""
    blob = [int(b) for b in split.blob_of]
    pair_edges: dict[tuple[int, int], list[tuple[int, int]]] = {}
    internal = 0
    for u, v in split.graph.edges.tolist():
        bu, bv = blob[u], blob[v]
        if bu == bv:
            internal += 1
        else:
            pair_edges.setdefault((min(bu, bv), max(bu, bv)), []).append((u, v))
    missing = [(i, j) for i in range(split.n) for j in range(i + 1, split.n)
               if (i, j) not in pair_edges]
    multi = sum(1 for edges in pair_edges.values() if len(edges) >= 2)
    return {"pair_edges": pair_edges, "internal": internal,
            "missing": missing, "multi": multi}


def crossed_blob_pairs(split: SplitGraph) -> set[tuple[int, int]]:
    """Blob pairs (i < j) joined by at least one edge: the edges of the graph
    that contracting every blob leaves."""
    return set(brute_split_census(split)["pair_edges"])


def all_pairs(n: int) -> set[tuple[int, int]]:
    return {(i, j) for i in range(n) for j in range(i + 1, n)}


def _neighbor_sets(g: Graph) -> list[set[int]]:
    sets = [set() for _ in range(g.V)]
    for u, v in g.edges.tolist():
        sets[u].add(v)
        sets[v].add(u)
    return sets


def brute_contains_subgraph(g: Graph, h: Graph) -> bool:
    """Subgraph containment by raw enumeration of injective maps; only for
    tiny patterns and hosts."""
    g_adj = _neighbor_sets(g)
    h_edges = h.edges.tolist()
    for image in itertools.permutations(range(g.V), h.V):
        if all(image[v] in g_adj[image[u]] for u, v in h_edges):
            return True
    return False


def set_contains_subgraph(g: Graph, h: Graph) -> dict[int, int] | None:
    """The backtracking oracle over neighbor sets of every host vertex, built
    up front: the reference for the mapping `contains_subgraph` returns (same
    high-degree-first order, same ascending candidates), without its work cap."""
    h_adj = _neighbor_sets(h)
    h_deg = [len(a) for a in h_adj]
    order = sorted(range(h.V), key=lambda v: (-h_deg[v], v))
    pos_of = {v: i for i, v in enumerate(order)}
    earlier = [[w for w in h_adj[v] if pos_of[w] < i] for i, v in enumerate(order)]
    g_adj = _neighbor_sets(g)
    image = [-1] * h.V
    used: set[int] = set()

    def place(i: int) -> bool:
        if i == h.V:
            return True
        hv = order[i]
        if earlier[i]:
            pools = sorted((g_adj[image[w]] for w in earlier[i]), key=len)
            cands = sorted(pools[0].intersection(*pools[1:]))
        else:
            cands = range(g.V)
        for gv in cands:
            if gv in used or len(g_adj[gv]) < h_deg[hv]:
                continue
            image[hv] = gv
            used.add(gv)
            if place(i + 1):
                return True
            used.discard(gv)
            image[hv] = -1
        return False

    if h.V > g.V or h.M > g.M or not place(0):
        return None
    return dict(enumerate(image))


def circle_method_coloring(n: int) -> dict[tuple[int, int], int]:
    """The round-robin schedule of K_n round by round: in round r the fixed
    vertex m-1 meets r and (r+i) meets (r-i) mod m-1, with m = n + n % 2 and a
    dummy vertex n for odd n whose pairs are dropped.  The reference for
    `round_robin_coloring`'s closed form."""
    m = n + n % 2
    color_of = {}
    for r in range(m - 1):
        pairs = [(m - 1, r)] + [((r + i) % (m - 1), (r - i) % (m - 1)) for i in range(1, m // 2)]
        for a, b in pairs:
            if a < n and b < n:
                color_of[(min(a, b), max(a, b))] = r
    return color_of


def recursive_kst_enumerate(g: Graph, s: int, t: int) -> BicliqueWitness | None:
    """The exhaustive K_{s,t} search as one recursive call per chosen vertex,
    without the host-size cap: the witness reference for `_kst_enumerate`'s
    explicit stack (same ascending candidates, same lowest t common neighbors)."""
    deg = g.degrees()
    candidates = [v for v in range(g.V) if deg[v] >= t]
    bitrow = [0] * g.V
    for u, w in g.edges.tolist():
        bitrow[u] |= 1 << w
        bitrow[w] |= 1 << u

    def extend(chosen: list[int], common: int, start: int) -> BicliqueWitness | None:
        if len(chosen) == s:
            right = []
            bits = common
            while bits and len(right) < t:
                low = bits & -bits
                right.append(low.bit_length() - 1)
                bits ^= low
            return BicliqueWitness(tuple(chosen), tuple(right))
        for idx in range(start, len(candidates)):
            v = candidates[idx]
            nxt = common & bitrow[v] if chosen else bitrow[v]
            if nxt.bit_count() >= t:
                found = extend(chosen + [v], nxt, idx + 1)
                if found is not None:
                    return found
        return None

    return extend([], 0, 0)


def random_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    iu, iv = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < p
    return build_graph(n, np.column_stack((iu[mask], iv[mask])))


def seeded_corpus(count: int = 100, n: int = 30, p: float = 0.2, seed: int = 0):
    """The fixed random-graph corpus used for oracle agreement checks."""
    rng = np.random.default_rng(seed)
    return [random_graph(n, p, rng) for _ in range(count)]


# one line per acceptance criterion, filled by tests/test_acceptance.py
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
