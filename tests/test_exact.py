"""Exact f(n, H) at tiny n, against the interval that `bounds` reports.

The exact values come from the exhaustive search in `exact_split.py`: a
witness split at k = f, checked with `verify_split` and networkx's VF2, and
the search's "no split" verdict at k = f - 1.  An H-free (n, k)-split stays
one with an isolated copy added to a blob, so the two prove f exact.
"""

import random
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from exact_split import CLOSES, find_split
from splitfree.bounds import split_bounds
from splitfree.freeness import parse_forbidden_spec
from splitfree.graphs import Graph, SplitGraph, verify_split

PATTERNS = {"C4": nx.cycle_graph(4), "K2,3": nx.complete_bipartite_graph(2, 3),
            "S3": nx.star_graph(3), "S4": nx.star_graph(4), "C5": nx.cycle_graph(5),
            "P4": nx.path_graph(4)}
EXACT = {  # H -> {n: f(n, H)}
    "C4": {2: 1, 3: 1, 4: 2, 5: 2, 6: 2, 7: 2},
    "K2,3": {2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 2},
    "S3": {2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3, 8: 4, 9: 4},
    "S4": {2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 2, 8: 3, 9: 3},
    "C5": {2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 2, 8: 2},  # f = 2 from n = |V(C5)| on
    "P4": {2: 1, 3: 1, 4: 2, 5: 3, 6: 3, 7: 3},
}
BOUNDS = {  # H -> {n: (f_lower, f_upper)} as split_bounds reports them
    "C4": {2: (1, 1), 3: (1, 1), 4: (1, None), 5: (1, None), 6: (1, None), 7: (1, None)},
    "K2,3": {2: (1, 1), 3: (1, 1), 4: (1, 1), 5: (1, None), 6: (1, None), 7: (1, None)},
    "S3": {2: (1, 1), 3: (1, 1), 4: (1, 2), 5: (1, 3), 6: (2, 3), 7: (2, 4), 8: (3, 4),
           9: (3, 5)},
    "S4": {2: (1, 1), 3: (1, 1), 4: (1, 1), 5: (1, 2), 6: (1, 2), 7: (1, 3), 8: (2, 3),
           9: (2, 3)},
    "C5": {2: (1, 1), 3: (1, 1), 4: (1, 1), 5: (2, 2), 6: (2, 2), 7: (2, 2), 8: (2, 2)},
    "P4": {2: (1, 1), 3: (1, 1), 4: (1, 3.0), 5: (1, 4.0), 6: (1, 5.0), 7: (1, 6.0)},
}
ENTRIES = [(spec, n) for spec in EXACT for n in EXACT[spec]]


def contains(edges, spec: str) -> bool:
    host = nx.Graph(list(edges))
    return GraphMatcher(host, PATTERNS[spec]).subgraph_is_monomorphic()


@pytest.mark.parametrize("spec,n", ENTRIES)
def test_exact_f(spec, n):
    f = EXACT[spec][n]
    edges = find_split(spec, n, f)
    assert edges is not None
    split = SplitGraph(Graph(n * f, np.array(edges)), np.arange(n * f) // f, n, f)
    assert verify_split(split, "strict").passed
    assert not contains(edges, spec)
    assert f == 1 or find_split(spec, n, f - 1) is None


@pytest.mark.parametrize("spec", sorted(CLOSES))
def test_pattern_tests_agree_with_vf2(spec):
    """Adding a non-edge to an H-free graph creates H exactly when the search's
    pattern test says so; so the search prunes no H-free split."""
    rng = random.Random(16)
    checked = 0
    while checked < 40:
        v = rng.randint(4, 7)
        edges = [e for e in combinations(range(v), 2) if rng.random() < 0.4]
        if contains(edges, spec):
            continue
        adj = [0] * v
        for a, b in edges:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        for u, w in combinations(range(v), 2):
            if not adj[u] >> w & 1:
                assert CLOSES[spec](adj, u, w) == contains(edges + [(u, w)], spec), (u, w, edges)
        checked += 1


@pytest.mark.parametrize("spec,n", ENTRIES)
def test_bounds_bracket_the_exact_value(spec, n):
    report = split_bounds(parse_forbidden_spec(spec), n, certify=True)
    f = EXACT[spec][n]
    assert report.f_lower <= f
    assert report.f_upper is None or f <= report.f_upper
    assert report.achieved_k is None or report.achieved_k >= f
    assert (report.f_lower, report.f_upper) == BOUNDS[spec][n]


def test_gaps_between_the_bounds_and_the_exact_value():
    """Where `bounds` misses f today; each follows from how the bound or the
    construction is defined, none is unsound."""
    lower = {(s, n) for s, n in ENTRIES if BOUNDS[s][n][0] < EXACT[s][n]}
    # the K2,t counting bound excludes no k here, and the bipartite branch does
    # not use that K_n contains H; stars report f >= k by the strictness
    # convention, one below f; the tree bound ex(l, P4) <= 2l excludes no k
    assert lower == ({("C4", n) for n in range(4, 8)} | {("K2,3", n) for n in range(5, 8)}
                     | {("S3", n) for n in range(4, 10)} | {("S4", n) for n in range(5, 10)}
                     | {("P4", n) for n in range(4, 8)})
    assert all(EXACT[s][n] - BOUNDS[s][n][0] == 1 for s, n in lower if s[0] == "S")
    # the K2,t pipeline needs n >= 8
    assert {(s, n) for s, n in ENTRIES if BOUNDS[s][n][1] is None} == (
        {("C4", n) for n in range(4, 8)} | {("K2,3", n) for n in range(5, 8)})
    # stars at odd n have n round-robin rounds; P4's bound is uncertified
    upper = {(s, n) for s, n in ENTRIES if BOUNDS[s][n][1] not in (None, EXACT[s][n])}
    assert upper == ({("S3", 5), ("S3", 7), ("S3", 9), ("S4", 7)}
                     | {("P4", n) for n in range(4, 8)})
