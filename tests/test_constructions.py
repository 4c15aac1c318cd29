"""Constructions: prime search, affine plane and its split, the C4-free
pipeline, bipartite and star splits, coloring-based splits, round robins."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (FieldElement, all_pairs, circle_method_coloring, complete_graph,
                      crossed_blob_pairs, field_add, field_mul)
from splitfree import constructions
from splitfree.constructions import (
    EdgeColoring,
    build_affine_plane,
    build_affine_split,
    build_bipartite_split,
    build_split_from_coloring,
    build_star_free_split,
    construct_c4_free_split,
    next_prime,
    pipeline_parameters,
    read_coloring,
    round_robin_coloring,
    round_robin_rounds,
    star_blob_size,
    write_coloring,
)
from splitfree.errors import (
    ColoringIncomplete,
    CompositeCharacteristic,
    ParameterError,
    SizeGuard,
)
from splitfree.freeness import contains_subgraph, is_c4_free, is_kst_free, parse_forbidden_spec
from splitfree.graphs import (
    Graph,
    connected_components,
    prune_to_split,
    restrict_blobs,
    two_coloring,
    verify_split,
    write_split,
)


def test_next_prime_examples():
    assert next_prime(10) == 11
    assert next_prime(11) == 11
    assert next_prime(24) == 29
    with pytest.raises(ParameterError):
        next_prime(1)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_affine_plane_invariants(p):
    plane = build_affine_plane(p)
    f, q = plane.field, p * p
    g = plane.incidence_graph()
    assert g.V == 2 * q * q and g.M == q ** 3
    deg = g.degrees()
    assert (deg == q).all()  # every point on q lines, every line has q points
    # the points of line y = m*x + b, by scalar field arithmetic (not mul_arrays),
    # are its neighbors; the lines of one parallel class partition the points
    elems = [FieldElement(i % p, i // p) for i in range(q)]  # canonical index c1*p + c0
    for mi, m in enumerate(elems):
        seen = []
        for bi, b in enumerate(elems):
            ys = [field_add(f, field_mul(f, m, x), b) for x in elems]
            on_line = sorted(xi * q + y.c1 * p + y.c0 for xi, y in enumerate(ys))
            assert g.neighbors(q * q + mi * q + bi).tolist() == on_line
            seen += on_line
        assert sorted(seen) == list(range(q * q))
    assert is_c4_free(g) is None
    assert two_coloring(g) is not None  # incidence graphs are bipartite


def test_affine_plane_guards():
    with pytest.raises(CompositeCharacteristic):
        build_affine_plane(4)
    with pytest.raises(SizeGuard, match="guard is p <= 31"):
        build_affine_plane(37)
    assert build_affine_plane(31).q == 961  # the largest admitted p builds only the field


@pytest.mark.parametrize("p", [2, 3])
def test_affine_split_blob_structure(p):
    s = build_affine_split(p)
    q = p * p
    assert s.n == p ** 3 and s.k == 2 * p
    assert s.graph.V == 2 * q * q
    assert (s.blob_sizes() == 2 * p).all()
    # each blob: p points (ids below q^2) and p lines
    assert (np.bincount(s.blob_of[:q * q], minlength=s.n) == p).all()
    assert (np.bincount(s.blob_of[q * q:], minlength=s.n) == p).all()
    assert verify_split(s, "lax").passed
    assert is_c4_free(s.graph) is None

    # every (point-blob, line-blob) pair spans an edge -- exhaustively;
    # the construction in fact gives exactly one such incidence
    e = s.graph.edges
    point_blob = s.blob_of[e[:, 0]]
    line_blob = s.blob_of[e[:, 1]]
    counts = np.bincount(point_blob * s.n + line_blob, minlength=s.n * s.n)
    assert (counts.reshape(s.n, s.n) == 1).all()


def test_affine_split_examples():
    s2 = build_affine_split(2)
    assert (s2.n, s2.k, s2.graph.V) == (8, 4, 32)
    s3 = build_affine_split(3)
    assert (s3.n, s3.k, s3.graph.V) == (27, 6, 162)


def test_affine_split_contracts_to_complete():
    from splitfree.graphs import prune_to_split

    pruned = prune_to_split(build_affine_split(2))
    assert crossed_blob_pairs(pruned) == all_pairs(8)


def test_affine_split_deterministic(tmp_path):
    a, b = tmp_path / "a.sg", tmp_path / "b.sg"
    write_split(build_affine_split(3), a)
    write_split(build_affine_split(3), b)
    assert a.read_bytes() == b.read_bytes()


def test_pipeline_parameters_examples():
    assert pipeline_parameters(1000) == (100, 10, 11)
    assert pipeline_parameters(27) == (9, 3, 3)
    assert pipeline_parameters(100000) == (2155, 47, 47)


def _bisected_ceil_root(value: int, exponent: int) -> int:
    lo, hi = -1, max(value, 1)  # lo**e < value <= hi**e, for value >= 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if mid ** exponent >= value else (mid, hi)
    return hi if value > 0 else 0


def test_ceil_root_matches_bisection():
    rng = np.random.default_rng(5)
    values = list(range(-2, 3000)) + [int(rng.integers(1, 10 ** 18)) * 10 ** int(k) + int(j)
                                      for k, j in rng.integers(0, 100, size=(500, 2))]
    values += [r ** 3 + d for r in (10 ** 20, 2 ** 70) for d in (-1, 0, 1)]
    for v in values:
        for e in (2, 3, 5):
            assert constructions._ceil_root(v, e) == _bisected_ceil_root(v, e), (v, e)
    assert constructions._ceil_root(10 ** 120, 3) == 10 ** 40  # exact, and at once


def test_pipeline_prime_cube_covers_n():
    # p >= k0, k0^2 >= N and N^3 >= n^2 give p^3 >= n, so no larger prime is ever needed
    assert all(pipeline_parameters(n)[2] ** 3 >= n for n in range(8, 29792))


def test_pipeline_small():
    s = construct_c4_free_split(27)
    assert s.n == 27 and s.k == 6
    assert verify_split(s, "strict").passed
    assert is_c4_free(s.graph) is None
    with pytest.raises(ParameterError):
        construct_c4_free_split(7)


@pytest.mark.parametrize("p", [2, 3])
def test_incidence_graph_is_the_brute_force_incidence_graph(p):
    # every (point, line) pair tested with the scalar field reference: y = m*x + b
    f, q = build_affine_plane(p).field, p * p
    elems = [FieldElement(i % p, i // p) for i in range(q)]  # canonical index c1*p + c0
    edges = [(xi * q + yi, q * q + mi * q + bi)
             for xi, x in enumerate(elems) for yi, y in enumerate(elems)
             for mi, m in enumerate(elems) for bi, b in enumerate(elems)
             if field_add(f, field_mul(f, m, x), b) == y]
    expected = Graph(2 * q * q, np.array(edges))
    assert expected.M == q ** 3
    assert build_affine_plane(p).incidence_graph() == expected


def test_pipeline_is_the_pruned_restriction():
    # the closed form against the lax affine split, restricted and then pruned:
    # n = p^3 takes every blob of the plane over GF(p^2), p^3 + 1 needs the next prime's
    seeded = np.random.default_rng(23).integers(8, 1001, size=3).tolist()
    cubes = [n for p in (2, 3, 5, 7) for n in (p ** 3, p ** 3 + 1)]
    affine = functools.cache(build_affine_split)
    for n in sorted({*cubes, 100, 500, *seeded}):
        p = pipeline_parameters(n)[2]
        assert construct_c4_free_split(n) == prune_to_split(restrict_blobs(affine(p), n)), n


def test_pipeline_peak_memory_is_below_the_lax_graph():
    # p = 11: the p^6 lax incidences alone would take 16 B each as an edge array;
    # the closed form stays under 112 B per blob pair of the strict split
    tracemalloc.start()
    try:
        split = construct_c4_free_split(500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert split.k == 22
    assert peak < 112 * (500 * 499 // 2)


def test_pipeline_blob_size_vs_target():
    # blob size 2p stays within 1.25x of 2*n^(1/3) across the supported sweep
    for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
        _, _, p = pipeline_parameters(n)
        assert 2 * p / (2 * n ** (1 / 3)) <= 1.25


def test_pipeline_size_guard():
    with pytest.raises(SizeGuard):
        construct_c4_free_split(10 ** 5)  # needs p=47 > the guard


def test_pipeline_guard_boundary(monkeypatch):
    # the pipeline prime is 7 at n = 343 = 7^3 and 11 at n = 344
    monkeypatch.setattr(constructions, "MAX_AFFINE_P", 7)
    assert construct_c4_free_split(343).k == 14
    with pytest.raises(SizeGuard, match="needs p=11 > 7"):
        construct_c4_free_split(344)


def test_bipartite_split_examples():
    s = build_bipartite_split(3)
    assert s.graph.V == 6 and s.graph.M == 3
    assert verify_split(s, "strict").passed
    assert contains_subgraph(s.graph, parse_forbidden_spec("C3")) is None

    assert build_bipartite_split(2).graph.M == 1

    s50 = build_bipartite_split(50)
    assert two_coloring(s50.graph) is not None
    assert contains_subgraph(s50.graph, parse_forbidden_spec("C5")) is None
    with pytest.raises(ParameterError):
        build_bipartite_split(1)


def test_bipartite_and_star_size_guard(monkeypatch):
    # refused from n(n-1)/2 before anything of that size is built; huge n is
    # run in a memory-limited child in test_cli
    monkeypatch.setattr(constructions, "MAX_SPLIT_PAIRS", 45)  # exactly n = 10
    assert build_bipartite_split(10).graph.M == build_star_free_split(10, 3).graph.M == 45
    for build in (build_bipartite_split, lambda n: build_star_free_split(n, 3)):
        with pytest.raises(SizeGuard):
            build(11)


def two_c5_coloring() -> EdgeColoring:
    """K_5 as two edge-disjoint 5-cycles, one per color."""
    cycle_a = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    cycle_b = [(0, 2), (2, 4), (1, 4), (1, 3), (0, 3)]
    color = {tuple(sorted(e)): 0 for e in cycle_a}
    color.update({tuple(sorted(e)): 1 for e in cycle_b})
    return EdgeColoring(5, 2, color)


def test_split_from_coloring_two_c5s():
    s = build_split_from_coloring(two_c5_coloring())
    assert s.n == 5 and s.k == 2 and s.graph.V == 10
    assert verify_split(s, "strict").passed
    assert contains_subgraph(s.graph, parse_forbidden_spec("C3")) is None
    labels = connected_components(s.graph)
    assert labels.max() == 1  # exactly two components
    for comp in (0, 1):
        members = np.flatnonzero(labels == comp)
        assert len(members) == 5
        degs = s.graph.degrees()[members]
        assert (degs == 2).all()  # 5 vertices, all degree 2, connected: a C5


def test_split_from_coloring_single_color():
    c = EdgeColoring(4, 1, {(i, j): 0 for i in range(4) for j in range(i + 1, 4)})
    s = build_split_from_coloring(c)
    assert s.k == 1 and s.graph == complete_graph(4)


def test_split_from_coloring_copies_color_classes():
    c = two_c5_coloring()
    s = build_split_from_coloring(c)
    # copy l lives on vertices {i*k + l}: it must be isomorphic to color class l
    for colr in range(c.colors):
        copy_edges = {(u // c.colors, v // c.colors)
                      for u, v in s.graph.edges.tolist()
                      if u % c.colors == colr and v % c.colors == colr}
        class_edges = {pair for pair, cc in c.color_of.items() if cc == colr}
        assert copy_edges == class_edges
    # no edges between copies
    assert all(u % c.colors == v % c.colors for u, v in s.graph.edges.tolist())


def test_split_from_coloring_incomplete():
    # a coloring is refused when it is made, naming its first uncolored pair
    with pytest.raises(ColoringIncomplete, match=r"^pair \(1, 2\) has no color$"):
        EdgeColoring(3, 2, {(0, 1): 0, (0, 2): 1})
    with pytest.raises(ColoringIncomplete, match=r"^pair \(3, 4\) has no color$"):
        EdgeColoring(5, 2, {pair: 0 for pair in all_pairs(5) - {(3, 4)}})


def test_coloring_io_round_trip(tmp_path):
    c = two_c5_coloring()
    path = tmp_path / "c.ec"
    write_coloring(c, path)
    assert read_coloring(path) == c


def test_round_robin_examples():
    rr4 = round_robin_coloring(4)
    assert rr4.colors == 3 and len(rr4.color_of) == 6
    rr7 = round_robin_coloring(7)
    assert rr7.colors == 7 and len(rr7.color_of) == 21
    per_round = {}
    for (i, j), r in rr7.color_of.items():
        per_round.setdefault(r, []).append((i, j))
    assert all(len(edges) == 3 for edges in per_round.values())


@given(st.integers(2, 40))
@settings(max_examples=40, deadline=None)
def test_round_robin_is_proper(n):
    rr = round_robin_coloring(n)
    assert rr.colors == round_robin_rounds(n) == (n - 1 if n % 2 == 0 else n)
    assert len(rr.color_of) == n * (n - 1) // 2
    seen = set()
    for (i, j), r in rr.color_of.items():
        assert (i, r) not in seen and (j, r) not in seen  # one edge per vertex per round
        seen.add((i, r))
        seen.add((j, r))


@pytest.mark.parametrize("n", [*range(2, 65), 101, 250, 1000])
def test_round_robin_is_the_circle_method(n):
    assert round_robin_coloring(n).color_of == circle_method_coloring(n)


def test_star_blob_size_counts_round_robin_rounds():
    for n in range(3, 30):
        rounds = round_robin_coloring(n).colors
        for t in range(2, 8):
            assert star_blob_size(n, t) == -(-rounds // (t - 1))
    assert build_star_free_split(9, 3).k == star_blob_size(9, 3) == 5


def test_star_free_split_examples():
    s = build_star_free_split(8, 4)
    assert s.n == 8 and s.k == 3
    assert int(s.graph.degrees().max()) <= 3
    assert is_kst_free(s.graph, 1, 4) is None
    assert verify_split(s, "strict").passed

    assert build_star_free_split(7, 4).k == 3
    s10 = build_star_free_split(10, 2)
    assert s10.k == 9 and int(s10.graph.degrees().max()) <= 1

    with pytest.raises(ParameterError):
        build_star_free_split(10, 1)


@given(st.integers(3, 40), st.integers(2, 6))
@settings(max_examples=50, deadline=None)
def test_star_free_split_properties(n, t):
    s = build_star_free_split(n, t)
    rounds = n - 1 if n % 2 == 0 else n
    assert s.k == -(-rounds // (t - 1))
    assert -(-(n - 1) // (t - 1)) <= s.k <= -(-n // (t - 1)) + 1
    assert int(s.graph.degrees().max()) <= t - 1
    assert verify_split(s, "strict").passed


def test_coloring_header_guard_counts_split_vertices(tmp_path, monkeypatch):
    from splitfree import formats
    from splitfree.errors import ParameterError, ParseError, SizeGuard

    # every round robin the star guard admits (n <= 4096) fits under the file guard
    assert 4096 * round_robin_rounds(4096) <= formats.MAX_FILE_VERTICES
    monkeypatch.setattr(formats, "MAX_FILE_VERTICES", 10)
    path = tmp_path / "c.ec"
    write_coloring(two_c5_coloring(), path)        # 5 * 2 = 10 vertices: at the guard
    assert read_coloring(path) == two_c5_coloring()
    path.write_text("coloring 1\nn 5 colors 3\nc 0 1 0\n")
    with pytest.raises(SizeGuard, match="line 2: 15 vertices; guard is 10"):
        read_coloring(path)
    # no split is built from a nonpositive count: those keep their own errors
    path.write_text("coloring 1\nn -5 colors -3\n")
    with pytest.raises(ParameterError):
        read_coloring(path)
    path.write_text("coloring 1\nn 100 colors 0\nc 0 1 0\n")
    with pytest.raises(ParseError, match="color 0 outside"):
        read_coloring(path)
