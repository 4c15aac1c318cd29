"""Forbidden-subgraph checking: grammar, the backtracking oracle, the family
checkers, and their mutual agreement."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    biclique_graph,
    brute_contains_subgraph,
    build_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
    seeded_corpus,
)
from splitfree import formats, freeness
from splitfree.cli import run
from splitfree.constructions import (
    build_affine_split,
    build_bipartite_split,
    construct_c4_free_split,
)
from splitfree.errors import (
    GrammarError,
    InstanceTooLarge,
    InvariantViolation,
    ParameterError,
    PatternTooLarge,
    SizeGuard,
)
from splitfree.freeness import (
    BicliqueWitness,
    check_forbidden,
    contains_subgraph,
    is_c4_free,
    is_kst_free,
    parse_forbidden_spec,
    verify_embedding,
    witness_json,
)
from splitfree.graphs import (
    Graph,
    SplitGraph,
    prune_to_split,
    read_graph,
    write_graph,
    write_split,
)


def test_parse_examples():
    assert parse_forbidden_spec("C4").graph.degrees().tolist() == [2, 2, 2, 2]
    k23 = parse_forbidden_spec("K2,3")
    assert k23.graph.V == 5 and k23.graph.M == 6
    s3 = parse_forbidden_spec("S3")
    assert s3.graph.degrees().tolist() == [3, 1, 1, 1]
    assert parse_forbidden_spec("P4").graph.M == 3
    for bad in ("C2", "K3,2", "K0,1", "S0", "P1"):
        with pytest.raises(ParameterError):
            parse_forbidden_spec(bad)
    for junk in ("Q4", "C4,4", "K2", "", "c4"):
        with pytest.raises(GrammarError):
            parse_forbidden_spec(junk)


def test_parse_patterns_match_listed_edges():
    # the array-built patterns equal the graphs written out edge by edge
    for k in range(3, 9):
        assert parse_forbidden_spec(f"C{k}").graph == cycle_graph(k)
        assert parse_forbidden_spec(f"P{k}").graph == path_graph(k)
    for s, t in ((1, 1), (1, 4), (2, 2), (2, 5), (3, 3), (3, 4)):
        assert parse_forbidden_spec(f"K{s},{t}").graph == biclique_graph(s, t)
    assert parse_forbidden_spec("S4").graph == biclique_graph(1, 4)


def test_parse_size_guard_counts_the_spec():
    # refused from the spec's numbers alone: nothing of the pattern is built
    cap = freeness.MAX_FILE_VERTICES
    for spec in (f"C{cap + 1}", f"P{cap + 1}", f"S{cap}", f"K1,{cap}", f"K4,{cap // 4 + 1}",
                 f"K{cap},{cap}", "K2,100000000000000000000", f"S{10 ** 23}"):
        with pytest.raises(SizeGuard):
            parse_forbidden_spec(spec)


def test_parse_file(tmp_path):
    path = tmp_path / "h.g"
    write_graph(cycle_graph(5), path)
    h = parse_forbidden_spec(f"file:{path}")
    assert h.sides is None and not h.is_tree and h.graph == cycle_graph(5)
    write_graph(build_graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)]), path)
    assert parse_forbidden_spec(f"file:{path}").is_tree


def test_is_tree_reads_the_shape():
    shapes = {"P2": True, "P7": True, "S1": True, "S4": True, "K1,3": True,
              "C3": False, "C4": False, "K2,3": False}
    assert {spec: parse_forbidden_spec(spec).is_tree for spec in shapes} == shapes


def test_parametric_patterns_connected():
    for spec in ("C3", "C8", "K2,2", "K3,5", "S4", "P6"):
        h = parse_forbidden_spec(spec)
        from splitfree.graphs import connected_components
        assert int(connected_components(h.graph).max()) == 0


def test_contains_examples():
    c4 = parse_forbidden_spec("C4")
    found = contains_subgraph(biclique_graph(2, 2), c4)
    assert found is not None and verify_embedding(biclique_graph(2, 2), c4, found)
    assert contains_subgraph(path_graph(4), c4) is None

    affine2 = prune_to_split(build_affine_split(2)).graph
    assert contains_subgraph(affine2, parse_forbidden_spec("K2,3")) is None

    with pytest.raises(PatternTooLarge):
        contains_subgraph(complete_graph(3), parse_forbidden_spec("C13"))


def test_is_c4_free_examples():
    affine3 = build_affine_split(3).graph
    assert is_c4_free(affine3) is None

    w = is_c4_free(biclique_graph(2, 2))
    assert w is not None
    assert w.left == (0, 1) and w.right == (2, 3)  # the degree-2 part, lex-first

    # witness soundness: all left-right pairs adjacent
    g = random_graph(20, 0.4, np.random.default_rng(7))
    w = is_c4_free(g)
    if w is not None:
        for u in w.left:
            for v in w.right:
                assert g.has_edge(u, v)


def test_is_kst_free_examples():
    assert is_kst_free(cycle_graph(6), 1, 3) is None
    w = is_kst_free(biclique_graph(3, 3), 2, 3)
    assert w is not None and len(w.right) == 3
    assert is_kst_free(build_affine_split(2).graph, 2, 2) is None
    with pytest.raises(ParameterError):
        is_kst_free(cycle_graph(4), 3, 2)


def test_kst_s3_paths():
    k34 = biclique_graph(3, 4)
    w = is_kst_free(k34, 3, 4)
    assert w is not None and w.left == (0, 1, 2) and len(w.right) == 4
    assert is_kst_free(k34, 3, 5) is None
    assert is_kst_free(k34, 4, 4) is None
    with pytest.raises(InstanceTooLarge):
        is_kst_free(Graph(5000, np.empty((0, 2), np.int64)), 3, 3)


def test_star_witness_shape():
    star = biclique_graph(1, 4)
    w = is_kst_free(star, 1, 4)
    assert w is not None and w.left == (0,) and w.right == (1, 2, 3, 4)
    assert is_kst_free(star, 1, 5) is None


def test_oracle_agreement_small_corpus():
    """Smaller replica of the acceptance corpus check (30 graphs)."""
    patterns = [("C4", None), ("K2,2", (2, 2)), ("K2,3", (2, 3)), ("K1,3", (1, 3))]
    for g in seeded_corpus(count=30):
        for spec, stt in patterns:
            h = parse_forbidden_spec(spec)
            oracle_hit = contains_subgraph(g, h) is not None
            fast_hit = (is_c4_free(g) if spec == "C4" else is_kst_free(g, *stt)) is not None
            assert oracle_hit == fast_hit, f"{spec} disagrees"


def test_check_forbidden_dispatch_and_witness_json():
    g = biclique_graph(2, 3)
    for spec in ("C4", "K2,3", "S3", "P4"):
        h = parse_forbidden_spec(spec)
        mapping = check_forbidden(g, h)
        assert mapping is not None and verify_embedding(g, h, mapping)
        out = witness_json(mapping)
        assert out["found"] and len(out["mapping"]) == h.graph.V
    assert check_forbidden(cycle_graph(5), parse_forbidden_spec("C4")) is None
    assert witness_json(None) == {"found": False, "mapping": []}


def test_false_witness_is_an_invariant_violation(monkeypatch, capsys, tmp_path):
    """A checker's witness is re-checked without assert: a false one raises, and
    the CLI reports it as a JSON error with exit 1."""
    monkeypatch.setattr(freeness, "is_kst_free", lambda g, s, t: BicliqueWitness((0, 1), (2, 3)))
    c6 = cycle_graph(6)
    for spec in ("C4", "K2,2"):  # C4 reaches the same checker through is_c4_free
        with pytest.raises(InvariantViolation):
            check_forbidden(c6, parse_forbidden_spec(spec))
    write_split(SplitGraph(c6, np.arange(6), 6, 1), tmp_path / "c6.sg")
    assert run(["verify", "--input", str(tmp_path / "c6.sg"), "--mode", "lax",
                "--forbidden", "C4"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["type"] == "InvariantViolation" and not out["passed"]
    monkeypatch.setattr(freeness, "verify_embedding", lambda g, h, mapping: False)
    with pytest.raises(InvariantViolation):
        contains_subgraph(cycle_graph(5), parse_forbidden_spec("P3"))


def test_monotonicity_under_pruning():
    """A pruned split's graph is a subgraph of the host, so freeness carries over."""
    from splitfree.graphs import SplitGraph

    rng = np.random.default_rng(3)
    for _ in range(10):
        host = random_graph(12, 0.35, rng)
        blob_of = rng.integers(0, 4, host.V)
        sizes = np.bincount(blob_of, minlength=4)
        if sizes.min() == 0:
            continue
        s = SplitGraph(host, blob_of, 4, int(sizes.max()))
        from splitfree.graphs import verify_split
        if not verify_split(s, "lax").passed:
            continue
        pruned = prune_to_split(s)
        for spec in ("C4", "K1,3", "C3"):
            h = parse_forbidden_spec(spec)
            if contains_subgraph(host, h) is None:
                assert contains_subgraph(pruned.graph, h) is None


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["C3", "C4", "P4", "K1,3", "P3"]))
@settings(max_examples=60, deadline=None)
def test_oracle_matches_permutation_brute_force(seed, spec):
    """The backtracking oracle agrees with raw injective-map enumeration on
    tiny hosts."""
    rng = np.random.default_rng(seed)
    g = random_graph(7, 0.35, rng)
    h = parse_forbidden_spec(spec)
    assert (contains_subgraph(g, h) is not None) == brute_contains_subgraph(g, h.graph)


# ---------------------------------------------------------------------------
# Block-streamed common-neighbor scan
# ---------------------------------------------------------------------------

def brute_pair_with_common(g: Graph, t: int):
    """Lexicographically smallest pair with >= t common neighbors, by plain
    set intersection over all pairs."""
    adj = [set() for _ in range(g.V)]
    for u, v in g.edges.tolist():
        adj[u].add(v)
        adj[v].add(u)
    for u in range(g.V):
        for w in range(u + 1, g.V):
            if len(adj[u] & adj[w]) >= t:
                return u, w
    return None


@pytest.mark.parametrize("block", [1, 7, freeness.WEDGE_BLOCK])
def test_wedge_blocks_match_oracles(block, monkeypatch):
    """Blocks of one low endpoint, of a few, and of the default size give the
    same pair and verdicts as the pure-Python scan and the backtracking oracle."""
    monkeypatch.setattr(freeness, "WEDGE_BLOCK", block)
    corpus = seeded_corpus(count=30) + seeded_corpus(count=10, n=24, p=0.4, seed=3)
    patterns = [("C4", None), ("K2,3", (2, 3)), ("K2,4", (2, 4))]
    for g in corpus:
        for t in (1, 2, 3, 4):
            assert freeness._pair_with_common_at_least(g, t) == brute_pair_with_common(g, t)
        for spec, stt in patterns:
            oracle_hit = contains_subgraph(g, parse_forbidden_spec(spec)) is not None
            fast = is_c4_free(g) if spec == "C4" else is_kst_free(g, *stt)
            assert (fast is not None) == oracle_hit, f"{spec} disagrees"


def test_wedge_block_of_exactly_t_wedges(monkeypatch):
    """One low endpoint per block: vertex 0's block of K2,3 holds exactly t = 3
    wedges, all to vertex 1, and they are the K2,3 itself."""
    monkeypatch.setattr(freeness, "WEDGE_BLOCK", 1)
    w = is_kst_free(biclique_graph(2, 3), 2, 3)
    assert w is not None and (w.left, w.right) == ((0, 1), (2, 3, 4))


def test_each_guard_admits_exactly_its_cap(tmp_path, monkeypatch):
    cap = freeness.ORACLE_PATTERN_CAP
    assert contains_subgraph(cycle_graph(cap), parse_forbidden_spec(f"C{cap}")) is not None
    # a host of KST_ENUM_CAP vertices, a K3,3 and isolated vertices, is enumerated
    k33 = biclique_graph(3, 3)
    assert is_kst_free(Graph(freeness.KST_ENUM_CAP, k33.edges), 3, 3) is not None
    path = tmp_path / "wide.g"
    path.write_text(f"graph 1\nv {formats.MAX_FILE_VERTICES} e 0\n")
    assert read_graph(path).V == formats.MAX_FILE_VERTICES
    # a spec at the file guard is built, whether its vertices or its edges reach it
    monkeypatch.setattr(freeness, "MAX_FILE_VERTICES", 10)
    assert parse_forbidden_spec("C10").graph.V == parse_forbidden_spec("K2,5").graph.M == 10
    for spec in ("C11", "K2,6"):
        with pytest.raises(SizeGuard):
            parse_forbidden_spec(spec)


def test_oracle_work_cap_admits_exactly_its_count(monkeypatch):
    """C3 in C6 scans 6 start vertices; each start's second step scans one
    2-element pool, and each of its two third steps intersects two 2-element
    pools, counted as the smaller: 6 + 6 * (2 + 2 * 2) = 42.  The search ends
    at a cap of 42 and is refused one below it."""
    c3 = parse_forbidden_spec("C3")
    monkeypatch.setattr(freeness, "ORACLE_WORK_CAP", 42)
    assert contains_subgraph(cycle_graph(6), c3) is None
    monkeypatch.setattr(freeness, "ORACLE_WORK_CAP", 41)
    with pytest.raises(InstanceTooLarge, match="C3"):
        contains_subgraph(cycle_graph(6), c3)


def test_oracle_builds_sets_only_for_the_vertices_it_reaches():
    """P4's witness in the n = 900 bipartite split (405 k edges) uses host ids
    below 6, so the search holds almost nothing beyond the graph's CSR."""
    g = build_bipartite_split(900).graph
    g.csr()
    tracemalloc.start()
    try:
        assert contains_subgraph(g, parse_forbidden_spec("P4")) == {0: 3, 1: 0, 2: 5, 3: 2}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20


def test_wedge_scan_memory_is_bounded_by_the_block():
    """The n=300 pipeline split has far more wedges than a block; the scan's
    traced peak stays within a few blocks of keys."""
    g = construct_c4_free_split(300).graph
    d = g.degrees()
    assert int((d * (d - 1) // 2).sum()) > 16 * freeness.WEDGE_BLOCK
    g.csr()  # adjacency is the graph's own, built before the scan
    tracemalloc.start()
    try:
        assert is_c4_free(g) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * freeness.WEDGE_BLOCK * 8
