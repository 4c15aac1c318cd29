"""Graph and split-graph behavior: construction validation, verification,
pruning, restriction, blob-pair coverage, and file round trips."""

import functools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_pairs,
    brute_split_census,
    build_graph,
    complete_graph,
    crossed_blob_pairs,
    cycle_graph,
    lexsort_prune,
    seeded_corpus,
)
from splitfree import formats, graphs
from splitfree.errors import (
    InvariantViolation,
    NotALaxSplit,
    ParseError,
    SizeGuard,
    SplitfreeError,
    TargetTooLarge,
)
from splitfree.graphs import (
    Graph,
    SplitGraph,
    connected_components,
    prune_to_split,
    read_graph,
    read_split,
    restrict_blobs,
    two_coloring,
    verify_split,
    write_graph,
    write_split,
)


def test_build_graph_examples():
    # the test helper collapses repeats, in either orientation, before Graph sees them
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.degrees().tolist() == [2, 2, 2, 2]
    assert build_graph(2, [(0, 1), (0, 1)]).M == 1
    assert build_graph(2, [(1, 0)]).edges.tolist() == [[0, 1]]
    assert build_graph(3, [(2, 1), (1, 2), (0, 2)]) == Graph(3, [(0, 2), (1, 2)])


def test_common_neighbors_and_has_edge():
    g = build_graph(5, [(0, 1), (0, 2), (3, 1), (3, 2), (0, 4)])
    assert g.common_neighbors(0, 3).tolist() == [1, 2]
    assert g.common_neighbors(1, 2).tolist() == [0, 3]
    assert g.common_neighbors(0, 4).tolist() == []
    assert g.common_neighbors(0, 3).dtype == np.int64
    assert g.has_edge(0, 4) and g.has_edge(4, 0) and not g.has_edge(1, 2)
    assert not g.has_edge(4, 3)  # past the end of a neighbor row


def brute_neighbor_sets(g: Graph) -> list[set[int]]:
    sets = [set() for _ in range(g.V)]
    for u, v in g.edges.tolist():
        sets[u].add(v)
        sets[v].add(u)
    return sets


def test_common_neighbors_match_set_intersection():
    rng = np.random.default_rng(11)
    hosts = seeded_corpus(count=20, n=25, p=0.3, seed=4)
    # a sparse host above 2^16 vertices: random edges among a few hubs' rows
    V = (1 << 16) + 37
    hubs = rng.choice(V, size=40, replace=False)
    ends = rng.integers(0, V, size=(4000, 2))
    ends[:, 0] = hubs[ends[:, 0] % len(hubs)]
    ends = ends[ends[:, 0] != ends[:, 1]]
    hosts.append(build_graph(V, ends))
    for g in hosts:
        adj = brute_neighbor_sets(g)
        busy = np.flatnonzero(g.degrees())
        pairs = rng.choice(busy, size=(300, 2))
        for u, v in pairs.tolist() + [(int(busy[0]), int(busy[0]))]:
            assert g.common_neighbors(u, v).tolist() == sorted(adj[u] & adj[v])
            assert g.has_edge(u, v) == (v in adj[u])


def test_verify_split_examples():
    k4 = complete_graph(4)
    identity = SplitGraph(k4, np.arange(4), 4, 1)
    assert verify_split(identity, "strict").passed

    empty = SplitGraph(Graph(2, np.empty((0, 2), np.int64)), np.array([0, 1]), 2, 1)
    rep = verify_split(empty, "lax")
    assert not rep.passed and rep.missing_pairs == [(0, 1)]

    assert list(vars(rep)) == [  # the JSON keys, in order
        "mode", "passed", "missing_pairs", "multi_pairs", "internal_edges",
        "max_blob_size", "edge_count"]


def c6_paired_split() -> SplitGraph:
    return SplitGraph(cycle_graph(6), np.array([0, 1, 2, 0, 1, 2]), 3, 2)


def test_prune_c6_example():
    s = c6_paired_split()
    census = brute_split_census(s)
    assert not census["missing"]
    pruned = prune_to_split(s)
    assert pruned.graph.M == 3
    assert verify_split(pruned, "strict").passed
    # kept edge per pair is the lexicographic minimum of the candidates
    for pair, cands in census["pair_edges"].items():
        kept = [tuple(e) for e in pruned.graph.edges.tolist()
                if tuple(sorted((int(pruned.blob_of[e[0]]), int(pruned.blob_of[e[1]])))) == pair]
        assert kept == [min(cands)]
    # idempotence
    assert prune_to_split(pruned) == pruned


def test_prune_missing_pair():
    bad = SplitGraph(build_graph(4, [(0, 1)]), np.array([0, 0, 1, 2]), 3, 2)
    with pytest.raises(NotALaxSplit):
        prune_to_split(bad)


@given(st.integers(2, 12), st.floats(0.0, 0.6), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_missing_pairs_match_census(n, p, seed):
    """On splits missing any set of blob pairs, verify lists exactly the pairs the
    pure-Python census finds, and prune names the first of them."""
    rng = np.random.default_rng(seed)
    blob_of = np.concatenate((np.arange(n), rng.integers(0, n, n)))
    iu, iv = np.triu_indices(2 * n, k=1)
    keep = rng.random(len(iu)) < p
    s = SplitGraph(build_graph(2 * n, np.column_stack((iu[keep], iv[keep]))), blob_of, n, 2 * n)
    missing = brute_split_census(s)["missing"]
    assert verify_split(s, "lax").missing_pairs == missing
    if missing:
        with pytest.raises(NotALaxSplit, match=re.escape(f"blob pair {missing[0]} has")):
            prune_to_split(s)


def seeded_lax_split(seed: int) -> SplitGraph:
    """A lax split of 3 to 12 blobs of 1 to 3 vertices: one edge for each blob
    pair, then about a third of all vertex pairs, inside blobs and across them."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 13))
    blob_of = rng.permutation(np.repeat(np.arange(n), rng.integers(1, 4, n)))
    members = [np.flatnonzero(blob_of == b) for b in range(n)]
    edges = [(rng.choice(members[i]), rng.choice(members[j])) for i, j in zip(*np.triu_indices(n, k=1))]
    iu, iv = np.triu_indices(len(blob_of), k=1)
    extra = rng.random(len(iu)) < 0.3
    edges += zip(iu[extra], iv[extra])
    return SplitGraph(build_graph(len(blob_of), edges), blob_of, n, 3)


def test_prune_is_the_lexsort_prune():
    """First occurrence against the sort-based reference, on lax splits with
    repeated pairs and intra-blob edges, and on splits missing two pairs."""
    splits = [seeded_lax_split(seed) for seed in range(40)]
    reports = [verify_split(s, "lax") for s in splits]
    assert all(r.passed and r.multi_pairs for r in reports)
    assert sum(r.internal_edges > 0 for r in reports) >= 30
    for s in splits:
        assert prune_to_split(s) == lexsort_prune(s)
        e = s.graph.edges
        pair = np.sort(s.blob_of[e], axis=1)
        cut = (pair == [1, 2]).all(axis=1) | (pair == [0, s.n - 1]).all(axis=1)
        gaps = SplitGraph(Graph(s.graph.V, e[~cut]), s.blob_of, s.n, s.k)
        for prune in (prune_to_split, lexsort_prune):
            with pytest.raises(NotALaxSplit, match=re.escape(f"blob pair (0, {s.n - 1}) has")):
                prune(gaps)


def test_verify_refuses_too_many_missing_pairs(monkeypatch):
    # counted as all pairs minus the present ones, before any pair is listed
    edgeless = SplitGraph(Graph(5, np.empty((0, 2), np.int64)), np.arange(5), 5, 1)
    monkeypatch.setattr(graphs, "MAX_MISSING_PAIRS", 10)
    assert len(verify_split(edgeless, "lax").missing_pairs) == 10  # at the guard
    monkeypatch.setattr(graphs, "MAX_MISSING_PAIRS", 9)
    with pytest.raises(SizeGuard, match="10 blob pairs have no edge; guard is 9"):
        verify_split(edgeless, "lax")
    with pytest.raises(NotALaxSplit, match=re.escape("blob pair (0, 1)")):
        prune_to_split(edgeless)


def test_restrict_examples():
    s = c6_paired_split()
    assert restrict_blobs(s, s.n) == s
    r = restrict_blobs(s, 2)
    assert r.n == 2 and r.graph.V == 4
    # no edge of the cycle joins two vertices of blob 0
    r = restrict_blobs(s, 1)
    assert (r.n, r.graph.V, r.graph.M, r.graph.edges.shape) == (1, 2, 0, (0, 2))
    edgeless = SplitGraph(Graph(6, np.empty((0, 2), np.int64)), np.arange(6) // 2, 3, 2)
    r = restrict_blobs(edgeless, 2)
    assert (r.n, r.graph.V, r.graph.M, r.graph.edges.shape) == (2, 4, 0, (0, 2))
    with pytest.raises(TargetTooLarge):
        restrict_blobs(s, 4)


def test_contract_examples():
    # contracting the blobs gives K_n exactly when the split is lax
    paired = c6_paired_split()
    assert crossed_blob_pairs(paired) == all_pairs(3)
    assert verify_split(paired, "lax").passed
    k5 = complete_graph(5)
    identity = SplitGraph(k5, np.arange(5), 5, 1)
    assert crossed_blob_pairs(identity) == {tuple(e) for e in k5.edges.tolist()}
    assert verify_split(identity, "lax").passed
    empty3 = SplitGraph(Graph(3, np.empty((0, 2), np.int64)), np.arange(3), 3, 1)
    assert crossed_blob_pairs(empty3) == set()
    assert not verify_split(empty3, "lax").passed


def test_splitgraph_invariants():
    g = build_graph(4, [(0, 1)])
    with pytest.raises(InvariantViolation):
        SplitGraph(g, np.array([0, 0, 1, 3]), 3, 2)   # blob id out of range
    with pytest.raises(InvariantViolation):
        SplitGraph(g, np.array([0, 0, 2, 2]), 3, 2)   # blob 1 empty
    with pytest.raises(InvariantViolation):
        SplitGraph(g, np.array([0, 0, 0, 1]), 2, 2)   # blob 0 too big


def test_splitgraph_refuses_a_blob_id_equal_to_n():
    # blobs 0 and 1 are full and within k, so only the range check can refuse blob 2
    with pytest.raises(InvariantViolation, match=re.escape("blob id outside [0, n)")):
        SplitGraph(Graph(3, np.empty((0, 2), np.int64)), np.array([0, 1, 2]), 2, 1)


def test_split_io_round_trip(tmp_path):
    s = c6_paired_split()
    path = tmp_path / "c6.sg"
    write_split(s, path)
    assert read_split(path) == s
    # byte-identical rewrite
    second = tmp_path / "c6b.sg"
    write_split(read_split(path), second)
    assert path.read_bytes() == second.read_bytes()


def test_split_io_errors(tmp_path):
    path = tmp_path / "bad.sg"
    path.write_text("splitgraph 1\nn 2 k 1 v 2 e 0\nb 0 0\nb 1 2\n")
    with pytest.raises(ParseError):
        read_split(path)  # blob id >= n
    path.write_text("splitgraph 1\nn 2 k 1 v 4 e 0\nb 0 0\nb 1 0\nb 2 1\nb 3 1\n")
    with pytest.raises(InvariantViolation):
        read_split(path)  # declared k below actual blob size
    path.write_text("graph 2\n")
    with pytest.raises(ParseError):
        read_graph(path)
    path.write_text("splitgraph 1\nn 1 k 1 v 1 e 1\nb 0 0\ne 1 0\n")
    with pytest.raises(ParseError):
        read_split(path)  # u >= v


def test_graph_io_round_trip(tmp_path):
    g = cycle_graph(5)
    path = tmp_path / "c5.g"
    write_graph(g, path)
    assert read_graph(path) == g


def test_two_coloring_and_components():
    assert two_coloring(cycle_graph(5)) is None
    col = two_coloring(cycle_graph(6))
    e = cycle_graph(6).edges
    assert col is not None and (col[e[:, 0]] != col[e[:, 1]]).all()
    labels = connected_components(build_graph(5, [(0, 1), (2, 3)]))
    assert labels.tolist() == [0, 0, 1, 1, 2]
    assert two_coloring(Graph(0, np.empty((0, 2)))).tolist() == []
    assert connected_components(Graph(3, np.empty((0, 2)))).tolist() == [0, 1, 2]


def test_two_coloring_and_components_match_networkx():
    nx = pytest.importorskip("networkx")
    hosts = seeded_corpus(count=40, n=30, p=0.06, seed=8)
    hosts += [cycle_graph(7), cycle_graph(8), build_graph(9, [(0, 1), (1, 2), (5, 6)])]
    # even cycles and trees, so that bipartite hosts with several components occur
    rng = np.random.default_rng(8)
    for V in (12, 31, 50):
        parent = [int(rng.integers(0, v)) for v in range(1, V)]
        tree = [(p, v) for v, p in enumerate(parent, start=1)]
        hosts.append(build_graph(V, [e for e in tree if rng.random() < 0.7]))
    seen = set()
    for g in hosts:
        ng = nx.Graph()
        ng.add_nodes_from(range(g.V))
        ng.add_edges_from(g.edges.tolist())
        color = two_coloring(g)
        assert (color is not None) == nx.is_bipartite(ng)
        if color is not None:
            assert set(color.tolist()) <= {0, 1}
            assert (color[g.edges[:, 0]] != color[g.edges[:, 1]]).all()
        labels = connected_components(g)
        expected = sorted(sorted(c) for c in nx.connected_components(ng))
        assert [np.flatnonzero(labels == i).tolist()
                for i in range(int(labels.max()) + 1)] == expected
        seen.add((color is not None, int(labels.max()) > 0))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


# ---------------------------------------------------------------------------
# Property tests over randomized lax splits
# ---------------------------------------------------------------------------

@st.composite
def lax_splits(draw):
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, 4))
    sizes = [draw(st.integers(1, k)) for _ in range(n)]
    blob_of = np.repeat(np.arange(n), sizes)
    v_total = int(blob_of.sum() * 0 + len(blob_of))
    members = [np.flatnonzero(blob_of == i) for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            count = draw(st.integers(1, 3))
            for _ in range(count):
                u = members[i][draw(st.integers(0, sizes[i] - 1))]
                v = members[j][draw(st.integers(0, sizes[j] - 1))]
                edges.append((int(u), int(v)))
    for i in range(n):  # optional intra-blob noise
        if sizes[i] >= 2 and draw(st.booleans()):
            edges.append((int(members[i][0]), int(members[i][1])))
    return SplitGraph(build_graph(v_total, edges), blob_of, n, k)


@given(lax_splits())
@settings(max_examples=60, deadline=None)
def test_prune_properties(s):
    assert verify_split(s, "lax").passed
    pruned = prune_to_split(s)
    assert pruned.graph.M == s.n * (s.n - 1) // 2
    original = {tuple(e) for e in s.graph.edges.tolist()}
    assert all(tuple(e) in original for e in pruned.graph.edges.tolist())
    assert verify_split(pruned, "strict").passed
    assert crossed_blob_pairs(pruned) == all_pairs(s.n)
    # verdicts agree with the pure-Python census
    census = brute_split_census(s)
    rep = verify_split(s, "strict")
    assert rep.multi_pairs == census["multi"]
    assert rep.internal_edges == census["internal"]
    assert rep.missing_pairs == census["missing"]


@given(lax_splits(), st.integers(1, 7))
@settings(max_examples=40, deadline=None)
def test_restrict_preserves_verdicts(s, n_target):
    n_target = min(n_target, s.n)
    r = restrict_blobs(s, n_target)
    assert verify_split(r, "lax").passed == (
        not [p for p in verify_split(s, "lax").missing_pairs
             if p[0] < n_target and p[1] < n_target])
    # restriction of the pruned split stays strict
    assert verify_split(restrict_blobs(prune_to_split(s), n_target), "strict").passed


@given(lax_splits())
@settings(max_examples=30, deadline=None)
def test_split_io_round_trip_property(s):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.sg"
        write_split(s, path)
        assert read_split(path) == s


# ---------------------------------------------------------------------------
# Bulk parsing against the line scanner, and the grouped writer
# ---------------------------------------------------------------------------

def _reference_text(obj) -> str:
    """The file text as a plain per-line formatter writes it."""
    if isinstance(obj, SplitGraph):
        g = obj.graph
        lines = ["splitgraph 1", f"n {obj.n} k {obj.k} v {g.V} e {g.M}"]
        lines += [f"b {v} {b}" for v, b in enumerate(obj.blob_of.tolist())]
    else:
        g = obj
        lines = ["graph 1", f"v {g.V} e {g.M}"]
    lines += [f"e {u} {v}" for u, v in g.edges.tolist()]
    return "\n".join(lines) + "\n"


@functools.cache
def _constructions():
    from splitfree.constructions import (
        build_affine_split,
        build_bipartite_split,
        build_split_from_coloring,
        build_star_free_split,
        construct_c4_free_split,
        round_robin_coloring,
    )
    return {
        "affine2": build_affine_split(2),
        "affine3": build_affine_split(3),
        "pipeline27": construct_c4_free_split(27),
        "pipeline100": construct_c4_free_split(100),
        "bipartite7": build_bipartite_split(7),
        "star10": build_star_free_split(10, 3),
        "from_coloring": build_split_from_coloring(round_robin_coloring(6)),
        "c6_paired": c6_paired_split(),
        "edgeless": SplitGraph(Graph(2, np.empty((0, 2), np.int64)), np.array([0, 1]), 2, 1),
    }


@pytest.mark.parametrize("name", list(_constructions()))
def test_write_read_write_byte_identity(name, tmp_path):
    s = _constructions()[name]
    first, second = tmp_path / "a.sg", tmp_path / "b.sg"
    write_split(s, first)
    assert first.read_text() == _reference_text(s)
    write_split(read_split(first), second)
    assert first.read_bytes() == second.read_bytes()
    g_first, g_second = tmp_path / "a.g", tmp_path / "b.g"
    write_graph(s.graph, g_first)
    assert g_first.read_text() == _reference_text(s.graph)
    write_graph(read_graph(g_first), g_second)
    assert g_first.read_bytes() == g_second.read_bytes()


def _replace_line(prefix, fn):
    """Mutation applying fn to the last line starting with prefix, if any."""
    def mutate(lines):
        i = max((j for j, line in enumerate(lines) if line.startswith(prefix)), default=None)
        return lines if i is None else lines[:i] + fn(lines[i]) + lines[i + 1:]
    return mutate


def _header(field, fn):
    """Mutation applying fn to the value of a header field."""
    def mutate(lines):
        toks = lines[1].split()
        toks[toks.index(field) + 1] = fn(int(toks[toks.index(field) + 1]))
        return [lines[0], " ".join(toks)] + lines[2:]
    return mutate


def _swap(line):
    tag, a, b = line.split()
    return [f"{tag} {b} {a}"]


# each mutation maps the canonical lines to a list of lines (LF-joined)
MUTATIONS = {
    "canonical": lambda lines: lines,
    "comment": lambda lines: lines[:1] + ["# made by hand"] + lines[1:],
    "blank_line": lambda lines: lines[:2] + [""] + lines[2:],
    "trailing_blank": lambda lines: lines + [""],
    "indented": lambda lines: lines[:1] + ["  " + lines[1]] + lines[2:],
    "leading_zero": _replace_line("e ", lambda l: [l.replace(" ", " 0", 1)]),
    "plus_sign": _replace_line("e ", lambda l: [l.replace(" ", " +", 1)]),
    "double_space": _replace_line("e ", lambda l: [l.replace(" ", "  ", 1)]),
    "truncated": lambda lines: lines[:-1],
    "extra_line": lambda lines: lines + [lines[-1]],
    "duplicate_edge": _replace_line("e ", lambda l: [l, l]),
    "out_of_order": lambda lines: lines[:-2] + lines[-1:] + lines[-2:-1],
    "u_not_below_v": _replace_line("e ", _swap),
    "endpoint_too_big": _replace_line("e ", lambda l: [l.rsplit(" ", 1)[0] + " 99999"]),
    "blob_too_big": _replace_line("b ", lambda l: [l.rsplit(" ", 1)[0] + " 99999"]),
    "skipped_vertex": _replace_line("b ", lambda l: ["b 99999 " + l.split()[2]]),
    "edge_count_high": _header("e", lambda x: str(x + 1)),
    "edge_count_low": _header("e", lambda x: str(max(x - 1, 0))),
    "vertex_count_high": _header("v", lambda x: str(x + 1)),
    "vertex_count_negative": _header("v", lambda x: "-3"),
    "edge_count_negative": _header("e", lambda x: "-3"),
    "vertex_count_huge": _header("v", lambda x: "1000000000000"),
    "edge_count_huge": _header("e", lambda x: "1000000000000"),
    "number_18_digits": _header("e", lambda x: "1" + "0" * 17),
    "bad_header": lambda lines: [lines[0] + " x"] + lines[1:],
    "bad_tag": _replace_line("e ", lambda l: ["x" + l[1:]]),
}


def _outcome(read, path):
    try:
        return read(path)
    except ParseError as exc:
        return ("ParseError", exc.line)
    except SplitfreeError as exc:
        return (type(exc).__name__, str(exc))


@pytest.mark.parametrize("mutation", list(MUTATIONS))
@pytest.mark.parametrize("name", ["c6_paired", "affine2", "star10", "edgeless"])
def test_bulk_parse_matches_line_scanner(name, mutation, tmp_path, monkeypatch):
    s = _constructions()[name]
    for obj, write, read in ((s, write_split, read_split), (s.graph, write_graph, read_graph)):
        path = tmp_path / "f"
        write(obj, path)
        text = "\n".join(MUTATIONS[mutation](path.read_text().splitlines())) + "\n"
        for newline in ("\n", "\r\n"):
            path.write_bytes(text.replace("\n", newline).encode())
            with monkeypatch.context() as m:  # the line scanner alone
                m.setattr(formats, "_bulk_parse", lambda path, kind: None)
                expected = _outcome(read, path)
            assert _outcome(read, path) == expected
            if mutation == "canonical":
                assert expected == obj
        if mutation == "canonical":   # canonical files never reach the scanner
            path.write_text(text)
            with monkeypatch.context() as m:
                m.setattr(formats, "_LineReader", None)
                assert read(path) == obj


def test_comment_lines_in_every_format(tmp_path):
    # a comment is any line whose first token starts with '#', indented or not
    from splitfree.constructions import read_coloring

    path = tmp_path / "f"
    path.write_text("#graph 2\ngraph 1\n  #v 9\nv 2 e 1\n\t#e 0 5\ne 0 1\n#\n")
    assert formats.sniff(path) == "graph"
    assert read_graph(path) == build_graph(2, [(0, 1)])
    path.write_text("#splitgraph\n  # x\nsplitgraph 1\nn 2 k 1 v 2 e 1\n#b 0 1\nb 0 0\nb 1 1\ne 0 1\n")
    assert formats.sniff(path) == "splitgraph"
    assert read_split(path) == SplitGraph(build_graph(2, [(0, 1)]), np.array([0, 1]), 2, 1)
    path.write_text("#c 0 1 0\ncoloring 1\nn 2 colors 1\n #n 3\nc 0 1 0\n")
    assert formats.sniff(path) == "coloring"
    assert read_coloring(path).color_of == {(0, 1): 0}


def test_from_edge_keys_rejects_repeats():
    keys = np.array([6, 1, 6], dtype=np.int64)
    with pytest.raises(InvariantViolation, match=r"edge \(1, 2\) is repeated"):
        Graph.from_edge_keys(4, keys.copy())


@pytest.mark.parametrize("edges", [[(0, 1), (0, 1)], [(2, 3), (0, 1), (3, 2)], [(1, 2), (2, 1)]])
def test_graph_rejects_repeated_edges(edges):
    # one repeat rule for both constructors: an edge given twice, in either
    # orientation, is refused rather than silently dropped
    with pytest.raises(InvariantViolation, match="is repeated"):
        Graph(4, np.array(edges))


def test_header_counts_checked_before_allocation(tmp_path):
    path = tmp_path / "bad.sg"
    for vcount, line in (("-3", 2), ("1000000000000", 2), ("1000", 4)):
        path.write_text(f"splitgraph 1\nn 1 k 1 v {vcount} e 0\nb 0 0\n")
        with pytest.raises(ParseError) as info:
            read_split(path)
        assert info.value.line == line
    path.write_text("graph 1\nv 1000000000000 e 0\n")
    with pytest.raises(ParseError):
        read_graph(path)
    # a blob count far above the vertex count is an empty blob, not an allocation
    path.write_text("splitgraph 1\nn 1000000000000 k 1 v 1 e 0\nb 0 0\n")
    with pytest.raises(InvariantViolation, match="blob 1 is empty"):
        read_split(path)


def test_file_vertex_guard_before_allocation(tmp_path, monkeypatch):
    # isolated vertices cost nothing in a file but O(V) in every array sized by V
    path = tmp_path / "wide.g"
    for text in ("graph 1\nv 3000000000 e 1\ne 0 1\n",               # bulk path
                 "# comment\ngraph 1\nv 3000000000 e 1\ne 0 1\n"):  # line scanner
        path.write_text(text)
        with pytest.raises(SizeGuard, match="3000000000 vertices"):
            read_graph(path)
    monkeypatch.setattr(formats, "MAX_FILE_VERTICES", 4)
    path.write_text("graph 1\nv 4 e 1\ne 0 1\n")
    assert read_graph(path) == build_graph(4, [(0, 1)])
    path.write_text("graph 1\nv 5 e 1\ne 0 1\n")
    with pytest.raises(SizeGuard):
        read_graph(path)
    path = tmp_path / "wide.sg"
    path.write_text("splitgraph 1\nn 1 k 5 v 5 e 0\n" + "".join(f"b {v} 0\n" for v in range(5)))
    with pytest.raises(SizeGuard):
        read_split(path)


def test_from_edge_keys_peak_is_below_three_key_arrays():
    # keys are sorted in place, not copied when unique, and divided straight
    # into the (M, 2) edge array: no divmod pair or column_stack copy
    V = 700
    u, v = np.triu_indices(V, k=1)
    keys = u * V + v
    np.random.default_rng(5).shuffle(keys)
    tracemalloc.start()
    try:
        g = Graph.from_edge_keys(V, keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(g.edges, np.column_stack((u, v)))
    assert peak < 3 * 8 * g.M


def test_bulk_parse_long_file_in_bounded_memory(tmp_path):
    # rows are matched in runs: a file of many runs parses whole, and the
    # matcher's memory does not grow with the number of lines
    g = complete_graph(300)
    path = tmp_path / "k300.g"
    write_graph(g, path)
    tracemalloc.start()
    try:
        parsed = formats._bulk_parse(path, "graph")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed is not None and np.array_equal(parsed[1][0], g.edges)
    assert peak < 8 * path.stat().st_size
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2] + lines[-1:] + lines[-2:-1]) + "\n")
    with pytest.raises(ParseError) as info:
        read_graph(path)
    assert info.value.line == len(lines)


def test_bulk_patterns_parse_before_python_3_11():
    # possessive quantifiers and atomic groups are errors before Python 3.11
    for pat in (*formats._BULK_HEADERS.values(), *formats._BULK_ROWS.values()):
        assert not re.search(rb"[*+?}]\+|\(\?>", pat.pattern)
