"""Randomized-construction diagnostics: exact small-case values via
exhaustive coloring enumeration, Monte Carlo reproducibility, rejection
sampling, and the degree-trimming procedure."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from splitfree import probabilistic
from splitfree.constructions import build_affine_split
from splitfree.errors import DegenerateHost, ParameterError, SizeGuard
from splitfree.graphs import Graph, SplitGraph, build_graph, prune_to_split, verify_split
from splitfree.freeness import is_c4_free
from splitfree.probabilistic import (
    MC_BATCH,
    FailureStats,
    PairFailureEstimate,
    concentration_report,
    estimate_pair_failure,
    janson_diagnostics,
    random_split,
    trim_max_degree,
)


def exhaustive_pair_failure(g: Graph, n: int) -> float:
    """Oracle: exact probability that no edge gets colors {0, 1}, by
    enumerating all n^V colorings."""
    edges = g.edges.tolist()
    failures = 0
    for coloring in itertools.product(range(n), repeat=g.V):
        if not any({coloring[u], coloring[v]} == {0, 1} for u, v in edges):
            failures += 1
    return failures / n ** g.V


def test_janson_c6_example(c6):
    d = janson_diagnostics(c6, 2)
    assert d.mu == 3.0
    assert d.D == 1.5
    assert d.bound_pair == pytest.approx(math.exp(-0.125), rel=1e-12)
    exact = exhaustive_pair_failure(c6, 2)
    assert exact == 2 / 64
    assert exact <= d.bound_pair


def test_janson_single_edge_example():
    k2 = build_graph(2, [(0, 1)])
    d = janson_diagnostics(k2, 2)
    assert d.mu == 0.5
    assert d.D == 0.0  # no edge pairs share endpoints; mu/4 branch applies
    assert d.bound_pair == pytest.approx(math.exp(-0.125), rel=1e-12)
    assert exhaustive_pair_failure(k2, 2) == 0.5 <= d.bound_pair


def test_janson_definitions_on_seeded_hosts():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_graph(12, 0.3, rng)
        if g.M == 0:
            continue
        n = int(rng.integers(2, 6))
        d = janson_diagnostics(g, n)
        assert d.mu == pytest.approx(2 * g.M / n ** 2, rel=1e-12)
        # exact dependent-pair sum never exceeds the degree-square estimate
        assert d.D <= d.D_upper_estimate + 1e-15
        # oracle: count unordered edge pairs sharing an endpoint directly;
        # each such pair is bicolored-together with probability 2/n^3
        edges = [tuple(e) for e in g.edges.tolist()]
        adjacent_pairs = sum(
            1 for i in range(len(edges)) for j in range(i + 1, len(edges))
            if set(edges[i]) & set(edges[j]))
        assert d.D == pytest.approx(2 / n ** 3 * adjacent_pairs, rel=1e-12)


def test_janson_guards(c6):
    with pytest.raises(ParameterError):
        janson_diagnostics(c6, 1)
    with pytest.raises(DegenerateHost):
        janson_diagnostics(Graph(3, np.empty((0, 2), np.int64)), 2)


def test_concentration_examples():
    r = concentration_report(10000, 100)
    assert r.k == 100.0
    assert r.epsilon == pytest.approx(math.log(100) / 10, rel=1e-12)
    assert r.size_cap == pytest.approx(100 + 10 * math.log(100), rel=1e-12)

    r1 = concentration_report(50, 50)
    assert r1.k == 1.0 and r1.size_cap == pytest.approx(1 + math.log(50), rel=1e-12)

    for N, n in ((100, 10), (5000, 7), (64, 2)):
        r = concentration_report(N, n)
        assert r.per_class_bound == pytest.approx(
            math.exp(-math.log(n) ** 2 / 3), rel=1e-12)
        assert r.size_cap >= r.k >= 0
    with pytest.raises(ParameterError):
        concentration_report(5, 10)


def test_estimate_c6_matches_exact(c6):
    exact = exhaustive_pair_failure(c6, 2)
    est = estimate_pair_failure(c6, 2, 100000, 0)
    assert abs(est.estimate - exact) <= 4 * est.stderr
    # reproducible
    again = estimate_pair_failure(c6, 2, 100000, 0)
    assert again.estimate == est.estimate and again.stderr == est.stderr


def test_estimate_single_edge():
    k2 = build_graph(2, [(0, 1)])
    est = estimate_pair_failure(k2, 2, 50000, 0)
    assert abs(est.estimate - 0.5) <= 4 * est.stderr


def test_estimate_vs_bound_on_corpus():
    rng = np.random.default_rng(5)
    for _ in range(8):
        g = random_graph(14, 0.3, rng)
        if g.M == 0:
            continue
        n = int(rng.integers(2, 5))
        d = janson_diagnostics(g, n)
        est = estimate_pair_failure(g, n, 20000, 0)
        assert est.estimate <= d.bound_pair + 4 * est.stderr


def test_random_split_c6_succeeds(c6):
    result = random_split(c6, 3, 2, 1000, 0)
    assert not isinstance(result, FailureStats)
    assert result.n == 3
    assert verify_split(result, "strict").passed
    assert is_c4_free(result.graph) is None  # C6 host is C4-free; preserved
    # output depends only on (host, n, k_cap, trials, seed)
    assert random_split(c6, 3, 2, 1000, 0) == result
    assert random_split(c6, 3, 2, 10, 0) == result  # budget size is irrelevant


def test_random_split_trivial_and_errors(c6):
    single = random_split(c6, 1, 6, 1, 0)
    assert not isinstance(single, FailureStats) and single.n == 1
    with pytest.raises(ParameterError):
        random_split(c6, 3, 0, 10, 0)
    with pytest.raises(ParameterError):
        random_split(c6, 7, 2, 10, 0)  # more classes than vertices


def test_random_split_failure_stats(c6):
    # 6 singleton classes need all 15 pairs covered; C6 has only 6 edges
    result = random_split(c6, 6, 1, 50, 0)
    assert isinstance(result, FailureStats)
    assert result.trials == 50
    assert result.size_failures + result.pair_failures == 50
    assert result.janson is not None and result.concentration is not None
    assert result.janson.mu == pytest.approx(2 * 6 / 36, rel=1e-12)


def test_random_split_accepted_outputs_are_host_subgraphs():
    @given(st.integers(0, 10 ** 6), st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def prop(seed, n):
        rng = np.random.default_rng(seed)
        host = random_graph(12, 0.5, rng)
        result = random_split(host, n, 8, 40, seed)
        if isinstance(result, FailureStats):
            assert result.size_failures + result.pair_failures == 40
            return
        assert verify_split(result, "strict").passed
        host_edges = {tuple(e) for e in host.edges.tolist()}
        assert all(tuple(e) in host_edges for e in result.graph.edges.tolist())
        assert int(result.blob_sizes().max()) <= 8

    prop()


# ---------------------------------------------------------------------------
# Degree trimming
# ---------------------------------------------------------------------------

def two_c10s() -> Graph:
    edges = [(i, (i + 1) % 10) for i in range(10)]
    edges += [(10 + i, 10 + (i + 1) % 10) for i in range(10)]
    return build_graph(20, edges)


def four_triangles() -> Graph:
    edges = []
    for i in range(4):
        a = 3 * i
        edges += [(a, a + 1), (a, a + 2), (a + 1, a + 2)]
    return build_graph(12, edges)


B, CP = 1.5, 1.0  # the Turan profile ex(l, H) <= CP * l**B used by the trim tests


def test_trim_case2_two_c10s():
    g = two_c10s()
    result = trim_max_degree(g, B, CP, q_override=10)
    assert result.case == 2 and result.q == 10
    # oracle: remove the two lowest-id vertices (all degrees tie at 2) by hand
    removed = {0, 1}
    expected_edges = [e for e in g.edges.tolist() if not (set(e) & removed)]
    assert result.graph.M == len(expected_edges) == 17
    assert result.graph.M > g.M / 2
    assert int(result.graph.degrees().max()) <= 10 * g.M / g.V
    assert result.graph.V == g.V  # trimmed vertices stay as isolated vertices


def test_trim_case1_four_triangles():
    g = four_triangles()
    result = trim_max_degree(g, B, CP, q_override=3)
    assert result.case == 1 and result.q == 3
    cert = result.certificate
    assert cert.parts[0] == [0, 1, 2, 3]
    assert cert.parts[1] == [4, 5, 6, 7] and cert.parts[2] == [8, 9, 10, 11]
    assert cert.j == 2  # edges (3,4),(3,5) beat the empty count to part 3
    # oracle: count edges inside {0..7} by hand
    union = set(range(8))
    expected = sum(1 for u, v in g.edges.tolist() if u in union and v in union)
    assert cert.union_edge_count == expected == 7
    assert cert.lower_bound == g.M / (2 * (3 - 1)) == 3.0
    assert cert.union_edge_count >= cert.lower_bound


def test_trim_q_formula():
    # l=10^4, b=1.5, C'=1, m=l^1.5/2: the coefficient is 2^6=64 and the
    # ratio l^b/(2m) is exactly 1, so q must come out as 64
    ell = 10 ** 4
    m = int(ell ** 1.5) // 2
    edges = []
    u = 0
    remaining = m
    while remaining > 0:  # lex-prefix graph with exactly m edges
        take = min(remaining, ell - 1 - u)
        edges.append(np.column_stack(
            (np.full(take, u, dtype=np.int64), np.arange(u + 1, u + 1 + take))))
        remaining -= take
        u += 1
    g = Graph(ell, np.concatenate(edges))
    assert g.M == m
    result = trim_max_degree(g, B, CP)
    assert result.q == 64


def test_trim_validation():
    for b, cp in ((1.0, CP), (2.0, CP), (B, 0.0), (B, -1.0)):
        with pytest.raises(ParameterError):
            trim_max_degree(two_c10s(), b, cp, q_override=10)
    with pytest.raises(ParameterError):
        trim_max_degree(two_c10s(), B, CP, q_override=2)
    with pytest.raises(ParameterError):
        trim_max_degree(Graph(2, np.empty((0, 2), np.int64)), B, CP)



def reference_trim_partition(g: Graph, q: int) -> tuple[list[list[int]], int, int]:
    """Oracle: the list-based case-1 partition (parts, 1-based j, union edge count),
    with A_1 chosen by a Python key sort and the rest split by a hand loop."""
    ell = g.V
    deg = g.degrees()
    by_degree = sorted(range(ell), key=lambda v: (-deg[v], v))
    a1_size = -(-ell // q)
    a1 = by_degree[:a1_size]
    rest = sorted(set(range(ell)) - set(a1))
    base, extra = divmod(len(rest), q - 1)
    parts: list[list[int]] = [sorted(a1)]
    at = 0
    for gi in range(q - 1):
        size = base + (1 if gi < extra else 0)
        parts.append(rest[at:at + size])
        at += size
    part_of = np.empty(ell, dtype=np.int64)
    for pi, members in enumerate(parts):
        part_of[members] = pi
    pu = part_of[g.edges[:, 0]]
    pv = part_of[g.edges[:, 1]]
    to_a1 = (pu == 0) ^ (pv == 0)
    counts = np.bincount((pu + pv)[to_a1], minlength=q)  # other part index, 1..q-1
    j_part = int(np.argmax(counts[1:])) + 1              # first max -> smallest j
    union_edges = int((((pu == 0) | (pu == j_part)) & ((pv == 0) | (pv == j_part))).sum())
    return parts, j_part + 1, union_edges


@st.composite
def trim_inputs(draw):
    ell = draw(st.integers(3, 24))
    pairs = [(u, v) for u in range(ell) for v in range(u + 1, ell)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=60))
    return build_graph(ell, edges), draw(st.integers(3, ell + 3))


@given(trim_inputs())
@settings(max_examples=150, deadline=None)
def test_trim_matches_list_reference(data):
    g, q = data
    result = trim_max_degree(g, B, CP, q_override=q)
    deg = g.degrees()
    a1 = sorted(range(g.V), key=lambda v: (-deg[v], v))[:-(-g.V // q)]
    if int(deg[a1].sum()) < g.M / 2:
        assert result.case == 2
        kept = [e for e in g.edges.tolist() if not set(e) & set(a1)]
        assert result.graph.edges.tolist() == kept
        return
    parts, j, union_edges = reference_trim_partition(g, q)
    cert = result.certificate
    assert result.case == 1
    assert cert.parts == parts and cert.j == j and cert.union_edge_count == union_edges
    assert cert.part_sizes == [len(p) for p in parts]
    assert all(type(v) is int for part in cert.parts for v in part)  # JSON-printable


# ---------------------------------------------------------------------------
# Bit-sliced Monte Carlo and sort-free pair coverage against the dense code
# ---------------------------------------------------------------------------

def _reference_rng(seed: int, t: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(t,)))


def reference_estimate_pair_failure(host: Graph, n: int, samples: int,
                                    seed: int) -> PairFailureEstimate:
    """Oracle: the dense estimator, which gathers the endpoint colors of every
    (sample, edge) pair from the same draws as estimate_pair_failure."""
    u = host.edges[:, 0]
    v = host.edges[:, 1]
    failures = 0
    done = 0
    batch_index = 0
    while done < samples:
        size = min(MC_BATCH, samples - done)
        colors = _reference_rng(seed, batch_index).integers(0, n, size=(size, host.V))
        cu, cv = colors[:, u], colors[:, v]
        bicolored = ((cu == 0) & (cv == 1)) | ((cu == 1) & (cv == 0))
        failures += int((~bicolored.any(axis=1)).sum())
        done += size
        batch_index += 1
    p_hat = failures / samples
    return PairFailureEstimate(
        estimate=p_hat,
        stderr=math.sqrt(p_hat * (1.0 - p_hat) / samples),
        samples=samples, seed=seed)


def reference_random_split(host: Graph, n: int, k_cap: int, trials: int,
                           seed: int) -> SplitGraph | FailureStats:
    """Oracle: the rejection sampler with covered class pairs counted by
    np.unique, on the same draws as random_split."""
    total_pairs = n * (n - 1) // 2
    eu = host.edges[:, 0]
    ev = host.edges[:, 1]
    size_failures = 0
    pair_failures = 0
    for t in range(trials):
        colors = _reference_rng(seed, t).integers(0, n, size=host.V).astype(np.int64)
        sizes = np.bincount(colors, minlength=n)
        if sizes.min() == 0 or sizes.max() > k_cap:
            size_failures += 1
            continue
        bu, bv = colors[eu], colors[ev]
        cross = bu != bv
        keys = np.minimum(bu, bv)[cross] * n + np.maximum(bu, bv)[cross]
        if len(np.unique(keys)) != total_pairs:
            pair_failures += 1
            continue
        lax = SplitGraph(host, colors, n, int(sizes.max()))
        return prune_to_split(lax)
    return FailureStats(
        trials=trials, size_failures=size_failures, pair_failures=pair_failures,
        janson=janson_diagnostics(host, n) if host.M and n >= 2 else None,
        concentration=concentration_report(host.V, n) if n >= 2 else None)


@st.composite
def small_hosts(draw, max_vertices=12):
    """A host on n..max_vertices vertices (some isolated) and n colors; the
    edge density runs from edgeless to complete."""
    n = draw(st.integers(2, 8))
    V = draw(st.integers(n, max_vertices))
    pairs = [(i, j) for i in range(V) for j in range(i + 1, V)]
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    edges = [e for e in pairs if rng.random() < density]
    return build_graph(V, edges), n


def assert_same_split_result(result, expected):
    if isinstance(expected, FailureStats):
        assert isinstance(result, FailureStats)
        assert result == expected
        return
    assert not isinstance(result, FailureStats)
    assert result.n == expected.n and result.k == expected.k
    assert np.array_equal(result.graph.edges, expected.graph.edges)
    assert np.array_equal(result.blob_of, expected.blob_of)


@given(small_hosts(), st.sampled_from([1, 63, 64, 65, MC_BATCH, MC_BATCH + 1]),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_estimate_matches_dense_reference(host_n, samples, seed):
    host, n = host_n
    got = estimate_pair_failure(host, n, samples, seed)
    want = reference_estimate_pair_failure(host, n, samples, seed)
    assert got == want


@given(small_hosts(), st.integers(1, 12), st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_random_split_matches_unique_reference(host_n, k_cap, trials, seed):
    host, n = host_n
    assert_same_split_result(random_split(host, n, k_cap, trials, seed),
                             reference_random_split(host, n, k_cap, trials, seed))


def test_edge_cases_match_references(c6):
    edgeless = Graph(6, np.empty((0, 2), np.int64))
    sparse = build_graph(9, [(0, 1), (2, 3)])  # isolated vertices, M < C(n, 2)
    cases = [(c6, 2, 6), (c6, 3, 2), (c6, 6, 1), (edgeless, 2, 6), (edgeless, 1, 6),
             (sparse, 3, 9), (sparse, 2, 9), (build_graph(4, [(0, 1), (2, 3), (0, 3)]), 2, 4)]
    for host, n, k_cap in cases:
        for seed in range(5):
            assert_same_split_result(random_split(host, n, k_cap, 30, seed),
                                     reference_random_split(host, n, k_cap, 30, seed))
    for host, n, samples in ((edgeless, 2, 65), (sparse, 4, MC_BATCH + 1), (c6, 8, 63),
                             (c6, 10 ** 12, 65)):  # no table of n entries
        assert estimate_pair_failure(host, n, samples, 3) == \
            reference_estimate_pair_failure(host, n, samples, 3)


def test_estimate_pinned_value_on_h3():
    # recorded with the dense estimator; the bit-sliced one must reproduce it
    host = prune_to_split(build_affine_split(3)).graph
    assert estimate_pair_failure(host, 9, 300000, 13).estimate == 0.0020766666666666668


def test_estimate_peak_memory_is_one_color_batch():
    # the dense estimator needed about 16 * 4096 * M bytes (~0.5 GB) here
    host = prune_to_split(build_affine_split(5)).graph
    samples = 4096
    tracemalloc.start()
    try:
        estimate_pair_failure(host, 20, samples, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < samples * host.V * 8  # below one int64 color batch


@pytest.mark.parametrize("n", [2, 3, 9, 20, 60, 1000, 2 ** 31 - 1, 2 ** 31, 2 ** 32 - 1, 2 ** 32])
def test_uint32_draw_equals_int64_draw(n):
    # estimate_pair_failure draws uint32 colors for n <= 2**32 and relies on
    # numpy giving the int64 values (uint8 and uint16 draws do differ)
    for seed, batch in ((0, 0), (1, 3), (13, 7), (2 ** 40, 1)):
        wide = probabilistic._trial_rng(seed, batch).integers(0, n, size=(33, 65))
        narrow = probabilistic._trial_rng(seed, batch).integers(
            0, n, size=(33, 65), dtype=np.uint32)
        assert np.array_equal(wide, narrow)


def test_estimate_color_count_range(c6):
    # n around the uint32 / int64 switch and at the int64 limit
    for n in (2 ** 32, 2 ** 32 + 1, 2 ** 63 - 1):
        assert estimate_pair_failure(c6, n, 65, 2) == \
            reference_estimate_pair_failure(c6, n, 65, 2)
    with pytest.raises(ParameterError):
        estimate_pair_failure(c6, 2 ** 63, 1, 0)


def test_random_split_without_enough_edges_allocates_no_pair_buffer():
    n, V = 3000, 60000
    host = build_graph(V, np.column_stack((np.arange(V - 1), np.arange(1, V))))
    assert host.M < n * (n - 1) // 2
    tracemalloc.start()
    try:
        result = random_split(host, n, V, 3, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(result, FailureStats)
    assert result.size_failures == 0 and result.pair_failures == 3  # sizes passed
    assert peak < n * n // 2
    assert result == reference_random_split(host, n, V, 3, 0)


def test_estimate_size_guard_before_drawing(monkeypatch):
    host = Graph(10000, np.empty((0, 2), np.int64))
    with pytest.raises(SizeGuard):
        estimate_pair_failure(host, 2, MC_BATCH, 0)  # 16384 * 10000 * 8 B > 1 GiB
    # the bound is exact: 64 samples of 10 vertices fit, 65 do not
    monkeypatch.setattr(probabilistic, "MAX_MC_BATCH_BYTES", 64 * 10 * 8)
    small = Graph(10, np.empty((0, 2), np.int64))
    assert estimate_pair_failure(small, 2, 64, 0).estimate == 1.0
    with pytest.raises(SizeGuard):
        estimate_pair_failure(small, 2, 65, 0)
