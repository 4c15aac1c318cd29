"""Acceptance suite: one test per criterion, each contributing a PASS/FAIL
line to the pytest terminal summary.

Run with `pytest tests/test_acceptance.py -v`.
"""

import functools
import itertools
import json
import math

import numpy as np
import pytest

from conftest import brute_split_census, build_graph, seeded_corpus
from splitfree.bounds import necessary_k_lower, split_bounds
from splitfree.cli import run
from splitfree.constructions import (
    EdgeColoring,
    next_prime,
    pipeline_parameters,
    write_coloring,
)
from splitfree.freeness import contains_subgraph, is_c4_free, is_kst_free, parse_forbidden_spec
from splitfree.graphs import (
    connected_components,
    read_split,
    verify_split,
    write_graph,
)
from splitfree.probabilistic import (
    estimate_pair_failure,
    janson_diagnostics,
    trim_max_degree,
)


def criterion(label, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            import conftest
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                conftest.ACCEPTANCE_LINES.append(
                    f"ACCEPTANCE {label}: FAIL - {description} ({type(exc).__name__})")
                raise
            conftest.ACCEPTANCE_LINES.append(f"ACCEPTANCE {label}: PASS - {description}")
        return wrapper
    return deco


def cli(capsys, *argv):
    code = run([str(a) for a in argv])
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


# -- 1: affine construction ---------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_criterion_1_affine(capsys, tmp_path, p):
    @criterion(f"1 (p={p})", f"affine split is a lax C4-free (p^3, 2p)-graph")
    def check():
        out = tmp_path / f"affine{p}.sg"
        code, result = cli(capsys, "construct", "affine", "--p", p, "-o", out)
        assert code == 0, result
        split = read_split(out)
        q = p * p
        assert split.n == p ** 3 and split.k == 2 * p
        assert split.graph.V == 2 * p ** 4
        assert (split.blob_sizes() == 2 * p).all()
        # (a) every blob pair spans an edge: independent pure-Python recount
        census = brute_split_census(split)
        assert census["missing"] == []
        # (b) no two vertices share two common neighbors
        assert is_c4_free(split.graph) is None
        if p <= 3:
            assert contains_subgraph(split.graph, parse_forbidden_spec("C4")) is None
        # (c) point and line degrees all equal q
        assert (split.graph.degrees() == q).all()
    check()


# -- 2: C4-free pipeline ------------------------------------------------------

def pipeline_k(n: int) -> int:
    """Exact-arithmetic restatement of the pipeline blob size."""
    big_n = round((n * n) ** (1 / 3))
    while big_n ** 3 < n * n:
        big_n += 1
    while (big_n - 1) ** 3 >= n * n:
        big_n -= 1
    k0 = math.isqrt(big_n)
    if k0 * k0 < big_n:
        k0 += 1
    return 2 * next_prime(k0)


@pytest.mark.parametrize("n", [27, 1000])
def test_criterion_2_pipeline(capsys, tmp_path, n):
    @criterion(f"2 (n={n})", "pipeline yields a strict C4-free (n, k)-graph, k within 2.5 n^(1/3)")
    def check():
        out = tmp_path / f"pipe{n}.sg"
        code, result = cli(capsys, "construct", "c4pipeline", "--n", n, "-o", out)
        assert code == 0, result
        split = read_split(out)
        k = int(split.blob_sizes().max())
        assert k == pipeline_k(n) == result["k"]
        assert k / n ** (1 / 3) <= 2.5
        assert verify_split(split, "strict").passed
        assert is_c4_free(split.graph) is None
    check()


def test_criterion_2_pipeline_at_100000(capsys):
    @criterion("2 (n=100000)", "pipeline at n=10^5")
    def check():
        n = 100000
        _, _, p = pipeline_parameters(n)
        assert 2 * p == pipeline_k(n) == 94
        assert 2 * p / n ** (1 / 3) <= 2.5
        code, result = cli(capsys, "construct", "c4pipeline", "--n", n)
        if code != 0:
            pytest.fail(
                "unattainable at n=10^5: a strict split of 10^5 blobs has "
                "n(n-1)/2 = 4,999,950,000 edges, so the object itself needs "
                ">= 40 GB before any verification, far beyond laptop-class "
                "memory and this machine's 5 GB; the pipeline needs p=47, "
                "which the affine size guard (p <= 31, ~2*10^6 vertices) "
                "rejects for the same reason. The construction refused with: "
                f"{result['error']}. The parameter arithmetic above (k=94, "
                "k/n^(1/3) ~ 2.03 <= 2.5) does hold.")
        split = read_split("unreachable.sg")
        assert verify_split(split, "strict").passed
    check()


# -- 3: lower bound and combined report ---------------------------------------

def test_criterion_3_lower_bound():
    @criterion("3", "f(1000, C4): lower 9 from the edge-count condition, upper 22 certified")
    def check():
        c4 = parse_forbidden_spec("C4")
        assert 1000 * 999 // 2 == 499500
        assert necessary_k_lower(c4, 1000) == 9
        report = split_bounds(c4, 1000, certify=True)
        assert report.f_lower == 9
        assert report.f_upper == 22
        assert report.f_upper_certified and report.achieved_k == 22
    check()


# -- 4: diagnostics for C6, n=2 -----------------------------------------------

def test_criterion_4_janson(c6):
    @criterion("4", "C6/n=2: mu=3, D=1.5, bound=exp(-1/8); exact 1/32 <= bound; MC agrees")
    def check():
        d = janson_diagnostics(c6, 2)
        assert d.mu == 3.0 and d.D == 1.5
        assert d.bound_pair == pytest.approx(math.exp(-0.125), rel=1e-12)
        edges = c6.edges.tolist()
        failures = sum(
            1 for coloring in itertools.product(range(2), repeat=6)
            if not any({coloring[u], coloring[v]} == {0, 1} for u, v in edges))
        assert failures / 64 == 1 / 32 <= d.bound_pair
        est = estimate_pair_failure(c6, 2, 100000, 0)
        assert abs(est.estimate - 1 / 32) <= 4 * est.stderr
    check()


# -- 5: randomized split on the pruned affine host -----------------------------

def test_criterion_5_random_split(capsys, tmp_path):
    @criterion("5", "random-split on pruned p=3 affine host with n=9 accepts and verifies")
    def check():
        raw, host, out = (tmp_path / s for s in ("a3.sg", "host.sg", "rnd.sg"))
        assert cli(capsys, "construct", "affine", "--p", 3, "-o", raw)[0] == 0
        assert cli(capsys, "prune", "--input", raw, "-o", host)[0] == 0
        code, result = cli(capsys, "random-split", "--input", host, "--n", 9,
                           "--trials", 10000, "--seed", 0, "--forbidden", "C4",
                           "-o", out)
        assert code == 0, result
        assert result["accepted"], "accepting coloring must be found in the budget"
        split = read_split(out)
        cap = 18 + math.sqrt(18) * math.log(9)
        assert int(split.blob_sizes().max()) <= cap
        assert verify_split(split, "strict").passed
        assert is_c4_free(split.graph) is None
    check()


# -- 6: star splits -----------------------------------------------------------

@pytest.mark.parametrize("n,t", list(itertools.product([10, 50, 100], [3, 4, 5])))
def test_criterion_6_star(capsys, tmp_path, n, t):
    @criterion(f"6 (n={n}, t={t})", "star split is strict, K_{1,t}-free, with k in bounds")
    def check():
        out = tmp_path / f"star{n}_{t}.sg"
        code, result = cli(capsys, "construct", "star", "--n", n, "--t", t, "-o", out)
        assert code == 0, result
        split = read_split(out)
        assert verify_split(split, "strict").passed
        assert int(split.graph.degrees().max()) <= t - 1
        assert is_kst_free(split.graph, 1, t) is None
        k = split.k
        assert math.ceil((n - 1) / (t - 1)) <= k <= math.ceil(n / (t - 1)) + 1
    check()


# -- 7: split from a Ramsey-style coloring ------------------------------------

def test_criterion_7_from_coloring(capsys, tmp_path):
    @criterion("7", "K5 colored by two edge-disjoint C5s gives a K3-free (5,2)-graph, 2 C5 components")
    def check():
        cycle_a = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
        cycle_b = [(0, 2), (2, 4), (1, 4), (1, 3), (0, 3)]
        color = {tuple(sorted(e)): 0 for e in cycle_a}
        color.update({tuple(sorted(e)): 1 for e in cycle_b})
        assert len(color) == 10  # the two cycles are edge-disjoint and cover K5
        path = tmp_path / "two_c5.ec"
        write_coloring(EdgeColoring(5, 2, color), path)
        out = tmp_path / "ramsey.sg"
        code, result = cli(capsys, "construct", "from-coloring", "--input", path,
                           "--forbidden", "C3", "-o", out)
        assert code == 0, result
        split = read_split(out)
        assert split.n == 5 and split.graph.V == 10
        assert verify_split(split, "strict").passed
        assert contains_subgraph(split.graph, parse_forbidden_spec("C3")) is None
        labels = connected_components(split.graph)
        assert labels.max() == 1
        for comp in (0, 1):  # each component: 5 vertices, all of degree 2 -> a C5
            members = np.flatnonzero(labels == comp)
            assert len(members) == 5
            assert (split.graph.degrees()[members] == 2).all()
    check()


# -- 8: degree trimming -------------------------------------------------------

def test_criterion_8_trimming():
    @criterion("8", "forced-q trimming: case 2 keeps > m/2 edges at low degree; case 1 certifies")
    def check():
        c10s = build_graph(20, [(i, (i + 1) % 10) for i in range(10)]
                               + [(10 + i, 10 + (i + 1) % 10) for i in range(10)])
        res = trim_max_degree(c10s, 1.5, 1.0, q_override=10)
        assert res.case == 2
        assert res.graph.M > 20 / 2
        assert int(res.graph.degrees().max()) <= 10 * 20 / 20

        tris = []
        for i in range(4):
            a = 3 * i
            tris += [(a, a + 1), (a, a + 2), (a + 1, a + 2)]
        res = trim_max_degree(build_graph(12, tris), 1.5, 1.0, q_override=3)
        assert res.case == 1
        assert res.certificate.lower_bound == 12 / (2 * (3 - 1)) == 3
        assert res.certificate.union_edge_count >= 3
    check()


# -- 9: oracle equivalence ----------------------------------------------------

def test_criterion_9_oracle_equivalence():
    @criterion("9", "family checkers match the backtracking oracle on 100 seeded graphs")
    def check():
        patterns = [("C4", None), ("K2,2", (2, 2)), ("K2,3", (2, 3)), ("K1,3", (1, 3))]
        for g in seeded_corpus(count=100, n=30, p=0.2, seed=0):
            for spec, stt in patterns:
                h = parse_forbidden_spec(spec)
                oracle_hit = contains_subgraph(g, h) is not None
                fast = is_c4_free(g) if spec == "C4" else is_kst_free(g, *stt)
                assert (fast is not None) == oracle_hit, f"{spec} disagrees"
    check()


# -- 10: field axioms ----------------------------------------------------------

def test_criterion_10_fields():
    @criterion("10", "field axioms hold exhaustively for GF(p^2), p in {2,3,5,7}")
    def check():
        from test_fields import all_fields, test_field_axioms_exhaustive
        for f in all_fields():
            test_field_axioms_exhaustive(f)
    check()


# -- 11: determinism ----------------------------------------------------------

def test_criterion_11_determinism(capsys, tmp_path):
    @criterion("11", "identical invocations give byte-identical files; seeds fully determine outputs")
    def check():
        jobs = [
            ["construct", "affine", "--p", "3"],
            ["construct", "c4pipeline", "--n", "64"],
            ["construct", "star", "--n", "50", "--t", "4"],
            ["construct", "bipartite", "--n", "12"],
        ]
        for idx, argv in enumerate(jobs):
            f1, f2 = tmp_path / f"d{idx}a.sg", tmp_path / f"d{idx}b.sg"
            assert run(argv + ["-o", str(f1)]) == 0
            assert run(argv + ["-o", str(f2)]) == 0
            capsys.readouterr()
            assert f1.read_bytes() == f2.read_bytes()

        host = tmp_path / "host.g"
        write_graph(seeded_corpus(count=1, n=24, p=0.4, seed=3)[0], host)
        outs = []
        for rep in range(2):
            out = tmp_path / f"r{rep}.sg"
            code, result = cli(capsys, "random-split", "--input", host, "--n", 4,
                               "--k-cap", 12, "--trials", 200, "--seed", 7, "-o", out)
            assert code == 0 and result["accepted"]
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

        d1 = cli(capsys, "diagnose", "--input", host, "--n", 3)
        d2 = cli(capsys, "diagnose", "--input", host, "--n", 3)
        assert d1 == d2
    check()
