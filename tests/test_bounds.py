"""Certified Turán bounds, the necessary blob-size condition, split-bound
reports, and tree Ramsey bounds."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitfree import bounds, constructions, freeness
from splitfree.bounds import (
    necessary_k_lower,
    ramsey_bounds,
    split_bounds,
    turan_bound,
)
from splitfree.cli import run
from splitfree.errors import InvariantViolation, ParameterError, UnsupportedFamily
from splitfree.freeness import parse_forbidden_spec
from splitfree.graphs import build_graph, write_graph

SRC = Path(__file__).resolve().parents[1] / "src"


def brute_ex_star(ell: int, t: int) -> int:
    """Oracle for stars: max edges with every degree <= t-1 is floor(ell(t-1)/2)
    by a degree-sum argument; re-derive it here instead of trusting the code."""
    return ell * (t - 1) // 2


def test_turan_c4_example():
    c4 = parse_forbidden_spec("C4")
    low, high = turan_bound(c4, 16)
    assert low == 0 and high == 35  # floor of 16*(1+sqrt(61))/4


def test_turan_star_example():
    s3 = parse_forbidden_spec("K1,3")
    assert turan_bound(s3, 10) == (10, 10)
    for ell, t in ((7, 2), (9, 4), (20, 5)):
        st_ = parse_forbidden_spec(f"S{t}")
        assert turan_bound(st_, ell) == (brute_ex_star(ell, t),) * 2


def test_turan_tree_example():
    p4 = parse_forbidden_spec("P4")  # tree with 3 edges
    low, high = turan_bound(p4, 8)
    assert low == 2 * 3 + 1 == 7  # two disjoint triangles plus an edge on the rest
    assert high == 16


def test_turan_k2t_monotone_and_exact_arithmetic():
    k23 = parse_forbidden_spec("K2,3")
    values = [turan_bound(k23, ell)[1] for ell in range(5, 60)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    # spot-check the closed form against a float evaluation
    import math
    ell = 40
    float_val = ell * (1 + math.sqrt(4 * 2 * (ell - 1) + 1)) / 4
    assert turan_bound(k23, ell)[1] == math.floor(float_val)


def test_turan_star_inside_tree_interval():
    """Stars are trees, so the exact star count must sit in the generic tree
    interval (clique unions from below, ell*(t-1) from above)."""
    for t in (2, 3, 5):
        star = parse_forbidden_spec(f"S{t}")
        for ell in range(t + 1, 40):
            exact = turan_bound(star, ell)[0]
            cliques, rest = divmod(ell, t)
            tree_low = cliques * (t * (t - 1) // 2) + rest * (rest - 1) // 2
            tree_high = ell * (t - 1)
            assert tree_low <= exact <= tree_high


def test_turan_unsupported():
    for spec in ("C6", "C10", "K3,3"):
        with pytest.raises(UnsupportedFamily):
            turan_bound(parse_forbidden_spec(spec), 100)
    # below |V(H)| every graph is H-free: exactly C(ell, 2), even for K3,3
    assert turan_bound(parse_forbidden_spec("C4"), 3) == (3, 3)
    assert turan_bound(parse_forbidden_spec("K3,3"), 5) == (10, 10)


def test_necessary_k_lower_c4_1000():
    c4 = parse_forbidden_spec("C4")
    assert necessary_k_lower(c4, 1000) == 9
    # the defining inequalities at the boundary
    assert turan_bound(c4, 9000)[1] < 499500 <= turan_bound(c4, 10000)[1]


def test_necessary_k_lower_star_closed_form():
    for n, t in ((100, 3), (57, 4), (1000, 5), (8, 4)):
        h = parse_forbidden_spec(f"S{t}")
        by_scan = necessary_k_lower(h, n)
        # largest k with floor(nk(t-1)/2) < n(n-1)/2, scanned independently
        k = 1
        while (n * (k + 1) * (t - 1)) // 2 < n * (n - 1) // 2:
            k += 1
        assert by_scan == max(k, 1)


def _linear_k_lower(h, n: int) -> int:
    """The former one-step-at-a-time scan, kept as the reference."""
    target = n * (n - 1) // 2
    k = 0
    while bounds.turan_bound(h, n * (k + 1))[1] < target:
        k += 1
    return max(k, 1)


def test_necessary_k_lower_matches_linear_scan(tmp_path):
    write_graph(build_graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)]), tmp_path / "tree.g")
    specs = ["C4", "K2,3", "S2", "S3", "S4", "S5", "P3", "P4", "P5", f"file:{tmp_path / 'tree.g'}"]
    for spec in specs:
        h = parse_forbidden_spec(spec)
        for n in [*range(2, 301), 1000, 4097, 20000]:
            assert necessary_k_lower(h, n) == _linear_k_lower(h, n), (spec, n)


def test_necessary_k_lower_at_huge_n(capsys, monkeypatch):
    # doubling then bisection: O(log f) bound evaluations, not f of them
    calls = []
    turan = bounds.turan_bound
    monkeypatch.setattr(bounds, "turan_bound", lambda h, ell: calls.append(ell) or turan(h, ell))
    for spec, k in (("S3", 499999999999), ("P4", 249999999999)):
        calls.clear()
        start = time.perf_counter()
        assert run(["bounds", "--forbidden", spec, "--n", str(10 ** 12)]) == 0
        assert time.perf_counter() - start < 1.0
        assert json.loads(capsys.readouterr().out)["report"]["f_lower"] == k
        assert len(calls) < 100


def test_necessary_k_lower_small_n():
    assert necessary_k_lower(parse_forbidden_spec("C4"), 2) == 1
    with pytest.raises(UnsupportedFamily):
        necessary_k_lower(parse_forbidden_spec("S1"), 10)  # single edge: undefined


def test_necessary_k_lower_monotone_in_n():
    c4 = parse_forbidden_spec("C4")
    values = [necessary_k_lower(c4, n) for n in range(10, 1001)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_split_bounds_c4_1000():
    report = split_bounds(parse_forbidden_spec("C4"), 1000)
    assert report.f_lower == 9
    assert report.f_upper == 22
    assert report.f_upper_certified
    assert report.achieved_k is None  # not certified in this call
    assert any("f >= k+1" in note for note in report.notes)
    assert list(vars(report)) == [  # the JSON keys, in order
        "forbidden", "n", "f_lower", "f_lower_provenance", "f_upper",
        "f_upper_provenance", "f_upper_certified", "achieved_k", "notes"]


def test_split_bounds_c4_certified():
    report = split_bounds(parse_forbidden_spec("C4"), 27, certify=True)
    assert report.f_upper == 6 and report.achieved_k == 6
    assert report.achieved_k >= report.f_lower


def test_split_bounds_non_bipartite():
    for n in (5, 40):
        report = split_bounds(parse_forbidden_spec("C3"), n, certify=True)
        assert report.f_upper == 2 and report.achieved_k == 2
    tiny = split_bounds(parse_forbidden_spec("C5"), 3)
    assert tiny.f_upper == 1  # K_3 has fewer than 5 vertices


def test_split_bounds_star():
    report = split_bounds(parse_forbidden_spec("K1,4"), 8, certify=True)
    assert report.f_lower == 2
    assert report.f_upper == 3 and report.achieved_k == 3


def test_split_bounds_tree_informational():
    report = split_bounds(parse_forbidden_spec("P4"), 20)  # path with t=3 edges
    assert not report.f_upper_certified
    assert report.f_upper == pytest.approx(2 * (20 - 1) / (3 - 1))
    assert report.f_lower >= 1


def test_split_bounds_unsupported():
    for spec in ("C6", "K3,3"):
        with pytest.raises(UnsupportedFamily):
            split_bounds(parse_forbidden_spec(spec), 100)
    with pytest.raises(UnsupportedFamily):
        split_bounds(parse_forbidden_spec("P2"), 10)  # single edge


def test_split_bounds_trivial_below_pattern_size(tmp_path):
    """K_n with n < |V(H)| has no copy of H, whatever H is: f = 1 for every kind."""
    write_graph(parse_forbidden_spec("C6").graph, tmp_path / "c6.g")
    specs = ["C5", "C7", "C4", "K2,3", "K3,3", "K1,4", "S4", "P5", f"file:{tmp_path / 'c6.g'}"]
    for spec in specs:
        h = parse_forbidden_spec(spec)
        for n in range(2, h.graph.V):
            for certify in (False, True):
                report = split_bounds(h, n, certify=certify)
                assert vars(report) == {
                    "forbidden": spec, "n": n, "f_lower": 1,
                    "f_lower_provenance": "trivial (any split works)", "f_upper": 1,
                    "f_upper_provenance": f"K_{n} itself has fewer than {h.graph.V} vertices",
                    "f_upper_certified": True, "achieved_k": 1, "notes": []}


def test_non_bipartite_certify_never_calls_the_oracle(monkeypatch):
    def refuse(*args):
        raise AssertionError("backtracking oracle called")

    monkeypatch.setattr(freeness, "contains_subgraph", refuse)
    for spec, n in (("C5", 80), ("C7", 40), ("C13", 14)):
        report = split_bounds(parse_forbidden_spec(spec), n, certify=True)
        assert (report.f_lower, report.f_upper, report.achieved_k) == (2, 2, 2)


def test_certify_refuses_each_failed_condition(monkeypatch):
    """The certificate fails when the split is not strict, contains the pattern, or
    has blobs smaller than the lower bound allows.  Each check is broken in the
    module that owns it."""
    failed = type("Report", (), {"passed": False})()
    two_coloring = constructions.two_coloring
    breaks = [("S3", constructions, "verify_split", lambda split, mode: failed),
              ("S3", constructions, "check_forbidden", lambda g, h: {0: 0, 1: 1, 2: 2, 3: 3}),
              ("S3", bounds, "necessary_k_lower", lambda h, n: 99),
              # C5 keeps its odd cycle; only the built split loses its 2-coloring
              ("C5", constructions, "two_coloring",
               lambda g: two_coloring(g) if g.V == 5 else None)]
    for spec, module, name, broken in breaks:
        with monkeypatch.context() as m:
            m.setattr(module, name, broken)
            with pytest.raises(InvariantViolation):
                split_bounds(parse_forbidden_spec(spec), 9, certify=True)


def test_certify_checks_survive_optimized_mode():
    """Under python -O a checker that finds a star in the built split must still
    stop the certificate."""
    program = (
        "from splitfree import bounds, constructions\n"
        "from splitfree.errors import InvariantViolation\n"
        "from splitfree.freeness import parse_forbidden_spec\n"
        "assert False, 'asserts are live'\n"
        "constructions.check_forbidden = lambda g, h: {0: 0, 1: 1, 2: 2, 3: 3}\n"
        "try:\n"
        "    bounds.split_bounds(parse_forbidden_spec('S3'), 9, certify=True)\n"
        "except InvariantViolation as exc:\n"
        "    print('refused:', exc)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    proc = subprocess.run([sys.executable, "-O", "-c", program],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("refused: S3"), proc.stdout


def test_ramsey_examples():
    rb = ramsey_bounds(3, 2)
    assert rb.lower == 3 and rb.upper == 13
    assert ramsey_bounds(4, 2).epsilon == 1  # k and t both even
    assert ramsey_bounds(4, 3).epsilon == 2
    assert ramsey_bounds(1, 1).lower <= ramsey_bounds(1, 1).upper


@given(st.integers(1, 60), st.integers(1, 60))
@settings(max_examples=80, deadline=None)
def test_ramsey_interval_properties(t, k):
    rb = ramsey_bounds(t, k)
    assert rb.lower <= rb.upper
    assert rb.lower <= rb.star_exact <= rb.upper
