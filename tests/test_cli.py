"""CLI behavior: exit codes, JSON results, self-verification, determinism."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from splitfree.cli import build_parser, run
from splitfree.constructions import EdgeColoring, build_bipartite_split, write_coloring
from splitfree.graphs import read_split, write_graph, write_split
from conftest import cycle_graph

import numpy as np
from splitfree.graphs import Graph, SplitGraph

ROOT = Path(__file__).resolve().parents[1]


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def test_construct_affine(capsys, tmp_path):
    out = tmp_path / "aff.sg"
    code, result = invoke(capsys, "construct", "affine", "--p", "3", "-o", str(out))
    assert code == 0
    assert result["passed"] and result["n"] == 27 and result["k"] == 6
    assert result["seed"] == 0
    assert result["verification"]["passed"]
    assert result["forbidden"]["free"]
    split = read_split(out)
    assert split.n == 27


def test_construct_affine_bad_p(capsys):
    code, result = invoke(capsys, "construct", "affine", "--p", "9")
    assert code == 1
    assert result["error"]["type"] == "CompositeCharacteristic"


def test_bad_pattern_is_refused_before_any_file_is_written(capsys, tmp_path):
    out = tmp_path / "x.sg"
    code, result = invoke(capsys, "construct", "affine", "--p", "2", "--forbidden", "Q4",
                          "-o", str(out))
    assert code == 1 and result["error"]["type"] == "GrammarError"
    assert not out.exists()
    # a check that runs and fails still writes its file
    code, result = invoke(capsys, "construct", "bipartite", "--n", "6", "--forbidden", "C4",
                          "-o", str(out))
    assert code == 1 and result["forbidden"]["free"] is False
    assert read_split(out).n == 6


def test_pipeline_size_guard_exit(capsys):
    code, result = invoke(capsys, "construct", "c4pipeline", "--n", "100000")
    assert code == 1
    assert result["error"]["type"] == "SizeGuard"


def test_verify_roundtrip(capsys, tmp_path):
    out = tmp_path / "aff.sg"
    invoke(capsys, "construct", "affine", "--p", "2", "-o", str(out))
    code, result = invoke(capsys, "verify", "--input", str(out),
                          "--forbidden", "C4", "--mode", "lax")
    assert code == 0 and result["passed"]
    assert list(result["report"]) == ["mode", "passed", "missing_pairs",
                                      "multi_pairs", "internal_edges",
                                      "max_blob_size", "edge_count"]
    # strict mode fails on the raw (unpruned) affine split
    code, result = invoke(capsys, "verify", "--input", str(out), "--mode", "strict")
    assert code == 1 and not result["passed"]


def test_verify_edgeless_strict(capsys, tmp_path):
    path = tmp_path / "edgeless.sg"
    split = SplitGraph(Graph(2, np.empty((0, 2), np.int64)), np.array([0, 1]), 2, 1)
    write_split(split, path)
    code, result = invoke(capsys, "verify", "--input", str(path), "--mode", "strict")
    assert code == 1
    assert result["report"]["missing_pairs"] == [[0, 1]]


def test_prune_restrict_flow(capsys, tmp_path):
    raw = tmp_path / "raw.sg"
    pruned = tmp_path / "pruned.sg"
    restricted = tmp_path / "restricted.sg"
    invoke(capsys, "construct", "affine", "--p", "3", "-o", str(raw))
    code, result = invoke(capsys, "prune", "--input", str(raw), "-o", str(pruned))
    assert code == 0 and result["edges"] == 27 * 26 // 2
    code, result = invoke(capsys, "restrict", "--input", str(pruned),
                          "--n", "20", "-o", str(restricted))
    assert code == 0 and result["n"] == 20
    assert read_split(restricted).graph.V == 20 * 6


def test_random_split_cli(capsys, tmp_path):
    host = tmp_path / "host.sg"
    out = tmp_path / "rnd.sg"
    invoke(capsys, "construct", "affine", "--p", "2", "-o", str(host))
    code, result = invoke(capsys, "random-split", "--input", str(host),
                          "--n", "4", "--trials", "500", "--seed", "0",
                          "--forbidden", "C4", "-o", str(out))
    assert code == 0 and result["accepted"]
    assert result["k"] <= result["k_cap"]
    assert result["verification"]["passed"] and result["forbidden"]["free"]


def test_random_split_failure(capsys, tmp_path):
    host = tmp_path / "c6.g"
    write_graph(cycle_graph(6), host)
    code, result = invoke(capsys, "random-split", "--input", str(host),
                          "--n", "6", "--k-cap", "1", "--trials", "20")
    assert code == 1 and not result["accepted"]
    stats = result["failure_stats"]
    assert stats["size_failures"] + stats["pair_failures"] == 20


def test_construct_star_and_bipartite(capsys, tmp_path):
    code, result = invoke(capsys, "construct", "star", "--n", "8", "--t", "4",
                          "-o", str(tmp_path / "star.sg"))
    assert code == 0 and result["k"] == 3 and result["forbidden"]["free"]
    code, result = invoke(capsys, "construct", "bipartite", "--n", "10")
    assert code == 0 and result["k"] == 2
    assert result["forbidden"]["spec"] == "any non-bipartite graph"


def test_construct_from_coloring(capsys, tmp_path):
    cycle_a = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    cycle_b = [(0, 2), (2, 4), (1, 4), (1, 3), (0, 3)]
    color = {tuple(sorted(e)): 0 for e in cycle_a}
    color.update({tuple(sorted(e)): 1 for e in cycle_b})
    path = tmp_path / "two_c5.ec"
    write_coloring(EdgeColoring(5, 2, color), path)
    code, result = invoke(capsys, "construct", "from-coloring",
                          "--input", str(path), "--forbidden", "C3",
                          "-o", str(tmp_path / "out.sg"))
    assert code == 0 and result["n"] == 5 and result["k"] == 2
    assert result["forbidden"]["free"]


def test_diagnose_estimate(capsys, tmp_path):
    host = tmp_path / "c6.g"
    write_graph(cycle_graph(6), host)
    code, result = invoke(capsys, "diagnose", "--input", str(host), "--n", "2")
    assert code == 0
    assert result["janson"]["mu"] == 3.0 and result["janson"]["D"] == 1.5
    assert result["log_convention"] == "natural logarithm"
    code, result = invoke(capsys, "estimate", "--input", str(host), "--n", "2",
                          "--samples", "20000", "--seed", "0")
    assert code == 0
    assert abs(result["estimate"]["estimate"] - 1 / 32) <= 4 * result["estimate"]["stderr"]


def test_trim_cli(capsys, tmp_path):
    host = tmp_path / "c10s.g"
    edges = [(i, (i + 1) % 10) for i in range(10)]
    edges += [(10 + i, 10 + (i + 1) % 10) for i in range(10)]
    write_graph(Graph(20, np.array(edges)), host)
    code, result = invoke(capsys, "trim", "--input", str(host), "--b", "1.5",
                          "--q", "10", "-o", str(tmp_path / "trimmed.g"))
    assert code == 0 and result["case"] == 2 and result["edges"] == 17


TRIM_FORMULA_REFUSED = {  # flags after --b 1.5 on two disjoint C10s; each once ended in a traceback
    "ex_zero": ["--ex", "0"],                      # ZeroDivisionError
    "ex_negative": ["--ex", "-5"],                 # printed a case-2 result at q = 20480
    "ex_huge": ["--ex", str(10 ** 400)],           # OverflowError
    "b_near_one": ["--b", "1.0000001"],            # OverflowError
    "c_upper_huge": ["--c-upper", "1e308"],        # OverflowError
    "c_upper_inf": ["--c-upper", "inf"],           # OverflowError
    "c_upper_nan": ["--c-upper", "nan"],           # ValueError
}


@pytest.mark.parametrize("name", sorted(TRIM_FORMULA_REFUSED))
def test_trim_q_formula_inputs_exit_1(name, capsys, tmp_path):
    host = tmp_path / "c10s.g"
    c10 = cycle_graph(10).edges
    write_graph(Graph(20, np.concatenate([c10, c10 + 10])), host)
    code, result = invoke(capsys, "trim", "--input", str(host), "--b", "1.5",
                          *TRIM_FORMULA_REFUSED[name])
    assert code == 1 and not result["passed"]
    assert result["error"]["type"] == "ParameterError"
    assert "Traceback" not in capsys.readouterr().err


def test_trim_removed_flags_exit_2(capsys):
    # --a and --c-lower fed only a profile check; trim reads b and --c-upper alone
    assert build_parser().parse_args(["trim", "--input", "x.g", "--b", "1.5"]).c_upper == 1.0
    for flag, value in (("--a", "1.2"), ("--c-lower", "2")):
        assert run(["trim", "--input", "x.g", "--b", "1.5", flag, value]) == 2
    assert capsys.readouterr().err.count("unrecognized arguments: --") == 2


def test_construct_max_p_flag_exit_2(capsys):
    # the affine guard is a constant, like every other size guard
    assert run(["construct", "affine", "--p", "2", "--max-p", "7"]) == 2
    assert run(["construct", "c4pipeline", "--n", "8", "--max-p", "7"]) == 2
    assert capsys.readouterr().err.count("unrecognized arguments: --max-p 7") == 2


def test_pipeline_guard_boundary_exits_before_allocating(capsys):
    # n = 29792 is the least n whose pipeline prime, 37, is over the guard;
    # construct and bounds --certify refuse it alike, before building anything
    messages = []
    for argv in (["construct", "c4pipeline", "--n", "29792", "--no-verify"],
                 ["bounds", "--forbidden", "C4", "--n", "29792", "--certify"]):
        tracemalloc.start()
        try:
            code, result = invoke(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and result["error"]["type"] == "SizeGuard"
        assert "needs p=37 > 31" in result["error"]["message"]
        assert peak < 1 << 20
        messages.append(result["error"]["message"])
    assert messages[0] == messages[1]


def test_bounds_cli(capsys):
    code, result = invoke(capsys, "bounds", "--forbidden", "C4", "--n", "1000")
    assert code == 0
    assert result["report"]["f_lower"] == 9 and result["report"]["f_upper"] == 22
    code, result = invoke(capsys, "bounds", "--ramsey", "--t", "3", "--k", "2")
    assert code == 0 and result["ramsey"]["lower"] == 3 and result["ramsey"]["upper"] == 13


def test_usage_errors(capsys):
    assert run(["bogus"]) == 2
    assert run(["construct", "affine"]) == 2              # missing --p
    assert run(["bounds"]) == 2                           # missing spec
    assert run(["bounds", "--ramsey", "--t", "3"]) == 2   # missing --k
    assert run(["verify", "--input", "/nonexistent.sg"]) == 2
    err = capsys.readouterr().err
    assert err.count("usage error") == 5


def test_construct_shared_flags_and_no_threads(capsys):
    required = {"affine": ["--p", "2"], "c4pipeline": ["--n", "8"], "bipartite": ["--n", "3"],
                "star": ["--n", "4", "--t", "3"], "from-coloring": ["--input", "c.ec"]}
    for name, args in required.items():
        ns = build_parser().parse_args(["construct", name, *args, "--no-verify",
                                        "--forbidden", "C5", "--seed", "3", "-o", "x.sg"])
        assert (ns.no_verify, ns.forbidden, ns.seed, ns.output) == (True, "C5", 3, "x.sg")
        assert run(["construct", name, *args, "--threads", "1"]) == 2
    for argv in (["verify", "--input", "x.sg"], ["estimate", "--input", "x.g", "--n", "3"]):
        assert run(argv + ["--threads", "4"]) == 2
    assert capsys.readouterr().err.count("unrecognized arguments: --threads") == 7


def test_deterministic_outputs(capsys, tmp_path):
    pairs = [
        (["construct", "affine", "--p", "3"], "a"),
        (["construct", "c4pipeline", "--n", "27"], "b"),
        (["construct", "star", "--n", "10", "--t", "3"], "c"),
        (["construct", "bipartite", "--n", "6"], "d"),
    ]
    for argv, stem in pairs:
        f1, f2 = tmp_path / f"{stem}1.sg", tmp_path / f"{stem}2.sg"
        assert run(argv + ["-o", str(f1)]) == 0
        assert run(argv + ["-o", str(f2)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "splitfree.cli", "construct", "affine", "--p", "2",
         "-o", str(tmp_path / "x.sg")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"]


def test_malformed_header_counts_exit_1(capsys, tmp_path):
    path = tmp_path / "bad.sg"
    for vcount in ("-3", "1000000000000"):
        path.write_text(f"splitgraph 1\nn 1 k 1 v {vcount} e 0\nb 0 0\n")
        for argv in (["verify", "--input", str(path)],
                     ["restrict", "--input", str(path), "--n", "1"]):
            code, result = invoke(capsys, *argv)
            assert code == 1 and result["error"]["type"] == "ParseError"


NON_UTF8 = {  # the byte 0xff on line 3 of each input
    "verify": (b"splitgraph 1\nn 2 k 1 v 2 e 1\n# \xff\nb 0 0\nb 1 1\ne 0 1\n",
               ["verify", "--input", "{path}"]),
    "diagnose": (b"graph 1\nv 2 e 1\ne 0 1 \xff\n", ["diagnose", "--input", "{path}", "--n", "2"]),
    "from_coloring": (b"coloring 1\nn 2 colors 1\nc 0 1 \xff\n",
                      ["construct", "from-coloring", "--input", "{path}"]),
    "forbidden_file": (b"graph 1\nv 2 e 1\n\xffe 0 1\n",
                       ["bounds", "--forbidden", "file:{path}", "--n", "5"]),
}


@pytest.mark.parametrize("name", sorted(NON_UTF8))
def test_non_utf8_input_is_parse_error(name, capsys, tmp_path):
    data, argv = NON_UTF8[name]
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    code, result = invoke(capsys, *(a.format(path=path) for a in argv))
    assert code == 1 and not result["passed"]
    assert result["error"] == {"type": "ParseError", "message": "line 3: line is not valid UTF-8"}
    assert "Traceback" not in capsys.readouterr().err


def test_estimate_size_guard_exit_1(capsys, tmp_path):
    # a full batch holds two bit planes of 256 words of 8 B a vertex
    fits = tmp_path / "wide.g"
    write_graph(Graph(10000, np.array([[0, 1]])), fits)  # about 41 MB
    code, result = invoke(capsys, "estimate", "--input", str(fits), "--n", "2",
                          "--samples", "16384", "--seed", "0")
    assert code == 0 and result["passed"]
    host = tmp_path / "wider.g"
    write_graph(Graph(300000, np.array([[0, 1]])), host)  # 1.2 GB > 1 GiB
    code, result = invoke(capsys, "estimate", "--input", str(host), "--n", "2",
                          "--samples", "16384", "--seed", "0")
    assert code == 1 and not result["passed"]
    assert result["error"]["type"] == "SizeGuard"


WIDE_HOST = "graph 1\nv 3000000000 e 1\ne 0 1\n"  # 3e9 isolated vertices in three lines
GUARDED = {
    "diagnose_wide": ["diagnose", "--input", "{wide}", "--n", "2"],
    "trim_wide": ["trim", "--input", "{wide}", "--b", "1.5"],
    "random_split_wide": ["random-split", "--input", "{wide}", "--n", "2"],
    "estimate_huge_n": ["estimate", "--input", "{host}", "--n", "100000000000000000000"],
    "bipartite_huge_n": ["construct", "bipartite", "--n", "100000000"],
    "bounds_c5_huge_n": ["bounds", "--forbidden", "C5", "--n", "100000000", "--certify"],
    "star_huge_n": ["construct", "star", "--n", "1000000", "--t", "3"],
    "bounds_s3_huge_n": ["bounds", "--forbidden", "S3", "--n", "1000000", "--certify"],
    # pattern specs: counted from the spec's numbers before the pattern is built
    "bounds_huge_cycle": ["bounds", "--forbidden", "C100000000", "--n", "5"],
    "bounds_huge_path": ["bounds", "--forbidden", "P100000000", "--n", "5"],
    "bounds_huge_biclique": ["bounds", "--forbidden", "K2,100000000000000000000", "--n", "100"],
    "star_default_check_huge_t": ["construct", "star", "--n", "10", "--t", str(10 ** 23)],
    # primality: Miller-Rabin, and a SizeGuard past the bound where its witnesses are exact
    "c4pipeline_n_1e60": ["construct", "c4pipeline", "--n", str(10 ** 60)],
    "bounds_c4_n_1e80": ["bounds", "--forbidden", "C4", "--n", str(10 ** 80)],
    # trim's case 1 lists q - 1 parts: refused above MAX_TRIM_PARTS
    "trim_hub_huge_c_upper": ["trim", "--input", "{hub}", "--b", "1.5", "--c-upper", "1e30"],
    "trim_hub_b_near_1": ["trim", "--input", "{hub}", "--b", "1.01"],
    "trim_hub_huge_q": ["trim", "--input", "{hub}", "--b", "1.5", "--q", "100000000"],
    # 30000 edgeless one-vertex blobs: 449985000 missing pairs, counted and not listed
    "verify_edgeless": ["verify", "--input", "{edgeless}"],
    "prune_edgeless": ["prune", "--input", "{edgeless}"],
    # the oracle's work cap: C5 in a 2000-vertex bipartite host is searched in vain
    "verify_c5_bipartite_1000": ["verify", "--input", "{bip}", "--forbidden", "C5"],
}
GUARDED_ERRORS = {"prune_edgeless": ("NotALaxSplit",),  # prune names the first missing pair
                  "verify_c5_bipartite_1000": ("InstanceTooLarge",)}
HUB_HOST = "graph 1\nv 8 e 8\ne 0 1\ne 0 2\ne 0 3\ne 0 4\ne 0 5\ne 0 6\ne 0 7\ne 1 2\n"
EDGELESS_SPLIT = "splitgraph 1\nn 30000 k 1 v 30000 e 0\n" + "".join(
    f"b {i} {i}\n" for i in range(30000))


def _limit_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _run_limited(argv: list[str]) -> subprocess.CompletedProcess:
    """The CLI in a child under a 2 GiB address-space limit and a 30 s timeout,
    so an allocation or a long build shows as a failure instead of swapping
    the machine."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "splitfree.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=30,
                          preexec_fn=_limit_address_space)


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_oversized_requests_refused_before_allocation(name, tmp_path):
    wide, host, hub = tmp_path / "wide.g", tmp_path / "c6.g", tmp_path / "hub.g"
    edgeless = tmp_path / "edgeless.sg"
    wide.write_text(WIDE_HOST)
    hub.write_text(HUB_HOST)
    edgeless.write_text(EDGELESS_SPLIT)
    write_graph(cycle_graph(6), host)
    bip = tmp_path / "bip.sg"
    if "{bip}" in GUARDED[name]:
        write_split(build_bipartite_split(1000), bip)
    argv = [a.format(wide=wide, host=host, hub=hub, edgeless=edgeless, bip=bip)
            for a in GUARDED[name]]
    proc = _run_limited(argv)
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["type"] in GUARDED_ERRORS.get(
        name, ("SizeGuard", "ParameterError"))


def test_memory_error_is_a_json_error():
    # admitted by MAX_AFFINE_P = 31, but the incidence keys alone need 4.4 GiB
    proc = _run_limited(["construct", "affine", "--p", "29"])
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["type"] == "MemoryError"


def test_huge_primes_decided_quickly():
    # 2^61 - 1 is prime, so the affine guard refuses it; p = 10^20 + 39 prices C4 at 10^60
    proc = _run_limited(["construct", "affine", "--p", str(2 ** 61 - 1)])
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == 1 and json.loads(proc.stdout)["error"]["type"] == "SizeGuard"
    proc = _run_limited(["bounds", "--forbidden", "C4", "--n", str(10 ** 60)])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)["report"]
    assert report["f_upper"] == 2 * (10 ** 20 + 39) and report["f_upper_certified"]


def test_deep_biclique_search_finds_its_witness():
    # K1000,1000 chooses 1000 left vertices, one search level each: past
    # Python's recursion limit, on a 4096-vertex host the search admits
    proc = _run_limited(["construct", "bipartite", "--n", "2048", "--forbidden", "K1000,1000"])
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == 1
    forbidden = json.loads(proc.stdout)["forbidden"]
    assert not forbidden["free"] and forbidden["witness"]["found"]
    image = dict(forbidden["witness"]["mapping"])
    left, right = [image[v] for v in range(1000)], [image[v] for v in range(1000, 2000)]
    # red 2i meets blue 2j+1 exactly when i < j
    assert all(v % 2 == 0 for v in left) and all(v % 2 == 1 for v in right)
    assert max(left) // 2 < min(right) // 2 and len(set(left + right)) == 2000


OUT_OF_RANGE = {  # file text, argv, the JSON error
    "ec_colors_huge": ("coloring 1\nn 2 colors 1000000000000\nc 0 1 0\n",
                       ["construct", "from-coloring", "--input", "{path}"],
                       {"type": "SizeGuard",
                        "message": "line 2: 2000000000000 vertices; guard is 16777216"}),
    "ec_colors_large": ("coloring 1\nn 2 colors 100000000\nc 0 1 0\n",
                        ["construct", "from-coloring", "--input", "{path}", "--no-verify"],
                        {"type": "SizeGuard",
                         "message": "line 2: 200000000 vertices; guard is 16777216"}),
    "sg_blob_beyond_int64": (f"splitgraph 1\nn {10 ** 29} k 1 v 1 e 0\nb 0 {10 ** 25}\n",
                             ["verify", "--input", "{path}"],
                             {"type": "ParseError", "message":
                              f"line 3: blob id {10 ** 25} does not fit in 64 bits"}),
    "sg_blob_at_int64_bound": (f"splitgraph 1\nn {10 ** 29} k 1 v 1 e 0\nb 0 {2 ** 63}\n",
                               ["verify", "--input", "{path}"],
                               {"type": "ParseError", "message":
                                f"line 3: blob id {2 ** 63} does not fit in 64 bits"}),
    "sg_blob_far_beyond_v": (f"splitgraph 1\nn {10 ** 29} k 1 v 1 e 0\nb 0 {2 ** 63 - 1}\n",
                             ["verify", "--input", "{path}"],
                             {"type": "InvariantViolation", "message": "blob 0 is empty"}),
    "sg_blob_beyond_v_bulk": ("splitgraph 1\nn 10000000000000 k 1 v 2 e 0\n"
                              "b 0 0\nb 1 99999999999\n", ["verify", "--input", "{path}"],
                              {"type": "InvariantViolation", "message": "blob 1 is empty"}),
}


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
def test_out_of_range_header_and_row_numbers_exit_1(name, tmp_path):
    # the .ec guard counts the split's n * colors vertices at the header; a blob id
    # is neither converted beyond int64 nor used to size an array
    text, argv, error = OUT_OF_RANGE[name]
    path = tmp_path / "bad.txt"
    path.write_text(text)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = [a.format(path=path) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "splitfree.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=30,
                          preexec_fn=_limit_address_space)
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == 1
    assert json.loads(proc.stdout) == {"error": error, "passed": False}
