"""Fuzzing every subcommand and the three file parsers through `cli.run`.

Every drawn invocation must end in exit 0 with a passing JSON report, exit 1
with a JSON `error` or `"passed": false`, or exit 2 (a usage error); no
exception may escape `cli.run`.  Extreme numbers (0, -1, 10**30, 10**60,
10**80, 2**61 - 1, nan, inf, pattern sizes past the guard) are drawn only
for arguments that a guard checks before anything is allocated, and work
counts stay small: p <= 7, n <= 64, samples and trials <= 2000.  The runs
are derandomized, so every run draws the same inputs.
"""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import build_graph, cycle_graph, random_graph
from splitfree.cli import run
from splitfree.constructions import (
    EdgeColoring,
    build_affine_split,
    construct_c4_free_split,
    round_robin_coloring,
    write_coloring,
)
from splitfree.graphs import SplitGraph, write_graph, write_split

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=60,
                suppress_health_check=[HealthCheck.too_slow])

EXTREME = st.sampled_from([0, -1, 10 ** 30])
HUGE = st.sampled_from([10 ** 60, 10 ** 80, 2 ** 61 - 1])  # --n and --p past the prime bounds
SEED = st.integers(0, 3) | EXTREME
SMALL_N = st.integers(-1, 64) | EXTREME | HUGE
HOST_N = st.integers(2, 6) | st.sampled_from([-1, 0, 1, 10 ** 30])  # counts for the hosts below
COUNT = st.integers(-1, 60) | st.just(2000)  # --samples, --trials
# pattern numbers: small, or past the pattern guard (refused before building)
SPEC_NUMBER = st.integers(0, 8) | st.sampled_from([10 ** 8, 10 ** 23])
SPEC = st.one_of(
    st.builds("C{}".format, SPEC_NUMBER),
    st.builds("P{}".format, SPEC_NUMBER),
    st.builds("S{}".format, SPEC_NUMBER),
    st.builds("K{},{}".format, SPEC_NUMBER, SPEC_NUMBER),
    st.sampled_from(["file:{tree}", "file:{hub}", "file:{missing}", "Q4", "C4,4", "K2", ""]),
)


def command(prefix: list[str], required: dict, optional: dict) -> st.SearchStrategy[list[str]]:
    """argv: the prefix, each required flag with a drawn value, and each
    optional flag with a drawn value or left out (True: a bare switch)."""
    def build(values: dict) -> list[str]:
        argv = list(prefix)
        for flag, value in values.items():
            if value is True:
                argv.append(flag)
            elif value is not None:
                argv += [flag, str(value)]
        return argv
    return st.fixed_dictionaries(
        dict(required, **{flag: st.none() | s for flag, s in optional.items()})).map(build)


@pytest.fixture(scope="module")
def paths(tmp_path_factory) -> dict[str, str]:
    d = tmp_path_factory.mktemp("fuzz")
    files = {name: str(d / name) for name in
             ("c6.g", "hub.g", "tree.g", "pipe.sg", "aff.sg", "rr.ec")}
    write_graph(cycle_graph(6), files["c6.g"])
    # a hub on 7 leaves plus one chord: trim case 1
    write_graph(build_graph(8, [(0, i) for i in range(1, 8)] + [(1, 2)]), files["hub.g"])
    write_graph(build_graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)]), files["tree.g"])
    write_split(construct_c4_free_split(8), files["pipe.sg"])
    write_split(build_affine_split(2), files["aff.sg"])
    write_coloring(round_robin_coloring(6), files["rr.ec"])
    return {"sg": files["pipe.sg"], "lax": files["aff.sg"], "g": files["c6.g"],
            "hub": files["hub.g"], "tree": files["tree.g"], "ec": files["rr.ec"],
            "missing": str(d / "missing.g"), "out": str(d / "out"), "dir": str(d)}


def outcome(argv: list[str], paths: dict[str, str]) -> None:
    """Run argv in-process and check that it ended in one of the three allowed
    ways: exit 2, or a JSON report whose "passed" says whether it exited 0 or 1
    (an error report has "passed": false)."""
    argv = [a.format(**paths) for a in argv]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run(argv)
    if code != 2:
        assert code in (0, 1), (argv, code)
        assert json.loads(out.getvalue())["passed"] is (code == 0), (argv, out.getvalue())


# mostly readable hosts; a coloring, a missing file or a directory now and then
HOST = st.sampled_from(["{sg}", "{lax}", "{g}", "{hub}"] * 3 + ["{ec}", "{missing}", "{dir}"])
SPLIT = st.sampled_from(["{sg}", "{lax}"] * 3 + ["{g}", "{missing}"])
OUTPUT = st.sampled_from(["{out}.sg", "{out}.g"] * 3 + ["{dir}"])
CONSTRUCT = {
    "affine": ({"--p": st.sampled_from([2, 3, 5, 7] * 2 + [-1, 0, 4, 9, 10 ** 30]) | HUGE}, {}),
    "c4pipeline": ({"--n": SMALL_N}, {}),
    "bipartite": ({"--n": SMALL_N}, {}),
    "star": ({"--n": SMALL_N, "--t": st.integers(-1, 12) | EXTREME}, {}),
    "from-coloring": ({"--input": st.sampled_from(["{ec}"] * 3 + ["{g}", "{missing}"])}, {}),
}
SUBCOMMANDS = {
    "random-split": command(["random-split"], {"--input": HOST, "--n": HOST_N}, {
        "--k-cap": st.integers(-1, 12) | EXTREME, "--trials": COUNT, "--forbidden": SPEC,
        "--seed": SEED, "-o": OUTPUT}),
    "verify": command(["verify"], {"--input": SPLIT}, {
        "--mode": st.sampled_from(["strict", "lax", "both"]), "--forbidden": SPEC,
        "--seed": SEED}),
    "prune": command(["prune"], {"--input": SPLIT}, {"-o": OUTPUT}),
    "restrict": command(["restrict"], {"--input": SPLIT, "--n": HOST_N}, {"-o": OUTPUT}),
    "trim": command(["trim"], {
        "--input": HOST,
        "--b": st.sampled_from([1.5, 1.01] * 3 + [1.9, 1.0000001, 1.0, 2.0, 0.0, -1.0,
                                              float("nan"), float("inf")]),
    }, {
        "--c-upper": st.sampled_from([1.0, 1e30] * 2 + [0.5, 2.0, 1e-300, 0.0, -1.0,
                                                        float("nan"), float("inf"), 1e308]),
        "--ex": st.integers(16, 200) | st.sampled_from([0, -1, 10 ** 30, 10 ** 400]),
        "--q": st.integers(-1, 12) | st.sampled_from([2 ** 20 + 2, 10 ** 8, 10 ** 400]),
        "-o": OUTPUT}),
    "diagnose": command(["diagnose"], {"--input": HOST, "--n": HOST_N}, {}),
    "estimate": command(["estimate"], {"--input": HOST, "--n": HOST_N},
                        {"--samples": COUNT, "--seed": SEED}),
    "bounds": command(["bounds"], {"--forbidden": SPEC, "--n": SMALL_N},
                      {"--certify": st.just(True)})
    | command(["bounds", "--ramsey"], {"--t": st.integers(-1, 12) | EXTREME,
                                       "--k": st.integers(-1, 12) | EXTREME}, {}),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCT))
def test_fuzz_construct(name, paths):
    required, optional = CONSTRUCT[name]
    optional = dict(optional, **{"--no-verify": st.just(True), "--forbidden": SPEC,
                                 "--seed": SEED, "-o": OUTPUT})

    @FUZZ
    @given(command(["construct", name], required, optional))
    def check(argv):
        outcome(argv, paths)
    check()


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_fuzz_subcommand(name, paths):
    @FUZZ
    @given(SUBCOMMANDS[name])
    def check(argv):
        outcome(argv, paths)
    check()


# -- the three parsers: written files, then edited --------------------------------

TOKEN = st.sampled_from(["0", "1", "2", "3", "-1", "12", "99", str(10 ** 12), str(10 ** 30),
                         str(2 ** 63), str(2 ** 63 - 1), "1.5", "nan", "x", "b", "e", "c",
                         "graph", "splitgraph", "coloring", "#", ""])
EDIT = st.tuples(st.sampled_from(["token", "delete", "duplicate", "insert", "swap",
                                  "truncate", "byte"]),
                 st.integers(0, 1000), st.integers(0, 1000), TOKEN)


NOT_UTF8 = "\uffff"  # written as the byte 0xff, which no UTF-8 text holds


def edited(text: str, edits: list[tuple]) -> bytes:
    lines = text.split("\n")
    for kind, i, j, token in edits:
        at = i % len(lines)
        if kind == "token":
            words = lines[at].split(" ")
            words[j % len(words)] = token
            lines[at] = " ".join(words)
        elif kind == "delete":
            del lines[at]
        elif kind == "duplicate":
            lines.insert(at, lines[at])
        elif kind == "insert":
            lines.insert(at, " ".join([token] * (1 + j % 4)))
        elif kind == "swap":
            lines[at], lines[j % len(lines)] = lines[j % len(lines)], lines[at]
        elif kind == "truncate":
            lines = "\n".join(lines)[:j].split("\n")
        else:
            cut = j % (len(lines[at]) + 1)
            lines[at] = lines[at][:cut] + NOT_UTF8 + lines[at][cut:]
        if not lines:
            lines = [""]
    return "\n".join(lines).encode().replace(NOT_UTF8.encode(), b"\xff")


@st.composite
def split_text(draw) -> str:
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    V, n = draw(st.integers(1, 10)), draw(st.integers(1, 4))
    n = min(n, V)
    blob_of = rng.permutation(np.arange(V) % n)
    g = random_graph(V, draw(st.sampled_from([0.0, 0.3, 0.5, 0.7])), rng)
    split = SplitGraph(g, blob_of, n, int(np.bincount(blob_of).max()))
    return _written(write_split, split)


@st.composite
def graph_text(draw) -> str:
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = random_graph(draw(st.integers(0, 10)), draw(st.sampled_from([0.0, 0.3, 0.5, 0.7])), rng)
    return _written(write_graph, g)


@st.composite
def coloring_text(draw) -> str:
    n, k = draw(st.integers(2, 6)), draw(st.integers(1, 4))
    colors = draw(st.lists(st.integers(0, k - 1), min_size=n * (n - 1) // 2,
                           max_size=n * (n - 1) // 2))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return _written(write_coloring, EdgeColoring(n, k, dict(zip(pairs, colors))))


def _written(writer, obj) -> str:
    """The text that writer (which takes a path) writes for obj."""
    with tempfile.TemporaryDirectory() as d:
        writer(obj, f"{d}/f")
        with open(f"{d}/f", encoding="utf-8") as fh:
            return fh.read()


PARSED_BY = {
    "splitgraph": (split_text(), [["verify", "--input", "{file}"],
                                  ["verify", "--input", "{file}", "--mode", "lax",
                                   "--forbidden", "C4"],
                                  ["prune", "--input", "{file}"],
                                  ["restrict", "--input", "{file}", "--n", "2"],
                                  ["diagnose", "--input", "{file}", "--n", "2"]]),
    "graph": (graph_text(), [["diagnose", "--input", "{file}", "--n", "2"],
                             ["estimate", "--input", "{file}", "--n", "2", "--samples", "50"],
                             ["trim", "--input", "{file}", "--b", "1.5", "--q", "3"],
                             ["random-split", "--input", "{file}", "--n", "2", "--trials", "20"],
                             ["bounds", "--forbidden", "file:{file}", "--n", "12"],
                             ["verify", "--input", "{sg}", "--forbidden", "file:{file}"]]),
    "coloring": (coloring_text(), [["construct", "from-coloring", "--input", "{file}"]]),
}


@pytest.mark.parametrize("kind", sorted(PARSED_BY))
def test_fuzz_parser(kind, paths):
    texts, commands = PARSED_BY[kind]
    path = f"{paths['dir']}/edited.{kind}"

    @FUZZ
    @given(texts, st.lists(EDIT, max_size=2), st.sampled_from(commands))
    def check(text, edits, argv):
        with open(path, "wb") as fh:
            fh.write(edited(text, edits))
        outcome(argv, dict(paths, file=path))
    check()
