"""Golden stdout: small deterministic CLI runs whose exit codes and stdout
must not change byte for byte.

The runs cover every report class (verification, Janson, concentration,
pair-failure estimate, failure stats, case-1 certificate, bound report,
Ramsey bounds), every branch of `split_bounds`, both `trim` cases, and an
accepted and a rejected `random-split`, and a found witness from every checker.  They run in order in one temporary
directory with relative paths, since paths appear in stdout; later runs read
files written by earlier ones.

The expected outputs in golden_cli.json were recorded from the program as it
was before its reports lost their hand-written `to_dict` methods; since then
only `bounds --forbidden K3,3 --n 5` changed on purpose, from an error to the
trivial report that every pattern gets when n < |V(H)|.  The found-witness
runs at the end were appended later, recorded from the program as it was
before the forbidden-pattern dispatch was rewritten, and the three
construction-table runs after them from the program as it was before the
construction table moved out of the CLI.  The K3,3 run after those was
recorded from the program as it was before the exhaustive biclique search
lost its recursion.  Record them again only for an intended output change:

    PYTHONPATH=src python tests/test_golden_cli.py --record
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from splitfree.cli import run

GOLDEN = Path(__file__).with_name("golden_cli.json")

FILES = {
    "c6.g": "graph 1\nv 6 e 6\ne 0 1\ne 0 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\n",
    # two disjoint 10-cycles: trim case 2
    "c10s.g": "graph 1\nv 20 e 20\ne 0 1\ne 0 9\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 6\ne 6 7\n"
              "e 7 8\ne 8 9\ne 10 11\ne 10 19\ne 11 12\ne 12 13\ne 13 14\ne 14 15\n"
              "e 15 16\ne 16 17\ne 17 18\ne 18 19\n",
    # a hub on 7 leaves plus one chord: trim case 1 at q = 3
    "hub.g": "graph 1\nv 8 e 8\ne 0 1\ne 0 2\ne 0 3\ne 0 4\ne 0 5\ne 0 6\ne 0 7\ne 1 2\n",
    "tree.g": "graph 1\nv 5 e 4\ne 0 1\ne 0 2\ne 0 3\ne 3 4\n",
    # three blobs, one edge: two missing pairs
    "sparse.sg": "splitgraph 1\nn 3 k 1 v 3 e 1\nb 0 0\nb 1 1\nb 2 2\ne 0 1\n",
    # K5 as two edge-disjoint 5-cycles
    "two_c5.ec": "coloring 1\nn 5 colors 2\nc 0 1 0\nc 0 2 1\nc 0 3 1\nc 0 4 0\n"
                 "c 1 2 0\nc 1 3 1\nc 1 4 1\nc 2 3 0\nc 2 4 1\nc 3 4 0\n",
}

CASES = [
    "construct affine --p 2 -o aff.sg",
    "construct c4pipeline --n 8 -o pipe.sg",
    "construct star --n 7 --t 3 -o star.sg",
    "construct bipartite --n 5",
    "construct from-coloring --input two_c5.ec --forbidden C3 -o fc.sg",
    "verify --input aff.sg --mode lax --forbidden C4",
    "verify --input sparse.sg",
    "restrict --input aff.sg --n 5 -o r.sg",
    "prune --input r.sg -o pruned.sg",
    "random-split --input aff.sg --n 4 --trials 500 --seed 0 --forbidden C4 -o rs.sg",
    "random-split --input c6.g --n 6 --k-cap 1 --trials 20",
    "random-split --input c6.g --n 1 --k-cap 2 --trials 3",
    "trim --input c10s.g --b 1.5 --q 10 -o trimmed.g",
    "trim --input hub.g --b 1.5 --q 3",
    "diagnose --input c6.g --n 2",
    "estimate --input c6.g --n 2 --samples 2000 --seed 0",
    "bounds --ramsey --t 3 --k 2",
    "bounds --forbidden C5 --n 3",
    "bounds --forbidden C5 --n 6 --certify",
    "bounds --forbidden C13 --n 14 --certify",
    "bounds --forbidden C4 --n 5",
    "bounds --forbidden C4 --n 27 --certify",
    "bounds --forbidden K2,3 --n 30",
    "bounds --forbidden S3 --n 9 --certify",
    "bounds --forbidden S4 --n 10",
    "bounds --forbidden P4 --n 20",
    "bounds --forbidden P4 --n 5",
    "bounds --forbidden file:tree.g --n 12",
    "bounds --forbidden file:c6.g --n 10",
    "bounds --forbidden K3,3 --n 10",
    "bounds --forbidden K3,3 --n 5",
    "bounds --forbidden P2 --n 5",
    # found witnesses: each checker's mapping from pattern to host vertices
    "construct bipartite --n 6 --forbidden C4 -o bip6.sg",
    "verify --input bip6.sg --forbidden C4",
    "verify --input bip6.sg --forbidden K2,2",
    "verify --input bip6.sg --forbidden K2,3",
    "verify --input bip6.sg --forbidden K1,3",
    "verify --input bip6.sg --forbidden S3",
    "verify --input bip6.sg --forbidden C5",
    "random-split --input bip6.sg --n 5 --k-cap 3 --trials 500 --seed 0 --forbidden C4 -o rs5.sg",
    # construction-table paths: a certificate that is not the pattern asked for,
    # an unverified build, and an overridden default pattern
    "bounds --forbidden K2,3 --n 30 --certify",
    "construct affine --p 2 --no-verify",
    "construct star --n 7 --t 3 --forbidden C4",
    # the exhaustive s >= 3 biclique search's witness
    "verify --input bip6.sg --forbidden K3,3",
]


def _run_all(directory: Path) -> list[list]:
    for name, text in FILES.items():
        (directory / name).write_text(text)
    results = []
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for case in CASES:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = run(case.split())
            results.append([case, code, buf.getvalue()])
    finally:
        os.chdir(cwd)
    return results


def test_golden_stdout(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    assert [e[0] for e in expected] == CASES
    for got, want in zip(_run_all(tmp_path), expected):
        assert got == want


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(_run_all(Path(tmp)), indent=1) + "\n")
