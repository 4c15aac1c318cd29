"""Golden file bytes: the sha256 of every .sg, .g and .ec file a grid of
construction runs writes, plus each run's exit code and stdout.

The grid: `c4pipeline` at every n in [8, 64] and on both sides of the prime
steps at 125/126 and 343/344, plus n = 1000; `affine` at p in {2, 3, 5, 7};
`star` over n in {3..10, 31, 32, 100} x t in {2, 3, 4, 7}; the round-robin
`.ec` file and `from-coloring` on it at the same n; `bipartite` at n in
{2, 3, 50}; one `prune` and one `trim -o` `.g` file.  Runs go in order in one
temporary directory with relative paths, since paths appear in stdout.

golden_files.json was recorded once, before the file formats moved into one
module.  Never record it again to make a rewrite pass: an intended output
change edits its own entries and says so in CHANGES.md.

    PYTHONPATH=src python tests/test_golden_files.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from splitfree.cli import run
from splitfree.constructions import round_robin_coloring, write_coloring

GOLDEN = Path(__file__).with_name("golden_files.json")
STAR_N = [*range(3, 11), 31, 32, 100]


def _runs() -> list[str]:
    runs = [f"construct c4pipeline --n {n} -o c4_{n}.sg"
            for n in [*range(8, 65), 125, 126, 343, 344, 1000]]
    runs += [f"construct affine --p {p} -o affine_{p}.sg" for p in (2, 3, 5, 7)]
    runs += [f"construct star --n {n} --t {t} -o star_{n}_{t}.sg"
             for n in STAR_N for t in (2, 3, 4, 7)]
    for n in STAR_N:
        # "round-robin" is not a subcommand: the library writes the coloring
        runs += [f"round-robin {n} -o rr_{n}.ec",
                 f"construct from-coloring --input rr_{n}.ec -o fc_{n}.sg"]
    runs += [f"construct bipartite --n {n} -o bip_{n}.sg" for n in (2, 3, 50)]
    runs += ["prune --input affine_3.sg -o pruned_3.sg",
             "trim --input pruned_3.sg --b 1.5 --q 10 -o trim_3.g"]
    return runs


def _run_all(directory: Path) -> list[list]:
    results = []
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for case in _runs():
            argv = case.split()
            output = Path(argv[argv.index("-o") + 1])
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                if argv[0] == "round-robin":
                    write_coloring(round_robin_coloring(int(argv[1])), output)
                    code = 0
                else:
                    code = run(argv)
            digest = hashlib.sha256(output.read_bytes()).hexdigest()
            results.append([case, code, buf.getvalue(), digest])
    finally:
        os.chdir(cwd)
    return results


def test_golden_file_bytes(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    assert [e[0] for e in expected] == _runs()
    for got, want in zip(_run_all(tmp_path), expected):
        assert got == want


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(_run_all(Path(tmp)), indent=1) + "\n")
