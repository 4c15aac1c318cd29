"""Golden parse outcomes: a seeded mutation corpus of .sg, .g and .ec files
and, for each file, the exception type and message its reader raises, or a
digest of the object it returns.

The corpus is regenerated from SEED on every run; each entry also holds a
digest of the file's bytes, so a change in the generator shows as such and
not as a parser change.  Mutations cover comments, blank and indented lines,
CRLF and CR line endings, a missing final newline, non-UTF-8 and non-ASCII
bytes, numbers of 18 or more digits, numbers Python's `int` accepts but the
writers never emit (`+3`, `007`, `1_0`, `٣`), wrong tags, arities, magic
lines and header names, and dropped, repeated and swapped lines.  About a
third of the files carry two defects, often on one line, which pins the
order in which a reader runs its checks.

golden_parse.json was recorded once, before the file formats moved into one
module.  Never record it again to make a rewrite pass: an intended change of
outcome edits its own entries and says so in CHANGES.md.

    PYTHONPATH=src python tests/test_golden_parse.py --record
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import numpy as np

from splitfree.constructions import (
    EdgeColoring,
    build_affine_split,
    build_bipartite_split,
    build_split_from_coloring,
    build_star_free_split,
    construct_c4_free_split,
    read_coloring,
    round_robin_coloring,
    write_coloring,
)
from splitfree.graphs import Graph, SplitGraph, read_graph, read_split, write_graph, write_split

GOLDEN = Path(__file__).with_name("golden_parse.json")
SEED = 11
FILES_PER_FORMAT = 600

VALUES = ["-1", "0", "1", "2", "-3", "+3", "007", "1_0", "٣", "x", "1.0", "0x1", "",
          "−1", "99999", "16777216", "16777217", "3000000000", "1" + "0" * 17,
          "9" * 18, "1" + "0" * 18, "9" * 19, "1" + "0" * 25, "1" + "0" * 29]
TAGS = ["b", "e", "c", "x", "B", "splitgraph", "graph", "coloring", "#"]
MAGICS = ["splitgraph 1", "graph 1", "coloring 1", "splitgraph 2", "graph", "graph 1 x"]


def _two_c5() -> EdgeColoring:
    ring = {tuple(sorted((i, (i + 1) % 5))): 0 for i in range(5)}
    return EdgeColoring(5, 2, {**{(i, j): 1 for i in range(5) for j in range(i + 1, 5)}, **ring})


def _bases() -> dict[str, list[tuple[str, str]]]:
    """(name, canonical text) of the base files of each format."""
    splits = {
        "affine2": build_affine_split(2),
        "pipeline8": construct_c4_free_split(8),
        "bipartite3": build_bipartite_split(3),
        "star5": build_star_free_split(5, 3),
        "two_c5": build_split_from_coloring(_two_c5()),
        "edgeless": SplitGraph(Graph(2, np.empty((0, 2), np.int64)), np.array([0, 1]), 2, 1),
    }
    colorings = {f"rr{n}": round_robin_coloring(n) for n in range(2, 7)}
    colorings["two_c5"] = _two_c5()
    import tempfile

    out = {"sg": [], "g": [], "ec": []}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "base"
        for name, s in splits.items():
            write_split(s, path)
            out["sg"].append((name, path.read_text()))
            write_graph(s.graph, path)
            out["g"].append((name, path.read_text()))
        for name, c in colorings.items():
            write_coloring(c, path)
            out["ec"].append((name, path.read_text()))
    out["g"].append(("empty", "graph 1\nv 0 e 0\n"))
    return out


def _token(rng: random.Random, tok: str) -> str:
    """A replacement for one token: a listed value, or an integer one off."""
    if tok.lstrip("-").isdigit() and rng.random() < 0.3:
        return str(int(tok) + rng.choice((-1, 1)))
    return rng.choice(VALUES)


def _mutate_line(rng: random.Random, line: str) -> str:
    toks = line.split(" ")
    op = rng.randrange(8)
    i = rng.randrange(len(toks))
    if op <= 2:                       # replace a number (or any token)
        j = rng.randrange(1, len(toks)) if len(toks) > 1 else 0
        toks[j] = _token(rng, toks[j])
    elif op == 3:                     # replace the tag
        toks[0] = rng.choice(TAGS)
    elif op == 4:                     # drop a token
        del toks[i]
    elif op == 5:                     # add a token
        toks.insert(i + 1, rng.choice(VALUES[:12]))
    elif op == 6:                     # swap two tokens
        j = rng.randrange(len(toks))
        toks[i], toks[j] = toks[j], toks[i]
    else:                             # odd spacing
        return rng.choice(("  ", "\t", " ")) + " ".join(toks) + rng.choice(("", " ", "\t"))
    return " ".join(toks)


def _mutate(rng: random.Random, lines: list[str]) -> list[str]:
    """One defect (or harmless variation) applied to the list of lines."""
    op = rng.randrange(16)
    i = rng.randrange(len(lines))
    if op <= 4:                       # a defect inside one line
        lines[i] = _mutate_line(rng, lines[i])
    elif op == 5:                     # two defects on one line
        lines[i] = _mutate_line(rng, _mutate_line(rng, lines[i]))
    elif op == 6:
        del lines[i]
    elif op == 7:
        lines.insert(i, lines[i])
    elif op == 8 and i + 1 < len(lines):
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    elif op == 9:
        lines.insert(i, rng.choice(("# comment", "#", "", "   ", "\t", "# été")))
    elif op == 10:                    # an undecodable or a non-ASCII byte
        pos = rng.randrange(len(lines[i]) + 1)
        lines[i] = lines[i][:pos] + rng.choice(("\udcff", "\udcc3", "é", "٣")) + lines[i][pos:]
    elif op == 11:
        lines[0] = rng.choice(MAGICS)
    elif op == 12 and len(lines) > 1:  # header names swapped or renamed
        toks = lines[1].split()
        a, b = rng.sample(range(0, len(toks), 2), 2) if len(toks) >= 4 else (0, 0)
        toks[a], toks[b] = toks[b], toks[a]
        if rng.random() < 0.3:
            toks[a] = rng.choice(("n", "k", "v", "e", "colors", "N"))
        lines[1] = " ".join(toks)
    elif op == 13 and len(lines) > 1:  # a header number
        toks = lines[1].split()
        j = rng.randrange(1, len(toks), 2) if len(toks) > 1 else 0
        toks[j] = _token(rng, toks[j])
        lines[1] = " ".join(toks)
    elif op == 14:
        del lines[i:]
    else:
        lines.append(rng.choice(lines))
    return lines


def corpus() -> list[tuple[str, bytes]]:
    """(format, file bytes) of every corpus file, in order."""
    rng = random.Random(SEED)
    bases = _bases()
    files = []
    for _ in range(FILES_PER_FORMAT):
        for fmt in ("sg", "g", "ec"):
            _, text = rng.choice(bases[fmt])
            lines = text.splitlines()
            for _ in range(rng.choice((0, 1, 1, 1, 2, 2))):
                if lines:
                    lines = _mutate(rng, lines)
            ending = rng.choice(("\n", "\n", "\n", "\n", "\r\n", "\r", "mixed"))
            if ending == "mixed":
                body = "".join(line + rng.choice(("\n", "\r\n")) for line in lines)
            else:
                body = ending.join(lines) + (ending if rng.random() < 0.9 else "")
            files.append((fmt, body.encode("utf-8", errors="surrogateescape")))
    return files


def _digest(obj) -> str:
    if isinstance(obj, EdgeColoring):
        value = (obj.n, obj.colors, sorted(obj.color_of.items()))
    elif isinstance(obj, SplitGraph):
        value = (obj.n, obj.k, obj.graph.V, obj.graph.edges.tolist(), obj.blob_of.tolist())
    else:
        value = (obj.V, obj.edges.tolist())
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


READERS = {"sg": read_split, "g": read_graph, "ec": read_coloring}


def outcomes(directory: Path) -> list[list[str]]:
    path = directory / "f"
    results = []
    for fmt, data in corpus():
        path.write_bytes(data)
        try:
            outcome = ["ok", _digest(READERS[fmt](path))]
        except Exception as exc:  # noqa: BLE001  (the exact outcome is what is pinned)
            outcome = [type(exc).__name__, str(exc)]
        results.append([fmt, hashlib.sha256(data).hexdigest()[:16], *outcome])
    return results


def test_golden_parse_outcomes(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    got = outcomes(tmp_path)
    assert len(got) == len(expected) >= 1500
    for i, (g, want) in enumerate(zip(got, expected)):
        assert g == want, i


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(outcomes(Path(tmp)), indent=0, ensure_ascii=False) + "\n")
