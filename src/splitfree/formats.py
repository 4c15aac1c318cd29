"""The text formats of splits (.sg), graphs (.g) and edge colorings of K_n (.ec).

UTF-8 with LF line endings; '#' lines are comments.  A file is a magic line,
a header line of named numbers, and rows in a fixed order:

  splitgraph 1                     graph 1                coloring 1
  n <n> k <k> v <V> e <E>          v <V> e <E>            n <n> colors <k>
  b <vid> <blobid>  (vid 0..V-1)   e <u> <v>              c <i> <j> <color>
  e <u> <v>  (u < v, lex sorted)                          (every i < j, lex sorted)
"""

from __future__ import annotations

import math
import re
from itertools import combinations

import numpy as np

from .errors import ParseError, SizeGuard

MAX_VERTICES = math.isqrt(2 ** 63 - 1)  # edge keys u*V+v must fit in int64
MAX_FILE_VERTICES = 1 << 24  # guard on a header's vertex count: O(V) arrays follow

# magic word -> (header line, what its numbers are called in errors, row tags in order)
FORMATS = {
    "splitgraph": ("n <n> k <k> v <V> e <E>", ("n", "k", "vertex count", "edge count"), "be"),
    "graph": ("v <V> e <E>", ("vertex count", "edge count"), "e"),
    "coloring": ("n <n> colors <k>", ("n", "color count"), "c"),
}
ROWS = {"b": "b <vid> <blobid>", "e": "e <u> <v>", "c": "c <i> <j> <color>"}
_ARITY = {tag: len(shape.split()) for tag, shape in ROWS.items()}


def sniff(path) -> str:
    """The first token of the first non-comment line; decoding is the reader's job."""
    with open(path, "rb") as fh:
        first = next((t[0] for t in map(bytes.split, fh) if t and not t[0].startswith(b"#")), b"")
    return first.decode("latin-1")


def _check_header(lineno: int, kind: str, nums: list[int]) -> None:
    """Header counts, checked before anything is read or sized by them."""
    vcount, ecount = nums[-2:]
    if kind == "coloring":  # the split built from it has n * colors vertices
        vcount = vcount * ecount if min(nums) > 0 else 0
    elif not (0 <= vcount <= MAX_VERTICES and ecount >= 0):
        raise ParseError(lineno, f"need 0 <= vertex count <= {MAX_VERTICES} and edge count >= 0")
    if vcount > MAX_FILE_VERTICES:
        raise SizeGuard(f"line {lineno}: {vcount} vertices; guard is {MAX_FILE_VERTICES}")


def read(path, kind: str) -> tuple[list[int], list]:
    """Header numbers and one section per row tag of a `kind` file: blob ids (b),
    a (E, 2) edge array (e), colors in pair order (c).  Files in exactly the
    written form are parsed in bulk, the rest line by line."""
    if kind != "coloring" and (parsed := _bulk_parse(path, kind)) is not None:
        return parsed
    reader = _LineReader(path)
    nums = reader.header(kind)
    sections = [reader.SCANS[tag](reader, nums) for tag in FORMATS[kind][2]]
    reader.done()
    return nums, sections


def write(path, kind: str, nums, *sections) -> None:
    """A `kind` file of header numbers `nums` and one section per row tag, as `read` gives."""
    shape, _, tags = FORMATS[kind]
    lines = [f"{kind} 1", " ".join(f"{name} {x}" for name, x in zip(shape.split()[::2], nums))]
    for tag, rows in zip(tags, sections):
        lines.extend(_LINES[tag](rows, nums))
    text = "\n".join(lines) + "\n"  # before opening truncates an earlier file
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _edge_lines(edges: np.ndarray, nums) -> list[str]:
    """The 'e <u> <v>' lines, joined into one string per low endpoint u."""
    ids = [str(i) for i in range(nums[-2])]
    high = [ids[v] for v in edges[:, 1].tolist()]
    starts = np.searchsorted(edges[:, 0], np.arange(nums[-2] + 1)).tolist()
    return [f"e {u} " + f"\ne {u} ".join(high[a:b])
            for u, (a, b) in enumerate(zip(starts, starts[1:])) if a < b]


_LINES = {"b": lambda blob_of, nums: [f"b {v} {b}" for v, b in enumerate(blob_of.tolist())],
          "e": _edge_lines,
          "c": lambda colors, nums: [f"c {i} {j} {c}" for (i, j), c
                                     in zip(combinations(range(nums[0]), 2), colors)]}

# Bulk parsing of exactly the form `write` emits, integers cut at 17 digits
# so np.fromstring cannot saturate.  Anything else (comments, blank lines, CRLF,
# signs, leading zeros, bad ids or order) goes to the line scanner.  Rows are
# matched 1024 at a time: re keeps state for each repeat of a group, ~280 B.
_UINT = rb"(?:0|[1-9][0-9]{0,16})"
_BULK_HEADERS = {kind: re.compile(rb"%s 1\n%s\n" % (kind.encode(), re.sub(
    rb"<\w+>", lambda _: b"(%s)" % _UINT, shape.encode())))
    for kind, (shape, _, _) in FORMATS.items() if kind != "coloring"}
_BULK_ROWS = {t: re.compile(rb"(?:%s %s %s\n){0,1024}" % (t.encode(), _UINT, _UINT)) for t in "be"}


def _bulk_parse(path, kind: str):
    """read(path, kind) of a file in exactly the written form, else None: all rows
    there, vertex ids 0..V-1, blob ids below n, edges canonical."""
    with open(path, "rb") as fh:
        data = fh.read()
    head = _BULK_HEADERS[kind].match(data)
    if head is None:
        return None
    nums = [int(x) for x in head.groups()]
    _check_header(2, kind, nums)
    tags = FORMATS[kind][2]
    pos, sections = head.end(), []
    for tag, count in zip(tags, nums[-len(tags):]):
        end = pos
        while (nxt := _BULK_ROWS[tag].match(data, end).end()) > end:
            end = nxt
        rows = np.fromstring(data[pos:end].translate(None, tag.encode()), dtype=np.int64, sep=" ")
        if len(rows) != 2 * count:
            return None
        sections.append(rows.reshape(-1, 2))
        pos = end
    vcount, (u, v) = nums[-2], sections[-1].T
    if pos < len(data) or not (v < vcount).all() \
            or not (u < v).all() or not (np.diff(u * vcount + v) > 0).all():
        return None
    if kind == "splitgraph":
        ids, blob_of = sections[0].T
        if not (np.array_equal(ids, np.arange(vcount)) and (blob_of < nums[0]).all()):
            return None
        sections[0] = blob_of.copy()
    return nums, sections


class _LineReader:
    """The non-comment lines of a file as (line number, tokens), taken in order."""

    def __init__(self, path):
        self.rows, self.pos = [], 0
        # undecodable bytes become lone surrogates, which strict encoding rejects
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if not raw.isascii():
                    try:
                        raw.encode("utf-8")
                    except UnicodeEncodeError:
                        raise ParseError(lineno, "line is not valid UTF-8") from None
                if (toks := raw.split()) and not toks[0].startswith("#"):
                    self.rows.append((lineno, toks))

    def next(self, what: str, tag: str = "") -> tuple[int, list[str]]:
        """The next line; a row `tag` must have that tag and arity."""
        if self.pos >= len(self.rows):
            last = self.rows[-1][0] if self.rows else 0
            raise ParseError(last + 1, f"unexpected end of file, expected {what}")
        lineno, toks = self.rows[self.pos]
        self.pos += 1
        if tag and (len(toks) != _ARITY[tag] or toks[0] != tag):
            raise ParseError(lineno, f"expected '{ROWS[tag]}', got {' '.join(toks)!r}")
        return lineno, toks

    def header(self, kind: str) -> list[int]:
        shape, names, _ = FORMATS[kind]
        lineno, toks = self.next(f"'{kind} 1' header")
        if toks != [kind, "1"]:
            raise ParseError(lineno, f"expected header '{kind} 1'")
        lineno, toks = self.next(f"'{shape}' line")
        if len(toks) != 2 * len(names) or toks[::2] != shape.split()[::2]:
            raise ParseError(lineno, f"expected '{shape}'")
        nums = [_int_field(lineno, t, what) for t, what in zip(toks[1::2], names)]
        _check_header(lineno, kind, nums)
        return nums

    def blobs(self, nums) -> list[int]:
        n, vcount = nums[0], nums[-2]
        blob_of = []
        for vid in range(vcount):
            lineno, toks = self.next("a 'b <vid> <blobid>' line", "b")
            got = _int_field(lineno, toks[1], "vertex id")
            if got != vid:
                raise ParseError(
                    lineno, f"vertex ids must ascend from 0; expected {vid}, got {got}")
            blob = _int_field(lineno, toks[2], "blob id")
            if not 0 <= blob < n:
                raise ParseError(lineno, f"blob id {blob} outside [0, {n})")
            if blob >> 63:  # n may be that large, but blob ids are int64
                raise ParseError(lineno, f"blob id {blob} does not fit in 64 bits")
            blob_of.append(blob)
        return blob_of

    def edges(self, nums) -> np.ndarray:
        vcount, count = nums[-2:]
        # grown line by line: no array is sized by an unchecked header count
        edges, prev = [], (-1, -1)
        for _ in range(count):
            lineno, toks = self.next("an 'e <u> <v>' line", "e")
            u = _int_field(lineno, toks[1], "endpoint")
            v = _int_field(lineno, toks[2], "endpoint")
            if not (0 <= u < vcount and 0 <= v < vcount):
                raise ParseError(lineno, f"endpoint outside [0, {vcount})")
            if u >= v:
                raise ParseError(lineno, f"edge ({u}, {v}) must have u < v")
            if (u, v) <= prev:
                raise ParseError(lineno, "edges out of lexicographic order or duplicated")
            prev = (u, v)
            edges.append(prev)
        return np.array(edges, dtype=np.int64).reshape(-1, 2)

    def colors(self, nums) -> list[int]:
        n, k = nums
        colors = []
        for i in range(n):  # not itertools.combinations, which would hold range(n) whole
            for j in range(i + 1, n):
                lineno, toks = self.next(f"'c {i} {j} <color>'", "c")
                gi = _int_field(lineno, toks[1], "i")
                gj = _int_field(lineno, toks[2], "j")
                if (gi, gj) != (i, j):
                    raise ParseError(lineno, f"expected pair ({i}, {j}), got ({gi}, {gj})")
                colr = _int_field(lineno, toks[3], "color")
                if not 0 <= colr < k:
                    raise ParseError(lineno, f"color {colr} outside [0, {k})")
                colors.append(colr)
        return colors

    def done(self) -> None:
        if self.pos < len(self.rows):
            lineno, toks = self.rows[self.pos]
            raise ParseError(lineno, f"unexpected extra line {' '.join(toks)!r}")

    SCANS = {"b": blobs, "e": edges, "c": colors}


def _int_field(lineno: int, token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(lineno, f"{what} is not an integer: {token!r}") from None
