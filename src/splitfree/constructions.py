"""Deterministic split constructions.

* affine-plane incidence split: a lax (p^3, 2p)-split whose graph is C4-free,
  built from points and lines of the affine plane over GF(p^2);
* the C4-free pipeline: prime selection from the target blob count, then
  the affine split restricted to n blobs and pruned to strict form, read
  off the plane in closed form without building either;
* the bipartite 2-split (avoids every non-bipartite graph);
* splits assembled from an edge coloring of K_n (one vertex copy per color);
* star-free splits from equitably grouped round-robin rounds.

`CONSTRUCTIONS` pairs each construction with the check that certifies it,
and `check_split` runs that check; the CLI, `bounds --certify` and the
catalog script all build and check through them.

Everything here is deterministic: identical inputs give byte-identical
serialized outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from . import formats
from .errors import ColoringIncomplete, CompositeCharacteristic, ParameterError, SizeGuard
from .fields import Field, is_prime, make_quadratic_field
from .freeness import check_forbidden, parse_forbidden_spec, witness_json
from .graphs import Graph, SplitGraph, two_coloring, verify_split

MAX_AFFINE_P = 31  # guard: the incidence graph has 2*p^4 vertices, p^6 edges
MAX_SPLIT_PAIRS = 1 << 23  # guard on n(n-1)/2 for the bipartite and star splits: n <= 4096


def next_prime(k: int) -> int:
    """Smallest prime >= k, found by testing upward."""
    if k < 2:
        raise ParameterError(f"next_prime needs k >= 2, got {k}")
    p = k
    while not is_prime(p):
        p += 1
    return p


# ---------------------------------------------------------------------------
# Affine plane over GF(p^2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffinePlane:
    """Points (x, y) and non-vertical lines y = m*x + b over GF(q), q = p^2.

    Ids: point (x, y) -> idx(x)*q + idx(y); line (m, b) -> q^2 + idx(m)*q + idx(b),
    where idx is the canonical field-element index.  There are q^2 points and
    q^2 lines; every line has q points and every point is on q lines (one per
    slope).
    """

    field: Field

    @property
    def q(self) -> int:
        return self.field.order

    def incidence_graph(self) -> Graph:
        """The bipartite point-line incidence graph: 2*q^2 vertices and q^3
        edges, one per point and slope."""
        p, q = self.field.p, self.q
        xi = np.tile(np.arange(q, dtype=np.int64), q)
        bi = np.repeat(np.arange(q, dtype=np.int64), q)
        (x1, x0), (b1, b0) = np.divmod(xi, p), np.divmod(bi, p)
        # encoded edge keys point*V + line, one row of q^2 lines per slope
        keys = np.empty((q, q * q), dtype=np.int64)
        for mi in range(q):
            mx0, mx1 = self.field.mul_arrays(mi % p, mi // p, x0, x1)
            y0, y1 = self.field.add_arrays(mx0, mx1, b0, b1)
            keys[mi] = (xi * q + (y1 * p + y0)) * (2 * q * q) + (q * q + mi * q + bi)
        return Graph.from_edge_keys(2 * q * q, keys.ravel())


def build_affine_plane(p: int) -> AffinePlane:
    if not is_prime(p):
        raise CompositeCharacteristic(f"{p} is not prime")
    if p > MAX_AFFINE_P:
        raise SizeGuard(
            f"affine plane for p={p} has {2 * p ** 4} vertices and {p ** 6} "
            f"incidences; guard is p <= {MAX_AFFINE_P}")
    return AffinePlane(make_quadratic_field(p))


def affine_blob_assignment(p: int) -> np.ndarray:
    """Blob id per vertex of the (p^3, 2p) affine split, in closed form.

    Point blobs fix x and the coset of y (all y agreeing with a transversal
    element shifted by the prime subfield); line blobs fix the slope m and
    the coset of the intercept b.  Point blob (x, h) and line blob (m, a)
    are paired by equal index, giving p^3 blobs of size exactly 2p.
    """
    q = p * p
    pid = np.arange(q * q, dtype=np.int64)
    # point (x, y): coset of y under the prime subfield is determined by y.c0
    point_blob = (pid // q) * p + (pid % q) % p
    # line (m, b): coset of b is determined by b.c1
    line_blob = (pid // q) * p + (pid % q) // p
    return np.concatenate((point_blob, line_blob))


def build_affine_split(p: int) -> SplitGraph:
    """Lax (p^3, 2p)-split of the affine incidence graph; C4-free by the
    unique-intersection property of distinct lines."""
    plane = build_affine_plane(p)
    return SplitGraph(plane.incidence_graph(), affine_blob_assignment(p), p ** 3, 2 * p)


def _ceil_root(value: int, exponent: int) -> int:
    """Smallest r >= 0 with r**exponent >= value, by integer Newton steps
    down from 2**ceil(bits/exponent) to the floor root."""
    if value <= 0:
        return 0
    r = 1 << -(-value.bit_length() // exponent)
    while (s := ((exponent - 1) * r + value // r ** (exponent - 1)) // exponent) < r:
        r = s
    return r if r ** exponent >= value else r + 1


def pipeline_parameters(n: int) -> tuple[int, int, int]:
    """(N, k0, p) for the C4-free pipeline at target blob count n: N is the
    cube-root ceiling of n^2, k0 its square-root ceiling, p the next prime."""
    big_n = _ceil_root(n * n, 3)
    k0 = _ceil_root(big_n, 2)
    return big_n, k0, next_prime(max(k0, 2))


def construct_c4_free_split(n: int) -> SplitGraph:
    """Strict C4-free (n, 2p)-split read off the affine plane: blobs 0..n-1
    of the affine split (restrict_blobs's numbering) and, for each pair of
    them, the smaller of its two crossing incidences (prune_to_split's choice).

    Point blob (X, h) and line blob (M, a), the divmod of a blob id by p, share
    exactly one incidence: with w = M*X, the point (X, y = (h, w.c1 + a)) and
    the line (M, b = (h - w.c0, a)).
    """
    if n < 8:
        raise ParameterError(f"pipeline needs n >= 8, got {n}")
    _, _, p = pipeline_parameters(n)  # p^3 >= n: p >= k0, k0^2 >= N and N^3 >= n^2
    if p > MAX_AFFINE_P:
        raise SizeGuard(
            f"pipeline for n={n} needs p={p} > {MAX_AFFINE_P}; the affine graph would "
            f"have {2 * p ** 4} vertices and the strict split {n * (n - 1) // 2} edges")
    field, q = make_quadratic_field(p), p * p
    blob_of = affine_blob_assignment(p)
    keep = blob_of < n
    new_id = np.cumsum(keep) - 1
    vcount = int(new_id[-1]) + 1

    def incidence(s: np.ndarray, t: np.ndarray) -> np.ndarray:
        # s = X*p + h and t = M*p + a, with field indices X = X.c1*p + X.c0 and M alike
        w0, w1 = field.mul_arrays(t // p % p, t // q, s // p % p, s // q)
        point = s // p * q + (w1 + t % p) % p * p + s % p
        line = q * q + t // p * q + t % p * p + (s % p - w0) % p
        return new_id[point] * vcount + new_id[line]

    i, j = np.triu_indices(n, k=1)
    keys = np.minimum(incidence(i, j), incidence(j, i))
    return SplitGraph(Graph.from_edge_keys(vcount, keys), blob_of[keep], n, 2 * p)


def _check_pairs(n: int, what: str) -> None:
    if n * (n - 1) // 2 > MAX_SPLIT_PAIRS:
        raise SizeGuard(f"{what} split for n={n} has {n * (n - 1) // 2} edges; "
                        f"guard is {MAX_SPLIT_PAIRS}")


# ---------------------------------------------------------------------------
# Bipartite 2-split
# ---------------------------------------------------------------------------

def build_bipartite_split(n: int) -> SplitGraph:
    """Strict (n, 2)-split whose graph is bipartite, hence free of every
    non-bipartite graph.  Blob i is {2i (red), 2i+1 (blue)}; the edge for
    blobs i < j joins red_i to blue_j."""
    if n < 2:
        raise ParameterError(f"bipartite split needs n >= 2, got {n}")
    _check_pairs(n, "bipartite")
    i, j = np.triu_indices(n, k=1)
    edges = np.column_stack((2 * i.astype(np.int64), 2 * j.astype(np.int64) + 1))
    return SplitGraph(Graph(2 * n, edges), np.arange(2 * n, dtype=np.int64) // 2, n, 2)


# ---------------------------------------------------------------------------
# Splits from edge colorings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeColoring:
    """A k-coloring of every edge of K_n, pairs keyed (i, j), i<j."""

    n: int
    colors: int
    color_of: dict[tuple[int, int], int]

    def __post_init__(self):
        if self.n < 2 or self.colors < 1:
            raise ParameterError("coloring needs n >= 2 and colors >= 1")
        for (i, j), c in self.color_of.items():
            if not (0 <= i < j < self.n):
                raise ParameterError(f"invalid pair ({i}, {j}) for n={self.n}")
            if not 0 <= c < self.colors:
                raise ParameterError(f"color {c} outside [0, {self.colors})")
        # the keys are distinct valid pairs, so only a short count can miss one
        if len(self.color_of) < self.n * (self.n - 1) // 2:
            missing = next(p for p in combinations(range(self.n), 2) if p not in self.color_of)
            raise ColoringIncomplete(f"pair {missing} has no color")


def build_split_from_coloring(c: EdgeColoring) -> SplitGraph:
    """Strict (n, k)-split from a k-edge-coloring of K_n.

    Blob i holds k copies of vertex i (ids i*k .. i*k+k-1, one per color);
    the pair {i, j} of color l is joined by the edge between the l-th copies.
    The graph is a vertex-disjoint union of one copy of each color class.
    """
    k = c.colors
    items = sorted(c.color_of.items())
    edges = np.array(
        [(i * k + colr, j * k + colr) for (i, j), colr in items], dtype=np.int64)
    blob_of = np.arange(c.n * k, dtype=np.int64) // k
    return SplitGraph(Graph(c.n * k, edges), blob_of, c.n, k)


def round_robin_coloring(n: int) -> EdgeColoring:
    """Color K_n's edges by round-robin round: n-1 perfect matchings for even
    n (circle method, one vertex fixed), n near-perfect matchings for odd n."""
    if n < 2:
        raise ParameterError(f"round robin needs n >= 2, got {n}")
    m = n + n % 2  # odd n: schedule with a dummy, drop its pairs
    rounds = round_robin_rounds(n)
    color_of: dict[tuple[int, int], int] = {}
    for r in range(rounds):
        pairs = [(m - 1, r)]
        pairs += [((r + i) % (m - 1), (r - i) % (m - 1)) for i in range(1, m // 2)]
        for a, b in pairs:
            if a < n and b < n:
                color_of[(min(a, b), max(a, b))] = r
    return EdgeColoring(n, rounds, color_of)


def round_robin_rounds(n: int) -> int:
    """Rounds of the round-robin schedule of K_n: n-1 for even n, n for odd n."""
    return n - 1 + n % 2


def star_blob_size(n: int, t: int) -> int:
    """k = ceil(R/(t-1)) for the R round-robin rounds of K_n taken at most
    t-1 to a group."""
    return -(-round_robin_rounds(n) // (t - 1))


def build_star_free_split(n: int, t: int) -> SplitGraph:
    """Strict (n, k)-split with maximum degree <= t-1 (so no t-leaf star),
    k = star_blob_size(n, t), the round-robin rounds grouped equitably."""
    if n < 3 or t < 2:
        raise ParameterError(f"star-free split needs n >= 3 and t >= 2, got ({n}, {t})")
    _check_pairs(n, "star-free")
    rr = round_robin_coloring(n)
    k = star_blob_size(n, t)
    base, extra = divmod(rr.colors, k)
    group_of = np.repeat(np.arange(k), [base + (g < extra) for g in range(k)])
    grouped = EdgeColoring(
        n, k, {pair: int(group_of[r]) for pair, r in rr.color_of.items()})
    return build_split_from_coloring(grouped)


def write_coloring(c: EdgeColoring, path) -> None:
    formats.write(path, "coloring", (c.n, c.colors),
                  map(c.color_of.__getitem__, combinations(range(c.n), 2)))


def read_coloring(path) -> EdgeColoring:
    (n, k), (colors,) = formats.read(path, "coloring")
    return EdgeColoring(n, k, dict(zip(combinations(range(n), 2), colors)))


# ---------------------------------------------------------------------------
# The construction table: each construction with the check that certifies it
# ---------------------------------------------------------------------------

# the bipartite split's certificate: its own 2-coloring rules out every non-bipartite graph
TWO_COLORED = object()


class Construction(NamedTuple):
    params: dict           # parameter name -> type, in the builder's argument order
    build: Callable[..., SplitGraph]
    mode: str              # verify_split mode
    certificate: object    # pattern spec formatted with the parameters, TWO_COLORED, or None

    def certificate_for(self, params: dict):
        """The certificate for these parameters: a spec is formatted and
        parsed, a marker kept."""
        return parse_forbidden_spec(self.certificate.format_map(params)) \
            if isinstance(self.certificate, str) else self.certificate


CONSTRUCTIONS = {
    "affine": Construction({"p": int}, build_affine_split, "lax", "C4"),
    "c4pipeline": Construction({"n": int}, construct_c4_free_split, "strict", "C4"),
    "bipartite": Construction({"n": int}, build_bipartite_split, "strict", TWO_COLORED),
    "star": Construction({"n": int, "t": int}, build_star_free_split, "strict", "S{t}"),
    "from-coloring": Construction({"input": str}, lambda path: build_split_from_coloring(
        read_coloring(path)), "strict", None),
}


def check_split(split: SplitGraph, mode: str, pattern) -> tuple:
    """(verification report, forbidden-pattern result or None, whether both
    passed) for a parsed pattern, TWO_COLORED, or None (no pattern check)."""
    report, fr = verify_split(split, mode), None
    if pattern is TWO_COLORED:
        fr = {"spec": "any non-bipartite graph",
              "free": two_coloring(split.graph) is not None, "witness": None}
    elif pattern is not None:
        mapping = check_forbidden(split.graph, pattern)
        fr = {"spec": pattern.spec, "free": mapping is None, "witness": witness_json(mapping)}
    return report, fr, report.passed and (fr is None or fr["free"])
