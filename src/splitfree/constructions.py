"""Deterministic split constructions.

* affine-plane incidence split: a lax (p^3, 2p)-split whose graph is C4-free,
  built from points and lines of the affine plane over GF(p^2);
* the C4-free pipeline: prime selection from the target blob count, affine
  split, blob restriction, pruning to strict form;
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
from .errors import ColoringIncomplete, CompositeCharacteristic, ParameterError, SizeGuard, TooLarge
from .fields import Field, is_prime, make_quadratic_field
from .freeness import check_forbidden, parse_forbidden_spec, witness_json
from .graphs import Graph, SplitGraph, prune_to_split, restrict_blobs, two_coloring, verify_split

MAX_AFFINE_P = 31  # default guard: the incidence graph has 2*p^4 vertices, p^6 edges
MAX_SPLIT_PAIRS = 1 << 23  # guard on n(n-1)/2 for the bipartite and star splits: n <= 4096


class PrimeSearch(NamedTuple):
    p: int


def next_prime(k: int) -> PrimeSearch:
    """Smallest prime >= k, found by testing upward."""
    if k < 2:
        raise ParameterError(f"next_prime needs k >= 2, got {k}")
    p = k
    while not is_prime(p):
        p += 1
    return PrimeSearch(p)


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
        """Bipartite point-line incidence graph on 2*q^2 vertices, q^3 edges."""
        p, q = self.field.p, self.q
        vcount = 2 * q * q
        xi = np.tile(np.arange(q, dtype=np.int64), q)
        bi = np.repeat(np.arange(q, dtype=np.int64), q)
        x0, x1 = xi % p, xi // p
        b0, b1 = bi % p, bi // p
        # encoded edge keys point*V + line, filled slope by slope
        keys = np.empty(q ** 3, dtype=np.int64)
        for mi in range(q):
            mx0, mx1 = self.field.mul_arrays(mi % p, mi // p, x0, x1)
            y0, y1 = self.field.add_arrays(mx0, mx1, b0, b1)
            block = slice(mi * q * q, (mi + 1) * q * q)
            keys[block] = (xi * q + (y1 * p + y0)) * vcount + (q * q + mi * q + bi)
        return Graph.from_edge_keys(vcount, keys)


def build_affine_plane(p: int, max_p: int | None = None) -> AffinePlane:
    if not is_prime(p):
        raise CompositeCharacteristic(f"{p} is not prime")
    limit = MAX_AFFINE_P if max_p is None else max_p
    if p > limit:
        raise TooLarge(
            f"affine plane for p={p} has {2 * p ** 4} vertices and {p ** 6} "
            f"incidences; guard is p <= {limit}")
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


def build_affine_split(p: int, max_p: int | None = None) -> SplitGraph:
    """Lax (p^3, 2p)-split of the affine incidence graph; C4-free by the
    unique-intersection property of distinct lines."""
    plane = build_affine_plane(p, max_p)
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
    return big_n, k0, next_prime(max(k0, 2)).p


def construct_c4_free_split(n: int, max_p: int | None = None) -> SplitGraph:
    """Strict C4-free (n, 2p)-split: affine split -> restrict to n blobs -> prune."""
    if n < 8:
        raise ParameterError(f"pipeline needs n >= 8, got {n}")
    _, _, p = pipeline_parameters(n)  # p^3 >= n: p >= k0, k0^2 >= N and N^3 >= n^2
    limit = MAX_AFFINE_P if max_p is None else max_p
    if p > limit:
        raise SizeGuard(
            f"pipeline for n={n} needs p={p} > {limit}; the affine graph would "
            f"have {2 * p ** 4} vertices and the strict split {n * (n - 1) // 2} edges")
    return prune_to_split(restrict_blobs(build_affine_split(p, max_p), n))


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
    """A k-coloring of (a subset of) the edges of K_n, pairs keyed (i, j), i<j."""

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

    def missing_pair(self) -> tuple[int, int] | None:
        return next((p for p in combinations(range(self.n), 2) if p not in self.color_of), None)


def build_split_from_coloring(c: EdgeColoring) -> SplitGraph:
    """Strict (n, k)-split from a complete k-edge-coloring of K_n.

    Blob i holds k copies of vertex i (ids i*k .. i*k+k-1, one per color);
    the pair {i, j} of color l is joined by the edge between the l-th copies.
    The graph is a vertex-disjoint union of one copy of each color class.
    """
    missing = c.missing_pair()
    if missing is not None:
        raise ColoringIncomplete(f"pair {missing} has no color")
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
    if (missing := c.missing_pair()) is not None:
        raise ColoringIncomplete(f"pair {missing} has no color; format requires all pairs")
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
    max_p: bool = False    # the builder also takes the affine guard max_p

    def certificate_for(self, params: dict):
        """The certificate for these parameters: a spec is formatted, a marker kept."""
        return self.certificate.format_map(params) if isinstance(self.certificate, str) \
            else self.certificate


CONSTRUCTIONS = {
    "affine": Construction({"p": int}, build_affine_split, "lax", "C4", max_p=True),
    "c4pipeline": Construction({"n": int}, construct_c4_free_split, "strict", "C4", max_p=True),
    "bipartite": Construction({"n": int}, build_bipartite_split, "strict", TWO_COLORED),
    "star": Construction({"n": int, "t": int}, build_star_free_split, "strict", "S{t}"),
    "from-coloring": Construction({"input": str}, lambda path: build_split_from_coloring(
        read_coloring(path)), "strict", None),
}


def check_split(split: SplitGraph, mode: str, spec) -> tuple:
    """(verification report, forbidden-pattern result or None, whether both
    passed) for a pattern spec, TWO_COLORED, or None (no pattern check)."""
    report, fr = verify_split(split, mode), None
    if spec is TWO_COLORED:
        fr = {"spec": "any non-bipartite graph",
              "free": two_coloring(split.graph) is not None, "witness": None}
    elif spec is not None:
        mapping = check_forbidden(split.graph, parse_forbidden_spec(spec))
        fr = {"spec": spec, "free": mapping is None, "witness": witness_json(mapping)}
    return report, fr, report.passed and (fr is None or fr["free"])
