"""Randomized coloring construction and its probabilistic diagnostics.

For a host graph on N vertices colored independently and uniformly with n
colors, a blob pair {i, j} "fails" when no edge gets colors i and j on its
endpoints.  The per-pair failure probability is bounded by
exp(-min(mu^2/(48 D), mu/4)) where mu = 2M/n^2 is the expected number of
{i, j}-bicolored edges and D = (2/n^3) * sum_u C(deg(u), 2) accounts for
pairs of edges sharing an endpoint (the only dependent pairs).

All randomness is a pure function of the seed (an integer >= 0): trial t of
random_split, and batch t of estimate_pair_failure, draw from numpy's default
generator seeded with SeedSequence(entropy=seed, spawn_key=(t,)), so a result
depends only on the inputs and the seed, in one process with no workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateHost, InvariantViolation, ParameterError, SizeGuard
from .graphs import Graph, SplitGraph, prune_to_split

MC_BATCH = 1 << 14  # fixed Monte Carlo batch size; part of the seed contract
MC_BLOCK_BYTES = 1 << 20  # bytes one row block of words, or one edge chunk, holds; memory only
MAX_MC_BATCH_BYTES = 1 << 30  # guard on the bytes estimate_pair_failure holds for one batch
MAX_TRIM_PARTS = 1 << 20  # guard on the q - 1 parts that trim's case 1 lists


def _trial_rng(seed: int, t: int) -> np.random.Generator:
    if seed < 0:  # SeedSequence takes no negative entropy
        raise ParameterError(f"need seed >= 0, got {seed}")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(t,)))


@dataclass
class JansonDiagnostics:
    M: int
    N: int
    n: int
    max_degree: int
    mu: float
    D: float
    D_upper_estimate: float  # N * max_degree^2 / n^3, always >= D
    bound_pair: float
    bound_union: float
    condition_flag: bool     # 2M >= 12 n^2 ln n


def janson_diagnostics(host: Graph, n: int) -> JansonDiagnostics:
    """Exact per-pair failure bound for uniform n-colorings of the host."""
    if n < 2:
        raise ParameterError(f"need n >= 2 colors, got {n}")
    if host.M == 0:
        raise DegenerateHost("host has no edges")
    deg = host.degrees()
    mu = 2.0 * host.M / n ** 2
    wedge_sum = int((deg * (deg - 1) // 2).sum())
    d_exact = 2.0 * wedge_sum / n ** 3
    max_degree = int(deg.max())
    exponent = mu / 4.0 if d_exact == 0.0 else min(mu * mu / (48.0 * d_exact), mu / 4.0)
    bound_pair = math.exp(-exponent)
    return JansonDiagnostics(
        M=host.M, N=host.V, n=n, max_degree=max_degree,
        mu=mu, D=d_exact,
        D_upper_estimate=host.V * max_degree ** 2 / n ** 3,
        bound_pair=bound_pair,
        bound_union=min(1.0, n * (n - 1) / 2 * bound_pair),
        condition_flag=2 * host.M >= 12 * n * n * math.log(n),
    )


@dataclass
class ConcentrationReport:
    k: float                 # expected blob size N/n
    epsilon: float           # ln(n)/sqrt(k)
    size_cap: float          # k + sqrt(k)*ln(n)
    per_class_bound: float   # exp(-epsilon^2 k / 3)
    union_bound: float       # n * per_class_bound


def concentration_report(N: int, n: int) -> ConcentrationReport:
    """Blob-size deviation bound for N vertices in n uniform color classes."""
    if n < 2 or N < n:
        raise ParameterError(f"need N >= n >= 2, got N={N}, n={n}")
    k = N / n
    eps = math.log(n) / math.sqrt(k)
    per_class = math.exp(-eps * eps * k / 3.0)
    return ConcentrationReport(
        k=k, epsilon=eps,
        size_cap=k + math.sqrt(k) * math.log(n),
        per_class_bound=per_class,
        union_bound=n * per_class,
    )


@dataclass
class PairFailureEstimate:
    estimate: float
    stderr: float
    samples: int
    seed: int


class _AcceptedWords:
    """The words of a generator that rng.integers(0, n) accepts, in draw order.

    numpy draws integers(0, n) by Lemire's method (Lemire, *Fast Random
    Integer Generation in an Interval*, ACM TOMACS 2019) on w-bit words: the
    low-first 32-bit halves of the bit generator's 64-bit outputs when
    n <= 2**32, whole outputs above.  A word x is rejected when
    (x*n) mod 2**w < 2**w mod n; an accepted one is the value (x*n) >> w,
    so it is 0 when x <= last0 and at most 1 when x <= last1.  take(k)
    returns the next k accepted words and keeps the rest for the next call.
    """

    def __init__(self, rng: np.random.Generator, n: int):
        width = 32 if n <= 1 << 32 else 64
        self.dtype = np.dtype(f"<u{width // 8}")
        self.last0 = self.dtype.type(((1 << width) - 1) // n)
        self.last1 = self.dtype.type(((2 << width) - 1) // n)
        self.factor = self.dtype.type(n % (1 << width))
        self.reject_below = (1 << width) % n
        self.bit_generator = rng.bit_generator
        self.carry = np.empty(0, self.dtype)

    def take(self, count: int) -> np.ndarray:
        words = self.carry
        while len(words) < count:
            missing = count - len(words)
            raw = self.bit_generator.random_raw(-(-missing * self.dtype.itemsize // 8))
            fresh = raw.astype("<u8", copy=False).view(self.dtype)  # low half first
            if self.reject_below:
                rejected = np.multiply(fresh, self.factor) < self.reject_below
                if rejected.any():
                    fresh = fresh[~rejected]
            words = np.concatenate((words, fresh)) if len(words) else fresh
        self.carry = words[count:].copy()  # a copy, so the block's memory goes with it
        return words[:count]


def _mc_plan(V: int, M: int, size: int, n: int) -> tuple[int, int, int]:
    """(rows per block, edges per chunk, bytes held) for a batch of size samples.

    MC_BLOCK_BYTES sizes a row block by its words, their transpose and its
    two bool planes, and an edge chunk by its four endpoint gathers.  A
    block is a multiple of 8 rows, so each fills whole bytes of the planes.
    The bytes held are the two (V, ceil(size/64)) bit planes plus one
    block, one chunk, and the hit words with their unpacked bits."""
    words = -(-size // 64)
    per_row = V * (2 * (4 if n <= 1 << 32 else 8) + 3)
    per_edge = 4 * words * 8
    rows = min(-(-size // 8) * 8, max(8, MC_BLOCK_BYTES // max(per_row, 1) // 8 * 8))
    edges = max(1, min(M, MC_BLOCK_BYTES // per_edge))
    return rows, edges, (2 * V + 9) * words * 8 + rows * per_row + edges * per_edge


def _bit_slice(planes: np.ndarray, lo: int, block: np.ndarray, words: _AcceptedWords) -> None:
    """Set bit lo + s of planes[0][x] (planes[1][x]) when row s of block
    gives vertex x color 0 (color 0 or 1); lo is a multiple of 8.  A
    function of its own, so a block's arrays are freed before the next
    block is drawn."""
    by_vertex = np.ascontiguousarray(block.T)  # the compares run fastest on contiguous rows
    # whole bytes per vertex, so one flat packbits packs every vertex's row
    nbytes = -(-len(block) // 8)
    bits = np.zeros((2, len(by_vertex), nbytes * 8), dtype=bool)
    np.less_equal(by_vertex, words.last0, out=bits[0, :, :len(block)])
    np.less_equal(by_vertex, words.last1, out=bits[1, :, :len(block)])
    packed = np.packbits(bits, bitorder="little").reshape(2, len(by_vertex), nbytes)
    planes.view(np.uint8)[..., lo // 8:lo // 8 + nbytes] = packed


def _batch_failures(host: Graph, n: int, size: int, rng: np.random.Generator) -> int:
    """The samples of one batch in which no edge gets the color pair {0, 1}."""
    rows, edges, _ = _mc_plan(host.V, host.M, size, n)
    words = _AcceptedWords(rng, n)
    planes = np.zeros((2, host.V, -(-size // 64)), dtype=np.uint64)  # padding: neither
    for lo in range(0, size, rows):
        count = min(rows, size - lo)
        _bit_slice(planes, lo, words.take(count * host.V).reshape(count, host.V), words)
    zero, one = planes
    one ^= zero  # color at most 1 and not 0
    u = host.edges[:, 0]
    v = host.edges[:, 1]
    hit = np.zeros(zero.shape[1], dtype=np.uint64)
    for lo in range(0, host.M, edges):
        cu, cv = u[lo:lo + edges], v[lo:lo + edges]
        bicolored = zero[cu] & one[cv]
        bicolored |= one[cu] & zero[cv]
        hit |= np.bitwise_or.reduce(bicolored, axis=0)
    return size - int(np.unpackbits(hit.view(np.uint8)).sum())


def estimate_pair_failure(host: Graph, n: int, samples: int, seed: int) -> PairFailureEstimate:
    """Monte Carlo estimate of the probability that no host edge gets the
    color pair {0, 1} under a uniform n-coloring.  Batch b of MC_BATCH
    samples uses the trial rng (seed, b), so the estimate depends only on
    (host, n, samples, seed).

    A batch's colors are those of rng.integers(0, n, (size, V)), read
    straight off its generator's words (_AcceptedWords) a row block at a
    time.  Each block is bit-sliced across samples into the batch's words,
    so no (batch, V) array is held: bit s of the word row zero[x] (one[x])
    is set when sample s gives vertex x color 0 (1).  A sample is
    bicolored when some edge has its bit set in
    (zero[u] & one[v]) | (one[u] & zero[v]); the edges are OR-reduced a
    chunk at a time, so no (batch, M) array is built.  Block and chunk
    sizes follow MC_BLOCK_BYTES and change only the memory, not the result.
    """
    if samples < 1:
        raise ParameterError(f"need samples >= 1, got {samples}")
    if not 2 <= n < 1 << 63:
        raise ParameterError(f"need 2 <= n < 2**63 colors, got {n}")
    held = _mc_plan(host.V, host.M, min(samples, MC_BATCH), n)[2]
    if held > MAX_MC_BATCH_BYTES:
        raise SizeGuard(
            f"a Monte Carlo batch of {min(samples, MC_BATCH)} colorings of {host.V} "
            f"vertices holds {held} bytes; guard is {MAX_MC_BATCH_BYTES}")
    failures = 0
    for batch_index, lo in enumerate(range(0, samples, MC_BATCH)):
        size = min(MC_BATCH, samples - lo)
        failures += _batch_failures(host, n, size, _trial_rng(seed, batch_index))
    p_hat = failures / samples
    return PairFailureEstimate(
        estimate=p_hat,
        stderr=math.sqrt(p_hat * (1.0 - p_hat) / samples),
        samples=samples, seed=seed)


@dataclass
class FailureStats:
    trials: int
    size_failures: int   # some color class empty or larger than k_cap
    pair_failures: int   # sizes fine but some class pair spans no edge
    janson: JansonDiagnostics | None          # None for edgeless hosts
    concentration: ConcentrationReport | None  # None for n = 1


def random_split(host: Graph, n: int, k_cap: int, trials: int,
                 seed: int) -> SplitGraph | FailureStats:
    """Rejection-sample uniform n-colorings of the host until one has all
    classes nonempty, no class above k_cap, and an edge between every two
    classes; the accepted coloring is pruned to a strict split (a subgraph
    of the host, so host freeness properties carry over).

    Trial t colors with the rng derived from (seed, t) alone, so a run with
    more trials repeats the trials of a shorter one before its own.
    """
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    if k_cap < 1:
        raise ParameterError(f"need k_cap >= 1, got {k_cap}")
    if trials < 1:
        raise ParameterError(f"need trials >= 1, got {trials}")
    if host.V < n:
        raise ParameterError(f"host has {host.V} vertices < n={n} classes")
    total_pairs = n * (n - 1) // 2
    eu = host.edges[:, 0]
    ev = host.edges[:, 1]
    # with fewer edges than class pairs no trial can cover them all, and the
    # n*n coverage buffer is allocated only when one might
    covered = np.zeros(n * n, dtype=bool) if host.M >= total_pairs else None
    size_failures = 0
    pair_failures = 0
    for t in range(trials):
        colors = _trial_rng(seed, t).integers(0, n, size=host.V)
        sizes = np.bincount(colors, minlength=n)
        if sizes.min() == 0 or sizes.max() > k_cap:
            size_failures += 1
            continue
        if covered is None:
            pair_failures += 1
            continue
        bu, bv = colors[eu], colors[ev]
        covered[:] = False
        covered[np.minimum(bu, bv) * n + np.maximum(bu, bv)] = True
        covered[::n + 1] = False  # edges inside one class
        if np.count_nonzero(covered) != total_pairs:
            pair_failures += 1
            continue
        lax = SplitGraph(host, colors, n, int(sizes.max()))
        return prune_to_split(lax)
    return FailureStats(
        trials=trials, size_failures=size_failures, pair_failures=pair_failures,
        janson=janson_diagnostics(host, n) if host.M and n >= 2 else None,
        concentration=concentration_report(host.V, n) if n >= 2 else None)


# ---------------------------------------------------------------------------
# Degree trimming
# ---------------------------------------------------------------------------

@dataclass
class Case1Certificate:
    """The dense-pair evidence from the top-degree case: part j maximizes the
    edge count to the top-degree part, and the union of the two parts holds
    at least m/(2(q-1)) edges."""

    parts: list[list[int]]
    part_sizes: list[int]
    j: int                  # in {2..q}, 1-based part label
    union_edge_count: int   # |E(G[A_1 u A_j])|
    lower_bound: float      # m / (2(q-1))


@dataclass
class TrimResult:
    case: int               # 1 or 2
    q: int
    graph: Graph | None = None              # case 2: trimmed graph, same vertex set
    certificate: Case1Certificate | None = None  # case 1


def trim_max_degree(g: Graph, b: float, cp: float = 1.0,
                    ex_override: int | None = None,
                    q_override: int | None = None) -> TrimResult:
    """Erdos-Simonovits-style trimming of the top-degree vertices.

    With A_1 the ceil(l/q) vertices of largest degree (ties to lower ids):
    if the A_1 degrees sum below m/2, removing A_1's edges leaves more than
    m/2 edges and maximum degree at most q*m/l (case 2).  Otherwise the
    procedure returns a certificate exhibiting a pair of parts whose union
    is unusually dense (case 1).

    q comes from the upper Turan bound ex(l, H) <= cp*l^b, 1 < b < 2.  ex
    defaults to 2m, treating the input's edge count as half the extremal
    count; pass ex_override when the true extremal value is known.
    """
    if not 1.0 < b < 2.0:
        raise ParameterError(f"need 1 < b < 2, got b={b}")
    if cp <= 0:
        raise ParameterError(f"need cp > 0, got {cp}")
    ell, m = g.V, g.M
    if ell < 3 or m < 1:
        raise ParameterError(f"need >= 3 vertices and >= 1 edge, got ({ell}, {m})")
    if q_override is not None:
        if q_override < 3:
            raise ParameterError(f"q must be >= 3, got {q_override}")
        q = q_override
    else:
        ex = ex_override if ex_override is not None else 2 * m
        if not (math.isfinite(cp) and ex >= 1):
            raise ParameterError(f"the q formula needs a finite cp and ex >= 1, got {cp}, {ex}")
        try:
            coeff = cp ** (1 / (b - 1)) * 2 ** ((b + 1) / (b - 1) + 1)
            q = max(3, math.floor(coeff * (ell ** b / ex) ** (1 / (b - 1))))
        except OverflowError:
            raise ParameterError(f"the q formula overflows at b={b}, cp={cp}, ex={ex}") from None

    deg = g.degrees()
    by_degree = np.argsort(-deg, kind="stable")  # ties to lower ids
    a1_size = -(-ell // q)
    a1 = by_degree[:a1_size]
    a1_degree_sum = int(deg[a1].sum())

    if a1_degree_sum < m / 2:
        # case 2: drop all edges touching A_1; A_1 stays as isolated vertices
        in_a1 = np.zeros(ell, dtype=bool)
        in_a1[a1] = True
        e = g.edges
        kept = e[~(in_a1[e[:, 0]] | in_a1[e[:, 1]])]
        trimmed = Graph(ell, kept)
        if not (trimmed.M > m / 2 and int(trimmed.degrees().max()) * ell <= q * m):
            raise InvariantViolation(f"case-2 trim at q={q} broke its edge or degree bound")
        return TrimResult(case=2, q=q, graph=trimmed)

    # case 1: partition the rest by id into q-1 near-equal parts, longer ones first
    if q - 1 > MAX_TRIM_PARTS:
        raise SizeGuard(f"case 1 at q={q} lists {q - 1} parts; guard is {MAX_TRIM_PARTS}")
    members = np.concatenate((np.sort(a1), np.sort(by_degree[a1_size:])))
    base, extra = divmod(ell - a1_size, q - 1)
    sizes = [a1_size] + [base + 1] * extra + [base] * (q - 1 - extra)
    part_of = np.empty(ell, dtype=np.int64)
    part_of[members] = np.repeat(np.arange(q), sizes)
    flat, ends = members.tolist(), np.cumsum(sizes).tolist()
    parts = [flat[end - size:end] for size, end in zip(sizes, ends)]
    pu = part_of[g.edges[:, 0]]
    pv = part_of[g.edges[:, 1]]
    to_a1 = (pu == 0) ^ (pv == 0)
    counts = np.bincount((pu + pv)[to_a1], minlength=q)  # other part index, 1..q-1
    j_part = int(np.argmax(counts[1:])) + 1              # first max -> smallest j
    union_edges = int((((pu == 0) | (pu == j_part)) & ((pv == 0) | (pv == j_part))).sum())
    return TrimResult(
        case=1, q=q,
        certificate=Case1Certificate(
            parts=parts, part_sizes=sizes, j=j_part + 1,
            union_edge_count=union_edges,
            lower_bound=m / (2 * (q - 1))))
