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
MC_EDGE_CHUNK = 1 << 10  # edges OR-reduced at a time; memory only, not the result
MAX_MC_BATCH_BYTES = 1 << 30  # guard on one batch's colors, counted at 8 B each


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


def estimate_pair_failure(host: Graph, n: int, samples: int, seed: int) -> PairFailureEstimate:
    """Monte Carlo estimate of the probability that no host edge gets the
    color pair {0, 1} under a uniform n-coloring.  Batch b of MC_BATCH
    samples uses the trial rng (seed, b), so the estimate depends only on
    (host, n, samples, seed).

    Each batch is drawn by one call (drawing it in pieces would change the
    stream), as uint32 when n <= 2**32: numpy draws both uint32 and int64
    in that range by the same 32-bit Lemire method, so the values are equal.
    Colors are clipped to 0, 1 and 2 (the rest) and bit-sliced across
    samples: bit s of the word row zero[x]
    (one[x]) is set when sample s gives vertex x color 0 (1).  A sample is
    bicolored when some edge has its bit set in
    (zero[u] & one[v]) | (one[u] & zero[v]); the edges are OR-reduced
    MC_EDGE_CHUNK at a time, so no (batch, M) array is built.
    """
    if samples < 1:
        raise ParameterError(f"need samples >= 1, got {samples}")
    if not 2 <= n < 1 << 63:
        raise ParameterError(f"need 2 <= n < 2**63 colors, got {n}")
    batch_bytes = min(samples, MC_BATCH) * host.V * 8
    if batch_bytes > MAX_MC_BATCH_BYTES:
        raise SizeGuard(
            f"a Monte Carlo batch of {min(samples, MC_BATCH)} colorings of {host.V} "
            f"vertices needs {batch_bytes} bytes; guard is {MAX_MC_BATCH_BYTES}")
    u = host.edges[:, 0]
    v = host.edges[:, 1]
    dtype = np.uint32 if n <= 1 << 32 else np.int64
    failures = 0
    done = 0
    batch_index = 0
    while done < samples:
        size = min(MC_BATCH, samples - done)
        colors = _trial_rng(seed, batch_index).integers(0, n, size=(size, host.V), dtype=dtype)
        np.minimum(colors, 2, out=colors)
        sliced = np.full((host.V, -(-size // 64) * 64), 2, dtype=np.uint8)  # padding: neither
        for lo in range(0, host.V, 64):  # narrow casts keep each transposed block in cache
            sliced[lo:lo + 64, :size] = colors[:, lo:lo + 64].astype(np.uint8).T
        del colors
        zero = np.packbits(sliced == 0, axis=1, bitorder="little").view(np.uint64)
        one = np.packbits(sliced == 1, axis=1, bitorder="little").view(np.uint64)
        hit = np.zeros(zero.shape[1], dtype=np.uint64)
        for lo in range(0, host.M, MC_EDGE_CHUNK):
            cu, cv = u[lo:lo + MC_EDGE_CHUNK], v[lo:lo + MC_EDGE_CHUNK]
            rows = zero[cu] & one[cv]
            rows |= one[cu] & zero[cv]
            hit |= np.bitwise_or.reduce(rows, axis=0)
        failures += size - int(np.unpackbits(hit.view(np.uint8)).sum())
        done += size
        batch_index += 1
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
    by_degree = np.lexsort((np.arange(ell), -deg))  # ties to lower ids
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
        if not (trimmed.M > m / 2 and trimmed.degrees().max() <= q * m / ell):
            raise InvariantViolation(f"case-2 trim at q={q} broke its edge or degree bound")
        return TrimResult(case=2, q=q, graph=trimmed)

    # case 1: partition the rest by id into q-1 near-equal parts, longer ones first
    rest = np.sort(by_degree[a1_size:])
    parts = [np.sort(a1).tolist()] + [p.tolist() for p in np.array_split(rest, q - 1)]
    part_of = np.empty(ell, dtype=np.int64)
    for pi, members in enumerate(parts):
        part_of[members] = pi
    pu = part_of[g.edges[:, 0]]
    pv = part_of[g.edges[:, 1]]
    to_a1 = (pu == 0) ^ (pv == 0)
    counts = np.bincount((pu + pv)[to_a1], minlength=q)  # other part index, 1..q-1
    j_part = int(np.argmax(counts[1:])) + 1              # first max -> smallest j
    union_edges = int((((pu == 0) | (pu == j_part)) & ((pv == 0) | (pv == j_part))).sum())
    return TrimResult(
        case=1, q=q,
        certificate=Case1Certificate(
            parts=parts, part_sizes=[len(p) for p in parts], j=j_part + 1,
            union_edge_count=union_edges,
            lower_bound=m / (2 * (q - 1))))
