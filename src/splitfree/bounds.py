"""Certified finite bounds on extremal edge counts and on the minimum blob
size f(n, H) of an H-free split of K_n.

Upper Turán bounds here are true finite inequalities (never asymptotic
forms): the common-neighbor counting bound for K_{2,t}, the exact maximum
for stars, and l*(t-1) for trees.  f(n, H) intervals combine the necessary
edge-count condition (a strict split has n(n-1)/2 edges, so an H-free one
needs ex(nk, H) >= n(n-1)/2) with the blob sizes achieved by this package's
constructions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .constructions import CONSTRUCTIONS, check_split, pipeline_parameters, star_blob_size
from .errors import InvariantViolation, ParameterError, UnsupportedFamily
from .freeness import ForbiddenGraph
from .graphs import two_coloring


def turan_bound(h: ForbiddenGraph, ell: int) -> tuple[int, int]:
    """Certified interval [low, high] for the maximum edge count of an
    h-free graph on ell vertices.

    C4 and K_{2,t}: high = floor(ell*(1 + sqrt(4(t-1)(ell-1)+1))/4) (exact
    integer arithmetic), low = 0 (no finite lower bound is certified).
    Stars K_{1,t}: exactly floor(ell*(t-1)/2).  Trees with t edges: clique
    unions from below, ell*(t-1) from above.  Below |V(h)| every graph is
    h-free, so both ends are C(ell, 2).  Anything else is unsupported.
    """
    if ell < h.graph.V:
        return ell * (ell - 1) // 2, ell * (ell - 1) // 2
    s, t = map(len, h.sides or ((), ()))  # K_{s,t}, with C4 = K2,2 and S_t = K1,t; else 0, 0
    if s == 2:
        disc = 4 * (t - 1) * (ell - 1) + 1
        high = (ell + math.isqrt(disc * ell * ell)) // 4
        return 0, high
    if s == 1:
        exact = ell * (t - 1) // 2
        return exact, exact
    if h.is_tree:
        t = h.graph.M
        cliques, rest = divmod(ell, t)
        low = cliques * (t * (t - 1) // 2) + rest * (rest - 1) // 2
        return low, ell * (t - 1)
    raise UnsupportedFamily(f"no certified finite Turán bound for {h.spec}")


def necessary_k_lower(h: ForbiddenGraph, n: int) -> int:
    """Largest k whose certified bound forces ex(nk, h) < n(n-1)/2, reported
    as f(n, h) >= k; returns 1 when even k = 1 gives no contradiction."""
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    if int(h.graph.degrees().max(initial=0)) < 2:
        raise UnsupportedFamily(
            f"f(n, {h.spec}) is undefined: every split contains a single edge")
    target = n * (n - 1) // 2
    lo, hi = 0, 1  # the bound grows with ell: double hi, then bisect; the k sought is in [lo, hi)
    while turan_bound(h, n * hi)[1] < target:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if turan_bound(h, n * mid)[1] < target else (lo, mid)
    return max(lo, 1)


@dataclass
class BoundReport:
    forbidden: str
    n: int
    f_lower: int
    f_lower_provenance: str
    f_upper: float | None
    f_upper_provenance: str
    f_upper_certified: bool
    achieved_k: int | None = None
    notes: list[str] = field(default_factory=list)


_STRICTNESS_NOTE = ("lower bound follows the convention f >= k when "
                    "ex(nk, H) < n(n-1)/2; the strict inequality would "
                    "already justify f >= k+1")


def _certify(kind: str, params: dict, report: BoundReport) -> None:
    """Build the construction and fill achieved_k, unless the split fails its
    row's check or has blobs below f_lower."""
    row = CONSTRUCTIONS[kind]
    split = row.build(*params.values())
    achieved = int(split.blob_sizes().max())
    if not (check_split(split, row.mode, row.certificate_for(params))[2]
            and achieved >= report.f_lower):
        raise InvariantViolation(
            f"{report.forbidden}: the n={report.n} construction failed its certificate")
    report.achieved_k = achieved


def split_bounds(h: ForbiddenGraph, n: int, certify: bool = False) -> BoundReport:
    """Interval report for f(n, h), the least blob size of an h-free split
    of K_n.  With certify=True the upper-bound construction is actually
    built and re-verified, filling achieved_k."""
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    if n < h.graph.V:
        return BoundReport(
            forbidden=h.spec, n=n, f_lower=1, f_lower_provenance="trivial (any split works)",
            f_upper=1, f_upper_provenance=f"K_{n} itself has fewer than {h.graph.V} vertices",
            f_upper_certified=True, achieved_k=1)

    bipartite = two_coloring(h.graph) is not None
    construction = None  # (kind, params) of the upper-bound construction, for --certify
    if not bipartite:
        # the split's own 2-coloring certifies it: no non-bipartite graph fits
        f_lower, lower_prov, notes = 2, f"the 1-split is K_{n}, which contains {h.spec}", []
        f_upper, certified, upper_prov = 2, True, (
            "red/blue 2-split: the output is bipartite and contains no non-bipartite graph")
        construction = "bipartite", {"n": n}
    else:
        # necessary_k_lower raises unless h is a K_{2,t}, a star or a tree
        f_lower, notes = necessary_k_lower(h, n), [_STRICTNESS_NOTE]
        target = n * (n - 1) // 2
        at_k = turan_bound(h, n * f_lower)[1]
        if at_k < target:
            lower_prov = (f"an h-free split needs ex(nk, {h.spec}) >= n(n-1)/2, and "
                          f"ex({n * f_lower}, {h.spec}) <= {at_k} < {target}, while "
                          f"ex({n * (f_lower + 1)}, {h.spec}) <= "
                          f"{turan_bound(h, n * (f_lower + 1))[1]} does not contradict k+1")
        else:
            lower_prov = (f"no k is excluded: ex({n}, {h.spec}) <= {at_k} already "
                          f"reaches {target}; trivial bound k >= 1")
        s, t = map(len, h.sides or ((), ()))
        if s == 2:
            if n < 8:
                f_upper, upper_prov, certified = None, "pipeline needs n >= 8", False
            else:
                p = pipeline_parameters(n)[2]
                f_upper, certified = 2 * p, True
                upper_prov = f"affine-plane pipeline: prime p={p}, blob size 2p"
                construction = "c4pipeline", {"n": n}
        elif s == 1:
            f_upper, certified = star_blob_size(n, t), True
            upper_prov = (f"round-robin rounds grouped {f_upper} ways, "
                          f"each group at most {t - 1} matchings")
            construction = "star", {"n": n, "t": t}
        else:
            f_upper, certified = 2 * (n - 1) / (h.graph.M - 1), False
            upper_prov = ("tree Ramsey-coloring bound 2(n-1)/(t-1); no construction "
                          "built (supply an edge coloring to certify)")

    report = BoundReport(
        forbidden=h.spec, n=n, f_lower=f_lower, f_lower_provenance=lower_prov,
        f_upper=f_upper, f_upper_provenance=upper_prov,
        f_upper_certified=certified, notes=notes)
    if certify and construction is not None:
        _certify(*construction, report)
    return report


@dataclass
class RamseyBounds:
    t: int            # tree edge count
    k: int            # color count
    lower: int        # (t-1)*floor((k+1)/2) + 1
    upper: int        # 2kt + 1
    star_exact: int   # k(t-1) + epsilon
    epsilon: int      # 1 iff k and t both even, else 2


def ramsey_bounds(t: int, k: int) -> RamseyBounds:
    """Multicolor Ramsey bounds for trees with t edges, plus the exact star
    value."""
    if t < 1 or k < 1:
        raise ParameterError(f"need t >= 1 and k >= 1, got ({t}, {k})")
    eps = 1 if (k % 2 == 0 and t % 2 == 0) else 2
    return RamseyBounds(
        t=t, k=k,
        lower=(t - 1) * ((k + 1) // 2) + 1,
        upper=2 * k * t + 1,
        star_exact=k * (t - 1) + eps,
        epsilon=eps)
