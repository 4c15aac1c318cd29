"""Exact f(n, H) at tiny n by exhaustive search over strict splits.

Pruning a lax split to strict form keeps it H-free, and copies that no edge
uses can stay isolated, so an H-free (n, k)-split exists iff an H-free
strict one with blobs of exactly k copies does.  Blob i holds copies
i*k .. i*k+k-1; the blob pairs are taken in lexicographic order and each is
given one edge.  Copies a blob has not used yet are interchangeable, so a
pair may use a blob's used copies or its next unused one, never a later one.

Each pattern test is told the host's adjacency bitsets (bit w of adj[x] is
set iff x ~ w) and an edge (u, v) not yet in the host, and says whether
adding it creates a copy of H; such a copy must use the new edge.  Nothing
here imports the package's checkers, so the search stays independent of the
code it checks.
"""

from __future__ import annotations

from itertools import combinations


def bits(x: int):
    """The indices of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def closes_k2t(t: int):
    """K_{2,t} (C4 for t = 2): one end of the new edge and some neighbor w of
    the other end would share t common neighbors, that other end included."""
    def closes(adj: list[int], u: int, v: int) -> bool:
        return any((adj[a] & adj[w]).bit_count() + 1 >= t
                   for a, b in ((u, v), (v, u)) for w in bits(adj[b]))
    return closes


def closes_star(t: int):
    """S_t: an end of the new edge would reach degree t."""
    def closes(adj: list[int], u: int, v: int) -> bool:
        return max(adj[u].bit_count(), adj[v].bit_count()) + 1 >= t
    return closes


def closes_c5(adj: list[int], u: int, v: int) -> bool:
    """C5: a path u - a - b - c - v on five distinct vertices."""
    ends = ~((1 << u) | (1 << v))
    return any(adj[a] & adj[c] & ends for a in bits(adj[u]) for c in bits(adj[v]) if a != c)


def closes_p4(adj: list[int], u: int, v: int) -> bool:
    """P4: the new edge in the middle (a - u - v - b, a != b) or at an end
    (u - v - x - y, or v - u - x - y)."""
    if adj[u] and adj[v] and (adj[u] | adj[v]).bit_count() >= 2:
        return True
    ends = ~((1 << u) | (1 << v))
    return any(adj[x] & ends for b in (u, v) for x in bits(adj[b]))


CLOSES = {"C4": closes_k2t(2), "K2,3": closes_k2t(3), "S3": closes_star(3),
          "S4": closes_star(4), "C5": closes_c5, "P4": closes_p4}


def find_split(spec: str, n: int, k: int) -> list[tuple[int, int]] | None:
    """Edges of the first H-free strict (n, k)-split the search reaches, on
    vertices 0..n*k-1 with blob v // k, or None when no such split exists."""
    closes = CLOSES[spec]
    pairs = list(combinations(range(n), 2))
    adj = [0] * (n * k)
    used = [0] * n  # blob i has used copies 0 .. used[i]-1
    edges: list[tuple[int, int]] = []

    def extend(p: int) -> bool:
        if p == len(pairs):
            return True
        i, j = pairs[p]
        for a in range(min(used[i] + 1, k)):
            for b in range(min(used[j] + 1, k)):
                u, v = i * k + a, j * k + b
                if closes(adj, u, v):
                    continue
                before = used[i], used[j]
                used[i], used[j] = max(used[i], a + 1), max(used[j], b + 1)
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                edges.append((u, v))
                if extend(p + 1):
                    return True
                edges.pop()
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
                used[i], used[j] = before
        return False

    return edges if extend(0) else None

