"""Second oracles from outside the package, used only here: networkx's VF2
matcher for the subgraph checkers, sympy's polynomial arithmetic over GF(p)
for the field code, and sympy's primality test for `is_prime`."""

import random

import networkx as nx
import numpy as np
import pytest
from networkx.algorithms.isomorphism import GraphMatcher
from sympy import Poly, isprime, prevprime, primerange, symbols
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_mul, gf_rem

from conftest import random_graph, recursive_kst_enumerate, set_contains_subgraph
from splitfree.fields import (
    MR_EXACT_BELOW,
    _smallest_irreducible_quadratic,
    is_prime,
    make_quadratic_field,
)
from splitfree.freeness import (
    _kst_enumerate,
    check_forbidden,
    contains_subgraph,
    is_c4_free,
    is_kst_free,
    parse_forbidden_spec,
)

PATTERNS = ["C3", "C4", "C5", "C6", "P3", "P4", "P5", "K2,2", "K2,3", "K3,3", "S2", "S3", "S4"]
# disconnected `file:` patterns: a second component's first vertex has no placed neighbor
DISCONNECTED = {"2K2": "graph 1\nv 4 e 2\ne 0 1\ne 2 3\n",
                "K3+K1": "graph 1\nv 4 e 3\ne 0 1\ne 0 2\ne 1 2\n",
                "P3+K2": "graph 1\nv 5 e 3\ne 0 1\ne 1 2\ne 3 4\n"}
BICLIQUES = {"C4": (2, 2), "K2,2": (2, 2), "K2,3": (2, 3), "K3,3": (3, 3),
             "S2": (1, 2), "S3": (1, 3), "S4": (1, 4)}


def hosts():
    """A seeded corpus of small hosts: 4 to 10 vertices, sparse to dense."""
    rng = np.random.default_rng(2024)
    return [random_graph(int(rng.integers(4, 11)), float(rng.choice([0.2, 0.35, 0.5, 0.7])), rng)
            for _ in range(60)]


def forbidden(spec: str, tmp_path):
    if spec in DISCONNECTED:
        path = tmp_path / f"{spec}.g"
        path.write_text(DISCONNECTED[spec])
        spec = f"file:{path}"
    return parse_forbidden_spec(spec)


def to_nx(g) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.V))
    out.add_edges_from(g.edges.tolist())
    return out


def is_embedding(host: nx.Graph, pattern: nx.Graph, mapping: dict[int, int]) -> bool:
    return (sorted(mapping) == sorted(pattern.nodes)
            and len(set(mapping.values())) == len(mapping)
            and all(host.has_edge(mapping[u], mapping[v]) for u, v in pattern.edges))


@pytest.mark.parametrize("spec", PATTERNS + list(DISCONNECTED))
def test_checkers_agree_with_vf2(spec, tmp_path):
    h = forbidden(spec, tmp_path)
    pattern = to_nx(h.graph)
    for g in hosts():
        host = to_nx(g)
        found = GraphMatcher(host, pattern).subgraph_is_monomorphic()
        for mapping in (contains_subgraph(g, h), check_forbidden(g, h)):
            assert (mapping is not None) == found, (spec, g.edges.tolist())
            assert mapping is None or is_embedding(host, pattern, mapping)
        if spec in BICLIQUES:
            assert (is_kst_free(g, *BICLIQUES[spec]) is not None) == found
        if BICLIQUES.get(spec) == (2, 2):
            assert (is_c4_free(g) is not None) == found


@pytest.mark.parametrize("spec", PATTERNS + list(DISCONNECTED))
def test_oracle_returns_the_reference_mapping(spec, tmp_path):
    h = forbidden(spec, tmp_path)
    for g in hosts():
        assert contains_subgraph(g, h) == set_contains_subgraph(g, h.graph), g.edges.tolist()


@pytest.mark.parametrize("s, t", [(3, 3), (3, 4)])
def test_biclique_search_returns_the_recursive_witness(s, t):
    witnesses = [_kst_enumerate(g, s, t) for g in hosts()]
    assert witnesses == [recursive_kst_enumerate(g, s, t) for g in hosts()]
    assert any(witnesses) and not all(witnesses)


@pytest.mark.parametrize("p", list(primerange(2, 50)))
def test_reduction_polynomial_is_sympys_first_irreducible(p):
    # the first monic irreducible quadratic in the encoding order r1*p + r0
    x = symbols("x")
    first = next((r0, r1) for r1, r0 in map(lambda code: divmod(code, p), range(p * p))
                 if Poly(x ** 2 + r1 * x + r0, x, modulus=p).is_irreducible)
    assert _smallest_irreducible_quadratic(p) == first


def _coefficients(poly: list, p: int) -> tuple[int, int]:
    """(c0, c1) of a galoistools polynomial (highest degree first, zeros stripped)."""
    padded = [0, 0] + [int(c) % p for c in poly]
    return padded[-1], padded[-2]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_array_arithmetic_agrees_with_sympy(p):
    f = make_quadratic_field(p)
    r0, r1 = f.reduction
    modulus = [ZZ(1), ZZ(r1), ZZ(r0)]
    c = np.arange(p * p)
    a0, a1 = np.repeat(c % p, p * p), np.repeat(c // p, p * p)
    b0, b1 = np.tile(c % p, p * p), np.tile(c // p, p * p)
    m0, m1 = f.mul_arrays(a0, a1, b0, b1)
    s0, s1 = f.add_arrays(a0, a1, b0, b1)
    for i in range(len(a0)):
        a = [ZZ(int(a1[i])), ZZ(int(a0[i]))]
        b = [ZZ(int(b1[i])), ZZ(int(b0[i]))]
        assert (m0[i], m1[i]) == _coefficients(gf_rem(gf_mul(a, b, p, ZZ), modulus, p, ZZ), p)
        assert (s0[i], s1[i]) == _coefficients(gf_add(a, b, p, ZZ), p)


def test_is_prime_agrees_with_sympy():
    rng = random.Random(7)
    for _ in range(20_000):
        n = rng.randrange(10 ** rng.randint(1, 24))
        assert is_prime(n) == isprime(n), n
    # just below the exact bound: the last prime, then only composites
    top = prevprime(MR_EXACT_BELOW)
    assert is_prime(top) and not any(is_prime(n) for n in range(top + 1, MR_EXACT_BELOW))
