"""Splits of complete graphs avoiding a forbidden subgraph.

An (n, k)-split assigns the vertices of a host graph to n blobs of size at
most k with exactly one edge between every two blobs; contracting blobs
recovers K_n.  This package builds such splits whose graphs avoid a chosen
forbidden subgraph, verifies every output with independent checkers, and
computes certified bounds on the least feasible blob size f(n, H).
"""

from .bounds import BoundReport, RamseyBounds, necessary_k_lower, ramsey_bounds, split_bounds, turan_bound
from .constructions import (
    AffinePlane,
    EdgeColoring,
    build_affine_plane,
    build_affine_split,
    build_bipartite_split,
    build_split_from_coloring,
    build_star_free_split,
    construct_c4_free_split,
    next_prime,
    read_coloring,
    round_robin_coloring,
    write_coloring,
)
from .fields import Field, FieldElement, make_quadratic_field
from .freeness import (
    BicliqueWitness,
    ForbiddenGraph,
    check_forbidden,
    contains_subgraph,
    is_c4_free,
    is_kst_free,
    parse_forbidden_spec,
    verify_embedding,
)
from .graphs import (
    Graph,
    SplitGraph,
    VerificationReport,
    build_graph,
    connected_components,
    prune_to_split,
    read_graph,
    read_split,
    restrict_blobs,
    two_coloring,
    verify_split,
    write_graph,
    write_split,
)
from .probabilistic import (
    Case1Certificate,
    ConcentrationReport,
    FailureStats,
    JansonDiagnostics,
    PairFailureEstimate,
    TrimResult,
    concentration_report,
    estimate_pair_failure,
    janson_diagnostics,
    random_split,
    trim_max_degree,
)

__version__ = "0.1.0"
