"""Exact betweenness centrality for temporal graphs.

Computes, for every node, how often it sits inside optimal temporal
walks, for seven optimality criteria (fewest edges, earliest arrival,
smallest duration, latest departure, and their tie-broken combinations)
and any maximum-waiting bound, in time linear in the number of temporal
edges per source.  Ships a brute-force oracle for verification, static
betweenness of the underlying graph, and rank-correlation metrics.
"""
from .costs import (
    ConfigError,
    CRITERION_NAMES,
    Criterion,
    get_criterion,
    walk_cost,
    walk_target_cost,
)
from .driver import NodeBetweenness, node_betweenness, single_source_edge_betweenness
from .estimator import TemporalBetweenness
from .graph import (
    ParseError,
    SortedRepresentation,
    StaticDigraph,
    TemporalEdge,
    TemporalGraph,
    build_sorted_representation,
    parse_edge_list,
    random_temporal_graph,
    to_edge_list,
    underlying_graph,
)
from .metrics import (
    RankingError,
    kendall_tau,
    top_k_intersection,
    weighted_kendall_tau,
)
from .oracle import (
    OracleCapError,
    brandes_static,
    enumerate_walks,
    g_loop,
    g_toy,
    oracle_betweenness,
    oracle_node_betweenness,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CRITERION_NAMES",
    "Criterion",
    "NodeBetweenness",
    "OracleCapError",
    "ParseError",
    "RankingError",
    "SortedRepresentation",
    "StaticDigraph",
    "TemporalBetweenness",
    "TemporalEdge",
    "TemporalGraph",
    "brandes_static",
    "build_sorted_representation",
    "enumerate_walks",
    "g_loop",
    "g_toy",
    "get_criterion",
    "kendall_tau",
    "node_betweenness",
    "oracle_betweenness",
    "oracle_node_betweenness",
    "parse_edge_list",
    "random_temporal_graph",
    "single_source_edge_betweenness",
    "to_edge_list",
    "top_k_intersection",
    "underlying_graph",
    "walk_cost",
    "walk_target_cost",
    "weighted_kendall_tau",
]
