"""Metamorphic checks on a graph of 10^4 edges, beyond the oracle's reach.

Each check compares two exact runs that must agree by construction, so
no brute-force ground truth is needed: the general engine against the
lean one where both apply, a time-shifted graph against the original,
and fast mode against exact mode.
"""
from __future__ import annotations

import pytest

from tempobet.costs import get_criterion
from tempobet.driver import node_betweenness
from tempobet.graph import (
    TemporalEdge,
    TemporalGraph,
    build_sorted_representation,
    random_temporal_graph,
)
from tempobet.nonrestless import single_source_edge_betweenness as nonrestless_run
from tempobet.restless import single_source_edge_betweenness as restless_run

SOURCES = [0, 7, 42]
RUNS = [("sh", None), ("sfo", None), ("sfa", 10), ("fa", 4)]


@pytest.fixture(scope="module")
def graph() -> TemporalGraph:
    return random_temporal_graph(400, 10_000, t_max=200, seed=2025)


@pytest.mark.parametrize("crit_name", ["sh", "sfo"])
def test_restless_at_infinity_equals_nonrestless(graph, crit_name):
    crit = get_criterion(crit_name)
    rep = build_sorted_representation(graph)
    for s in SOURCES:
        lean, lean_back = nonrestless_run(rep, s, crit)
        general, general_back = restless_run(rep, s, crit, None)
        assert lean_back.denom == general_back.denom
        assert lean == general
        assert any(lean)


@pytest.mark.parametrize("crit_name, beta", RUNS)
def test_time_shift_leaves_node_scores_unchanged(graph, crit_name, beta):
    shifted = TemporalGraph(
        graph.n,
        [TemporalEdge(e.tail, e.head, e.dep + 12_345, e.travel) for e in graph.edges],
    )
    base = node_betweenness(graph, crit_name, beta, sources=SOURCES).values
    assert any(base)
    assert node_betweenness(shifted, crit_name, beta, sources=SOURCES).values == base


@pytest.mark.parametrize("crit_name, beta", RUNS)
def test_fast_mode_within_1e9_of_exact(graph, crit_name, beta):
    exact = node_betweenness(graph, crit_name, beta, sources=SOURCES).values
    fast = node_betweenness(graph, crit_name, beta, sources=SOURCES, mode="fast").values
    assert all(isinstance(f, float) for f in fast)
    for x, f in zip(exact, fast):
        assert abs(f - float(x)) <= 1e-9 * abs(float(x))
