"""Metamorphic checks on a graph of 10^4 edges, beyond the oracle's reach.

Each check compares two exact runs that must agree by construction, so
no brute-force ground truth is needed: the general engine against the
lean one where both apply, a time-shifted graph against the original,
fast mode against exact mode, and the engines' shortcuts (target
optima without the intermediate pass, node sums built in backward)
against the long way round, here also on small seeded graphs.
"""
from __future__ import annotations

import random

import pytest

from tempobet.costs import CRITERION_NAMES, get_criterion
from tempobet.driver import node_betweenness, single_source_edge_betweenness
from tempobet.graph import (
    TemporalEdge,
    TemporalGraph,
    build_sorted_representation,
    random_temporal_graph,
)
from tempobet.nonrestless import forward_phase, intermediate_phase
from tempobet.nonrestless import single_source_edge_betweenness as nonrestless_run
from tempobet.restless import restless_forward
from tempobet.restless import single_source_edge_betweenness as restless_run

from conftest import make_random_graph

SOURCES = [0, 7, 42]
RUNS = [("sh", None), ("sfo", None), ("sfa", 10), ("fa", 4)]


@pytest.fixture(scope="module")
def graph() -> TemporalGraph:
    return random_temporal_graph(400, 10_000, t_max=200, seed=2025)


def _graphs_and_sources(graph):
    """The big graph with SOURCES, then small seeded graphs with all sources."""
    yield graph, SOURCES
    rng = random.Random(43)
    for _ in range(30):
        g = make_random_graph(rng)
        yield g, range(g.n)


def test_sh_target_counts_equal_intermediate_phase(graph):
    """For sh the lean engine skips the intermediate pass: its per-node
    target values and counts are forward's optimum, and they equal what
    the intermediate pass derives from the same forward."""
    sh = get_criterion("sh")
    for g, sources in _graphs_and_sources(graph):
        rep = build_sorted_representation(g)
        for s in sources:
            fwd = forward_phase(rep, s)
            want = intermediate_phase(rep, fwd.edge_cost, fwd.edge_count, sh, fwd.start)
            _, back = nonrestless_run(rep, s, sh)
            assert back.best_target == want.best_target
            assert back.target_count == want.target_count


@pytest.mark.parametrize("beta", [0, 3, None])
@pytest.mark.parametrize("crit_name", CRITERION_NAMES)
def test_restless_target_optima_equal_intermediate_phase(graph, crit_name, beta):
    """The restless engine keeps each node's target optimum in forward
    and marks target-optimal edges in backward; both equal what the
    intermediate pass derives from the same forward."""
    crit = get_criterion(crit_name)
    for g, sources in _graphs_and_sources(graph):
        rep = build_sorted_representation(g)
        for s in sources:
            fwd = restless_forward(rep, s, crit, beta)
            want = intermediate_phase(rep, fwd.edge_cost, fwd.edge_count, crit, fwd.start)
            _, back = restless_run(rep, s, crit, beta)
            assert back.best_target == want.best_target
            assert back.target_count == want.target_count
            assert back.edge_target_count == want.edge_target_count


ENGINE_RUNS = [(c, b, "restless") for c in CRITERION_NAMES for b in (3, None)]
ENGINE_RUNS += [("sh", None, "nonrestless"), ("sfo", None, "nonrestless")]


@pytest.mark.parametrize("crit_name, beta, engine", ENGINE_RUNS)
def test_backward_node_sums_equal_edge_sums_by_head(graph, crit_name, beta, engine):
    for g, sources in _graphs_and_sources(graph):
        rep = build_sorted_representation(g)
        for s in sources:
            edge_bc, back = single_source_edge_betweenness(rep, s, crit_name, beta, engine)
            want = [0] * g.n
            for v, x in zip(rep.heads, edge_bc):
                want[v] += x
            assert back.node_num == want


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
