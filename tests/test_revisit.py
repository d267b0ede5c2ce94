"""driver.revisit_continuations against a full per-head scan.

The reference below scans every arrival position for every distinct
head; the driver's version scans only each head's arrival span.  They
must agree entry for entry.
"""
from __future__ import annotations

import random

import pytest

from tempobet.driver import revisit_continuations
from tempobet.graph import (
    SortedRepresentation,
    build_sorted_representation,
    parse_edge_list,
    random_temporal_graph,
)
from tempobet.oracle import g_loop

from conftest import make_random_graph

BETAS = (None, 0, 1, 2, 5)


def reference_revisit_continuations(rep: SortedRepresentation, beta: int | None) -> list[int]:
    m = rep.m
    deps = [rep.graph.edges[i].dep for i in rep.e_arr]
    arrs, heads = rep.arrs, rep.heads
    e_dep_node = rep.e_dep_node
    k_table = [0] * m
    for u in set(heads):
        walks_to_u = [0] * m
        lo = [len(lst) for lst in e_dep_node]
        hi = [len(lst) - 1 for lst in e_dep_node]
        window_sum = [0] * rep.graph.n
        # reverse arrival order: every extension edge is processed first,
        # and per node both window ends only ever move left
        for k in range(m - 1, -1, -1):
            v = heads[k]
            lst = e_dep_node[v]
            arr_k = arrs[k]
            if beta is not None:
                reach = arr_k + beta
                h = hi[v]
                while h >= 0 and deps[lst[h]] > reach:
                    if h >= lo[v]:
                        window_sum[v] -= walks_to_u[lst[h]]
                    h -= 1
                hi[v] = h
            left = lo[v]
            h = hi[v]
            while left > 0 and deps[lst[left - 1]] >= arr_k:
                left -= 1
                if left <= h:
                    window_sum[v] += walks_to_u[lst[left]]
            lo[v] = left
            walks_to_u[k] = (1 if v == u else 0) + window_sum[v]
            if v == u:
                k_table[k] = window_sum[v]
    return k_table


def small_ladder() -> str:
    """Six layers of two nodes, each node linked to both nodes of the
    next layer; back edges leave layer i when its forward edges do and
    land on a node walks have already passed."""
    lines = []
    for i in range(5):
        for a in (0, 1):
            for b in (0, 1):
                lines.append(f"{i}.{a} {i + 1}.{b} {2 * i} 1")
    for i, d, a, b in ((2, 1, 0, 1), (3, 2, 1, 0), (4, 1, 0, 0), (5, 3, 1, 1), (5, 1, 0, 1)):
        lines.append(f"{i}.{a} {i - d}.{b} {2 * i} 1")
    return "\n".join(lines) + "\n"


def test_matches_reference_on_random_graphs():
    rng = random.Random(71)
    nonzero = 0
    for _ in range(200):
        g = make_random_graph(rng, n_max=8, m_max=30, travel_max=3)
        rep = build_sorted_representation(g)
        for beta in BETAS:
            got = revisit_continuations(rep, beta)
            assert got == reference_revisit_continuations(rep, beta), (g.edges, beta)
            nonzero += sum(1 for x in got if x)
    # the corpus must exercise revisits, not only all-zero tables
    assert nonzero > 200


@pytest.mark.parametrize("beta", BETAS)
def test_matches_reference_on_loop_and_ladder(beta):
    for g in (g_loop(), parse_edge_list(small_ladder())):
        rep = build_sorted_representation(g)
        assert revisit_continuations(rep, beta) == reference_revisit_continuations(rep, beta)


def test_matches_reference_on_mid_size_graph():
    """Spans that cover many positions, so windows slide far and rebuild."""
    rep = build_sorted_representation(random_temporal_graph(40, 800, 100, 3))
    nonzero = 0
    for beta in BETAS:
        got = revisit_continuations(rep, beta)
        assert got == reference_revisit_continuations(rep, beta), beta
        nonzero += sum(1 for x in got if x)
    assert nonzero


def test_ladder_back_edges_give_revisits():
    rep = build_sorted_representation(parse_edge_list(small_ladder()))
    assert any(revisit_continuations(rep, 1))
