from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from tempobet.costs import CRITERION_NAMES, get_criterion, walk_cost
from tempobet.driver import node_betweenness
from tempobet.graph import (
    TemporalEdge,
    TemporalGraph,
    build_sorted_representation,
    random_temporal_graph,
)
from tempobet.nonrestless import (
    forward_phase,
    intermediate_phase,
    single_source_edge_betweenness,
)
from tempobet.oracle import enumerate_walks, oracle_betweenness

from conftest import check_target_record, edge_bc_by_original, make_random_graph


def _by_original(rep, arr):
    return {rep.e_arr[k]: arr[k] for k in range(rep.m)}


def test_forward_toy_costs_and_counts(toy):
    rep = build_sorted_representation(toy)
    fwd = forward_phase(rep, 0)
    assert _by_original(rep, fwd.edge_cost) == {0: 1, 1: 2, 2: 1, 3: 2, 4: 2}
    assert _by_original(rep, fwd.edge_count) == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
    assert fwd.best_cost[3] == 2 and fwd.best_count[3] == 2


def test_forward_isolated_source(toy):
    rep = build_sorted_representation(toy)
    fwd = forward_phase(rep, 3)  # d has no outgoing edges
    assert all(c is None for c in fwd.edge_cost)
    assert all(c == 0 for c in fwd.edge_count)
    assert all(fwd.best_count[v] == 0 for v in range(4) if v != 3)


def test_forward_loop_counts_walks_that_revisit(loop):
    rep = build_sorted_representation(loop)
    fwd = forward_phase(rep, 0)
    by = _by_original(rep, fwd.edge_cost)
    # the walk ending with the y->x edge revisits x after a->x->y
    assert by[2] == 3
    # with unrestricted waiting the two-hop a->z walk wins
    assert by[3] == 2
    assert _by_original(rep, fwd.edge_count)[3] == 1


def test_intermediate_toy_sfo_and_sh(toy):
    rep = build_sorted_representation(toy)
    fwd = forward_phase(rep, 0)
    sfo = intermediate_phase(rep, fwd.edge_cost, fwd.edge_count, get_criterion("sfo"))
    assert sfo.best_target[3] == (4, 2)
    assert sfo.target_count[3] == 1
    tc = _by_original(rep, sfo.edge_tc)
    assert tc[3] == sfo.best_target[3] != tc[4]  # only c->d attains it
    sh = intermediate_phase(rep, fwd.edge_cost, fwd.edge_count, get_criterion("sh"))
    assert sh.target_count[3] == fwd.best_count[3] == 2


def test_intermediate_unreachable_sentinels(toy):
    rep = build_sorted_representation(toy)
    fwd = forward_phase(rep, 3)
    back = intermediate_phase(rep, fwd.edge_cost, fwd.edge_count, get_criterion("sh"))
    assert all(t is None for t in back.best_target)
    assert all(c == 0 for c in back.target_count)


def test_backward_toy_edge_scores(toy):
    rep = build_sorted_representation(toy)
    bc, back = single_source_edge_betweenness(rep, 0, get_criterion("sh"))
    assert edge_bc_by_original(rep, bc, back.denom) == {
        0: F(3, 2),  # a->b: terminal to b, half of one a->d walk
        1: F(0),     # b->c is on no optimal walk from a
        2: F(3, 2),  # a->c: terminal to c, half of one a->d walk
        3: F(1, 2),
        4: F(1, 2),
    }


def test_backward_source_without_outgoing_edges(toy):
    rep = build_sorted_representation(toy)
    bc, _ = single_source_edge_betweenness(rep, 3, get_criterion("sh"))
    assert bc == [F(0)] * rep.m


def test_edge_off_optimal_walks_scores_zero(toy):
    rep = build_sorted_representation(toy)
    bc, back = single_source_edge_betweenness(rep, 0, get_criterion("sh"))
    assert edge_bc_by_original(rep, bc, back.denom)[1] == 0  # b->c from source a


def test_forward_state_matches_prefix_graphs():
    """After k edges of the arrival order, per-node cost/count equal the
    optimum over the graph induced by exactly those k edges."""
    sh = get_criterion("sh")
    rng = random.Random(31)
    for _ in range(10):
        g = make_random_graph(rng, n_max=5, m_max=12)
        rep = build_sorted_representation(g)
        s = rng.randrange(g.n)
        k = rng.randint(1, g.m)
        prefix = TemporalGraph(g.n, [g.edges[rep.e_arr[i]] for i in range(k)])
        prep = build_sorted_representation(prefix)
        fwd = forward_phase(prep, s)
        # oracle on the prefix graph
        best: dict[int, int] = {}
        count: dict[int, int] = {}
        for w in enumerate_walks(prefix, s, None):
            c = len(w)
            v = prefix.edges[w[-1]].head
            if v not in best or c < best[v]:
                best[v], count[v] = c, 1
            elif c == best[v]:
                count[v] += 1
        for v in range(g.n):
            if v in best:
                assert fwd.best_cost[v] == best[v]
                assert fwd.best_count[v] == count[v]
            else:
                assert fwd.best_count[v] == 0


@pytest.mark.parametrize("crit_name", CRITERION_NAMES)
def test_engine_equals_oracle_on_random_graphs(crit_name):
    crit = get_criterion(crit_name)
    rng = random.Random(37)
    for _ in range(40):
        g = make_random_graph(rng)
        rep = build_sorted_representation(g)
        orc = oracle_betweenness(g, crit, None)
        for s in range(g.n):
            bc, back = single_source_edge_betweenness(rep, s, crit)
            got = edge_bc_by_original(rep, bc, back.denom)
            for e in range(g.m):
                assert got[e] == orc.edge_bc.get((s, e), F(0))
            check_target_record(rep, s, back, orc)


def _return_graph() -> TemporalGraph:
    # 0->1->0 and 0->2->0 are back at the source (times 3 and 7) before
    # its later out-edges 0->2 and 0->3 depart (5 and 9); 1->0, 1->3, 2->0
    # and 2->3 depart exactly when an in-edge of their tail arrives (the
    # bisect_left boundary); node 3 is reached first by 0->1->3 (sfo) and
    # with fewest hops by 0->3 (sh)
    return TemporalGraph(
        4,
        [
            TemporalEdge(0, 1, 1, 1),
            TemporalEdge(1, 0, 2, 1),
            TemporalEdge(1, 3, 2, 2),
            TemporalEdge(0, 2, 5, 1),
            TemporalEdge(2, 0, 6, 1),
            TemporalEdge(2, 3, 6, 2),
            TemporalEdge(0, 3, 9, 1),
            TemporalEdge(3, 1, 10, 1),
        ],
    )


@pytest.mark.parametrize("crit_name", CRITERION_NAMES)
def test_forward_walks_returning_to_source_and_boundary_departures(crit_name):
    """Per edge, forward's cost and walk count equal the walks the
    oracle enumerates, and betweenness equals the oracle's."""
    g = _return_graph()
    rep = build_sorted_representation(g)
    crit = get_criterion(crit_name)
    orc = oracle_betweenness(g, crit, None)
    for s in range(g.n):
        costs: dict[int, list] = {}
        for w in enumerate_walks(g, s, None):
            costs.setdefault(w[-1], []).append(walk_cost([g.edges[e] for e in w], crit))
        fwd = forward_phase(rep, s, crit)
        for k in range(rep.m):
            walk_costs = costs.get(rep.e_arr[k], [])
            want_cost = min(walk_costs, default=None)
            assert fwd.edge_cost[k] == want_cost
            assert fwd.edge_count[k] == walk_costs.count(want_cost)
        bc, back = single_source_edge_betweenness(rep, s, crit)
        by_edge = edge_bc_by_original(rep, bc, back.denom)
        assert by_edge == {e: orc.edge_bc.get((s, e), F(0)) for e in range(g.m)}
    assert node_betweenness(g, crit_name).values == orc.node_bc


@pytest.mark.parametrize("crit_name", CRITERION_NAMES)
def test_backward_slices_cost_the_live_edges_extension(crit_name):
    """Replays backward_phase's slices: for each live edge k in reverse
    scan order, its head's out-edges from k's window start up to where
    that head's sum reached.  Forward finalised every one of them with
    k's extension, so backward sums them with no cost test.  A live edge
    ends at the source only under fo, where the source starts as the
    empty walk; elsewhere the source's out-edges cost ``gamma``."""
    crit = get_criterion(crit_name)
    graphs = [random_temporal_graph(30, 300, 60, seed, travel_max=2) for seed in range(4)]
    summed = 0
    for g in graphs + [_return_graph()]:
        rep = build_sorted_representation(g)
        win_lo = rep.windows(None)[0]
        for s in range(g.n):
            fwd = forward_phase(rep, s, crit)
            summed_lo = [None] * g.n
            for k in reversed(fwd.live):
                v = rep.heads[k]
                assert v != s or crit_name == "fo", (s, k)
                want = crit.extend(fwd.edge_cost[k])
                for f in rep.e_dep_node[v][win_lo[k]:summed_lo[v]]:
                    assert fwd.edge_cost[f] == want, (s, k, f)
                    summed += 1
                summed_lo[v] = win_lo[k]
    assert summed


def test_fo_source_out_edges_count_walks_back_to_the_source():
    """Under fo every walk costs 0, so a walk back to the source ties
    with the one-edge walk on each later out-edge: from node 0, 0->2
    (departing 5) also ends 0->1->0->2, and 0->3 (departing 9) ends four
    walks, through 0->1->0, 0->2->0, both, or neither."""
    g = _return_graph()
    rep = build_sorted_representation(g)
    fwd = forward_phase(rep, 0, get_criterion("fo"))
    counts = _by_original(rep, fwd.edge_count)
    assert [counts[e] for e in (0, 3, 6)] == [1, 2, 4]
    sh = forward_phase(rep, 0)
    assert [_by_original(rep, sh.edge_count)[e] for e in (0, 3, 6)] == [1, 1, 1]
