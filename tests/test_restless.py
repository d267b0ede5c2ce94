from __future__ import annotations

import random
from collections import deque
from fractions import Fraction as F

import pytest

from tempobet import restless
from tempobet.costs import CRITERION_NAMES, get_criterion, walk_cost
from tempobet.driver import node_betweenness, revisit_continuations
from tempobet.graph import (
    TemporalEdge,
    TemporalGraph,
    build_sorted_representation,
    parse_edge_list,
    random_temporal_graph,
)
from tempobet.nonrestless import forward_phase as nonrestless_forward
from tempobet.nonrestless import single_source_edge_betweenness as nonrestless_run
from tempobet.nonrestless import intermediate_phase
from tempobet.oracle import enumerate_walks, g_loop, g_toy, oracle_betweenness
from tempobet.restless import (
    Quintuple,
    finalise_up_to,
    new_scan,
    restless_backward,
    restless_forward,
    single_source_edge_betweenness,
)

from conftest import (
    check_target_record,
    check_touched,
    check_windows,
    edge_bc_by_original,
    make_random_graph,
    perfbench_workloads,
    restless_paths,
)


def _by_original(rep, arr):
    return {rep.e_arr[k]: arr[k] for k in range(rep.m)}


def test_beta0_toy_single_optimal_walk(toy):
    rep = build_sorted_representation(toy)
    fwd = restless_forward(rep, 0, get_criterion("sh"), 0)
    # only a->c->d survives; a->b, b->d violates the waiting bound
    assert _by_original(rep, fwd.edge_cost)[3] == 2
    assert _by_original(rep, fwd.edge_count)[3] == 1


def test_waiting_window_inclusive_at_beta0():
    g = TemporalGraph(3, [TemporalEdge(0, 1, 1, 1), TemporalEdge(1, 2, 2, 1)])
    rep = build_sorted_representation(g)
    fwd = restless_forward(rep, 0, get_criterion("sh"), 0)
    assert _by_original(rep, fwd.edge_count)[1] == 1


def test_loop_beta1_forces_revisiting_walk(loop):
    rep = build_sorted_representation(loop)
    fwd = restless_forward(rep, 0, get_criterion("sh"), 1)
    # the only walk reaching z goes a->x->y->x->z
    assert _by_original(rep, fwd.edge_cost)[3] == 4
    assert _by_original(rep, fwd.edge_count)[3] == 1


def _staged_graph() -> TemporalGraph:
    # two incoming edges at node 0 (usable as predecessors) plus three
    # outgoing positions whose coverage the tests manipulate
    return TemporalGraph(
        3,
        [
            TemporalEdge(2, 0, 1, 1),
            TemporalEdge(2, 0, 2, 1),
            TemporalEdge(0, 1, 10, 1),
            TemporalEdge(0, 1, 11, 1),
            TemporalEdge(0, 1, 12, 1),
        ],
    )


def _staged_scan():
    """A quintuple-path scan whose window ends the test sets in its own
    list, never in the run's memoised table."""
    rep = build_sorted_representation(_staged_graph())
    scan = new_scan(rep, None, False)
    scan.succ_hi = [0] * rep.m
    return rep, scan


def test_finalise_consumes_whole_quintuple():
    rep, scan = _staged_scan()
    pred = 0  # the (2,0,1,1) edge, covering both of node 0's first two slots
    scan.edge_count[pred] = 3
    scan.succ_hi[pred] = 2
    scan.intervals[0].append(Quintuple(0, 1, 5, deque([pred]), 3))
    finalise_up_to(scan, 0, 1)
    assert not scan.intervals[0]
    first = rep.e_dep_node[0][0]
    assert scan.edge_cost[first] == 5 and scan.edge_count[first] == 3


def test_finalise_staged_predecessor_consumption():
    """Two predecessors whose coverage ends at different positions: the
    first sub-range keeps the full count, the rest drops the consumed
    predecessor's walks."""
    rep, scan = _staged_scan()
    pa, pb = 0, 1  # the two (2,0,...) edges acting as predecessors
    scan.edge_count[pa], scan.edge_count[pb] = 2, 3
    scan.succ_hi[pa], scan.succ_hi[pb] = 1, 2
    scan.intervals[0].append(Quintuple(0, 1, 6, deque([pa, pb]), 5))

    finalise_up_to(scan, 0, 0)
    pos0 = rep.e_dep_node[0][0]
    assert scan.edge_cost[pos0] == 6 and scan.edge_count[pos0] == 5
    q = scan.intervals[0][0]
    assert q.lo == 1 and q.eta == 3 and list(q.preds) == [pb]

    finalise_up_to(scan, 0, 1)
    pos1 = rep.e_dep_node[0][1]
    assert scan.edge_cost[pos1] == 6 and scan.edge_count[pos1] == 3
    assert not scan.intervals[0]


def test_finalise_across_gap_and_two_quintuples():
    """One call freezes a quintuple, skips an uncovered position and
    freezes the next quintuple at its own cost."""
    rep, scan = _staged_scan()
    pa, pb = 0, 1  # the two (2,0,...) edges acting as predecessors
    scan.edge_count[pa], scan.edge_count[pb] = 2, 3
    scan.succ_lo[pa], scan.succ_hi[pa] = 0, 1
    scan.succ_lo[pb], scan.succ_hi[pb] = 2, 3
    scan.intervals[0].extend(
        [Quintuple(0, 0, 5, deque([pa]), 2), Quintuple(2, 2, 6, deque([pb]), 3)]
    )
    finalise_up_to(scan, 0, 2)
    pos0, pos1, pos2 = rep.e_dep_node[0]
    assert (scan.edge_cost[pos0], scan.edge_count[pos0]) == (5, 2)
    assert scan.edge_count[pos1] == 0
    assert (scan.edge_cost[pos2], scan.edge_count[pos2]) == (6, 3)
    assert not any(scan.intervals)
    assert scan.stats["finalised"] == 2


def test_staged_consumption_full_run_matches_oracle(quintuple_path):
    # two equal-cost incoming walks whose reach windows end at different
    # out-edges of the middle node
    g = TemporalGraph(
        3,
        [
            TemporalEdge(0, 1, 8, 1),   # arr 9, reaches deps 9..10
            TemporalEdge(0, 1, 9, 1),   # arr 10, reaches deps 10..11
            TemporalEdge(1, 2, 10, 1),
            TemporalEdge(1, 2, 11, 1),
            TemporalEdge(1, 2, 12, 1),  # beyond both windows
        ],
    )
    rep = build_sorted_representation(g)
    crit = get_criterion("sh")
    fwd = restless_forward(rep, 0, crit, 1, debug_invariants=True)
    by_cost = _by_original(rep, fwd.edge_cost)
    by_count = _by_original(rep, fwd.edge_count)
    assert by_count[2] == 2 and by_cost[2] == 2
    assert by_count[3] == 1 and by_cost[3] == 2
    assert by_count[4] == 0 and by_cost[4] is None
    orc = oracle_betweenness(g, crit, 1)
    bc, back = single_source_edge_betweenness(rep, 0, crit, 1)
    got = edge_bc_by_original(rep, bc, back.denom)
    for e in range(g.m):
        assert got[e] == orc.edge_bc.get((0, e), F(0))


def _overtaking_graph() -> TemporalGraph:
    # node 1's out-edge 1->2 departs first (3) but arrives last (9), so it
    # is still open when 1->3 (arr 5) and 1->4 (arr 6) are scanned and a
    # single tail-side step finalises it together with one of them
    return TemporalGraph(
        5,
        [
            TemporalEdge(0, 1, 1, 1),
            TemporalEdge(0, 3, 2, 4),
            TemporalEdge(1, 2, 3, 6),
            TemporalEdge(1, 3, 4, 1),
            TemporalEdge(1, 4, 5, 1),
            TemporalEdge(3, 2, 6, 1),
            TemporalEdge(3, 4, 7, 2),
            TemporalEdge(2, 4, 10, 1),
        ],
    )


def _overtaking_graphs() -> list[TemporalGraph]:
    """The graph above plus 30 seeded ones, each with a node whose
    out-edge departs before a sibling but arrives after it."""
    rng = random.Random(47)
    graphs = [_overtaking_graph()]
    while len(graphs) < 31:
        g = make_random_graph(rng, travel_max=8)
        if any(
            a.tail == b.tail and a.dep < b.dep and a.arr > b.arr
            for a in g.edges
            for b in g.edges
        ):
            graphs.append(g)
    return graphs


@pytest.mark.parametrize(
    "engine, crit_name, beta",
    [("nonrestless", c, None) for c in CRITERION_NAMES]
    + [("restless", c, b) for c in ("sh", "sfo") for b in (None, 0, 1, 3)],
)
def test_tail_side_step_finalising_several_positions(engine, crit_name, beta, monkeypatch):
    """Scanning an out-edge that overtakes an earlier-departing sibling
    finalises both in one tail-side step, off the nonrestless
    one-position fast path: per-edge optimal costs and walk counts (on
    both restless forward paths), and node scores, equal the oracle's."""
    crit = get_criterion(crit_name)
    for g in _overtaking_graphs():
        rep = build_sorted_representation(g)
        for s in range(g.n):
            costs: dict[int, list] = {}
            for w in enumerate_walks(g, s, beta):
                costs.setdefault(w[-1], []).append(walk_cost([g.edges[e] for e in w], crit))
            best = {e: min(cs) for e, cs in costs.items()}
            if engine == "nonrestless":
                fwds = [nonrestless_forward(rep, s, crit)]
            else:  # node scores below then run the quintuple path, which is last
                fwds = [restless_forward(rep, s, crit, beta, debug_invariants=True)
                        for _ in restless_paths(monkeypatch)]
            for fwd in fwds:
                assert _by_original(rep, fwd.edge_cost) == {e: best.get(e) for e in range(g.m)}
                assert _by_original(rep, fwd.edge_count) == {
                    e: costs[e].count(best[e]) if e in costs else 0 for e in range(g.m)
                }
        orc = oracle_betweenness(g, crit, beta)
        assert node_betweenness(g, crit, beta, engine=engine).values == orc.node_bc


def test_unreachable_edges_score_zero(loop):
    rep = build_sorted_representation(loop)
    bc, _ = single_source_edge_betweenness(rep, 3, get_criterion("fa"), 2)
    assert bc == [F(0)] * rep.m


@pytest.mark.parametrize("crit_name", CRITERION_NAMES)
def test_beta_infinity_matches_nonrestless(crit_name):
    crit = get_criterion(crit_name)
    rng = random.Random(41)
    for _ in range(30):
        g = make_random_graph(rng)
        rep = build_sorted_representation(g)
        for s in range(g.n):
            b_fast, _ = nonrestless_run(rep, s, crit)
            b_gen, _ = single_source_edge_betweenness(rep, s, crit, None)
            assert b_fast == b_gen


@pytest.mark.parametrize("crit_name", CRITERION_NAMES)
def test_engine_equals_oracle_all_criteria(crit_name, monkeypatch):
    crit = get_criterion(crit_name)
    rng = random.Random(43)
    for _ in range(12):
        g = make_random_graph(rng, n_max=6, m_max=14)
        for beta in (0, 2, None):
            orc = oracle_betweenness(g, crit, beta)
            rep = build_sorted_representation(g)
            for path in restless_paths(monkeypatch):
                for s in range(g.n):
                    bc, back = single_source_edge_betweenness(
                        rep, s, crit, beta, debug_invariants=True
                    )
                    check_windows(rep, beta, restless_forward(rep, s, crit, beta))
                    got = edge_bc_by_original(rep, bc, back.denom)
                    for e in range(g.m):
                        assert got[e] == orc.edge_bc.get((s, e), F(0)), (path, s, e)
                    check_target_record(rep, s, back, orc)


@pytest.mark.parametrize("crit_name", CRITERION_NAMES)
def test_touched_of_intermediate_phase(crit_name):
    """The ``touched`` that intermediate_phase builds from its target
    counts over restless forward's costs names each reached node once
    (check_target_record covers the engines' own lists)."""
    crit = get_criterion(crit_name)
    rng = random.Random(43)
    for _ in range(12):
        g = make_random_graph(rng, n_max=6, m_max=14)
        rep = build_sorted_representation(g)
        for beta in (0, 2, None):
            for s in range(g.n):
                fwd = restless_forward(rep, s, crit, beta)
                check_touched(intermediate_phase(rep, fwd.edge_cost, fwd.edge_count, crit))


def test_operation_counters_stay_linear(quintuple_path):
    """Quintuple bookkeeping touches each edge/position O(1) times."""
    rng = random.Random(47)
    for _ in range(20):
        g = make_random_graph(rng, n_max=7, m_max=18)
        rep = build_sorted_representation(g)
        for beta in (0, 1, 5, None):
            for crit_name in ("sh", "fa", "fo"):
                crit = get_criterion(crit_name)
                for s in range(g.n):
                    fwd = restless_forward(rep, s, crit, beta)
                    assert fwd.stats["quintuples"] <= g.m
                    assert fwd.stats["finalised"] <= g.m
                    restless_backward(rep, s, crit, fwd)
                    assert fwd.stats["window_ops"] <= 4 * g.m + 4


@pytest.mark.parametrize(
    "graph, crit_name, beta, want",
    [
        (g_toy(), "sh", 0, (4, 3, 4)),
        (g_toy(), "fa", 2, (4, 4, 5)),
        (g_loop(), "sh", 1, (6, 6, 6)),
        (g_loop(), "la", 2, (5, 6, 6)),
        (random_temporal_graph(8, 40, 15, seed=7), "sfa", 3, (51, 82, 91)),
        (random_temporal_graph(8, 40, 15, seed=7), "sh", None, (59, 130, 136)),
    ],
    ids=["toy-sh-0", "toy-fa-2", "loop-sh-1", "loop-la-2", "random-sfa-3", "random-sh-inf"],
)
def test_operation_counters_exact(graph, crit_name, beta, want, quintuple_path):
    """quintuples, finalised and window_ops summed over all sources are
    pinned exactly on the quintuple path: bulk counting must count the
    same."""
    keys = ("quintuples", "finalised", "window_ops")
    crit = get_criterion(crit_name)
    rep = build_sorted_representation(graph)
    got = [0] * len(keys)
    for s in range(graph.n):
        fwd = restless_forward(rep, s, crit, beta)
        restless_backward(rep, s, crit, fwd)
        got = [g + fwd.stats[k] for g, k in zip(got, keys)]
    assert tuple(got) == want


def test_quintuple_path_counters_on_benchmark_ladder(monkeypatch, quintuple_path):
    """The benchmark's seed-1 ladder takes the push path; forced onto the
    quintuple path, la at its β over all sources does pinned work and
    reaches the edges the traced benchmark run reports."""
    workloads = perfbench_workloads(monkeypatch)
    ladder = workloads.WORKLOADS["ladder-la-2w"]
    rep = build_sorted_representation(parse_edge_list(workloads.input_text(ladder, 1)))
    crit = get_criterion(ladder.criterion)
    keys = ("quintuples", "finalised", "window_ops")
    got = [0] * len(keys)
    reached = 0
    for s in range(rep.graph.n):
        fwd = restless_forward(rep, s, crit, ladder.beta)
        restless_backward(rep, s, crit, fwd)
        got = [g + fwd.stats[k] for g, k in zip(got, keys)]
        reached += sum(1 for c in fwd.edge_count if c)
    assert rep.graph.n == 502
    assert tuple(got) == (124_500, 278_996, 278_996)
    assert reached == 280_120


def _ladder(layers: int) -> TemporalGraph:
    # both nodes of layer i lead to both of layer i + 1, departing at 2i
    edges = [
        TemporalEdge(2 * i + a, 2 * i + 2 + b, 2 * i, 1)
        for i in range(layers - 1) for a in (0, 1) for b in (0, 1)
    ]
    return TemporalGraph(2 * layers, edges)


def test_forward_freezes_own_position_inline(monkeypatch, quintuple_path):
    """On a regular ladder every tail-side step freezes just the scanned
    edge's own position, which forward does without ``finalise_up_to``.
    Outputs stay right without that step, so only its call count shows it."""
    g = _ladder(30)
    rep = build_sorted_representation(g)
    calls = 0
    original = restless.finalise_up_to

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(restless, "finalise_up_to", counting)
    finalised = 0
    for s in range(g.n):
        finalised += restless_forward(rep, s, get_criterion("la"), 3).stats["finalised"]
    assert finalised > 0
    assert calls < 0.05 * finalised


def test_push_path_selected_by_mean_window():
    """The ladder's windows hold two positions at β=3, so forward pushes;
    a dense graph's hold about 20 at β=∞, so it keeps the quintuples."""
    ladder = build_sorted_representation(_ladder(30))
    assert ladder.window_total(3) == 2 * (ladder.m - 4)  # the last layer has no out-edge
    assert restless.pushes(ladder, 3)
    dense = build_sorted_representation(random_temporal_graph(150, 6000, 1500, 1))
    assert not restless.pushes(dense, None)
    fwd = restless_forward(dense, 0, get_criterion("la"), None)
    assert fwd.stats["quintuples"] > 0


@pytest.mark.parametrize("crit_name", CRITERION_NAMES)
def test_push_and_quintuple_paths_agree(crit_name, monkeypatch):
    """Both forward paths, and the backward over each, give the same
    costs, counts, target record, scores and denominator."""
    crit = get_criterion(crit_name)
    rep = build_sorted_representation(random_temporal_graph(40, 800, 100, 3))
    for beta in (0, 1, 3, None):
        for s in range(rep.graph.n):
            runs = []
            for _ in restless_paths(monkeypatch):
                fwd = restless_forward(rep, s, crit, beta)
                check_windows(rep, beta, fwd)
                bc, back = single_source_edge_betweenness(rep, s, crit, beta)
                runs.append((fwd.edge_cost, fwd.edge_count, fwd.best_target, fwd.target_count,
                             fwd.edge_tc, fwd.touched, fwd.start, bc, back.node_num, back.denom))
            assert runs[0] == runs[1], (beta, s)


def _late_source_graph() -> TemporalGraph:
    # node 0's only out-edge arrives at 11, after a block of edges among
    # 1, 2 and 3; nodes 1 and 2 have out-edges departing on both sides
    # of 11, and 0->1->2->3->1 revisits node 1 (an la revisit)
    return TemporalGraph(
        5,
        [
            TemporalEdge(1, 2, 1, 1),
            TemporalEdge(2, 3, 2, 1),
            TemporalEdge(3, 1, 3, 1),
            TemporalEdge(1, 3, 5, 1),
            TemporalEdge(2, 4, 6, 1),
            TemporalEdge(0, 1, 10, 1),
            TemporalEdge(1, 2, 11, 1),
            TemporalEdge(2, 3, 12, 1),
            TemporalEdge(1, 2, 12, 2),
            TemporalEdge(3, 1, 13, 1),
            TemporalEdge(2, 3, 14, 1),
            TemporalEdge(1, 4, 15, 1),
            TemporalEdge(3, 4, 15, 1),
        ],
    )


@pytest.mark.parametrize("crit_name", CRITERION_NAMES)
def test_scan_starts_at_first_reachable_edge(crit_name, monkeypatch):
    g = _late_source_graph()
    rep = build_sorted_representation(g)
    assert any(revisit_continuations(rep, 0))
    crit = get_criterion(crit_name)
    for beta in (0, 1, 3, None):
        orc = oracle_betweenness(g, crit, beta)
        for _ in restless_paths(monkeypatch):
            for s in range(g.n):
                fwd = restless_forward(rep, s, crit, beta, debug_invariants=True)
                assert fwd.start == min(rep.e_dep_node[s], default=rep.m)
                assert not any(fwd.edge_count[:fwd.start])
                runs = [single_source_edge_betweenness(rep, s, crit, beta)]
                if beta is None:
                    assert nonrestless_forward(rep, s, crit).start == fwd.start
                    runs.append(nonrestless_run(rep, s, crit))
                for bc, back in runs:
                    got = edge_bc_by_original(rep, bc, back.denom)
                    for e in range(g.m):
                        assert got[e] == orc.edge_bc.get((s, e), F(0))
            assert restless_forward(rep, 0, crit, beta).start == 5
            assert node_betweenness(g, crit, beta).values == orc.node_bc
