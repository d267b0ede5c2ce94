"""Metamorphic checks on a graph of 10^4 edges, beyond the oracle's reach.

Each check compares two exact runs that must agree by construction, so
no brute-force ground truth is needed: the general engine against the
lean one where both apply, a time-shifted or time-scaled graph against
the original, a bound of at least the graph's time span against no
bound, fast mode against exact mode, and the engines' shortcuts
(target optima without the intermediate pass, node sums built in
backward) against the long way round, several also on small seeded
graphs.  The node scores of a disjoint union of two graphs, relabelled
or not, are its parts' scores, which checks the driver's merge of
per-source and per-block sums.  Two checks are invariants of restless
forward instead, which its backward relies on: its quintuple path
leaves no quintuple (its record equals the push path's) and no cost on
an unreached edge, and a head's successor windows, in reverse arrival
order, only move left while their extended cost stays the same.
Backward's node sums are checked on both forward paths.  Time reversal
relates two criteria on two graphs, on small graphs and at benchmark
scale; as runs take la and sla on the reversed graph, their scores are
also checked against la and sla aggregated on the graph itself
(conftest.direct_latest_departure), past the oracle's reach.  The
traced memory peak of a run, and of one block of sources, must not
grow with its number of sources.
"""
from __future__ import annotations

import random
import tracemalloc

import pytest

from tempobet import restless
from tempobet.costs import CRITERION_NAMES, get_criterion
from tempobet.driver import BLOCK, _block_sums, node_betweenness, single_source_edge_betweenness
from tempobet.graph import (
    TemporalEdge,
    TemporalGraph,
    build_sorted_representation,
    parse_edge_list,
    random_temporal_graph,
)
from tempobet.nonrestless import forward_phase, intermediate_phase
from tempobet.restless import restless_forward

from conftest import (
    direct_latest_departure,
    make_random_graph,
    perfbench_workloads,
    restless_paths,
)

SOURCES = [0, 7, 42]
RUNS = [("sh", None), ("sfo", None), ("sfa", 10), ("fa", 4)]


@pytest.fixture(scope="module")
def graph() -> TemporalGraph:
    return random_temporal_graph(400, 10_000, t_max=200, seed=2025)


def _small_graphs() -> list[TemporalGraph]:
    rng = random.Random(43)
    return [make_random_graph(rng) for _ in range(30)]


def _graphs_and_sources(graph):
    """The big graph with SOURCES, then small seeded graphs with all sources."""
    yield graph, SOURCES
    for g in _small_graphs():
        yield g, range(g.n)


@pytest.mark.parametrize("crit_name", CRITERION_NAMES)
def test_lean_target_optima_equal_intermediate_phase(graph, crit_name):
    """The lean engine folds its live edges' target values into each
    node's optimum as forward scans (for sh, la and sla they are forward's
    cost optima); its per-node target values and counts equal what the
    intermediate pass derives from the same forward."""
    crit = get_criterion(crit_name)
    for g, sources in _graphs_and_sources(graph):
        rep = build_sorted_representation(g)
        for s in sources:
            fwd = forward_phase(rep, s, crit)
            want = intermediate_phase(rep, fwd.edge_cost, fwd.edge_count, crit, fwd.start)
            _, back = single_source_edge_betweenness(rep, s, crit, None, "nonrestless")
            assert back.best_target == want.best_target
            assert back.target_count == want.target_count


@pytest.mark.parametrize("beta", [0, 3, None])
@pytest.mark.parametrize("crit_name", CRITERION_NAMES)
def test_restless_target_optima_equal_intermediate_phase(graph, crit_name, beta):
    """The restless engine keeps each node's target optimum and each
    reached edge's target value in forward; both equal what the
    intermediate pass derives from the same forward."""
    crit = get_criterion(crit_name)
    for g, sources in _graphs_and_sources(graph):
        rep = build_sorted_representation(g)
        for s in sources:
            fwd = restless_forward(rep, s, crit, beta)
            want = intermediate_phase(rep, fwd.edge_cost, fwd.edge_count, crit, fwd.start)
            _, back = single_source_edge_betweenness(rep, s, crit, beta, "restless")
            assert back.best_target == want.best_target
            assert back.target_count == want.target_count
            assert back.edge_tc == want.edge_tc


@pytest.mark.parametrize("beta", [0, 3, None])
@pytest.mark.parametrize("crit_name", CRITERION_NAMES)
def test_restless_forward_leaves_no_quintuple(graph, crit_name, beta, monkeypatch):
    """Every covered position is scanned after its covering edges, and
    its tail-side step freezes it, so no quintuple outlives the scan.  A
    position of one that did would keep count 0, so the check is that
    the quintuple path's record equals the push path's, which makes no
    quintuple, in every field but its windows' starts (succ_lo) and stats.
    Both list every reached position in ``live``, which backward visits."""
    crit = get_criterion(crit_name)
    made = 0
    for g, sources in _graphs_and_sources(graph):
        rep = build_sorted_representation(g)
        for s in sources:
            push, fwd = [restless_forward(rep, s, crit, beta) for _ in restless_paths(monkeypatch)]
            assert _results(fwd) == _results(push), s
            for run in (push, fwd):
                assert run.live == [k for k, c in enumerate(run.edge_count) if c], s
            # backward's window sums read a None cost as unreached
            assert all((c is None) == (not x) for c, x in zip(fwd.edge_cost, fwd.edge_count))
            made += fwd.stats["quintuples"]
    assert made


def _results(fwd) -> dict:
    """The fields of a restless record that both forward paths share."""
    return {k: v for k, v in vars(fwd).items() if k not in ("succ_lo", "stats")}


@pytest.mark.parametrize("beta", [0, 3, None])
@pytest.mark.parametrize("crit_name", CRITERION_NAMES)
def test_restless_windows_only_move_left_within_a_run(graph, crit_name, beta, quintuple_path):
    """Replays restless_backward's window choice per head, in reverse
    arrival order: a window that overlaps the head's previous one, for
    the same extended cost, moves neither end right, so the running sum
    slides by dropping its right slice and adding its left one.  The
    quintuple path's recorded windows are checked; the push path's are
    the run's table, whose ends only fall with earlier arrivals."""
    crit = get_criterion(crit_name)
    checked = 0
    for g, sources in _graphs_and_sources(graph):
        rep = build_sorted_representation(g)
        for s in sources:
            fwd = restless_forward(rep, s, crit, beta)
            last = {}
            for k in range(rep.m - 1, -1, -1):
                lo, hi = fwd.succ_lo[k], fwd.succ_hi[k]
                if not fwd.edge_count[k] or lo >= hi:
                    continue
                v = rep.heads[k]
                want = crit.extend(fwd.edge_cost[k])
                if v in last and last[v][0] == want and hi > last[v][1]:
                    assert lo <= last[v][1] and hi <= last[v][2], (s, k)
                    checked += 1
                last[v] = (want, lo, hi)
    assert checked


ENGINE_RUNS = [(c, b, "restless") for c in CRITERION_NAMES for b in (3, None)]
ENGINE_RUNS += [(c, None, "nonrestless") for c in CRITERION_NAMES]


@pytest.mark.parametrize("crit_name, beta, engine", ENGINE_RUNS)
def test_backward_node_sums_equal_edge_sums_by_head(graph, crit_name, beta, engine, monkeypatch):
    for _ in restless_paths(monkeypatch) if engine == "restless" else [None]:
        for g, sources in _graphs_and_sources(graph):
            rep = build_sorted_representation(g)
            for s in sources:
                edge_bc, back = single_source_edge_betweenness(rep, s, crit_name, beta, engine)
                want = [0] * g.n
                for v, x in zip(rep.heads, edge_bc):
                    want[v] += x
                assert back.node_num == want


@pytest.mark.parametrize("crit_name", CRITERION_NAMES)
def test_restless_at_infinity_equals_nonrestless(graph, crit_name):
    crit = get_criterion(crit_name)
    rep = build_sorted_representation(graph)
    for s in SOURCES:
        lean, lean_back = single_source_edge_betweenness(rep, s, crit, None, "nonrestless")
        general, general_back = single_source_edge_betweenness(rep, s, crit, None, "restless")
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


def _scaled(g: TemporalGraph, c: int) -> TemporalGraph:
    return TemporalGraph(g.n, [TemporalEdge(e.tail, e.head, c * e.dep, c * e.travel)
                               for e in g.edges])


@pytest.mark.parametrize("crit_name, beta", RUNS)
def test_time_scaling_leaves_node_scores_unchanged(graph, crit_name, beta):
    """Multiplying every departure, travel and the bound by 3 keeps every
    cost order and every waiting window, so no score moves."""
    base = node_betweenness(graph, crit_name, beta, sources=SOURCES).values
    assert any(base)
    beta3 = None if beta is None else 3 * beta
    assert node_betweenness(_scaled(graph, 3), crit_name, beta3, sources=SOURCES).values == base


@pytest.mark.parametrize("crit_name", CRITERION_NAMES)
def test_time_scaling_small_graphs(crit_name):
    for g in _small_graphs():
        for beta in (0, 2, None):
            beta3 = None if beta is None else 3 * beta
            assert (node_betweenness(_scaled(g, 3), crit_name, beta3).values
                    == node_betweenness(g, crit_name, beta).values)


def _span(g: TemporalGraph) -> int:
    return max(e.arr for e in g.edges) - min(e.dep for e in g.edges)


@pytest.mark.parametrize("crit_name", [c for c in CRITERION_NAMES if c != "la"])
def test_bound_at_time_span_equals_unbounded(graph, crit_name):
    """No walk waits longer than the graph's time span, so a bound of at
    least the span gives the unbounded scores (for sh and sfo this also
    compares the restless engine with the lean one)."""
    base = node_betweenness(graph, crit_name, None, sources=SOURCES).values
    assert any(base)
    span = _span(graph)
    assert node_betweenness(graph, crit_name, span, sources=SOURCES).values == base


@pytest.mark.parametrize("crit_name", CRITERION_NAMES)
def test_bound_at_time_span_small_graphs(crit_name):
    for g in _small_graphs():
        base = node_betweenness(g, crit_name, None).values
        for beta in (_span(g), _span(g) + 5):
            assert node_betweenness(g, crit_name, beta).values == base


def _union(g: TemporalGraph, h: TemporalGraph) -> TemporalGraph:
    """g and h side by side, h's node ids shifted past g's."""
    shifted = [TemporalEdge(e.tail + g.n, e.head + g.n, e.dep, e.travel) for e in h.edges]
    return TemporalGraph(g.n + h.n, g.edges + shifted)


def _relabelled(g: TemporalGraph, perm: list[int]) -> TemporalGraph:
    return TemporalGraph(g.n, [TemporalEdge(perm[e.tail], perm[e.head], e.dep, e.travel)
                               for e in g.edges])


def _check_union_and_relabelling(g, h, crit_name, beta, perm, workers=(1,)):
    """The union's scores are g's then h's, and relabelling the union's
    nodes by ``perm`` moves each score to its node's new id."""
    parts = [x for part in (g, h) for x in node_betweenness(part, crit_name, beta).values]
    union = _union(g, h)
    relabelled = _relabelled(union, perm)
    for w in workers:
        assert node_betweenness(union, crit_name, beta, workers=w).values == parts
        moved = node_betweenness(relabelled, crit_name, beta, workers=w).values
        assert [moved[p] for p in perm] == parts
    return parts


@pytest.mark.parametrize("crit_name", CRITERION_NAMES)
def test_disjoint_union_and_relabelling_small_graphs(crit_name):
    rng = random.Random(7)
    graphs = [make_random_graph(rng) for _ in range(20)]
    for g, h in zip(graphs[::2], graphs[1::2]):
        perm = rng.sample(range(g.n + h.n), g.n + h.n)
        for beta in (0, 2, None):
            _check_union_and_relabelling(g, h, crit_name, beta, perm)


@pytest.mark.parametrize("crit_name, beta", [("sh", None), ("la", 2)])
def test_disjoint_union_and_relabelling_across_blocks(crit_name, beta):
    """120 sources in 8 blocks, some holding sources of both parts, and
    after relabelling all of them: the merge of block sums over
    different denominators must still give each part its own scores."""
    g = random_temporal_graph(60, 1500, 100, 7)
    h = random_temporal_graph(60, 1500, 100, 8)
    perm = random.Random(3).sample(range(120), 120)
    parts = _check_union_and_relabelling(g, h, crit_name, beta, perm, workers=(1, 2))
    assert sum(1 for x in parts if x.denominator > 1) > 10


#: Each criterion's dual under time reversal: fo(G) = la(Gᴿ) and
#: sfo(G) = sla(Gᴿ), and sh, fa and sfa are their own duals.
TIME_DUAL = {"fo": "la", "la": "fo", "sfo": "sla", "sla": "sfo", "sh": "sh", "fa": "fa", "sfa": "sfa"}


def _reversed(g: TemporalGraph) -> TemporalGraph:
    """Edge (u, v, dep, travel) becomes (v, u, T - arr, travel), T above
    every arrival, labels kept.  A walk from s to t becomes a walk from t
    to s with the same waits, so every bound keeps its meaning; earliest
    arrival becomes latest departure, while duration and hops are kept."""
    t = max(e.arr for e in g.edges) + 1
    return TemporalGraph(g.n, [TemporalEdge(e.head, e.tail, t - e.arr, e.travel)
                               for e in g.edges], list(g.labels))


def test_time_reversal_duality_small_graphs():
    """Every criterion on G scores as its dual on Gᴿ, at every bound; the
    continuation pairs map one-to-one, so the window tables have equal
    totals and both runs take the same restless forward path.  la and
    sla, which runs take on the reversed graph, also equal their direct
    aggregation on G."""
    for seed in range(60):
        g = random_temporal_graph(6, 12, 6, seed, travel_max=2)
        r = _reversed(g)
        rep_g, rep_r = build_sorted_representation(g), build_sorted_representation(r)
        for beta in (None, 0, 1, 3):
            assert rep_g.window_total(beta) == rep_r.window_total(beta), (seed, beta)
            for crit_name, dual in TIME_DUAL.items():
                got = node_betweenness(g, crit_name, beta).values
                assert got == node_betweenness(r, dual, beta).values, (seed, crit_name, beta)
                if crit_name in ("la", "sla"):
                    assert got == direct_latest_departure(g, crit_name, beta), (seed, beta)


@pytest.mark.parametrize("graph_args, beta, crit_name, push", [
    ("ladder", 3, "la", True),  # 123 non-zero revisit entries
    ((100, 2000, 400, 1), None, "la", False),
    ((300, 6000, 1200, 1), 50, "fo", True),
], ids=["ladder-la-3", "uniform-la-inf", "uniform-fo-50"])
def test_time_reversal_duality_at_benchmark_scale(graph_args, beta, crit_name, push, monkeypatch):
    """The duality over all sources, on the benchmark's seed-1 ladder (read
    from perfbench, which is not changed) and on uniform graphs, through
    the named restless forward path.  la is run on the reversed graph, so
    the la side is checked against its direct aggregation on its own
    graph, with the revisit table, which is independent of the fo run."""
    if graph_args == "ladder":
        workloads = perfbench_workloads(monkeypatch)
        ladder = workloads.WORKLOADS["ladder-la-2w"]
        assert (ladder.criterion, ladder.beta) == (crit_name, beta)
        g = parse_edge_list(workloads.input_text(ladder, 1))
    else:
        g = random_temporal_graph(*graph_args)
    r = _reversed(g)
    rep = build_sorted_representation(g)
    assert restless.pushes(rep, beta) is push
    assert rep.window_total(beta) == build_sorted_representation(r).window_total(beta)
    la_graph = g if crit_name == "la" else r
    want = direct_latest_departure(la_graph, "la", beta)
    assert sum(1 for x in want if x) > g.n // 2
    assert node_betweenness(g, crit_name, beta).values == want
    assert node_betweenness(r, TIME_DUAL[crit_name], beta).values == want


def _traced_peak(g: TemporalGraph, crit_name, beta, sources, workers) -> int:
    tracemalloc.start()
    try:
        node_betweenness(g, crit_name, beta, sources=sources, workers=workers)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("crit_name, beta, workers", [
    ("sh", None, 1), ("la", 3, 1), ("fa", None, 1), ("la", 3, 2),
])
def test_traced_peak_does_not_grow_with_sources(crit_name, beta, workers):
    """A run keeps O(n + M) however many sources it sums: three times the
    sources raise its traced peak by less than a quarter.  sh runs the
    lean engine, la and fa the restless one.  With 2 workers only the
    parent is traced, and both runs take more than one block, so both
    go through the pool."""
    g = random_temporal_graph(100, 800, 400, 1)
    base = BLOCK
    if workers > 1:
        base = 2 * BLOCK
        # the first pool imports its modules, which are not the run's memory
        node_betweenness(g, crit_name, beta, sources=range(base), workers=workers)
    small = _traced_peak(g, crit_name, beta, range(base), workers)
    big = _traced_peak(g, crit_name, beta, range(3 * base), workers)
    assert big <= 1.25 * small, (small, big)


def test_block_peak_does_not_grow_with_its_sources(monkeypatch):
    """A block frees each source's record before the next source runs, so
    on the dense benchmark graph the traced peak of a block of 16 sources
    stays within a quarter of the peak of a block of one."""
    workloads = perfbench_workloads(monkeypatch)
    dense = workloads.WORKLOADS["dense-sh-exact"]
    rep = build_sorted_representation(parse_edge_list(workloads.input_text(dense, 1)))
    rep.windows(dense.beta)  # built once per run, before any block
    crit = get_criterion(dense.criterion)

    def peak(block: list[int]) -> int:
        tracemalloc.start()
        try:
            _block_sums(rep, crit, dense.beta, "auto", None, block)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, block = peak([0]), peak(list(range(BLOCK)))
    assert block <= 1.25 * one, (one, block)
