from __future__ import annotations

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tempobet import restless
from tempobet.driver import revisit_continuations, single_source_edge_betweenness
from tempobet.graph import TemporalEdge, TemporalGraph, build_sorted_representation
from tempobet.oracle import g_loop, g_toy

#: ``restless.PUSH_MEAN_WINDOW`` values that force each forward path on a
#: graph with at least one edge.
RESTLESS_PATHS = {"push": sys.maxsize, "quintuple": -1}


@pytest.fixture
def toy() -> TemporalGraph:
    return g_toy()


@pytest.fixture
def loop() -> TemporalGraph:
    return g_loop()


@pytest.fixture
def quintuple_path(monkeypatch) -> None:
    """Force the restless forward's quintuple path."""
    monkeypatch.setattr(restless, "PUSH_MEAN_WINDOW", RESTLESS_PATHS["quintuple"])


def restless_paths(monkeypatch):
    """Force each restless forward path in turn and yield its name; the
    ``monkeypatch`` that sets the threshold restores it."""
    for name, limit in RESTLESS_PATHS.items():
        monkeypatch.setattr(restless, "PUSH_MEAN_WINDOW", limit)
        yield name


def perfbench_workloads(monkeypatch):
    """perfbench/workloads.py, loaded read-only (no bytecode written)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def make_random_graph(rng: random.Random, n_max: int = 7, m_max: int = 18,
                      dep_max: int = 12, travel_max: int = 3) -> TemporalGraph:
    """Small random multigraph in the oracle-checkable regime."""
    n = rng.randint(2, n_max)
    m = rng.randint(1, m_max)
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        edges.append(TemporalEdge(u, v, rng.randint(1, dep_max), rng.randint(1, travel_max)))
    return TemporalGraph(n, edges)


def edge_bc_by_original(rep, edge_bc, denom) -> dict[int, Fraction]:
    """Engine output (int numerators over ``denom``, by arrival position)
    as Fraction scores keyed by original edge index."""
    return {rep.e_arr[k]: Fraction(edge_bc[k], denom) for k in range(rep.m)}


def check_touched(state) -> None:
    """``state.touched`` names each node with a target count once."""
    assert sorted(state.touched) == [v for v, c in enumerate(state.target_count) if c]


def check_windows(rep, beta, scan) -> None:
    """Every reached edge's successor window lies inside its window in
    the run's table, and each of its positions comes later in the scan."""
    win_lo, win_hi = rep.windows(beta)
    for k, cnt in enumerate(scan.edge_count):
        lo, hi = scan.succ_lo[k], scan.succ_hi[k]
        if cnt and lo < hi:
            assert win_lo[k] <= lo and hi <= win_hi[k], (k, lo, hi)
            assert min(rep.e_dep_node[rep.heads[k]][lo:hi]) > k, (k, lo, hi)


def check_target_record(rep, source, back, orc) -> None:
    """Assert that one source's target record equals the oracle's: per
    edge not into the source, its target-optimal walk count, and per
    node but the source, its target count; and that ``back.touched``
    lists the nodes with a target count."""
    check_touched(back)
    for k in range(rep.m):
        v = rep.heads[k]
        if v != source:
            got = back.edge_count[k] if back.edge_tc[k] == back.best_target[v] else 0
            assert got == orc.sigma_star_se.get((source, rep.e_arr[k]), 0), (source, k)
    for v in range(rep.graph.n):
        if v != source:
            assert back.target_count[v] == orc.sigma_star_st.get((source, v), 0), (source, v)


def direct_latest_departure(graph: TemporalGraph, crit_name: str, beta,
                            sources=None) -> list[Fraction]:
    """la or sla node scores aggregated on G itself, a test reference for
    ``node_betweenness``, which runs them as fo and sfo on the reversed
    graph: per source, the engine's own la or sla run, its in-edge sums
    less each node-as-target share, summed as Fractions.  An la walk may
    revisit its target, so its share also counts the continuations that
    end back at the target (``driver.revisit_continuations``); an sla
    walk cannot, as its prefix has fewer edges."""
    rep = build_sorted_representation(graph)
    revisit = []
    if crit_name == "la":
        revisit = [(k, c) for k, c in enumerate(revisit_continuations(rep, beta)) if c]
    totals = [Fraction(0)] * graph.n
    for source in range(graph.n) if sources is None else sources:
        _, back = single_source_edge_betweenness(rep, source, crit_name, beta)
        denom, num = back.denom, back.node_num
        for u in back.touched:
            num[u] -= denom
        for k, cont in revisit:
            u = rep.heads[k]
            # an unreached edge and an unreached node both read None
            if u != source and back.edge_count[k] and back.edge_tc[k] == back.best_target[u]:
                num[u] -= back.edge_count[k] * cont * (denom // back.target_count[u])
        num[source] = 0
        for u in back.touched:
            if num[u]:
                totals[u] += Fraction(num[u], denom)
    return totals
