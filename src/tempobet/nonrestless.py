"""Single-source betweenness engine for unrestricted waiting (hop costs).

Handles the fewest-edges ("sh") and earliest-arrival-then-fewest-edges
("sfo") criteria when the waiting bound is infinite, in passes over the
by-arrival edge order; an sh source takes only the first and the last:

forward   -- for every edge e, the minimum hop count edge_cost[e] over
             walks ending with e and the exact number edge_count[e] of
             such walks.  Works because an edge appended to a walk always
             arrives strictly later than the walk it extends, so the
             by-arrival order is a topological order of walk extension.
intermediate (sfo only) -- per-node optimal target values and their
             counts; for sh, forward's optima.
backward  -- edge betweenness via the successor recursion (Brandes-style
             dependency accumulation): an edge's per-walk dependency is
             the sum of its successors' plus a terminal share when the
             edge itself ends a target-optimal walk; its score is its
             walk count times that dependency.

Costs here are plain ints (hop counts); unreachable is None.  All
arithmetic is on exact ints: with L = ``back.denom``, the lcm of the
target counts of the nodes the source reaches, every per-walk
dependency times L is an int, and the engines return edge scores as
numerators over L.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .costs import Criterion
from .graph import SortedRepresentation


@dataclass
class ForwardState:
    """Per-node and per-edge results of the forward scan.

    Edge arrays are indexed by position in the by-arrival order.
    ``live`` lists, in scan order, a pair (e, window start) for every
    edge e that ended an optimal walk to its head at scan time; the
    window start is the first position in the head's by-departure list
    that can extend such a walk.  No other edge has successors, nor (the
    head's optimum only falls) ends a target-optimal walk under sh or sfo.
    """

    best_cost: list[int | None]
    best_count: list[int]
    edge_cost: list[int | None]
    edge_count: list[int]
    live: list[tuple[int, int]]
    start: int  # no position below it is reached


@dataclass
class BackwardState:
    """Target-side counts and the per-node sums of the edge scores.

    ``node_num[v]`` (set by backward) sums v's in-edge scores times the
    int ``denom``.  Lean sh runs reuse forward's optimum, no edge_target_count;
    restless runs take forward's target optima, and restless backward fills
    edge_target_count.
    """

    best_target: list[object]
    target_count: list[int]
    edge_target_count: list[int]
    node_num: list[int]
    denom: int = 1
    start: int = 0  # no position below it is reached


def forward_phase(rep: SortedRepresentation, source: int) -> ForwardState:
    """Scan edges by arrival, counting minimum-hop walks from ``source``.

    An out-edge of v is "finalised" the moment no later-scanned walk can
    still be extended by it; at that moment the node's running optimum
    (best_cost, best_count) is exactly the optimum over the walks it can
    extend.  Tail side: scanning e finalises every earlier-departing
    out-edge of its tail, e included.  Head side: when e ends an optimal
    walk to its head, out-edges departing before arr(e) are finalised and
    the node optimum absorbs e's walks.  The source's out-edges start
    finalised as single-edge walks: no walk back through the source beats them.
    """
    n = rep.graph.n
    m = rep.m
    best_cost: list[int | None] = [None] * n
    best_count = [0] * n
    frontier = [0] * n
    edge_cost: list[int | None] = [None] * m
    edge_count = [0] * m
    live: list[tuple[int, int]] = []

    e_dep_node, dep_times, e_arr_dep = rep.e_dep_node, rep.dep_times, rep.e_arr_dep
    tails, heads, arrs = rep.tails, rep.heads, rep.arrs
    for f in e_dep_node[source]:
        edge_cost[f] = edge_count[f] = 1
    frontier[source] = len(e_dep_node[source])
    # edges arriving before the source's first out-edge are unreached, and
    # skipping their frontier moves is safe: the head-side step below
    # writes nothing while v has no walks
    start = min(e_dep_node[source], default=m)

    for k in range(start, m):
        u = tails[k]
        i = e_arr_dep[k]
        a = frontier[u]
        if i >= a:
            cnt = best_count[u]
            if cnt:
                ck = best_cost[u] + 1
                if i == a:  # only k itself: no earlier out-edge is still open
                    edge_cost[k], edge_count[k] = ck, cnt
                else:
                    for f in e_dep_node[u][a:i + 1]:
                        edge_cost[f] = ck
                        edge_count[f] = cnt
            frontier[u] = i + 1
        else:  # finalised earlier: a source out-edge or a head-side step
            ck, cnt = edge_cost[k], edge_count[k]
        if not cnt:
            continue
        v = heads[k]
        cv = best_cost[v]
        if cv is None or ck <= cv:
            a = frontier[v]
            b = bisect_left(dep_times[v], arrs[k], a)
            if b > a:
                sv = best_count[v]
                if sv:
                    cv1 = cv + 1
                    for f in e_dep_node[v][a:b]:
                        edge_cost[f] = cv1
                        edge_count[f] = sv
                frontier[v] = b
            live.append((k, b))
            if cv is None or ck < cv:
                best_cost[v] = ck
                best_count[v] = cnt
            else:
                best_count[v] += cnt

    return ForwardState(best_cost, best_count, edge_cost, edge_count, live, start)


def intermediate_phase(
    rep: SortedRepresentation,
    edge_cost: list,
    edge_count: list[int],
    criterion: Criterion,
    start: int = 0,
) -> BackwardState:
    """Per-node optimal target values and optimal-ending-walk counts.

    Generic over criteria: works for any cost domain the forward pass
    produced.  Positions below ``start`` must be unreached.
    """
    n, m = rep.graph.n, rep.m
    heads, arrs = rep.heads, rep.arrs
    tc = criterion.tc

    best_target: list[object] = [None] * n
    edge_tc: list[object] = [None] * m
    for k in range(start, m):
        if not edge_count[k]:
            continue
        val = tc(arrs[k], edge_cost[k])
        edge_tc[k] = val
        v = heads[k]
        cur = best_target[v]
        if cur is None or val < cur:
            best_target[v] = val

    target_count = [0] * n
    edge_target_count = [0] * m
    for k in range(start, m):
        if not edge_count[k]:
            continue
        v = heads[k]
        if edge_tc[k] == best_target[v]:
            edge_target_count[k] = edge_count[k]
            target_count[v] += edge_count[k]

    return BackwardState(best_target, target_count, edge_target_count, [], start=start)


def terminal_shares(back: BackwardState, source: int) -> list[int]:
    """Set ``back.denom`` to L, the lcm of the target counts of every
    node but ``source``, and return L // target_count[v] per node (0 for
    the source and unreached nodes): the dependency, times L, of an edge
    ending a target-optimal walk to v."""
    counts = back.target_count
    denom = math.lcm(*{c for v, c in enumerate(counts) if c and v != source})
    back.denom = denom
    return [denom // c if c and v != source else 0 for v, c in enumerate(counts)]


def backward_phase(
    rep: SortedRepresentation,
    source: int,
    fwd: ForwardState,
    back: BackwardState,
) -> list[int]:
    """Per-edge betweenness numerators for one source, by the successor
    recursion over per-walk dependencies times ``back.denom``.

    Scans forward's live edges in reverse arrival order keeping, per
    node, a sliding window sum over the node's by-departure list: the
    successors of the edge being scanned are exactly the window
    positions whose optimal hop count extends the edge's own (window
    start from ``fwd.live``, with a per-position hop filter).  Hop
    counts of live edges never decrease as the scan moves to earlier
    arrivals, so windows only ever slide left and each position is
    summed once per run of equal hop counts.  Other edges score 0.
    """
    n = rep.graph.n
    m = rep.m
    share = terminal_shares(back, source)
    dep = [0] * m  # per-walk dependency of each edge, times back.denom
    edge_bc = [0] * m
    back.node_num = node_num = [0] * n
    delta = [0] * n
    win_lo = [len(lst) for lst in rep.e_dep_node]
    run_cost: list[int | None] = [None] * n

    heads = rep.heads
    e_dep_node = rep.e_dep_node
    edge_cost, edge_count = fwd.edge_cost, fwd.edge_count
    # sh has no edge_target_count: a walk is target-optimal by its hops
    edge_target_count, best_target = back.edge_target_count, back.best_target

    for k, ls in reversed(fwd.live):
        v = heads[k]
        ck = edge_cost[k]
        optimal = edge_target_count[k] if edge_target_count else ck == best_target[v]
        nk = share[v] if optimal else 0
        ck1 = ck + 1
        if run_cost[v] != ck1:
            run_cost[v] = ck1
            delta[v] = 0
        d = delta[v]
        for f in e_dep_node[v][ls:win_lo[v]]:
            if edge_cost[f] == ck1:
                d += dep[f]
        delta[v] = d
        win_lo[v] = ls
        nk += d
        if nk:
            dep[k] = nk
            edge_bc[k] = x = edge_count[k] * nk
            node_num[v] += x

    return edge_bc


def single_source_edge_betweenness(
    rep: SortedRepresentation,
    source: int,
    criterion: Criterion,
) -> tuple[list[int], BackwardState]:
    """The passes for one source; returns (edge score numerators over
    ``back.denom``, counts)."""
    if criterion.name not in ("sh", "sfo"):
        raise ValueError(
            f"non-restless engine supports sh and sfo, not {criterion.name!r}"
        )
    fwd = forward_phase(rep, source)
    if criterion.name == "sh":
        back = BackwardState(fwd.best_cost, fwd.best_count, [], [], start=fwd.start)
    else:
        back = intermediate_phase(rep, fwd.edge_cost, fwd.edge_count, criterion, fwd.start)
    return backward_phase(rep, source, fwd, back), back
