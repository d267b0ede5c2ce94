"""Single-source betweenness engine for unrestricted waiting (any criterion).

Two passes over the by-arrival edge order:

forward   -- for every edge e, the optimal cost edge_cost[e] over walks
             ending with e and their exact number edge_count[e], and per
             node its optimal target value and count.  An edge appended
             to a walk arrives strictly later than the walk, so the
             by-arrival order is a topological order of walk extension;
             as ``extend`` is strictly isotone, an out-edge finalised at
             its tail's running optimum costs that optimum's extension.
backward  -- edge betweenness via the successor recursion (Brandes-style
             dependency accumulation): an edge's per-walk dependency is
             the sum of its successors' plus a terminal share when the
             edge itself ends a target-optimal walk; its score is its
             walk count times that dependency.

Costs are the criterion's (``costs``); unreachable is None.  All
arithmetic is on exact ints: with L = ``back.denom``, the lcm of the
target counts of the nodes the source reaches, every per-walk
dependency times L is an int, and the engines return edge scores as
numerators over L.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .costs import Criterion, _folded, get_criterion
from .graph import SortedRepresentation


@dataclass
class ForwardState:
    """Per-node and per-edge results of the forward scan.

    Edge arrays are indexed by position in the by-arrival order.
    ``live`` lists, in scan order, the position of every edge that ended
    an optimal walk to its head at scan time; its successors start at its
    window start in the run's table (``rep.windows(None)``).  No other
    edge has successors, nor ends a target-optimal walk: a live edge to
    its head arrived no later at a lower cost, and ``tc`` rises with the
    cost and never falls with the arrival.  The target lists fold in live
    edges; for sh, la and sla they are the cost lists.  ``touched`` lists
    the nodes with a reached in-edge, in first-walk order.
    """

    ext_of: dict  # each live edge's cost -> its extension, for backward
    best_cost: list
    best_count: list[int]
    edge_cost: list
    edge_count: list[int]
    best_target: list
    target_count: list[int]
    edge_tc: list
    live: list[int]
    touched: list[int]
    start: int  # no position below it is reached


@dataclass
class BackwardState:
    """Target-side counts and the per-node sums of the edge scores.

    ``edge_tc`` and ``edge_count`` are the engine's own per-edge lists:
    an edge with a count ends that many walks to its head, and they are
    target-optimal exactly when its target value equals the head's
    ``best_target``.  ``touched`` lists, once each, the nodes with a
    target count.  ``node_num[v]`` (set by backward) sums v's in-edge
    scores times the int ``denom``.
    """

    best_target: list[object]
    target_count: list[int]
    edge_tc: list[object]
    edge_count: list[int]
    touched: list[int]
    node_num: list[int]
    denom: int = 1


def forward_phase(rep: SortedRepresentation, source: int,
                  criterion: Criterion = get_criterion("sh")) -> ForwardState:
    """Scan edges by arrival, counting optimal walks from ``source``.

    An out-edge of v is "finalised" the moment no later-scanned walk can
    still be extended by it; it then gets the extension of v's running
    optimum (best_cost, best_count, the extension cached in ``ext``),
    which is exactly the optimum over the walks it can extend.  Tail side:
    scanning e finalises every earlier-departing out-edge of its tail, e
    included.  Head side: when e ends an optimal walk to its head,
    out-edges departing before arr(e) (window starts from ``rep.windows``)
    are finalised and the node optimum absorbs e's walks.  Under every
    criterion but fo a walk back through the source loses to the one-edge
    walk, so the source's out-edges start finalised at ``gamma``, its
    frontier past them, and no successor's extension equals their cost.
    Under fo, where every cost is 0 and such walks tie, the source starts
    as the empty walk.
    """
    n = rep.graph.n
    m = rep.m
    extend, tc = criterion.extend, criterion.tc
    folded = tc is _folded
    best_cost: list = [None] * n
    best_count = [0] * n
    ext, ext_of = [None] * n, {}  # extend(best_cost[v]), and of every live cost
    frontier = [0] * n
    edge_cost: list = [None] * m
    edge_count = [0] * m
    best_target, target_count, edge_tc = ((best_cost, best_count, edge_cost) if folded
                                          else ([None] * n, [0] * n, [None] * m))
    live: list[int] = []
    touched: list[int] = []

    e_dep_node, e_arr_dep = rep.e_dep_node, rep.e_arr_dep
    tails, heads, arrs = rep.tails, rep.heads, rep.arrs
    win_lo = rep.windows(None)[0]
    if criterion.name == "fo":
        best_cost[source], best_count[source], ext[source] = 0, 1, extend(0)
    else:
        for f, t in zip(e_dep_node[source], rep.dep_times[source]):
            edge_cost[f], edge_count[f] = criterion.gamma(t), 1
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
                ck = ext[u]
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
            b = win_lo[k]
            if b > a:
                sv = best_count[v]
                if sv:
                    xv = ext[v]
                    for f in e_dep_node[v][a:b]:
                        edge_cost[f] = xv
                        edge_count[f] = sv
                frontier[v] = b
            live.append(k)
            if cv is None or ck < cv:
                if cv is None and folded:
                    touched.append(v)
                best_cost[v] = ck
                best_count[v] = cnt
                ext[v] = ext_of[ck] = extend(ck)
            else:
                best_count[v] += cnt
            if not folded:
                edge_tc[k] = val = tc(arrs[k], ck)
                cur = best_target[v]
                if cur is None or val < cur:
                    if cur is None:
                        touched.append(v)
                    best_target[v], target_count[v] = val, cnt
                elif val == cur:
                    target_count[v] += cnt

    return ForwardState(ext_of, best_cost, best_count, edge_cost, edge_count,
                        best_target, target_count, edge_tc, live, touched, start)


def intermediate_phase(
    rep: SortedRepresentation,
    edge_cost: list,
    edge_count: list[int],
    criterion: Criterion,
    start: int = 0,
) -> BackwardState:
    """Per-node optimal target values and optimal-ending-walk counts from
    any engine's forward costs.  No run calls it: it is the test reference
    for the target optima that both engines' forwards fold in as they
    scan.  Positions below ``start`` must be unreached."""
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
    for k in range(start, m):
        v = heads[k]
        if edge_tc[k] == best_target[v]:  # an unreached edge adds count 0
            target_count[v] += edge_count[k]
    touched = [v for v, c in enumerate(target_count) if c]

    return BackwardState(best_target, target_count, edge_tc, edge_count, touched, [])


def terminal_shares(back: BackwardState, source: int,
                    targets: frozenset[int] | None = None) -> list[int]:
    """Set ``back.denom`` to L, the lcm of the target counts of the nodes
    in ``targets`` (None: all) but ``source``, and return L // count per
    such node, else 0: for both engines, the dependency, times L, of an
    edge ending a target-optimal walk to it.  Only the nodes in
    ``back.touched`` have a target count, so only they are visited."""
    counts = back.target_count
    reached = [v for v in back.touched if v != source and (targets is None or v in targets)]
    denom = 1
    # latest-reached first: where walk counts grow along the scan, as on
    # a ladder, most earlier counts then divide the running lcm
    for v in reversed(reached):
        if denom % counts[v]:
            denom = math.lcm(denom, counts[v])
    back.denom = denom
    share = [0] * len(counts)
    for v in reached:
        share[v] = denom // counts[v]
    return share


def backward_phase(
    rep: SortedRepresentation,
    source: int,
    fwd: ForwardState,
    back: BackwardState,
    targets: frozenset[int] | None = None,
) -> list[int]:
    """Per-edge betweenness numerators for one source, by the successor
    recursion over per-walk dependencies times ``back.denom``.

    Scans forward's live edges in reverse arrival order keeping, per
    node, a sliding window sum over the node's by-departure list: the
    successors of the edge being scanned are exactly the window
    positions whose optimal cost is the extension of the edge's own
    (window start from the run's table, with a per-position cost filter).
    Costs of live edges never decrease as the scan moves to earlier
    arrivals, so windows only ever slide left and each position is
    summed once per run of equal costs, whose extension forward recorded.
    Other edges score 0.
    """
    n = rep.graph.n
    m = rep.m
    share = terminal_shares(back, source, targets)
    dep = [0] * m  # per-walk dependency of each edge, times back.denom
    edge_bc = [0] * m
    back.node_num = node_num = [0] * n
    delta = [0] * n
    summed_lo: list[int | None] = [None] * n  # None: the open end of the slice
    run_cost: list = [None] * n
    run_want: list = [None] * n  # extend(run_cost[v]): the run's successors' cost

    heads = rep.heads
    e_dep_node = rep.e_dep_node
    win_lo = rep.windows(None)[0]
    edge_cost, edge_count = fwd.edge_cost, fwd.edge_count
    edge_tc, best_target = back.edge_tc, back.best_target

    for k in reversed(fwd.live):
        v = heads[k]
        ls = win_lo[k]
        ck = edge_cost[k]
        nk = share[v] if edge_tc[k] == best_target[v] else 0
        if run_cost[v] != ck:
            run_cost[v] = ck
            run_want[v] = want = fwd.ext_of[ck]
            d = 0
        else:
            want = run_want[v]
            d = delta[v]
        for f in e_dep_node[v][ls:summed_lo[v]]:
            if edge_cost[f] == want:
                d += dep[f]
        delta[v] = d
        summed_lo[v] = ls
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
    targets: frozenset[int] | None = None,
) -> tuple[list[int], BackwardState]:
    """Forward then backward for one source, over walks to ``targets``;
    returns (edge score numerators over ``back.denom``, counts)."""
    fwd = forward_phase(rep, source, criterion)
    back = BackwardState(fwd.best_target, fwd.target_count, fwd.edge_tc, fwd.edge_count,
                         fwd.touched, [])
    return backward_phase(rep, source, fwd, back, targets), back
