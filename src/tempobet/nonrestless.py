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

Backward tests no cost.  A live edge k into v (``ForwardState.live``)
leaves v's optimum at k's cost until the next live edge into v, whose
head-side step first finalises v's out-edges departing before it
arrives.  So each out-edge that k's window adds to v's sum was finalised,
at k's scan or later, with k's extension.  The source's out-edges, set
to ``gamma`` first, are the exception, so an in-edge of the source is
live only under fo, where they tie.

Costs are the criterion's (``costs``); unreachable is None.  All
arithmetic is on exact ints: with L = ``rec.denom``, the lcm of the
target counts of the nodes the source reaches, every per-walk
dependency times L is an int, and the engines return edge scores as
numerators over L beside the run's record ``rec``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

from .costs import Criterion, _folded, get_criterion
from .graph import SortedRepresentation


@dataclass
class ForwardState:
    """One source's run: forward's results, then backward's sums.

    Edge arrays are indexed by position in the by-arrival order.
    ``live`` lists, in scan order, the position of every edge that ended
    an optimal walk to its head at scan time (into the source only under
    fo); its successors start at its window start in the run's table
    (``rep.windows(None)``).  No other edge has successors, nor ends a
    target-optimal walk to a node but the source: a live edge to its head
    arrived no later at a lower cost, and ``tc`` rises with the cost and
    never falls with the arrival.  The target lists fold in live edges;
    for sh, la and sla they are the cost lists.  ``touched`` lists the
    nodes with a reached in-edge, in first-walk order.  Backward sets
    ``node_num[v]``, v's in-edge scores summed times the int ``denom``.
    """

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
    node_num: list[int] = field(default_factory=list)
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
    frontier past them, and no successor's extension equals their cost;
    as backward tests no cost (see above), no in-edge of the source is
    live.  Under fo, where every cost is 0 and such walks tie, the source
    starts as the empty walk.
    """
    n = rep.graph.n
    m = rep.m
    extend, tc = criterion.extend, criterion.tc
    folded = tc is _folded
    best_cost: list = [None] * n
    best_count = [0] * n
    ext = [None] * n  # extend(best_cost[v])
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
    fo = criterion.name == "fo"
    if fo:
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
            if v != source or fo:
                live.append(k)
            if cv is None or ck < cv:
                if cv is None and folded:
                    touched.append(v)
                best_cost[v] = ck
                best_count[v] = cnt
                ext[v] = extend(ck)
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

    return ForwardState(best_cost, best_count, edge_cost, edge_count,
                        best_target, target_count, edge_tc, live, touched, start)


def intermediate_phase(
    rep: SortedRepresentation,
    edge_cost: list,
    edge_count: list[int],
    criterion: Criterion,
    start: int = 0,
) -> SimpleNamespace:
    """Per-node optimal target values and optimal-ending-walk counts from
    any engine's forward costs, under the names of the engines' own
    records (best_target, target_count, edge_tc, edge_count, touched).
    No run calls it: it is the test reference for the target optima that
    both engines' forwards fold in as they scan.  Positions below
    ``start`` must be unreached."""
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

    return SimpleNamespace(best_target=best_target, target_count=target_count,
                           edge_tc=edge_tc, edge_count=edge_count, touched=touched)


def terminal_shares(rec, source: int, targets: frozenset[int] | None = None) -> list[int]:
    """Set ``rec.denom`` (either engine's run record) to L, the lcm of the
    target counts of the nodes in ``targets`` (None: all) but ``source``,
    and return L // count per such node, else 0: the dependency, times L,
    of an edge ending a target-optimal walk to it.  Only the nodes in
    ``rec.touched`` have a target count, so only they are visited."""
    counts = rec.target_count
    reached = [v for v in rec.touched if v != source and (targets is None or v in targets)]
    denom = 1
    # latest-reached first: where walk counts grow along the scan, as on
    # a ladder, most earlier counts then divide the running lcm
    for v in reversed(reached):
        if denom % counts[v]:
            denom = math.lcm(denom, counts[v])
    rec.denom = denom
    share = [0] * len(counts)
    for v in reached:
        share[v] = denom // counts[v]
    return share


def backward_phase(
    rep: SortedRepresentation,
    source: int,
    fwd: ForwardState,
    targets: frozenset[int] | None = None,
) -> list[int]:
    """Per-edge betweenness numerators for one source, by the successor
    recursion over per-walk dependencies times ``fwd.denom``, which it
    sets with ``fwd.node_num``.

    Scans forward's live edges in reverse arrival order keeping, per
    node, a sliding window sum over the node's by-departure list: the
    successors of the edge being scanned are the window positions from
    its window start in the run's table.  Costs of live edges never
    decrease as the scan moves to earlier arrivals, so windows only ever
    slide left, and the sum restarts where the cost rises.  Each position
    is summed once, with no cost test: forward finalised every position
    a live edge adds with that edge's extension (see the module
    docstring).  Other edges score 0.
    """
    n = rep.graph.n
    m = rep.m
    share = terminal_shares(fwd, source, targets)
    dep = [0] * m  # per-walk dependency of each edge, times fwd.denom
    edge_bc = [0] * m
    fwd.node_num = node_num = [0] * n
    delta = [0] * n
    summed_lo: list[int | None] = [None] * n  # None: the open end of the slice
    run_cost: list = [None] * n

    heads = rep.heads
    e_dep_node = rep.e_dep_node
    win_lo = rep.windows(None)[0]
    edge_cost, edge_count = fwd.edge_cost, fwd.edge_count
    edge_tc, best_target = fwd.edge_tc, fwd.best_target

    for k in reversed(fwd.live):
        v = heads[k]
        ls = win_lo[k]
        ck = edge_cost[k]
        nk = share[v] if edge_tc[k] == best_target[v] else 0
        if run_cost[v] != ck:
            run_cost[v] = ck
            d = 0
        else:
            d = delta[v]
        for f in e_dep_node[v][ls:summed_lo[v]]:
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
) -> tuple[list[int], ForwardState]:
    """Forward then backward for one source, over walks to ``targets``;
    returns (edge score numerators over ``rec.denom``, the run's record rec)."""
    fwd = forward_phase(rep, source, criterion)
    return backward_phase(rep, source, fwd, targets), fwd
