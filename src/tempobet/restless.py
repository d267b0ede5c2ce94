"""Single-source betweenness engine for bounded waiting (any criterion).

With a finite waiting bound an out-edge of v no longer extends every
earlier-arriving walk: each walk reaches only the out-edges departing
inside its waiting window.  The forward scan therefore keeps, per node,
a list of disjoint *interval quintuples* (lo, hi, cost, preds, eta)
over the node's by-departure edge list:

    positions lo..hi currently extend optimal incoming walks and so get
    ``cost``, the extension of those walks' cost; ``preds`` are the edges
    ending those walks, in arrival order, each covering a recorded window
    [succ_lo[p], succ_hi[p]] of positions; ``eta`` is the number of those
    walks not yet consumed by finalisation.

Because a newly scanned edge arrives no earlier than every previous
one, trimming the positions that depart before its arrival leaves the
whole remaining list inside the new edge's reach window; the insert is
then a comparison against a cost-sorted list: keep strictly cheaper
quintuples, merge into an equal-cost one, replace strictly costlier
ones, and take over the never-covered tail.  Costs along the list stay
non-decreasing, which keeps every edge's coverage a single interval.

A position is finalised (its optimal cost and walk count frozen) once
no future edge can reach it, consuming its quintuple's predecessors in
order.  The backward phase is the same successor recursion over int
dependency numerators as the non-restless engine, except an edge's
successor window is its recorded coverage interval and the per-node
running sum follows those windows right to left, dropping positions
that fall off the right end.

A scanned edge's cost and count are final, so forward folds them into
its head's optimal target value and count, and backward tests target
optimality inline: no intermediate pass runs.  The common tail-side
step, freezing just the scanned edge's own position, is done inline.

Every pass starts at the source's earliest-arriving out-edge, as every
reached edge arrives no earlier.  The edges skipped would only move
tail-side frontiers past positions that depart before every later
arrival, and the bisect that finds a window start skips those positions
wherever the frontier stands.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field

from .costs import Criterion
from .graph import SortedRepresentation
# unused intermediate_phase stays importable: perfbench's tracer patches it here by name
from .nonrestless import BackwardState, intermediate_phase, terminal_shares  # noqa: F401


@dataclass(slots=True)
class Quintuple:
    lo: int
    hi: int
    cost: object
    preds: deque
    eta: int


@dataclass
class RestlessScan:
    """Mutable forward-scan state for one source.

    Edge arrays are indexed by position in the by-arrival order;
    ``intervals[v]`` and ``frontier[v]`` describe node v's by-departure
    list: positions below the frontier are finalised, positions at or
    above it are covered by the interval quintuples (or by nothing, if
    no walk can reach them).  No position below ``start`` is reached.
    """

    rep: SortedRepresentation
    edge_cost: list
    edge_count: list[int]
    succ_lo: list[int]
    succ_hi: list[int]
    intervals: list[deque]
    frontier: list[int]
    best_target: list[object]  # per node, over its reached in-edges
    target_count: list[int]  # walks ending at best_target
    start: int = 0
    stats: dict[str, int] = field(default_factory=dict)

    def check_invariants(self) -> None:
        """Debug-only: quintuple bookkeeping matches its predecessor lists."""
        for v, ivs in enumerate(self.intervals):
            prev_hi = self.frontier[v] - 1
            for q in ivs:
                assert self.frontier[v] <= q.lo <= q.hi, (v, q)
                assert q.lo > prev_hi, "intervals must be disjoint and ordered"
                assert q.eta == sum(self.edge_count[p] for p in q.preds), (v, q)
                assert all(self.succ_hi[p] >= q.lo for p in q.preds), (v, q)
                prev_hi = q.hi


def new_scan(rep: SortedRepresentation) -> RestlessScan:
    m = rep.m
    return RestlessScan(
        rep=rep,
        edge_cost=[None] * m,
        edge_count=[0] * m,
        succ_lo=[0] * m,
        succ_hi=[-1] * m,
        intervals=[deque() for _ in range(rep.graph.n)],
        frontier=[0] * rep.graph.n,
        best_target=[None] * rep.graph.n,
        target_count=[0] * rep.graph.n,
        stats={"quintuples": 0, "finalised": 0, "pred_consumed": 0, "window_ops": 0},
    )


def finalise_up_to(scan: RestlessScan, v: int, j: int) -> None:
    """Freeze cost/count of positions frontier[v]..j of v's out list.

    Walks front quintuples, consuming predecessors whose coverage ends
    by j: positions up to that coverage end get the quintuple's cost and
    the current eta, after which the predecessor's own walks no longer
    count (eta shrinks).  Uncovered positions stay unreachable.  No-op
    when j is below the frontier.
    """
    if j < scan.frontier[v]:
        return
    lst = scan.rep.e_dep_node[v]
    ivs = scan.intervals[v]
    edge_cost, edge_count = scan.edge_cost, scan.edge_count
    succ_hi = scan.succ_hi
    finalised = consumed = 0
    while ivs:
        q = ivs[0]
        if q.lo > j:
            break
        preds = q.preds
        while preds and succ_hi[preds[0]] <= j:
            p = preds.popleft()
            consumed += 1
            rp = succ_hi[p]
            if rp >= q.lo:
                for pos in range(q.lo, rp + 1):
                    f = lst[pos]
                    edge_cost[f] = q.cost
                    edge_count[f] = q.eta
                finalised += rp + 1 - q.lo
                q.lo = rp + 1
            q.eta -= edge_count[p]
        if q.hi <= j:
            # every pred's coverage ends by q.hi <= j, so all were
            # consumed above and q.lo has moved past q.hi
            ivs.popleft()
        else:
            for pos in range(q.lo, j + 1):
                f = lst[pos]
                edge_cost[f] = q.cost
                edge_count[f] = q.eta
            finalised += j + 1 - q.lo
            q.lo = j + 1
            break
    scan.frontier[v] = j + 1
    scan.stats["finalised"] += finalised
    scan.stats["pred_consumed"] += consumed


def restless_forward(
    rep: SortedRepresentation,
    source: int,
    criterion: Criterion,
    beta: int | None,
    debug_invariants: bool = False,
) -> RestlessScan:
    """Per-edge optimal-walk cost and count, and per-node target optima."""
    n, m = rep.graph.n, rep.m
    scan = new_scan(rep)
    gamma, extend, tc = criterion.gamma, criterion.extend, criterion.tc
    edge_cost, edge_count = scan.edge_cost, scan.edge_count
    succ_lo, succ_hi = scan.succ_lo, scan.succ_hi
    intervals, frontier = scan.intervals, scan.frontier
    best_target, target_count = scan.best_target, scan.target_count
    finalised = consumed = 0

    e_dep_node, dep_times = rep.e_dep_node, rep.dep_times
    e_arr_dep = rep.e_arr_dep
    tails, heads, arrs = rep.tails, rep.heads, rep.arrs
    wait = math.inf if beta is None else beta
    scan.start = min(e_dep_node[source], default=m)

    # without a quintuple, finalising would only move the frontier
    for k in range(scan.start, m):
        u = tails[k]
        i = e_arr_dep[k]
        if i >= frontier[u]:
            if intervals[u]:
                q = intervals[u][0]
                if i == frontier[u] and q.lo == i:  # finalise_up_to(scan, u, i), inline
                    edge_cost[k], edge_count[k] = q.cost, q.eta
                    finalised += 1
                    preds = q.preds
                    while preds and succ_hi[preds[0]] == i:  # all reach q.lo
                        q.eta -= edge_count[preds.popleft()]
                        consumed += 1
                    q.lo = i + 1
                    if q.lo > q.hi:  # q.hi bounds every pred's coverage
                        intervals[u].popleft()
                else:
                    finalise_up_to(scan, u, i)
            frontier[u] = i + 1
        if u == source:
            # merge in the single-edge walk as one more candidate
            g = gamma(dep_times[u][i])
            if not edge_count[k] or g < edge_cost[k]:
                edge_cost[k] = g
                edge_count[k] = 1
            elif g == edge_cost[k]:
                edge_count[k] += 1
        cnt = edge_count[k]
        if not cnt:
            continue

        v = heads[k]
        times = dep_times[v]
        arr_k = arrs[k]
        val = tc(arr_k, edge_cost[k])  # k is final: fold it into v's target optimum
        cur = best_target[v]
        if cur is None or val < cur:
            best_target[v], target_count[v] = val, cnt
        elif val == cur:
            target_count[v] += cnt

        # Every position below frontier[v] departs before arr_k: a
        # tail-side step stops at an out-edge that departs before it
        # arrives, and a head-side step stops at an earlier arrival.
        ws = bisect_left(times, arr_k, frontier[v])
        if ws > frontier[v]:
            if intervals[v]:
                finalise_up_to(scan, v, ws - 1)
            frontier[v] = ws
        we = bisect_right(times, arr_k + wait, ws) - 1
        if ws > we:
            continue  # backward reads (0, -1) as an empty window

        # Post-trim the whole list lies inside [ws, we]; merge by the cost
        # k's successors get, which orders like k's own as extend is
        # strictly isotone.  ws is now v's frontier, so fresh coverage
        # reopens no position a tail-side step of v already finalised.
        ivs = intervals[v]
        ck = extend(edge_cost[k])
        new_lo = ivs[-1].hi + 1 if ivs else ws
        while ivs and ck < ivs[-1].cost:
            new_lo = ivs[-1].lo
            ivs.pop()
        if ivs and ivs[-1].cost == ck:
            q = ivs[-1]
            q.hi = we
            q.preds.append(k)
            q.eta += cnt
            succ_lo[k], succ_hi[k] = q.lo, we
        elif new_lo <= we:
            ivs.append(Quintuple(new_lo, we, ck, deque([k]), cnt))
            scan.stats["quintuples"] += 1
            succ_lo[k], succ_hi[k] = new_lo, we
        # else k is strictly worse than all live walks and has no
        # uncovered tail, so it keeps the empty window (0, -1)
        if debug_invariants:
            scan.check_invariants()

    for v in range(n):
        if intervals[v]:
            finalise_up_to(scan, v, len(e_dep_node[v]) - 1)
    scan.stats["finalised"] += finalised
    scan.stats["pred_consumed"] += consumed
    return scan


def restless_backward(
    rep: SortedRepresentation,
    source: int,
    criterion: Criterion,
    fwd: RestlessScan,
    back: BackwardState,
) -> list[int]:
    """Per-edge betweenness numerators over ``back.denom`` from the
    recorded successor windows; fills ``back.edge_target_count`` for the
    reached edges ending a walk at their head's ``back.best_target``.

    Window right ends never grow as the scan moves to earlier arrivals,
    so the per-node running sum mostly slides left; it is rebuilt when
    the cost a successor of the scanned edge must have, the extension of
    the edge's own cost, differs from the one the window's sum is for.
    """
    n, m = rep.graph.n, rep.m
    extend, tc = criterion.extend, criterion.tc
    heads, arrs = rep.heads, rep.arrs
    e_dep_node = rep.e_dep_node

    edge_cost, edge_count = fwd.edge_cost, fwd.edge_count
    succ_lo, succ_hi = fwd.succ_lo, fwd.succ_hi
    edge_target_count, best_target = back.edge_target_count, back.best_target
    window_ops = 0

    share = terminal_shares(back, source)
    dep = [0] * m  # per-walk dependency of each edge, times back.denom
    edge_bc = [0] * m
    back.node_num = node_num = [0] * n
    delta = [0] * n
    cur_lo = [0] * n
    cur_hi = [-1] * n
    cur_want: list = [None] * n  # a reached edge's cost is never None

    for k in range(m - 1, fwd.start - 1, -1):
        cnt = edge_count[k]
        if not cnt:
            continue
        v = heads[k]
        edge_target_count[k] = cnt if tc(arrs[k], edge_cost[k]) == best_target[v] else 0
        nk = share[v] if edge_target_count[k] else 0
        lo, hi = succ_lo[k], succ_hi[k]
        if lo <= hi:
            lst = e_dep_node[v]
            want = extend(edge_cost[k])
            d = delta[v]
            if cur_want[v] != want or hi < cur_lo[v]:
                d = 0
                for pos in range(lo, hi + 1):
                    f = lst[pos]
                    if edge_count[f] and edge_cost[f] == want:
                        d += dep[f]
                window_ops += hi - lo + 1
                cur_lo[v], cur_hi[v] = lo, hi
                cur_want[v] = want
            elif hi != cur_hi[v] or lo != cur_lo[v]:
                old_hi, old_lo = cur_hi[v], cur_lo[v]
                for pos in range(old_hi, hi, -1):
                    f = lst[pos]
                    if edge_count[f] and edge_cost[f] == want:
                        d -= dep[f]
                for pos in range(old_lo - 1, lo - 1, -1):
                    f = lst[pos]
                    if edge_count[f] and edge_cost[f] == want:
                        d += dep[f]
                if old_hi > hi:
                    window_ops += old_hi - hi
                    cur_hi[v] = hi
                if old_lo > lo:
                    window_ops += old_lo - lo
                    cur_lo[v] = lo
            delta[v] = d
            nk += d
        dep[k] = nk
        edge_bc[k] = x = cnt * nk
        node_num[v] += x

    fwd.stats["window_ops"] += window_ops
    return edge_bc


def single_source_edge_betweenness(
    rep: SortedRepresentation,
    source: int,
    criterion: Criterion,
    beta: int | None,
    debug_invariants: bool = False,
) -> tuple[list[int], BackwardState]:
    """All three phases for one source under any criterion and bound;
    returns (edge score numerators over ``back.denom``, counts)."""
    fwd = restless_forward(rep, source, criterion, beta, debug_invariants)
    back = BackwardState(fwd.best_target, fwd.target_count, [0] * rep.m, [], start=fwd.start)
    return restless_backward(rep, source, criterion, fwd, back), back
