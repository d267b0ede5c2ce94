"""Single-source betweenness engine for bounded waiting (any criterion).

With a finite waiting bound an out-edge of v no longer extends every
earlier-arriving walk: each walk reaches only the out-edges departing
inside its waiting window.  The forward scan therefore keeps, per node,
a list of disjoint *interval quintuples* (lo, hi, cost, preds, eta)
over the node's by-departure edge list:

    positions lo..hi currently extend optimal incoming walks and so get
    ``cost``, the extension of those walks' cost; ``preds`` are the edges
    ending those walks, in arrival order, each covering positions
    succ_lo[p]..succ_hi[p] - 1, up to its window's end; ``eta`` is the
    number of those walks not yet consumed by finalisation.

Because a newly scanned edge arrives no earlier than every previous
one, trimming the positions that depart before its arrival leaves the
whole remaining list inside the new edge's reach window; the insert is
then a comparison against a cost-sorted list: keep strictly cheaper
quintuples, merge into an equal-cost one, replace strictly costlier
ones, and take over the never-covered tail.  Costs along the list stay
non-decreasing, which keeps every edge's coverage a single interval.

A position is finalised (its optimal cost and walk count frozen) once
no future edge can reach it, consuming its quintuple's predecessors in
order; freezing just the scanned edge's own position, the common
tail-side step, is done inline.  Forward ends with no quintuple left: a
quintuple covers only positions departing no earlier than its covering
edges arrive, and as travel is positive each such position's edge
arrives later, so it is scanned afterwards and its tail-side step
freezes it.  The quintuples and per-node frontiers are thus forward's
locals, and the run's record (``nonrestless.SourceRun``, both engines'
one record) keeps only results.

A scanned edge's cost and count are final, so forward folds its target
value into its head's optimal target value and count: no intermediate
pass runs.  Backward is the non-restless engine's successor recursion
over int dependency numerators, except that an edge's successor window
starts where its coverage started: the per-node running sum follows
those windows right to left, by slices of the head's by-departure list.

Forward starts at the source's earliest-arriving out-edge, as every
reached edge arrives no earlier.  The edges skipped would only move
tail-side frontiers past positions that depart before every later
arrival, which a window start from the run's table (``rep.windows``)
skips anyway, with no clamp.  Forward lists the positions it reaches, in
scan order (``live``), and backward visits just those, in reverse.
Where ``extend`` or ``tc`` returns the cost (``_same``, ``_folded``),
both passes read the cost instead of calling it.

Short windows skip the quintuples.  When the run's continuation windows
hold at most ``PUSH_MEAN_WINDOW`` positions on average (decided once per
run from ``rep.window_total``), forward scans by arrival and pushes each
reached edge's walks straight into every position of its window: a
strictly cheaper cost replaces, an equal one adds.  That is exact, as
every window position departs no earlier than the edge arrives and
travel is positive, so it is scanned later, and its cost and count are
complete when the scan reaches it.  Per source this costs
O(M + sum of windows), at most O(9M) under the threshold, so a run stays
O(nM); long windows keep the quintuples, which bound it whatever the
windows hold.  Backward then takes the run's table as its successor
windows and filters their positions by cost as it does recorded ones.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .costs import Criterion, _folded, _same
from .graph import SortedRepresentation
# unused intermediate_phase stays importable: perfbench's tracer patches it here by name
from .nonrestless import SourceRun, intermediate_phase, terminal_shares  # noqa: F401

#: Forward pushes walks into windows, with no quintuple, when the run's
#: windows hold at most this many positions per edge on average: the
#: largest mean window at which pushing was faster on both graph shapes
#: measured (ROADMAP, dead ends).
PUSH_MEAN_WINDOW = 8


@dataclass(slots=True)
class Quintuple:
    lo: int
    hi: int
    cost: object
    preds: deque
    eta: int


def check_invariants(intervals: list[deque], frontier: list[int],
                     edge_count: list[int], succ_hi: list[int]) -> None:
    """Debug-only: the quintuple path's bookkeeping matches its preds."""
    for v, ivs in enumerate(intervals):
        prev_hi = frontier[v] - 1
        for q in ivs:
            assert frontier[v] <= q.lo <= q.hi, (v, q)
            assert q.lo > prev_hi, "intervals must be disjoint and ordered"
            assert q.eta == sum(edge_count[p] for p in q.preds), (v, q)
            assert all(succ_hi[p] > q.lo for p in q.preds), (v, q)
            prev_hi = q.hi


def finalise_up_to(scan: SourceRun, lst: list[int], ivs: deque, j: int) -> None:
    """Freeze cost/count of the positions up to j of a node's by-departure
    list ``lst`` that its quintuples ``ivs`` cover; the caller, with j at
    or past the node's frontier, then moves the frontier.

    One position at a time, front quintuple first: position q.lo gets
    q's cost and current eta, then the predecessors whose coverage ends
    there are consumed (their walks leave eta) and q.lo moves on; q goes
    once q.lo passes q.hi, which bounds every predecessor's coverage.
    Uncovered positions stay unreachable.
    """
    edge_cost, edge_count, succ_hi = scan.edge_cost, scan.edge_count, scan.succ_hi
    finalised = 0
    while ivs and ivs[0].lo <= j:
        q = ivs[0]
        i = q.lo
        f = lst[i]
        edge_cost[f], edge_count[f] = q.cost, q.eta
        finalised += 1
        preds = q.preds
        q.lo = i = i + 1
        while preds and succ_hi[preds[0]] == i:  # coverage ends at the frozen position
            q.eta -= edge_count[preds.popleft()]
        if i > q.hi:
            ivs.popleft()
    scan.stats["finalised"] += finalised


def pushes(rep: SortedRepresentation, beta: int | None) -> bool:
    """Whether forward takes the push path at this bound: the mean
    window is at most PUSH_MEAN_WINDOW positions."""
    return rep.window_total(beta) <= PUSH_MEAN_WINDOW * rep.m


def restless_forward(
    rep: SortedRepresentation,
    source: int,
    criterion: Criterion,
    beta: int | None,
    debug_invariants: bool = False,
) -> SourceRun:
    """Per-edge optimal-walk cost and count, and per-node target optima;
    a run whose windows are short takes ``push_forward``.
    ``debug_invariants`` checks the quintuple bookkeeping after each merge.

    The record's ``succ_hi`` is the run's ``win_hi``.  The quintuple path
    records where coverage starts in ``succ_lo``, which holds ``win_hi``
    (empty) until then; the push path's ``succ_lo`` is the run's ``win_lo``.
    """
    n, m = rep.graph.n, rep.m
    win_lo, win_hi = rep.windows(beta)
    push = pushes(rep, beta)
    scan = SourceRun([None] * m, [0] * m, win_lo if push else list(win_hi), win_hi,
                     [None] * n, [0] * n, [None] * m, start=min(rep.e_dep_node[source], default=m),
                     stats={"quintuples": 0, "finalised": 0, "window_ops": 0})
    if push:
        return push_forward(rep, scan, source, criterion)
    gamma, extend, tc = criterion.gamma, criterion.extend, criterion.tc
    same, folded = extend is _same, tc is _folded
    edge_cost, edge_count = scan.edge_cost, scan.edge_count
    succ_lo = scan.succ_lo  # its succ_hi is the table's win_hi
    intervals = [deque() for _ in range(n)]  # per node, its quintuples by position
    frontier = [0] * n  # per node, its by-departure positions below it are final
    best_target, target_count, edge_tc = scan.best_target, scan.target_count, scan.edge_tc
    live, touched = scan.live, scan.touched
    finalised = 0

    e_dep_node, dep_times = rep.e_dep_node, rep.dep_times
    e_arr_dep = rep.e_arr_dep
    tails, heads, arrs = rep.tails, rep.heads, rep.arrs

    # without a quintuple, finalising would only move the frontier
    for k in range(scan.start, m):
        u = tails[k]
        i = e_arr_dep[k]
        if i >= frontier[u]:
            if intervals[u]:
                q = intervals[u][0]
                if q.lo == i:  # finalise_up_to(..., i) for position i alone, inline
                    edge_cost[k], edge_count[k] = q.cost, q.eta
                    finalised += 1
                    preds = q.preds
                    q.lo = j = i + 1
                    while preds and win_hi[preds[0]] == j:  # coverage ends at i
                        q.eta -= edge_count[preds.popleft()]
                    if j > q.hi:  # q.hi bounds every pred's coverage
                        intervals[u].popleft()
                else:
                    finalise_up_to(scan, e_dep_node[u], intervals[u], i)
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
        live.append(k)

        v = heads[k]
        c = edge_cost[k]
        edge_tc[k] = val = c if folded else tc(arrs[k], c)  # k is final: fold into v's optimum
        cur = best_target[v]
        if cur is None or val < cur:
            if cur is None:
                touched.append(v)
            best_target[v], target_count[v] = val, cnt
        elif val == cur:
            target_count[v] += cnt

        # Every position below frontier[v] departs before arrs[k]: a
        # tail-side step stops at an out-edge that departs before it
        # arrives, and a head-side step stops at an earlier arrival.
        ws = win_lo[k]
        if ws > frontier[v]:
            if intervals[v]:
                finalise_up_to(scan, e_dep_node[v], intervals[v], ws - 1)
            frontier[v] = ws
        we = win_hi[k] - 1
        if ws > we:
            continue  # k's window stays empty: succ_lo[k] == win_hi[k]

        # Post-trim the whole list lies inside [ws, we]; merge by the cost
        # k's successors get, which orders like k's own as extend is
        # strictly isotone.  ws is now v's frontier, so fresh coverage
        # reopens no position a tail-side step of v already finalised.
        ivs = intervals[v]
        ck = c if same else extend(c)
        new_lo = ivs[-1].hi + 1 if ivs else ws
        while ivs and ck < ivs[-1].cost:
            new_lo = ivs[-1].lo
            ivs.pop()
        if ivs and ivs[-1].cost == ck:
            q = ivs[-1]
            q.hi = we
            q.preds.append(k)
            q.eta += cnt
            succ_lo[k] = q.lo
        elif new_lo <= we:
            ivs.append(Quintuple(new_lo, we, ck, deque([k]), cnt))
            scan.stats["quintuples"] += 1
            succ_lo[k] = new_lo
        # else k is strictly worse than all live walks and has no
        # uncovered tail, so its window stays empty
        if debug_invariants:
            check_invariants(intervals, frontier, edge_count, win_hi)

    scan.stats["finalised"] += finalised
    return scan


def push_forward(rep: SortedRepresentation, scan: SourceRun, source: int,
                 criterion: Criterion) -> SourceRun:
    """The short-window forward, into a push scan: each reached edge's
    walks go straight into the positions of its window, which are
    scanned later; the source's one-edge walks are in place first."""
    gamma, extend, tc = criterion.gamma, criterion.extend, criterion.tc
    same, folded = extend is _same, tc is _folded
    edge_cost, edge_count = scan.edge_cost, scan.edge_count
    best_target, target_count, edge_tc = scan.best_target, scan.target_count, scan.edge_tc
    live, touched = scan.live, scan.touched
    e_dep_node, heads, arrs = rep.e_dep_node, rep.heads, rep.arrs
    win_lo, win_hi = scan.succ_lo, scan.succ_hi

    for f, t in zip(e_dep_node[source], rep.dep_times[source]):
        edge_cost[f], edge_count[f] = gamma(t), 1
    for k in range(scan.start, rep.m):
        cnt = edge_count[k]
        if not cnt:
            continue
        live.append(k)
        v = heads[k]
        c = edge_cost[k]
        edge_tc[k] = val = c if folded else tc(arrs[k], c)
        cur = best_target[v]
        if cur is None or val < cur:
            if cur is None:
                touched.append(v)
            best_target[v], target_count[v] = val, cnt
        elif val == cur:
            target_count[v] += cnt
        lo, hi = win_lo[k], win_hi[k]
        if lo < hi:
            ck = c if same else extend(c)
            for f in e_dep_node[v][lo:hi]:
                cf = edge_cost[f]
                if cf is None or ck < cf:  # None: no walk yet
                    edge_cost[f], edge_count[f] = ck, cnt
                elif ck == cf:
                    edge_count[f] += cnt
    return scan


def restless_backward(
    rep: SortedRepresentation,
    source: int,
    criterion: Criterion,
    fwd: SourceRun,
    targets: frozenset[int] | None = None,
) -> list[int]:
    """Per-edge betweenness numerators over ``fwd.denom``, set here with
    ``fwd.node_num``, from the successor windows of the reached edges
    (``fwd.live``, visited in reverse); a reached edge ends
    target-optimal walks when its target value is its head's
    ``best_target``.

    A successor has the extension of the scanned edge's cost; an
    unreached position's cost is None, which no extension equals.  Going
    to earlier arrivals, overlapping windows of one extension only move
    left, so the running sum slides by two slices, else it is rebuilt.
    """
    n, m = rep.graph.n, rep.m
    extend = criterion.extend
    same = extend is _same
    heads, e_dep_node = rep.heads, rep.e_dep_node

    edge_cost, edge_count = fwd.edge_cost, fwd.edge_count
    succ_lo, succ_hi = fwd.succ_lo, fwd.succ_hi
    edge_tc, best_target = fwd.edge_tc, fwd.best_target
    window_ops = 0

    share = terminal_shares(fwd, source, targets)
    dep = [0] * m  # per-walk dependency of each edge, times fwd.denom
    edge_bc = [0] * m
    fwd.node_num = node_num = [0] * n
    delta = [0] * n
    cur_lo = [0] * n
    cur_hi = [0] * n
    cur_want: list = [None] * n  # a reached edge's cost is never None

    for k in reversed(fwd.live):
        v = heads[k]
        nk = share[v] if edge_tc[k] == best_target[v] else 0
        lo, hi = succ_lo[k], succ_hi[k]
        if lo < hi:
            lst = e_dep_node[v]
            want = edge_cost[k] if same else extend(edge_cost[k])
            d = delta[v]
            if cur_want[v] != want or hi <= cur_lo[v]:
                d = 0
                for f in lst[lo:hi]:
                    if edge_cost[f] == want:
                        d += dep[f]
                window_ops += hi - lo
                cur_want[v] = want
            elif hi != cur_hi[v] or lo != cur_lo[v]:
                for f in lst[hi:cur_hi[v]]:
                    if edge_cost[f] == want:
                        d -= dep[f]
                for f in lst[lo:cur_lo[v]]:
                    if edge_cost[f] == want:
                        d += dep[f]
                window_ops += cur_hi[v] - hi + cur_lo[v] - lo
            cur_lo[v], cur_hi[v] = lo, hi
            delta[v] = d
            nk += d
        dep[k] = nk
        edge_bc[k] = x = edge_count[k] * nk
        node_num[v] += x

    fwd.stats["window_ops"] += window_ops
    return edge_bc
