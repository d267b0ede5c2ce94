"""All-sources orchestration: per-source engine runs, node aggregation.

A node's score is, over every other source, the sum of the scores of
its incoming edges minus that source's node-as-target share: 1 whenever
the node is reachable, as an optimal walk's prefix would beat any
revisit of its target.  la and sla, whose walks keep their score when
extended, run as fo and sfo on the time-reversed graph (run_plan).

Per source, the engines return int numerators over one denominator,
summed per head node by backward (``rec.node_num``).  One rule merges
exact shares (_add_scaled): numerators over d are added into int totals
over a running lcm, rescaled first only when d does not divide it.
Sources are cut into fixed blocks of ascending sources, merged by that
rule within a block and again across blocks, in block order, so results
do not depend on the worker count; one Fraction per node is made at the
end, and fast mode is its nearest float.  The sorted representation and
its windows are built once per run, before any worker receives them.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import nonrestless, restless
from .costs import ConfigError, Criterion, get_criterion
from .graph import SortedRepresentation, TemporalGraph
from .graph import build_sorted_representation, reversed_representation


@dataclass
class NodeBetweenness:
    """Per-node scores plus the run's identity (criterion, beta, sources)."""

    labels: list[str]
    values: list
    criterion: str
    beta: int | None
    source_count: int
    mode: str = "exact"

    def as_dict(self) -> dict[str, object]:
        return dict(zip(self.labels, self.values))

    def ranking(self) -> list[tuple[str, object]]:
        return sorted(self.as_dict().items(), key=lambda kv: (-kv[1], kv[0]))


def _resolve_criterion(criterion: str | Criterion) -> Criterion:
    """A criterion name or the table's own Criterion object: workers, time
    reversal and the lean fo source go by name, so no other is valid."""
    if not isinstance(criterion, Criterion):
        return get_criterion(criterion)
    if criterion is not get_criterion(criterion.name):
        raise ConfigError(f"criterion {criterion.name!r} is not the table's own; pass its name")
    return criterion


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def check_beta(beta) -> int | None:
    """Accept None, 'inf', or a non-negative int; return the sentinel form."""
    if beta is None or beta == "inf":
        return None
    if not _is_int(beta) or beta < 0:
        raise ConfigError(f"beta must be a non-negative integer or 'inf', got {beta!r}")
    return beta


def _check_sources(graph: TemporalGraph, sources: Sequence[int] | None) -> list[int]:
    if sources is None:
        return list(range(graph.n))
    src_list = list(sources)
    for s in src_list:
        if not _is_int(s) or not 0 <= s < graph.n:
            raise ConfigError(f"source {s!r} is not a node id below {graph.n}")
    if len(set(src_list)) != len(src_list):
        raise ConfigError("sources must not repeat")
    return src_list


def _pick_engine(beta: int | None, engine: str) -> str:
    if engine == "auto":
        return "nonrestless" if beta is None else "restless"
    if engine not in ("nonrestless", "restless"):
        raise ConfigError(f"unknown engine {engine!r}; expected auto, nonrestless or restless")
    if engine == "nonrestless" and beta is not None:
        raise ConfigError("nonrestless engine requires beta=inf")
    return engine


def single_source_edge_betweenness(
    rep: SortedRepresentation,
    source: int,
    criterion: str | Criterion,
    beta: int | None,
    engine: str = "auto",
    targets: frozenset[int] | None = None,
) -> tuple[list[int], nonrestless.ForwardState | restless.RestlessScan]:
    """Edge betweenness and the run's record for one source.

    Returns (edge_bc, rec), engine auto-selected: the score of the edge
    at arrival position k, over walks to ``targets`` (None: every node),
    is edge_bc[k] / rec.denom, with both ints.  A bad source, beta, criterion or engine
    raises ConfigError.
    """
    crit = _resolve_criterion(criterion)
    beta = check_beta(beta)
    _check_sources(rep.graph, [source])
    if _pick_engine(beta, engine) == "nonrestless":
        return nonrestless.single_source_edge_betweenness(rep, source, crit, targets)
    return restless.single_source_edge_betweenness(rep, source, crit, beta, targets)


def revisit_continuations(rep: SortedRepresentation, beta: int | None) -> list[int]:
    """For each edge e, the number of walk continuations of e that end
    back at e's own head: la's node-as-target share on G, where walks may
    revisit their target.  No run reads it, as la runs on Gᴿ (run_plan).

    Per head u, edges are taken in reverse arrival order over the span from
    u's first to its last in-edge (a continuation arrives after the first
    and ends with an in-edge of u), skipping those whose head cannot yet
    continue to u, and each sums its window (``rep.windows``): going left,
    a node's window slides by two slices, or is rebuilt when it lies left
    of the old one or was built for another head.
    """
    m, n = rep.m, rep.graph.n
    tails, heads, e_dep_node = rep.tails, rep.heads, rep.e_dep_node
    win_lo, win_hi = rep.windows(beta)
    first = [m] * n
    last = [-1] * n
    for k, v in enumerate(heads):
        if last[v] < 0:
            first[v] = k
        last[v] = k
    k_table = [0] * m
    walks_to_u = [0] * m  # reset after each head over its span
    # per node, the window [cur_lo, cur_hi) and its sum, built for head
    # built[v]; live[v] == u: some out-edge of v scanned so far continues to u
    cur_lo, cur_hi, window_sum = [0] * n, [0] * n, [0] * n
    built = [-1] * n
    live = [-1] * n
    for u in range(n):
        a, b = first[u], last[u]
        if a >= b:
            continue
        for k in range(b, a - 1, -1):
            v = heads[k]
            if v != u and live[v] != u:
                continue  # no continuation to u yet, so walks_to_u[k] stays 0
            lo, hi = win_lo[k], win_hi[k]
            d = window_sum[v]
            if built[v] != u or hi <= cur_lo[v]:
                d = 0
                for f in e_dep_node[v][lo:hi]:
                    d += walks_to_u[f]
                built[v] = u
            elif hi != cur_hi[v] or lo != cur_lo[v]:
                lst = e_dep_node[v]
                for f in lst[hi:cur_hi[v]]:
                    d -= walks_to_u[f]
                for f in lst[lo:cur_lo[v]]:
                    d += walks_to_u[f]
            cur_lo[v], cur_hi[v], window_sum[v] = lo, hi, d
            if v == u:
                k_table[k] = d
                d += 1
            if d:
                walks_to_u[k] = d
                live[tails[k]] = u
        walks_to_u[a:b + 1] = [0] * (b + 1 - a)
    return k_table


#: la and sla run as these criteria on the time-reversed graph.
TIME_DUAL = {"la": "fo", "sla": "sfo"}

#: Sources per unit of work.  A block's shares are merged by _add_scaled
#: into ints over one common denominator, so the parent adds one int per
#: touched node and block; the size is fixed so that the blocks, and with
#: them the results, do not depend on the worker count.
BLOCK = 16


def run_plan(graph: TemporalGraph, crit: Criterion, sources: Sequence[int] | None):
    """(rep, criterion, sources, targets) that a run over ``sources`` (None:
    all, checked here) solves, targets None for every node.  la and sla run
    as TIME_DUAL on Gᴿ, whose sorted representation replaces G's; a subset
    S becomes the targets of a run from every node with an out-edge in Gᴿ
    kept to the edges of walks from S."""
    src_list = sorted(_check_sources(graph, sources))
    if crit.name not in TIME_DUAL:
        return build_sorted_representation(graph), crit, src_list, None
    targets = frozenset(src_list) if 0 < len(src_list) < graph.n else None
    rep = reversed_representation(graph, targets)
    if targets is not None:
        src_list = [v for v in range(graph.n) if rep.e_dep_node[v]]
    return rep, get_criterion(TIME_DUAL[crit.name]), src_list, targets


def _add_scaled(total: list[int], lcm: int, d: int, items) -> int:
    """Add the numerators over ``d`` of the (node, N) ``items`` into
    ``total``, held over ``lcm``, and return the lcm it is now held
    over.  ``lcm`` 0 means nothing was added yet, so the all-zero
    ``total`` is taken over at d; otherwise, when d does not divide
    lcm, ``total`` is first rescaled in place."""
    if not lcm:
        lcm = d
    elif lcm % d:
        up = d // math.gcd(lcm, d)
        total[:] = [x * up for x in total]
        lcm *= up
    scale = lcm // d
    for u, x in items:
        if x:
            total[u] += x * scale
    return lcm


def _block_sums(
    rep: SortedRepresentation,
    crit: str | Criterion,
    beta: int | None,
    engine: str,
    targets: frozenset[int] | None,
    block: list[int],
) -> tuple[int, list[tuple[int, int]]]:
    """These sources' summed share of the betweenness of each node they
    touch, as (D, [(node, N)]): the share is N / D.  Each source's
    in-edge sums ``rec.node_num``, less its node-as-target shares (to
    ``targets``, None: all), are merged by _add_scaled over the nodes it
    reaches (``rec.touched``), so D is the lcm of the sources' denominators."""
    total, lcm = [0] * rep.graph.n, 0
    for source in block:
        _, rec = single_source_edge_betweenness(rep, source, crit, beta, engine, targets)
        denom, num, touched = rec.denom, rec.node_num, rec.touched
        for u in touched if targets is None else targets.intersection(touched):
            num[u] -= denom
        num[source] = 0
        lcm = _add_scaled(total, lcm, denom, [(u, num[u]) for u in touched])
    return lcm, [(u, x) for u, x in enumerate(total) if x]


_WORKER_STATE: dict = {}


def _worker_init(*config) -> None:
    _WORKER_STATE["run"] = functools.partial(_block_sums, *config)


def _worker_run(block: list[int]) -> tuple[int, list[tuple[int, int]]]:
    return _WORKER_STATE["run"](block)


def _block_results(config: tuple, blocks: list[list[int]], workers: int):
    """Each block's _block_sums result, in the order of ``blocks``."""
    if workers == 1 or len(blocks) <= 1:
        yield from map(functools.partial(_block_sums, *config), blocks)
        return
    import concurrent.futures  # here, so that single-worker runs never load a pool
    # criteria hold lambdas, which cannot be pickled: workers get the name
    rep, crit, *rest = config
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, initializer=_worker_init, initargs=(rep, crit.name, *rest)
    ) as pool:
        yield from pool.map(_worker_run, blocks)


def node_betweenness(
    graph: TemporalGraph,
    criterion: str | Criterion = "sh",
    beta: int | None = None,
    sources: Sequence[int] | None = None,
    mode: str = "exact",
    workers: int = 1,
    engine: str = "auto",
) -> NodeBetweenness:
    """Betweenness of every node, summed over the given sources.

    ``sources`` defaults to all nodes; passing a subset computes the
    partial sums over just those sources (the result is additive over
    disjoint source sets).  ``mode`` picks the output type only: the
    computation is exact either way, and each node's score is a
    Fraction ("exact") or the nearest float of that Fraction ("fast").
    Every argument is checked here, and a bad one raises ConfigError;
    ``beta`` also accepts "inf" for unrestricted.
    """
    if mode not in ("exact", "fast"):
        raise ConfigError(f"unknown mode {mode!r}; expected exact or fast")
    if not _is_int(workers) or workers < 1:
        raise ConfigError(f"workers must be an integer >= 1, got {workers!r}")
    crit = _resolve_criterion(criterion)
    beta = check_beta(beta)
    _pick_engine(beta, engine)
    if len(graph.labels) != graph.n or len(set(graph.labels)) != graph.n:
        raise ConfigError(f"a graph of {graph.n} nodes needs {graph.n} distinct labels")

    rep, run_crit, run_sources, targets = run_plan(graph, crit, sources)
    rep.windows(beta)  # built before any worker starts, so every worker receives it
    blocks = [run_sources[i:i + BLOCK] for i in range(0, len(run_sources), BLOCK)]
    nums, lcm = [0] * graph.n, 0
    config = (rep, run_crit, beta, engine, targets)
    for d, sums in _block_results(config, blocks, workers):
        lcm = _add_scaled(nums, lcm, d, sums)
    values = [Fraction(x, lcm or 1) for x in nums]  # lcm 0: no source
    if mode == "fast":
        values = [float(v) for v in values]
    count = len(run_sources if targets is None else targets)
    return NodeBetweenness(list(graph.labels), values, crit.name, beta, count, mode)
