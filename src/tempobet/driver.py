"""All-sources orchestration: per-source engine runs, node aggregation.

Node betweenness is assembled from per-source edge betweenness: a
node's score is, over every other source, the sum of scores of its
incoming edges minus that source's node-as-target share.  The share is
1 whenever the node is reachable, except under the latest-departure
criterion, where optimal walks may revisit their own target and the
share needs exact revisit counts (see revisit_continuations).

Per source, the engines return int numerators over one denominator, so
a node's per-source score is one int sum divided once: a Fraction in
exact mode, a float in fast mode.  Only nodes the source touches get a
score.  The sorted representation and the revisit table are built once
per run; sources can run in parallel workers that receive both, and
per-source scores are added in ascending source order as they arrive,
so results are independent of the worker count.
"""
from __future__ import annotations

import concurrent.futures
import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import nonrestless, restless
from .costs import ConfigError, Criterion, get_criterion
from .graph import SortedRepresentation, TemporalGraph, build_sorted_representation


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
    if isinstance(criterion, Criterion):
        return criterion
    return get_criterion(criterion)


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


def _pick_engine(criterion: Criterion, beta: int | None, engine: str) -> str:
    if engine == "auto":
        if beta is None and criterion.name in ("sh", "sfo"):
            return "nonrestless"
        return "restless"
    if engine not in ("nonrestless", "restless"):
        raise ConfigError(f"unknown engine {engine!r}; expected auto, nonrestless or restless")
    if engine == "nonrestless" and (beta is not None or criterion.name not in ("sh", "sfo")):
        raise ConfigError("nonrestless engine requires beta=inf and sh/sfo")
    return engine


def single_source_edge_betweenness(
    rep: SortedRepresentation,
    source: int,
    criterion: str | Criterion,
    beta: int | None,
    engine: str = "auto",
) -> tuple[list[int], nonrestless.BackwardState]:
    """Edge betweenness and counts for one source, engine auto-selected.

    Returns (edge_bc, back): the score of the edge at arrival position k
    is edge_bc[k] / back.denom, with both ints.  A bad source, beta,
    criterion or engine raises ConfigError.
    """
    crit = _resolve_criterion(criterion)
    beta = check_beta(beta)
    _check_sources(rep.graph, [source])
    which = _pick_engine(crit, beta, engine)
    if which == "nonrestless":
        return nonrestless.single_source_edge_betweenness(rep, source, crit)
    return restless.single_source_edge_betweenness(rep, source, crit, beta)


def revisit_continuations(rep: SortedRepresentation, beta: int | None) -> list[int]:
    """For each edge e, the number of walk continuations of e that end
    back at e's own head.

    Sums of per-edge betweenness over a node's incoming edges count the
    node-as-target share once per *occurrence* of the node in a walk.
    For every criterion except latest departure an optimal walk cannot
    revisit its own target (its prefix would beat it), so that share is
    exactly 1 per reachable source and subtracting the reachability
    indicator is enough.  Latest-departure walks keep their score when
    extended, so the node aggregation must subtract the exact share; the
    counts returned here (independent of the source) provide it.

    Counts are computed per head node with a right-to-left sliding
    window over extension edges, O(M) per distinct head.
    """
    m = rep.m
    deps, arrs, heads = rep.deps, rep.arrs, rep.heads
    e_dep_node = rep.e_dep_node
    k_table = [0] * m
    for u in set(heads):
        walks_to_u = [0] * m
        lo = [len(lst) for lst in e_dep_node]
        hi = [len(lst) - 1 for lst in e_dep_node]
        window_sum = [0] * rep.graph.n
        # reverse arrival order: every extension edge is processed first,
        # and per node both window ends only ever move left
        for k in range(m - 1, -1, -1):
            v = heads[k]
            lst = e_dep_node[v]
            arr_k = arrs[k]
            if beta is not None:
                reach = arr_k + beta
                h = hi[v]
                while h >= 0 and deps[lst[h]] > reach:
                    if h >= lo[v]:
                        window_sum[v] -= walks_to_u[lst[h]]
                    h -= 1
                hi[v] = h
            left = lo[v]
            h = hi[v]
            while left > 0 and deps[lst[left - 1]] >= arr_k:
                left -= 1
                if left <= h:
                    window_sum[v] += walks_to_u[lst[left]]
            lo[v] = left
            walks_to_u[k] = (1 if v == u else 0) + window_sum[v]
            if v == u:
                k_table[k] = window_sum[v]
    return k_table


def _source_contribution(
    rep: SortedRepresentation,
    crit: str | Criterion,
    beta: int | None,
    engine: str,
    revisit_table: list[int] | None,
    divide,
    source: int,
) -> list[tuple[int, object]]:
    """This source's share of the betweenness of each node it touches,
    as (node, divide(numerator, back.denom)) pairs."""
    edge_bc, back = single_source_edge_betweenness(rep, source, crit, beta, engine)
    heads = rep.heads
    denom = back.denom
    num: dict[int, int] = {}
    for k, val in enumerate(edge_bc):
        if val:
            u = heads[k]
            num[u] = num.get(u, 0) + val
    target_count = back.target_count
    for u, c in enumerate(target_count):
        if c:
            num[u] = num.get(u, 0) - denom
    if revisit_table is not None:
        etc = back.edge_target_count
        for k, cont in enumerate(revisit_table):
            u = heads[k]
            if cont and etc[k] and u != source:
                num[u] -= etc[k] * cont * (denom // target_count[u])
    return [(u, divide(x, denom)) for u, x in num.items() if x and u != source]


_WORKER_STATE: dict = {}


def _worker_init(*config) -> None:
    _WORKER_STATE["run"] = functools.partial(_source_contribution, *config)


def _worker_run(source: int) -> list[tuple[int, object]]:
    return _WORKER_STATE["run"](source)


def _source_shares(config: tuple, sources: list[int], workers: int):
    """Each source's (node, share) pairs, in the order of ``sources``."""
    if workers == 1 or len(sources) <= 1:
        yield from map(functools.partial(_source_contribution, *config), sources)
        return
    # criteria hold lambdas, which cannot be pickled: workers get the name
    rep, crit, *rest = config
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, initializer=_worker_init, initargs=(rep, crit.name, *rest)
    ) as pool:
        yield from pool.map(_worker_run, sources, chunksize=8)


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
    computation is exact either way, and each node's per-source score
    becomes a Fraction ("exact") or the nearest float ("fast") before
    the scores are summed over sources.  Every argument is checked
    here, and a bad one raises ConfigError; ``beta`` also accepts "inf"
    for unrestricted.
    """
    if mode not in ("exact", "fast"):
        raise ConfigError(f"unknown mode {mode!r}; expected exact or fast")
    if not _is_int(workers) or workers < 1:
        raise ConfigError(f"workers must be an integer >= 1, got {workers!r}")
    crit = _resolve_criterion(criterion)
    beta = check_beta(beta)
    _pick_engine(crit, beta, engine)
    src_list = _check_sources(graph, sources)

    rep = build_sorted_representation(graph)
    revisit = revisit_continuations(rep, beta) if crit.name == "la" else None
    divide = Fraction if mode == "exact" else operator.truediv
    values = [divide(0, 1)] * graph.n
    config = (rep, crit, beta, engine, revisit, divide)
    for pairs in _source_shares(config, sorted(src_list), workers):
        for u, share in pairs:
            values[u] += share
    return NodeBetweenness(
        list(graph.labels), values, crit.name, beta, len(src_list), mode
    )
