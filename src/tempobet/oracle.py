"""Brute-force ground truth for small temporal graphs.

Everything here is deliberately dumb: walks are enumerated exhaustively
by scanning every edge at every extension step (no sorted indexes, no
memoization), and all derived counts are computed straight from the
walk sets.  The fast engines are required to agree with these numbers
exactly, in rational arithmetic.

Also holds the two normative hand fixtures used across the test suite
and a textbook implementation of static betweenness on the underlying
graph (BFS path counting + reverse dependency accumulation).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .costs import Criterion, get_criterion, walk_cost
from .driver import check_beta
from .graph import StaticDigraph, TemporalEdge, TemporalGraph

DEFAULT_WALK_CAP = 10**7


class OracleCapError(RuntimeError):
    """Enumeration exceeded the configured walk cap."""


def g_toy() -> TemporalGraph:
    """Four nodes, five edges, two equally short a->d walks."""
    labels = ["a", "b", "c", "d"]
    edges = [
        TemporalEdge(0, 1, 1, 1),  # a->b
        TemporalEdge(1, 2, 2, 1),  # b->c
        TemporalEdge(0, 2, 2, 1),  # a->c
        TemporalEdge(2, 3, 3, 1),  # c->d
        TemporalEdge(1, 3, 4, 1),  # b->d
    ]
    return TemporalGraph(4, edges, labels)


def g_loop() -> TemporalGraph:
    """Four nodes with a y->x back edge, so walks can revisit x."""
    labels = ["a", "x", "y", "z"]
    edges = [
        TemporalEdge(0, 1, 1, 1),  # a->x
        TemporalEdge(1, 2, 2, 1),  # x->y
        TemporalEdge(2, 1, 3, 1),  # y->x
        TemporalEdge(1, 3, 4, 1),  # x->z
    ]
    return TemporalGraph(4, edges, labels)


def enumerate_walks(
    graph: TemporalGraph,
    source: int,
    beta: int | None = None,
    cap: int = DEFAULT_WALK_CAP,
) -> list[tuple[int, ...]]:
    """All walks leaving ``source``, as tuples of edge indices.

    A walk may be extended by edge f when arr(last) <= dep(f) and, with a
    finite waiting bound, dep(f) <= arr(last) + beta.  Departures strictly
    increase along a walk, so enumeration always terminates; the cap
    guards against exponential blowups on unsuitable inputs.  A bad
    ``beta`` raises ConfigError, and "inf" means unrestricted.
    """
    beta = check_beta(beta)
    walks: list[tuple[int, ...]] = []
    stack: list[tuple[tuple[int, ...], int]] = []
    for i, e in enumerate(graph.edges):
        if e.tail == source:
            stack.append(((i,), e.arr))
    while stack:
        walk, arr = stack.pop()
        walks.append(walk)
        if len(walks) > cap:
            raise OracleCapError(f"walk count exceeded cap {cap}")
        head = graph.edges[walk[-1]].head
        for j, f in enumerate(graph.edges):
            if f.tail != head or f.dep < arr:
                continue
            if beta is not None and f.dep > arr + beta:
                continue
            stack.append((walk + (j,), f.arr))
    return walks


@dataclass
class OracleReport:
    """Every quantity the brute force can state about one (graph, criterion, beta).

    Edge keys are indices into ``graph.edges``; node keys are dense ids.
    """

    criterion: str
    beta: int | None
    # per (s, t), t reachable from s, s != t
    best_target: dict[tuple[int, int], object] = field(default_factory=dict)
    sigma_star_st: dict[tuple[int, int], int] = field(default_factory=dict)
    # per (s, e, t)
    sigma_star_set: dict[tuple[int, int, int], int] = field(default_factory=dict)
    theta: dict[tuple[int, int, int], int] = field(default_factory=dict)
    # per (s, e)
    sigma_se: dict[tuple[int, int], int] = field(default_factory=dict)
    sigma_star_se: dict[tuple[int, int], int] = field(default_factory=dict)
    successors: dict[tuple[int, int], set[int]] = field(default_factory=dict)
    edge_bc: dict[tuple[int, int], Fraction] = field(default_factory=dict)
    # per node
    node_bc: list[Fraction] = field(default_factory=list)

    def reachable(self, s: int, t: int) -> bool:
        return (s, t) in self.sigma_star_st


def oracle_betweenness(
    graph: TemporalGraph,
    criterion: str | Criterion,
    beta: int | None = None,
    cap: int = DEFAULT_WALK_CAP,
    walks_by_source: dict[int, list[tuple[int, ...]]] | None = None,
) -> OracleReport:
    """Exhaustively derive every optimal-walk count and betweenness value.

    ``walks_by_source`` lets callers reuse one enumeration across several
    criteria for the same (graph, beta).  ``criterion`` may be a name,
    and ``beta`` is checked as enumerate_walks checks it.
    """
    if isinstance(criterion, str):
        criterion = get_criterion(criterion)
    beta = check_beta(beta)
    rep = OracleReport(criterion.name, beta)
    rep.node_bc = [Fraction(0)] * graph.n

    for s in range(graph.n):
        if walks_by_source is not None and s in walks_by_source:
            walks = walks_by_source[s]
        else:
            walks = enumerate_walks(graph, s, beta, cap)
            if walks_by_source is not None:
                walks_by_source[s] = walks

        # Gamma-optimal counts per last edge.
        edge_objs = graph.edges
        costs = []
        best_cost_to_edge: dict[int, object] = {}
        for walk in walks:
            c = walk_cost([edge_objs[i] for i in walk], criterion)
            costs.append(c)
            last = walk[-1]
            prev = best_cost_to_edge.get(last)
            if prev is None or c < prev:
                best_cost_to_edge[last] = c
        for walk, c in zip(walks, costs):
            last = walk[-1]
            if c == best_cost_to_edge[last]:
                rep.sigma_se[(s, last)] = rep.sigma_se.get((s, last), 0) + 1

        # Theta-optimal walks per target node (targets other than s).
        best_to_node: dict[int, object] = {}
        targets = []
        for walk, c in zip(walks, costs):
            last = edge_objs[walk[-1]]
            tc = criterion.tc(last.arr, c)
            targets.append(tc)
            t = last.head
            if t == s:
                continue
            prev = best_to_node.get(t)
            if prev is None or tc < prev:
                best_to_node[t] = tc

        theta_suffixes: dict[tuple[int, int, int], set[tuple[int, ...]]] = {}
        local_set: dict[tuple[int, int], int] = {}
        for walk, tc in zip(walks, targets):
            t = edge_objs[walk[-1]].head
            if t == s or tc != best_to_node[t]:
                continue
            key = (s, t)
            rep.sigma_star_st[key] = rep.sigma_star_st.get(key, 0) + 1
            rep.best_target.setdefault(key, tc)
            last = walk[-1]
            rep.sigma_star_se[(s, last)] = rep.sigma_star_se.get((s, last), 0) + 1
            for i, eidx in enumerate(walk):
                local_set[(eidx, t)] = local_set.get((eidx, t), 0) + 1
                theta_suffixes.setdefault((s, eidx, t), set()).add(walk[i + 1 :])
                if i + 1 < len(walk):
                    rep.successors.setdefault((s, eidx), set()).add(walk[i + 1])

        for key, suffixes in theta_suffixes.items():
            rep.theta[key] = len(suffixes)

        # Betweenness of edges and nodes, Fraction-exact.
        for (eidx, t), cnt in local_set.items():
            rep.sigma_star_set[(s, eidx, t)] = cnt
            share = Fraction(cnt, rep.sigma_star_st[(s, t)])
            rep.edge_bc[(s, eidx)] = rep.edge_bc.get((s, eidx), Fraction(0)) + share
            u = edge_objs[eidx].head
            if u != s and u != t:
                rep.node_bc[u] += share

    return rep


def oracle_node_betweenness(
    graph: TemporalGraph,
    criterion: str | Criterion,
    beta: int | None = None,
    cap: int = DEFAULT_WALK_CAP,
) -> dict[str, Fraction]:
    """Node betweenness by label, straight from the brute force."""
    rep = oracle_betweenness(graph, criterion, beta, cap)
    return {graph.labels[u]: rep.node_bc[u] for u in range(graph.n)}


def brandes_static(sg: StaticDigraph) -> list[Fraction]:
    """Static betweenness on a directed graph, endpoints excluded.

    Classic two-pass form: per source, BFS counts shortest paths, then
    dependencies accumulate in reverse BFS order.  Exact rationals.
    """
    adj: list[list[int]] = [[] for _ in range(sg.n)]
    for u, v in sg.edges:
        adj[u].append(v)
    bc = [Fraction(0)] * sg.n
    for s in range(sg.n):
        dist = [-1] * sg.n
        sigma = [0] * sg.n
        preds: list[list[int]] = [[] for _ in range(sg.n)]
        dist[s] = 0
        sigma[s] = 1
        order: list[int] = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [Fraction(0)] * sg.n
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += Fraction(sigma[v], sigma[w]) * (1 + delta[w])
            if w != s:
                bc[w] += delta[w]
    return bc
