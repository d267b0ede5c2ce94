"""Temporal graph model, edge-list ingestion, and sorted edge indexes.

A temporal edge (tail, head, dep, travel) can be traversed from its tail
starting at time ``dep`` and reaches its head at time ``dep + travel``.
Travel times are required to be >= 1, so every walk is strict (departure
times strictly increase along it).

The engines never look at the raw edge list directly; they work on a
SortedRepresentation that holds the edges sorted by arrival time plus,
per node, the outgoing edges sorted by departure time.  All derived
index lists identify an edge by its position in the by-arrival order.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Iterator, NamedTuple, TextIO


class ConfigError(ValueError):
    """Invalid configuration: an unknown criterion or engine, a bad
    argument, or a graph built in code with an edge the parser would
    reject."""


class ParseError(ValueError):
    """Raised for malformed edge-list input; carries the line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class TemporalEdge(NamedTuple):
    """One temporal edge. ``arr`` is always ``dep + travel``.

    An immutable tuple record with no ``__dict__``: it equals, unpacks
    and indexes like the plain tuple ``(tail, head, dep, travel)``.
    """

    tail: int
    head: int
    dep: int
    travel: int

    @property
    def arr(self) -> int:
        return self.dep + self.travel


@dataclass
class TemporalGraph:
    """A multigraph of temporal edges over dense 0-based node ids.

    ``labels[i]`` holds the original string label of node ``i``.
    """

    n: int
    edges: list[TemporalEdge]
    labels: list[str] = field(default_factory=list)
    label_ids: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.labels:
            self.labels = [str(i) for i in range(self.n)]
        if not self.label_ids:
            self.label_ids = {lab: i for i, lab in enumerate(self.labels)}

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def distinct_departures(self) -> int:
        return len({e.dep for e in self.edges})


@dataclass
class StaticDigraph:
    """Directed static graph: node count plus distinct (tail, head) pairs."""

    n: int
    edges: list[tuple[int, int]]

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass
class SortedRepresentation:
    """Doubly-sorted edge indexes of a temporal graph.

    e_arr       -- original edge indices sorted by non-decreasing arrival.
    e_dep_node  -- per node, positions into e_arr of its outgoing edges,
                   sorted by non-decreasing departure.
    dep_times   -- per node, the departures of e_dep_node[v], in its order;
                   the only place departures are kept.
    e_arr_dep   -- for the edge at e_arr position i, its index inside
                   e_dep_node[tail], so its departure is
                   dep_times[tails[i]][e_arr_dep[i]].

    The flat arrays (tails/heads/arrs, indexed by e_arr position) are
    what the engines actually iterate over.
    """

    graph: TemporalGraph
    e_arr: list[int]
    e_dep_node: list[list[int]]
    dep_times: list[list[int]]
    e_arr_dep: list[int]
    tails: list[int]
    heads: list[int]
    arrs: list[int]
    _windows: dict = field(default_factory=dict, repr=False, compare=False)
    _window_total: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def m(self) -> int:
        return len(self.e_arr)

    def windows(self, beta: int | None) -> tuple[list[int], list[int]]:
        """(win_lo, win_hi): the edge at arrival position k continues into
        positions win_lo[k]..win_hi[k] - 1 of its head's by-departure list,
        departing in [arr, arr + beta] (unbounded for None); built once per
        beta, with their total length (``window_total``)."""
        table = self._windows.get(beta)
        if table is None:
            wait = math.inf if beta is None else beta
            dep_times, heads, arrs = self.dep_times, self.heads, self.arrs
            win_lo = [bisect_left(dep_times[v], t) for v, t in zip(heads, arrs)]
            win_hi = [bisect_right(dep_times[v], t + wait) for v, t in zip(heads, arrs)]
            self._window_total[beta] = sum(win_hi) - sum(win_lo)
            table = self._windows[beta] = (win_lo, win_hi)
        return table

    def window_total(self, beta: int | None) -> int:
        """The positions all of ``windows(beta)`` hold, summed over edges."""
        self.windows(beta)
        return self._window_total[beta]


PARSE_CHUNK = 1 << 16  #: characters of a ``str`` that parse_edge_list splits at a time


def _text_chunks(text: str) -> Iterator[str]:
    """``text`` in pieces of about PARSE_CHUNK characters, each cut just after
    a ``'\\n'``, which always ends a line: their lines are ``text.splitlines()``."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + PARSE_CHUNK) + 1 or len(text)
        yield text[start:end]
        start = end


def parse_edge_list(stream: TextIO | str, undirected: bool = False) -> TemporalGraph:
    """Parse whitespace-separated edge-list text into a TemporalGraph.

    Each non-empty, non-comment ('#') line holds 3 or 4 tokens:
    ``tail head dep [travel]``, travel 1 when omitted.  Labels are
    mapped to dense ids in first appearance order.  With ``undirected``
    every line yields both edge orientations.  Raises ParseError with the
    offending line number for malformed lines, non-positive travel times,
    or self-loops.

    Input is split by ``str.splitlines()`` a piece at a time (a file's
    lines, or a ``str`` cut after newlines by ``_text_chunks``), so no list
    of all lines is held, yet lines and their numbers are those of
    ``text.splitlines()`` (for a file in every newline mode but ``'\\r'``,
    which would split a CRLF pair).  Records come from ``tuple.__new__``.
    """
    chunks = _text_chunks(stream) if isinstance(stream, str) else stream
    ids: dict[str, int] = {}
    edges: list[TemporalEdge] = []
    for line_no, raw in enumerate(chain.from_iterable(map(str.splitlines, chunks)), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) not in (3, 4):
            raise ParseError(line_no, f"expected 3 or 4 tokens, got {len(tokens)}")
        try:
            dep = int(tokens[2])
            travel = int(tokens[3]) if len(tokens) == 4 else 1
        except ValueError:
            raise ParseError(line_no, f"non-integer time field in {raw.strip()!r}") from None
        if travel <= 0:
            raise ParseError(line_no, f"travel time must be positive, got {travel}")
        a, b = tokens[0], tokens[1]
        if a == b:
            raise ParseError(line_no, f"self-loop {a!r} rejected")
        u = ids.get(a)
        if u is None:
            u = ids[a] = len(ids)
        v = ids.get(b)
        if v is None:
            v = ids[b] = len(ids)
        edges.append(tuple.__new__(TemporalEdge, (u, v, dep, travel)))
        if undirected:
            edges.append(tuple.__new__(TemporalEdge, (v, u, dep, travel)))

    return TemporalGraph(len(ids), edges, list(ids), ids)


def to_edge_list(graph: TemporalGraph) -> str:
    """Serialize a graph back to edge-list text (one directed edge per line)."""
    out = []
    for e in graph.edges:
        out.append(f"{graph.labels[e.tail]} {graph.labels[e.head]} {e.dep} {e.travel}")
    return "\n".join(out) + ("\n" if out else "")


def _checked_arrivals(graph: TemporalGraph) -> list[int]:
    """Each edge's arrival, equal ones sharing one int object; raises
    ConfigError for a record that is not a TemporalEdge or an edge the
    parser would reject (a zero-travel cycle has infinitely many walks)."""
    n, first, arr_of = graph.n, {}, []
    for i, e in enumerate(graph.edges):
        if not isinstance(e, TemporalEdge):
            raise ConfigError(f"edge {i}: need a TemporalEdge, got {e!r}")
        t, h, d, tr = e
        if not (type(t) is type(h) is type(d) is type(tr) is int):  # bool and float fail
            raise ConfigError(f"edge {i}: endpoints and times must be ints, got {e}")
        if t == h or not (0 <= t < n and 0 <= h < n) or tr < 1:
            raise ConfigError(f"edge {i}: need distinct ids below {n} and travel >= 1, got {e}")
        arr = d + tr
        arr_of.append(first.setdefault(arr, arr))
    return arr_of


def reversed_representation(
    graph: TemporalGraph, sources: frozenset | None = None
) -> SortedRepresentation:
    """Gᴿ's sorted representation, with G's nodes, labels and edge order:
    edge (u, v, dep, travel) becomes (v, u, T - arr, travel), T above every
    arrival, so a walk from s to t becomes one from t to s with the same
    waits.  With ``sources``, only the edges that walks from them take are
    kept.  Raises ConfigError as build_sorted_representation(graph) would."""
    arr_of, edges, ids = _checked_arrivals(graph), graph.edges, range(graph.m)
    if sources is not None:  # the edges of walks from them that wait at will
        reached = [-math.inf if v in sources else math.inf for v in range(graph.n)]
        taken = []
        # by departure: an edge scanned later arrives after this one departs
        for i in sorted(ids, key=lambda i: edges[i][2]):
            tail, head, dep, _ = edges[i]
            if reached[tail] <= dep:  # reached: earliest arrival
                taken.append(i)
                reached[head] = min(reached[head], arr_of[i])
        ids = sorted(taken)
    t, first, rev, rev_arr = max(arr_of, default=0) + 1, {}, [], []
    for i in ids:
        u, h, d, tr = edges[i]
        rev.append(tuple.__new__(TemporalEdge, (h, u, t - arr_of[i], tr)))
        rev_arr.append(first.setdefault(t - d, t - d))  # its arrival, shared
    return _indexed(TemporalGraph(graph.n, rev, graph.labels, graph.label_ids), rev_arr)


def build_sorted_representation(graph: TemporalGraph) -> SortedRepresentation:
    """Build the sorted index lists; ties keep input order (stable).

    Raises ConfigError as _checked_arrivals does.  e_dep_node's positions
    are e_arr's own objects: both sorts order one ``list(range(m))``.
    """
    return _indexed(graph, _checked_arrivals(graph))


def _indexed(graph: TemporalGraph, arr_of: list[int]) -> SortedRepresentation:
    """build_sorted_representation of a checked graph, ``arr_of`` its arrivals."""
    n, m, edges = graph.n, graph.m, graph.edges
    # temporaries go once used: the build peaks near what the index keeps
    ids = list(range(m))  # one int object per index, for e_arr and e_dep_node
    order_arr = sorted(ids, key=arr_of.__getitem__)
    pos_of = [0] * m
    for pos, orig in zip(ids, order_arr):
        pos_of[orig] = pos
    deps = list(map(itemgetter(2), edges))
    order_dep = sorted(ids, key=deps.__getitem__)
    del ids, deps

    e_dep_node: list[list[int]] = [[] for _ in range(n)]
    dep_times: list[list[int]] = [[] for _ in range(n)]
    e_arr_dep = [0] * m
    for i in order_dep:
        pos, (tail, _, dep, _) = pos_of[i], edges[i]
        e_arr_dep[pos] = len(e_dep_node[tail])
        e_dep_node[tail].append(pos)
        dep_times[tail].append(dep)
    del pos_of, order_dep

    tails = list(map(itemgetter(0), map(edges.__getitem__, order_arr)))
    heads = list(map(itemgetter(1), map(edges.__getitem__, order_arr)))
    arrs = list(map(arr_of.__getitem__, order_arr))
    return SortedRepresentation(graph, order_arr, e_dep_node, dep_times, e_arr_dep,
                                tails, heads, arrs)


def underlying_graph(graph: TemporalGraph) -> StaticDigraph:
    """Collapse temporal edges to the distinct (tail, head) pairs."""
    seen: set[tuple[int, int]] = set()
    pairs: list[tuple[int, int]] = []
    for e in graph.edges:
        key = (e.tail, e.head)
        if key not in seen:
            seen.add(key)
            pairs.append(key)
    return StaticDigraph(graph.n, pairs)


def random_temporal_graph(
    n: int,
    m: int,
    t_max: int,
    seed: int,
    travel_max: int = 3,
) -> TemporalGraph:
    """Seeded Erdos-Renyi-style temporal graph for benchmarks and tests.

    Edges get uniform endpoints (tail != head), departure in [1, t_max],
    travel in [1, travel_max].
    """
    if m > 0 and n < 2:
        raise ValueError("need at least 2 nodes to place self-loop-free edges")
    rng = random.Random(seed)
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        edges.append(TemporalEdge(u, v, rng.randint(1, t_max), rng.randint(1, travel_max)))
    return TemporalGraph(n, edges)
