"""The seven optimality criteria as a table of plain functions.

A criterion is three functions over cost values that are ints or
(int, int) tuples, compared with Python's own ``<`` and ``==`` (tuples
lexicographically):

    gamma(dep)       cost of a one-edge walk, from its departure time
    extend(c)        cost of a walk of cost c extended by one more edge;
                     no criterion reads that edge's departure
    tc(arr, cost)    target cost of a finished walk, from its last
                     arrival and its cost

Every cost domain here is strictly isotone under extension: c1 < c2
implies extend(c1) < extend(c2), which is what lets the engines count
optimal walks edge by edge.  Minimising tc defines the optimal walks:

    sh   fewest edges
    fo   earliest arrival
    fa   smallest duration
    la   latest departure
    sfo  earliest arrival, then fewest edges
    sfa  smallest duration, then fewest edges
    sla  latest departure, then fewest edges

fo's cost domain is the constant 0: every walk to an edge is equally
good (0 < 0 is false, 0 == 0 is true).  Unreachable values are None
sentinels and are never extended or compared.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .graph import ConfigError, TemporalEdge  # ConfigError is re-exported here


Cost = Union[int, tuple[int, int]]


@dataclass(frozen=True)
class Criterion:
    """A named criterion: one-edge cost, extension and target cost."""

    name: str
    gamma: Callable[[int], Cost]
    extend: Callable[[Cost], Cost]
    tc: Callable[[int, Cost], Cost]


def _add_hop(c):
    return c + 1


def _same(c):
    return c


def _add_second_hop(c):
    return (c[0], c[1] + 1)


def _folded(arr, c):
    return c


_CRITERIA: dict[str, Criterion] = {
    c.name: c
    for c in (
        Criterion("sh", lambda dep: 1, _add_hop, _folded),
        Criterion("fo", lambda dep: 0, _same, lambda arr, c: arr),
        Criterion("fa", lambda dep: -dep, _same, lambda arr, c: arr + c),
        Criterion("la", lambda dep: -dep, _same, _folded),
        Criterion("sfo", lambda dep: 1, _add_hop, lambda arr, c: (arr, c)),
        Criterion("sfa", lambda dep: (-dep, 1), _add_second_hop,
                  lambda arr, c: (arr + c[0], c[1])),
        Criterion("sla", lambda dep: (-dep, 1), _add_second_hop, _folded),
    )
}

CRITERION_NAMES = tuple(_CRITERIA)


def get_criterion(name: str) -> Criterion:
    """Look up a criterion by its lowercase token (sh, sfo, fa, fo, sfa, la, sla)."""
    try:
        return _CRITERIA[name]
    except (KeyError, TypeError):
        raise ConfigError(
            f"unknown criterion {name!r}; expected one of {', '.join(_CRITERIA)}"
        ) from None


def walk_cost(walk: Sequence[TemporalEdge], criterion: Criterion) -> Cost:
    """Cost of a non-empty walk: its first edge's gamma, extended once
    per later edge."""
    if not walk:
        raise ValueError("walk_cost of an empty walk is undefined")
    acc = criterion.gamma(walk[0].dep)
    for _ in walk[1:]:
        acc = criterion.extend(acc)
    return acc


def walk_target_cost(walk: Sequence[TemporalEdge], criterion: Criterion) -> Cost:
    """Target cost of a finished walk: tc(last arrival, folded cost)."""
    return criterion.tc(walk[-1].arr, walk_cost(walk, criterion))
