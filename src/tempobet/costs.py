"""The seven optimality criteria as a table of plain functions.

A criterion is three functions over cost values that are ints or
(int, int) tuples, compared with Python's own ``<`` and ``==`` (tuples
lexicographically):

    gamma(dep)       cost of one edge, from its departure time
    combine(a, b)    folds costs left to right along a walk
    tc(arr, cost)    target cost of a finished walk, from its last
                     arrival and its folded cost

Every cost domain here is strictly right-isotone: c1 < c2 implies
combine(c1, c) < combine(c2, c), which is what lets the engines count
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
sentinels and are never combined or compared.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .graph import TemporalEdge


class ConfigError(ValueError):
    """Unknown criterion name or otherwise invalid configuration."""


Cost = Union[int, tuple[int, int]]


@dataclass(frozen=True)
class Criterion:
    """A named criterion: edge cost, cost fold and target cost."""

    name: str
    gamma: Callable[[int], Cost]
    combine: Callable[[Cost, Cost], Cost]
    tc: Callable[[int, Cost], Cost]


def _add(a, b):
    return a + b


def _first(a, b):
    return a


def _first_add_hops(a, b):
    return (a[0], a[1] + b[1])


def _folded(arr, c):
    return c


_CRITERIA: dict[str, Criterion] = {
    c.name: c
    for c in (
        Criterion("sh", lambda dep: 1, _add, _folded),
        Criterion("fo", lambda dep: 0, lambda a, b: 0, lambda arr, c: arr),
        Criterion("fa", lambda dep: -dep, _first, lambda arr, c: arr + c),
        Criterion("la", lambda dep: -dep, _first, _folded),
        Criterion("sfo", lambda dep: 1, _add, lambda arr, c: (arr, c)),
        Criterion("sfa", lambda dep: (-dep, 1), _first_add_hops,
                  lambda arr, c: (arr + c[0], c[1])),
        Criterion("sla", lambda dep: (-dep, 1), _first_add_hops, _folded),
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
    """Fold the per-edge costs of a non-empty walk, left to right."""
    if not walk:
        raise ValueError("walk_cost of an empty walk is undefined")
    acc = criterion.gamma(walk[0].dep)
    for e in walk[1:]:
        acc = criterion.combine(acc, criterion.gamma(e.dep))
    return acc


def walk_target_cost(walk: Sequence[TemporalEdge], criterion: Criterion) -> Cost:
    """Target cost of a finished walk: tc(last arrival, folded cost)."""
    return criterion.tc(walk[-1].arr, walk_cost(walk, criterion))
