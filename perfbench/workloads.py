"""The benchmark's workloads: seeded input generators and run settings.

Every generator returns edge-list text (``tail head dep travel`` lines);
the program under test only ever sees that text, parsed through
``tempobet.parse_edge_list``.  The generators live here, not in the
library, so a change to the library cannot change the inputs.

Every workload runs in exact mode; results are checked against
committed references (see refs.py).
A run's ``--seed`` selects one of ``SEED_BANK`` generated inputs
(``seed % SEED_BANK``): the same seed always gives the same input, and
every input the benchmark can produce has a committed reference.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

#: Number of distinct seeded inputs per workload that have references.
SEED_BANK = 16


def random_edges(n: int, m: int, t_max: int, seed: int, travel_max: int = 3) -> str:
    """Uniform temporal multigraph: endpoints uniform with tail != head,
    departure uniform in [1, t_max], travel uniform in [1, travel_max].

    Same distribution and draw order as ``tempobet.random_temporal_graph``.
    """
    rng = random.Random(seed)
    lines = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        lines.append(f"{u} {v} {rng.randint(1, t_max)} {rng.randint(1, travel_max)}")
    return "\n".join(lines) + "\n"


LADDER_LAYERS = 251
LADDER_EXTRA = 62


def ladder_edges(seed: int) -> str:
    """Layered ladder whose walk counts grow as 2^layers.

    Layer i holds nodes ``i.0`` and ``i.1``.  Every node of layer i has
    an edge to both nodes of layer i+1, departing at 2i with travel 1, so
    a walk waits exactly 1 between layers and the count of walks doubles
    per layer.  ``LADDER_EXTRA`` seeded forward skips jump d in [2, 4]
    layers and arrive exactly when a regular edge would, adding walks.
    ``LADDER_EXTRA`` seeded back edges leave layer i at 2i (the time its
    forward edges leave) and land d in [1, 3] layers earlier, on a node
    walks have already passed through: these are the revisits that the
    latest-departure criterion must count (driver.revisit_continuations).
    """
    rng = random.Random(seed)
    last = LADDER_LAYERS - 1
    lines = []
    for i in range(last):
        for a in (0, 1):
            for b in (0, 1):
                lines.append(f"{i}.{a} {i + 1}.{b} {2 * i} 1")
    for _ in range(LADDER_EXTRA):
        d = rng.randint(2, 4)
        i = rng.randrange(last - d + 1)
        lines.append(f"{i}.{rng.randrange(2)} {i + d}.{rng.randrange(2)} {2 * i} {2 * d - 1}")
    for _ in range(LADDER_EXTRA):
        d = rng.randint(1, 3)
        i = rng.randrange(d, LADDER_LAYERS)
        lines.append(f"{i}.{rng.randrange(2)} {i - d}.{rng.randrange(2)} {2 * i} 1")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_text: Callable[[int], str]
    criterion: str
    beta: int | None
    workers: int


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "dense-sh-exact",
            "lean nonrestless engine where Fraction backward dominates and aggregation is small",
            lambda s: random_edges(150, 6000, 1500, s),
            "sh", None, 1,
        ),
        Workload(
            "ladder-la-2w",
            "only workload with bigint walk counts, a non-zero revisit table and a process pool",
            ladder_edges,
            "la", 3, 2,
        ),
    )
}


def input_text(workload: Workload, seed: int) -> str:
    """The edge-list text a run with ``--seed seed`` feeds the program."""
    return workload.make_text(seed % SEED_BANK)
