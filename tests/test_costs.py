from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempobet.costs import (
    CRITERION_NAMES,
    ConfigError,
    get_criterion,
    walk_cost,
    walk_target_cost,
)
from tempobet.graph import TemporalEdge


def test_unknown_criterion_rejected():
    with pytest.raises(ConfigError):
        get_criterion("xx")


def test_shortest_components():
    sh = get_criterion("sh")
    e = TemporalEdge(0, 1, 3, 2)
    assert sh.gamma(e.dep) == 1
    assert sh.extend(2) == 3
    assert sh.tc(e.arr, 4) == 4


def test_fastest_components_give_duration():
    fa = get_criterion("fa")
    e = TemporalEdge(0, 1, 3, 2)  # arr 5
    assert fa.gamma(e.dep) == -3
    assert fa.tc(e.arr, -3) == 2


def test_shortest_fastest_target_is_duration_then_hops():
    sfa = get_criterion("sfa")
    last = TemporalEdge(1, 2, 7, 2)  # arr 9
    assert sfa.tc(last.arr, (-3, 2)) == (6, 2)
    # cross-check against an explicit two-edge walk
    walk = [TemporalEdge(0, 1, 3, 2), TemporalEdge(1, 2, 7, 2)]
    cost = walk_cost(walk, sfa)
    assert cost == (-3, 2)
    arr, dep = walk[-1].arr, walk[0].dep
    assert sfa.tc(arr, cost) == (arr - dep, len(walk))


def test_walk_cost_single_edge_and_folds():
    sh = get_criterion("sh")
    e = TemporalEdge(0, 1, 1, 1)
    assert walk_cost([e], sh) == 1
    walk3 = [TemporalEdge(0, 1, 1, 1), TemporalEdge(1, 2, 2, 1), TemporalEdge(2, 3, 3, 1)]
    assert walk_cost(walk3, sh) == 3
    sfa = get_criterion("sfa")
    walk = [TemporalEdge(0, 1, 1, 1), TemporalEdge(1, 2, 2, 1)]
    assert walk_cost(walk, sfa) == (-1, 2)


def test_walk_cost_empty_rejected():
    with pytest.raises(ValueError):
        walk_cost([], get_criterion("sh"))


def test_latest_criterion_prefers_late_departure():
    la = get_criterion("la")
    early = [TemporalEdge(0, 1, 1, 1), TemporalEdge(1, 2, 5, 1)]
    late = [TemporalEdge(0, 1, 4, 1), TemporalEdge(1, 2, 5, 1)]
    assert walk_target_cost(late, la) < walk_target_cost(early, la)


edges_st = st.builds(
    TemporalEdge,
    tail=st.integers(0, 5),
    head=st.integers(6, 11),
    dep=st.integers(1, 50),
    travel=st.integers(1, 5),
)


#: The four cost domains (gamma, extend) of the criteria table, each
#: with the criteria that share it.
DOMAINS = {
    "all": ("fo",),
    "shortest": ("sh", "sfo"),
    "latest": ("fa", "la"),
    "shortest-latest": ("sfa", "sla"),
}
DOMAIN_OF = {name: domain for domain, names in DOMAINS.items() for name in names}


def _cost_values(name, rng_ints):
    """Costs that walks under criterion ``name`` can fold to."""
    domain = DOMAIN_OF[name]
    if domain == "all":
        return [0 for _ in rng_ints]
    if domain == "shortest":
        return [abs(x) for x in rng_ints]
    if domain == "latest":
        return list(rng_ints)
    return [(x, abs(y) + 1) for x, y in zip(rng_ints, reversed(rng_ints))]


def _is_cost(c) -> bool:
    if type(c) is tuple:
        return len(c) == 2 and all(type(x) is int for x in c)
    return type(c) is int


@pytest.mark.parametrize("domain", DOMAINS)
@settings(max_examples=200, deadline=None)
@given(ints=st.lists(st.integers(-50, 50), min_size=3, max_size=3))
def test_strict_right_isotonicity(domain, ints):
    """c1 < c2 implies extend(c1) < extend(c2)."""
    for name in DOMAINS[domain]:
        crit = get_criterion(name)
        c1, c2, _ = _cost_values(name, ints)
        if c1 < c2:
            assert crit.extend(c1) < crit.extend(c2)


@pytest.mark.parametrize("domain", DOMAINS)
@settings(max_examples=200, deadline=None)
@given(e=edges_st, ints=st.lists(st.integers(-50, 50), min_size=3, max_size=3))
def test_order_is_total(domain, e, ints):
    """Costs are compared with native < and ==, which is a total order
    exactly when every gamma, extend and tc output is an int or a
    2-tuple of ints (compared lexicographically)."""
    for name in DOMAINS[domain]:
        crit = get_criterion(name)
        c1, _, _ = _cost_values(name, ints)
        outputs = [crit.gamma(e.dep), crit.extend(c1), crit.tc(e.arr, c1)]
        assert all(_is_cost(c) for c in outputs), (name, outputs)


@pytest.mark.parametrize("name", CRITERION_NAMES)
@settings(max_examples=200, deadline=None)
@given(e=edges_st, ints=st.lists(st.integers(-50, 50), min_size=3, max_size=3))
def test_target_cost_is_increasing(name, e, ints):
    crit = get_criterion(name)
    c1, c2, _ = _cost_values(name, ints)
    if c1 < c2:
        assert crit.tc(e.arr, c1) < crit.tc(e.arr, c2)


@pytest.mark.parametrize("name", CRITERION_NAMES)
@settings(max_examples=100, deadline=None)
@given(
    w=st.lists(edges_st, min_size=1, max_size=4),
    x=st.lists(edges_st, min_size=1, max_size=4),
    e=edges_st,
)
def test_walk_extension_preserves_strict_order(name, w, x, e):
    """If one walk is strictly cheaper, it stays cheaper after appending
    the same edge to both."""
    crit = get_criterion(name)
    if walk_cost(w, crit) < walk_cost(x, crit):
        assert walk_cost(w + [e], crit) < walk_cost(x + [e], crit)


def _random_walk(rng):
    """A strict temporal walk of 1-6 edges: each departs no earlier than
    the previous one arrives."""
    walk, t = [], rng.randint(1, 20)
    for _ in range(rng.randint(1, 6)):
        e = TemporalEdge(len(walk), len(walk) + 1, t + rng.randint(0, 3), rng.randint(1, 4))
        walk.append(e)
        t = e.arr
    return walk


def test_criteria_table_matches_definitions():
    """walk_cost and walk_target_cost equal the README definitions
    computed directly from each walk.  The oracle folds with the same
    table as the engines, so agreeing with it cannot catch a wrong
    extend; this test can."""
    rng = random.Random(8)
    for _ in range(500):
        walk = _random_walk(rng)
        hops, first, arr = len(walk), walk[0].dep, walk[-1].arr
        want = {
            "sh": (hops, hops),
            "fo": (0, arr),
            "fa": (-first, arr - first),
            "la": (-first, -first),
            "sfo": (hops, (arr, hops)),
            "sfa": ((-first, hops), (arr - first, hops)),
            "sla": ((-first, hops), (-first, hops)),
        }
        assert set(want) == set(CRITERION_NAMES)
        for name, (cost, target) in want.items():
            crit = get_criterion(name)
            assert walk_cost(walk, crit) == cost, (name, walk)
            assert walk_target_cost(walk, crit) == target, (name, walk)
