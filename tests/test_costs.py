from __future__ import annotations

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
    assert sh.combine(2, 3) == 5
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


#: The four cost domains (gamma, combine) of the criteria table, each
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
    for name in DOMAINS[domain]:
        crit = get_criterion(name)
        c1, c2, c = _cost_values(name, ints)
        if c1 < c2:
            assert crit.combine(c1, c) < crit.combine(c2, c)


@pytest.mark.parametrize("domain", DOMAINS)
@settings(max_examples=200, deadline=None)
@given(e=edges_st, ints=st.lists(st.integers(-50, 50), min_size=3, max_size=3))
def test_order_is_total(domain, e, ints):
    """Costs are compared with native < and ==, which is a total order
    exactly when every gamma, combine and tc output is an int or a
    2-tuple of ints (compared lexicographically)."""
    for name in DOMAINS[domain]:
        crit = get_criterion(name)
        c1, c2, _ = _cost_values(name, ints)
        outputs = [crit.gamma(e.dep), crit.combine(c1, c2), crit.tc(e.arr, c1)]
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
    data=st.data(),
    e=edges_st,
)
def test_walk_extension_preserves_strict_order(name, data, e):
    """If one walk is strictly cheaper, it stays cheaper after appending
    the same edge to both."""
    crit = get_criterion(name)
    ints1 = data.draw(st.lists(st.integers(-50, 50), min_size=3, max_size=3))
    w_cost, x_cost, _ = _cost_values(name, ints1)
    if w_cost < x_cost:
        g = crit.gamma(e.dep)
        assert crit.combine(w_cost, g) < crit.combine(x_cost, g)
