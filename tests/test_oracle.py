from __future__ import annotations

import itertools
import random
from collections import deque
from fractions import Fraction as F

import pytest

from tempobet.costs import CRITERION_NAMES, ConfigError, get_criterion
from tempobet.graph import StaticDigraph, TemporalEdge, TemporalGraph, underlying_graph
from tempobet.oracle import (
    OracleCapError,
    brandes_static,
    enumerate_walks,
    oracle_betweenness,
    oracle_node_betweenness,
)

from conftest import make_random_graph


def test_single_edge_graph_has_one_walk():
    g = TemporalGraph(2, [TemporalEdge(0, 1, 3, 1)])
    assert enumerate_walks(g, 0) == [(0,)]
    assert enumerate_walks(g, 1) == []


def test_toy_walks_to_d(toy):
    walks = enumerate_walks(toy, 0, None)
    to_d = {w for w in walks if toy.edges[w[-1]].head == 3}
    assert to_d == {(0, 4), (2, 3), (0, 1, 3)}


def test_toy_walks_beta0_excludes_long_wait(toy):
    walks = enumerate_walks(toy, 0, 0)
    to_d = {w for w in walks if toy.edges[w[-1]].head == 3}
    assert (0, 4) not in to_d
    assert to_d == {(2, 3), (0, 1, 3)}


def test_waiting_window_is_inclusive():
    # dep(f) == arr(e) extends even at beta=0
    g = TemporalGraph(3, [TemporalEdge(0, 1, 1, 1), TemporalEdge(1, 2, 2, 1)])
    assert (0, 1) in enumerate_walks(g, 0, 0)


def test_walk_cap_guardrail():
    # complete-ish graph with many parallel edges blows up fast
    edges = [
        TemporalEdge(u, v, t, 1)
        for t in range(1, 10)
        for u, v in itertools.permutations(range(4), 2)
    ]
    g = TemporalGraph(4, edges)
    with pytest.raises(OracleCapError):
        enumerate_walks(g, 0, None, cap=100)


def test_enumerated_walks_are_valid_and_distinct():
    rng = random.Random(3)
    for _ in range(25):
        g = make_random_graph(rng)
        for beta in (0, 2, None):
            for s in range(g.n):
                walks = enumerate_walks(g, s, beta)
                assert len(set(walks)) == len(walks)
                for w in walks:
                    assert g.edges[w[0]].tail == s
                    for a, b in zip(w, w[1:]):
                        ea, eb = g.edges[a], g.edges[b]
                        assert eb.tail == ea.head
                        assert ea.arr <= eb.dep
                        if beta is not None:
                            assert eb.dep <= ea.arr + beta
                        assert ea.dep < eb.dep  # strictness


@pytest.mark.parametrize("beta", [-1, 1.5, True, "3"])
def test_oracle_rejects_bad_beta(toy, beta):
    with pytest.raises(ConfigError):
        oracle_betweenness(toy, get_criterion("sh"), beta)
    with pytest.raises(ConfigError):
        enumerate_walks(toy, 0, beta)


def test_oracle_takes_inf_and_a_criterion_name(toy):
    want = oracle_node_betweenness(toy, get_criterion("sh"), None)
    assert oracle_node_betweenness(toy, "sh", "inf") == want
    assert oracle_betweenness(toy, "sh", "inf").beta is None


# Frozen fixture values, derived from the enumerator and re-checked by hand.
def test_fixture_values_toy(toy):
    sh, sfo = get_criterion("sh"), get_criterion("sfo")
    assert oracle_node_betweenness(toy, sh, None) == {
        "a": F(0), "b": F(1, 2), "c": F(1, 2), "d": F(0)
    }
    assert oracle_node_betweenness(toy, sh, 0) == {
        "a": F(0), "b": F(0), "c": F(1), "d": F(0)
    }
    assert oracle_node_betweenness(toy, sfo, None) == {
        "a": F(0), "b": F(0), "c": F(2), "d": F(0)
    }


def test_fixture_values_loop(loop):
    sh = get_criterion("sh")
    # with unrestricted waiting the two-hop a->z walk kills the long one
    assert oracle_node_betweenness(loop, sh, None) == {
        "a": F(0), "x": F(3), "y": F(0), "z": F(0)
    }
    # beta=1 forbids it; the only a->z walk revisits x (multiplicity 2)
    assert oracle_node_betweenness(loop, sh, 1) == {
        "a": F(0), "x": F(4), "y": F(1), "z": F(0)
    }
    rep = oracle_betweenness(loop, sh, 1)
    assert rep.sigma_star_set[(0, 0, 3)] == 1  # a->x edge on the a->z walk
    assert rep.sigma_star_set[(0, 2, 3)] == 1  # y->x edge on the same walk


def test_empty_graph_all_zero():
    g = TemporalGraph(3, [])
    rep = oracle_betweenness(g, get_criterion("sh"), None)
    assert rep.node_bc == [F(0)] * 3 and not rep.sigma_star_st


@pytest.mark.parametrize("crit_name", CRITERION_NAMES)
def test_prefix_of_optimal_walk_is_optimal(crit_name):
    """Every prefix of a walk that is cost-optimal to its last edge is
    itself cost-optimal to the prefix's last edge."""
    crit = get_criterion(crit_name)
    rng = random.Random(11)
    for _ in range(15):
        g = make_random_graph(rng, n_max=5, m_max=10)
        for beta in (1, None):
            for s in range(g.n):
                walks = enumerate_walks(g, s, beta)
                from tempobet.costs import walk_cost

                best: dict[int, object] = {}
                for w in walks:
                    c = walk_cost([g.edges[i] for i in w], crit)
                    last = w[-1]
                    if last not in best or c < best[last]:
                        best[last] = c
                for w in walks:
                    c = walk_cost([g.edges[i] for i in w], crit)
                    if c != best[w[-1]]:
                        continue
                    for cut in range(1, len(w)):
                        pc = walk_cost([g.edges[i] for i in w[:cut]], crit)
                        assert pc == best[w[cut - 1]]


@pytest.mark.parametrize("crit_name", CRITERION_NAMES)
def test_target_optimal_implies_cost_optimal(crit_name):
    """A target-optimal walk to t is cost-optimal among walks ending with
    its own last edge."""
    crit = get_criterion(crit_name)
    rng = random.Random(13)
    for _ in range(15):
        g = make_random_graph(rng, n_max=5, m_max=10)
        for beta in (0, None):
            rep = oracle_betweenness(g, crit, beta)
            for (s, e), count in rep.sigma_star_se.items():
                assert count <= rep.sigma_se[(s, e)]
                if count:
                    assert count == rep.sigma_se[(s, e)]


@pytest.mark.parametrize("crit_name", CRITERION_NAMES)
def test_suffix_count_factorization(crit_name):
    """Optimal s->t walks through e = (optimal walks ending at e) times
    (distinct suffixes), for every triple."""
    crit = get_criterion(crit_name)
    rng = random.Random(17)
    for _ in range(15):
        g = make_random_graph(rng, n_max=5, m_max=10)
        for beta in (1, None):
            rep = oracle_betweenness(g, crit, beta)
            for (s, e, t), cnt in rep.sigma_star_set.items():
                assert cnt == rep.sigma_se[(s, e)] * rep.theta[(s, e, t)]


@pytest.mark.parametrize("crit_name", ["sh", "sfo", "fa"])
def test_edge_score_recursion_from_oracle_quantities(crit_name):
    """Edge score = count(e) * sum over successors of score/count, plus the
    terminal share when e itself ends a target-optimal walk."""
    crit = get_criterion(crit_name)
    rng = random.Random(19)
    for _ in range(12):
        g = make_random_graph(rng, n_max=5, m_max=10)
        for beta in (2, None):
            rep = oracle_betweenness(g, crit, beta)
            sigma_star_v: dict[tuple[int, int], int] = {}
            for (s, e), cnt in rep.sigma_star_se.items():
                v = g.edges[e].head
                sigma_star_v[(s, v)] = sigma_star_v.get((s, v), 0) + cnt
            for (s, e), b_se in rep.edge_bc.items():
                v = g.edges[e].head
                total = F(0)
                for f in rep.successors.get((s, e), ()):
                    total += rep.edge_bc[(s, f)] / rep.sigma_se[(s, f)]
                total *= rep.sigma_se[(s, e)]
                star = rep.sigma_star_se.get((s, e), 0)
                if star and v != s:
                    total += F(star, sigma_star_v[(s, v)])
                assert total == b_se


def test_node_scores_sum_to_mean_interior_multiplicity():
    crit = get_criterion("sh")
    rng = random.Random(23)
    for _ in range(10):
        g = make_random_graph(rng, n_max=5, m_max=10)
        rep = oracle_betweenness(g, crit, None)
        total = sum(rep.node_bc, F(0))
        expected = F(0)
        for (s, t), denom in rep.sigma_star_st.items():
            interior = sum(
                cnt
                for (s2, e, t2), cnt in rep.sigma_star_set.items()
                if s2 == s and t2 == t and g.edges[e].head not in (s, t)
            )
            expected += F(interior, denom)
        assert total == expected


def test_brandes_three_path():
    sg = StaticDigraph(3, [(0, 1), (1, 2)])
    assert brandes_static(sg) == [F(0), F(1), F(0)]


def test_brandes_empty():
    assert brandes_static(StaticDigraph(4, [])) == [F(0)] * 4


def _naive_static_betweenness(sg: StaticDigraph) -> list[F]:
    """Independent recomputation: enumerate all shortest paths per pair."""
    adj = [[] for _ in range(sg.n)]
    for u, v in sg.edges:
        adj[u].append(v)

    def all_shortest_paths(s, t):
        dist = {s: 0}
        q = deque([s])
        while q:
            x = q.popleft()
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    q.append(y)
        if t not in dist:
            return []
        paths = []

        def walk(node, acc):
            if node == t:
                paths.append(list(acc))
                return
            for y in adj[node]:
                if dist.get(y) == dist[node] + 1 and dist[y] <= dist[t]:
                    acc.append(y)
                    walk(y, acc)
                    acc.pop()

        walk(s, [s])
        return [p for p in paths if len(p) - 1 == dist[t]]

    bc = [F(0)] * sg.n
    for s in range(sg.n):
        for t in range(sg.n):
            if s == t:
                continue
            paths = all_shortest_paths(s, t)
            if not paths:
                continue
            for p in paths:
                for u in p[1:-1]:
                    bc[u] += F(1, len(paths))
    return bc


def test_brandes_matches_naive_on_toy_underlying(toy):
    sg = underlying_graph(toy)
    assert brandes_static(sg) == _naive_static_betweenness(sg)


def test_brandes_matches_naive_on_random_graphs():
    rng = random.Random(29)
    for _ in range(15):
        g = make_random_graph(rng, n_max=6, m_max=14)
        sg = underlying_graph(g)
        assert brandes_static(sg) == _naive_static_betweenness(sg)
