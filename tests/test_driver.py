from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

import tempobet
from tempobet.costs import CRITERION_NAMES, ConfigError, Criterion, get_criterion
from tempobet.driver import (
    BLOCK,
    _add_scaled,
    _block_sums,
    node_betweenness,
    revisit_continuations,
    single_source_edge_betweenness,
)
from tempobet.estimator import TemporalBetweenness
from tempobet.graph import (
    TemporalEdge,
    TemporalGraph,
    build_sorted_representation,
    random_temporal_graph,
)
from tempobet.oracle import oracle_betweenness

from conftest import direct_latest_departure, make_random_graph


def test_no_edges_all_zero(toy):
    g = TemporalGraph(4, [])
    assert node_betweenness(g, "sh").values == [F(0)] * 4
    assert node_betweenness(toy, "sh", sources=[]).values == [F(0)] * 4  # nor sources


def test_toy_node_values(toy):
    assert node_betweenness(toy, "sh", None).as_dict() == {
        "a": F(0), "b": F(1, 2), "c": F(1, 2), "d": F(0)
    }


def test_loop_per_occurrence_multiplicity(loop):
    # at beta=1 the only a->z walk passes x twice; both passes count
    assert node_betweenness(loop, "sh", 1).as_dict() == {
        "a": F(0), "x": F(4), "y": F(1), "z": F(0)
    }


def test_matches_oracle_node_scores_all_criteria():
    rng = random.Random(53)
    for _ in range(8):
        g = make_random_graph(rng, n_max=6, m_max=14)
        for crit_name in CRITERION_NAMES:
            for beta in (1, None):
                got = node_betweenness(g, crit_name, beta).values
                want = oracle_betweenness(g, get_criterion(crit_name), beta).node_bc
                assert got == want


def test_worker_count_invariance(toy):
    base = node_betweenness(toy, "sh", None, workers=1)
    for workers in (2, 8):
        assert node_betweenness(toy, "sh", None, workers=workers).values == base.values


def test_single_worker_run_loads_no_process_pool():
    """Only a run that makes a pool imports concurrent.futures, which
    pulls in logging: the library's single-worker default loads neither."""
    script = (
        "import sys, tempobet\n"
        "g = tempobet.random_temporal_graph(40, 400, 100, 1)\n"
        "assert len(tempobet.node_betweenness(g, 'sh', workers=1).values) == 40\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(tempobet.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_source_subset_additivity():
    rng = random.Random(59)
    g = make_random_graph(rng, n_max=6, m_max=14)
    full = node_betweenness(g, "sfo", 2)
    half_a = node_betweenness(g, "sfo", 2, sources=list(range(0, g.n, 2)))
    half_b = node_betweenness(g, "sfo", 2, sources=list(range(1, g.n, 2)))
    merged = [a + b for a, b in zip(half_a.values, half_b.values)]
    assert merged == full.values
    assert half_a.source_count + half_b.source_count == g.n


@pytest.mark.parametrize("crit_name", ["la", "sla"])
def test_latest_departure_source_subsets_match_direct_reference(crit_name):
    """la and sla run on the reversed graph from every node, with the
    sources as its targets; any source subset must give the scores of
    la or sla aggregated over those sources on the graph itself."""
    rng = random.Random(67)
    revisits = 0
    for _ in range(40):
        g = make_random_graph(rng)
        rep = build_sorted_representation(g)
        for beta in (None, 0, 2):
            revisits += any(revisit_continuations(rep, beta))
            for sources in (range(0, g.n, 2), range(1, g.n, 2), [rng.randrange(g.n)], []):
                got = node_betweenness(g, crit_name, beta, sources=sources)
                want = direct_latest_departure(g, crit_name, beta, sources)
                assert got.values == want, (g.edges, beta, list(sources))
                assert got.source_count == len(sources) and got.criterion == crit_name
    assert revisits >= 10  # the corpus holds la walks that revisit their target


@pytest.fixture(scope="module")
def many_blocks() -> TemporalGraph:
    # 60 sources make four blocks; departures up to 100 give la revisits
    g = random_temporal_graph(60, 1500, 100, 7)
    assert g.n > 3 * BLOCK
    return g


@pytest.mark.parametrize("crit_name, beta", [("sh", None), ("la", 2)])
def test_block_sums_invariant_and_additive(many_blocks, crit_name, beta):
    g = many_blocks
    exact = node_betweenness(g, crit_name, beta).values
    assert sum(1 for x in exact if x.denominator > 1) > 10
    for workers in (2, 8):
        assert node_betweenness(g, crit_name, beta, workers=workers).values == exact
    parts = [node_betweenness(g, crit_name, beta, sources=range(r, g.n, 3)).values
             for r in range(3)]
    assert [a + b + c for a, b, c in zip(*parts)] == exact
    fast = node_betweenness(g, crit_name, beta, mode="fast").values
    assert fast == [float(x) for x in exact]
    for workers in (2, 8):
        assert node_betweenness(g, crit_name, beta, mode="fast", workers=workers).values == fast


@pytest.mark.parametrize("workers", [1, 2])
def test_latest_departure_target_sets_add_up(many_blocks, workers):
    """la over three disjoint source sets, each a target set of the
    reversed graph that spans all four blocks, adds up to the full run,
    which equals the direct aggregation with the revisit table."""
    g = many_blocks
    rep = build_sorted_representation(g)
    assert any(revisit_continuations(rep, 2))
    full = node_betweenness(g, "la", 2, workers=workers).values
    assert full == direct_latest_departure(g, "la", 2)
    parts = [node_betweenness(g, "la", 2, sources=range(r, g.n, 3), workers=workers).values
             for r in range(3)]
    assert [a + b + c for a, b, c in zip(*parts)] == full
    assert parts[1] == direct_latest_departure(g, "la", 2, range(1, g.n, 3))


def test_merge_rescales_running_lcm(many_blocks):
    """Block sums are merged as ints over one running lcm; a block whose
    D does not divide it rescales the totals, and each node's Fraction
    equals the sum of the per-block Fraction(N, D)."""
    g = many_blocks
    rep = build_sorted_representation(g)
    crit = get_criterion("sh")
    config = (rep, crit, None, "auto", None)
    want = [F(0)] * g.n
    lcm, rescales = 1, 0
    for i in range(0, g.n, BLOCK):
        d, sums = _block_sums(*config, list(range(i, min(g.n, i + BLOCK))))
        rescales += lcm > 1 and lcm % d != 0
        lcm = math.lcm(lcm, d)
        for u, x in sums:
            want[u] += F(x, d)
    assert rescales >= 1
    assert node_betweenness(g, "sh").values == want


def test_add_scaled_takes_over_first_denominator():
    """An lcm of 0 marks totals nothing was added to: the first
    denominator is taken over as it is, and a later one that does not
    divide the lcm rescales the totals."""
    total = [0, 0, 0]
    assert _add_scaled(total, 0, 6, [(1, 5), (2, 0)]) == 6 and total == [0, 5, 0]
    assert _add_scaled(total, 6, 3, [(2, 1)]) == 6 and total == [0, 5, 2]
    assert _add_scaled(total, 6, 4, [(0, 1)]) == 12 and total == [3, 10, 4]


def test_fast_mode_close_to_exact():
    rng = random.Random(61)
    for _ in range(6):
        g = make_random_graph(rng)
        exact = node_betweenness(g, "sh", 1, mode="exact").values
        fast = node_betweenness(g, "sh", 1, mode="fast").values
        for x, f in zip(exact, fast):
            if x != 0:
                assert abs(f - float(x)) / float(x) < 1e-9
            else:
                assert f == 0.0


def test_result_metadata(loop):
    res = node_betweenness(loop, "fa", 2, mode="fast")
    assert res.criterion == "fa" and res.beta == 2
    assert res.source_count == 4 and res.mode == "fast"
    ranked = res.ranking()
    assert ranked[0][1] == max(res.values)


def test_invalid_configuration():
    g = TemporalGraph(2, [])
    with pytest.raises(ConfigError):
        node_betweenness(g, "sh", mode="wrong")
    with pytest.raises(ConfigError):
        node_betweenness(g, "nope")
    with pytest.raises(ConfigError):
        node_betweenness(g, "sh", workers=0)
    with pytest.raises(ConfigError):
        node_betweenness(g, "sh", 3, engine="nonrestless")


@pytest.mark.parametrize("workers", [1, 2])
def test_only_table_criterion_objects_accepted(workers):
    """Workers, time reversal and the lean fo source go by a criterion's name, so a
    Criterion object other than the table's own is rejected whatever the
    worker count; the table's own object gives the name's result."""
    g = random_temporal_graph(40, 300, 100, 3)  # 40 sources: three blocks
    fa = get_criterion("fa")
    for name in ("la", "mine"):
        foreign = Criterion(name, fa.gamma, fa.extend, fa.tc)
        with pytest.raises(ConfigError):
            node_betweenness(g, foreign, 2, workers=workers)
        with pytest.raises(ConfigError):
            single_source_edge_betweenness(build_sorted_representation(g), 0, foreign, 2)
    res = node_betweenness(g, get_criterion("la"), 2, workers=workers)
    assert res.values == node_betweenness(g, "la", 2).values


@pytest.mark.parametrize(
    "kwargs",
    [
        {"criterion": "fa", "beta": -1},
        {"beta": 1.5},
        {"beta": "3"},
        {"sources": [0, 0]},
        {"sources": [99]},
        {"engine": "foo"},
        {"workers": 1.5},
    ],
    ids=["beta-negative", "beta-float", "beta-str", "sources-repeat",
         "sources-range", "engine-unknown", "workers-float"],
)
def test_bad_input_raises_config_error(toy, kwargs):
    with pytest.raises(ConfigError):
        node_betweenness(toy, **kwargs)


@pytest.mark.parametrize(
    "labels", [["a", "b"], ["a", "a", "c"], ["a", "b", "c", "d"]],
    ids=["too-few", "repeat", "too-many"],
)
def test_bad_labels_raise_config_error(labels):
    # too few labels would drop a node from as_dict(), a repeat would merge two
    g = TemporalGraph(3, [TemporalEdge(0, 1, 1, 1), TemporalEdge(1, 2, 2, 1)], labels)
    match = "a graph of 3 nodes needs 3 distinct labels"
    with pytest.raises(ConfigError, match=match):
        node_betweenness(g, "sh")
    with pytest.raises(ConfigError, match=match):
        TemporalBetweenness().fit(g)


@pytest.mark.parametrize(
    "source, beta",
    [(99, None), (-1, None), (0, -1), (0, "3")],
    ids=["source-range", "source-negative", "beta-negative", "beta-str"],
)
def test_single_source_bad_input_raises_config_error(toy, source, beta):
    rep = build_sorted_representation(toy)
    with pytest.raises(ConfigError):
        single_source_edge_betweenness(rep, source, "sh", beta)


@pytest.mark.parametrize(
    "edge, match",
    [
        (TemporalEdge(2, 1, 5, -1), "edge 1: need distinct ids below 3 and travel >= 1"),
        (TemporalEdge(0, 1, 1, 1.0), "edge 1: endpoints and times must be ints"),
        (TemporalEdge(0, 1, 1, True), "edge 1: endpoints and times must be ints"),
        (TemporalEdge(0, 1, 1.5, 1), "edge 1: endpoints and times must be ints"),
        (TemporalEdge(0, 3, 1, 1), "edge 1: need distinct ids below 3 and travel >= 1"),
        (TemporalEdge(-1, 1, 1, 1), "edge 1: need distinct ids below 3 and travel >= 1"),
        (TemporalEdge(2, 2, 1, 1), "edge 1: need distinct ids below 3 and travel >= 1"),
        ((0, 1, 1, 1), "edge 1: need a TemporalEdge, got \\(0, 1, 1, 1\\)"),
        ("0111", "edge 1: need a TemporalEdge, got '0111'"),
        (None, "edge 1: need a TemporalEdge, got None"),
    ],
    ids=["travel-negative", "travel-float", "travel-bool",
         "dep-float", "head-range", "tail-negative", "self-loop",
         "plain-tuple", "str", "none"],
)
def test_bad_graph_raises_config_error(edge, match):
    g = TemporalGraph(3, [TemporalEdge(1, 2, 5, 1), edge])
    for crit_name in ("fo", "la"):  # la checks G before reversing it
        with pytest.raises(ConfigError, match=match):
            node_betweenness(g, crit_name)


def test_zero_travel_cycle_raises_config_error():
    # 1 -> 2 -> 1 at time 5 repeats forever: infinitely many walks, to
    # which the engines would give finite scores
    g = TemporalGraph(3, [TemporalEdge(1, 2, 5, 0), TemporalEdge(2, 1, 5, 0)])
    with pytest.raises(ConfigError, match="edge 0: need distinct ids below 3 and travel >= 1"):
        node_betweenness(g, "fo")


def test_single_source_path_rejects_bad_graph():
    # the same cycle behind a 0 -> 1 edge: the per-source path used to
    # return finite edge scores [2, 1, 0] for fo from source 0
    g = TemporalGraph(3, [TemporalEdge(0, 1, 1, 1), TemporalEdge(1, 2, 5, 0),
                          TemporalEdge(2, 1, 5, 0)])
    with pytest.raises(ConfigError, match="edge 1: need distinct ids below 3 and travel >= 1"):
        single_source_edge_betweenness(build_sorted_representation(g), 0, "fo", None)
