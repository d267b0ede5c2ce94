from __future__ import annotations

import io
import random
import tracemalloc
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempobet import graph as graph_mod
from tempobet.driver import node_betweenness
from tempobet.graph import (
    ParseError,
    TemporalEdge,
    TemporalGraph,
    build_sorted_representation,
    parse_edge_list,
    random_temporal_graph,
    reversed_representation,
    to_edge_list,
    underlying_graph,
)
from tempobet.oracle import enumerate_walks

from conftest import make_random_graph


def test_parse_empty_stream():
    g = parse_edge_list("")
    assert g.n == 0 and g.m == 0


def test_parse_three_token_lines_default_travel():
    g = parse_edge_list("a b 1\nb c 2\n")
    assert g.n == 3 and g.m == 2
    assert g.labels == ["a", "b", "c"]
    assert g.edges == [TemporalEdge(0, 1, 1, 1), TemporalEdge(1, 2, 2, 1)]


def test_parse_undirected_doubles_edges():
    g = parse_edge_list("a b 1", undirected=True)
    assert g.m == 2
    assert g.edges == [TemporalEdge(0, 1, 1, 1), TemporalEdge(1, 0, 1, 1)]


def test_parse_four_token_and_comments_and_tabs():
    g = parse_edge_list("# comment\nu\tv\t3\t2\n\n  w v 5\n")
    assert g.m == 2
    assert g.edges[0] == TemporalEdge(0, 1, 3, 2)
    assert g.edges[0].arr == 5


def test_parse_crlf_lines():
    g = parse_edge_list("a b 1\r\nb c 2\r\n")
    assert g.m == 2


def test_parse_utf8_labels():
    g = parse_edge_list("αλφα βήτα 1\nβήτα γάμα 2\n")
    assert g.labels == ["αλφα", "βήτα", "γάμα"]


@pytest.mark.parametrize(
    "text,line_no",
    [
        ("a b\n", 1),
        ("a b 1 2 3\n", 1),
        ("a b one\n", 1),
        ("a b 1\nc d 2 0\n", 2),
        ("a b 1\nc d 2 -3\n", 2),
        ("a b 1\nx x 4\n", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no):
    with pytest.raises(ParseError) as exc:
        parse_edge_list(text)
    assert exc.value.line_no == line_no


#: Texts whose lines end in every way ``str.splitlines()`` knows: CRLF, a
#: lone CR, and \x0c or \u2028 inside what a file reads as one line.
INGEST_TEXTS = [
    "# comment\r\na b 1\r\n\r\nb c 2\rc d 3 2",  # no newline at the end
    "a b 1\x0cb c 2\u2028c d 3\n\n  # indented comment\n",
]

INGEST_ERRORS = [
    ("a b 1\r\nb c 2\rc c 3\n", 3),
    ("a b 1\x0cb b 2\n", 2),
    ("# c\u2028\u2028a b 1 0", 3),
    ("a b 1\n\x0c\nc d x\n", 4),
    ("\r\n\r\na b\r\n", 3),
]


def _file_objects(tmp_path, text):
    """``text`` as a UTF-8 file read in each newline mode but '\\r', then
    as a StringIO."""
    path = tmp_path / "g.edges"
    path.write_bytes(text.encode("utf-8"))
    for newline in (None, "", "\n"):
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    yield io.StringIO(text)


@pytest.mark.parametrize("text", INGEST_TEXTS)
def test_file_object_parses_like_its_text(tmp_path, text):
    want = parse_edge_list(text)
    assert want.m == 3
    for fh in _file_objects(tmp_path, text):
        assert parse_edge_list(fh) == want


@pytest.mark.parametrize("text, line_no", INGEST_ERRORS)
def test_file_object_errors_carry_the_text_line_numbers(tmp_path, text, line_no):
    for source in chain([text], _file_objects(tmp_path, text)):
        with pytest.raises(ParseError) as exc:
            parse_edge_list(source)
        assert exc.value.line_no == line_no


def test_edge_records_are_plain_tuples():
    e = parse_edge_list("a b 5 2\n").edges[0]
    assert not hasattr(e, "__dict__")
    assert e == (0, 1, 5, 2) and e.arr == 7
    tail, head, dep, travel = e
    assert (e[0], e[2]) == (tail, dep) == (0, 5)
    with pytest.raises(AttributeError):
        e.dep = 6


def _traced_parse(source):
    """(graph, bytes kept, peak bytes) of parsing ``source`` under tracemalloc."""
    tracemalloc.start()
    try:
        g = parse_edge_list(source)
        return (g, *tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


def test_file_parse_peaks_near_what_the_graph_keeps(tmp_path):
    """A file is read one line at a time, so its text and a list of its
    lines are never held: the traced peak stays close to the graph."""
    path = tmp_path / "g.edges"
    path.write_text(to_edge_list(random_temporal_graph(1000, 20_000, 5000, 1)), encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        g, kept, peak = _traced_parse(fh)
    assert g.m == 20_000
    assert peak <= 1.2 * kept, (kept, peak)


@pytest.mark.parametrize("text", INGEST_TEXTS + [t for t, _ in INGEST_ERRORS])
def test_str_chunks_split_into_the_text_lines(monkeypatch, text):
    """A ``str`` is split one PARSE_CHUNK-sized piece at a time; a piece
    ends just after a newline, so at every size, 0 included, the lines,
    the graph and a ParseError's line number are those of
    ``text.splitlines()``."""
    try:  # the reference: text.splitlines(), one line per item
        want = parse_edge_list(line + "\n" for line in text.splitlines())
    except ParseError as exc:
        want = exc.line_no
    for size in range(len(text) + 2):
        monkeypatch.setattr(graph_mod, "PARSE_CHUNK", size)
        pieces = list(graph_mod._text_chunks(text))
        assert "".join(pieces) == text
        assert all(p.endswith("\n") for p in pieces[:-1])
        assert list(chain.from_iterable(map(str.splitlines, pieces))) == text.splitlines()
        try:
            got = parse_edge_list(text)
        except ParseError as exc:
            got = exc.line_no
        assert got == want, size


def test_str_parse_peaks_near_what_the_graph_keeps():
    """A ``str`` is split into lines one piece at a time, so a list of all
    its lines is never held: the traced peak stays close to the graph."""
    g, kept, peak = _traced_parse(to_edge_list(random_temporal_graph(1000, 20_000, 5000, 1)))
    assert g.m == 20_000
    assert peak <= 1.2 * kept, (kept, peak)


def test_round_trip_serialization():
    text = "a b 1 2\nb c 4 1\na c 2 3\n"
    g = parse_edge_list(text)
    g2 = parse_edge_list(to_edge_list(g))
    assert g2.n == g.n and g2.edges == g.edges and g2.labels == g.labels


def test_sorted_representation_singleton():
    g = TemporalGraph(2, [TemporalEdge(0, 1, 5, 2)])
    rep = build_sorted_representation(g)
    assert rep.e_arr == [0]
    assert rep.e_dep_node == [[0], []]
    assert rep.e_dep_node[0] == [0]
    assert rep.e_arr_dep == [0]


def test_sorted_representation_toy_stable_ties(toy):
    rep = build_sorted_representation(toy)
    # arrivals 2,3,3,4,5; the two arrival-3 edges keep input order
    assert rep.e_arr == [0, 1, 2, 3, 4]
    assert rep.arrs == [2, 3, 3, 4, 5]


def test_rep_keeps_one_int_object_per_value():
    """Equal arrivals share one object, and every position in e_dep_node
    is one of e_arr's own objects."""
    rep = build_sorted_representation(random_temporal_graph(200, 3000, 600, 1))
    assert len({id(t) for t in rep.arrs}) == len(set(rep.arrs)) < rep.m
    positions = {id(p) for p in rep.e_arr}
    assert all(id(p) in positions for lst in rep.e_dep_node for p in lst)


def _rep_fields(rep):
    return (rep.graph.edges, rep.e_arr, rep.e_dep_node, rep.dep_times, rep.e_arr_dep,
            rep.tails, rep.heads, rep.arrs)


def test_reversed_representation_is_the_reversed_graphs():
    """With no sources, the index is build_sorted_representation's of Gᴿ
    written out edge by edge: (u, v, dep, travel) -> (v, u, T - arr, travel)."""
    rng = random.Random(5)
    for g in [random_temporal_graph(200, 3000, 600, 1)] + [make_random_graph(rng) for _ in range(30)]:
        t = max(e.arr for e in g.edges) + 1
        r = TemporalGraph(g.n, [TemporalEdge(e.head, e.tail, t - e.arr, e.travel)
                                for e in g.edges], g.labels)
        rep = reversed_representation(g)
        assert _rep_fields(rep) == _rep_fields(build_sorted_representation(r))
        assert rep.graph.labels == g.labels and rep.graph.label_ids == g.label_ids


def test_reversed_representation_keeps_the_edges_of_walks_from_sources():
    """With sources, Gᴿ holds exactly the edges that some unbounded walk
    from them takes (the oracle's enumeration), in G's order."""
    rng = random.Random(41)
    kept_some = dropped_some = 0
    for _ in range(60):
        g = make_random_graph(rng)
        t = max(e.arr for e in g.edges) + 1
        for sources in ({0}, set(range(0, g.n, 2)), {rng.randrange(g.n)}, set()):
            used = sorted({i for s in sources for w in enumerate_walks(g, s) for i in w})
            want = [TemporalEdge(g.edges[i].head, g.edges[i].tail, t - g.edges[i].arr,
                                 g.edges[i].travel) for i in used]
            rep = reversed_representation(g, frozenset(sources))
            assert rep.graph.edges == want, (g.edges, sources)
            kept_some += 0 < len(used)
            dropped_some += len(used) < g.m
    assert kept_some > 50 and dropped_some > 50


def _assert_rep_invariants(g: TemporalGraph):
    rep = build_sorted_representation(g)
    m = g.m
    assert sorted(rep.e_arr) == list(range(m))
    assert sorted(p for lst in rep.e_dep_node for p in lst) == list(range(m))
    for a, b in zip(rep.arrs, rep.arrs[1:]):
        assert a <= b
    assert sum(len(lst) for lst in rep.e_dep_node) == m
    for v in range(g.n):
        node_deps = [g.edges[rep.e_arr[p]].dep for p in rep.e_dep_node[v]]
        assert node_deps == sorted(node_deps)
        assert rep.dep_times[v] == node_deps
        for p in rep.e_dep_node[v]:
            assert rep.tails[p] == v
    for pos in range(m):
        assert rep.e_dep_node[rep.tails[pos]][rep.e_arr_dep[pos]] == pos


def test_rep_invariants_random_graphs():
    rng = random.Random(7)
    for _ in range(40):
        _assert_rep_invariants(make_random_graph(rng))


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_edge_permutation_changes_nothing_downstream(rnd):
    """Shuffling input edge order may only reorder ties; betweenness is fixed."""
    rng = random.Random(rnd.randint(0, 10**9))
    g = make_random_graph(rng, n_max=5, m_max=10)
    base = node_betweenness(g, "sh", None).values
    perm = list(range(g.m))
    rng.shuffle(perm)
    g2 = TemporalGraph(g.n, [g.edges[i] for i in perm], labels=list(g.labels))
    assert node_betweenness(g2, "sh", None).values == base


def test_underlying_graph_empty():
    assert underlying_graph(TemporalGraph(3, [])).m == 0


def test_underlying_graph_collapses_parallel_edges():
    g = TemporalGraph(2, [TemporalEdge(0, 1, 1, 1), TemporalEdge(0, 1, 7, 2)])
    assert underlying_graph(g).m == 1


def test_underlying_graph_toy(toy):
    sg = underlying_graph(toy)
    assert sg.m == 5
    assert set(sg.edges) == {(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)}


def test_parallel_identical_edges_allowed():
    g = parse_edge_list("a b 1 1\na b 1 1\n")
    assert g.m == 2


@pytest.mark.parametrize("seed", range(4))
def test_windows_match_departures_per_edge(seed):
    """win_lo[k] counts the head's out-edges departing before edge k
    arrives, win_hi[k] those departing no later than its arrival plus
    beta; the table is built on first use and then kept."""
    rep = build_sorted_representation(random_temporal_graph(12, 150, 40, seed))
    assert rep._windows == {}
    for beta in (0, 1, 3, None):
        table = rep.windows(beta)
        for k, (v, arr) in enumerate(zip(rep.heads, rep.arrs)):
            deps = rep.dep_times[v]
            assert table[0][k] == sum(d < arr for d in deps)
            assert table[1][k] == sum(beta is None or d <= arr + beta for d in deps)
        assert rep.windows(beta) is table
    assert list(rep._windows) == [0, 1, 3, None]


def test_build_time_scales_near_linearithmically():
    import time

    medians = []
    for m in (60_000, 120_000):
        g = random_temporal_graph(500, m, t_max=m // 4, seed=3)
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            build_sorted_representation(g)
            runs.append(time.perf_counter() - start)
        medians.append(sorted(runs)[1])
    assert medians[1] / medians[0] <= 4.0
