from __future__ import annotations

import random
from fractions import Fraction

import pytest

from tempobet.cli import main
from tempobet.graph import to_edge_list

from conftest import make_random_graph

TOY = "a b 1\nb c 2\na c 2\nc d 3\nb d 4\n"
LOOP = "a x 1\nx y 2\ny x 3\nx z 4\n"


@pytest.fixture
def toy_file(tmp_path) -> str:
    p = tmp_path / "toy.edges"
    p.write_text(TOY)
    return str(p)


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_toy_exact(capsys, toy_file):
    code, out, err = run(capsys, "compute", "--input", toy_file, "--criterion", "sh", "--beta", "inf")
    assert code == 0
    assert out.splitlines() == ["node,betweenness", "b,1/2", "c,1/2", "a,0", "d,0"]
    assert err.startswith("n=4 M=5 T=4 criterion=sh beta=inf")


def test_compute_beta_zero_first_row(capsys, toy_file):
    code, out, _ = run(capsys, "compute", "--input", toy_file, "--criterion", "sh", "--beta", "0")
    assert code == 0
    assert out.splitlines()[1].startswith("c,")


def test_compute_fast_mode_format(capsys, toy_file):
    code, out, _ = run(capsys, "compute", "--input", toy_file, "--mode", "fast")
    assert code == 0
    assert out.splitlines()[1] == "b,0.500000000000"


def test_unknown_criterion_exits_3(capsys, toy_file):
    code, _, err = run(capsys, "compute", "--input", toy_file, "--criterion", "xx")
    assert code == 3 and "criterion" in err


def test_bad_beta_exits_3(capsys, toy_file):
    code, _, _ = run(capsys, "compute", "--input", toy_file, "--beta", "-2")
    assert code == 3


def test_parse_error_exits_2(capsys, tmp_path):
    p = tmp_path / "bad.edges"
    p.write_text("a b 1\nb b 2\n")
    code, _, err = run(capsys, "compute", "--input", str(p))
    assert code == 2 and "line 2" in err


def test_oracle_byte_identical_to_compute(capsys, tmp_path):
    rng = random.Random(67)
    for i in range(4):
        g = make_random_graph(rng, n_max=5, m_max=10)
        p = tmp_path / f"g{i}.edges"
        p.write_text(to_edge_list(g))
        for crit, beta in (("sh", "inf"), ("sfo", "1"), ("fa", "2")):
            out_a = tmp_path / "a.csv"
            out_b = tmp_path / "b.csv"
            code, _, _ = run(capsys, "compute", "--input", str(p), "--criterion", crit,
                             "--beta", beta, "--output", str(out_a))
            assert code == 0
            code, _, _ = run(capsys, "oracle", "--input", str(p), "--criterion", crit,
                             "--beta", beta, "--output", str(out_b))
            assert code == 0
            assert out_a.read_bytes() == out_b.read_bytes()


def test_oracle_empty_graph_header_only(capsys, tmp_path):
    p = tmp_path / "empty.edges"
    p.write_text("# nothing here\n")
    code, out, _ = run(capsys, "oracle", "--input", str(p))
    assert code == 0 and out == "node,betweenness\n"


def test_oracle_loop_top_row(capsys, tmp_path):
    p = tmp_path / "loop.edges"
    p.write_text(LOOP)
    code, out, _ = run(capsys, "oracle", "--input", str(p), "--criterion", "sh")
    assert code == 0
    assert out.splitlines()[1].startswith("x,")


def test_oracle_cap_exits_5(capsys, tmp_path):
    # dense parallel edges blow past any small cap quickly; shrink the cap
    import tempobet.cli as cli_mod
    import tempobet.oracle as oracle_mod

    lines = [
        f"n{u} n{v} {t}" for t in range(1, 9) for u in range(3) for v in range(3) if u != v
    ]
    p = tmp_path / "dense.edges"
    p.write_text("\n".join(lines) + "\n")
    old_cap = oracle_mod.DEFAULT_WALK_CAP
    import unittest.mock as mock

    with mock.patch.object(cli_mod, "oracle_betweenness",
                           lambda g, c, b: oracle_mod.oracle_betweenness(g, c, b, cap=50)):
        code, _, err = run(capsys, "oracle", "--input", str(p))
    assert code == 5 and "cap" in err
    assert oracle_mod.DEFAULT_WALK_CAP == old_cap


def test_static_three_path(capsys, tmp_path):
    p = tmp_path / "path.edges"
    p.write_text("u v 1\nv w 2\n")
    code, out, _ = run(capsys, "static", "--input", str(p))
    assert code == 0
    assert out.splitlines() == ["node,betweenness", "v,1", "u,0", "w,0"]


def test_static_toy(capsys, toy_file):
    code, out, _ = run(capsys, "static", "--input", toy_file)
    assert code == 0
    assert out.splitlines()[1:3] == ["b,1/2", "c,1/2"]


def test_compare_identical_kendall(capsys, toy_file, tmp_path):
    out_csv = tmp_path / "s.csv"
    run(capsys, "compute", "--input", toy_file, "--output", str(out_csv))
    code, out, _ = run(capsys, "compare", str(out_csv), str(out_csv), "--metric", "kendall")
    assert code == 0 and out.strip() == "1.000000"


def test_compare_reversed_kendall(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("node,betweenness\nw,3\nx,2\ny,1\nz,0\n")
    b.write_text("node,betweenness\nw,0\nx,1\ny,2\nz,3\n")
    code, out, _ = run(capsys, "compare", str(a), str(b), "--metric", "kendall")
    assert code == 0 and out.strip() == "-1.000000"


def test_compare_wkendall_and_topk(capsys, tmp_path):
    a = tmp_path / "a.csv"
    a.write_text("node,betweenness\nw,3\nx,2\ny,1\nz,0\n")
    code, out, _ = run(capsys, "compare", str(a), str(a), "--metric", "wkendall")
    assert code == 0 and out.strip() == "1.000000"
    code, out, _ = run(capsys, "compare", str(a), str(a), "--metric", "topk", "--k", "2")
    assert code == 0 and out.strip() == "2.000000"


def test_compare_label_mismatch_exits_6(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("node,betweenness\nx,1\ny,0\n")
    b.write_text("node,betweenness\nx,1\nz,0\n")
    code, _, _ = run(capsys, "compare", str(a), str(b), "--metric", "kendall")
    assert code == 6


@pytest.mark.parametrize("rows, reason", [
    ("x,1\ny,abc\n", "line 3: non-numeric score 'abc'"),
    ("x,1\ny,1/0\n", "line 3: non-numeric score '1/0'"),
    # kept silently, the last x row would make b rank like a reversed
    ("x,1\ny,0\nx,-1\n", "line 4: duplicate label 'x'"),
])
def test_compare_bad_score_row_exits_2(capsys, tmp_path, rows, reason):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("node,betweenness\nx,1\ny,0\n")
    b.write_text("node,betweenness\n" + rows)
    code, out, err = run(capsys, "compare", str(a), str(b), "--metric", "kendall")
    assert code == 2 and out == ""
    assert err.strip() == f"parse error: {reason}"


def test_compare_topk_k_too_large_exits_6(capsys, tmp_path):
    a = tmp_path / "a.csv"
    a.write_text("node,betweenness\nx,1\ny,0\n")
    code, _, _ = run(capsys, "compare", str(a), str(a), "--metric", "topk", "--k", "5")
    assert code == 6


def test_fast_mode_equals_float_of_exact_beyond_float_range(capsys, tmp_path):
    # a 1200-stage chain with 2 parallel edges per stage: walk counts
    # reach 2^1200, beyond float range, yet fast mode only rounds the
    # exact per-source scores, so it must print the float of each
    lines = []
    for i in range(1200):
        lines.append(f"u{i} u{i+1} {i + 1}")
        lines.append(f"u{i} u{i+1} {i + 1}")
    p = tmp_path / "chain.edges"
    p.write_text("\n".join(lines) + "\n")
    code, fast_out, _ = run(capsys, "compute", "--input", str(p), "--mode", "fast",
                            "--sources", "u0")
    assert code == 0
    code, exact_out, _ = run(capsys, "compute", "--input", str(p), "--mode", "exact",
                             "--sources", "u0")
    assert code == 0

    def rows(text):
        return dict(line.rsplit(",", 1) for line in text.splitlines()[1:])

    fast, exact = rows(fast_out), rows(exact_out)
    assert len(exact) == 1201 and fast.keys() == exact.keys()
    for label, value in exact.items():
        assert fast[label] == f"{float(Fraction(value)):.12f}", label


def test_bench_single_rep(capsys, toy_file):
    code, out, _ = run(capsys, "bench", "--input", toy_file, "--reps", "1", "--seed", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("rep 0 seconds ")
    assert sum(1 for ln in lines if ln.startswith("median_seconds ")) == 1
    assert any(ln.startswith("per_source_mean_seconds ") for ln in lines)


@pytest.mark.parametrize("criterion", ["la", "sh"])
def test_bench_times_window_table_only(capsys, tmp_path, criterion):
    """bench times the window table that every run builds once; no run
    builds a revisit table, so none is timed, la included."""
    p = tmp_path / "loop.edges"
    p.write_text(LOOP)
    code, out, _ = run(capsys, "bench", "--input", str(p), "--reps", "2",
                       "--criterion", criterion, "--beta", "1")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for ln in lines if ln.startswith("rep ")) == 2
    assert any(ln.startswith("per_source_mean_seconds ") for ln in lines)
    assert not any(ln.startswith("revisit_seconds ") for ln in lines)
    windows = [ln for ln in lines if ln.startswith("windows_seconds ")]
    assert len(windows) == 1 and float(windows[0].split()[1]) >= 0


@pytest.mark.parametrize("criterion, dual", [("la", "fo"), ("sla", "sfo")])
def test_bench_times_the_runs_compute_makes(capsys, tmp_path, monkeypatch, criterion, dual):
    """For la and sla, bench times the runs that compute makes: the dual on
    the reversed loop graph, to the chosen source x, from every node that
    keeps an out-edge once only the edges of walks from x are kept (a->x
    is not one, so a is no source)."""
    from tempobet import cli

    p = tmp_path / "loop.edges"
    p.write_text(LOOP)
    calls = []
    original = cli.single_source_edge_betweenness

    def recording(rep, s, crit, beta, engine, targets):
        calls.append((s, crit.name, targets))
        return original(rep, s, crit, beta, engine, targets)

    monkeypatch.setattr(cli, "single_source_edge_betweenness", recording)
    code, _, _ = run(capsys, "bench", "--input", str(p), "--criterion", criterion,
                     "--beta", "2", "--sources", "x")
    assert code == 0
    assert calls == [(s, dual, frozenset({1})) for s in (1, 2, 3)]  # x, y, z
    code, _, err = run(capsys, "bench", "--input", str(p), "--sources", "x,x")
    assert code == 3 and "repeat" in err


@pytest.mark.parametrize("reps", ["0", "-1"])
def test_bench_rejects_reps_below_one(capsys, tmp_path, reps):
    p = tmp_path / "chain.edges"
    p.write_text("a b 1\nb c 3\n")
    code, out, err = run(capsys, "bench", "--input", str(p), "--reps", reps)
    assert code == 3
    assert out == "" and "--reps" in err


def test_bench_explicit_sources(capsys, toy_file):
    code, out, _ = run(capsys, "bench", "--input", toy_file, "--reps", "2",
                       "--sources", "a,b", "--criterion", "sfo", "--beta", "1")
    assert code == 0
    assert sum(1 for ln in out.splitlines() if ln.startswith("rep ")) == 2


@pytest.mark.parametrize("sources, timed_count", [(None, 3), ("all", 4)])
def test_bench_sources_all_times_every_node(capsys, toy_file, monkeypatch, sources,
                                            timed_count):
    """An omitted --sources times a seeded sample of 3; 'all' every node,
    as in compute."""
    from tempobet import cli

    timed = []
    original = cli.single_source_edge_betweenness

    def recording(rep, s, *args):
        timed.append(s)
        return original(rep, s, *args)

    monkeypatch.setattr(cli, "single_source_edge_betweenness", recording)
    argv = ["bench", "--input", toy_file, "--seed", "1"]
    code, _, _ = run(capsys, *argv, *(["--sources", sources] if sources else []))
    assert code == 0
    assert timed == sorted(set(timed)) and len(timed) == timed_count


def test_compute_workers_identical_csv(capsys, toy_file, tmp_path):
    a = tmp_path / "w1.csv"
    b = tmp_path / "w2.csv"
    run(capsys, "compute", "--input", toy_file, "--output", str(a), "--workers", "1")
    run(capsys, "compute", "--input", toy_file, "--output", str(b), "--workers", "2")
    assert a.read_bytes() == b.read_bytes()


def test_sources_subset(capsys, toy_file):
    code, out, _ = run(capsys, "compute", "--input", toy_file, "--sources", "a,b")
    assert code == 0
    code2, _, err = run(capsys, "compute", "--input", toy_file, "--sources", "a,q")
    assert code2 == 3 and "unknown source" in err
