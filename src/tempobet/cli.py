"""Command-line interface.

Subcommands:
    compute  -- node betweenness via the fast engines, CSV out
    oracle   -- same CSV computed by the brute-force enumerator
    static   -- betweenness of the underlying static graph
    compare  -- correlation metric between two score CSVs
    bench    -- timing report for per-source engine runs

CSV schema: header ``node,betweenness``; one row per node with its
original label; rows sorted by descending score, then ascending label.
Exact mode prints integers or p/q rationals, fast mode fixed 12
decimals.

Exit codes: 2 parse error, 3 configuration error, 5 oracle cap
exceeded, 6 ranking/label mismatch.
"""
from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from fractions import Fraction

from .costs import ConfigError, get_criterion
from .driver import (
    check_beta,
    node_betweenness,
    revisit_continuations,
    single_source_edge_betweenness,
)
from .graph import (
    ParseError,
    TemporalGraph,
    build_sorted_representation,
    parse_edge_list,
    underlying_graph,
)
from .metrics import RankingError, kendall_tau, top_k_intersection, weighted_kendall_tau
from .oracle import OracleCapError, brandes_static, oracle_betweenness

EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_ORACLE_CAP = 5
EXIT_RANKING = 6


def _read_graph(path: str, undirected: bool) -> TemporalGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh, undirected=undirected)


def _format_value(v, mode: str) -> str:
    if mode == "fast":
        return f"{float(v):.12f}"
    return str(Fraction(v))


def _write_scores(path: str | None, rows: list[tuple[str, object]], mode: str) -> None:
    ordered = sorted(rows, key=lambda kv: (-_sort_key(kv[1]), kv[0]))
    lines = ["node,betweenness"]
    lines += [f"{label},{_format_value(val, mode)}" for label, val in ordered]
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _sort_key(v):
    return Fraction(v) if not isinstance(v, float) else v


def _read_scores(path: str) -> dict[str, Fraction]:
    scores: dict[str, Fraction] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "node,betweenness":
            raise ParseError(1, f"unexpected header {header!r}")
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            label, _, value = line.rpartition(",")
            if not label:
                raise ParseError(line_no, f"malformed score row {line!r}")
            scores[label] = Fraction(value)
    return scores


def _parse_sources(arg: str, graph: TemporalGraph) -> list[int] | None:
    if arg == "all":
        return None
    out = []
    for token in arg.split(","):
        token = token.strip()
        if token not in graph.label_ids:
            raise ConfigError(f"unknown source label {token!r}")
        out.append(graph.label_ids[token])
    return out


def _int_token(token: str) -> int | str:
    """``--beta`` value: an integer token as int, anything else as text
    for check_beta to accept ("inf") or reject."""
    try:
        return int(token)
    except ValueError:
        return token


def _summary(graph: TemporalGraph, criterion: str, beta, wall: float) -> None:
    beta_str = "inf" if beta is None else str(beta)
    print(
        f"n={graph.n} M={graph.m} T={graph.distinct_departures} "
        f"criterion={criterion} beta={beta_str} wall={wall:.3f}s",
        file=sys.stderr,
    )


def cmd_compute(args) -> int:
    get_criterion(args.criterion)
    beta = check_beta(args.beta)
    graph = _read_graph(args.input, args.undirected)
    sources = _parse_sources(args.sources, graph)
    start = time.perf_counter()
    result = node_betweenness(
        graph,
        criterion=args.criterion,
        beta=beta,
        sources=sources,
        mode=args.mode,
        workers=args.workers,
    )
    wall = time.perf_counter() - start
    _write_scores(args.output, list(result.as_dict().items()), args.mode)
    _summary(graph, args.criterion, beta, wall)
    return 0


def cmd_oracle(args) -> int:
    crit = get_criterion(args.criterion)
    beta = check_beta(args.beta)
    graph = _read_graph(args.input, args.undirected)
    start = time.perf_counter()
    report = oracle_betweenness(graph, crit, beta)
    wall = time.perf_counter() - start
    rows = [(graph.labels[u], report.node_bc[u]) for u in range(graph.n)]
    _write_scores(args.output, rows, "exact")
    _summary(graph, args.criterion, beta, wall)
    return 0


def cmd_static(args) -> int:
    graph = _read_graph(args.input, args.undirected)
    start = time.perf_counter()
    scores = brandes_static(underlying_graph(graph))
    wall = time.perf_counter() - start
    rows = [(graph.labels[u], scores[u]) for u in range(graph.n)]
    _write_scores(args.output, rows, "exact")
    _summary(graph, "static", None, wall)
    return 0


def cmd_compare(args) -> int:
    a = _read_scores(args.file_a)
    b = _read_scores(args.file_b)
    if args.metric == "kendall":
        value = kendall_tau(a, b)
    elif args.metric == "wkendall":
        value = weighted_kendall_tau(a, b)
    elif args.metric == "topk":
        if args.k is None:
            raise ConfigError("topk metric requires --k")
        value = top_k_intersection(a, b, args.k)
    else:
        raise ConfigError(f"unknown metric {args.metric!r}")
    print(f"{float(value):.6f}")
    return 0


def cmd_bench(args) -> int:
    crit = get_criterion(args.criterion)
    beta = check_beta(args.beta)
    if args.reps < 1:
        raise ConfigError(f"--reps must be at least 1, got {args.reps}")
    graph = _read_graph(args.input, args.undirected)
    rep = build_sorted_representation(graph)
    if args.sources is None:
        # default: a small seeded sample, enough for per-source timing
        sample = sorted(random.Random(args.seed).sample(range(graph.n), min(graph.n, 3)))
    else:
        sources = _parse_sources(args.sources, graph)
        sample = range(graph.n) if sources is None else sources
    times = []
    for r in range(args.reps):
        start = time.perf_counter()
        for s in sample:
            single_source_edge_betweenness(rep, s, crit, beta)
        times.append(time.perf_counter() - start)
        print(f"rep {r} seconds {times[-1]:.6f}")
    median = statistics.median(times)
    print(f"median_seconds {median:.6f}")
    if sample:
        print(f"per_source_mean_seconds {median / len(sample):.6f}")
    if crit.name == "la":
        # built once per la run, outside every per-source timing above
        start = time.perf_counter()
        revisit_continuations(rep, beta)
        print(f"revisit_seconds {time.perf_counter() - start:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tempobet", description="Exact temporal betweenness centrality."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, output=True):
        p.add_argument("--input", required=True, help="edge-list file")
        if output:
            p.add_argument("--output", default=None, help="CSV output (default stdout)")
        p.add_argument("--undirected", action="store_true", help="add both orientations")

    p = sub.add_parser("compute", help="node betweenness via the fast engines")
    add_io(p)
    p.add_argument("--criterion", default="sh")
    p.add_argument("--beta", default="inf", type=_int_token)
    p.add_argument("--mode", default="exact", choices=["exact", "fast"])
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--sources", default="all")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("oracle", help="node betweenness via brute force")
    add_io(p)
    p.add_argument("--criterion", default="sh")
    p.add_argument("--beta", default="inf", type=_int_token)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("static", help="Brandes betweenness of the underlying graph")
    add_io(p)
    p.set_defaults(func=cmd_static)

    p = sub.add_parser("compare", help="correlation between two score CSVs")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--metric", default="kendall")
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bench", help="median timing of per-source runs")
    add_io(p, output=False)
    p.add_argument("--criterion", default="sh")
    p.add_argument("--beta", default="inf", type=_int_token)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sources", help="labels to time, or all (default: a seeded sample of 3)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OracleCapError as exc:
        print(f"oracle cap: {exc}", file=sys.stderr)
        return EXIT_ORACLE_CAP
    except RankingError as exc:
        print(f"ranking error: {exc}", file=sys.stderr)
        return EXIT_RANKING
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
