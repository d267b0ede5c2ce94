"""Acceptance suite: one test per exit criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

The corpus sweep (criteria 1, 2, 5) exhaustively cross-checks the fast
engines against the brute-force enumerator on 200 seeded random graphs,
for every waiting bound in {0, 1, 2, 5, inf} and all seven criteria,
demanding exact rational equality edge-wise and node-wise.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction as F

import pytest

from tempobet.costs import CRITERION_NAMES, get_criterion, walk_cost
from tempobet.driver import node_betweenness
from tempobet.graph import (
    TemporalGraph,
    build_sorted_representation,
    random_temporal_graph,
    to_edge_list,
)
from tempobet.metrics import kendall_tau, top_k_intersection, weighted_kendall_tau
from tempobet.nonrestless import single_source_edge_betweenness as nonrestless_run
from tempobet.oracle import g_loop, g_toy, oracle_betweenness
from tempobet.restless import single_source_edge_betweenness as restless_run

from conftest import edge_bc_by_original, make_random_graph

CORPUS_SIZE = 200
BETAS = (0, 1, 2, 5, None)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def _check_instance(g: TemporalGraph, failures: dict[str, list]) -> None:
    rep = build_sorted_representation(g)
    tag = to_edge_list(g)[:60]
    for beta in BETAS:
        walks_cache: dict[int, list] = {}
        for crit_name in CRITERION_NAMES:
            crit = get_criterion(crit_name)
            orc = oracle_betweenness(g, crit, beta, walks_by_source=walks_cache)
            for s in range(g.n):
                edge_bc, back = restless_run(rep, s, crit, beta)
                got = edge_bc_by_original(rep, edge_bc, back.denom)
                for e in range(rep.m):
                    if got[e] != orc.edge_bc.get((s, e), F(0)):
                        failures["oracle_eq"].append((tag, crit_name, beta, s, e))
                if beta is None and crit_name in ("sh", "sfo"):
                    other, other_back = nonrestless_run(rep, s, crit)
                    if (other, other_back.denom) != (edge_bc, back.denom):
                        failures["cross_engine"].append((tag, crit_name, s))
            if node_betweenness(g, crit, beta).values != orc.node_bc:
                failures["oracle_eq"].append((tag, crit_name, beta, "nodes"))
            _check_facts(g, crit, beta, orc, walks_cache, failures)


def _check_facts(g, crit, beta, orc, walks_cache, failures) -> None:
    tag = crit.name, beta
    # node score = per-source sum of incoming edge scores minus the
    # node-as-target share of that source
    agg = [F(0)] * g.n
    chi_agg = [F(0)] * g.n
    for (s, e), val in orc.edge_bc.items():
        u = g.edges[e].head
        if u != s:
            agg[u] += val
            chi_agg[u] += val
    for u in range(g.n):
        for s in range(g.n):
            if s != u and orc.reachable(s, u):
                chi_agg[u] -= 1
                own = sum(
                    orc.sigma_star_set.get((s, e, u), 0)
                    for e in range(g.m)
                    if g.edges[e].head == u
                )
                agg[u] -= F(own, orc.sigma_star_st[(s, u)])
    if agg != orc.node_bc:
        failures["facts"].append((tag, "aggregation"))
    # the share is exactly the reachability indicator whenever optimal
    # walks cannot revisit their own target (all criteria but latest)
    if crit.name != "la" and chi_agg != orc.node_bc:
        failures["facts"].append((tag, "aggregation-chi"))

    # optimal-walk counts factor into prefix count times suffix count
    for (s, e, t), cnt in orc.sigma_star_set.items():
        if cnt != orc.sigma_se[(s, e)] * orc.theta[(s, e, t)]:
            failures["facts"].append((tag, "factorization", s, e, t))

    # target-optimal walks are cost-optimal to their last edge
    for (s, e), cnt in orc.sigma_star_se.items():
        if cnt and cnt != orc.sigma_se[(s, e)]:
            failures["facts"].append((tag, "target-implies-cost", s, e))

    # edge-score recursion over successors
    sigma_star_v: dict[tuple[int, int], int] = {}
    for (s, e), cnt in orc.sigma_star_se.items():
        v = g.edges[e].head
        sigma_star_v[(s, v)] = sigma_star_v.get((s, v), 0) + cnt
    for (s, e), b_se in orc.edge_bc.items():
        v = g.edges[e].head
        total = F(0)
        for f in orc.successors.get((s, e), ()):
            total += orc.edge_bc[(s, f)] / orc.sigma_se[(s, f)]
        total *= orc.sigma_se[(s, e)]
        star = orc.sigma_star_se.get((s, e), 0)
        if star and v != s:
            total += F(star, sigma_star_v[(s, v)])
        if total != b_se:
            failures["facts"].append((tag, "recursion", s, e))

    # every prefix of a cost-optimal walk is cost-optimal
    for s, walks in walks_cache.items():
        best: dict[int, object] = {}
        costs = []
        for w in walks:
            c = walk_cost([g.edges[i] for i in w], crit)
            costs.append(c)
            last = w[-1]
            if last not in best or c < best[last]:
                best[last] = c
        for w, c in zip(walks, costs):
            if c != best[w[-1]]:
                continue
            for cut in range(1, len(w)):
                pc = walk_cost([g.edges[i] for i in w[:cut]], crit)
                if pc != best[w[cut - 1]]:
                    failures["facts"].append((tag, "prefix", s, w))
                    break


@pytest.fixture(scope="module")
def corpus_sweep():
    rng = random.Random(20260808)
    failures: dict[str, list] = {"oracle_eq": [], "cross_engine": [], "facts": []}
    start = time.perf_counter()
    for _ in range(CORPUS_SIZE):
        g = make_random_graph(rng, n_max=7, m_max=18, dep_max=12, travel_max=3)
        _check_instance(g, failures)
    failures["elapsed"] = time.perf_counter() - start
    return failures


def test_criterion_1_oracle_equivalence(corpus_sweep):
    bad = corpus_sweep["oracle_eq"]
    elapsed = corpus_sweep["elapsed"]
    ok = not bad and elapsed < 300
    _report(
        "1 oracle-equivalence",
        ok,
        f"{CORPUS_SIZE} graphs x {len(BETAS)} betas x {len(CRITERION_NAMES)} criteria, "
        f"exact equality, {elapsed:.1f}s",
    )
    assert not bad, bad[:5]
    assert elapsed < 300


def test_criterion_2_cross_engine_equivalence(corpus_sweep):
    bad = corpus_sweep["cross_engine"]
    _report("2 cross-engine", not bad, "restless(beta=inf) == nonrestless for sh, sfo")
    assert not bad, bad[:5]


def test_criterion_3_fixture_values():
    toy, loop = g_toy(), g_loop()
    checks = [
        (toy, "sh", None, {"a": F(0), "b": F(1, 2), "c": F(1, 2), "d": F(0)}),
        # the 1-hop b->d walk is exempt from the waiting bound (no
        # predecessor edge), so c mediates only the a->d pair at beta=0
        (toy, "sh", 0, {"a": F(0), "b": F(0), "c": F(1), "d": F(0)}),
        (toy, "sfo", None, {"a": F(0), "b": F(0), "c": F(2), "d": F(0)}),
        # unrestricted waiting admits the 2-hop a->z walk, so nothing
        # routes through the x-revisit
        (loop, "sh", None, {"a": F(0), "x": F(3), "y": F(0), "z": F(0)}),
        # at beta=1 the only a->z walk revisits x: multiplicity 2
        (loop, "sh", 1, {"a": F(0), "x": F(4), "y": F(1), "z": F(0)}),
    ]
    ok = True
    for g, crit, beta, want in checks:
        got = node_betweenness(g, crit, beta).as_dict()
        if got != want:
            ok = False
    _report("3 fixture-values", ok, f"{len(checks)} fixture vectors, exact")
    for g, crit, beta, want in checks:
        assert node_betweenness(g, crit, beta).as_dict() == want, (crit, beta)


def test_criterion_4_algebraic_laws():
    rng = random.Random(4)
    violations = 0

    def sample(name):
        if name == "fo":
            return 0
        if name in ("sh", "sfo"):
            return rng.randint(0, 100)
        if name in ("fa", "la"):
            return rng.randint(-100, 100)
        return (rng.randint(-100, 100), rng.randint(0, 100))

    def is_cost(c):
        if type(c) is tuple:
            return len(c) == 2 and all(type(x) is int for x in c)
        return type(c) is int

    for name in CRITERION_NAMES:
        crit = get_criterion(name)
        for _ in range(10_000):
            c1, c2 = sample(name), sample(name)
            # extending both walks by the same edge preserves strict order
            dep = rng.randint(1, 50)
            if c1 < c2 and not crit.extend(c1) < crit.extend(c2):
                violations += 1
            arr = rng.randint(2, 55)
            if c1 < c2 and not crit.tc(arr, c1) < crit.tc(arr, c2):
                violations += 1
            # native < and == are a total order on ints and int pairs
            outputs = (crit.gamma(dep), crit.extend(c1), crit.tc(arr, c1))
            violations += sum(not is_cost(c) for c in outputs)
    _report(
        "4 algebraic-laws",
        violations == 0,
        "isotonicity under extend, increasing target, total order; 10^4 cases each",
    )
    assert violations == 0


def test_criterion_5_structural_identities(corpus_sweep):
    bad = corpus_sweep["facts"]
    _report(
        "5 structural-identities",
        not bad,
        "aggregation, factorization, recursion, prefix/target optimality "
        "on every corpus instance",
    )
    assert not bad, bad[:5]


@pytest.mark.slow
def test_criterion_6_linear_scaling_in_edges():
    n = 2000
    sizes = [100_000, 200_000, 400_000]
    t_nonrestless: list[float] = []
    t_restless: list[float] = []
    beta_used = None
    for idx, m in enumerate(sizes):
        # t_max scales with M so temporal density (and thus walk-count
        # magnitudes) stay comparable across sizes; otherwise big-int
        # growth, not per-edge work, dominates the ratios
        g = random_temporal_graph(n, m, t_max=m // 4, seed=606 + idx)
        rep = build_sorted_representation(g)
        deps = sorted({e.dep for e in g.edges})
        gaps = sorted(b - a for a, b in zip(deps, deps[1:])) or [1]
        beta_used = gaps[len(gaps) // 2]
        sh = get_criterion("sh")

        # minimum of repeated runs: other load on the machine only adds
        # time, and once pushed the median of 5 past the bound
        runs = []
        for _ in range(5):
            start = time.perf_counter()
            nonrestless_run(rep, 0, sh)
            runs.append(time.perf_counter() - start)
        t_nonrestless.append(min(runs))

        runs = []
        for _ in range(5):
            start = time.perf_counter()
            restless_run(rep, 0, sh, beta_used)
            runs.append(time.perf_counter() - start)
        t_restless.append(min(runs))

    ratios_nr = [t_nonrestless[i + 1] / t_nonrestless[i] for i in range(2)]
    ratios_r = [t_restless[i + 1] / t_restless[i] for i in range(2)]
    ok = all(r <= 3 for r in ratios_nr) and all(r <= 4 for r in ratios_r)
    _report(
        "6 linear-scaling",
        ok,
        f"per-source minima of 5 runs: nonrestless {['%.3fs' % t for t in t_nonrestless]} "
        f"ratios {['%.2f' % r for r in ratios_nr]} (<=3); "
        f"restless beta={beta_used} {['%.3fs' % t for t in t_restless]} "
        f"ratios {['%.2f' % r for r in ratios_r]} (<=4)",
    )
    assert all(r <= 3 for r in ratios_nr), ratios_nr
    assert all(r <= 4 for r in ratios_r), ratios_r


def test_criterion_7_determinism(tmp_path, capsys):
    from tempobet.cli import main

    rng = random.Random(7)
    g = make_random_graph(rng, n_max=8, m_max=30)
    base_file = tmp_path / "base.edges"
    base_file.write_text(to_edge_list(g))

    outs = {}
    for workers in (1, 2, 8):
        out = tmp_path / f"w{workers}.csv"
        assert main([
            "compute", "--input", str(base_file), "--criterion", "sh",
            "--beta", "2", "--output", str(out), "--workers", str(workers),
        ]) == 0
        outs[workers] = out.read_bytes()
    workers_ok = outs[1] == outs[2] == outs[8]

    lines = to_edge_list(g).splitlines()
    perm_ok = True
    for trial in range(20):
        rng.shuffle(lines)
        pf = tmp_path / "perm.edges"
        pf.write_text("\n".join(lines) + "\n")
        out = tmp_path / "perm.csv"
        assert main([
            "compute", "--input", str(pf), "--criterion", "sh",
            "--beta", "2", "--output", str(out),
        ]) == 0
        if out.read_bytes() != outs[1]:
            perm_ok = False
    capsys.readouterr()
    _report(
        "7 determinism",
        workers_ok and perm_ok,
        "workers in {1,2,8} and 20 input permutations give identical CSV",
    )
    assert workers_ok and perm_ok


def test_criterion_8_metric_examples_and_properties():
    ok = True
    a = {"w": 3.0, "x": 2.0, "y": 1.0, "z": 0.0}
    rev = {"w": 0.0, "x": 1.0, "y": 2.0, "z": 3.0}
    swap = {"w": 3.0, "x": 1.0, "y": 2.0, "z": 0.0}
    ok &= kendall_tau(a, a) == 1.0
    ok &= kendall_tau(a, rev) == -1.0
    ok &= abs(kendall_tau(a, swap) - 2 / 3) < 1e-12
    ok &= weighted_kendall_tau(a, a) == 1.0
    ok &= weighted_kendall_tau(a, rev) == -1.0
    base = {f"n{i}": float(5 - i) for i in range(5)}
    top_sw = dict(base, n0=4.0, n1=5.0)
    bot_sw = dict(base, n3=1.0, n4=2.0)
    ok &= weighted_kendall_tau(base, top_sw) < weighted_kendall_tau(base, bot_sw)
    ok &= top_k_intersection(a, a, 3) == 3
    ok &= top_k_intersection(a, rev, 2) == 0

    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(3, 15)
        v1 = [rng.uniform(0, 10) for _ in range(n)]
        v2 = [rng.uniform(0, 10) for _ in range(n)]
        s1 = {f"n{i}": v1[i] for i in range(n)}
        s2 = {f"n{i}": v2[i] for i in range(n)}
        ok &= abs(kendall_tau(s1, s2) - kendall_tau(s2, s1)) < 1e-12
        ok &= abs(weighted_kendall_tau(s1, s2) - weighted_kendall_tau(s2, s1)) < 1e-12
        scaled = {k: 2.5 * v + 3 for k, v in s1.items()}
        ok &= abs(kendall_tau(scaled, s2) - kendall_tau(s1, s2)) < 1e-12
        ok &= abs(weighted_kendall_tau(scaled, s2) - weighted_kendall_tau(s1, s2)) < 1e-12
        k = rng.randint(1, n)
        ok &= top_k_intersection(s1, s2, k) == top_k_intersection(s2, s1, k)
    _report("8 metrics", ok, "examples plus symmetry/rescaling on 100 vectors")
    assert ok


def test_criterion_9_waiting_bound_trend_report():
    g = random_temporal_graph(40, 260, t_max=30, seed=99)
    print("wKT(sh, sfa) as the waiting bound grows:")
    reported = []
    for beta in (1, 2, 4, 8, None):
        sh = node_betweenness(g, "sh", beta).as_dict()
        sfa = node_betweenness(g, "sfa", beta).as_dict()
        value = weighted_kendall_tau(sh, sfa)
        reported.append(value)
        print(f"  beta={'inf' if beta is None else beta}: wkt={value:.4f}")
    ok = len(reported) == 5 and all(-1.0 <= v <= 1.0 for v in reported)
    _report("9 trend-report", ok, "report emitted for beta in {1,2,4,8,inf}")
    assert ok
