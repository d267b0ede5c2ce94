"""tempobet benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload dense-sh-exact --seed 3 \
        --seconds 60 --trace 0

The run builds its input from the seed (workloads.py), times set-up
(``parse_edge_list`` + ``build_sorted_representation``) in bursts of
SETUP_REPEATS, one before and one after each solve, and calls
``node_betweenness`` over all sources as often as fits in ``--seconds``,
checking every result against the committed reference (refs.py).  The last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (medians over the solves);
``--trace 1`` reports the per-layer metrics from a separate traced,
single-worker solve (tracing.py), paired with an untraced solve with the
workload's workers for ``driver.core_util``.  Spans and counters of the
last traced solve are written to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from refs import load_refs, result_digest
from tracing import Tracer
from workloads import SEED_BANK, WORKLOADS, input_text

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 10

END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "graph.parse_s": "s",
    "graph.sort_s": "s",
    "driver.engine_s": "s",
    "driver.aggregate_s": "s",
    "driver.touched_frac": "ratio",
    "driver.revisit_s": "s",
    "driver.revisit_nonzero": "count",
    "driver.core_util": "ratio",
    "driver.den_bits_max": "bits",
    "nonrestless.forward_s": "s",
    "nonrestless.intermediate_s": "s",
    "nonrestless.backward_s": "s",
    "restless.forward_s": "s",
    "restless.backward_s": "s",
    "restless.quintuples": "count",
    "restless.finalised": "count",
    "restless.window_ops": "count",
    "engine.edges_reached": "count",
    "engine.reach_frac": "ratio",
    "engine.count_bits_max": "bits",
    "trace.overhead_s": "s",
    "fail_frac": "ratio",
}


def import_library():
    """Import tempobet from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "tempobet" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tempobet sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tempobet

    return tempobet


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped worker processes."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class SetupTimer:
    """Times set-up (parse + sorted representation) in short bursts
    spread over the run, so that its median sees the same machine
    states as the solves between the bursts."""

    def __init__(self, tb, text: str) -> None:
        self.tb = tb
        self.text = text
        self.parse: list[float] = []
        self.sort: list[float] = []
        self.total: list[float] = []

    def burst(self):
        """SETUP_REPEATS timed set-ups; returns the last parsed graph."""
        for _ in range(SETUP_REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            graph = self.tb.parse_edge_list(self.text)
            t1 = time.perf_counter()
            self.tb.build_sorted_representation(graph)
            t2 = time.perf_counter()
            self.parse.append(t1 - t0)
            self.sort.append(t2 - t1)
            self.total.append(t2 - t0)
        return graph


class Runner:
    """Solves one workload's graph and checks each result."""

    def __init__(self, tb, workload, graph, expected) -> None:
        self.tb = tb
        self.w = workload
        self.graph = graph
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.den_bits_max = 0

    def solve(self, workers: int, tracer=None):
        """One checked solve: (wall seconds, cpu seconds).  With a
        tracer, the call is recorded as its root span ``solve``."""
        w = self.w
        span = tracer.span("solve") if tracer else contextlib.nullcontext()
        gc.collect()
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            with span:
                res = self.tb.node_betweenness(
                    self.graph, w.criterion, w.beta, mode="exact", workers=workers
                )
        except Exception:
            traceback.print_exc(file=sys.stderr)
            res = None
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        self.attempted += 1
        ok = res is not None and result_digest(res.labels, res.values) == self.expected
        if res is not None:
            self.den_bits_max = max(Fraction(v).denominator.bit_length() for v in res.values)
        if not ok:
            self.failed += 1
            print(f"perfbench: {w.name} output check failed", file=sys.stderr)
        return wall, cpu


def repeat_until(deadline: float, step) -> list:
    """Run ``step`` at least once, and again while another run of the
    same length still ends before ``deadline``."""
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(step())
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            return results


def with_setup_burst(setup: SetupTimer, step):
    def run():
        result = step()
        setup.burst()
        return result

    return run


def timed_run(runner: Runner, setup: SetupTimer, deadline: float) -> dict:
    runs = repeat_until(deadline, with_setup_burst(setup, lambda: runner.solve(runner.w.workers)))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "solve_s": statistics.median(r[0] for r in runs),
        "setup_s": statistics.median(setup.total),
        "cpu_s": statistics.median(r[1] for r in runs),
        "peak_rss_mb": rss_mb,
    }


def traced_pair(runner: Runner):
    """An untraced solve with the workload's workers, then one traced
    single-worker solve: the per-layer metrics of this pair, and the
    tracer."""
    w = runner.w
    wall_w, cpu_w = runner.solve(w.workers)
    tracer = Tracer()
    with tracer.installed():
        runner.solve(1, tracer)
    solve = next(s for s in tracer.spans if s.name == "solve")
    engine = tracer.total("driver.engine")
    revisit = tracer.total("driver.revisit")
    c = tracer.counters
    sources = c.get("sources", 0)
    return {
        "driver.engine_s": engine,
        "driver.aggregate_s": solve.seconds - engine - revisit,
        "driver.touched_frac": c.get("touched_pairs", 0) / max(1, sources * runner.graph.n),
        "driver.revisit_s": revisit,
        "driver.revisit_nonzero": c.get("revisit_nonzero", 0),
        "driver.core_util": cpu_w / (w.workers * wall_w),
        "driver.den_bits_max": runner.den_bits_max,
        "nonrestless.forward_s": tracer.total("nonrestless.forward"),
        "nonrestless.intermediate_s": tracer.total("nonrestless.intermediate"),
        "nonrestless.backward_s": tracer.total("nonrestless.backward"),
        "restless.forward_s": tracer.total("restless.forward"),
        "restless.backward_s": tracer.total("restless.backward"),
        "restless.quintuples": c.get("quintuples", 0),
        "restless.finalised": c.get("finalised", 0),
        "restless.window_ops": c.get("window_ops", 0),
        "engine.edges_reached": c.get("edges_reached", 0),
        "engine.reach_frac": c.get("edges_reached", 0) / max(1, c.get("edges_scanned", 0)),
        "engine.count_bits_max": c.get("count_bits_max", 0),
        "trace.overhead_s": tracer.overhead_s(),
    }, tracer


def write_trace(tracer, workload_name: str, seed: int) -> None:
    OUT.mkdir(exist_ok=True)
    origin = tracer.spans[0].start if tracer.spans else 0.0
    doc = {
        "workload": workload_name,
        "seed": seed,
        "counters": tracer.counters,
        "bookkeeping_s": tracer.bookkeeping_s,
        "spans": [
            [s.name, s.start - origin, s.end - origin, s.parent] for s in tracer.spans
        ],
    }
    with open(OUT / f"trace-{workload_name}-{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def traced_run(runner: Runner, setup: SetupTimer, deadline: float, args) -> dict:
    pairs = repeat_until(deadline, with_setup_burst(setup, lambda: traced_pair(runner)))
    write_trace(pairs[-1][1], args.workload, args.seed)
    metrics = {k: statistics.median(p[0][k] for p in pairs) for k in pairs[0][0]}
    metrics.update({
        "graph.parse_s": statistics.median(setup.parse),
        "graph.sort_s": statistics.median(setup.sort),
        "fail_frac": runner.failed / runner.attempted,
    })
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    tb = import_library()
    w = WORKLOADS[args.workload]
    expected = load_refs()["outputs"][w.name][str(args.seed % SEED_BANK)]
    start = time.perf_counter()
    setup = SetupTimer(tb, input_text(w, args.seed))
    runner = Runner(tb, w, setup.burst(), expected)
    deadline = start + args.seconds
    if args.trace:
        metrics = traced_run(runner, setup, deadline, args)
        units = PER_LAYER
    else:
        metrics = timed_run(runner, setup, deadline)
        units = END_TO_END
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
