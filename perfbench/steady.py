"""Steadiness check and baseline record for the benchmark.

    python3 perfbench/steady.py --runs 10 --sets 2 [--trace-runs 1]
        [--out perfbench/baseline.json]

Runs ``run.py`` once per (set, seed, workload), interleaving workloads so
that slow drifts of machine speed spread over all of them, each set on
its own seeds (run i of set s uses seed FIRST_SEED + s * runs + i).  For
every end-to-end metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
interquartile distance as a share of the median; with two sets, also the
change of the second median against the first.  Both are compared with
the metric's bound from BENCHMARK.json.  ``--trace-runs`` adds traced
runs per workload and records the median of each per-layer metric.  The
summary also records the Python version, nproc, the git commit (when run
inside a git checkout) and the ``src/`` line count.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIRST_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: output check failed\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarise(values: list[float], bound: float | None = None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    out = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}
    if bound is not None:
        out["bound"] = bound
    return out


def commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="benchmark steadiness check")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace-runs", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    sets = []
    for s in range(args.sets):
        raw = {name: {} for name in names}
        for i in range(args.runs):
            seed = FIRST_SEED + s * args.runs + i
            for name in names:
                for metric, value in run_once(name, seed, seconds, 0).items():
                    raw[name].setdefault(metric, []).append(value)
                print(f"set {s + 1} seed {seed} {name} done", file=sys.stderr, flush=True)
        sets.append({name: {m: summarise(v, bounds[m]) for m, v in raw[name].items()}
                     for name in names})

    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "src_lines": src_lines(),
        "run_seconds": seconds,
        "runs_per_set": args.runs,
        "sets": sets,
    }
    if args.sets > 1:
        report["second_vs_first"] = {
            name: {m: sets[1][name][m]["median"] / sets[0][name][m]["median"] - 1
                   for m in sets[0][name]}
            for name in names
        }
    if args.trace_runs:
        traced = {}
        for name in names:
            raw = {}
            for i in range(args.trace_runs):
                for metric, value in run_once(name, FIRST_SEED + i, seconds, 1).items():
                    raw.setdefault(metric, []).append(value)
            traced[name] = {m: statistics.median(v) for m, v in raw.items()}
        report["per_layer_medians"] = traced

    for s, summary in enumerate(sets):
        for name in names:
            for m, st in summary[name].items():
                flag = "" if st["spread"] < st["bound"] / 3 else "  <-- above bound/3"
                print(f"set {s + 1} {name:16s} {m:12s} median {st['median']:.4f} "
                      f"spread {st['spread']:.3f} bound {st['bound']}{flag}")
    for name, deltas in report.get("second_vs_first", {}).items():
        for m, d in deltas.items():
            flag = "" if d <= bounds[m] else "  <-- worse than bound"
            print(f"median change {name:16s} {m:12s} {d:+.3f}{flag}")
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)


if __name__ == "__main__":
    main()
