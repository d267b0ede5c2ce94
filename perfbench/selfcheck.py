"""Self-checks of the benchmark's own code.

    python3 perfbench/selfcheck.py

Checks that the input generators are deterministic per seed (each input
matches the digest committed in refs.json), that the
ladder keeps the properties it exists for (walk counts of at least
LADDER_MIN_BITS bits and a non-zero revisit table) on every seed of the
bank, that refs.json covers every workload and seed, and that the
workloads and the metric names and units a run emits match
BENCHMARK.json.  Exits 1 on the first failed check.  Takes about a
minute, most of it in two short benchmark runs.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from refs import digest, load_refs
from run import END_TO_END, PER_LAYER, import_library
from workloads import SEED_BANK, WORKLOADS, input_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LADDER_MIN_BITS = 200


class CheckFailed(Exception):
    pass


def expect(ok: bool, message) -> None:
    if not ok:
        raise CheckFailed(message)


def check_generators_deterministic() -> None:
    inputs = load_refs()["inputs"]
    for w in WORKLOADS.values():
        for seed in range(SEED_BANK):
            got = digest(input_text(w, seed))
            expect(got == inputs[w.name][str(seed)], f"{w.name} seed {seed}: input changed")
        expect(input_text(w, 0) != input_text(w, 1), f"{w.name}: seed has no effect")
        expect(input_text(w, 3) == input_text(w, 3 + SEED_BANK), f"{w.name}: bank wraps")


def check_ladder_properties() -> None:
    tb = import_library()
    from tempobet import driver, restless

    w = WORKLOADS["ladder-la-2w"]
    crit = tb.get_criterion(w.criterion)
    for seed in range(SEED_BANK):
        graph = tb.parse_edge_list(input_text(w, seed))
        rep = tb.build_sorted_representation(graph)
        revisits = sum(1 for x in driver.revisit_continuations(rep, w.beta) if x)
        expect(revisits > 0, f"ladder seed {seed}: no revisits")
        # walks from the bottom layer are the longest, so their counts the largest
        scan = restless.restless_forward(rep, graph.label_ids["0.0"], crit, w.beta)
        bits = max(c.bit_length() for c in scan.edge_count)
        expect(bits >= LADDER_MIN_BITS, f"ladder seed {seed}: walk counts only {bits} bits")


def check_refs_complete() -> None:
    outputs = load_refs()["outputs"]
    for name in WORKLOADS:
        missing = [s for s in range(SEED_BANK) if str(s) not in outputs.get(name, {})]
        expect(not missing, f"{name}: no reference for seeds {missing}")


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {w["name"]: w["why"] for w in spec["workloads"]}
    expect(declared == {w.name: w.why for w in WORKLOADS.values()}, "workloads differ")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        units = {m["name"]: m["unit"] for m in spec[key]}
        expect(units == table, f"{key}: BENCHMARK.json {units} != run.py {table}")


def check_emitted_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", "ladder-la-2w",
               "--seed", "5", "--seconds", "1", "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=180, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}, result)
        expect(result["correct"] and result["failed"] == 0, proc.stderr)
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(emitted == {m["name"]: m["unit"] for m in spec[key]}, (key, emitted))
        if trace:
            values = {k: v["value"] for k, v in result["metrics"].items()}
            expect(values["engine.count_bits_max"] >= LADDER_MIN_BITS, values)
            expect(values["driver.revisit_nonzero"] > 0, values)


def main() -> int:
    for check in (
        check_generators_deterministic,
        check_ladder_properties,
        check_refs_complete,
        check_benchmark_json,
        check_emitted_metrics,
    ):
        try:
            check()
        except CheckFailed as exc:
            print(f"FAIL {check.__name__}: {exc}")
            return 1
        print(f"ok   {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
