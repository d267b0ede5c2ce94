"""Regenerate ``refs.json``: for every workload and every seed of the
bank, the SHA-256 of the input text and the exact single-worker result.

    python3 perfbench/make_refs.py

Workloads on the nonrestless engine are solved a second time with the restless engine
and must agree exactly, so a reference never rests on one engine alone.
Only run this on a commit whose results are trusted: the benchmark's
output check is only as good as these references.
"""
from __future__ import annotations

import json

from refs import REFS_PATH, digest, result_digest
from run import import_library
from workloads import SEED_BANK, WORKLOADS, input_text


def reference(tb, name: str, seed: int) -> tuple[str, str]:
    """(input digest, result digest) of one workload and bank seed."""
    w = WORKLOADS[name]
    text = input_text(w, seed)
    graph = tb.parse_edge_list(text)
    res = tb.node_betweenness(graph, w.criterion, w.beta, mode="exact")
    if w.beta is None and w.criterion in ("sh", "sfo"):
        other = tb.node_betweenness(graph, w.criterion, w.beta, mode="exact", engine="restless")
        if result_digest(other.labels, other.values) != result_digest(res.labels, res.values):
            raise RuntimeError(f"{name} seed {seed}: engines disagree")
    return digest(text), result_digest(res.labels, res.values)


def main() -> None:
    tb = import_library()
    refs = {"inputs": {}, "outputs": {}}
    for name in sorted(WORKLOADS):
        for seed in range(SEED_BANK):
            text_digest, result = reference(tb, name, seed)
            refs["inputs"].setdefault(name, {})[str(seed)] = text_digest
            refs["outputs"].setdefault(name, {})[str(seed)] = result
            print(f"{name} seed {seed} done", flush=True)
    REFS_PATH.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
