"""Output checks against the committed references in ``refs.json``.

``refs.json`` holds, per workload and bank seed, the SHA-256 of the
input text (``inputs``) and the expected result (``outputs``); it is
written by make_refs.py.

Results are compared byte for byte through the SHA-256 of their
canonical score text: one ``label,p/q`` line per node, sorted by label.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

REFS_PATH = Path(__file__).resolve().parent / "refs.json"


def canonical_text(labels, values) -> str:
    """``label,p/q`` per node, sorted by label."""
    lines = []
    for label, v in sorted(zip(labels, values)):
        f = Fraction(v)
        lines.append(f"{label},{f.numerator}/{f.denominator}")
    return "\n".join(lines) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def result_digest(labels, values) -> str:
    """What refs.json stores for one result."""
    return digest(canonical_text(labels, values))
