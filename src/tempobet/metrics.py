"""Rank-correlation metrics between two centrality score maps.

All three metrics take score dicts over the same label set.  Scores are
compared after rounding to 12 decimal digits so that float results from
fast mode rank the same way as their exact counterparts.

kendall_tau          -- tie-corrected (tau-b) Kendall correlation, the
                        unit-weight case of weighted_kendall_tau's pair
                        loop.
weighted_kendall_tau -- Kendall-style correlation where a discordant
                        pair of items costs the sum of their hyperbolic
                        rank weights 1/(rank+1); ranks are taken in both
                        rankings and averaged so the metric stays
                        symmetric.  Normalised so equal orders give 1
                        and exact reversals -1.
top_k_intersection   -- size of the intersection of the two top-k sets,
                        ties broken by ascending label.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping


class RankingError(ValueError):
    """Mismatched label sets, degenerate scores, or invalid k."""


def _canonical(scores: Mapping[str, object]) -> dict[str, object]:
    # 12-digit rounding keeps Fraction/float runs rank-identical
    out = {}
    for label, v in scores.items():
        out[label] = round(v if isinstance(v, Fraction) else float(v), 12)
        if out[label] != out[label]:  # NaN has no rank
            raise RankingError(f"score of {label!r} is NaN")
    return out


def _common_labels(a: Mapping[str, object], b: Mapping[str, object]) -> list[str]:
    if set(a) != set(b):
        only_a = sorted(set(a) - set(b))[:3]
        only_b = sorted(set(b) - set(a))[:3]
        raise RankingError(f"label sets differ (a-only {only_a}, b-only {only_b})")
    if len(a) < 2:
        raise RankingError("need at least 2 labels")
    return sorted(a)


def _ranks(scores: Mapping[str, object]) -> dict[str, int]:
    """0-based rank by descending score, ties broken by ascending label."""
    order = sorted(scores, key=lambda lab: (-float(scores[lab]), lab))
    return {lab: r for r, lab in enumerate(order)}


def _tau(a: Mapping[str, object], b: Mapping[str, object], weight, name: str) -> float:
    """sum(w*da*db) / sqrt(sum(w*da*da) * sum(w*db*db)) over label pairs,
    with da, db the pair's order signs in a and b (canonical scores) and
    w the sum of its labels' ``weight``.  Scores are replaced first by
    their dense int ranks, taken from the exact values: the signs stay."""
    ra, rb = ({v: r for r, v in enumerate(sorted(set(s.values())))} for s in (a, b))
    rows = [(ra[a[lab]], rb[b[lab]], weight[lab]) for lab in sorted(a)]
    num = norm_a = norm_b = 0
    for i, (xa, xb, wi) in enumerate(rows, start=1):
        for ya, yb, wj in rows[i:]:
            w = wi + wj
            da = (xa > ya) - (xa < ya)
            db = (xb > yb) - (xb < yb)
            num += w * da * db
            norm_a += w * da * da
            norm_b += w * db * db
    denom = math.sqrt(norm_a * norm_b)
    if denom == 0:
        raise RankingError(f"{name} undefined for a constant ranking")
    return num / denom


def kendall_tau(a: Mapping[str, object], b: Mapping[str, object]) -> float:
    """Tau-b over all label pairs; errors if either ranking is constant."""
    labels = _common_labels(a, b)
    return _tau(_canonical(a), _canonical(b), dict.fromkeys(labels, 1), "kendall tau")


def weighted_kendall_tau(a: Mapping[str, object], b: Mapping[str, object]) -> float:
    """Hyperbolically rank-weighted tau; top-of-ranking swaps cost more."""
    labels = _common_labels(a, b)
    sa, sb = _canonical(a), _canonical(b)
    ra, rb = _ranks(sa), _ranks(sb)
    weight = {
        lab: 0.5 * (1.0 / (ra[lab] + 1) + 1.0 / (rb[lab] + 1)) for lab in labels
    }
    return _tau(sa, sb, weight, "weighted kendall tau")


def top_k(scores: Mapping[str, object], k: int) -> list[str]:
    """Top-k labels by descending score, ties broken by ascending label."""
    if k > len(scores):
        raise RankingError(f"k={k} exceeds label count {len(scores)}")
    if k < 0:
        raise RankingError("k must be non-negative")
    return list(_ranks(_canonical(scores)))[:k]


def top_k_intersection(
    a: Mapping[str, object], b: Mapping[str, object], k: int
) -> int:
    """|top_k(a) & top_k(b)|, both sides tie-broken by label."""
    _common_labels(a, b)
    return len(set(top_k(a, k)) & set(top_k(b, k)))
