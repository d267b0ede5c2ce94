from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempobet.metrics import (
    RankingError,
    kendall_tau,
    top_k,
    top_k_intersection,
    weighted_kendall_tau,
)


def _scores(values):
    return {f"n{i}": v for i, v in enumerate(values)}


def test_kendall_identical_is_one():
    a = _scores([3, 2, 1, 0])
    assert kendall_tau(a, a) == 1.0


def test_kendall_reversal_is_minus_one():
    a = _scores([3, 2, 1, 0])
    b = _scores([0, 1, 2, 3])
    assert kendall_tau(a, b) == -1.0


def test_kendall_one_discordant_pair():
    a = _scores([3, 2, 1, 0])
    b = _scores([3, 1, 2, 0])
    assert math.isclose(kendall_tau(a, b), 2 / 3)


def test_kendall_mismatched_labels():
    with pytest.raises(RankingError):
        kendall_tau({"a": 1, "b": 2}, {"a": 1, "c": 2})


def test_kendall_constant_ranking_is_error():
    with pytest.raises(RankingError):
        kendall_tau({"a": 1, "b": 1}, {"a": 1, "b": 2})


@pytest.mark.parametrize("metric", [kendall_tau, weighted_kendall_tau,
                                    lambda a, b: top_k_intersection(a, b, 2)])
def test_nan_score_is_error(metric):
    """A NaN has no rank: every comparison with it is false."""
    a = _scores([3.0, float("nan"), 2.0, 0.5])
    b = _scores([1.0, 2.0, 3.0, 4.0])
    for x, y in ((a, b), (b, a)):
        with pytest.raises(RankingError, match="NaN"):
            metric(x, y)


def test_weighted_identical_and_reversed():
    a = _scores([5, 4, 3, 2, 1])
    assert weighted_kendall_tau(a, a) == 1.0
    b = _scores([1, 2, 3, 4, 5])
    assert weighted_kendall_tau(a, b) == -1.0


def test_weighted_top_swap_costs_more_than_bottom_swap():
    base = _scores([5, 4, 3, 2, 1])
    top_swapped = _scores([4, 5, 3, 2, 1])
    bottom_swapped = _scores([5, 4, 3, 1, 2])
    t = weighted_kendall_tau(base, top_swapped)
    b = weighted_kendall_tau(base, bottom_swapped)
    assert t < b < 1.0


def test_top_k_identical():
    a = _scores([5, 4, 3, 2])
    assert top_k_intersection(a, a, 3) == 3


def test_top_k_disjoint():
    a = {"w": 4, "x": 3, "y": 1, "z": 0}
    b = {"w": 0, "x": 1, "y": 3, "z": 4}
    assert top_k_intersection(a, b, 2) == 0


def test_top_k_partial_overlap():
    a = {"x": 4, "y": 3, "z": 2, "w": 1}
    b = {"x": 4, "w": 3, "y": 2, "z": 1}
    assert top_k_intersection(a, b, 3) == 2


def test_top_k_ties_break_by_label():
    a = {"b": 1, "a": 1, "c": 0}
    assert top_k(a, 1) == ["a"]


def test_top_k_bounds():
    a = _scores([1, 2])
    with pytest.raises(RankingError):
        top_k_intersection(a, a, 3)


def test_fraction_and_float_scores_mix():
    a = {"x": F(1, 2), "y": F(1, 4), "z": F(0)}
    b = {"x": 0.5, "y": 0.25, "z": 0.0}
    assert kendall_tau(a, b) == 1.0
    assert weighted_kendall_tau(a, b) == 1.0


def _tau_b_by_counts(a, b) -> float:
    """Textbook tau-b: (nc - nd) / sqrt((n0 - n1)(n0 - n2)), where n1 and
    n2 count the pairs tied in a and in b."""
    n0 = len(a) * (len(a) - 1) // 2
    n1, n2 = (sum(t * (t - 1) // 2 for t in Counter(s.values()).values()) for s in (a, b))
    signs = [(a[x] - a[y]) * (b[x] - b[y]) for x, y in combinations(a, 2)]
    nc = sum(1 for p in signs if p > 0)
    nd = sum(1 for p in signs if p < 0)
    return (nc - nd) / math.sqrt((n0 - n1) * (n0 - n2))


def test_kendall_equals_tau_b_counts_with_ties_on_both_sides():
    rng = random.Random(17)
    checked = 0
    for _ in range(3000):
        n = rng.randint(2, 30)
        a, b = (_scores([rng.randint(0, 4) for _ in range(n)]) for _ in range(2))
        if len(set(a.values())) == 1 or len(set(b.values())) == 1:
            with pytest.raises(RankingError):
                kendall_tau(a, b)
            continue
        assert kendall_tau(a, b) == _tau_b_by_counts(a, b), (a, b)
        checked += 1
    assert checked > 2500


score_vectors = st.lists(
    st.floats(0, 100, allow_nan=False, allow_infinity=False), min_size=2, max_size=12
).filter(lambda v: len({round(x, 12) for x in v}) > 1)


@settings(max_examples=100, deadline=None)
@given(v1=score_vectors, data=st.data())
def test_metrics_are_symmetric(v1, data):
    v2 = data.draw(
        st.lists(
            st.floats(0, 100, allow_nan=False, allow_infinity=False),
            min_size=len(v1),
            max_size=len(v1),
        ).filter(lambda v: len({round(x, 12) for x in v}) > 1)
    )
    a, b = _scores(v1), _scores(v2)
    assert kendall_tau(a, b) == pytest.approx(kendall_tau(b, a))
    assert weighted_kendall_tau(a, b) == pytest.approx(weighted_kendall_tau(b, a))
    k = len(v1) // 2 + 1
    assert top_k_intersection(a, b, k) == top_k_intersection(b, a, k)


#: Scores on a 1/1000 grid: 3x+7 keeps distinct ones apart and equal ones
#: equal after the metrics' 12-decimal rounding, which arbitrary floats
#: (say 0.0 and 2.1e-13) do not.
grid_vectors = st.lists(
    st.integers(0, 100_000).map(lambda i: i / 1000), min_size=2, max_size=12
).filter(lambda v: len(set(v)) > 1)


@settings(max_examples=100, deadline=None)
@given(v1=grid_vectors, data=st.data())
def test_metrics_invariant_under_monotone_rescaling(v1, data):
    v2 = data.draw(
        st.lists(
            st.floats(0, 100, allow_nan=False, allow_infinity=False),
            min_size=len(v1),
            max_size=len(v1),
        ).filter(lambda v: len({round(x, 12) for x in v}) > 1)
    )
    a, b = _scores(v1), _scores(v2)
    scaled = {k2: 3.0 * v + 7.0 for k2, v in a.items()}
    assert kendall_tau(scaled, b) == pytest.approx(kendall_tau(a, b))
    assert weighted_kendall_tau(scaled, b) == pytest.approx(weighted_kendall_tau(a, b))
