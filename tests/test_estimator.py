from __future__ import annotations

from fractions import Fraction as F

import pytest

from tempobet.costs import ConfigError
from tempobet.driver import check_beta, node_betweenness
from tempobet.estimator import TemporalBetweenness, as_temporal_graph

TOY_TEXT = "a b 1\nb c 2\na c 2\nc d 3\nb d 4\n"


def test_fit_on_text(toy):
    est = TemporalBetweenness(criterion="sh").fit(TOY_TEXT)
    assert est.scores_ == {"a": F(0), "b": F(1, 2), "c": F(1, 2), "d": F(0)}
    assert est.n_nodes_ == 4 and est.n_edges_ == 5


def test_fit_on_graph_object_matches_driver(loop):
    est = TemporalBetweenness(criterion="sh", beta=1).fit(loop)
    assert est.result_.values == node_betweenness(loop, "sh", 1).values


def test_fit_on_path(tmp_path):
    p = tmp_path / "g.edges"
    p.write_text(TOY_TEXT)
    est = TemporalBetweenness().fit(str(p))
    assert est.scores_["b"] == F(1, 2)
    assert TemporalBetweenness().fit(p).scores_ == est.scores_


def test_str_without_newline_is_a_path(tmp_path):
    with pytest.raises(FileNotFoundError):
        TemporalBetweenness().fit("no/such/file.edges")
    with pytest.raises(FileNotFoundError):
        as_temporal_graph(tmp_path / "missing.edges")
    assert as_temporal_graph("a b 1\n").m == 1


def test_fit_transform_returns_vector(toy):
    vec = TemporalBetweenness(criterion="sfo").fit_transform(toy)
    assert vec == node_betweenness(toy, "sfo").values


def test_get_set_params_roundtrip():
    est = TemporalBetweenness(criterion="fa", beta=300, mode="fast", workers=2)
    params = est.get_params()
    assert params == {
        "criterion": "fa",
        "beta": 300,
        "mode": "fast",
        "workers": 2,
        "undirected": False,
    }
    clone = TemporalBetweenness().set_params(**params)
    assert clone.get_params() == params


def test_set_params_rejects_unknown():
    with pytest.raises(ConfigError):
        TemporalBetweenness().set_params(gamma=1)


def test_beta_inf_token():
    est = TemporalBetweenness(beta="inf").fit(TOY_TEXT)
    assert est.result_.beta is None
    assert check_beta("inf") is None
    assert check_beta(5) == 5
    with pytest.raises(ConfigError):
        check_beta(-1)
    with pytest.raises(ConfigError):
        check_beta("soon")


def test_invalid_criterion_fails_at_fit():
    with pytest.raises(ConfigError):
        TemporalBetweenness(criterion="zz").fit(TOY_TEXT)


def test_ranking_requires_fit():
    with pytest.raises(ConfigError):
        TemporalBetweenness().ranking()
    est = TemporalBetweenness().fit(TOY_TEXT)
    assert est.ranking()[0][0] in ("b", "c")


def test_undirected_flag_passes_through():
    est = TemporalBetweenness(undirected=True).fit("a b 1\n")
    assert est.n_edges_ == 2


def test_as_temporal_graph_rejects_junk():
    with pytest.raises(ConfigError):
        as_temporal_graph(42)
