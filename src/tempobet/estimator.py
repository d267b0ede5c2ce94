"""Estimator-style front end so the computation composes with ML tooling.

TemporalBetweenness follows the scikit-learn protocol (constructor only
stores parameters, ``fit`` computes, fitted attributes end in an
underscore, ``get_params``/``set_params`` for pipelines and grid
search) without depending on scikit-learn itself.
"""
from __future__ import annotations

import inspect
import os

from .costs import ConfigError
from .driver import NodeBetweenness, node_betweenness
from .graph import TemporalGraph, parse_edge_list


def as_temporal_graph(X, undirected: bool = False) -> TemporalGraph:
    """Coerce a TemporalGraph, edge-list text, or a path into a graph.

    A str that contains a newline is edge-list text; any other str or
    os.PathLike is opened as a path, so a missing file raises
    FileNotFoundError."""
    if isinstance(X, TemporalGraph):
        return X
    if isinstance(X, str) and "\n" in X:
        return parse_edge_list(X, undirected=undirected)
    if isinstance(X, (str, os.PathLike)):
        with open(X, "r", encoding="utf-8") as fh:
            return parse_edge_list(fh, undirected=undirected)
    raise ConfigError(f"cannot interpret {type(X).__name__} as a temporal graph")


class TemporalBetweenness:
    """Compute per-node temporal betweenness as a fit-style estimator.

    Parameters mirror the driver: optimality criterion token, waiting
    bound (None or "inf" for unrestricted), output type (``mode``:
    "exact" gives Fraction scores, "fast" floats; the computation is
    exact either way), worker count, and whether edge-list input should
    be symmetrised.

    After ``fit(X)`` the estimator exposes ``scores_`` (label -> score),
    ``result_`` (the full NodeBetweenness), and ``n_nodes_``/``n_edges_``.
    """

    def __init__(
        self,
        criterion: str = "sh",
        beta: int | str | None = None,
        mode: str = "exact",
        workers: int = 1,
        undirected: bool = False,
    ) -> None:
        self.criterion = criterion
        self.beta = beta
        self.mode = mode
        self.workers = workers
        self.undirected = undirected

    # get_params/set_params over the constructor signature, sklearn-style
    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [p for p in sig.parameters if p != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ConfigError(f"invalid parameter {key!r} for {type(self).__name__}")
            setattr(self, key, value)
        return self

    def fit(self, X, y=None) -> "TemporalBetweenness":
        graph = as_temporal_graph(X, undirected=self.undirected)
        self.result_: NodeBetweenness = node_betweenness(
            graph,
            criterion=self.criterion,
            beta=self.beta,
            mode=self.mode,
            workers=self.workers,
        )
        self.scores_ = self.result_.as_dict()
        self.n_nodes_ = graph.n
        self.n_edges_ = graph.m
        return self

    def fit_transform(self, X, y=None) -> list:
        """Fit and return the score vector in node-id order."""
        return self.fit(X, y).result_.values

    def ranking(self) -> list[tuple[str, object]]:
        if not hasattr(self, "result_"):
            raise ConfigError("estimator is not fitted; call fit first")
        return self.result_.ranking()
