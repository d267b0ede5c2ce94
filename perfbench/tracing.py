"""Per-layer tracing by wrapping the library's public functions.

``Tracer.installed()`` replaces module attributes of ``tempobet.driver``,
``tempobet.nonrestless`` and ``tempobet.restless`` with timing wrappers
and restores them on exit.  The library calls these functions through
their module globals, so the wrappers see every call of an in-process
(single worker) solve.  Each call becomes a span (name, start, end,
parent); counters read from the values the functions return are
accumulated alongside.  Counting runs outside any span's own time: its
duration is subtracted from every span open around it, so layer times
are not inflated by the tracer's bookkeeping.  ``overhead_s()`` is what
the tracer adds to a solve: that bookkeeping plus the spans' own cost,
each priced at ``span_cost()``.
"""
from __future__ import annotations

import contextlib
import time
import types
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    #: bookkeeping time spent inside this span, excluded from its duration
    excluded: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start - self.excluded


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    bookkeeping_s: float = 0.0
    _open: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span, child of the innermost open span."""
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._open.append(index)
        try:
            yield self.spans[index]
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def count_max(self, key: str, value: int) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def overhead_s(self) -> float:
        """Seconds the tracer added to the calls it recorded."""
        return self.bookkeeping_s + len(self.spans) * span_cost()

    def _bookkeep(self, fn, *args) -> None:
        t0 = time.perf_counter()
        fn(*args)
        dt = time.perf_counter() - t0
        self.bookkeeping_s += dt
        for i in self._open:
            self.spans[i].excluded += dt

    def _wrap(self, module, attr: str, name: str, on_return=None):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
                if on_return is not None:
                    self._bookkeep(on_return, result, args)
            return result

        return original, wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch the layer functions for the duration of the block."""
        from tempobet import driver, nonrestless, restless

        plan = [
            (driver, "single_source_edge_betweenness", "driver.engine", self._on_engine),
            (driver, "revisit_continuations", "driver.revisit", self._on_revisit),
            (nonrestless, "forward_phase", "nonrestless.forward", self._on_nonrestless_forward),
            (nonrestless, "intermediate_phase", "nonrestless.intermediate", None),
            (nonrestless, "backward_phase", "nonrestless.backward", None),
            # restless binds its own name for the shared intermediate phase
            (restless, "intermediate_phase", "nonrestless.intermediate", None),
            (restless, "restless_forward", "restless.forward", self._on_restless_forward),
            (restless, "restless_backward", "restless.backward", self._on_restless_backward),
        ]
        saved = []
        try:
            for module, attr, name, on_return in plan:
                original, wrapper = self._wrap(module, attr, name, on_return)
                saved.append((module, attr, original))
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- counters read from return values ---------------------------------

    def _on_engine(self, result, args) -> None:
        _edge_bc, back = result
        source = args[1]
        touched = sum(1 for u, c in enumerate(back.target_count) if c and u != source)
        self.count("touched_pairs", touched)
        self.count("sources", 1)
        self.count("nodes", len(back.target_count))

    def _on_revisit(self, table, args) -> None:
        self.count("revisit_nonzero", sum(1 for x in table if x))

    def _count_edges(self, edge_count) -> None:
        self.count("edges_reached", sum(1 for c in edge_count if c))
        self.count("edges_scanned", len(edge_count))
        self.count_max("count_bits_max", max(map(int.bit_length, edge_count), default=0))

    def _on_nonrestless_forward(self, fwd, args) -> None:
        self._count_edges(fwd.edge_count)

    def _on_restless_forward(self, scan, args) -> None:
        self._count_edges(scan.edge_count)
        self.count("quintuples", scan.stats["quintuples"])
        self.count("finalised", scan.stats["finalised"])

    def _on_restless_backward(self, edge_bc, args) -> None:
        self.count("window_ops", args[3].stats["window_ops"])



def span_cost() -> float:
    """Seconds one traced call costs over a direct call of the same
    function: the least over 5 loops of 20,000 calls of a no-op, so a
    slow moment of the machine does not inflate it."""
    calls = 20000
    stub = types.SimpleNamespace(f=lambda: None)
    best = float("inf")
    for _ in range(5):
        _, wrapped = Tracer()._wrap(stub, "f", "stub")
        t0 = time.perf_counter()
        for _ in range(calls):
            stub.f()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)
