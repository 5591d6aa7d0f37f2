"""Spans and layer counters for the traced benchmark run.

A span has a name, a start, an end and the index of the span that caused
it. The recorder keeps spans in memory; the traced child writes them out
once, after the run. Span names are ``<layer>.<stage>``, where the layer
is the name of the spamrings module that does the work.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the causing span; None for the root

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """Collects nested spans and the arguments and result of each wrapped call."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.calls: dict[str, tuple[tuple, dict, object]] = {}
        self._stack: list[int] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self._clock(), float("nan"), parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = self._clock()

    def wrap(self, name: str, fn):
        """``fn`` inside a span; its arguments and result are kept for counting later."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.calls[name] = (args, kwargs, result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(i, []), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration - covered)
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer (the part of each span name before the dot)."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.layer] = totals.get(span.layer, 0.0) + own
    return totals


def pair_visits(graph) -> int:
    """Sum over reviewers of C(incident nodes, 2): the pair counts build_edges makes."""
    incident = Counter(r for node in graph.nodes for r in node.reviewers)
    return sum(k * (k - 1) // 2 for k in incident.values())


def isolated_nodes(graph) -> int:
    touched = {e.u for e in graph.edges} | {e.v for e in graph.edges}
    return len(graph.nodes) - len(touched)


def modularity_q(adj, labels) -> float:
    """Modularity Q of a hard partition, on a sparse symmetric adjacency."""
    # imported here so that the traced run's import span still pays for numpy
    import numpy as np
    import scipy.sparse as sp

    coo = sp.coo_array(adj)
    labels = np.asarray(labels)
    deg = np.asarray(coo.sum(axis=1)).ravel()
    two_m = float(deg.sum())
    within = float(coo.data[labels[coo.row] == labels[coo.col]].sum())
    by_cluster = np.bincount(labels, weights=deg)
    return (within - float((by_cluster * by_cluster).sum()) / two_m) / two_m
