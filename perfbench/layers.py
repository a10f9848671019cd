"""Wrappers that time calls into the program's layers from the outside.

Each wrapper goes through a public entry point and changes no decision,
so a traced run resolves exactly the pairs an untraced run resolves:

* the oracle's distance function (``oracle.distance`` spans);
* a :class:`SmartResolver` subclass (and a :class:`DirectResolver` one for
  the naive NSG build) overriding the public predicates
  (``resolver.<kind>`` spans);
* a :class:`BoundProxy` standing in for the bound provider, forwarding
  every other attribute (``bounds.*`` spans, pair and batch counts);
* ``graph.add_edge`` on the partial distance graph (``graph.add_edge``).
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Iterable, List, Tuple

from repro.core.resolver import SmartResolver
from repro.graphs import DirectResolver

from spantrace import Tracer

#: Resolver predicates and searches timed as ``resolver.<kind>`` spans.
RESOLVER_KINDS = (
    "distance",
    "is_at_least",
    "is_greater",
    "less",
    "compare",
    "argmin",
    "knearest",
    "resolve_many",
    "bounds_many",
    "bounds",
)


def _spanned(method: Callable, name: str) -> Callable:
    @functools.wraps(method)
    def traced(self, *args, **kwargs):
        tracer = self.tracer
        frame = tracer.enter(name)
        try:
            return method(self, *args, **kwargs)
        finally:
            tracer.exit(frame)

    return traced


def _traced_class(base: type) -> type:
    namespace = {
        kind: _spanned(getattr(base, kind), "resolver." + kind)
        for kind in RESOLVER_KINDS
        if hasattr(base, kind)
    }
    return type("Traced" + base.__name__, (base,), namespace)


#: Resolver classes whose predicates open spans on ``self.tracer``.
TracedSmartResolver = _traced_class(SmartResolver)
TracedDirectResolver = _traced_class(DirectResolver)


def traced_fn(fn: Callable[[int, int], float], tracer: Tracer) -> Callable[[int, int], float]:
    """Wrap a distance function so each evaluation is an ``oracle.distance`` span."""

    def distance(i: int, j: int) -> float:
        frame = tracer.enter("oracle.distance")
        try:
            return fn(i, j)
        finally:
            tracer.exit(frame)

    return distance


def time_graph_commits(graph: Any, tracer: Tracer) -> None:
    """Time every ``graph.add_edge`` as a ``graph.add_edge`` span."""
    add_edge = graph.add_edge

    def timed(i: int, j: int, distance: float) -> bool:
        frame = tracer.enter("graph.add_edge")
        try:
            return add_edge(i, j, distance)
        finally:
            tracer.exit(frame)

    graph.add_edge = timed


class BoundProxy:
    """Bound provider stand-in: times the four entry points, forwards the rest."""

    def __init__(self, provider: Any, tracer: Tracer) -> None:
        self._provider = provider
        self._tracer = tracer
        #: Pairs bounded, scalar queries and batch members alike.
        self.pairs = 0
        #: ``bounds_many`` dispatches, and the pairs they carried.
        self.batches = 0
        self.batch_pairs = 0

    def __getattr__(self, name: str) -> Any:
        return getattr(self._provider, name)

    def bounds(self, i: int, j: int):
        self.pairs += 1
        frame = self._tracer.enter("bounds.bounds")
        try:
            return self._provider.bounds(i, j)
        finally:
            self._tracer.exit(frame)

    def bounds_many(self, pairs: Iterable[Tuple[int, int]]) -> List:
        pairs = list(pairs)
        self.pairs += len(pairs)
        self.batches += 1
        self.batch_pairs += len(pairs)
        frame = self._tracer.enter("bounds.bounds_many")
        try:
            return self._provider.bounds_many(pairs)
        finally:
            self._tracer.exit(frame)

    def notify_resolved(self, i: int, j: int, distance: float) -> None:
        frame = self._tracer.enter("bounds.notify_resolved")
        try:
            self._provider.notify_resolved(i, j, distance)
        finally:
            self._tracer.exit(frame)

    def decide_less(self, a, b):
        frame = self._tracer.enter("bounds.decide_less")
        try:
            return self._provider.decide_less(a, b)
        finally:
            self._tracer.exit(frame)
