"""In-memory span tracer for the benchmark's traced runs.

A span marks one call into a layer of the program: a name such as
``resolver.less``, a start and an end, the span that caused it, and the id
of the job it served.  Every span folds into per-name totals (count, total
seconds, self seconds); the first ``keep`` spans of each thread are also
kept one by one and written out with :meth:`Tracer.write` when the run
ends.  A span's self time is its duration minus the time its child spans
cover.

Stacks are per thread, so spans from engine worker threads nest
independently.  Nothing here touches the program: the benchmark opens
spans from its own wrappers around the layers' public entry points.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Dict, List, Optional


class _ThreadState:
    __slots__ = ("stack", "totals", "spans")

    def __init__(self) -> None:
        # Frame: [name, span id, parent frame, job id, start, child seconds]
        self.stack: List[list] = []
        self.totals: Dict[str, List[float]] = {}
        self.spans: List[tuple] = []


class Tracer:
    """Span recorder with per-name totals and a capped span log."""

    def __init__(self, keep: int = 20_000) -> None:
        self.keep = keep
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def enter(self, name: str, job: Optional[str] = None) -> list:
        """Open a span on the calling thread; pass the frame to :meth:`exit`."""
        stack = self._state().stack
        parent = stack[-1] if stack else None
        if job is None and parent is not None:
            job = parent[3]
        frame = [name, next(self._ids), parent, job, time.perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        """Close ``frame``, which must be the innermost open span."""
        end = time.perf_counter()
        state = self._state()
        state.stack.pop()
        name, span_id, parent, job, start, child = frame
        duration = end - start
        if parent is not None:
            parent[5] += duration
        self._fold(state, name, duration, duration - child)
        if len(state.spans) < self.keep:
            state.spans.append(
                (span_id, name, start, end, parent[1] if parent else None, job)
            )

    def record(self, name: str, start: float, end: float, job: Optional[str] = None) -> None:
        """Add a finished root span measured elsewhere (client timings)."""
        state = self._state()
        self._fold(state, name, end - start, end - start)
        if len(state.spans) < self.keep:
            state.spans.append((next(self._ids), name, start, end, None, job))

    @staticmethod
    def _fold(state: _ThreadState, name: str, duration: float, self_time: float) -> None:
        total = state.totals.get(name)
        if total is None:
            total = state.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += self_time

    # -- results ---------------------------------------------------------------

    def totals(self) -> Dict[str, List[float]]:
        """``{name: [count, total seconds, self seconds]}`` over all threads."""
        merged: Dict[str, List[float]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (count, total, self_time) in state.totals.items():
                acc = merged.setdefault(name, [0, 0.0, 0.0])
                acc[0] += count
                acc[1] += total
                acc[2] += self_time
        return merged

    def count(self, prefix: str) -> int:
        """Spans whose name starts with ``prefix``."""
        return int(sum(t[0] for n, t in self.totals().items() if n.startswith(prefix)))

    def self_seconds(self, prefix: str) -> float:
        """Self time of the spans whose name starts with ``prefix``."""
        return sum(t[2] for n, t in self.totals().items() if n.startswith(prefix))

    def total_seconds(self, prefix: str) -> float:
        """Total duration of the spans whose name starts with ``prefix``."""
        return sum(t[1] for n, t in self.totals().items() if n.startswith(prefix))

    def num_spans(self) -> int:
        return int(sum(t[0] for t in self.totals().values()))

    def write(self, path: str, extra: Optional[dict] = None) -> int:
        """Write kept spans as JSON lines; returns the number written."""
        with self._lock:
            states = list(self._states)
        spans = sorted(s for state in states for s in state.spans)
        with open(path, "w", encoding="utf-8") as out:
            if extra:
                out.write(json.dumps({"run": extra}) + "\n")
            for span_id, name, start, end, parent, job in spans:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "job": job,
                        }
                    )
                    + "\n"
                )
        return len(spans)
