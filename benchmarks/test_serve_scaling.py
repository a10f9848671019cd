"""Serving-throughput benchmark — overlapping an expensive oracle in one process.

The acceptance experiment for the served path: a 16-query kNN workload
against a 6 ms-per-call oracle must run at least **2.5x faster** on one
:class:`~repro.service.ProximityEngine` with a 4-worker threaded oracle
executor than on an inline engine with a single job worker, with answers
identical query for query and the two engines' resolved-edge sequences
(``graph.edge_arrays()``) identical row for row.

The oracle *sleeps* rather than burns CPU — that is the paper's regime (an
expensive distance call is dominated by I/O / external computation, not
local arithmetic), and it is what lets oracle threads overlap even on a
single core.

Set ``SERVE_SCALING_JSON`` to a path to dump the raw measurements for
``scripts/bench_to_json.py`` (CI turns them into
``BENCH_serve_scaling.json``).
"""

import json
import os
import time

from repro.datasets import flickr_space
from repro.harness import render_table
from repro.service import ProximityEngine
from repro.service.jobs import JobSpec

N = 64
# 6 ms per call: expensive enough that oracle latency (which oracle threads
# overlap) dominates the per-resolution CPU bookkeeping (which a single
# core cannot parallelise) — the regime the paper's expensive-oracle
# setting models.
DELAY = 0.006
NUM_QUERIES = 16
ORACLE_WORKERS = 4
SPEEDUP_FLOOR = 2.5


class SlowSpace:
    """Delegate to a real space, but make every distance call sleep."""

    def __init__(self, inner, delay):
        self._inner = inner
        self._delay = delay

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def distance(self, i, j):
        time.sleep(self._delay)
        return self._inner.distance(i, j)

    def oracle(self, cost_per_call=0.0, budget=None):
        from repro.core.oracle import DistanceOracle

        return DistanceOracle(
            self.distance, self._inner.n, cost_per_call=cost_per_call, budget=budget
        )


def _workload():
    return [
        JobSpec(kind="knn", params={"query": (7 * idx) % N, "k": 4 + idx % 3})
        for idx in range(NUM_QUERIES)
    ]


def _timed(engine, workload):
    """Run the workload; return answers, seconds and the resolved edges."""
    try:
        started = time.perf_counter()
        answers = [engine.run(spec) for spec in workload]
        elapsed = time.perf_counter() - started
        i, j, w = engine.graph.edge_arrays()
        edges = list(zip(i.tolist(), j.tolist(), w.tolist()))
    finally:
        engine.close(snapshot=False)
    return [r.value for r in answers], elapsed, edges


def test_threaded_oracle_beats_inline_2_5x(report):
    space = SlowSpace(flickr_space(n=N, dim=6, seed=23), DELAY)
    workload = _workload()

    inline_answers, inline_seconds, inline_edges = _timed(
        ProximityEngine.for_space(space, provider="none", job_workers=1),
        workload,
    )
    threaded_answers, threaded_seconds, threaded_edges = _timed(
        ProximityEngine.for_space(
            space,
            provider="none",
            executor="threaded",
            oracle_workers=ORACLE_WORKERS,
        ),
        workload,
    )

    # Answers must be identical, query for query.
    assert threaded_answers == inline_answers
    # The resolved-edge sequences must be identical, row for row.
    assert threaded_edges == inline_edges

    speedup = inline_seconds / threaded_seconds
    report(
        render_table(
            ["engine", "seconds", "throughput (q/s)", "speedup"],
            [
                ["inline", round(inline_seconds, 2),
                 round(NUM_QUERIES / inline_seconds, 2), 1.0],
                [f"threaded x{ORACLE_WORKERS}", round(threaded_seconds, 2),
                 round(NUM_QUERIES / threaded_seconds, 2), round(speedup, 2)],
            ],
            title=f"{NUM_QUERIES} kNN queries, n={N}, "
            f"{DELAY * 1e3:.0f} ms/oracle call, {len(inline_edges)} edges",
        )
    )

    dump = os.environ.get("SERVE_SCALING_JSON")
    if dump:
        with open(dump, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "n": N,
                    "queries": NUM_QUERIES,
                    "oracle_delay_seconds": DELAY,
                    "oracle_workers": ORACLE_WORKERS,
                    "inline_seconds": inline_seconds,
                    "threaded_seconds": threaded_seconds,
                    "speedup": speedup,
                    "resolved_edges": len(inline_edges),
                    "answers_identical": True,
                    "edges_identical": True,
                },
                fh,
                indent=2,
            )

    assert speedup >= SPEEDUP_FLOOR, (
        f"{ORACLE_WORKERS} oracle workers ran the workload only "
        f"{speedup:.2f}x faster than an inline engine — below the "
        f"{SPEEDUP_FLOOR}x acceptance floor"
    )
