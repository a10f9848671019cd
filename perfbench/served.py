"""Served workloads: ``AsyncProximityServer`` in front of a ``ProximityEngine``.

The engine keeps its defaults (2 job workers, inline oracle evaluation)
and answers over a Unix socket.  Its strong oracle is the precomputed
SF-POI road metric behind a 1 ms sleep, so oracle latency, cross-query
warm reuse and front-end overhead all show in client latency.  Load comes
from one generator process (``loadgen.py``) with two closed-loop
connections.

``served-queries``: ``tri`` provider over n=600; both connections send
kNN (k=10, 70%), range (20%) and nearest (10%) queries on Zipf(1.2) ids.

``served-churn``: ``laesa`` provider over ``DynamicObjectSet.wrap`` of an
n=400 space (360 live, 40 in reserve), with 4 standing kNN subscriptions.
One connection sends queries; the other alternates a mutate batch (2
removes, 2 inserts) with a query.  Queries and subscriptions target a
stable set of ids that is never removed, so no request is refused by
design.  The generator keeps batches from overlapping queries in flight:
the program does not isolate a query from a batch applied mid-query
(README.md, "Known program defects"); ``concurrent_writes`` lifts that
gate, for the self-test's reproduction of the defect.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from repro.dynamic import DynamicObjectSet
from repro.obs import SpanTracer
from repro.service.aserver import AsyncProximityServer
from repro.service.engine import ProximityEngine
from repro.service.server import mutation_from_dict, spec_from_dict
from repro.spaces.base import BaseSpace

from common import CITY_SEED, median, peak_rss_mb, percentile, road_metric
from layers import time_graph_commits, traced_fn
from spantrace import Tracer
from speedprobe import at_reference, probe

HERE = os.path.dirname(os.path.abspath(__file__))

ORACLE_DELAY_S = 0.001
MIX = [["knn", 0.7], ["range", 0.2], ["nearest", 0.1]]
K = 10
ZIPF = 1.2
#: Range radii: near these quantiles of all pairwise distances (a few to a
#: few dozen hits per query), each the midpoint between the quantile's
#: distance and the next larger one, so that no object lies on a radius.
#: On a radius, ``range_query`` can drop the object (README.md, "Known
#: program defects"); ``selftest.py`` reproduces that case on its own.
RADIUS_QUANTILES = (0.01, 0.02, 0.04)
#: Replayed requests between two speed probes (about a second of work).
REPLAY_CHUNK = 100
SUBSCRIPTIONS = 4

#: ``script`` is the number of requests per connection in the fixed job
#: script behind ``wall_s``, ``strong_calls`` and the replays.  Which ids
#: the first requests touch moves the cold-start calls with the seed, and
#: a longer script dilutes that; on ``served-churn`` a script this long
#: still fits in a 20 s window on a slow host.
CONFIGS = {
    "served-queries": {"n": 600, "live": 600, "provider": "tri", "churn": False, "script": 500},
    "served-churn": {"n": 400, "live": 360, "provider": "laesa", "churn": True, "script": 350},
}
SMOKE = {
    "served-queries": {"n": 80, "live": 80, "script": 10},
    "served-churn": {"n": 80, "live": 70, "script": 10},
}


def strong_calls(record: dict) -> int:
    """Strong oracle calls a request paid (0 for a failed request)."""
    if not record["reply"].get("ok"):
        return 0
    result = record["reply"]["result"]
    if record["request"]["op"] == "submit":
        return result.get("charged_calls", 0)
    return result.get("strong_calls", 0)


class RoadSpace(BaseSpace):
    """Precomputed SF-POI road metric served through a given function."""

    def __init__(self, n: int, diameter: float, metric) -> None:
        super().__init__(n)
        self._diameter = diameter
        self._metric = metric

    def distance(self, i: int, j: int) -> float:
        return self._metric(i, j)

    def diameter_bound(self) -> float:
        return self._diameter


class SleepingMetric:
    """The strong oracle: a table lookup that costs ``delay`` seconds of sleep.

    ``waited`` totals, over all threads, the time calls took from going to
    sleep to running again: the sleep, the wake-up and the wait for the
    interpreter lock, none of which the CPU's speed sets.
    """

    def __init__(self, rows, delay: float) -> None:
        self.rows = rows
        self.delay = delay
        self.waited = 0.0
        self._lock = threading.Lock()

    def __call__(self, i: int, j: int) -> float:
        start = time.perf_counter()
        time.sleep(self.delay)
        waited = time.perf_counter() - start
        with self._lock:
            self.waited += waited
        return self.rows[i][j]


class JobSpans(SpanTracer):
    """Opens an ``engine.job`` span for every job the engine runs.

    The engine enters ``oracle.tracer.span(label)`` around each job on its
    worker thread when the oracle carries a :class:`SpanTracer`; the label
    is the client's request id, so oracle spans nest under their job.
    """

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._bench = tracer
        self._frames = threading.local()

    def push(self, label: str) -> None:
        super().push(label)
        stack = getattr(self._frames, "stack", None)
        if stack is None:
            stack = self._frames.stack = []
        stack.append(self._bench.enter("engine.job", str(label)))

    def pop(self) -> str:
        self._bench.exit(self._frames.stack.pop())
        return super().pop()


class Stack:
    """One set-up: space, engine (with bootstrap), subscriptions, server."""

    def __init__(self, wl: "ServedWorkload", sock: str, tracer: Optional[Tracer] = None) -> None:
        self.oracle = metric = SleepingMetric(wl.rows, ORACLE_DELAY_S)
        if tracer is not None:
            metric = traced_fn(metric, tracer)
        self.engine = wl.make_engine(metric)
        if tracer is not None:
            self.engine.oracle.tracer = JobSpans(tracer)
            time_graph_commits(self.engine.graph, tracer)
        self.server = AsyncProximityServer(self.engine, socket_path=sock).start()

    def close(self) -> None:
        self.server.close()
        self.engine.close(snapshot=False)


class ServedWorkload:
    def __init__(
        self,
        name: str,
        seed: int,
        smoke: bool = False,
        inject: bool = False,
        concurrent_writes: bool = False,
    ) -> None:
        self.name = name
        self.seed = seed
        self.inject = inject
        self.concurrent_writes = concurrent_writes
        self.cfg = dict(CONFIGS[name], **(SMOKE[name] if smoke else {}))
        self.workdir = os.path.join(".perfbench_run", f"{name}-{seed}-{os.getpid()}")
        self.stack: Optional[Stack] = None
        self._setups = 0
        #: What failed, for the run's error output.
        self.failures: List[str] = []

    # -- set-up ---------------------------------------------------------------------

    def setup(self) -> float:
        """Dataset, metric, brute-force reference, engine, server.

        Called several times per run; each call replaces the live stack.
        Returns the seconds the oracle slept (engine bootstrap and
        subscriptions), which the CPU's speed does not set.
        """
        if self.stack is not None:
            self.stack.close()
        cfg = self.cfg
        # The city, and which of its places are popular, stay fixed; the
        # run seed drives the traffic.  With a seeded city or ranking, which
        # places came out hot moved throughput by a quarter between seeds.
        self.rows, self.diameter, _ = road_metric(cfg["n"], None)
        ranked = list(range(cfg["live"]))
        random.Random(CITY_SEED).shuffle(ranked)
        if cfg["churn"]:
            ranked = ranked[: (3 * len(ranked)) // 4]
        self.stable = ranked
        self.sub_ids = self.stable[:SUBSCRIPTIONS] if cfg["churn"] else []
        pairs = sorted(self.rows[i][j] for i in range(cfg["n"]) for j in range(i))
        self.radii = []
        for q in RADIUS_QUANTILES:
            below = pairs[int(q * (len(pairs) - 1))]
            above = pairs[bisect_right(pairs, below)]
            self.radii.append((below + above) / 2.0)
        # Brute-force reference for the initial live set, every query id.
        self.initial = {i: i for i in range(cfg["live"])}
        self._reference: Dict[Tuple[int, int], list] = {}
        for q in self.stable:
            self.neighbors(0, self.initial, q)
        os.makedirs(self.workdir, exist_ok=True)
        self._setups += 1
        sock = os.path.join(self.workdir, f"s{self._setups}.sock")
        self.stack = Stack(self, sock)
        return self.stack.oracle.waited

    def make_engine(self, metric, provider: Optional[str] = None) -> ProximityEngine:
        """An engine over the workload's space, answering through ``metric``."""
        cfg = self.cfg
        space = RoadSpace(cfg["n"], self.diameter, metric)
        if cfg["churn"]:
            space = DynamicObjectSet.wrap(space, initial=cfg["live"])
        engine = ProximityEngine.for_space(space, provider=provider or cfg["provider"])
        for q in self.sub_ids:
            engine.subscribe_knn(q, K)
        return engine

    def close(self) -> None:
        if self.stack is not None:
            self.stack.close()
            self.stack = None
        if os.path.isdir(self.workdir):
            for name in os.listdir(self.workdir):
                os.unlink(os.path.join(self.workdir, name))
            os.rmdir(self.workdir)

    # -- brute-force reference ----------------------------------------------------

    def neighbors(self, version: int, live: Dict[int, int], q: int) -> list:
        """All live ``(distance, id)`` pairs around ``q``, ascending."""
        key = (version, q)
        found = self._reference.get(key)
        if found is None:
            row = self.rows[live[q]]
            found = sorted((row[p], c) for c, p in live.items() if c != q)
            self._reference[key] = found
        return found

    @staticmethod
    def expected(spec: dict, neighbors: list):
        params = spec["params"]
        kind = spec["kind"]
        if kind == "knn":
            return [[d, c] for d, c in neighbors[: params["k"]]]
        if kind == "range":
            cut = bisect_right(neighbors, (params["radius"], float("inf")))
            return sorted(c for _, c in neighbors[:cut])
        d, c = neighbors[0]
        return [c, d]

    # -- load ---------------------------------------------------------------------

    def generate(self, seconds: float) -> dict:
        """Run the load generator against the live stack; return its log."""
        cfg = self.cfg
        connections = [{"role": "query"}, {"role": "query"}]
        if cfg["churn"]:
            stable = set(self.stable)
            connections[1] = {
                "role": "churn",
                "churnable": {str(i): i for i in range(cfg["live"]) if i not in stable},
                "reserve": list(range(cfg["live"], cfg["n"])),
                "removes": 2,
                "inserts": 2,
                # The same batches in every run; the run seed drives the
                # queries.  See README.md ("How a seed varies the inputs").
                "seed": CITY_SEED,
            }
        config = {
            "socket": self.stack.server.socket_path,
            "seconds": seconds,
            "min_requests": self.cfg["script"],
            "seed": self.seed,
            "query_ids": self.stable,
            "zipf": ZIPF,
            "mix": MIX,
            "k": K,
            "radii": self.radii,
            "connections": connections,
            "exclusive_writes": cfg["churn"] and not self.concurrent_writes,
        }
        path = os.path.join(self.workdir, "loadgen.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        # Each segment of the load is probed on either side, while the
        # generator pauses (see ``summarise``).
        probes, waited, out = [], [], None
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "loadgen.py"), path],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        watchdog = threading.Timer(seconds + 150, proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                if line.strip() == "pause":
                    waited.append(self.stack.oracle.waited)
                    probes.append(probe())
                    proc.stdin.write("go\n")
                    proc.stdin.flush()
                elif line.strip():
                    out = json.loads(line)
            waited.append(self.stack.oracle.waited)
            probes.append(probe())
            proc.wait(timeout=60)
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            stderr = proc.stderr.read()
            proc.stdin.close()
            proc.stdout.close()
            proc.stderr.close()
        if proc.returncode != 0 or out is None:
            raise RuntimeError(f"load generator failed: {stderr.strip()}")
        if out["errors"]:
            raise RuntimeError("; ".join(out["errors"]))
        out["speed"] = [at_reference(1.0, a, b) for a, b in zip(probes, probes[1:])]
        out["slept"] = [b - a for a, b in zip(waited, waited[1:])]
        return out

    # -- checking -------------------------------------------------------------------

    def versions(self, records: List[dict]):
        """Live-set versions from the mutation log, with their lifetimes.

        Version ``v`` came into being while batch ``v`` was in flight and
        ended while batch ``v + 1`` was: it may have been visible anywhere
        from the send of the first to the reply of the second.
        """
        live = dict(self.initial)
        states = [dict(live)]
        spans = [[float("-inf"), float("inf")]]
        for r in records:
            if r["request"]["op"] != "mutate" or not r["reply"].get("ok"):
                continue
            result = r["reply"]["result"]
            removed = [m["id"] for m in r["request"]["mutations"] if m["kind"] == "remove"]
            payloads = [m["payload"] for m in r["request"]["mutations"] if m["kind"] == "insert"]
            for s in removed:
                del live[s]
            for s, p in zip(result["inserted_ids"], payloads):
                live[int(s)] = int(p)
            spans[-1][1] = r["replied"]
            states.append(dict(live))
            spans.append([r["sent"], float("inf")])
        return states, spans

    def check(self, log: List[List[dict]]) -> Tuple[int, int]:
        """Count attempted and failed (or wrong) requests."""
        records = [r for conn in log for r in conn]
        states, spans = self.versions(sorted(records, key=lambda r: r["sent"]))
        # Versions after the first belong to this log only.
        self._reference = {k: v for k, v in self._reference.items() if k[0] == 0}
        attempted = failed = 0
        injected = not self.inject
        for r in records:
            attempted += 1
            reply = r["reply"]
            if not reply.get("ok"):
                failed += 1
                self.failures.append(f"{r['request']}: {reply.get('error')}")
                continue
            if r["request"]["op"] != "submit":
                continue
            result = reply["result"]
            if result["status"] != "completed":
                failed += 1
                self.failures.append(f"{r['request']}: {result['status']} {result['error']}")
                continue
            value = result["value"]
            if not injected:
                value, injected = ["injected wrong answer"], True
            spec = r["request"]["spec"]
            q = spec["params"]["query"]
            ok = False
            for v, (begin, end) in enumerate(spans):
                if begin <= r["replied"] and end >= r["sent"]:
                    if value == self.expected(spec, self.neighbors(v, states[v], q)):
                        ok = True
                        break
            if not ok:
                failed += 1
                self.failures.append(f"{r['request']}: wrong answer {value}")
        return attempted, failed

    # -- measurement ----------------------------------------------------------------

    def script(self, log: List[List[dict]]) -> List[dict]:
        """The fixed job script: the first requests of every connection."""
        return [r for conn in log for r in conn[: self.cfg["script"]]]

    def summarise(self, out: dict) -> Dict[str, float]:
        log = out["log"]
        records = [r for conn in log for r in conn]
        queries = [r for r in records if r["request"]["op"] == "submit"]
        script = self.script(log)
        charged = sum(strong_calls(r) for r in script)
        # The clients' waiting in a segment is in part the oracle's sleeps,
        # which the CPU's speed does not set, and in part the rest (CPU, and
        # waits for it): the segment's probe factor applies to the rest only.
        scale = []
        for seg, (factor, slept) in enumerate(zip(out["speed"], out["slept"])):
            busy = sum(r["replied"] - r["ready"] for r in records if r["seg"] == seg)
            scale.append(factor + (1.0 - factor) * min(1.0, slept / busy) if busy else factor)
        # Latency is the round trip from the send: on served-churn a query's
        # wait at the write gate is left out, since whether a query met a
        # batch splits latencies into two modes and p50 jumped between them
        # from seed to seed (0.5 spread over ten seeds).  The waits stay in
        # wall_s and ops_per_s.
        latencies = [1e3 * scale[r["seg"]] * (r["replied"] - r["sent"]) for r in queries]
        # Each client's part of the script is timed on its own, segment by
        # segment at the segment's speed (pauses are not load); wall_s is
        # their mean.  The clients' shares of the throughput shift from run
        # to run (writes and reads take turns at the engine's lock): over ten
        # seeds of served-churn the slowest client's time spread by a quarter
        # (quartile distance over median), the mean by under a tenth.
        spans = []
        for conn in log:
            span = 0.0
            for seg, factor in enumerate(scale):
                part = [r for r in conn[: self.cfg["script"]] if r["seg"] == seg]
                if part:
                    span += factor * (max(r["replied"] for r in part) - min(r["ready"] for r in part))
            spans.append(span)
        wall = sum(spans) / len(spans)
        active = sum(f * (end - start) for f, (start, end) in zip(scale, out["segments"]))
        return {
            "wall_s": wall,
            "strong_calls": self.stack.engine.bootstrap_calls + charged,
            "p50_ms": percentile(latencies, 0.5),
            "p95_ms": percentile(latencies, 0.95),
            "ops_per_s": len(records) / active,
        }

    def replay(self, script: List[dict], provider: str) -> Tuple[float, float, int]:
        """Serve the job script in send order on a fresh engine, no oracle delay.

        Returns ``(wall seconds, cpu seconds, strong calls)``, the times at
        the reference speed: a probe runs after every ``REPLAY_CHUNK``
        requests, and each chunk is scaled by the probes on either side of
        it.  The engine's construction (and any bootstrap) is part of the
        measured work.  ``vanilla_wall_s`` is the ``none`` replay; the
        traced run also replays under the workload's provider for the
        breakeven figure.
        """
        rows = self.rows
        ordered = sorted(script, key=lambda r: r["sent"])
        wall = cpu = 0.0
        before = probe()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        engine = self.make_engine(lambda i, j: rows[i][j], provider)
        try:
            for done, r in enumerate(ordered, 1):
                request = r["request"]
                if request["op"] == "submit":
                    engine.run(spec_from_dict(request["spec"]))
                else:
                    engine.apply_mutations(mutation_from_dict(m) for m in request["mutations"])
                if done % REPLAY_CHUNK == 0 or done == len(ordered):
                    chunk_wall = time.perf_counter() - wall0
                    chunk_cpu = time.process_time() - cpu0
                    after = probe()
                    wall += at_reference(chunk_wall, before, after)
                    cpu += at_reference(chunk_cpu, before, after)
                    before = after
                    wall0, cpu0 = time.perf_counter(), time.process_time()
            calls = engine.oracle.calls
        finally:
            engine.close(snapshot=False)
        return wall, cpu, calls

    def measure(self, seconds: float) -> Tuple[Dict[str, float], int, int]:
        out = self.generate(seconds)
        # The server's peak, before the check's brute-force references (one
        # per live-set version on served-churn) add to it.
        rss = peak_rss_mb()
        attempted, failed = self.check(out["log"])
        metrics = self.summarise(out)
        metrics["peak_rss_mb"] = rss
        metrics["vanilla_wall_s"], _, _ = self.replay(self.script(out["log"]), "none")
        return metrics, attempted, failed

    def measure_traced(self, seconds: float) -> Tuple[Dict[str, float], int, int]:
        """An untraced and a traced stack, each fresh; per-layer metrics."""
        half = seconds / 2.0
        out = self.generate(half)
        attempted, failed = self.check(out["log"])
        base = self.summarise(out)
        breakeven = self.breakeven(self.script(out["log"]))
        self.stack.close()
        tracer = Tracer()
        self._setups += 1
        self.stack = Stack(self, os.path.join(self.workdir, f"s{self._setups}.sock"), tracer)
        out = self.generate(half)
        a, f = self.check(out["log"])
        seen = self.summarise(out)
        self.tracer = tracer
        for conn in out["log"]:
            for r in conn:
                label = r["request"].get("spec", {}).get("label")
                tracer.record("frontend.request", r["sent"], r["replied"], label)
        metrics = self.layer_metrics(out, base, seen, tracer)
        metrics.update(breakeven)
        return metrics, attempted + a, failed + f

    def breakeven(self, script: List[dict]) -> Dict[str, float]:
        """Extra CPU per saved strong call: the script replayed both ways."""
        _, acc_cpu, acc_calls = self.replay(script, self.cfg["provider"])
        _, van_cpu, van_calls = self.replay(script, "none")
        extra = acc_cpu - van_cpu
        saved = van_calls - acc_calls
        return {
            "breakeven_us": 1e6 * extra / max(1, saved),
            "breakeven.extra_cpu_s": extra,
            "breakeven.saved_calls": saved,
        }

    def layer_metrics(self, out, base, seen, tracer: Tracer) -> Dict[str, float]:
        engine = self.stack.engine
        records = [r for conn in out["log"] for r in conn if r["reply"].get("ok")]
        jobs = [r for r in records if r["request"]["op"] == "submit"]
        writes = [r for r in records if r["request"]["op"] == "mutate"]
        results = [r["reply"]["result"] for r in jobs]
        charged = sum(x["charged_calls"] for x in results)
        warm = sum(x["warm_resolutions"] for x in results)
        snapshot = engine.registry.snapshot()

        def registry_sum(prefix: str, label: str = "") -> float:
            return sum(v for k, v in snapshot.items() if k.startswith(prefix) and label in k)

        by_bounds = registry_sum("repro_resolver_comparisons_total", 'decided_by="bounds"')
        by_oracle = registry_sum("repro_resolver_comparisons_total", 'decided_by="oracle"')
        write_ms = [1e3 * (r["replied"] - r["sent"]) for r in writes]
        mutations = [r["reply"]["result"] for r in writes]
        deltas = sum(
            len(engine.subscription_deltas(sub.sub_id, 0)) for sub in engine.subscriptions.all()
        )
        return {
            "resolver.prune_frac": by_bounds / max(1.0, by_bounds + by_oracle),
            "resolver.memo_hit_frac": registry_sum("repro_resolver_memo_hits_total")
            / max(1.0, registry_sum("repro_resolver_bound_queries_total")),
            "graph.commit_s": tracer.self_seconds("graph.add_edge"),
            "graph.edges": engine.graph.num_edges,
            "oracle.calls": tracer.count("oracle.distance"),
            "oracle.busy_s": tracer.total_seconds("oracle.distance"),
            "oracle.cache_hits": engine.oracle.cache_hits,
            "engine.latency_p50_ms": 1e3 * median([x["latency_seconds"] for x in results]),
            "engine.bound_s": registry_sum("repro_resolver_bound_seconds_total"),
            "engine.warm_frac": warm / max(1, warm + charged),
            "engine.calls_per_job": charged / max(1, len(jobs)),
            "frontend.overhead_ms": 1e3
            * median([r["replied"] - r["sent"] - r["reply"]["result"]["latency_seconds"] for r in jobs]),
            "dynamic.maintain_calls": sum(m["strong_calls"] for m in mutations),
            "dynamic.edges_dropped": sum(m["edges_dropped"] for m in mutations),
            "dynamic.memo_purged": sum(m["memo_purged"] for m in mutations),
            "dynamic.subscription_deltas": deltas,
            "dynamic.write_p50_ms": percentile(write_ms, 0.5),
            "dynamic.write_p90_ms": percentile(write_ms, 0.9),
            "trace.overhead_frac": seen["wall_s"] / base["wall_s"] - 1.0,
            "trace.spans": tracer.num_spans(),
            "trace.strong_calls": seen["strong_calls"],
            "trace.untraced_strong_calls": base["strong_calls"],
        }
