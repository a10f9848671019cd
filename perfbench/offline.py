"""Offline workloads: the paper's host algorithms under three bound providers.

Every job runs once per provider in each pass: ``none`` (the vanilla
algorithm; the naive :class:`DirectResolver` for NSG), ``tri`` and
``laesa``.  The metric is precomputed in set-up, so all three pay the same
cheap oracle and wall time measures the program's own CPU: host
algorithm, resolver, bound provider and graph commits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.algorithms import clarans, knn_graph, pam, prim_mst
from repro.core.oracle import DistanceOracle
from repro.core.resolver import ResolverStats, SmartResolver
from repro.graphs import DirectResolver, build_nsg
from repro.harness.providers import LANDMARK_PROVIDERS, make_provider

from common import median, percentile, road_metric
from layers import (
    BoundProxy,
    RESOLVER_KINDS,
    TracedDirectResolver,
    TracedSmartResolver,
    time_graph_commits,
    traced_fn,
)
from spantrace import Tracer
from speedprobe import at_reference, probe

PROVIDERS = ("none", "tri", "laesa")
ACCELERATED = ("tri", "laesa")


@dataclass(frozen=True)
class Job:
    algorithm: str
    n: int
    params: Tuple[Tuple[str, int], ...]
    #: Inputs independent of the run seed: the city's own labels and the
    #: algorithm's default seed.
    fixed: bool = False


#: Jobs per workload; ``smoke`` sizes keep the self-test quick.
WORKLOADS = {
    "offline-graph": (
        Job("prim", 250, ()),
        Job("knng", 250, (("k", 10),)),
        Job("nsg", 250, (("r", 8), ("k", 16))),
    ),
    "offline-medoids": (
        # PAM's cost swings by a quarter with its random initial medoids, and
        # averaging enough starts to steady it does not fit in a run: PAM
        # always starts from the same medoids and runs at most three swap
        # rounds (each round makes all l(n-l)n comparisons).  CLARANS
        # carries the run seed, with six local searches (three times its
        # default) so one run averages over its random restarts.
        Job("pam", 200, (("l", 5), ("max_iterations", 3)), fixed=True),
        Job("clarans", 200, (("l", 5), ("num_local", 6))),
    ),
}
SMOKE_N = {"prim": 60, "knng": 60, "nsg": 60, "pam": 40, "clarans": 50}


def _run_algorithm(resolver, job: Job, seed: int, root: int):
    params = dict(job.params)
    if job.algorithm == "prim":
        # Prim's call count swings by a third with its root; every seed
        # grows the tree from the same object.
        return prim_mst(resolver, root=root)
    if job.algorithm == "knng":
        return knn_graph(resolver, k=params["k"])
    if job.algorithm == "nsg":
        return build_nsg(resolver, r=params["r"], k=params["k"])
    if job.algorithm == "pam":
        return pam(resolver, l=params["l"], max_iterations=params["max_iterations"])
    if job.algorithm == "clarans":
        return clarans(resolver, l=params["l"], seed=seed, num_local=params["num_local"])
    raise ValueError(job.algorithm)


def answer_key(algorithm: str, result) -> Any:
    """The part of an output that must equal the vanilla run's."""
    if algorithm == "prim":
        return result.edge_set()
    if algorithm == "knng":
        return result.neighbors
    if algorithm == "nsg":
        return result.edges_signature()
    return (result.medoids, result.cost)


@dataclass
class RunRecord:
    """One (job, provider) run."""

    algorithm: str
    provider: str
    wall_s: float
    cpu_s: float
    calls: int
    key: Any = field(repr=False)
    stats: Optional[ResolverStats] = field(repr=False, default=None)
    proxy: Optional[BoundProxy] = field(repr=False, default=None)
    edges: int = 0
    cache_hits: int = 0


def run_job(job: Job, provider: str, data, seed: int, tracer: Optional[Tracer] = None) -> RunRecord:
    """Build a fresh oracle and resolver, then run one job end to end."""
    rows, diameter, label = data
    fn = lambda i, j: rows[i][j]  # noqa: E731 - the cheap precomputed metric
    if tracer is not None:
        fn = traced_fn(fn, tracer)
    oracle = DistanceOracle(fn, len(rows))
    proxy = None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    host = tracer.enter("algorithms", f"{job.algorithm}/{provider}") if tracer else None
    if job.algorithm == "nsg" and provider == "none":
        resolver = TracedDirectResolver(oracle) if tracer else DirectResolver(oracle)
    else:
        resolver = TracedSmartResolver(oracle) if tracer else SmartResolver(oracle)
        bounder = make_provider(provider, resolver.graph, diameter)
        if tracer is not None:
            proxy = BoundProxy(bounder, tracer)
            time_graph_commits(resolver.graph, tracer)
        resolver.bounder = proxy or bounder
    if tracer is not None:
        resolver.tracer = tracer
    if provider in LANDMARK_PROVIDERS:
        frame = tracer.enter("bounds.bootstrap") if tracer else None
        bounder.bootstrap(resolver)
        if frame is not None:
            tracer.exit(frame)
    result = _run_algorithm(resolver, job, seed, label[0])
    if host is not None:
        tracer.exit(host)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    smart = isinstance(resolver, SmartResolver)
    return RunRecord(
        algorithm=job.algorithm,
        provider=provider,
        wall_s=wall,
        cpu_s=cpu,
        calls=oracle.calls,
        key=answer_key(job.algorithm, result),
        stats=resolver.collect_stats() if smart else None,
        proxy=proxy,
        edges=resolver.graph.num_edges if smart else 0,
        cache_hits=oracle.cache_hits,
    )


class OfflineWorkload:
    def __init__(self, name: str, seed: int, smoke: bool = False, inject: bool = False) -> None:
        self.seed = seed
        self.inject = inject
        self.jobs = tuple(
            Job(j.algorithm, SMOKE_N[j.algorithm], j.params, j.fixed) if smoke else j
            for j in WORKLOADS[name]
        )
        self.data: Dict[Tuple[int, bool], Any] = {}
        #: What failed, for the run's error output.
        self.failures: List[str] = []

    def setup(self) -> float:
        """Build the seeded datasets and precompute their metrics.

        Returns the seconds spent sleeping, none here.
        """
        self.data = {
            (j.n, j.fixed): road_metric(j.n, None if j.fixed else self.seed) for j in self.jobs
        }
        return 0.0

    # -- one pass ----------------------------------------------------------------

    def run_pass(self, tracers: Optional[Dict[str, Tracer]] = None) -> List[RunRecord]:
        """Every job under every provider, timings scaled to the reference speed."""
        records = []
        before = probe()
        for job in self.jobs:
            seed = 0 if job.fixed else self.seed
            for provider in PROVIDERS:
                tracer = None
                if tracers is not None:
                    tracer = tracers["vanilla" if provider == "none" else "accelerated"]
                record = run_job(job, provider, self.data[job.n, job.fixed], seed, tracer)
                after = probe()
                record.wall_s = at_reference(record.wall_s, before, after)
                record.cpu_s = at_reference(record.cpu_s, before, after)
                records.append(record)
                before = after
        return records

    def check(self, records: List[RunRecord]) -> Tuple[int, int]:
        """Compare every accelerated output with the same pass's vanilla one.

        Returns ``(attempted, failed)`` over the accelerated runs.
        """
        vanilla = {r.algorithm: r.key for r in records if r.provider == "none"}
        attempted = failed = 0
        for r in records:
            if r.provider == "none":
                continue
            attempted += 1
            key = r.key
            if self.inject and attempted == 1:
                key = ("injected wrong answer",)
            if key != vanilla[r.algorithm]:
                failed += 1
                self.failures.append(f"{r.algorithm} under {r.provider}: output differs from vanilla")
        return attempted, failed

    # -- measurement -----------------------------------------------------------------

    def measure(self, seconds: float) -> Tuple[Dict[str, float], int, int]:
        """Repeat whole passes while another fits in ``seconds`` (at least one)."""
        passes: List[List[RunRecord]] = []
        attempted = failed = 0
        start = time.perf_counter()
        while not passes or (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
            records = self.run_pass()
            a, f = self.check(records)
            attempted += a
            failed += f
            passes.append(records)
        summaries = [summarise_pass(p) for p in passes]
        # A pass's tri and laesa runs are the offline unit of work: the
        # latency figures are quantiles over passes, one sample per pass.
        walls = [s["wall_s"] for s in summaries]
        runs = sum(1 for p in passes for r in p if r.provider in ACCELERATED)
        metrics = {
            "wall_s": median(walls),
            "vanilla_wall_s": median([s["vanilla_wall_s"] for s in summaries]),
            "strong_calls": median([s["strong_calls"] for s in summaries]),
            "p50_ms": 1e3 * percentile(walls, 0.5),
            "p95_ms": 1e3 * percentile(walls, 0.95),
            "ops_per_s": runs / sum(walls),
        }
        return metrics, attempted, failed

    def measure_traced(self, seconds: float) -> Tuple[Dict[str, float], int, int]:
        """One untraced pass, then one traced pass, whatever ``seconds`` says.

        The span log keeps the bound-provider runs (``self.tracer``).
        """
        untraced = self.run_pass()
        tracers = {"accelerated": Tracer(), "vanilla": Tracer()}
        traced = self.run_pass(tracers)
        attempted = failed = 0
        for records in (untraced, traced):
            a, f = self.check(records)
            attempted += a
            failed += f
        base, seen = summarise_pass(untraced), summarise_pass(traced)
        if seen["strong_calls"] != base["strong_calls"]:
            # Tracing must not change a single decision.
            failed += 1
            self.failures.append(
                f"traced run paid {seen['strong_calls']} strong calls, untraced {base['strong_calls']}"
            )
        self.tracer = tracers["accelerated"]
        return layer_metrics(traced, tracers, base, seen), attempted, failed


def summarise_pass(records: List[RunRecord]) -> Dict[str, float]:
    acc = [r for r in records if r.provider in ACCELERATED]
    vanilla = {r.algorithm: r for r in records if r.provider == "none"}
    extra_cpu = sum(r.cpu_s - vanilla[r.algorithm].cpu_s for r in acc)
    saved = sum(vanilla[r.algorithm].calls - r.calls for r in acc)
    return {
        "wall_s": sum(r.wall_s for r in acc),
        "vanilla_wall_s": sum(r.wall_s for r in vanilla.values()),
        "strong_calls": sum(r.calls for r in acc),
        "breakeven_us": 1e6 * extra_cpu / saved,
        "extra_cpu_s": extra_cpu,
        "saved_calls": saved,
    }


def layer_metrics(records, tracers, base, seen) -> Dict[str, float]:
    acc = [r for r in records if r.provider in ACCELERATED]
    tracer, vanilla = tracers["accelerated"], tracers["vanilla"]
    stats = ResolverStats()
    for r in acc:
        stats = stats.merge(r.stats)
    batches = sum(r.proxy.batches for r in acc)
    batch_pairs = sum(r.proxy.batch_pairs for r in acc)
    metrics = {
        "algorithms.self_s": tracer.self_seconds("algorithms"),
        "algorithms.vanilla_self_s": vanilla.self_seconds("algorithms"),
        "resolver.self_s": tracer.self_seconds("resolver."),
        "resolver.calls": tracer.count("resolver."),
    }
    for kind in RESOLVER_KINDS:
        metrics[f"resolver.calls.{kind}"] = tracer.count(f"resolver.{kind}")
    metrics.update(
        {
            "resolver.prune_frac": stats.prune_rate,
            "resolver.memo_hit_frac": stats.bound_cache_hits / max(1, stats.bound_queries),
            "bounds.self_s": tracer.self_seconds("bounds."),
            "bounds.share": tracer.self_seconds("bounds.") / tracer.total_seconds("algorithms"),
            "bounds.pairs": sum(r.proxy.pairs for r in acc),
            "bounds.batches": batches,
            "bounds.pairs_per_batch": batch_pairs / max(1, batches),
            "bounds.notify_s": tracer.self_seconds("bounds.notify_resolved"),
            "graph.commit_s": tracer.self_seconds("graph.add_edge"),
            "graph.edges": sum(r.edges for r in acc),
            "oracle.calls": tracer.count("oracle.distance"),
            "oracle.busy_s": tracer.total_seconds("oracle.distance"),
            "oracle.cache_hits": sum(r.cache_hits for r in acc),
            "breakeven_us": base["breakeven_us"],
            "breakeven.extra_cpu_s": base["extra_cpu_s"],
            "breakeven.saved_calls": base["saved_calls"],
            "trace.overhead_frac": seen["wall_s"] / base["wall_s"] - 1.0,
            "trace.spans": tracer.num_spans() + vanilla.num_spans(),
            "trace.strong_calls": seen["strong_calls"],
            "trace.untraced_strong_calls": base["strong_calls"],
        }
    )
    return metrics
