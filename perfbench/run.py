"""Layered end-to-end benchmark runner.

Usage (from the repository root)::

    python3 perfbench/run.py --workload offline-graph --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run that reports the per-layer
metrics and writes its spans to ``.perfbench_run/``.  Either way the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
run environment and a readable metric table.  A run whose answers are
wrong prints ``"correct": false`` (and what failed, on standard error);
the exit status is 0 whenever a result line is printed.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

#: Environment every run executes under.  Native thread pools are pinned
#: to one thread, so offline timings measure the program and not the
#: scheduler; the hash seed is fixed because set and dict iteration order
#: moved offline wall times by about 10% between otherwise identical runs.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMBA_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    # The hash seed only takes effect at interpreter start-up: re-execute.
    os.execve(sys.executable, [sys.executable] + sys.argv, {**os.environ, **PINNED_ENV})

import argparse
import json
import statistics
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups per run: at least ``SETUP_MIN``, and more while they have taken
#: under ``SETUP_BUDGET_S`` in all, up to ``SETUP_MAX``; ``setup_s`` is
#: their median.  A cheap set-up is repeated more, so its median holds.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 2.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument(
        "--inject-wrong-answer",
        action="store_true",
        help="corrupt one answer before checking (the self-test's negative case)",
    )
    parser.add_argument(
        "--concurrent-writes",
        action="store_true",
        help="let served-churn batches overlap queries (the self-test's defect reproduction)",
    )
    return parser.parse_args(argv)


def make_workload(args):
    if args.workload.startswith("offline-"):
        from offline import OfflineWorkload

        return OfflineWorkload(args.workload, args.seed, args.smoke, args.inject_wrong_answer)
    from served import ServedWorkload

    return ServedWorkload(
        args.workload, args.seed, args.smoke, args.inject_wrong_answer, args.concurrent_writes
    )


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = load_spec()
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])

    from common import peak_rss_mb, run_environment
    from speedprobe import at_reference, probe

    workload = make_workload(args)
    try:
        setup_times = []
        before = probe()
        spent = 0.0
        for _ in range(1 if args.trace else SETUP_MAX):
            start = time.perf_counter()
            waited = workload.setup()
            elapsed = time.perf_counter() - start
            spent += elapsed
            after = probe()
            setup_times.append(at_reference(elapsed, before, after, waited))
            before = after
            if len(setup_times) >= SETUP_MIN and spent >= SETUP_BUDGET_S:
                break
        if args.trace:
            metrics, attempted, failed = workload.measure_traced(args.seconds)
            os.makedirs(".perfbench_run", exist_ok=True)
            workload.tracer.write(
                os.path.join(".perfbench_run", f"spans-{args.workload}-{args.seed}.jsonl"),
                extra={"workload": args.workload, "seed": args.seed},
            )
        else:
            metrics, attempted, failed = workload.measure(args.seconds)
            metrics["setup_s"] = statistics.median(setup_times)
            metrics["ok_frac"] = (attempted - failed) / attempted
            metrics.setdefault("peak_rss_mb", peak_rss_mb())
    finally:
        if hasattr(workload, "close"):
            workload.close()

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
        for name, unit in ((m["name"], m["unit"]) for m in declared)
    }
    correct = failed == 0
    for message in workload.failures[:10]:
        print(f"perfbench: failed: {message}", file=sys.stderr)
    print(json.dumps({"env": run_environment(args.seed), "workload": args.workload}))
    for name, entry in result.items():
        print(f"  {name:32s} {entry['value']:>16.6g} {entry['unit']}")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
