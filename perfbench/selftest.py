"""Self-test of the benchmark.

Usage, from the repository root::

    python3 perfbench/selftest.py

It checks the benchmark, not the program's speed:

1. every workload runs at smoke size, untraced and traced, exits 0 and
   ends with a well-formed result line carrying exactly the declared
   metrics;
2. every workload run with ``--inject-wrong-answer`` reports
   ``"correct": false``: the checks catch a wrong answer;
3. a directory holding only ``BENCHMARK.json`` and ``perfbench/`` makes the
   benchmark exit non-zero without printing a result.

It then reports the program defects the benchmark has found: wrong
answers in the smoke runs of step 1 and the known defects of README.md
("Known program defects"), each reproduced here because the gated
workloads steer clear of them: a ``served-churn`` smoke run whose write
batches overlap queries (``--concurrent-writes``), and a range query
whose radius equals a distance.  Exit status: 0 when everything passes, 1
when a check of the benchmark fails, 2 when the benchmark passes but the
program gave a wrong answer or a known defect still reproduces.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SMOKE_SECONDS = {"offline-graph": 1, "offline-medoids": 1, "served-queries": 2, "served-churn": 2}
#: Load seconds of the run that lets write batches overlap queries.
ISOLATION_SECONDS = "6"


def run(workload: str, *extra: str, cwd: str = ROOT, seconds: str = "") -> subprocess.CompletedProcess:
    seconds = seconds or str(SMOKE_SECONDS[workload])
    return subprocess.run(
        [sys.executable, RUN if cwd == ROOT else os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", seconds, "--smoke", *extra],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_line(proc: subprocess.CompletedProcess):
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, HERE)

    problems, defects = [], []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            proc = run(workload, "--trace", trace)
            result = result_line(proc)
            label = f"{workload} --trace {trace}"
            if result is None:
                problems.append(f"{label}: no result line (exit {proc.returncode}): {proc.stderr[-500:]}")
                continue
            if set(result["metrics"]) != {m["name"] for m in declared}:
                problems.append(f"{label}: metrics differ from BENCHMARK.json")
            if result["attempted"] < 1:
                problems.append(f"{label}: nothing attempted")
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode} after a result line")
            if result["correct"] != (result["failed"] == 0):
                problems.append(f"{label}: correct={result['correct']} with {result['failed']} failed")
            if not result["correct"]:
                defects.append(f"{label}: {proc.stderr.strip()[:500]}")
            print(f"ok    {label}: correct={result['correct']} attempted={result['attempted']}")
        proc = run(workload, "--inject-wrong-answer")
        result = result_line(proc)
        if proc.returncode != 0 or result is None or result["correct"] or result["failed"] < 1:
            problems.append(f"{workload}: an injected wrong answer was not caught")
        else:
            print(f"ok    {workload}: injected wrong answer caught")

    bare = os.path.join(ROOT, ".perfbench_run", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run("offline-graph", cwd=bare)
        if proc.returncode == 0 or result_line(proc) is not None:
            problems.append("without the program the benchmark still printed a result")
        else:
            print("ok    refuses to run without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    proc = run("served-churn", "--concurrent-writes", seconds=ISOLATION_SECONDS)
    result = result_line(proc)
    if result is None:
        problems.append(f"served-churn --concurrent-writes: no result line: {proc.stderr[-500:]}")
    elif not result["correct"]:
        defects.append(
            "queries are not isolated from concurrent mutate batches: served-churn "
            f"--concurrent-writes gave {result['failed']} wrong of {result['attempted']}: "
            f"{proc.stderr.strip()[:300]}"
        )
    else:
        print("ok    served-churn --concurrent-writes: no torn answer in this run")
    tie = radius_tie_defect()
    if tie:
        defects.append(tie)

    for message in problems:
        print(f"FAIL  {message}")
    for message in defects:
        print(f"KNOWN PROGRAM DEFECT  {message}")
    if problems:
        return 1
    return 2 if defects else 0


def radius_tie_defect() -> str:
    """A range query whose radius equals a distance can drop that object.

    The SF-POI road metric is a sum of edge lengths along shortest paths,
    so its triangle inequality can fail by a rounding error.  A triangle
    lower bound then exceeds the true distance by one unit in the last
    place, and ``range_query`` rejects an object lying exactly on the
    radius, which a vanilla scan (``d <= radius``) accepts.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro import SmartResolver, TriScheme
    from repro.algorithms import range_query
    from repro.core.oracle import DistanceOracle

    from common import road_metric

    rows, diameter, _ = road_metric(600, None)
    n = len(rows)
    tried = 0
    for q in range(n):
        for c in range(q + 1, n):
            for k in range(n):
                if abs(rows[q][k] - rows[k][c]) > rows[q][c] and tried < 20:
                    tried += 1
                    oracle = DistanceOracle(lambda i, j: rows[i][j], n)
                    resolver = SmartResolver(oracle)
                    resolver.bounder = TriScheme(resolver.graph, diameter)
                    resolver.distance(q, k)
                    resolver.distance(k, c)
                    found = range_query(resolver, q, rows[q][c], candidates=[c])
                    if found != [c]:
                        return (
                            f"range_query({q}, radius=d({q},{c})) misses {c}: the triangle "
                            f"bound through {k} exceeds d({q},{c}) by "
                            f"{abs(rows[q][k] - rows[k][c]) - rows[q][c]:.3g}"
                        )
            if tried >= 20:
                return ""
    return ""


if __name__ == "__main__":
    sys.exit(main())
