"""Helpers shared by the workloads: datasets, percentiles, run environment."""

from __future__ import annotations

import os
import platform
import random
import resource
import statistics
import sys
from typing import List, Optional, Sequence, Tuple

from repro.datasets import sf_poi_space


#: The SF-POI stand-in is one fixed city (the library's default seed for
#: it); a benchmark seed relabels its objects instead of drawing a new
#: city, so runs with different seeds solve the same problem presented
#: in a different order rather than problems of different difficulty.
CITY_SEED = 7


def road_metric(n: int, seed: Optional[int]) -> Tuple[List[List[float]], float, List[int]]:
    """SF-POI road distances for ``n`` objects, fully precomputed.

    Returns ``(rows, diameter, label)``: ``rows[i][j]`` is the driving
    distance between objects ``i`` and ``j`` after a ``seed``-drawn
    relabeling (``None`` keeps the city's own labels), symmetric by
    construction since each pair is evaluated once; ``diameter`` is the
    space's own declared diameter bound; ``label[o]`` is the id the
    relabeling gave the city's object ``o``.
    """
    space = sf_poi_space(n, seed=CITY_SEED)
    label = list(range(n))
    if seed is not None:
        random.Random(seed).shuffle(label)
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = space.distance(i, j)
            rows[label[i]][label[j]] = d
            rows[label[j]][label[i]] = d
    return rows, space.diameter_bound(), label


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``q`` in [0, 1]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    """Median of ``values`` (0 when there are none)."""
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_environment(seed: int) -> dict:
    """What a result depends on besides the code: recorded with every run."""
    from repro.bounds import kernels

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "kernel_backend": kernels.backend(),
        "seed": seed,
        "platform": sys.platform,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }
