"""Machine-speed probe (NumPy and the standard library only).

Shared hosts change speed: the reference machine ran one job 1.7x slower
from one repeat to the next, in phases lasting seconds to minutes.  A
fixed probe of interpreter and NumPy work, timed on either side of the measured
work while nothing else of the benchmark runs, tells how fast the machine
was running, and CPU-bound timings are reported at a reference speed.
The probe shares no code with the program and never runs beside it, so a
change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds :func:`probe` takes on the reference machine (a 2-vCPU x86-64
#: VM, fast end of its range).  Timings of CPU-bound work are reported at
#: this reference speed; see :func:`at_reference`.
PROBE_REFERENCE_S = 0.07


def probe() -> float:
    """Time a fixed mix of interpreter and NumPy work (about 70 ms)."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(300_000):
        acc += i * i % 7
        table[i & 1023] = acc
    values = np.random.default_rng(0).random(200_000)
    for _ in range(20):
        values = np.sort(values)
    return time.perf_counter() - start


def at_reference(seconds: float, before: float, after: float, waiting: float = 0.0) -> float:
    """Scale ``seconds`` of work to the reference speed.

    ``before`` and ``after`` are :func:`probe` times taken on either side
    of the work: a machine running slow by some factor slows the probes
    by about the same factor.  ``waiting`` seconds of the work (sleeps)
    take the same time on any machine and are not scaled.
    """
    return waiting + (seconds - waiting) * 2.0 * PROBE_REFERENCE_S / (before + after)

