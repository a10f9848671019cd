"""Thread-safe metrics registry: counters, gauges, and fixed-bucket histograms.

The registry is the single queryable surface for every counter the repo
keeps — resolver comparison/resolution tallies, executor retries and
timeouts, graph mirror rebuilds, engine job latencies.  It follows the
Prometheus data model closely enough that :meth:`MetricsRegistry.render_prometheus`
emits scrape-ready text exposition format, while :meth:`MetricsRegistry.snapshot`
returns a flat ``{sample_name: value}`` dict for programmatic use (the
harness stores it on ``ExperimentRecord.metrics``).

Design notes
------------
* **Hot paths stay untouched.**  `SmartResolver` keeps mutating its plain
  ``ResolverStats`` dataclass; deltas are folded into the registry at
  publish points (``collect_stats``, engine ``_finish``).  This is what
  keeps resolved-edge sequences byte-identical with or without a registry
  attached.
* **Callback-backed instruments.**  A counter or gauge may be constructed
  with ``fn=...`` so its value is *read* from an existing source of truth
  (e.g. ``oracle.calls``, ``len(queue)``) instead of being incremented.
  ``inc()``/``set()`` on such an instrument raise — there is exactly one
  writer for every number.
* **Labels.**  A metric family declared with ``labelnames`` hands out
  per-label-set children via :meth:`MetricFamily.labels`; children are
  cached so repeated lookups are dict hits.

All mutation goes through a per-registry :class:`threading.RLock`, so
concurrent workers can publish into one registry safely.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "LATENCY_BUCKETS_S",
    "BOUND_GAP_BUCKETS",
    "BATCH_SIZE_BUCKETS",
    "ANSWER_STRETCH_BUCKETS",
]

#: Buckets for realised-stretch histograms (``estimate / lower bound`` of a
#: bounded-stretch answer, dimensionless, >= 1).  Dense near 1 because most
#: accepted estimates come from already-tight intervals; the tail covers the
#: largest budgets anyone sensibly runs.
ANSWER_STRETCH_BUCKETS: Tuple[float, ...] = (
    1.0,
    1.01,
    1.05,
    1.1,
    1.2,
    1.35,
    1.5,
    1.75,
    2.0,
    3.0,
    5.0,
)

#: Default buckets (seconds) for latency-style histograms: job latency,
#: span durations, bound-computation time.  Upper bounds are inclusive
#: (Prometheus ``le`` semantics).
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Default buckets for bound-gap histograms (``ub - lb`` at decision time,
#: normalised by nothing — raw distance units).  Useful for judging how
#: tight a bound scheme is (paper Figs. 5–9 are driven by exactly this gap).
BOUND_GAP_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)

#: Default buckets for batch-size histograms (executor dispatch sizes).
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label_value(value: str) -> str:
    """Escape a label value for the Prometheus text format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Format a sample value the way Prometheus clients do."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _format_labels(labels: Sequence[Tuple[str, str]]) -> str:
    """Render ``{k="v",...}`` (empty string when there are no labels)."""
    if not labels:
        return ""
    inner = ",".join(
        '%s="%s"' % (name, _escape_label_value(str(value))) for name, value in labels
    )
    return "{" + inner + "}"


class Counter:
    """A monotonically non-decreasing value.

    Either incremented via :meth:`inc` or, when constructed with ``fn``,
    read live from a callback (in which case :meth:`inc` raises).
    Float increments are allowed so time totals (e.g. bound seconds) can
    be counters too.
    """

    __slots__ = ("_lock", "_value", "_fn")

    def __init__(self, lock: threading.RLock, fn: Optional[Callable[[], float]] = None):
        self._lock = lock
        self._value = 0.0
        self._fn = fn

    @property
    def is_callback(self) -> bool:
        """True when this counter reads its value from a callback."""
        return self._fn is not None

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (>= 0) to the counter."""
        if self._fn is not None:
            raise RuntimeError("cannot inc() a callback-backed counter")
        if amount < 0:
            raise ValueError("counters can only increase (got %r)" % (amount,))
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current counter value."""
        if self._fn is not None:
            return float(self._fn())
        with self._lock:
            return self._value

    def samples(self, name: str, labels: Sequence[Tuple[str, str]]) -> List[Tuple[str, str, float]]:
        """Exposition samples as ``(sample_name, label_text, value)`` rows."""
        return [(name, _format_labels(labels), self.value)]


class Gauge:
    """A value that can go up and down (queue depth, graph size, uptime).

    Supports callback backing exactly like :class:`Counter`.
    """

    __slots__ = ("_lock", "_value", "_fn")

    def __init__(self, lock: threading.RLock, fn: Optional[Callable[[], float]] = None):
        self._lock = lock
        self._value = 0.0
        self._fn = fn

    @property
    def is_callback(self) -> bool:
        """True when this gauge reads its value from a callback."""
        return self._fn is not None

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        if self._fn is not None:
            raise RuntimeError("cannot set() a callback-backed gauge")
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the gauge."""
        if self._fn is not None:
            raise RuntimeError("cannot inc() a callback-backed gauge")
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        self.inc(-amount)

    @property
    def value(self) -> float:
        """Current gauge value."""
        if self._fn is not None:
            return float(self._fn())
        with self._lock:
            return self._value

    def samples(self, name: str, labels: Sequence[Tuple[str, str]]) -> List[Tuple[str, str, float]]:
        """Exposition samples as ``(sample_name, label_text, value)`` rows."""
        return [(name, _format_labels(labels), self.value)]


class Histogram:
    """Fixed-bucket histogram with cumulative Prometheus ``le`` semantics.

    ``observe(v)`` increments the first bucket whose upper bound is
    ``>= v`` plus the implicit ``+Inf`` bucket, and accumulates ``sum``
    and ``count``.  Non-finite observations are counted (into ``+Inf``)
    but excluded from ``sum`` so a single ``inf`` bound gap cannot poison
    the mean.
    """

    __slots__ = ("_lock", "_bounds", "_counts", "_inf_count", "_sum")

    def __init__(self, lock: threading.RLock, buckets: Sequence[float]):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram bucket bounds must be distinct")
        self._lock = lock
        self._bounds = bounds
        self._counts = [0] * len(bounds)
        self._inf_count = 0
        self._sum = 0.0

    @property
    def bucket_bounds(self) -> Tuple[float, ...]:
        """The finite bucket upper bounds, ascending (``+Inf`` implicit)."""
        return self._bounds

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            if math.isfinite(value):
                self._sum += value
                # linear scan: bucket lists are short (<= ~16) and this is
                # not a hot path — publish points, span exits, batch ends.
                for idx, bound in enumerate(self._bounds):
                    if value <= bound:
                        self._counts[idx] += 1
                        break
            self._inf_count += 1

    @property
    def count(self) -> int:
        """Total number of observations."""
        with self._lock:
            return self._inf_count

    @property
    def sum(self) -> float:
        """Sum of all finite observations."""
        with self._lock:
            return self._sum

    def cumulative_counts(self) -> List[Tuple[float, int]]:
        """``(le, cumulative_count)`` rows including the ``+Inf`` bucket."""
        with self._lock:
            rows: List[Tuple[float, int]] = []
            running = 0
            for bound, count in zip(self._bounds, self._counts):
                running += count
                rows.append((bound, running))
            rows.append((math.inf, self._inf_count))
            return rows

    def samples(self, name: str, labels: Sequence[Tuple[str, str]]) -> List[Tuple[str, str, float]]:
        """Exposition samples: ``_bucket`` rows plus ``_sum`` and ``_count``."""
        rows: List[Tuple[str, str, float]] = []
        for bound, cumulative in self.cumulative_counts():
            bucket_labels = list(labels) + [("le", _format_value(bound))]
            rows.append((name + "_bucket", _format_labels(bucket_labels), float(cumulative)))
        label_text = _format_labels(labels)
        rows.append((name + "_sum", label_text, self.sum))
        rows.append((name + "_count", label_text, float(self.count)))
        return rows


class MetricFamily:
    """A named metric plus its per-label-set children.

    A family declared without ``labelnames`` has a single anonymous child
    and proxies its mutation API (``inc``/``set``/``observe``/``value``…)
    directly, so ``registry.counter("x").inc()`` works without an explicit
    ``labels()`` hop.
    """

    def __init__(
        self,
        kind: str,
        name: str,
        help_text: str,
        labelnames: Tuple[str, ...],
        lock: threading.RLock,
        buckets: Optional[Sequence[float]] = None,
        fn: Optional[Callable[[], float]] = None,
    ):
        self.kind = kind
        self.name = name
        self.help = help_text
        self.labelnames = labelnames
        self._lock = lock
        self._buckets = tuple(buckets) if buckets is not None else None
        self._fn = fn
        self._children: Dict[Tuple[str, ...], object] = {}
        if not labelnames:
            # Eagerly create the anonymous child so proxying never races.
            self._children[()] = self._make_child(fn)

    def _make_child(self, fn: Optional[Callable[[], float]] = None):
        if self.kind == "counter":
            return Counter(self._lock, fn=fn)
        if self.kind == "gauge":
            return Gauge(self._lock, fn=fn)
        if self.kind == "histogram":
            if fn is not None:
                raise ValueError("histograms cannot be callback-backed")
            return Histogram(self._lock, self._buckets or LATENCY_BUCKETS_S)
        raise ValueError("unknown metric kind %r" % (self.kind,))

    @property
    def is_callback(self) -> bool:
        """True when the (anonymous) child reads from a callback."""
        return self._fn is not None

    def labels(self, **labelvalues: str):
        """Return (creating if needed) the child for this exact label set."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                "metric %r takes labels %r, got %r"
                % (self.name, self.labelnames, tuple(sorted(labelvalues)))
            )
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    def _anonymous(self):
        if self.labelnames:
            raise ValueError(
                "metric %r is labeled by %r; use .labels(...) first"
                % (self.name, self.labelnames)
            )
        return self._children[()]

    # ---- anonymous-child proxies -------------------------------------

    def inc(self, amount: float = 1.0) -> None:
        """Proxy ``inc`` to the anonymous child (label-less families only)."""
        self._anonymous().inc(amount)

    def set(self, value: float) -> None:
        """Proxy ``set`` to the anonymous child (label-less gauges only)."""
        self._anonymous().set(value)

    def dec(self, amount: float = 1.0) -> None:
        """Proxy ``dec`` to the anonymous child (label-less gauges only)."""
        self._anonymous().dec(amount)

    def observe(self, value: float) -> None:
        """Proxy ``observe`` to the anonymous child (label-less histograms only)."""
        self._anonymous().observe(value)

    @property
    def value(self) -> float:
        """Proxy ``value`` from the anonymous child (label-less families only)."""
        return self._anonymous().value

    @property
    def count(self) -> int:
        """Proxy histogram ``count`` from the anonymous child."""
        return self._anonymous().count

    @property
    def sum(self) -> float:
        """Proxy histogram ``sum`` from the anonymous child."""
        return self._anonymous().sum

    def cumulative_counts(self) -> List[Tuple[float, int]]:
        """Proxy histogram ``cumulative_counts`` from the anonymous child."""
        return self._anonymous().cumulative_counts()

    @property
    def bucket_bounds(self) -> Tuple[float, ...]:
        """Proxy histogram ``bucket_bounds`` from the anonymous child."""
        return self._anonymous().bucket_bounds

    # ---- exposition ---------------------------------------------------

    def samples(self) -> List[Tuple[str, str, float]]:
        """All samples of all children, label sets in insertion order."""
        with self._lock:
            items = list(self._children.items())
        rows: List[Tuple[str, str, float]] = []
        for key, child in items:
            labels = list(zip(self.labelnames, key))
            rows.extend(child.samples(self.name, labels))
        return rows


class MetricsRegistry:
    """A named collection of metric families with text exposition.

    Accessors (:meth:`counter`, :meth:`gauge`, :meth:`histogram`) are
    idempotent: asking for an existing name returns the existing family,
    raising only when the kind (or histogram buckets) conflict, or when a
    second callback would fight over the same name.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: Dict[str, MetricFamily] = {}

    def _family(
        self,
        kind: str,
        name: str,
        help_text: str,
        labelnames: Iterable[str],
        buckets: Optional[Sequence[float]] = None,
        fn: Optional[Callable[[], float]] = None,
    ) -> MetricFamily:
        if not _METRIC_NAME_RE.match(name):
            raise ValueError("invalid metric name %r" % (name,))
        labelnames = tuple(labelnames)
        for label in labelnames:
            if not _LABEL_NAME_RE.match(label) or label == "le":
                raise ValueError("invalid label name %r for metric %r" % (label, name))
        if fn is not None and labelnames:
            raise ValueError("callback-backed metrics cannot be labeled (%r)" % (name,))
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise ValueError(
                        "metric %r already registered as a %s" % (name, existing.kind)
                    )
                if existing.labelnames != labelnames and labelnames:
                    raise ValueError(
                        "metric %r already registered with labels %r"
                        % (name, existing.labelnames)
                    )
                if fn is not None:
                    raise ValueError(
                        "metric %r already registered; refusing a second callback" % (name,)
                    )
                return existing
            family = MetricFamily(kind, name, help_text, labelnames, self._lock, buckets, fn)
            self._families[name] = family
            return family

    def counter(
        self,
        name: str,
        help_text: str = "",
        labelnames: Iterable[str] = (),
        fn: Optional[Callable[[], float]] = None,
    ) -> MetricFamily:
        """Get or create a counter family."""
        return self._family("counter", name, help_text, labelnames, fn=fn)

    def gauge(
        self,
        name: str,
        help_text: str = "",
        labelnames: Iterable[str] = (),
        fn: Optional[Callable[[], float]] = None,
    ) -> MetricFamily:
        """Get or create a gauge family."""
        return self._family("gauge", name, help_text, labelnames, fn=fn)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = LATENCY_BUCKETS_S,
        help_text: str = "",
        labelnames: Iterable[str] = (),
    ) -> MetricFamily:
        """Get or create a histogram family with fixed ``buckets``."""
        with self._lock:
            existing = self._families.get(name)
            if existing is not None and existing.kind == "histogram":
                declared = existing._buckets or ()
                if tuple(sorted(float(b) for b in buckets)) != tuple(declared):
                    raise ValueError(
                        "histogram %r already registered with different buckets" % (name,)
                    )
            return self._family("histogram", name, help_text, labelnames, buckets=buckets)

    def get(self, name: str) -> Optional[MetricFamily]:
        """Return the family registered under ``name``, or None."""
        with self._lock:
            return self._families.get(name)

    def families(self) -> List[MetricFamily]:
        """All families in registration order."""
        with self._lock:
            return list(self._families.values())

    def snapshot(self) -> Dict[str, float]:
        """Flat ``{sample_name{labels}: value}`` dict of every sample."""
        out: Dict[str, float] = {}
        for family in self.families():
            for sample_name, label_text, value in family.samples():
                out[sample_name + label_text] = value
        return out

    def render_prometheus(self) -> str:
        """Render the whole registry in Prometheus text exposition format."""
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append("# HELP %s %s" % (family.name, family.help))
            lines.append("# TYPE %s %s" % (family.name, family.kind))
            for sample_name, label_text, value in family.samples():
                lines.append("%s%s %s" % (sample_name, label_text, _format_value(value)))
        return "\n".join(lines) + "\n"


def registry_totals(snapshot: Mapping[str, float], prefix: str) -> float:
    """Sum every sample in ``snapshot`` whose name starts with ``prefix``.

    Convenience for tests and sinks that want a per-family total across
    label sets (e.g. all ``repro_jobs_total{status=...}`` children).
    """
    total = 0.0
    for key, value in snapshot.items():
        bare = key.split("{", 1)[0]
        if bare == prefix:
            total += value
    return total
