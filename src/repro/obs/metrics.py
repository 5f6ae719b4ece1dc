"""Typed metrics: counters, histograms, and gauges, merged exactly.

A :class:`MetricsRegistry` owns named :class:`Counter`,
:class:`Histogram`, and :class:`Gauge` instances.  The instrumented
kernels record through the module-level :func:`count` /
:func:`observe` / :func:`gauge` helpers, which are
no-ops unless collection is active (a tracer installed — see
:func:`repro.obs.trace.tracing_enabled`), keeping the disabled path as
cheap as the tracing one.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain sorted dicts —
picklable, JSON-ready, and mergeable: :meth:`MetricsRegistry.merge`
adds a snapshot into the registry, which is how
:mod:`repro.flow.parallel` folds per-worker metrics into the parent
report.  Counter sums and histogram counts are integer (or
order-independent) arithmetic, and the parallel runner merges in job
order, so a pooled sweep and a serial sweep produce identical metric
snapshots (``tests/test_flow_parallel.py`` pins this).

Histogram buckets are powers of two (the key is ``floor(log2(v))``),
which makes bucket counts exactly reproducible across runs — no
quantile estimation, no float accumulation ordering concerns.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Union

from repro.obs.trace import tracing_enabled

Number = Union[int, float]


class Counter:
    """A monotonically increasing, optionally labeled counter.

    Labels partition one logical metric (e.g. ``sta.analyze.engine``
    counted per ``label="compiled"`` / ``label="scalar"``); the empty
    label is the default series.
    """

    __slots__ = ("name", "values")

    def __init__(self, name: str):
        self.name = name
        self.values: Dict[str, Number] = {}

    def inc(self, amount: Number = 1, label: str = "") -> None:
        """Add ``amount`` to the series ``label``."""
        self.values[label] = self.values.get(label, 0) + amount

    def value(self, label: str = "") -> Number:
        """Current value of one series (0 if never incremented)."""
        return self.values.get(label, 0)

    def total(self) -> Number:
        """Sum across all labels."""
        return sum(self.values.values())

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready form: ``{"type": "counter", "values": {...}}``."""
        return {"type": "counter",
                "values": {k: self.values[k] for k in sorted(self.values)}}

    def merge_snapshot(self, snap: Dict[str, Any]) -> None:
        """Add a :meth:`snapshot` (e.g. from a worker) into this counter."""
        for label, value in snap.get("values", {}).items():
            self.values[label] = self.values.get(label, 0) + value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, total={self.total()})"


class Histogram:
    """Summary stats + power-of-two buckets of an observed value stream.

    Tracks count / sum / min / max and a bucket count per
    ``floor(log2(value))`` exponent (values <= 0 land in the ``"le0"``
    bucket).  Bucketing by exponent keeps merges exact: bucket counts
    are integers, so pooled and serial runs agree bucket for bucket.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[str, int] = {}

    @staticmethod
    def bucket_key(value: Number) -> str:
        """The bucket label of one value (``floor(log2(v))`` as a string)."""
        if value <= 0:
            return "le0"
        return str(math.floor(math.log2(value)))

    def observe(self, value: Number) -> None:
        """Record one value."""
        v = float(value)
        self.count += 1
        self.total += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v
        key = self.bucket_key(v)
        self.buckets[key] = self.buckets.get(key, 0) + 1

    def mean(self) -> float:
        """Arithmetic mean of the observed values (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready form with count/sum/min/max and sorted buckets."""
        return {"type": "histogram", "count": self.count, "sum": self.total,
                "min": self.min, "max": self.max,
                "buckets": {k: self.buckets[k]
                            for k in sorted(self.buckets)}}

    def merge_snapshot(self, snap: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker) into this histogram."""
        self.count += int(snap.get("count", 0))
        self.total += float(snap.get("sum", 0.0))
        for bound in ("min", "max"):
            other = snap.get(bound)
            if other is None:
                continue
            mine = getattr(self, bound)
            if mine is None:
                setattr(self, bound, float(other))
            elif bound == "min":
                self.min = min(mine, float(other))
            else:
                self.max = max(mine, float(other))
        for key, n in snap.get("buckets", {}).items():
            self.buckets[key] = self.buckets.get(key, 0) + n

    def __repr__(self) -> str:
        return (f"Histogram({self.name!r}, count={self.count}, "
                f"mean={self.mean():.3e})")


class Gauge:
    """A point-in-time value: the *latest* set wins, per label.

    Gauges carry level measurements (queue depth, active workers,
    retry backlog) rather than accumulations.  The merge rule is
    last-write-wins per label — exact like the counter/histogram
    merges, and deterministic because every merge path in the stack
    (pooled sweeps, the serve scheduler's sequence-ordered adoption)
    folds payloads in job order.
    """

    __slots__ = ("name", "values")

    def __init__(self, name: str):
        self.name = name
        self.values: Dict[str, Number] = {}

    def set(self, value: Number, label: str = "") -> None:
        """Set the series ``label`` to ``value`` (replacing it)."""
        self.values[label] = value

    def value(self, label: str = "") -> Number:
        """Current value of one series (0 if never set)."""
        return self.values.get(label, 0)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready form: ``{"type": "gauge", "values": {...}}``."""
        return {"type": "gauge",
                "values": {k: self.values[k] for k in sorted(self.values)}}

    def merge_snapshot(self, snap: Dict[str, Any]) -> None:
        """Adopt a :meth:`snapshot`: its series overwrite this gauge's."""
        for label, value in snap.get("values", {}).items():
            self.values[label] = value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, values={self.values})"


class MetricsRegistry:
    """A named collection of counters, histograms, and gauges.

    One registry is installed process-wide (swap with
    :func:`use_metrics`); worker processes build their own and ship
    snapshots back for :meth:`merge`.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Union[Counter, Histogram, Gauge]] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Counter(name)
        elif not isinstance(metric, Counter):
            raise TypeError(f"metric {name!r} is a histogram, not a counter")
        return metric

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram ``name``."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Histogram(name)
        elif not isinstance(metric, Histogram):
            raise TypeError(f"metric {name!r} is a counter, not a histogram")
        return metric

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Gauge(name)
        elif not isinstance(metric, Gauge):
            raise TypeError(f"metric {name!r} is not a gauge")
        return metric

    def get(self, name: str) -> Optional[Union[Counter, Histogram, Gauge]]:
        """The metric named ``name``, or ``None``."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        """Sorted metric names."""
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All metrics as a sorted, JSON-ready dict (picklable)."""
        return {name: self._metrics[name].snapshot()
                for name in sorted(self._metrics)}

    def merge(self, snapshot: Dict[str, Dict[str, Any]]) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Metric types must agree between snapshot and registry; merging
        is pure addition, so folding worker snapshots in job order is
        deterministic regardless of which worker finished first.
        """
        for name in sorted(snapshot):
            snap = snapshot[name]
            kind = snap.get("type")
            if kind == "counter":
                self.counter(name).merge_snapshot(snap)
            elif kind == "histogram":
                self.histogram(name).merge_snapshot(snap)
            elif kind == "gauge":
                self.gauge(name).merge_snapshot(snap)
            else:
                raise ValueError(f"metric {name!r} has unknown type {kind!r}")

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:
        return f"MetricsRegistry({self.names()})"


_registry = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The currently installed registry."""
    return _registry


def set_metrics(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install ``registry`` (``None`` -> a fresh one); returns the old."""
    global _registry
    previous = _registry
    _registry = registry if registry is not None else MetricsRegistry()
    return previous


@contextmanager
def use_metrics(registry: MetricsRegistry):
    """Install a registry for the duration of a ``with`` block."""
    previous = set_metrics(registry)
    try:
        yield registry
    finally:
        set_metrics(previous)


def count(name: str, amount: Number = 1, label: str = "") -> None:
    """Increment a counter in the installed registry (when collecting)."""
    if not tracing_enabled():
        return
    _registry.counter(name).inc(amount, label)


def observe(name: str, value: Number) -> None:
    """Record a histogram value in the installed registry (when collecting)."""
    if not tracing_enabled():
        return
    _registry.histogram(name).observe(value)


def gauge(name: str, value: Number, label: str = "") -> None:
    """Set a gauge in the installed registry (when collecting)."""
    if not tracing_enabled():
        return
    _registry.gauge(name).set(value, label)
