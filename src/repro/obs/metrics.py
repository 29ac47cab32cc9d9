"""Metrics registry: counters, gauges and fixed-bucket histograms.

One :class:`Metrics` registry holds named instruments behind a single
lock.  Instruments are created on first use (``registry.counter(name)``
is get-or-create) so call sites never need registration boilerplate.

The registry is process-local; :meth:`Metrics.merge` folds another
registry (or its plain JSON-able ``data()`` dict) in — counters and
histogram buckets add, gauges take the incoming value.
``snapshot()`` is a merge into a fresh registry, giving an independent
copy (what :meth:`repro.search.stats.SearchStats.snapshot` freezes into
a :class:`~repro.search.engine.SearchResult`).
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "percentile_from_counts",
]

#: Default histogram buckets: log-spaced upper bounds wide enough for
#: iteration counts and latencies alike.
DEFAULT_BUCKETS: Tuple[float, ...] = (1, 2, 5, 10, 20, 50, 100, 200, 500)


def percentile_from_counts(
    buckets: Sequence[float],
    counts: Sequence[int],
    q: float,
    vmin: float = math.inf,
    vmax: float = -math.inf,
) -> float:
    """Interpolated quantile ``q`` (0..1) from fixed-bucket counts.

    The estimate assumes observations are uniform within a bucket and
    interpolates linearly between the bucket's bounds.  Known ``vmin``
    / ``vmax`` sidecars tighten the first/overflow buckets (and clamp
    the result), so single-sample and narrow distributions come out
    exact rather than smeared across a whole bucket.  Zero observations
    return 0.0.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile q must be in [0, 1], got {q!r}")
    total = sum(counts)
    if total == 0:
        return 0.0
    lo_known = math.isfinite(vmin)
    hi_known = math.isfinite(vmax)
    target = q * total
    cumulative = 0
    value = float(buckets[-1])
    for i, count in enumerate(counts):
        if count == 0:
            cumulative += count
            continue
        if cumulative + count >= target:
            lo = buckets[i - 1] if i > 0 else (vmin if lo_known else 0.0)
            if i < len(buckets):
                hi = buckets[i]
            else:  # overflow bucket: bounded only by the observed max
                hi = vmax if hi_known else buckets[-1]
            fraction = (target - cumulative) / count
            value = lo + (hi - lo) * max(0.0, min(1.0, fraction))
            break
        cumulative += count
    if lo_known:
        value = max(value, vmin)
    if hi_known:
        value = min(value, vmax)
    return value


class Counter:
    """Monotonic accumulator (ints stay ints, floats stay floats)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.value: Union[int, float] = 0
        self._lock = lock

    def inc(self, amount: Union[int, float] = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.value: Optional[float] = None
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value


class Histogram:
    """Fixed-bucket histogram with count/total/min/max sidecars.

    ``buckets`` are ascending upper bounds; one overflow bucket is kept
    for values above the last bound.  ``counts[i]`` is the number of
    observations ``<= buckets[i]`` (and above the previous bound).
    """

    __slots__ = ("name", "buckets", "counts", "count", "total", "vmin", "vmax", "_lock")

    def __init__(
        self, name: str, lock: threading.Lock, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram {name!r} needs ascending bucket bounds")
        self.name = name
        self.buckets = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf
        self._lock = lock

    def _slot(self, value: float) -> int:
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                return i
        return len(self.buckets)

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.counts[self._slot(value)] += 1
            self.count += 1
            self.total += value
            if value < self.vmin:
                self.vmin = value
            if value > self.vmax:
                self.vmax = value

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a batch under one lock acquisition (hot-path friendly)."""
        batch = [float(v) for v in values]
        if not batch:
            return
        with self._lock:
            for value in batch:
                self.counts[self._slot(value)] += 1
                self.total += value
                if value < self.vmin:
                    self.vmin = value
                if value > self.vmax:
                    self.vmax = value
            self.count += len(batch)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Interpolated quantile ``q`` (0..1); see
        :func:`percentile_from_counts` for the estimator."""
        with self._lock:
            return percentile_from_counts(
                self.buckets, self.counts, q, self.vmin, self.vmax
            )


class Metrics:
    """Named-instrument registry; see the module docstring."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- get-or-create accessors -----------------------------------------

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(name, Counter(name, self._lock))
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            with self._lock:
                g = self._gauges.setdefault(name, Gauge(name, self._lock))
        return g

    def histogram(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            with self._lock:
                h = self._histograms.setdefault(
                    name, Histogram(name, self._lock, buckets)
                )
        return h

    # -- export / merge ---------------------------------------------------

    def data(self) -> Dict[str, Any]:
        """Plain-dict snapshot (picklable, JSON-able)."""
        with self._lock:
            return {
                "counters": {n: c.value for n, c in self._counters.items()},
                "gauges": {
                    n: g.value for n, g in self._gauges.items() if g.value is not None
                },
                "histograms": {
                    n: {
                        "buckets": list(h.buckets),
                        "counts": list(h.counts),
                        "count": h.count,
                        "total": h.total,
                        "min": h.vmin,
                        "max": h.vmax,
                    }
                    for n, h in self._histograms.items()
                },
            }

    def merge(self, other: Union["Metrics", Dict[str, Any]]) -> None:
        """Fold another registry (or a ``data()`` dict) into this one."""
        data = other.data() if isinstance(other, Metrics) else other
        for name, value in data.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in data.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, hdata in data.get("histograms", {}).items():
            h = self.histogram(name, hdata["buckets"])
            if list(h.buckets) != [float(b) for b in hdata["buckets"]]:
                raise ValueError(
                    f"histogram {name!r}: bucket bounds differ; cannot merge"
                )
            with self._lock:
                for i, c in enumerate(hdata["counts"]):
                    h.counts[i] += c
                h.count += hdata["count"]
                h.total += hdata["total"]
                h.vmin = min(h.vmin, hdata["min"])
                h.vmax = max(h.vmax, hdata["max"])

    def snapshot(self) -> "Metrics":
        """An independent deep copy.

        Every mutable cell — histogram bucket-count arrays included —
        is copied under the registry lock, so a snapshot taken mid-run
        never aliases live counts (``tests/obs/test_metrics.py`` pins
        this with a mutate-after-snapshot test).
        """
        copy = Metrics()
        with self._lock:
            for name, counter in self._counters.items():
                copy._counters[name] = c = Counter(name, copy._lock)
                c.value = counter.value
            for name, gauge in self._gauges.items():
                copy._gauges[name] = g = Gauge(name, copy._lock)
                g.value = gauge.value
            for name, hist in self._histograms.items():
                copy._histograms[name] = h = Histogram(
                    name, copy._lock, hist.buckets
                )
                h.counts = list(hist.counts)
                h.count = hist.count
                h.total = hist.total
                h.vmin = hist.vmin
                h.vmax = hist.vmax
        return copy

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def __bool__(self) -> bool:
        return bool(self._counters or self._gauges or self._histograms)

    # -- plain-text summary -----------------------------------------------

    def summary(self, title: str = "metrics summary") -> str:
        """Aligned plain-text table of every instrument (report/CLI)."""
        lines = [f"{title}:"]
        if self._counters:
            lines.append("  counters:")
            width = max(len(n) for n in self._counters)
            for name in sorted(self._counters):
                value = self._counters[name].value
                shown = f"{value:.6g}" if isinstance(value, float) else str(value)
                lines.append(f"    {name:<{width}}  {shown}")
        if any(g.value is not None for g in self._gauges.values()):
            lines.append("  gauges:")
            width = max(len(n) for n in self._gauges)
            for name in sorted(self._gauges):
                if self._gauges[name].value is not None:
                    lines.append(f"    {name:<{width}}  {self._gauges[name].value:.6g}")
        if self._histograms:
            lines.append("  histograms:")
            for name in sorted(self._histograms):
                h = self._histograms[name]
                if h.count:
                    head = (
                        f"    {name}: count={h.count} mean={h.mean:.4g} "
                        f"min={h.vmin:.4g} max={h.vmax:.4g}"
                    )
                else:
                    head = f"    {name}: count=0"
                lines.append(head)
                cells = [
                    f"<={bound:g}: {count}"
                    for bound, count in zip(h.buckets, h.counts)
                ]
                cells.append(f">{h.buckets[-1]:g}: {h.counts[-1]}")
                lines.append("      " + "  ".join(cells))
        if len(lines) == 1:
            lines.append("  (empty)")
        return "\n".join(lines)
