"""`repro.obs` — unified tracing, metrics and convergence telemetry.

One switch governs the whole subsystem.  Everything is **off by
default** and the disabled fast path is a single module-level branch
(``obs.enabled()``); hot loops hoist that check out of the loop, so
instrumented kernels run within noise of uninstrumented ones
(``tests/obs/test_overhead.py`` pins this).

Enabling::

    from repro import obs
    obs.enable()                    # programmatic
    # or REPRO_TRACE=1 in the environment
    # or REPRO_TRACE=/tmp/trace.json  (also writes a Chrome trace at exit)
    # or the --trace / --trace-out / --metrics CLI flags

Reading the results::

    obs.tracer().spans()            # finished Span objects
    obs.metrics().summary()         # plain-text instrument table
    from repro.obs.export import write_chrome_trace, write_spans_jsonl
    write_chrome_trace("trace.json", obs.tracer().spans())  # Perfetto

Worker threads share the process tracer; a span opened on another
thread can be parented explicitly with ``obs.span(name,
parent=captured_id)``.

v2 layers ride on these primitives: :mod:`repro.obs.timeseries`
(periodic registry samples into ring-buffer series, JSONL + Prometheus
exporters), :mod:`repro.obs.profile` (folded stacks + SVG flamegraphs
from the span buffer), :mod:`repro.obs.dashboard` (the self-contained
HTML ops page) and :mod:`repro.obs.bench` (the ``pandia bench check``
regression sentinel over the committed ``BENCH_*.json``).
"""

from __future__ import annotations

import atexit
import os
from typing import Any, Optional

from repro.obs.metrics import Counter, Gauge, Histogram, Metrics
from repro.obs.records import ConvergenceRecord
from repro.obs.timeseries import Series, TimeSeriesRecorder
from repro.obs.trace import NULL_SPAN, NullSpan, Span, Tracer

__all__ = [
    "ConvergenceRecord",
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "Series",
    "Span",
    "TimeSeriesRecorder",
    "Tracer",
    "NullSpan",
    "NULL_SPAN",
    "enable",
    "disable",
    "enabled",
    "reset",
    "span",
    "tracer",
    "metrics",
]

_enabled = False
_tracer = Tracer()
_metrics = Metrics()


def enabled() -> bool:
    """The one branch every instrumentation site guards on."""
    return _enabled


def enable() -> None:
    """Turn tracing + metrics collection on (idempotent)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn collection off; already-collected data stays readable."""
    global _enabled
    _enabled = False


def reset() -> None:
    """Drop all collected spans and metrics (enabled state unchanged)."""
    _tracer.clear()
    _metrics.clear()


def tracer() -> Tracer:
    """The process-wide tracer (always exists, even when disabled)."""
    return _tracer


def metrics() -> Metrics:
    """The process-wide metrics registry."""
    return _metrics


def span(name: str, parent: Optional[str] = None, **attrs: Any):
    """A traced-phase context manager, or a no-op when disabled.

    Yields the live :class:`Span` (mutate ``span.attrs`` freely) when
    enabled, ``None`` when disabled — guard attr updates with
    ``if s is not None``.
    """
    if not _enabled:
        return NULL_SPAN
    return _tracer.span(name, parent=parent, **attrs)


# -- environment hook --------------------------------------------------------


def _atexit_write_trace(path: str) -> None:
    spans = _tracer.spans()
    if not spans:
        return
    from repro.obs.export import write_chrome_trace

    write_chrome_trace(path, spans)


def _configure_from_env(value: Optional[str]) -> None:
    if not value or value.lower() in ("0", "false", "off", "no"):
        return
    enable()
    # A path-looking value also requests a Chrome trace dump at exit.
    if value.lower().endswith(".json") or os.sep in value:
        atexit.register(_atexit_write_trace, value)


_configure_from_env(os.environ.get("REPRO_TRACE"))
