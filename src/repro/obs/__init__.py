"""Unified observability: metrics, virtual-time spans, tracing, export.

One :class:`MetricRegistry` per simulated machine is the sink for every
layer's accounting — device I/O and queueing, page-cache writeback,
journal commits, syscall traffic, compactions, per-op latency and stall
attribution. The default is :data:`NULL_REGISTRY` (recording disabled,
zero cost); pass a real registry via
``StackConfig(obs=MetricRegistry())`` or ``ScaledConfig(observe=True)``
to turn everything on.

On top of the metric substrate sits causal tracing: attach a
:class:`Tracer` to an enabled registry and every ``put``/``get``/
compaction obtains a trace id that follows the data through memtable,
WAL, minor dump, SSTable write, JBD2 commit and dependency-group
retirement. :func:`write_chrome_trace` exports the result as a
Perfetto-loadable Chrome trace-event file, and
:func:`analyze_write_path` decomposes put latency into named segments.

See ``docs/ARCHITECTURE.md`` ("Observability") and
``examples/observability.py`` / ``examples/tracing.py`` for
walkthroughs.
"""

from repro.obs.critical_path import (
    CriticalPathReport,
    SegmentStat,
    WRITE_SEGMENTS,
    analyze_write_path,
    render_critical_path,
)
from repro.obs.events import IOEvent, IOLog
from repro.obs.export import (
    SCHEMA,
    layer_breakdown,
    registry_document,
    to_json,
    write_document,
    write_json,
)
from repro.obs.metrics import (
    Counter,
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    MetricRegistry,
    NULL_REGISTRY,
    NullRegistry,
)
from repro.obs.spans import NULL_SPAN, Span
from repro.obs.trace import (
    Tracer,
    chrome_trace_document,
    validate_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "Counter",
    "CriticalPathReport",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "IOEvent",
    "IOLog",
    "MetricRegistry",
    "NULL_REGISTRY",
    "NULL_SPAN",
    "NullRegistry",
    "SCHEMA",
    "SegmentStat",
    "Span",
    "Tracer",
    "WRITE_SEGMENTS",
    "analyze_write_path",
    "chrome_trace_document",
    "layer_breakdown",
    "registry_document",
    "render_critical_path",
    "to_json",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_document",
    "write_json",
]
