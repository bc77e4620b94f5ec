"""Simulation-wide observability: span tracing, resource monitors,
and automated bottleneck attribution.

The subsystem has six cooperating parts:

- :mod:`repro.obs.tracer` — hierarchical span tracing on the simulated
  clock, exportable as Chrome/Perfetto ``trace_event`` JSON;
- :mod:`repro.obs.monitor` — named resource monitors whose breakpoint
  logs give exact time-weighted utilization and queue depth over any
  window, plus wait- and service-time distributions;
- :mod:`repro.obs.queueing` — the queueing observatory: one
  per-resource statistic (:class:`ResourceQueueStats`) with
  wait/service distributions and a Little's-law consistency check;
- :mod:`repro.obs.report` — :func:`bottleneck_report`, ranking those
  statistics by utilization and attributing the saturated phase
  directly from measurements (the paper's §V analysis as a feature);
- :mod:`repro.obs.critical_path` — per-transaction causal critical-path
  extraction and aggregated per-phase latency attribution;
- :mod:`repro.obs.regression` — the perf-regression gate behind
  ``repro obs-diff``.

Tracing is opt-in and default-off: ``NetworkContext.tracer`` is the no-op
:data:`NULL_TRACER` unless an :class:`Observability` bundle installs a
real one, so unobserved benchmark runs behave identically.
"""

from repro.obs.critical_path import (
    CriticalPathSummary,
    PathSegment,
    TxCriticalPath,
    extract_critical_paths,
    summarize_critical_paths,
    tx_timeline,
)
from repro.obs.monitor import ResourceMonitor, watch_resource, watch_store
from repro.obs.observe import Observability
from repro.obs.queueing import (
    SATURATION_THRESHOLD,
    QueueingReport,
    ResourceQueueStats,
    queueing_report,
    resource_stats,
)
from repro.obs.regression import (
    DiffResult,
    MetricDelta,
    compare_measurements,
    diff_files,
)
from repro.obs.report import (
    BottleneckReport,
    SpanStats,
    bottleneck_report,
    span_statistics,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "NULL_TRACER",
    "SATURATION_THRESHOLD",
    "BottleneckReport",
    "CriticalPathSummary",
    "DiffResult",
    "MetricDelta",
    "NullTracer",
    "Observability",
    "PathSegment",
    "QueueingReport",
    "ResourceMonitor",
    "ResourceQueueStats",
    "Span",
    "SpanStats",
    "Tracer",
    "TxCriticalPath",
    "bottleneck_report",
    "compare_measurements",
    "diff_files",
    "extract_critical_paths",
    "queueing_report",
    "resource_stats",
    "span_statistics",
    "summarize_critical_paths",
    "tx_timeline",
    "watch_resource",
    "watch_store",
]
