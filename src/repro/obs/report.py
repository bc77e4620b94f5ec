"""Automated bottleneck attribution from spans and resource monitors.

The paper locates Fabric's bottleneck by measuring each phase separately
(§V): the validate phase saturates first.  :func:`bottleneck_report` makes
the same attribution directly from instrumentation — it ranks every
monitored resource by windowed utilization, flags the phase owning the
most saturated resource, and reports p50/p95/p99 durations per span type
from streaming histograms, so "which component is the bottleneck and by
how much" is a first-class output rather than something inferred from
throughput curves.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.metrics.stats import StreamingHistogram
from repro.obs.queueing import ResourceQueueStats, rank_key, resource_stats
from repro.obs.monitor import ResourceMonitor
from repro.obs.tracer import Tracer


@dataclasses.dataclass
class SpanStats:
    """Duration statistics for one span type."""

    name: str
    category: str
    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float
    wait_mean: float

    def as_dict(self) -> dict[str, typing.Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class BottleneckReport:
    """The attribution: ranked resources, span latencies, the verdict."""

    window: tuple[float, float] | None      # None: whole run
    resources: list[ResourceQueueStats]     # ranked, most utilized first
    spans: list[SpanStats]                  # alphabetical by span name
    bottleneck: ResourceQueueStats | None   # top-ranked resource, if any
    saturated_phase: str                    # phase of the bottleneck or ""

    def resource(self, name: str) -> ResourceQueueStats:
        for usage in self.resources:
            if usage.name == name:
                return usage
        raise KeyError(name)

    def span_stats(self, name: str) -> SpanStats:
        for stats in self.spans:
            if stats.name == name:
                return stats
        raise KeyError(name)

    def as_dict(self) -> dict[str, typing.Any]:
        return {
            "window": list(self.window) if self.window else None,
            "saturated_phase": self.saturated_phase,
            "bottleneck": (self.bottleneck.as_dict()
                           if self.bottleneck else None),
            "resources": [usage.as_dict() for usage in self.resources],
            "spans": [stats.as_dict() for stats in self.spans],
        }

    def render(self, top: int = 12) -> str:
        """Human-readable report, most saturated resources first."""
        lines = []
        if self.window:
            lines.append(f"Bottleneck report over simulated "
                         f"[{self.window[0]:.2f}s, {self.window[1]:.2f}s)")
        else:
            lines.append("Bottleneck report (whole run)")
        if self.bottleneck is not None:
            verdict = ("SATURATED" if self.bottleneck.saturated
                       else "not saturated")
            lines.append(
                f"bottleneck: {self.bottleneck.name} "
                f"(phase={self.bottleneck.phase or '-'}, "
                f"utilization={self.bottleneck.utilization:.3f}, {verdict})")
            if self.saturated_phase:
                lines.append(f"saturated phase: {self.saturated_phase}")
        lines.append("")
        lines.append(f"{'resource':<36} {'phase':<9} {'util':>6} "
                     f"{'avg q':>7} {'max q':>5} {'wait p95':>9}")
        for usage in self.resources[:top]:
            lines.append(
                f"{usage.name:<36} {usage.phase or '-':<9} "
                f"{usage.utilization:>6.3f} {usage.mean_queue:>7.2f} "
                f"{usage.max_queue:>5d} {usage.p95_wait:>8.4f}s")
        if self.spans:
            lines.append("")
            lines.append(f"{'span':<24} {'count':>7} {'mean':>9} "
                         f"{'p50':>9} {'p95':>9} {'p99':>9}")
            for stats in self.spans:
                lines.append(
                    f"{stats.name:<24} {stats.count:>7d} "
                    f"{stats.mean:>8.4f}s {stats.p50:>8.4f}s "
                    f"{stats.p95:>8.4f}s {stats.p99:>8.4f}s")
        return "\n".join(lines)


def span_statistics(tracer: Tracer, start: float | None = None,
                    end: float | None = None) -> list[SpanStats]:
    """Per-span-type duration stats over spans *starting* in the window."""
    histograms: dict[str, StreamingHistogram] = {}
    wait_totals: dict[str, float] = {}
    categories: dict[str, str] = {}
    maxima: dict[str, float] = {}
    for span in tracer.spans:
        if span.start is None or span.end is None:
            continue
        if start is not None and span.start < start:
            continue
        if end is not None and span.start >= end:
            continue
        histogram = histograms.get(span.name)
        if histogram is None:
            histogram = histograms[span.name] = StreamingHistogram()
            wait_totals[span.name] = 0.0
            categories[span.name] = span.category
            maxima[span.name] = 0.0
        duration = span.end - span.start
        histogram.add(duration)
        maxima[span.name] = max(maxima[span.name], duration)
        if span.wait is not None:
            wait_totals[span.name] += span.wait
    stats = []
    for name in sorted(histograms):
        histogram = histograms[name]
        stats.append(SpanStats(
            name=name,
            category=categories[name],
            count=histogram.count,
            mean=histogram.mean,
            p50=histogram.percentile(50),
            p95=histogram.percentile(95),
            p99=histogram.percentile(99),
            max=maxima[name],
            wait_mean=(wait_totals[name] / histogram.count
                       if histogram.count else 0.0),
        ))
    return stats


def bottleneck_report(tracer: Tracer,
                      monitors: typing.Mapping[str, ResourceMonitor],
                      start: float | None = None,
                      end: float | None = None) -> BottleneckReport:
    """Rank resources by utilization and attribute the bottleneck.

    ``start``/``end`` bound the analysis to a measurement window (defaults
    to each monitor's lifetime); when either is given, the report records
    the effective window, filling a missing bound from the monitors.
    Utilization and queue depth are exact over any window (each monitor
    keeps a breakpoint log of its integrals).  The bottleneck is the
    highest-utilization server pool; the saturated phase is that
    resource's phase when its utilization passes
    :data:`~repro.obs.queueing.SATURATION_THRESHOLD`.
    """
    usages = [resource_stats(monitor, start, end)
              for monitor in monitors.values()]
    # Pure queues rank below every busy pool (they cannot saturate, only
    # reflect upstream pressure).
    usages.sort(key=rank_key)
    pools = [usage for usage in usages if usage.capacity > 0]
    bottleneck = pools[0] if pools else (usages[0] if usages else None)
    saturated_phase = ""
    if bottleneck is not None and bottleneck.saturated:
        saturated_phase = bottleneck.phase or bottleneck.kind
    window = None
    if start is not None or end is not None:
        bounds = [monitor.bounds(start, end) for monitor in monitors.values()]
        if not bounds:
            bounds = [(0.0 if start is None else start,
                       tracer.sim.now if end is None else end)]
        window = (min(low for low, _high in bounds),
                  max(high for _low, high in bounds))
    return BottleneckReport(
        window=window,
        resources=usages,
        spans=span_statistics(tracer, start, end),
        bottleneck=bottleneck,
        saturated_phase=saturated_phase,
    )
