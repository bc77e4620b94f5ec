"""The queueing observatory: per-resource wait/service telemetry.

Turns the :class:`~repro.obs.monitor.ResourceMonitor`s attached to a run
into first-class queueing statistics: utilization, time-weighted mean
queue depth, arrival/completion throughput, wait-time and service-time
distributions, and a **Little's-law consistency check** per resource.

The check exploits that the monitors keep *two independent* measurements
of the same quantity.  Time-average occupancy::

    L = (busy_integral + queue_integral) / T      (area method)

must equal arrival rate times mean sojourn (Little's law)::

    lambda * W = (sum(waits) + sum(services)) / T  (per-request method)

because both numerators are the total request-seconds spent in the
system.  They are computed from different code paths (kernel state
callbacks vs per-request grant/release timestamps), so agreement within
tolerance is a strong internal-consistency validator for the whole
instrumentation layer — and a standing cross-check for the analytic
queueing model (ROADMAP item 4) fitted from these same distributions.
Known, reported, sources of residual disagreement: requests still in
the system at the window edge (their occupancy is in the integrals but
their sojourn has not been recorded yet) and queued requests cancelled
before service (timeout races; counted in ``cancels``).
"""

from __future__ import annotations

import dataclasses
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.monitor import ResourceMonitor

#: Default relative tolerance for the Little's-law check.
LITTLE_TOLERANCE = 0.05

#: A resource above this utilization counts as saturated.
SATURATION_THRESHOLD = 0.8

#: Absolute occupancy floor below which the check passes trivially
#: (idle resources: both sides indistinguishable from zero).
_OCCUPANCY_FLOOR = 1e-9


@dataclasses.dataclass
class ResourceQueueStats:
    """Queueing statistics for one monitored resource over a window."""

    name: str
    kind: str                 # "resource" (server pool) or "queue" (store)
    phase: str
    capacity: int
    window: float             # seconds observed
    utilization: float
    mean_queue: float
    max_queue: int
    arrivals: int             # slots granted
    completions: int          # slots released (service recorded)
    cancels: int              # queued requests withdrawn before grant
    mean_wait: float
    p95_wait: float
    mean_service: float
    p95_service: float
    occupancy_l: float        # L: time-average requests in system (area)
    lambda_w: float           # lambda*W: per-request accounting
    little_error: float | None  # relative |L - lambda*W|; None: no check
    little_ok: bool

    @property
    def throughput(self) -> float:
        return self.completions / self.window if self.window > 0 else 0.0

    @property
    def saturated(self) -> bool:
        return self.utilization >= SATURATION_THRESHOLD

    def as_dict(self) -> dict[str, typing.Any]:
        data = dataclasses.asdict(self)
        data["throughput"] = self.throughput
        return data


@dataclasses.dataclass
class QueueingReport:
    """All monitored resources' queueing statistics for one run."""

    resources: list[ResourceQueueStats]
    tolerance: float = LITTLE_TOLERANCE

    @property
    def violations(self) -> list[ResourceQueueStats]:
        return [stats for stats in self.resources if not stats.little_ok]

    @property
    def little_ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict[str, typing.Any]:
        return {
            "tolerance": self.tolerance,
            "little_ok": self.little_ok,
            "resources": {stats.name: stats.as_dict()
                          for stats in sorted(self.resources,
                                              key=lambda s: s.name)},
        }


def resource_stats(monitor: "ResourceMonitor",
                   start: float | None = None,
                   end: float | None = None,
                   tolerance: float = LITTLE_TOLERANCE
                   ) -> ResourceQueueStats:
    """Queueing statistics for one monitor over ``[start, end)``.

    Utilization and mean queue depth cover the window; the wait and
    service distributions (``mean_wait``, ``p95_wait``, ``mean_service``,
    ``p95_service``) and ``max_queue`` are whole-lifetime even when a
    window is given, because the monitor keeps one streaming histogram
    per resource.  The Little's-law check compares lifetime
    accumulations, so it is only performed for the full-lifetime window
    (``start`` and ``end`` both ``None``); windowed calls report
    occupancy but skip the check.  Store monitors (kind ``queue``) have
    no grant/release telemetry and skip it too.
    """
    elapsed, busy, queue = monitor._window(start, end)
    full_window = start is None and end is None
    utilization = (busy / (monitor.capacity * elapsed)
                   if elapsed > 0 and monitor.capacity > 0 else 0.0)
    mean_queue = queue / elapsed if elapsed > 0 else 0.0

    occupancy = ((busy + queue) / elapsed) if elapsed > 0 else 0.0
    lambda_w = ((monitor.waits.total + monitor.services.total) / elapsed
                if elapsed > 0 and full_window else 0.0)

    little_error: float | None = None
    little_ok = True
    if full_window and monitor.kind != "queue" and elapsed > 0:
        denominator = max(occupancy, lambda_w, _OCCUPANCY_FLOOR)
        if max(occupancy, lambda_w) <= _OCCUPANCY_FLOOR:
            little_error = 0.0
        else:
            little_error = abs(occupancy - lambda_w) / denominator
        little_ok = little_error <= tolerance

    waits = monitor.waits
    services = monitor.services
    return ResourceQueueStats(
        name=monitor.name,
        kind=monitor.kind,
        phase=monitor.phase,
        capacity=monitor.capacity,
        window=elapsed,
        utilization=utilization,
        mean_queue=mean_queue,
        max_queue=monitor.max_queue,
        arrivals=monitor.grants,
        completions=services.count,
        cancels=monitor.cancels,
        mean_wait=waits.mean,
        p95_wait=waits.percentile(95),
        mean_service=services.mean,
        p95_service=services.percentile(95),
        occupancy_l=occupancy,
        lambda_w=lambda_w,
        little_error=little_error,
        little_ok=little_ok,
    )


def rank_key(stats: ResourceQueueStats) -> tuple[float, float, str]:
    """Sort key for "busiest first", shared by every report.

    Utilization, then mean queue depth, both rounded to 9 places and
    descending, then name: resources tied but for last-bit float noise
    (ten validator pools fed the same blocks) rank by name, so the
    accumulation order of the monitors cannot pick the bottleneck.
    Queues (capacity 0, utilization 0) rank by depth below every busy
    pool.
    """
    return (-round(stats.utilization, 9), -round(stats.mean_queue, 9),
            stats.name)


def queueing_report(monitors: typing.Mapping[str, "ResourceMonitor"],
                    start: float | None = None,
                    end: float | None = None,
                    tolerance: float = LITTLE_TOLERANCE) -> QueueingReport:
    """Build the observatory report across all monitors."""
    stats = [resource_stats(monitor, start, end, tolerance)
             for monitor in monitors.values()]
    stats.sort(key=rank_key)
    return QueueingReport(resources=stats, tolerance=tolerance)


def render_queueing_report(report: QueueingReport,
                           top: int | None = 12) -> str:
    """Human-readable table for CLI output (busiest resources first)."""
    rows = report.resources if top is None else report.resources[:top]
    lines = [
        f"{'resource':<26} {'util':>6} {'meanQ':>7} {'thr/s':>8} "
        f"{'wait ms':>8} {'svc ms':>8} {'L':>8} {'lam*W':>8} {'Little':>7}",
    ]
    for stats in rows:
        if stats.little_error is None:
            check = "-"
        else:
            check = ("ok" if stats.little_ok
                     else f"{stats.little_error * 100:.1f}%!")
        lines.append(
            f"{stats.name:<26} {stats.utilization * 100:>5.1f}% "
            f"{stats.mean_queue:>7.3f} {stats.throughput:>8.1f} "
            f"{stats.mean_wait * 1000:>8.3f} {stats.mean_service * 1000:>8.3f} "
            f"{stats.occupancy_l:>8.4f} {stats.lambda_w:>8.4f} {check:>7}")
    hidden = len(report.resources) - len(rows)
    if hidden > 0:
        lines.append(f"... {hidden} more resources (all shown in JSON)")
    if report.violations:
        names = ", ".join(s.name for s in report.violations)
        lines.append(f"LITTLE'S-LAW VIOLATIONS: {names}")
    else:
        lines.append("Little's-law check: all monitored resources "
                     f"consistent within {report.tolerance * 100:.0f}%")
    return "\n".join(lines)
