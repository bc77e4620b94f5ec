"""Resource-utilization instrumentation: one exact usage log per resource.

A :class:`ResourceMonitor` attaches to one named kernel primitive (a
:class:`~repro.sim.resources.Resource` pool or a
:class:`~repro.sim.resources.Store` queue) and keeps a breakpoint log of
its time-weighted busy-server and queue-depth integrals, plus streaming
histograms of per-request queue-wait and service times.  The kernel calls
back into the monitor on every state change; when no monitor is attached
the cost is a single ``is None`` test, so unobserved runs are unchanged.

The log has one breakpoint per distinct state-change time: the integrals
up to it and the state holding from it on.  The state is constant between
breakpoints, so the integrals at any time are piecewise linear — a bisect
and one multiply-add recover them exactly, and with them utilization and
mean queue depth over any ``[start, end)`` window.  Nothing is sampled and
no event is scheduled, so observing a run leaves its schedule untouched.
"""

from __future__ import annotations

import bisect
import math
import typing
from array import array

from repro.metrics.stats import StreamingHistogram

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Simulation
    from repro.sim.resources import Resource, Store

#: Resolution of :meth:`ResourceMonitor.busy_series` (simulated seconds),
#: the step of the Chrome trace's busy-server counters.
COUNTER_INTERVAL = 0.05


class ResourceMonitor:
    """Time-weighted usage accounting for one named resource or queue.

    ``capacity`` is the number of servers for a :class:`Resource`; pass 0
    for pure queues (a :class:`Store`), which report depth but no
    utilization.
    """

    def __init__(self, sim: "Simulation", name: str, capacity: int,
                 kind: str = "resource", phase: str = "") -> None:
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.kind = kind
        self.phase = phase
        self.waits = StreamingHistogram()
        #: Per-request service times (grant -> release), fed by the kernel.
        self.services = StreamingHistogram()
        self.grants = 0
        #: Queued requests withdrawn before being granted (timeout races);
        #: their queueing time is in the queue integral but never reaches
        #: the wait histogram — the Little's-law check reports them.
        self.cancels = 0
        #: Span tracer the monitor reports queue waits to (see
        #: :meth:`note_wait`); wired by the observability layer.
        self.tracer: typing.Any = None
        self.max_queue = 0
        #: The breakpoint log, one typed column per field: at each
        #: distinct state-change time, the busy/queue integrals since
        #: attach and the busy/queue state from that time on.
        self._times = array("d", [sim.now])
        self._busy_integrals = array("d", [0.0])
        self._queue_integrals = array("d", [0.0])
        self._busy_states = array("i", [0])
        self._queue_states = array("i", [0])

    # ------------------------------------------------------------------
    # Kernel callbacks
    # ------------------------------------------------------------------

    def on_state(self, busy: int, queue: int) -> None:
        """Called by the kernel whenever occupancy or queue depth changes.

        A change at a new time appends a breakpoint; another change at the
        same time overwrites the state the last breakpoint holds.
        """
        now = self.sim.now
        times = self._times
        if now > times[-1]:
            elapsed = now - times[-1]
            self._busy_integrals.append(
                self._busy_integrals[-1] + self._busy_states[-1] * elapsed)
            self._queue_integrals.append(
                self._queue_integrals[-1] + self._queue_states[-1] * elapsed)
            times.append(now)
            self._busy_states.append(busy)
            self._queue_states.append(queue)
        else:
            self._busy_states[-1] = busy
            self._queue_states[-1] = queue
        if queue > self.max_queue:
            self.max_queue = queue

    def on_grant(self, wait: float) -> None:
        """Called when a queued request is granted after ``wait`` seconds."""
        self.grants += 1
        self.waits.add(wait)

    def on_release(self, service: float) -> None:
        """Called when a granted slot is returned after ``service`` secs."""
        self.services.add(service)

    def on_cancel(self) -> None:
        """Called when a queued request is withdrawn before its grant."""
        self.cancels += 1

    def note_wait(self, wait: float) -> None:
        """Report a measured queue wait to the attached tracer (if any).

        The tracer attaches it to the innermost open span of the active
        process, which is the caller that just waited — this is how spans
        get their wait populated automatically on monitored resources.
        """
        tracer = self.tracer
        if tracer is not None:
            tracer.attach_wait(wait)

    # ------------------------------------------------------------------
    # Windowed statistics
    # ------------------------------------------------------------------

    def _integrals_at(self, when: float) -> tuple[float, float]:
        """Exact busy/queue integrals from attach to ``when``.

        Beyond the last breakpoint the current state is extended.
        """
        if when <= self._times[0]:
            return 0.0, 0.0
        index = bisect.bisect_right(self._times, when) - 1
        gap = when - self._times[index]
        return (self._busy_integrals[index] + self._busy_states[index] * gap,
                self._queue_integrals[index]
                + self._queue_states[index] * gap)

    def bounds(self, start: float | None = None,
               end: float | None = None) -> tuple[float, float]:
        """The ``[start, end)`` a windowed statistic covers.

        A missing bound defaults to the monitor's attach time (start) or
        the current simulated time (end).
        """
        return (self._times[0] if start is None else start,
                self.sim.now if end is None else end)

    def _window(self, start: float | None,
                end: float | None) -> tuple[float, float, float]:
        """(elapsed, busy integral, queue integral) over a window."""
        t0, t1 = self.bounds(start, end)
        if t1 <= t0:
            return 0.0, 0.0, 0.0
        busy0, queue0 = self._integrals_at(t0)
        busy1, queue1 = self._integrals_at(t1)
        return t1 - t0, busy1 - busy0, queue1 - queue0

    def utilization(self, start: float | None = None,
                    end: float | None = None) -> float:
        """Fraction of server capacity busy over ``[start, end)``.

        Defaults to the monitor's whole lifetime.  Queues (capacity 0)
        report 0.0.
        """
        elapsed, busy, _queue = self._window(start, end)
        if elapsed <= 0 or self.capacity <= 0:
            return 0.0
        return busy / (self.capacity * elapsed)

    def mean_queue(self, start: float | None = None,
                   end: float | None = None) -> float:
        """Time-weighted mean queue depth over ``[start, end)``."""
        elapsed, _busy, queue = self._window(start, end)
        if elapsed <= 0:
            return 0.0
        return queue / elapsed

    def busy_series(self) -> list[tuple[float, float]]:
        """(time, mean busy servers) per :data:`COUNTER_INTERVAL`.

        Each point closes its interval: the first falls one interval after
        attach, the last at the current time, so the series covers the
        whole lifetime.
        """
        start, end = self.bounds()
        # round() drops float fuzz such as 22.0 / 0.05 = 440.00000000000006.
        steps = math.ceil(round((end - start) / COUNTER_INTERVAL, 6))
        series: list[tuple[float, float]] = []
        previous_time, previous_busy = start, 0.0
        for step in range(1, steps + 1):
            when = (end if step == steps
                    else start + step * COUNTER_INTERVAL)
            busy = self._integrals_at(when)[0]
            series.append((when, (busy - previous_busy)
                           / (when - previous_time)))
            previous_time, previous_busy = when, busy
        return series

    def __repr__(self) -> str:
        return (f"<ResourceMonitor {self.name} kind={self.kind} "
                f"capacity={self.capacity} util={self.utilization():.3f}>")


def watch_resource(resource: "Resource", name: str | None = None,
                   kind: str = "resource",
                   phase: str = "") -> ResourceMonitor:
    """Attach a monitor to ``resource`` (replacing any existing one)."""
    label = name or resource.name or f"resource@{id(resource):#x}"
    monitor = ResourceMonitor(resource.sim, label, resource.capacity,
                              kind=kind, phase=phase)
    resource.monitor = monitor
    monitor.on_state(resource.count, resource.queue_length)
    return monitor


def watch_store(store: "Store", name: str | None = None,
                phase: str = "") -> ResourceMonitor:
    """Attach a queue-depth monitor to ``store``."""
    label = name or store.name or f"store@{id(store):#x}"
    monitor = ResourceMonitor(store.sim, label, capacity=0, kind="queue",
                              phase=phase)
    store.monitor = monitor
    monitor.on_state(store.waiting_getters, len(store))
    return monitor
