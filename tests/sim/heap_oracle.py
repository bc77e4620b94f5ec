"""The binary-heap event loop, kept as a differential-testing oracle.

Before the array scheduler (:mod:`repro.sim.scheduler`), the kernel popped
every event from one binary heap of ``(time, seq, event)`` tuples.  That
loop is the simplest correct implementation of the kernel's contract, so
it lives on here, test-only: :class:`HeapSimulation` replays any schedule
on it, and the differential tests demand bit-identical trace digests from
the product :class:`~repro.sim.core.Simulation`.

The product push sites stay inlined (they append to ``sim._fifo`` and file
timed entries into ``sim._cal`` directly), so the oracle swaps in two
adapters that route every push onto its one heap:

- ``_fifo.append`` pushes onto the heap;
- ``_cal.bucket_end`` is ``-inf``, so every timed push lands in
  ``_cal.far``, which *is* the heap.

``run``, ``step`` and ``peek`` are the legacy heap loop and the heap
branches of the old ``step``/``peek``, unchanged.
"""

from __future__ import annotations

import functools
import heapq
import typing
from math import inf

from repro.sim.core import Simulation, StopSimulation
from repro.sim.events import Event


class _HeapFifo:
    """Stand-in for ``Simulation._fifo``: ``append`` pushes onto the heap."""

    __slots__ = ("append",)

    def __init__(self, heap: list) -> None:
        self.append = functools.partial(heapq.heappush, heap)


class _HeapCalendar:
    """Stand-in for ``Simulation._cal``: every timed push goes to ``far``."""

    __slots__ = ("bucket_end", "far")

    def __init__(self, heap: list) -> None:
        self.bucket_end = -inf
        self.far = heap


class HeapSimulation(Simulation):
    """A :class:`Simulation` whose schedule is a single binary heap."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        super().__init__()
        self._heap: list[tuple[float, int, Event]] = []
        self._fifo = _HeapFifo(self._heap)  # type: ignore[assignment]
        self._cal = _HeapCalendar(self._heap)  # type: ignore[assignment]

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else inf

    def step(self) -> None:
        """Pop and process a single event."""
        when, _seq, event = heapq.heappop(self._heap)
        self._now = when
        self.events_processed += 1
        if self._trace is not None:
            self._trace.record(when, _seq, event)
        callbacks = event.callbacks
        event.callbacks = None
        assert callbacks is not None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            # Nobody waited on this failed event: surface the error rather
            # than letting it pass silently.
            raise event._value

    def run(self, until: float | Event | None = None) -> typing.Any:
        # The legacy binary-heap loop, preserved verbatim as the
        # differential-testing oracle for the array scheduler.
        stop_event: Event | None = None
        horizon: float | None = None
        if isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                return stop_event.value
            assert stop_event.callbacks is not None
            stop_event.callbacks.append(self._stop_callback)
        elif until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(
                    f"until={horizon} is in the past (now={self._now})")
        heap = self._heap
        pop = heapq.heappop
        steps = 0
        try:
            while heap:
                if horizon is not None and heap[0][0] > horizon:
                    self._now = horizon
                    return None
                when, _seq, event = pop(heap)
                self._now = when
                steps += 1
                trace = self._trace
                if trace is not None:
                    trace.record(when, _seq, event)
                callbacks = event.callbacks
                event.callbacks = None
                assert callbacks is not None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event.defused:
                    # Nobody waited on this failed event: surface the error
                    # rather than letting it pass silently.
                    raise event._value
        except StopSimulation as stop:
            return stop.args[0]
        finally:
            self.events_processed += steps
        if stop_event is not None and not stop_event.triggered:
            raise RuntimeError(
                "simulation ran out of events before `until` event fired")
        if horizon is not None:
            # The heap drained before reaching the horizon; advance the clock
            # so repeated bounded runs observe monotonic time.
            self._now = max(self._now, horizon)
        return None
