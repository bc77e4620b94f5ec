"""Tests for resource monitors and their exact breakpoint logs."""

import pytest

from repro.obs.monitor import COUNTER_INTERVAL, watch_resource, watch_store
from repro.sim import Simulation
from repro.sim.resources import Resource, Store


def test_monitor_tracks_exact_busy_integral():
    sim = Simulation()
    resource = Resource(sim, capacity=2, name="pool")
    monitor = watch_resource(resource, kind="pool", phase="validate")

    def worker(hold):
        yield from resource.use(hold)

    sim.process(worker(4.0))
    sim.process(worker(2.0))
    sim.run()
    # Busy integral: 2 servers for 2s, then 1 server for 2s = 6 busy-sec
    # over capacity 2 x 4s elapsed.
    assert monitor.utilization(0.0, 4.0) == pytest.approx(6.0 / 8.0)
    assert monitor.utilization() == pytest.approx(6.0 / 8.0)


def test_monitor_queue_depth_and_wait_distribution():
    sim = Simulation()
    resource = Resource(sim, capacity=1, name="cpu")
    monitor = watch_resource(resource)

    def worker():
        yield from resource.use(1.0)

    for _ in range(3):
        sim.process(worker())
    sim.run()
    assert monitor.grants == 3
    assert monitor.max_queue == 2
    # Waits: 0s, 1s, 2s.
    assert monitor.waits.count == 3
    assert monitor.waits.mean == pytest.approx(1.0)
    # Queue integral: 2 waiting for 1s, 1 waiting for 1s, 0 after = 3.
    assert monitor.mean_queue(0.0, 3.0) == pytest.approx(1.0)


def test_windowed_utilization_is_exact_at_any_bounds():
    sim = Simulation()
    resource = Resource(sim, capacity=1, name="cpu")
    monitor = watch_resource(resource)

    def worker():
        yield sim.timeout(2.0)
        yield from resource.use(4.0)

    sim.process(worker())
    sim.run(until=12.0)
    # Busy exactly during [2, 6): full window has 4 busy of 12 elapsed.
    assert monitor.utilization(0.0, 12.0) == pytest.approx(4.0 / 12.0)
    # [4, 8) straddles the release at 6: busy [4, 6) = half the window.
    assert monitor.utilization(4.0, 8.0) == pytest.approx(0.5)
    # [0, 2) ends before the first grant: idle, not the [0, 4) mean.
    assert monitor.utilization(0.0, 2.0) == 0.0
    assert monitor.utilization(0.0, 4.0) == 0.5

def test_store_monitor_records_depth():
    sim = Simulation()
    store = Store(sim, name="mailbox")
    monitor = watch_store(store, phase="network")

    def producer():
        store.put("a")
        store.put("b")
        yield sim.timeout(2.0)
        yield store.get()

    sim.process(producer())
    sim.run()
    assert monitor.capacity == 0
    assert monitor.kind == "queue"
    assert monitor.utilization() == 0.0       # queues cannot saturate
    assert monitor.mean_queue(0.0, 2.0) == pytest.approx(2.0)
    assert monitor.max_queue == 2


def test_any_window_is_exact():
    sim = Simulation()
    resource = Resource(sim, capacity=1, name="cpu")
    monitor = watch_resource(resource)

    def worker():
        yield sim.timeout(2.0)
        yield from resource.use(2.0)        # busy over [2, 4)
        yield sim.timeout(4.0)
        yield from resource.use(2.0)        # busy over [8, 10)

    sim.process(worker())
    sim.run()
    # Busy 1 s of the 4 s window [3, 7); the whole-run mean is 4/10.
    assert monitor.utilization(3.0, 7.0) == 0.25
    assert monitor.utilization() == pytest.approx(0.4)
    # Neither bound is a state-change time, yet [3, 6) reads its exact
    # 1 busy-second of 3, not a mean interpolated over the run.
    assert monitor.utilization(3.0, 6.0) == 1 / 3

def test_busy_series_reports_per_interval_means():
    sim = Simulation()
    resource = Resource(sim, capacity=2, name="pool")
    monitor = watch_resource(resource)

    def worker():
        yield from resource.use(1.0)

    sim.process(worker())
    sim.process(worker())
    sim.run(until=2.0)
    series = monitor.busy_series()
    assert len(series) == round(2.0 / COUNTER_INTERVAL)
    assert series[0] == (pytest.approx(COUNTER_INTERVAL), 2.0)  # both busy
    assert series[-1] == (2.0, 0.0)                             # idle
    assert [busy for _when, busy in series] == pytest.approx(
        [2.0] * (len(series) // 2) + [0.0] * (len(series) // 2))


def test_busy_series_starts_one_interval_after_attach_and_covers_lifetime():
    sim = Simulation()
    resource = Resource(sim, capacity=2, name="pool")

    def idle():
        yield sim.timeout(0.3)

    sim.process(idle())
    sim.run()
    monitor = watch_resource(resource)      # attached at 0.3, not 0

    def worker(delay, hold):
        yield sim.timeout(delay)
        yield from resource.use(hold)

    for delay, hold in [(0.01, 0.37), (0.02, 0.5), (0.4, 0.123),
                        (0.45, 0.2), (0.9, 0.07)]:
        sim.process(worker(delay, hold))
    sim.run(until=1.3)
    series = monitor.busy_series()
    assert series[0][0] == pytest.approx(0.3 + COUNTER_INTERVAL)
    assert series[-1][0] == 1.3
    assert len(series) == round(1.0 / COUNTER_INTERVAL)
    lifetime_busy = monitor.utilization() * monitor.capacity * 1.0
    assert sum(busy * COUNTER_INTERVAL for _when, busy in series) == (
        pytest.approx(lifetime_busy, rel=1e-9))


def test_same_time_state_changes_share_one_breakpoint():
    sim = Simulation()
    resource = Resource(sim, capacity=1, name="cpu")
    monitor = watch_resource(resource)

    def worker():
        yield sim.timeout(1.0)
        yield from resource.use(0.0)        # grant and release at 1.0
        yield from resource.use(1.0)        # busy over [1, 2)

    sim.process(worker())
    sim.run(until=4.0)
    # Breakpoints at attach, 1.0 and 2.0: the zero-length hold left no
    # breakpoint of its own, only the state the one at 1.0 holds.
    assert list(monitor._times) == [0.0, 1.0, 2.0]
    assert monitor.utilization() == 0.25
    assert monitor.utilization(1.0, 2.0) == 1.0

def test_unobserved_resource_has_no_monitor_attached():
    sim = Simulation()
    resource = Resource(sim, capacity=1)
    store = Store(sim)
    assert resource.monitor is None
    assert store.monitor is None
    assert resource.name is None
    assert store.name is None


def test_zero_duration_windows_report_zero_not_nan():
    sim = Simulation()
    resource = Resource(sim, capacity=1, name="cpu")
    monitor = watch_resource(resource)

    def worker():
        yield from resource.use(2.0)

    sim.process(worker())
    sim.run()
    # Degenerate and inverted windows must be exactly zero, never a
    # division by a zero (or negative) elapsed time.
    assert monitor.utilization(1.0, 1.0) == 0.0
    assert monitor.mean_queue(1.0, 1.0) == 0.0
    assert monitor.utilization(3.0, 1.0) == 0.0
    elapsed, busy, queue = monitor._window(1.0, 1.0)
    assert (elapsed, busy, queue) == (0.0, 0.0, 0.0)


def test_monitor_records_service_times_and_cancels():
    sim = Simulation()
    resource = Resource(sim, capacity=1, name="cpu")
    monitor = watch_resource(resource)

    def holder():
        yield from resource.use(3.0)

    def quitter():
        request = resource.request()   # queued behind the holder
        try:
            yield sim.timeout(1.0)
        finally:
            resource.release(request)  # withdrawn before its grant

    sim.process(holder())
    sim.process(quitter())
    sim.run()
    assert monitor.services.count == 1
    assert monitor.services.total == pytest.approx(3.0)
    assert monitor.cancels == 1
    # The cancelled request never reached the wait histogram.
    assert monitor.waits.count == 1


def test_acquire_reports_measured_wait_to_the_tracer():
    from repro.obs.tracer import Tracer

    sim = Simulation()
    tracer = Tracer(sim)
    resource = Resource(sim, capacity=1, name="cpu")
    monitor = watch_resource(resource)
    monitor.tracer = tracer

    def worker(label):
        with tracer.span(label, node="peer"):
            request = yield from resource.acquire()
            try:
                yield sim.timeout(2.0)
            finally:
                resource.release(request)

    sim.process(worker("first"))
    sim.process(worker("second"))
    sim.run()
    waits = {span.name: span.wait for span in tracer.spans}
    assert waits["first"] == pytest.approx(0.0)   # immediate grant
    assert waits["second"] == pytest.approx(2.0)  # queued behind first
