"""Tests for bottleneck attribution and span statistics."""

import pytest

from repro.obs.queueing import SATURATION_THRESHOLD
from repro.obs.report import bottleneck_report, span_statistics
from repro.obs.monitor import watch_resource, watch_store
from repro.obs.tracer import Tracer
from repro.sim import Simulation
from repro.sim.resources import Resource, Store


def _busy(sim, resource, start, hold):
    def proc():
        yield sim.timeout(start)
        yield from resource.use(hold)
    sim.process(proc())


def make_scenario():
    """One saturated pool, one idle pool, one deep queue."""
    sim = Simulation()
    tracer = Tracer(sim)
    hot = Resource(sim, capacity=1, name="peer0.validator.workers")
    cold = Resource(sim, capacity=2, name="osn0.cpu")
    mailbox = Store(sim, name="peer0.mailbox")
    monitors = {}
    for monitor in (
            watch_resource(hot, kind="pool", phase="validate"),
            watch_resource(cold, kind="cpu", phase="order"),
            watch_store(mailbox, phase="network")):
        monitors[monitor.name] = monitor
    _busy(sim, hot, 0.0, 9.5)
    _busy(sim, cold, 0.0, 1.0)
    for item in range(5):
        mailbox.put(item)

    def spans():
        with tracer.span("validate.block", category="validate",
                         node="peer0") as span:
            span.set_wait(0.25)
            yield sim.timeout(2.0)
        with tracer.span("endorse", category="execute", node="peer0"):
            yield sim.timeout(0.5)

    sim.process(spans())
    sim.run(until=10.0)
    return sim, tracer, monitors


def test_resources_ranked_by_utilization():
    _sim, tracer, monitors = make_scenario()
    report = bottleneck_report(tracer, monitors, 0.0, 10.0)
    names = [usage.name for usage in report.resources]
    assert names[0] == "peer0.validator.workers"
    assert report.resource("osn0.cpu").utilization == pytest.approx(0.05)


def test_bottleneck_is_top_pool_and_saturated_phase_flagged():
    _sim, tracer, monitors = make_scenario()
    report = bottleneck_report(tracer, monitors, 0.0, 10.0)
    assert report.bottleneck.name == "peer0.validator.workers"
    assert report.bottleneck.utilization == pytest.approx(0.95)
    assert report.bottleneck.saturated
    assert report.saturated_phase == "validate"


def test_queues_never_beat_pools_for_the_bottleneck():
    # The mailbox has mean depth 5 but capacity 0: it reflects pressure,
    # it cannot be the saturated server.
    _sim, tracer, monitors = make_scenario()
    report = bottleneck_report(tracer, monitors, 0.0, 10.0)
    assert report.bottleneck.capacity > 0
    mailbox = report.resource("peer0.mailbox")
    assert mailbox.mean_queue == pytest.approx(5.0)


def test_no_saturation_below_threshold():
    sim = Simulation()
    tracer = Tracer(sim)
    pool = Resource(sim, capacity=1, name="cpu")
    monitors = {"cpu": watch_resource(pool, phase="execute")}
    _busy(sim, pool, 0.0, 1.0)
    sim.run(until=10.0)
    report = bottleneck_report(tracer, monitors, 0.0, 10.0)
    assert report.bottleneck.utilization < SATURATION_THRESHOLD
    assert report.saturated_phase == ""


def test_span_statistics_percentiles_and_window():
    sim = Simulation()
    tracer = Tracer(sim)

    def one_span(start, hold):
        yield sim.timeout(start)
        with tracer.span("validate.vscc", category="validate",
                         node="peer0") as span:
            span.set_wait(hold / 2)
            yield sim.timeout(hold)

    for index in range(10):
        sim.process(one_span(float(index), 0.01 * (index + 1)))
    sim.run()
    stats = span_statistics(tracer)
    (vscc,) = stats
    assert vscc.count == 10
    assert vscc.mean == pytest.approx(0.055)
    assert vscc.max == pytest.approx(0.10)
    assert 0.04 <= vscc.p50 <= 0.07
    assert vscc.p95 >= vscc.p50
    assert vscc.p99 >= vscc.p95
    assert vscc.wait_mean == pytest.approx(0.0275)
    # Windowing by span start time.
    windowed = span_statistics(tracer, start=5.0, end=8.0)
    assert windowed[0].count == 3


def test_report_render_and_as_dict():
    _sim, tracer, monitors = make_scenario()
    report = bottleneck_report(tracer, monitors, 0.0, 10.0)
    text = report.render(top=2)
    assert "bottleneck: peer0.validator.workers" in text
    assert "saturated phase: validate" in text
    assert "validate.block" in text
    payload = report.as_dict()
    assert payload["saturated_phase"] == "validate"
    assert payload["bottleneck"]["name"] == "peer0.validator.workers"
    assert len(payload["resources"]) == 3
    assert payload["window"] == [0.0, 10.0]
    with pytest.raises(KeyError):
        report.resource("nope")
    with pytest.raises(KeyError):
        report.span_stats("nope")


def test_one_sided_window_is_recorded():
    # A start-only window runs to the monitors' last accounting time and
    # must be labelled as such, not as the whole run.
    _sim, tracer, monitors = make_scenario()
    report = bottleneck_report(tracer, monitors, start=5.0)
    assert report.window == (5.0, 10.0)
    text = report.render()
    assert "whole run" not in text
    assert "[5.00s, 10.00s)" in text
    # Utilization covers the same window the label names.
    hot = report.resource("peer0.validator.workers")
    assert hot.utilization == monitors[hot.name].utilization(5.0, 10.0)
    assert report.as_dict()["window"] == [5.0, 10.0]
    # An end-only window starts at the monitors' attach time.
    assert bottleneck_report(tracer, monitors, end=4.0).window == (0.0, 4.0)


def _tied_pools(a_first: bool):
    """Two pools busy 0.3 s of 1 s; ``b.pool`` accumulates it as
    0.1 + 0.2, so its utilization reads 0.30000000000000004."""
    sim = Simulation()
    tracer = Tracer(sim)
    pools = {name: Resource(sim, capacity=1, name=name)
             for name in ("a.pool", "b.pool")}

    def hold(resource, spans):
        for span in spans:
            yield from resource.use(span)

    sim.process(hold(pools["a.pool"], [0.3]))
    sim.process(hold(pools["b.pool"], [0.1, 0.2]))
    order = ["a.pool", "b.pool"] if a_first else ["b.pool", "a.pool"]
    monitors = {name: watch_resource(pools[name], phase="validate")
                for name in order}
    sim.run(until=1.0)
    return tracer, monitors


@pytest.mark.parametrize("a_first", [True, False])
def test_float_noise_does_not_pick_the_bottleneck(a_first):
    from repro.obs.queueing import queueing_report

    tracer, monitors = _tied_pools(a_first)
    utilizations = {name: monitor.utilization()
                    for name, monitor in monitors.items()}
    assert 0 < utilizations["b.pool"] - utilizations["a.pool"] < 1e-15
    report = bottleneck_report(tracer, monitors)
    assert report.bottleneck.name == "a.pool"
    assert [usage.name for usage in report.resources] == ["a.pool", "b.pool"]
    assert [stats.name for stats in queueing_report(monitors).resources] \
        == ["a.pool", "b.pool"]
