"""Acceptance tests: the Fig. 5 AND5 saturation case, observed end to end.

The paper's headline claim (§V) is that the validate phase is Fabric's
bottleneck.  Driving the default Solo/AND5 network past the validate
capacity and asking the observability layer must (a) name the validator
worker pool as the top-utilization resource, saturated, and (b) emit a
valid Chrome ``trace_event`` JSON covering every pipeline phase.
"""

import json

import pytest

from repro.common.types import ValidationCode
from repro.experiments.runner import make_topology, make_workload
from repro.fabric.network import FabricNetwork
from repro.fabric.run import Scenario, run
from repro.obs.tracer import NULL_TRACER
from repro.sim.sanitizer import TraceDigest


@pytest.fixture(scope="module")
def traced_point():
    """One observed Fig. 5 AND5 run past validate capacity (shared)."""
    return run(Scenario(make_topology("solo", "AND5", 10),
                        make_workload(250.0, 8.0), seed=1, observe=True))


@pytest.fixture(scope="module")
def report(traced_point):
    """The traced run's bottleneck report over its measurement window."""
    return traced_point.network.bottleneck_report()


def test_validator_pool_is_the_saturated_bottleneck(report):
    assert report.bottleneck is not None
    assert "validator.workers" in report.bottleneck.name
    assert report.bottleneck.utilization > 0.9
    assert report.bottleneck.saturated
    assert report.saturated_phase == "validate"
    # Every validator pool saturates (all peers validate every block).
    pools = [usage for usage in report.resources
             if "validator.workers" in usage.name]
    assert len(pools) == 10
    assert all(pool.utilization > 0.9 for pool in pools)
    # And the saturation shows up as queueing, not just busy servers.
    assert report.bottleneck.mean_queue > 1.0


def test_throughput_matches_the_papers_validate_ceiling(traced_point):
    # The paper measures ~210 tps at the AND5 validate ceiling.
    assert 180.0 <= traced_point.metrics.overall_throughput <= 240.0


def test_span_coverage_spans_all_three_phases(report):
    names = {stats.name for stats in report.spans}
    assert {"client.execute", "endorse", "order.broadcast", "order.block",
            "client.order_wait", "validate.block", "validate.vscc",
            "validate.mvcc", "validate.commit"} <= names
    vscc = report.span_stats("validate.vscc")
    assert vscc.count > 500
    # Queue wait at the saturated pool dominates the vscc span.
    assert vscc.wait_mean > 0.0


def test_chrome_trace_is_valid_and_complete(tmp_path, traced_point):
    path = tmp_path / "trace.json"
    traced_point.network.obs.write_chrome_trace(str(path))
    payload = json.loads(path.read_text())
    events = payload["traceEvents"]
    phases = {event["ph"] for event in events}
    assert {"X", "M", "C"} <= phases
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) > 1000
    assert all(e["dur"] >= 0 for e in complete)
    assert all(isinstance(e["ts"], float) for e in complete)
    # Per-(process, lane) spans must not overlap in the viewer.
    by_lane = {}
    for event in complete:
        by_lane.setdefault((event["pid"], event["tid"]), []).append(
            (event["ts"], event["ts"] + event["dur"]))
    for intervals in by_lane.values():
        intervals.sort()
        for (_, prev_end), (next_start, _) in zip(intervals,
                                                  intervals[1:]):
            assert next_start >= prev_end - 1e-6
    # Process rows carry node names.
    node_names = {e["args"]["name"] for e in events
                  if e["ph"] == "M" and e["name"] == "process_name"}
    assert "peer0" in node_names
    assert any(name.startswith("client") for name in node_names)


def test_most_transactions_still_commit_valid(traced_point):
    records = traced_point.network.metrics.records.values()
    committed = [r for r in records
                 if r.validation_code is ValidationCode.VALID]
    assert len(committed) > 1000


def test_tracing_is_default_off_and_timing_neutral():
    topology = make_topology("solo", "OR2", peers=2)
    workload = make_workload(rate=30.0, duration=4.0)
    baseline = FabricNetwork(topology, workload, seed=3)
    assert baseline.context.tracer is NULL_TRACER
    assert baseline.obs is None
    observed = FabricNetwork(topology, workload, seed=3, observe=True)
    assert observed.context.tracer is not NULL_TRACER
    # Observation must not perturb the simulation: identical metrics and
    # the very same event schedule.
    digests = [TraceDigest(network.sim, keep_records=False).attach()
               for network in (baseline, observed)]
    assert baseline.run_workload() == observed.run_workload()
    assert baseline.sim.events_processed == observed.sim.events_processed
    assert digests[0].hexdigest == digests[1].hexdigest
    assert observed.obs.monitors
    assert observed.bottleneck_report().resources


def test_window_report_reads_the_measurement_window():
    """The report covers the measurement window, not the whole run.

    A window read as the whole-run mean would name peer9's validator pool
    at about half busy instead of a pool saturated inside the window.
    """
    result = run(Scenario(make_topology("solo", "AND5", 10),
                          make_workload(250.0, 6.0), seed=1, observe=True))
    report = result.network.bottleneck_report()
    assert report.window == (3.5, 7.0)
    assert report.bottleneck.utilization > 0.9
    whole_run = result.network.obs.report()
    lifetime = whole_run.resource(report.bottleneck.name).utilization
    assert report.bottleneck.utilization - lifetime > 0.2


def test_bottleneck_report_requires_observe():
    from repro.common.errors import ConfigurationError

    topology = make_topology("solo", "OR2", peers=2)
    network = FabricNetwork(topology, make_workload(rate=10.0, duration=2.0))
    with pytest.raises(ConfigurationError):
        network.bottleneck_report()
