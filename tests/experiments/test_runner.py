"""Tests for the experiment runner and the cheap experiments."""

import pytest

from repro.experiments.runner import make_topology, make_workload, search_peak
from repro.fabric.run import Scenario, run
from repro.experiments.tables import PAPER_TABLE2, run_table1


def test_make_topology_defaults_osns_by_kind():
    assert make_topology("solo", "OR10", 10).orderer.num_osns == 1
    assert make_topology("kafka", "OR10", 10).orderer.num_osns == 3
    assert make_topology("raft", "OR10", 10).orderer.num_osns == 3


def test_make_topology_validates():
    make_topology("raft", "AND5", 5, num_osns=5).validate()


def test_make_workload_trims_window_for_short_runs():
    workload = make_workload(100, duration=4.0)
    workload.validate()
    assert workload.warmup + workload.cooldown < workload.duration


def test_run_returns_metrics():
    scenario = Scenario(make_topology("solo", "OR3", 3),
                        make_workload(30, duration=6), seed=1)
    result = run(scenario)
    assert result.scenario is scenario
    assert result.network.topology.orderer.kind == "solo"
    assert result.metrics.overall_throughput == pytest.approx(30, rel=0.2)
    assert result.metrics.overall_latency > 0


def test_search_peak_monotone_result():
    peak, points = search_peak("solo", "OR3", 1, rates=[30, 60, 90],
                               duration=6)
    assert peak == max(m.overall_throughput for m in points)
    # One endorsing peer = one client ≈ 50 tps peak (Table II row 1).
    assert peak == pytest.approx(50, rel=0.15)


def test_table1_is_static_and_complete():
    result = run_table1()
    items = result.column("item")
    assert "BatchSize" in items
    assert "Fabric version" in items
    assert len(result.rows) >= 10
    rendered = result.render()
    assert "1.4.3" in rendered


def test_paper_table2_reference_values():
    # Guard against typos in the embedded paper data.
    assert PAPER_TABLE2[("OR10", 10)] == 300
    assert PAPER_TABLE2[("AND5", 5)] == 210
    assert PAPER_TABLE2[("OR10", 7)] == 310
