"""Tests for experiment result rendering."""

import pytest

from repro.experiments.report import ExperimentResult


def make_result():
    return ExperimentResult(
        experiment_id="figX",
        title="A test figure",
        columns=["name", "value"],
        rows=[["alpha", 1.5], ["beta", None], ["gamma", 300.0]],
        notes=["a note"])


def test_render_contains_header_rows_and_notes():
    text = make_result().render()
    assert "== figX: A test figure ==" in text
    assert "alpha" in text
    assert "1.50" in text
    assert "300" in text        # large floats rendered without decimals
    assert "-" in text          # None cell
    assert "note: a note" in text


def test_render_alignment_consistent_width():
    lines = make_result().render().splitlines()
    data_lines = lines[1:5]
    assert len({len(line.rstrip()) <= len(lines[1]) for line in data_lines})


def test_column_accessor():
    result = make_result()
    assert result.column("name") == ["alpha", "beta", "gamma"]
    assert result.column("value") == [1.5, None, 300.0]
    with pytest.raises(ValueError):
        result.column("missing")


def test_bottleneck_result_renders_report_table():
    from repro.experiments.report import bottleneck_result
    from repro.obs.queueing import ResourceQueueStats
    from repro.obs.report import BottleneckReport

    def usage(name, phase, util):
        return ResourceQueueStats(
            name=name, kind="pool", phase=phase, capacity=2, window=7.0,
            utilization=util, mean_queue=3.0, max_queue=9, arrivals=100,
            completions=100, cancels=0, mean_wait=0.1, p95_wait=0.2,
            mean_service=0.05, p95_service=0.1, occupancy_l=4.0,
            lambda_w=0.0, little_error=None, little_ok=True)

    hot = usage("peer0.validator.workers", "validate", 0.95)
    report = BottleneckReport(
        window=(3.0, 10.0),
        resources=[hot, usage("osn0.cpu", "order", 0.2)],
        spans=[], bottleneck=hot, saturated_phase="validate")
    result = bottleneck_result(report, title="Trace", top=1)
    assert result.column("resource") == ["peer0.validator.workers"]
    assert result.column("util") == [0.95]
    text = result.render()
    assert "bottleneck: peer0.validator.workers" in text
    assert "saturated phase: validate" in text
    assert "window: [3.00s, 10.00s)" in text
