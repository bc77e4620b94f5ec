"""Tests for the trace-summary diff behind ``repro obs-diff``."""

import json

import pytest

from repro.obs.regression import (
    compare_summaries,
    diff_files,
    load_summary,
    render_diff,
)

BASELINE = {"scenario": "solo-AND5-250tps", "throughput_tps": 100.0,
            "avg_latency_s": 0.5}


def with_values(**values):
    return dict(BASELINE, **values)


def test_self_diff_is_clean():
    result = compare_summaries(BASELINE, dict(BASELINE))
    assert result.ok
    assert result.regressions == []
    assert [d.metric for d in result.deltas] == ["throughput_tps",
                                                 "avg_latency_s"]


def test_throughput_drop_beyond_tolerance_is_a_regression():
    candidate = with_values(throughput_tps=90.0)    # -10% against 5%
    result = compare_summaries(BASELINE, candidate)
    assert not result.ok
    assert [d.metric for d in result.regressions] == ["throughput_tps"]
    assert result.regressions[0].change == pytest.approx(-0.10)


def test_drop_within_tolerance_passes():
    assert compare_summaries(BASELINE, with_values(throughput_tps=96.0)).ok


def test_latency_gates_on_increases_only():
    result = compare_summaries(BASELINE, with_values(avg_latency_s=0.6))
    assert [d.metric for d in result.regressions] == ["avg_latency_s"]
    # An improvement in a direction-sensitive metric never fails.
    assert compare_summaries(BASELINE, with_values(avg_latency_s=0.1)).ok


def test_wall_clock_is_ungated_by_default():
    # Host-dependent fields a summary may carry are never compared.
    baseline = with_values(wall_s=2.0, cpu_s=1.9)
    candidate = with_values(wall_s=200.0, cpu_s=190.0)
    result = compare_summaries(baseline, candidate)
    assert result.ok
    assert {d.metric for d in result.deltas} == {"throughput_tps",
                                                 "avg_latency_s"}


def test_missing_scenario_fails_the_gate():
    # A candidate without the baseline's scenario (a summary of another
    # one) is refused, not compared.
    candidate = with_values(scenario="solo-AND5-60tps")
    with pytest.raises(ValueError, match="not comparable"):
        compare_summaries(BASELINE, candidate)


def test_zero_baseline_only_regresses_on_change():
    baseline = {"avg_latency_s": 0.0}
    assert compare_summaries(baseline, {"avg_latency_s": 0.0}).ok
    worse = compare_summaries(baseline, {"avg_latency_s": 0.1})
    assert not worse.ok
    assert worse.regressions[0].change == float("inf")


def test_tolerance_is_configurable():
    candidate = with_values(throughput_tps=90.0)
    assert not compare_summaries(BASELINE, candidate, tolerance=0.05).ok
    assert compare_summaries(BASELINE, candidate, tolerance=0.15).ok


def test_load_summary_rejects_other_formats(tmp_path):
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps(BASELINE), encoding="utf-8")
    assert load_summary(str(summary)) == BASELINE

    # A multi-scenario file (the retired BENCH format) is not a summary.
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps({"solo": {"sim_tps": 100.0}}),
                     encoding="utf-8")
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]", encoding="utf-8")
    for path in (bench, bad):
        with pytest.raises(ValueError, match="not a trace summary"):
            load_summary(str(path))


def test_diff_files_end_to_end(tmp_path):
    base = tmp_path / "base.json"
    cand = tmp_path / "cand.json"
    base.write_text(json.dumps(BASELINE), encoding="utf-8")
    cand.write_text(json.dumps(with_values(throughput_tps=1.0)),
                    encoding="utf-8")
    result = diff_files(str(base), str(cand))
    assert not result.ok
    text = render_diff(result)
    assert "PERF REGRESSIONS in solo-AND5-250tps" in text
    assert "obs-diff: FAILED" in text
    clean = diff_files(str(base), str(base))
    assert clean.ok
    assert "no regressions against baseline" in render_diff(clean)
    assert "Compared 2 metric(s)" in render_diff(clean, verbose=True)
    payload = clean.as_dict()
    assert payload["ok"] is True
    assert payload["scenario"] == "solo-AND5-250tps"
    assert payload["regressions"] == []
