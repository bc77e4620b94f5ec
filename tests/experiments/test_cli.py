"""Tests for the fabric-repro CLI."""

import pytest

from repro.experiments.cli import EXPERIMENT_IDS, main


def test_tab1_prints_table(capsys):
    assert main(["tab1"]) == 0
    output = capsys.readouterr().out
    assert "tab1" in output
    assert "BatchSize" in output


def test_unknown_experiment_exits_with_error():
    with pytest.raises(SystemExit):
        main(["figX"])


def test_experiment_id_list_is_complete():
    assert set(EXPERIMENT_IDS) == {
        "tab1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
        "tab2", "tab3", "fig8"}


def test_help_mentions_paper():
    with pytest.raises(SystemExit):
        main(["--help"])


def test_seed_flag_parsed(capsys):
    assert main(["tab1", "--seed", "9"]) == 0


def test_trace_subcommand_prints_report_and_writes_trace(tmp_path, capsys):
    import json

    trace_path = tmp_path / "trace.json"
    assert main(["trace", "--rate", "40", "--duration", "3",
                 "--trace-out", str(trace_path)]) == 0
    output = capsys.readouterr().out
    assert "Bottleneck attribution" in output
    assert "throughput:" in output
    assert "resource" in output
    payload = json.loads(trace_path.read_text())
    assert any(event["ph"] == "X" for event in payload["traceEvents"])


def test_trace_rejects_unknown_orderer():
    with pytest.raises(SystemExit):
        main(["trace", "--orderer", "pbft"])


def test_lint_subcommand_clean_on_shipped_tree(capsys):
    assert main(["lint"]) == 0
    output = capsys.readouterr().out
    assert "0 finding(s)" in output


def test_lint_subcommand_flags_bad_path(tmp_path, capsys):
    bad = tmp_path / "peer"
    bad.mkdir()
    (bad / "bad.py").write_text("import random\n", encoding="utf-8")
    assert main(["lint", "--path", str(tmp_path)]) == 1
    output = capsys.readouterr().out
    assert "SL001" in output


def test_check_determinism_subcommand_single_orderer(capsys):
    assert main(["check-determinism", "--orderer", "solo",
                 "--rate", "30", "--duration", "1.5",
                 "--digest-only"]) == 0
    output = capsys.readouterr().out
    assert "DETERMINISTIC" in output
    assert "reproducible" in output
    # The double runs use the offered load given on the command line.
    assert "solo / AND2 / leveldb @ 30 tx/s" in output


def test_trace_summary_out_writes_obs_diff_comparable_json(tmp_path, capsys):
    import json

    summary_path = tmp_path / "summary.json"
    assert main(["trace", "--rate", "40", "--duration", "3",
                 "--summary-out", str(summary_path)]) == 0
    output = capsys.readouterr().out
    assert "critical path over" in output
    assert "dominant phase:" in output
    assert "Little's-law" in output
    payload = json.loads(summary_path.read_text())
    assert payload["scenario"] == "solo-AND5-40tps"
    assert payload["throughput_tps"] > 0
    assert payload["critical_path"]["transactions"] > 0
    assert payload["critical_path"]["dominant_phase"]
    assert payload["queueing"]["little_ok"] is True


def _summary(tmp_path, name, **metrics):
    import json

    path = tmp_path / name
    path.write_text(json.dumps(dict({"scenario": "solo-AND5-60tps"},
                                    **metrics)), encoding="utf-8")
    return str(path)


def test_obs_diff_passes_against_identical_baseline(tmp_path, capsys):
    base = _summary(tmp_path, "base.json", throughput_tps=100.0,
                    avg_latency_s=0.5)
    assert main(["obs-diff", "--baseline", base, "--candidate", base]) == 0
    assert "no regressions" in capsys.readouterr().out


def test_obs_diff_fails_on_degraded_candidate(tmp_path, capsys):
    base = _summary(tmp_path, "base.json", throughput_tps=100.0)
    cand = _summary(tmp_path, "cand.json", throughput_tps=50.0)
    assert main(["obs-diff", "--baseline", base, "--candidate", cand]) == 1
    assert "obs-diff: FAILED" in capsys.readouterr().out


def test_obs_diff_json_output(tmp_path, capsys):
    import json

    base = _summary(tmp_path, "base.json", throughput_tps=100.0)
    assert main(["obs-diff", "--baseline", base, "--candidate", base,
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True


def test_obs_diff_requires_both_paths(tmp_path, capsys):
    base = tmp_path / "base.json"
    base.write_text("{}", encoding="utf-8")
    for argv in (["obs-diff"], ["obs-diff", "--baseline", str(base)]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


@pytest.mark.parametrize("argv, error", [
    (["tab1", "--jobs", "2"], "unrecognized arguments: --jobs 2"),
    (["tab1", "--jobs", "4", "--smoke", "--digest-only"],
     "unrecognized arguments"),
    (["fig2", "--rate", "5"], "unrecognized arguments"),
    (["all", "--scenario", "solo-and-leveldb"], "unrecognized arguments"),
    (["capacity", "--target-tps", "200", "--repeats", "3"],
     "unrecognized arguments: --repeats 3"),
    (["capacity", "--target-tps", "200", "--seed", "3"],
     "unrecognized arguments"),
    (["capacity", "--max-p95", "2.0"], "required: --target-tps"),
    (["trace", "--digest-only"], "unrecognized arguments"),
    (["lint", "--seed", "2"], "unrecognized arguments"),
    (["statedb", "--plot"], "unrecognized arguments"),
    (["faults", "--jobs", "2"], "unrecognized arguments"),
    (["check-determinism", "--smoke"], "unrecognized arguments"),
    (["perfbench", "--peers", "8"], "unrecognized arguments"),
    (["crossval", "--repeats", "2"], "unrecognized arguments"),
    (["scale", "--scenario", "solo-and-leveldb"], "unrecognized arguments"),
    (["obs-diff", "--baseline", "a.json", "--candidate", "b.json",
      "--seed", "1"], "unrecognized arguments"),
    # Output paths are checked before anything runs.
    (["trace", "--trace-out", "/no/such/dir/x.json"],
     "argument --trace-out: directory '/no/such/dir' does not exist"),
    (["trace", "--summary-out", "/no/such/dir/s.json"],
     "argument --summary-out: directory '/no/such/dir' does not exist"),
    (["scale", "--smoke", "--out", "/no/such/dir/scale.json"],
     "argument --out: directory '/no/such/dir' does not exist"),
    (["scale", "--peers", "8", "--out", "/no/such/dir/point.json"],
     "argument --out: directory"),
    (["crossval", "--smoke", "--out", "/no/such/dir/crossval.json"],
     "argument --out: directory"),
    (["capacity", "--target-tps", "200", "--out", "/no/such/dir/plan.json"],
     "argument --out: directory"),
    (["lint", "--out", "/no/such/dir/lint.txt"], "argument --out: directory"),
    (["lint", "--write-baseline", "/no/such/dir/baseline.json"],
     "argument --write-baseline: directory"),
    # Flags of the retired timing path.
    (["perfbench", "--repeats", "3"], "unrecognized arguments: --repeats 3"),
    (["perfbench", "--out", "x.json"], "unrecognized arguments: --out x.json"),
    (["obs-diff", "--baseline", "a.json", "--candidate", "b.json",
      "--tol-wall", "0.1"], "unrecognized arguments: --tol-wall 0.1"),
    (["obs-diff", "--baseline", "a.json", "--candidate", "b.json",
      "--tol-events-rate", "0.5"],
     "unrecognized arguments: --tol-events-rate 0.5"),
])
def test_usage_errors_exit_with_code_2(argv, error, capsys):
    # Each command declares only its own flags: a flag that belongs to
    # another command is a usage error, not silently ignored.
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("command", ["perfbench", "crossval"])
def test_unknown_perfbench_scenario_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--scenario", "nope"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'nope'" in err
    assert "solo-and-leveldb" in err


@pytest.mark.parametrize("command", ["perfbench", "crossval"])
def test_scenario_flag_names_perfbench_scenarios(command):
    from repro.experiments.cli import _parser

    args = _parser().parse_args([command, "--scenario", "solo-and-leveldb",
                                 "--scenario", "raft-and-leveldb", "--smoke"])
    assert args.scenarios == ["solo-and-leveldb", "raft-and-leveldb"]
    assert args.smoke


def test_capacity_json_plan(capsys):
    import json

    assert main(["capacity", "--target-tps", "200", "--orderer", "raft",
                 "--workload", "conflict", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasible"] is True
