"""Tests for the scale-out experiment (peers x channels x population)."""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments.cli import main
from repro.experiments.scale import (
    ScaleSweep,
    make_scale_topology,
    run_scale_point,
    run_scale_sweep,
)


def test_scale_topology_builds_committing_fleet():
    topology = make_scale_topology(peers=100, channels=4)
    assert topology.num_peers == 100
    assert topology.num_endorsing_peers == 10
    assert topology.num_committing_only_peers == 90
    assert topology.gossip and topology.gossip_fanout == 4
    names = [topology.channel.name] + [
        cfg.name for cfg in topology.extra_channels]
    assert names == ["ch1", "ch2", "ch3", "ch4"]
    topology.validate()


@pytest.mark.parametrize("channels", [0, -1])
def test_scale_topology_rejects_fewer_than_one_channel(channels):
    with pytest.raises(ConfigurationError, match="at least one channel"):
        make_scale_topology(peers=8, channels=channels)


def test_scale_cli_rejects_zero_channels():
    with pytest.raises(ConfigurationError):
        main(["scale", "--peers", "8", "--channels", "0", "--users", "1000",
              "--duration", "2"])


def test_scale_topology_small_network_all_endorsing():
    topology = make_scale_topology(peers=4, channels=1)
    assert topology.num_endorsing_peers == 4
    assert topology.num_committing_only_peers == 0


def test_scale_point_spawns_cohorts_not_users():
    point = run_scale_point(peers=8, channels=2, users=1_000_000,
                            rate=40, duration=4, seed=3, observe=False)
    assert point.users == 1_000_000
    assert point.clients == point.cohorts == 4
    assert point.throughput > 0
    assert sorted(point.per_cohort) == ["cohort0", "cohort1", "cohort2",
                                        "cohort3"]
    assert all(m.overall_throughput > 0
               for m in point.per_cohort.values())
    assert sorted(point.per_channel) == ["ch1", "ch2"]
    assert point.cohort_channels["cohort0"] == "ch1"
    assert point.cohort_channels["cohort3"] == "ch2"


def test_scale_point_reports_a_bottleneck_when_observed():
    point = run_scale_point(peers=6, channels=1, users=10_000,
                            rate=40, duration=4, seed=3, observe=True)
    assert point.bottleneck  # names the top-ranked resource
    payload = point.as_dict()
    assert payload["users"] == 10_000
    assert payload["per_cohort"]
    assert payload["bottleneck"] == point.bottleneck


def test_scale_smoke_sweep_passes_its_own_gates():
    sweep = run_scale_sweep(mode="smoke", seed=1, observe=False)
    assert sweep.ok
    rendered = sweep.render()
    assert "peers" in rendered and "cohorts" in rendered
    assert "ok" in rendered.splitlines()[-1]


def test_scale_sweep_rejects_unknown_mode():
    with pytest.raises(ValueError):
        run_scale_sweep(mode="gigantic")


def test_sweep_gate_fails_on_lost_cohort_metrics():
    sweep = run_scale_sweep(mode="smoke", seed=1, observe=False)
    broken = ScaleSweep(points=list(sweep.points), mode="smoke", seed=1)
    broken.points[0].per_cohort.popitem()
    assert not broken.ok


def test_scale_cli_single_point_writes_json(tmp_path, capsys):
    out = tmp_path / "scale.json"
    assert main(["scale", "--peers", "8", "--channels", "2",
                 "--users", "50000", "--rate", "40",
                 "--duration", "4", "--out", str(out)]) == 0
    output = capsys.readouterr().out
    assert "cohort0" in output
    assert "ch1" in output
    payload = json.loads(out.read_text())
    assert payload["points"][0]["users"] == 50_000
    assert payload["points"][0]["rate"] == 40.0
    assert payload["points"][0]["duration"] == 4.0
    assert payload["points"][0]["clients"] == payload["points"][0][
        "cohorts"]


def test_scale_cli_smoke_sweep(capsys):
    assert main(["scale", "--smoke"]) == 0
    output = capsys.readouterr().out
    assert "scale sweep (smoke" in output
    assert "1000000" in output  # the million-user smoke point
