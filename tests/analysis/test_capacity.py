"""Capacity anchors of the phase model against the paper's measured peaks."""

import pytest

from repro.analysis.phase_model import PhaseModel
from repro.common.config import ChannelConfig, TopologyConfig, WorkloadConfig


def predict(spec, peers):
    """Phase-model prediction for one client per peer, as in Table II."""
    topology = TopologyConfig(
        num_endorsing_peers=peers,
        channel=ChannelConfig(endorsement_policy=spec))
    workload = WorkloadConfig(arrival_rate=100.0, num_clients=peers)
    return PhaseModel(topology, workload).predict()


def test_or10_bottleneck_is_validate_at_about_300():
    prediction = predict("OR10", 10)
    assert prediction.bottleneck.startswith("validate:")
    assert prediction.capacity == pytest.approx(305, rel=0.05)


def test_and5_bottleneck_is_validate_at_about_210():
    prediction = predict("AND5", 5)
    assert prediction.bottleneck.startswith("validate:")
    assert prediction.capacity == pytest.approx(210, rel=0.05)


def test_small_deployments_are_client_bound_at_50_per_peer():
    # Table II: 1 peer -> 50 tps, 3 peers -> 150, under every policy,
    # so endorsers never bind before clients.
    for spec in ["OR10", "OR3", "AND5", "AND3"]:
        for peers in [1, 3]:
            prediction = predict(spec, peers)
            assert prediction.bottleneck.startswith("client:"), (spec, peers)
            assert prediction.capacity == pytest.approx(50 * peers, rel=0.05)


def test_or10_at_5_peers_client_bound_near_250():
    prediction = predict("OR10", 5)
    assert prediction.bottleneck.startswith("client:")
    assert prediction.capacity == pytest.approx(250, rel=0.05)
