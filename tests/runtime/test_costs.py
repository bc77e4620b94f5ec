"""Tests for the calibrated cost model."""

import pytest

from repro.common.errors import ConfigurationError
from repro.runtime.costs import CostModel


def test_defaults_validate():
    CostModel().validate()


def test_negative_cost_rejected():
    costs = CostModel(endorse_cpu=-1)
    with pytest.raises(ConfigurationError):
        costs.validate()


def test_zero_worker_counts_rejected():
    with pytest.raises(ConfigurationError):
        CostModel(validator_workers=0).validate()
    with pytest.raises(ConfigurationError):
        CostModel(peer_cores=0).validate()


def test_client_capacity_is_about_fifty_tps():
    # Table II scales ~50 tps per endorsing peer = one client each.
    assert CostModel().client_capacity() == pytest.approx(50.0, rel=0.05)


def test_vscc_cost_grows_with_endorsements():
    costs = CostModel()
    assert costs.vscc_tx_cpu(5) > costs.vscc_tx_cpu(1)
    delta = costs.vscc_tx_cpu(2) - costs.vscc_tx_cpu(1)
    assert delta == pytest.approx(costs.vscc_per_endorsement_cpu)


def test_validate_capacity_or_versus_and():
    # The paper's bottleneck values: ~300 tps for OR, ~210 for AND5.
    costs = CostModel()
    or_capacity = costs.validate_capacity(endorsements=1)
    and_capacity = costs.validate_capacity(endorsements=5)
    assert and_capacity < or_capacity
    assert 280 <= or_capacity <= 400
    assert 190 <= and_capacity <= 260


def test_validate_capacity_bounded_by_cores():
    costs = CostModel(validator_workers=16, peer_cores=2)
    capped = costs.validate_capacity(endorsements=1)
    more_cores = CostModel(validator_workers=16, peer_cores=16)
    assert capped < more_cores.validate_capacity(endorsements=1)
