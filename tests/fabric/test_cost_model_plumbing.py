"""Custom cost models plumb through the whole stack (ablation support)."""

import pytest

from repro.common.config import (
    ChannelConfig,
    OrdererConfig,
    TopologyConfig,
    WorkloadConfig,
)
from repro.fabric.run import Scenario, run
from repro.runtime.costs import CostModel


def run_with(costs, rate=120, peers=5, policy="OR(1..n)"):
    topology = TopologyConfig(
        num_endorsing_peers=peers,
        channel=ChannelConfig(endorsement_policy=policy),
        orderer=OrdererConfig(kind="solo"))
    workload = WorkloadConfig(arrival_rate=rate, duration=8, warmup=2,
                              cooldown=1)
    return run(Scenario(topology, workload, seed=29, costs=costs)).metrics


def test_slower_clients_cap_throughput():
    # Double the client CPU per tx: per-client capacity halves to ~25 tps,
    # so 5 clients cap near 125 -> at 120 offered, borderline; at doubled
    # cost the knee is visible in latency.
    slow = CostModel(client_prep_cpu=0.024, client_submit_cpu=0.010,
                     client_collect_cpu=0.006)
    fast_metrics = run_with(CostModel())
    slow_metrics = run_with(slow)
    assert slow_metrics.overall_latency > fast_metrics.overall_latency


def test_zero_sdk_latency_shrinks_execute_latency():
    lean = CostModel(sdk_base_latency=0.0, sdk_per_endorsement_latency=0.0)
    default_metrics = run_with(CostModel(), rate=60)
    lean_metrics = run_with(lean, rate=60)
    assert (lean_metrics.execute_latency
            < default_metrics.execute_latency - 0.15)


def test_slow_vscc_moves_the_cap_down():
    molasses = CostModel(vscc_base_cpu=0.02)  # ~97 tps cap at 2 workers
    metrics = run_with(molasses, rate=120)
    assert metrics.overall_throughput < 115


def test_invalid_cost_model_rejected_at_build():
    from repro.common.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        run_with(CostModel(endorse_cpu=-1))
