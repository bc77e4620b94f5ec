"""Ablation: network bandwidth.

Related work cited by the paper ([2], Androulaki et al.) found network
bandwidth becomes the bottleneck for block propagation.  On the paper's
1 Gbps LAN with 1-byte transactions the network never binds; this ablation
shrinks the links until it does, moving the bottleneck out of the validate
phase.
"""

from benchmarks.conftest import run_once
from repro.common.config import (
    ChannelConfig,
    OrdererConfig,
    TopologyConfig,
    WorkloadConfig,
)
from repro.experiments.report import ExperimentResult
from repro.fabric.run import Scenario, run


def _run(bandwidth_mbps, tx_size, duration):
    topology = TopologyConfig(
        num_endorsing_peers=10,
        channel=ChannelConfig(endorsement_policy="OR10"),
        orderer=OrdererConfig(kind="solo"),
        network_bandwidth=bandwidth_mbps * 1e6 / 8)
    workload = WorkloadConfig(arrival_rate=250, duration=duration,
                              warmup=3, cooldown=2, tx_size=tx_size)
    return run(Scenario(topology, workload, seed=1)).metrics


def _ablation(mode):
    duration = 10.0 if mode == "quick" else 20.0
    rows = []
    for bandwidth_mbps in (1000, 100, 20):
        metrics = _run(bandwidth_mbps, 4096, duration)
        rows.append([bandwidth_mbps, metrics.overall_throughput,
                     metrics.overall_latency])
    return ExperimentResult(
        experiment_id="ablation-bandwidth",
        title="4 KiB transactions at 250 tps vs link bandwidth",
        columns=["bandwidth_mbps", "throughput_tps", "latency_s"],
        rows=rows)


def test_ablation_bandwidth(benchmark, show, mode):
    result = run_once(benchmark, _ablation, mode)
    show(result)
    throughputs = result.column("throughput_tps")
    latencies = result.column("latency_s")
    # 1 Gbps (the paper's LAN): network invisible, full throughput.
    assert throughputs[0] > 230
    # 20 Mbps: ~1.2 MB blocks take ~0.5 s per hop; the pipeline chokes.
    assert throughputs[-1] < 0.8 * throughputs[0]
    assert latencies[-1] > 2 * latencies[0]
