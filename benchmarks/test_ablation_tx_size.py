"""Ablation: transaction size.

The paper benchmarks 1-byte transactions (Fig. 2) and notes (§V) that
workload transaction size significantly impacts performance.  This ablation
grows the payload from 1 B to 64 KiB: small sizes are CPU-bound and flat;
large payloads start paying 1 Gbps serialization on the broadcast/deliver
paths and throughput falls.
"""

from benchmarks.conftest import run_once
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import make_topology
from repro.common.config import WorkloadConfig
from repro.fabric.run import Scenario, run


def _run(tx_size, duration):
    topology = make_topology("solo", "OR10", 10)
    workload = WorkloadConfig(arrival_rate=250, duration=duration,
                              warmup=3, cooldown=2, tx_size=tx_size)
    return run(Scenario(topology, workload, seed=1)).metrics


def _ablation(mode):
    duration = 10.0 if mode == "quick" else 20.0
    rows = []
    for tx_size in (1, 1024, 16_384, 65_536):
        metrics = _run(tx_size, duration)
        rows.append([tx_size, metrics.overall_throughput,
                     metrics.overall_latency])
    return ExperimentResult(
        experiment_id="ablation-txsize",
        title="Throughput/latency vs transaction size at 250 tps arrival",
        columns=["tx_size_bytes", "throughput_tps", "latency_s"],
        rows=rows)


def test_ablation_tx_size(benchmark, show, mode):
    result = run_once(benchmark, _ablation, mode)
    show(result)
    throughputs = result.column("throughput_tps")
    latencies = result.column("latency_s")
    # 1 B and 1 KiB behave identically (CPU bound, the paper's regime).
    assert abs(throughputs[0] - throughputs[1]) <= 0.05 * throughputs[0]
    # 64 KiB payloads hurt: every block is ~6.5 MB on the wire.
    assert latencies[-1] > 1.5 * latencies[0]
