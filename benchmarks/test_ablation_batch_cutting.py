"""Ablation: BatchSize / BatchTimeout (the §III block-cutting conditions).

Regenerates the block-time behaviour behind Definition 4.3 and shows the
trade-off the paper's defaults strike: at high load block time tracks
BatchSize/rate; at low load blocks cut on the BatchTimeout, which then sets
commit latency.
"""

import pytest

from benchmarks.conftest import run_once
from repro.common.config import (
    ChannelConfig,
    OrdererConfig,
    TopologyConfig,
    WorkloadConfig,
)
from repro.experiments.report import ExperimentResult
from repro.fabric.run import Scenario, run


def _run(batch_size, batch_timeout, rate, duration):
    topology = TopologyConfig(
        num_endorsing_peers=10,
        channel=ChannelConfig(endorsement_policy="OR10"),
        orderer=OrdererConfig(kind="solo", batch_size=batch_size,
                              batch_timeout=batch_timeout))
    workload = WorkloadConfig(arrival_rate=rate, duration=duration,
                              warmup=3, cooldown=2)
    return run(Scenario(topology, workload, seed=1)).metrics


def _ablation(mode):
    duration = 12.0 if mode == "quick" else 25.0
    rows = []
    for batch_size in (10, 100, 500):
        metrics = _run(batch_size, 1.0, 250, duration)
        rows.append(["batch_size", batch_size, 250,
                     metrics.overall_throughput, metrics.overall_latency,
                     metrics.block_time])
    for batch_timeout in (0.25, 1.0, 2.0):
        metrics = _run(100, batch_timeout, 20, duration)
        rows.append(["batch_timeout", batch_timeout, 20,
                     metrics.overall_throughput, metrics.overall_latency,
                     metrics.block_time])
    return ExperimentResult(
        experiment_id="ablation-batch",
        title="BatchSize/BatchTimeout ablation (block time, Definition 4.3)",
        columns=["knob", "value", "arrival_rate", "throughput_tps",
                 "latency_s", "block_time_s"],
        rows=rows)


def test_ablation_batch_cutting(benchmark, show, mode):
    result = run_once(benchmark, _ablation, mode)
    show(result)
    rows = {(row[0], row[1]): row for row in result.rows}

    # High load: block time ~ BatchSize / rate.
    for batch_size in (100, 500):
        block_time = rows[("batch_size", batch_size)][5]
        expected = min(batch_size / 250.0, 1.0)
        assert block_time == pytest.approx(expected, rel=0.25)
    # Tiny batches pay per-block commit overhead: lower peak throughput.
    assert (rows[("batch_size", 10)][3]
            < rows[("batch_size", 100)][3] * 0.95)
    # Low load: block time tracks the timeout, and so does latency.
    for batch_timeout in (0.25, 1.0, 2.0):
        block_time = rows[("batch_timeout", batch_timeout)][5]
        assert block_time == pytest.approx(batch_timeout, rel=0.35)
    assert (rows[("batch_timeout", 2.0)][4]
            > rows[("batch_timeout", 0.25)][4])
