"""Ablation: validator worker count — moving the paper's bottleneck.

The paper locates the bottleneck in the validate phase.  This ablation
scales Fabric's validator pool (VSCC workers) and shows the OR peak
throughput rising until another stage binds — direct evidence that VSCC
parallelism is what the measured ~300 tps cap is made of.
"""

from benchmarks.conftest import run_once
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import make_topology, make_workload
from repro.fabric.run import Scenario, run
from repro.runtime.costs import CostModel


def _peak(workers, duration):
    costs = CostModel(validator_workers=workers)
    best = 0.0
    for rate in (300, 420):
        topology = make_topology("solo", "OR10", 10)
        workload = make_workload(rate, duration)
        metrics = run(Scenario(topology, workload, seed=1,
                                  costs=costs)).metrics
        best = max(best, metrics.overall_throughput)
    return best


def _ablation(mode):
    duration = 10.0 if mode == "quick" else 20.0
    rows = [["validator_workers", workers, _peak(workers, duration)]
            for workers in (1, 2, 4)]
    return ExperimentResult(
        experiment_id="ablation-validators",
        title="Peak OR throughput vs validator workers (bottleneck is "
              "VSCC parallelism)",
        columns=["knob", "workers", "peak_throughput_tps"],
        rows=rows)


def test_ablation_validator_workers(benchmark, show, mode):
    result = run_once(benchmark, _ablation, mode)
    show(result)
    peaks = {row[1]: row[2] for row in result.rows}
    # The default (2 workers) reproduces the paper's ~300 tps cap.
    assert 260 <= peaks[2] <= 350
    # Halving the pool roughly halves the cap; doubling raises it.
    assert peaks[1] < 0.70 * peaks[2]
    assert peaks[4] > 1.15 * peaks[2]
