"""One scenario spec and one runner for every simulated experiment.

:func:`run` is the single place a :class:`~repro.fabric.network.FabricNetwork`
is built, driven, timed and (optionally) digested; every experiment is a
list of scenarios handed to it.
"""

from __future__ import annotations

import dataclasses
import time

from repro.common.config import TopologyConfig, WorkloadConfig
from repro.fabric.network import FabricNetwork
from repro.faults import FaultSchedule
from repro.metrics.collector import PhaseMetrics
from repro.runtime.costs import CostModel
from repro.sim.sanitizer import TraceDigest

#: ``run(..., digest=...)`` modes: none, hash only, or hash plus every
#: record (what a double-run diff needs to name the first divergence).
DIGEST_MODES = (None, "hash", "records")


@dataclasses.dataclass(frozen=True)
class Scenario:
    """Everything that determines one simulated run."""

    topology: TopologyConfig
    workload: WorkloadConfig
    seed: int = 0
    #: ``"unique"`` blind writes or ``"conflict"`` read-modify-writes.
    workload_kind: str = "unique"
    costs: CostModel | None = None
    faults: FaultSchedule | None = None
    #: Attach the tracer and resource monitors.
    observe: bool = False


@dataclasses.dataclass
class RunResult:
    """One completed run."""

    scenario: Scenario
    #: The driven network, for reports that read its state.
    network: FabricNetwork
    #: Windowed metrics (warmup and cooldown trimmed).
    metrics: PhaseMetrics
    #: Host seconds spent in ``run_workload`` (the build is not timed).
    wall_s: float
    #: Kernel events popped by the run.
    events: int
    digest: TraceDigest | None


def run(scenario: Scenario, digest: str | None = None) -> RunResult:
    """Build the scenario's network, drive its workload, return the result.

    ``digest`` (see :data:`DIGEST_MODES`) attaches a
    :class:`~repro.sim.sanitizer.TraceDigest` to the run.
    """
    if digest not in DIGEST_MODES:
        raise ValueError(f"unknown digest mode {digest!r}; "
                         f"known: {DIGEST_MODES}")
    network = FabricNetwork(
        scenario.topology, scenario.workload, seed=scenario.seed,
        costs=scenario.costs, workload_kind=scenario.workload_kind,
        observe=scenario.observe, faults=scenario.faults)
    trace = None
    if digest is not None:
        trace = TraceDigest(network.sim,
                            keep_records=digest == "records").attach()
    try:
        # Host time is reported, never fed back into the simulation.
        started = time.perf_counter()  # simlint: disable=SL002
        metrics = network.run_workload()
        wall_s = time.perf_counter() - started  # simlint: disable=SL002
    finally:
        if trace is not None:
            trace.detach()
    return RunResult(scenario=scenario, network=network, metrics=metrics,
                     wall_s=wall_s, events=network.sim.events_processed,
                     digest=trace)
