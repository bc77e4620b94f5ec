"""Differential scheduler tests: legacy heap vs array-backed scheduler.

The PR-10 kernel rework replaced the single binary heap behind the event
loop with a three-tier array scheduler (FIFO ring + sorted current bucket
+ far-future heap, :mod:`repro.sim.scheduler`).  The change is required
to be *schedule-preserving*: every pop happens at the same ``(time,
seq)``, in the same order, from the same owner — which this module
enforces the strongest way available, by running the full golden
scenario matrix under BOTH schedulers and demanding bit-identical trace
digests, pairwise and against the committed goldens.

The legacy heap loop is kept verbatim, test-only, as
:class:`~tests.sim.heap_oracle.HeapSimulation` precisely to serve as this
oracle: if the array scheduler ever drifts, these tests name the exact
scenario whose schedule moved.
"""

from __future__ import annotations

import pytest

import repro.runtime.context
from repro.experiments import perfbench
from repro.fabric.network import FabricNetwork
from repro.sim.core import Simulation
from repro.sim.sanitizer import TraceDigest
from tests.sim.heap_oracle import HeapSimulation

#: The differential golden matrix: every perfbench scenario (8 at the
#: time of writing; the parametrisation tracks the registry).
MATRIX = sorted(perfbench.SCENARIOS)


def test_matrix_covers_at_least_eight_scenarios() -> None:
    """The differential matrix must not quietly shrink."""
    assert len(MATRIX) >= 8, MATRIX


def _heap_digest(name: str, monkeypatch: pytest.MonkeyPatch) -> str:
    """The smoke-scale digest of ``name`` replayed on the heap oracle."""
    scenario = perfbench.SCENARIOS[name].at_scale("smoke").scenario(
        perfbench.GOLDEN_SEED)
    monkeypatch.setattr(repro.runtime.context, "Simulation", HeapSimulation)
    network = FabricNetwork(scenario.topology, scenario.workload,
                            seed=scenario.seed)
    assert type(network.sim) is HeapSimulation
    trace = TraceDigest(network.sim, keep_records=False).attach()
    network.run_workload()
    trace.detach()
    return trace.hexdigest


@pytest.mark.parametrize("name", MATRIX)
def test_heap_and_array_digests_identical_and_golden(
        name: str, monkeypatch: pytest.MonkeyPatch) -> None:
    """Both schedulers replay the committed schedule, bit for bit."""
    array_digest = perfbench.run_scenario(name, scale="smoke").record.digest
    heap_digest = _heap_digest(name, monkeypatch)
    assert array_digest == heap_digest, (
        f"scheduler divergence in {name}: the array scheduler popped a "
        f"different schedule than the binary-heap oracle")
    goldens = perfbench.load_goldens()
    key = perfbench.golden_key(name, "smoke")
    assert key in goldens, f"no committed golden for {key}"
    assert array_digest == goldens[key].digest, (
        f"both schedulers agree but diverge from the committed golden "
        f"for {key}: the schedule itself changed")


def _digest_of(sim: Simulation, build) -> str:
    trace = TraceDigest(sim, keep_records=False).attach()
    build(sim)
    sim.run()
    trace.detach()
    return trace.hexdigest


def _both_schedulers(build) -> tuple[str, str]:
    return (_digest_of(Simulation(), build),
            _digest_of(HeapSimulation(), build))


def test_tie_break_order_identical_across_schedulers() -> None:
    """Many processes hitting the same instants: seq order must agree."""
    def build(sim: Simulation) -> None:
        def chain(initial):
            yield sim.timeout(initial)
            for _ in range(20):
                yield sim.timeout(0.0)
                yield sim.timeout(0.001)

        for index in range(16):
            sim.process(chain((index % 4) * 0.00025))

    array_digest, heap_digest = _both_schedulers(build)
    assert array_digest == heap_digest


def test_bucket_boundary_schedule_identical_across_schedulers() -> None:
    """Delays straddling exact bucket boundaries pop identically.

    The calendar tier routes on ``time < bucket_end``; delays landing
    exactly on multiples of the bucket width exercise the
    boundary-routing and bucket-rotation paths where an off-by-one would
    reorder pops.
    """
    from repro.sim.scheduler import DEFAULT_BUCKET_WIDTH as width

    def build(sim: Simulation) -> None:
        def chain(delays):
            for delay in delays:
                yield sim.timeout(delay)

        sim.process(chain([width, width, 0.0, width * 3]))
        sim.process(chain([width * 0.5, width * 1.5, width * 400]))
        sim.process(chain([0.0, width * 2, width * 2]))
        sim.process(chain([width * 1000, width * 0.1]))

    array_digest, heap_digest = _both_schedulers(build)
    assert array_digest == heap_digest


def test_horizon_limited_run_identical_across_schedulers() -> None:
    """An explicit run(until=...) horizon truncates both loops alike."""
    def build_and_run(sim: Simulation) -> str:
        trace = TraceDigest(sim, keep_records=False).attach()

        def ticker():
            while True:
                yield sim.timeout(0.37)

        sim.process(ticker())
        sim.run(until=10.0)
        trace.detach()
        assert sim.now == 10.0
        return trace.hexdigest

    assert (build_and_run(Simulation())
            == build_and_run(HeapSimulation()))
