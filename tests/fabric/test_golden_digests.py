"""Golden trace-digest regression tests.

Every perfbench scenario is replayed at smoke scale and its
:class:`~repro.sim.sanitizer.TraceDigest` is compared byte-for-byte
against the committed golden under ``tests/fabric/golden/digests.json``.
A divergence means the simulated event schedule changed: every pop,
its time, its tie-break sequence number, and its owning process.

That is sometimes deliberate — an optimisation that removes bookkeeping
events, a new subsystem in the hot path — and then the goldens are
regenerated explicitly with ``pytest tests/fabric --update-golden`` (or
``repro perfbench --update-golden`` for the full-scale entries).  Any
schedule change must arrive with regenerated goldens in the same commit,
which is what makes an *accidental* determinism regression impossible to
merge quietly.
"""

from __future__ import annotations

import typing

import pytest

from repro.experiments import perfbench
from repro.fabric.run import Scenario, run

ALL_SCENARIOS = sorted(perfbench.SCENARIOS)


def _digest(scenario: Scenario) -> str:
    return run(scenario, digest="hash").digest.hexdigest


def _fault_digest(name: str) -> str:
    from repro.experiments.faults import get_scenario

    return _digest(get_scenario(name).scenario(seed=1))


def _scale_digest(peers: int, channels: int, users: int,
                  rate: float) -> str:
    from repro.experiments.scale import (
        SMOKE_DURATION,
        make_scale_topology,
        make_scale_workload,
    )

    return _digest(Scenario(
        make_scale_topology(peers, channels),
        make_scale_workload(users, rate, SMOKE_DURATION), seed=1,
        observe=True))


def _determinism_digest(orderer_kind: str, couchdb: bool = False) -> str:
    from repro.common.config import StateDBConfig
    from repro.experiments.determinism import (
        CHECK_DURATION,
        CHECK_PEERS,
        CHECK_RATE,
    )
    from repro.experiments.runner import make_topology, make_workload

    statedb = (StateDBConfig(kind="couchdb", cache=True, bulk=True,
                             snapshot_interval=3) if couchdb else None)
    return _digest(Scenario(
        make_topology(orderer_kind, "AND2", CHECK_PEERS, statedb=statedb),
        make_workload(CHECK_RATE, CHECK_DURATION), seed=1,
        workload_kind="conflict" if couchdb else "unique", observe=True))


#: Runs no perfbench scenario covers, pinned under their own keys: the
#: three fault scenarios (seed 1, one run each), the two ``repro scale
#: --smoke`` grid points (observed) and the default
#: ``repro check-determinism`` points (AND2, 60 tx/s, 4 s, observed).
EXTRA_DIGESTS: dict[str, typing.Callable[[], str]] = {
    "faults:kafka-broker-kill": lambda: _fault_digest("kafka-broker-kill"),
    "faults:peer-wipe-recover": lambda: _fault_digest("peer-wipe-recover"),
    "faults:raft-leader-kill": lambda: _fault_digest("raft-leader-kill"),
    "scale:8p-2c-100000u": lambda: _scale_digest(8, 2, 100_000, 40.0),
    "scale:16p-2c-1000000u": lambda: _scale_digest(16, 2, 1_000_000, 40.0),
    "determinism:solo": lambda: _determinism_digest("solo"),
    "determinism:kafka": lambda: _determinism_digest("kafka"),
    "determinism:raft": lambda: _determinism_digest("raft"),
    "determinism:solo-couchdb-conflict":
        lambda: _determinism_digest("solo", couchdb=True),
}


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_smoke_digest_matches_golden(name: str, update_golden: bool) -> None:
    digest = perfbench.digest_scenario(name, scale="smoke")
    key = perfbench.golden_key(name, "smoke")
    goldens = perfbench.load_goldens()
    if update_golden:
        goldens[key] = digest
        perfbench.save_goldens(goldens)
        return
    assert key in goldens, (
        f"no committed golden for {key}; generate one deliberately with "
        f"pytest tests/fabric --update-golden")
    assert digest == goldens[key], (
        f"trace digest for {key} diverged from the committed golden.\n"
        f"  expected {goldens[key]}\n"
        f"  observed {digest}\n"
        f"The simulated event schedule changed.  If that is deliberate, "
        f"regenerate the goldens with pytest tests/fabric --update-golden "
        f"and repro perfbench --update-golden, and say so in the commit.")


@pytest.mark.parametrize("key", sorted(EXTRA_DIGESTS))
def test_extra_run_digest_matches_golden(key: str,
                                         update_golden: bool) -> None:
    digest = EXTRA_DIGESTS[key]()
    goldens = perfbench.load_goldens()
    if update_golden:
        goldens[key] = digest
        perfbench.save_goldens(goldens)
        return
    assert key in goldens, (
        f"no committed golden for {key}; generate one deliberately with "
        f"pytest tests/fabric --update-golden")
    assert digest == goldens[key], (
        f"trace digest for {key} diverged from the committed golden: the "
        f"simulated event schedule of this run changed")


def test_goldens_cover_both_scales_of_every_scenario() -> None:
    """The goldens file must stay complete: 2 scales x every perfbench
    scenario, plus every pinned extra run."""
    goldens = perfbench.load_goldens()
    expected = {perfbench.golden_key(name, scale)
                for name in perfbench.SCENARIOS
                for scale in ("full", "smoke")}
    expected |= set(EXTRA_DIGESTS)
    missing = expected - set(goldens)
    assert not missing, (
        f"golden digests missing for {sorted(missing)}; regenerate with "
        f"repro perfbench --update-golden (full) and "
        f"pytest tests/fabric --update-golden (smoke)")
    stray = set(goldens) - expected
    assert not stray, f"stale golden entries for unknown scenarios: {sorted(stray)}"


def test_same_seed_same_digest() -> None:
    """The digest itself is reproducible: two runs, one schedule."""
    name = perfbench.REFERENCE_SCENARIO
    first = perfbench.digest_scenario(name, scale="smoke")
    second = perfbench.digest_scenario(name, scale="smoke")
    assert first == second


@pytest.mark.parametrize("name", [perfbench.REFERENCE_SCENARIO,
                                  "raft-and-leveldb"])
def test_tracing_enabled_digest_matches_golden(name: str) -> None:
    """Observability is schedule-neutral: tracing must not move the golden.

    Runs the scenario with the tracer and resource monitors attached and
    demands the bit-identical committed digest.  If this fails, some
    instrumentation path scheduled an event, consumed randomness, or
    reordered the heap.
    """
    digest = perfbench.digest_scenario(name, scale="smoke", observe=True)
    goldens = perfbench.load_goldens()
    key = perfbench.golden_key(name, "smoke")
    assert key in goldens
    assert digest == goldens[key], (
        f"tracing-enabled digest for {key} diverged from the golden: the "
        f"observability layer perturbed the schedule")
