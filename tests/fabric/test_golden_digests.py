"""Golden-record regression tests.

Every perfbench scenario is replayed at smoke scale and its
:class:`~repro.experiments.perfbench.GoldenRecord` (trace digest, event
count and simulated throughput) is compared exactly against the
committed golden under ``tests/fabric/golden/digests.json``.  A
divergent digest means the simulated event schedule changed: every pop,
its time, its tie-break sequence number, and its owning process.  A
divergent event count is the same change seen as the run's event budget,
the simulator's cost in a unit that does not depend on the host.

That is sometimes deliberate — an optimisation that removes bookkeeping
events, a new subsystem in the hot path — and then the goldens are
regenerated explicitly with ``pytest tests/fabric --update-golden`` (or
``repro perfbench --update-golden`` for the full-scale entries).  Any
schedule change must arrive with regenerated goldens in the same commit,
which is what makes an *accidental* determinism regression impossible to
merge quietly, and shows the event delta of a deliberate one.
"""

from __future__ import annotations

import typing

import pytest

from repro.experiments import perfbench
from repro.experiments.perfbench import GoldenRecord
from repro.fabric.run import Scenario, run

ALL_SCENARIOS = sorted(perfbench.SCENARIOS)


def _record(scenario: Scenario) -> GoldenRecord:
    return GoldenRecord.of(run(scenario, digest="hash"))


def _fault_record(name: str) -> GoldenRecord:
    from repro.experiments.faults import get_scenario

    return _record(get_scenario(name).scenario(seed=1))


def _scale_record(peers: int, channels: int, users: int,
                  rate: float) -> GoldenRecord:
    from repro.experiments.scale import (
        SMOKE_DURATION,
        make_scale_topology,
        make_scale_workload,
    )

    return _record(Scenario(
        make_scale_topology(peers, channels),
        make_scale_workload(users, rate, SMOKE_DURATION), seed=1,
        observe=True))


def _determinism_record(orderer_kind: str,
                        couchdb: bool = False) -> GoldenRecord:
    from repro.common.config import StateDBConfig
    from repro.experiments.determinism import (
        CHECK_DURATION,
        CHECK_PEERS,
        CHECK_RATE,
    )
    from repro.experiments.runner import make_topology, make_workload

    statedb = (StateDBConfig(kind="couchdb", cache=True, bulk=True,
                             snapshot_interval=3) if couchdb else None)
    return _record(Scenario(
        make_topology(orderer_kind, "AND2", CHECK_PEERS, statedb=statedb),
        make_workload(CHECK_RATE, CHECK_DURATION), seed=1,
        workload_kind="conflict" if couchdb else "unique", observe=True))


#: Runs no perfbench scenario covers, pinned under their own keys: the
#: three fault scenarios (seed 1, one run each), the two ``repro scale
#: --smoke`` grid points (observed) and the default
#: ``repro check-determinism`` points (AND2, 60 tx/s, 4 s, observed).
EXTRA_DIGESTS: dict[str, typing.Callable[[], GoldenRecord]] = {
    "faults:kafka-broker-kill": lambda: _fault_record("kafka-broker-kill"),
    "faults:peer-wipe-recover": lambda: _fault_record("peer-wipe-recover"),
    "faults:raft-leader-kill": lambda: _fault_record("raft-leader-kill"),
    "scale:8p-2c-100000u": lambda: _scale_record(8, 2, 100_000, 40.0),
    "scale:16p-2c-1000000u": lambda: _scale_record(16, 2, 1_000_000, 40.0),
    "determinism:solo": lambda: _determinism_record("solo"),
    "determinism:kafka": lambda: _determinism_record("kafka"),
    "determinism:raft": lambda: _determinism_record("raft"),
    "determinism:solo-couchdb-conflict":
        lambda: _determinism_record("solo", couchdb=True),
}


def _check_golden(key: str, record: GoldenRecord,
                  update_golden: bool) -> None:
    """Assert ``record`` equals the committed golden for ``key`` (or, with
    ``--update-golden``, commit it)."""
    goldens = perfbench.load_goldens()
    if update_golden:
        goldens[key] = record
        perfbench.save_goldens(goldens)
        return
    mismatches = perfbench.golden_mismatches(goldens.get(key), record)
    assert not mismatches, (
        f"golden record for {key} diverged: {'; '.join(mismatches)}.\n"
        f"The simulated run changed.  If that is deliberate, regenerate "
        f"the goldens with pytest tests/fabric --update-golden and repro "
        f"perfbench --update-golden, and say so in the commit.")


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_smoke_digest_matches_golden(name: str, update_golden: bool) -> None:
    _check_golden(perfbench.golden_key(name, "smoke"),
                  perfbench.run_scenario(name, scale="smoke").record,
                  update_golden)


@pytest.mark.parametrize("key", sorted(EXTRA_DIGESTS))
def test_extra_run_digest_matches_golden(key: str,
                                         update_golden: bool) -> None:
    _check_golden(key, EXTRA_DIGESTS[key](), update_golden)


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
    """The record itself is reproducible: two runs, one schedule."""
    name = perfbench.REFERENCE_SCENARIO
    first = perfbench.run_scenario(name, scale="smoke").record
    second = perfbench.run_scenario(name, scale="smoke").record
    assert first == second


@pytest.mark.parametrize("name", [perfbench.REFERENCE_SCENARIO,
                                  "raft-and-leveldb"])
def test_tracing_enabled_digest_matches_golden(name: str) -> None:
    """Observability is schedule-neutral: tracing must not move the golden.

    Runs the scenario with the tracer and resource monitors attached and
    demands the committed record: the bit-identical digest and the same
    event count.  If this fails, some instrumentation path scheduled an
    event, consumed randomness, or reordered the heap.
    """
    record = perfbench.run_scenario(name, scale="smoke", observe=True).record
    mismatches = perfbench.golden_mismatches(
        perfbench.load_goldens().get(perfbench.golden_key(name, "smoke")),
        record)
    assert not mismatches, (
        f"tracing-enabled record for {name}@smoke diverged from the golden "
        f"({'; '.join(mismatches)}): the observability layer perturbed the "
        f"schedule")


def test_check_golden_fails_on_a_record_one_event_off(
        tmp_path, monkeypatch, capsys) -> None:
    """The event budget is checked exactly: one event off fails the
    check, and the report names both counts."""
    import dataclasses

    from repro.experiments.cli import main

    key = perfbench.golden_key(perfbench.REFERENCE_SCENARIO, "smoke")
    committed = perfbench.load_goldens()[key]
    off = dataclasses.replace(committed, events=committed.events + 1)
    monkeypatch.setattr(perfbench, "golden_path",
                        lambda: tmp_path / "digests.json")
    perfbench.save_goldens({key: off})

    report = perfbench.run_perfbench([perfbench.REFERENCE_SCENARIO],
                                     scale="smoke", check_golden=True)
    assert not report.ok
    assert report.results[0].mismatches == [
        f"events: golden {committed.events + 1}, "
        f"observed {committed.events}"]

    assert main(["perfbench", "--smoke", "--check-golden",
                 "--scenario", perfbench.REFERENCE_SCENARIO]) == 1
    out = capsys.readouterr().out
    assert f"events: golden {committed.events + 1}" in out
    assert f"observed {committed.events}" in out
    assert "golden check FAILED" in out
