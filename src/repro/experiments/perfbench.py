"""The golden scenario matrix: exact records of reference runs.

Every paper artifact is a sweep of full network simulations over the
configurations the paper cares about (solo/raft/kafka ordering, OR and AND
endorsement policies, LevelDB and CouchDB state backends), plus the
scale-out population.  This module names that matrix and pins each of its
runs: a scenario runs once from :data:`GOLDEN_SEED` with a
:class:`~repro.sim.sanitizer.TraceDigest` attached, and yields one
:class:`GoldenRecord`:

- ``digest``  — SHA-256 over every event pop (time, tie-break sequence,
  owning process), so a match proves the event schedule unchanged;
- ``events``  — kernel events popped: the run's event budget, the
  simulator's cost in a unit that does not depend on the host;
- ``sim_tps`` — committed transactions per *simulated* second (2 places).

The records are committed in ``tests/fabric/golden/digests.json`` and
compared exactly.  A change that removes or adds events changes the digest
and the event count together, so the record shows the budget's delta next
to the schedule change.  Regenerating is always a deliberate act:
``repro perfbench --update-golden`` or ``pytest tests/fabric
--update-golden``.  Host timing is not measured here; ``layerbench/``
times the runs as users run them.

CLI::

    repro perfbench                   # full scenarios, report only
    repro perfbench --smoke           # scaled-down subset (CI gate)
    repro perfbench --check-golden    # fail on any record divergence
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import typing

from repro.common.config import StateDBConfig
from repro.experiments.farm import run_farm
from repro.experiments.runner import make_topology, make_workload
from repro.fabric.run import RunResult, Scenario, run

#: Seed used for every golden record; changing it invalidates the goldens.
GOLDEN_SEED = 1


@dataclasses.dataclass(frozen=True)
class PerfScenario:
    """One configuration of the matrix at full (paper-style) scale."""

    name: str
    orderer_kind: str
    policy: str
    statedb_kind: str = "leveldb"
    rate: float = 250.0
    duration: float = 15.0
    peers: int = 10
    #: Channels in the deployment; >1 switches to the scale-out topology
    #: (committing-only fleet beyond the endorsing core, relay-tree gossip).
    channels: int = 1
    #: Aggregated client population; >0 drives the run through
    #: :class:`~repro.client.population.ClientPopulation` cohorts instead
    #: of per-client workload generators.
    population_users: int = 0

    def at_scale(self, scale: str) -> "PerfScenario":
        """The scenario at ``"full"`` or scaled-down ``"smoke"`` size.

        Smoke scale matches the determinism-check defaults (4 peers,
        60 tx/s for 4 simulated seconds): every phase of the pipeline is
        exercised on every backend while a run stays under a second.
        Population scenarios keep 12 peers at smoke so the scale-out
        topology (committing-only peers, relay-tree gossip) stays covered;
        the user count is untouched — population size is O(1) in cost.
        """
        if scale == "full":
            return self
        if scale != "smoke":
            raise ValueError(f"unknown scale {scale!r}")
        peers = 12 if self.population_users > 0 else 4
        return dataclasses.replace(self, rate=60.0, duration=4.0,
                                   peers=peers)

    def scenario(self, seed: int, observe: bool = False) -> Scenario:
        """The run this benchmark scenario describes."""
        if self.population_users > 0:
            from repro.experiments.scale import (
                make_scale_topology,
                make_scale_workload,
            )

            topology = make_scale_topology(self.peers, self.channels,
                                           orderer_kind=self.orderer_kind)
            workload = make_scale_workload(self.population_users,
                                           self.rate, self.duration)
        else:
            statedb = StateDBConfig(kind=self.statedb_kind)
            if self.statedb_kind == "couchdb":
                # The representative CouchDB deployment: Thakkar-style
                # read cache and bulk batching on, periodic snapshots.
                statedb = StateDBConfig(kind="couchdb", cache=True,
                                        bulk=True, snapshot_interval=3)
            topology = make_topology(self.orderer_kind, self.policy,
                                     self.peers, statedb=statedb)
            workload = make_workload(self.rate, self.duration)
        return Scenario(topology, workload, seed=seed, observe=observe)


def _scenario_list() -> list[PerfScenario]:
    return [
        PerfScenario("solo-or-leveldb", "solo", "OR10"),
        # The reference Fig. 2-style point: Solo under AND5 driven past the
        # validate-phase capacity — the paper's (and our) worst hot path.
        PerfScenario("solo-and-leveldb", "solo", "AND5"),
        PerfScenario("raft-or-leveldb", "raft", "OR10"),
        PerfScenario("raft-and-leveldb", "raft", "AND5"),
        PerfScenario("kafka-or-leveldb", "kafka", "OR10"),
        PerfScenario("kafka-and-leveldb", "kafka", "AND5"),
        PerfScenario("solo-and-couchdb", "solo", "AND5",
                     statedb_kind="couchdb"),
        PerfScenario("raft-and-couchdb", "raft", "AND5",
                     statedb_kind="couchdb"),
        # The scale-out configuration: a committing fleet past the
        # endorsing core, four channels, and a million-user aggregated
        # population — the proof that population size is a pure
        # parameter (its event budget tracks cohorts and rate, not users).
        PerfScenario("raft-population-scale", "raft", "OR(1..n)",
                     peers=60, channels=4, population_users=1_000_000),
    ]


SCENARIOS: dict[str, PerfScenario] = {
    scenario.name: scenario for scenario in _scenario_list()}

#: The paper's hot path: Solo under AND5 past the validate capacity.
REFERENCE_SCENARIO = "solo-and-leveldb"

#: CI smoke subset: one scaled-down scenario per orderer type, plus the
#: CouchDB backend so both state databases stay covered.
SMOKE_SCENARIOS = ["solo-and-leveldb", "raft-and-leveldb",
                   "kafka-or-leveldb", "solo-and-couchdb",
                   "raft-population-scale"]


@dataclasses.dataclass(frozen=True)
class GoldenRecord:
    """What one run must reproduce exactly."""

    digest: str
    events: int
    sim_tps: float

    @classmethod
    def of(cls, result: RunResult) -> "GoldenRecord":
        """The record of a run made with ``digest="hash"``."""
        if result.digest is None:
            raise ValueError("a golden record needs a digested run")
        return cls(digest=result.digest.hexdigest, events=result.events,
                   sim_tps=round(result.metrics.overall_throughput, 2))


def golden_mismatches(expected: GoldenRecord | None,
                      observed: GoldenRecord) -> list[str]:
    """How ``observed`` differs from the committed ``expected`` record,
    one line per field; empty when they agree."""
    if expected is None:
        return ["no committed golden"]
    return [f"{field.name}: golden {getattr(expected, field.name)}, "
            f"observed {getattr(observed, field.name)}"
            for field in dataclasses.fields(GoldenRecord)
            if getattr(expected, field.name) != getattr(observed, field.name)]


@dataclasses.dataclass
class PerfResult:
    """One scenario run and, once checked, its golden verdict."""

    scenario: str
    scale: str
    seed: int
    record: GoldenRecord
    #: :func:`golden_mismatches` against the committed record; None when
    #: no check ran.
    mismatches: list[str] | None = None


def run_scenario(name: str, seed: int = GOLDEN_SEED, scale: str = "full",
                 observe: bool = False) -> PerfResult:
    """Run one scenario once, digested, and return its record.

    ``observe=True`` runs with span tracing and resource monitors
    attached: the record must not change, which is the standing proof
    that observability is schedule-neutral.
    """
    scenario = SCENARIOS[name].at_scale(scale).scenario(seed, observe)
    return PerfResult(scenario=name, scale=scale, seed=seed,
                      record=GoldenRecord.of(run(scenario, digest="hash")))


# ----------------------------------------------------------------------
# Golden records
# ----------------------------------------------------------------------

def golden_key(name: str, scale: str) -> str:
    return f"{name}@{scale}"


def golden_path() -> pathlib.Path:
    """The committed goldens, resolved relative to this file so the path
    works from any working directory."""
    return (pathlib.Path(__file__).resolve().parents[3]
            / "tests" / "fabric" / "golden" / "digests.json")


def load_goldens() -> dict[str, GoldenRecord]:
    path = golden_path()
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as handle:
        return {key: GoldenRecord(**entry)
                for key, entry in json.load(handle).items()}


def save_goldens(goldens: typing.Mapping[str, GoldenRecord]) -> None:
    with open(golden_path(), "w", encoding="utf-8") as handle:
        json.dump({key: dataclasses.asdict(record)
                   for key, record in goldens.items()},
                  handle, indent=2, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# The matrix driver
# ----------------------------------------------------------------------

@dataclasses.dataclass
class PerfBenchReport:
    """All scenario results of one ``repro perfbench`` invocation."""

    results: list[PerfResult]
    scale: str
    seed: int

    @property
    def ok(self) -> bool:
        """False iff a golden check ran and found a divergence."""
        return not any(result.mismatches for result in self.results)

    def render(self) -> str:
        width = max(len(result.scenario) for result in self.results)
        lines = [f"perfbench ({self.scale} scale, seed {self.seed})",
                 f"{'scenario':<{width}}  {'sim_tps':>8}  {'events':>9}  "
                 f"golden"]
        for result in self.results:
            if result.mismatches is None:
                verdict = "-"
            elif not result.mismatches:
                verdict = "ok"
            else:
                verdict = "DIVERGED: " + "; ".join(result.mismatches)
            lines.append(
                f"{result.scenario:<{width}}  {result.record.sim_tps:>8.2f}  "
                f"{result.record.events:>9}  {verdict}")
        return "\n".join(lines)


def _scenario_worker(task: tuple[str, int, str]) -> PerfResult:
    """Farm worker: one scenario, rebuilt from its explicit task tuple."""
    name, seed, scale = task
    return run_scenario(name, seed=seed, scale=scale)


def run_perfbench(names: typing.Sequence[str] | None = None,
                  seed: int = GOLDEN_SEED, scale: str = "full",
                  check_golden: bool = False,
                  update_golden: bool = False,
                  jobs: int = 1) -> PerfBenchReport:
    """Run ``names`` (default: every scenario) at ``scale``.

    With ``check_golden``, each record is compared against the committed
    golden (a missing golden fails the check: a new scenario must be
    golden-ed deliberately).  With ``update_golden``, the goldens file is
    rewritten with the observed records instead.  ``jobs > 1`` farms
    scenarios across processes (:mod:`repro.experiments.farm`); records
    and report order are identical either way.
    """
    if names is None:
        names = list(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise KeyError(f"unknown perfbench scenario(s): {unknown}; "
                       f"known: {sorted(SCENARIOS)}")
    results = run_farm(_scenario_worker,
                       [(name, seed, scale) for name in names],
                       jobs=jobs, labels=list(names))
    if update_golden or check_golden:
        goldens = load_goldens()
        for result in results:
            key = golden_key(result.scenario, result.scale)
            if update_golden:
                goldens[key] = result.record
            result.mismatches = golden_mismatches(goldens.get(key),
                                                  result.record)
        if update_golden:
            save_goldens(goldens)
    return PerfBenchReport(results=results, scale=scale, seed=seed)
