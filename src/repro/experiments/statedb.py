"""State-database backend ablation: the Thakkar-shaped result.

Thakkar et al. ("Performance Benchmarking and Optimizing Hyperledger
Fabric", PAPERS.md) measure that switching the state database from
GoLevelDB to CouchDB cuts peak throughput by roughly 3×, and that two peer
optimizations — a read cache and bulk read/write batching — recover most of
the gap.  This experiment reproduces that shape on the simulator:

1. sweep arrival rates per backend variant on a read-write (conflict)
   workload and report the peak committed throughput;
2. rerun the plain-CouchDB peak with observability attached and confirm
   the bottleneck moved from the VSCC worker pool to the state database
   in the validate/commit phase.

``repro statedb`` renders the table and exits non-zero when the expected
ordering (LevelDB > CouchDB+cache+bulk > plain CouchDB) or the CouchDB
bottleneck attribution does not hold.
"""

from __future__ import annotations

import dataclasses

from repro.common.config import StateDBConfig
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import make_topology, make_workload, search_peak
from repro.fabric.run import Scenario, run

#: The workload: every transaction reads one key and writes it back
#: (kvstore "update"), so both the backend read path (endorsement + MVCC)
#: and write path (commit) are on the critical path.
WORKLOAD_KIND = "conflict"
POLICY = "OR(1..n)"
PEERS = 10

#: Sweep rates per variant.  Fast backends peak near the OR validate cap
#: (~300 tps); plain CouchDB saturates its serial state DB far earlier.
FAST_RATES = {"quick": [250.0, 330.0], "full": [200.0, 250.0, 300.0, 330.0]}
SLOW_RATES = {"quick": [60.0, 90.0], "full": [45.0, 60.0, 75.0, 90.0]}
DURATIONS = {"quick": 10.0, "full": 15.0}


@dataclasses.dataclass(frozen=True)
class StateDBVariant:
    """One ablation arm: a backend plus its optimization toggles."""

    label: str
    config: StateDBConfig
    fast: bool  # sweeps the high-rate grid (near the VSCC cap)


VARIANTS = (
    StateDBVariant("goleveldb", StateDBConfig(kind="leveldb"), fast=True),
    StateDBVariant("couchdb", StateDBConfig(kind="couchdb"), fast=False),
    StateDBVariant(
        "couchdb+cache+bulk",
        StateDBConfig(kind="couchdb", cache=True, bulk=True), fast=True),
)


@dataclasses.dataclass
class StateDBAblation:
    """Peaks, bottleneck attribution, and the pass/fail verdict."""

    result: ExperimentResult
    peaks: dict[str, float]                    # variant label -> peak tps
    couch_bottleneck: str                      # resource name
    couch_phase: str                           # phase of that resource
    couch_utilization: float

    @property
    def ordering_ok(self) -> bool:
        """LevelDB > CouchDB+cache+bulk > plain CouchDB (Thakkar shape)."""
        return (self.peaks["goleveldb"]
                > self.peaks["couchdb+cache+bulk"]
                > self.peaks["couchdb"])

    @property
    def attribution_ok(self) -> bool:
        """Plain CouchDB saturates its state DB inside validate/commit."""
        return ("statedb" in self.couch_bottleneck
                and self.couch_phase == "validate"
                and self.couch_utilization >= 0.8)

    @property
    def ok(self) -> bool:
        return self.ordering_ok and self.attribution_ok


def run_statedb_ablation(mode: str = "quick",
                         seed: int = 1) -> StateDBAblation:
    """Run the three-variant ablation and build the result table."""
    duration = DURATIONS[mode]
    peaks: dict[str, float] = {}
    rows: list[list[object]] = []
    for variant in VARIANTS:
        rates = (FAST_RATES if variant.fast else SLOW_RATES)[mode]
        peak, _ = search_peak(
            "solo", POLICY, PEERS, rates, duration=duration, seed=seed,
            workload_kind=WORKLOAD_KIND, statedb=variant.config)
        peaks[variant.label] = peak
        rows.append([variant.label,
                     "yes" if variant.config.cache else "no",
                     "yes" if variant.config.bulk else "no",
                     peak])
    # Bottleneck attribution for the plain-CouchDB arm, driven past its
    # peak so the saturated resource is unambiguous.
    couch_rates = SLOW_RATES[mode]
    traced = run(Scenario(
        make_topology("solo", POLICY, PEERS,
                      statedb=StateDBConfig(kind="couchdb")),
        make_workload(max(couch_rates), duration), seed=seed,
        workload_kind=WORKLOAD_KIND, observe=True))
    bottleneck = traced.network.bottleneck_report().bottleneck
    name = bottleneck.name if bottleneck is not None else ""
    phase = bottleneck.phase if bottleneck is not None else ""
    utilization = bottleneck.utilization if bottleneck is not None else 0.0
    for row, variant in zip(rows, VARIANTS):
        if variant.label == "couchdb":
            row.extend([name, phase])
        else:
            row.extend(["-", "-"])
    ablation = StateDBAblation(
        result=ExperimentResult(
            experiment_id="statedb",
            title="State-database backend ablation "
                  "(Thakkar et al., read-write workload)",
            columns=["backend", "cache", "bulk", "peak tps",
                     "bottleneck", "phase"],
            rows=rows,
            notes=[
                f"workload: {WORKLOAD_KIND} (1 read + 1 write per tx), "
                f"{POLICY}, solo orderer, {PEERS} peers",
                f"couchdb bottleneck: {name} "
                f"(utilization {utilization:.3f}, phase {phase or '-'})",
            ]),
        peaks=peaks,
        couch_bottleneck=name,
        couch_phase=phase,
        couch_utilization=utilization)
    verdict = "holds" if ablation.ok else "VIOLATED"
    ablation.result.notes.append(
        f"expected ordering goleveldb > couchdb+cache+bulk > couchdb: "
        f"{verdict}")
    return ablation
