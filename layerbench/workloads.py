"""The three benchmark workloads, each built from a seed.

Every workload is open loop in simulated time: clients invoke on schedule
whatever the backlog.  ``build`` imports the simulator lazily, so timing a
call to it in a fresh interpreter measures importing ``repro`` plus
constructing the :class:`~repro.fabric.network.FabricNetwork` (the
``setup_s`` metric).  README.md says why each workload exists.
"""

from __future__ import annotations

#: The seed whose simulated outputs are recorded in ``expected.json``.
DEFAULT_SEED = 1

#: Offered load of every workload, in transactions per simulated second.
RATE = 250.0


#: Simulated seconds of load generation of each workload at full size.
#: population-scale runs 6 s rather than the 15 s of the perfbench
#: scenario it copies, so one run costs about as much host time as the
#: other two workloads (about 6 s on a 2-core Xeon); the per-peer fan-out
#: that defines it is unchanged.
DURATIONS: dict[str, float] = {
    "and5-validate-bound": 15.0,
    "conflict-kafka-couchdb": 15.0,
    "population-scale": 6.0,
}


def build(name: str, seed: int, duration: float | None = None):
    """The ``FabricNetwork`` of workload ``name``, seeded with ``seed``.

    ``duration`` overrides the simulated load duration (short-horizon
    tests); ``None`` keeps the workload's full size.
    """
    from repro.common.config import StateDBConfig
    from repro.experiments.runner import make_topology, make_workload
    from repro.experiments.scale import (
        make_scale_topology,
        make_scale_workload,
    )
    from repro.fabric.network import FabricNetwork

    duration = DURATIONS[name] if duration is None else duration
    if name == "and5-validate-bound":
        return FabricNetwork(make_topology("solo", "AND5", 10),
                             make_workload(RATE, duration), seed=seed)
    if name == "conflict-kafka-couchdb":
        statedb = StateDBConfig(kind="couchdb", cache=True, bulk=True,
                                snapshot_interval=3)
        workload = make_workload(RATE, duration)
        workload.key_space = 1000
        workload.read_write_conflict_skew = 1.0
        return FabricNetwork(
            make_topology("kafka", "OR10", 10, statedb=statedb), workload,
            seed=seed, workload_kind="conflict")
    if name == "population-scale":
        return FabricNetwork(
            make_scale_topology(60, 4, orderer_kind="raft"),
            make_scale_workload(1_000_000, RATE, duration), seed=seed)
    raise KeyError(f"unknown workload {name!r}; known: {sorted(DURATIONS)}")
