"""The paper's deployment and workload, and the Table II peak search."""

from __future__ import annotations

from repro.common.config import (
    ChannelConfig,
    OrdererConfig,
    StateDBConfig,
    TopologyConfig,
    WorkloadConfig,
)
from repro.fabric.run import Scenario, run
from repro.metrics.collector import PhaseMetrics

#: Paper defaults for figures 2-7: 10 endorsing peers; AND means AND5.
DEFAULT_PEERS = 10
OR_POLICY = "OR10"
AND_POLICY = "AND5"


def make_topology(orderer_kind: str, policy: str, peers: int,
                  num_osns: int | None = None,
                  num_brokers: int = 3,
                  num_zookeepers: int = 3,
                  statedb: StateDBConfig | None = None) -> TopologyConfig:
    """Topology following the paper's §IV.A deployment."""
    if num_osns is None:
        num_osns = 1 if orderer_kind == "solo" else 3
    orderer = OrdererConfig(
        kind=orderer_kind, num_osns=num_osns,
        num_brokers=num_brokers, num_zookeepers=num_zookeepers,
        replication_factor=min(3, num_brokers))
    return TopologyConfig(
        num_endorsing_peers=peers,
        channel=ChannelConfig(endorsement_policy=policy),
        orderer=orderer,
        statedb=statedb if statedb is not None else StateDBConfig())


def make_workload(rate: float, duration: float = 15.0) -> WorkloadConfig:
    """Paper workload: 1-byte transactions, 3 s ordering timeout."""
    return WorkloadConfig(arrival_rate=rate, duration=duration,
                          warmup=min(3.0, duration / 4),
                          cooldown=min(2.0, duration / 6), tx_size=1)


def search_peak(orderer_kind: str, policy: str, peers: int,
                rates: list[float], duration: float = 15.0,
                seed: int = 1, workload_kind: str = "unique",
                **topology_kwargs) -> tuple[float, list[PhaseMetrics]]:
    """Sweep ``rates`` and return (peak throughput, each rate's metrics).

    The paper reports peak throughput per configuration (Table II); the peak
    is the maximum committed rate over the sweep.  Only each point's
    metrics are kept, so the sweep holds one network alive at a time.
    """
    topology = make_topology(orderer_kind, policy, peers, **topology_kwargs)
    points = [run(Scenario(topology, make_workload(rate, duration),
                           seed=seed, workload_kind=workload_kind)).metrics
              for rate in rates]
    peak = max(metrics.overall_throughput for metrics in points)
    return peak, points
