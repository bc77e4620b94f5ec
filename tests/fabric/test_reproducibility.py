"""End-to-end reproducibility: same seed, same schedule, same metrics.

The determinism contract the whole benchmark rests on (every figure in the
paper reproduction is a same-seed rerun away from verification): a full
``FabricNetwork`` point run twice with one seed must produce byte-identical
event-schedule digests and identical metrics; a different seed must change
the digest.
"""

import pytest

from repro.experiments.determinism import (
    check_point_determinism,
    critical_path_hash,
)
from repro.experiments.runner import make_topology, make_workload
from repro.fabric.run import Scenario, run


def digested_run(seed):
    """One observed AND2 point with the schedule hash attached."""
    scenario = Scenario(make_topology("solo", "AND2", 3),
                        make_workload(40.0, 2.0), seed=seed, observe=True)
    return run(scenario, digest="hash")


@pytest.mark.parametrize("orderer_kind", ["solo", "raft"])
def test_same_seed_double_run_is_identical(orderer_kind):
    check = check_point_determinism(
        orderer_kind, policy="AND2", rate=40.0, peers=3, duration=2.0,
        seed=11)
    assert check.ok, check.render()
    assert check.report.identical
    assert check.metrics_identical
    assert check.report.events_a == check.report.events_b > 0


def test_couchdb_backend_double_run_is_identical():
    from repro.common.config import StateDBConfig

    check = check_point_determinism(
        "solo", policy="AND2", rate=40.0, peers=3, duration=2.0, seed=11,
        statedb=StateDBConfig(kind="couchdb", cache=True, bulk=True,
                              snapshot_interval=2),
        workload_kind="conflict")
    assert check.ok, check.render()
    assert check.statedb_kind == "couchdb"
    assert "couchdb" in check.render()


def test_different_seed_changes_the_digest():
    run_a = digested_run(seed=1)
    run_b = digested_run(seed=2)
    assert run_a.digest.hexdigest != run_b.digest.hexdigest
    assert (critical_path_hash(run_a.network)
            != critical_path_hash(run_b.network))


def test_digest_covers_real_traffic():
    result = digested_run(seed=1)
    assert result.digest.events_recorded > 1000
    assert result.digest.events_recorded == result.events
    assert not result.digest.records  # hash mode keeps no records
    assert result.metrics.overall_throughput > 0
    # A real sha256 over a non-empty summary.
    assert len(critical_path_hash(result.network)) == 64
