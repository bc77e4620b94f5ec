"""Deterministic fault injection: schedules, the injector, recovery analysis.

Usage sketch::

    from repro.faults import FaultSchedule

    schedule = FaultSchedule().crash("@leader", at=6.0).recover("@leader",
                                                                at=10.0)
    result = run(Scenario(topology, workload, seed=1, faults=schedule))
    report = result.network.recovery_report(fault_time=6.0)

All fault transitions fire at fixed simulated times through one injector
process, and every crash/recover goes through ``NodeBase.crash()`` /
``recover()`` (enforced by simlint rule SL009), so fault runs replay
byte-identically from the same seed.
"""

from repro.faults.injector import FaultInjector
from repro.faults.recovery import RecoveryReport, compute_recovery
from repro.faults.schedule import FaultAction, FaultSchedule

__all__ = [
    "FaultAction",
    "FaultInjector",
    "FaultSchedule",
    "RecoveryReport",
    "compute_recovery",
]
