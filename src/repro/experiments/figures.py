"""Figure regeneration: Figs. 2-8 of the paper.

Figures 2-7 all derive from one family of simulation runs (orderer x policy
x arrival rate over the default deployment), so measurement points are
memoized per process: regenerating Fig. 3 after Fig. 2 reuses the identical
runs rather than repeating them.
"""

from __future__ import annotations

import functools
import math
import typing

from repro.experiments.report import ExperimentResult
from repro.experiments.runner import (
    AND_POLICY,
    DEFAULT_PEERS,
    OR_POLICY,
    make_topology,
    make_workload,
)
from repro.fabric.run import Scenario, run
from repro.metrics.collector import PhaseMetrics

ORDERER_KINDS = ["solo", "kafka", "raft"]

#: Arrival-rate grids.  "quick" keeps pytest-benchmark runs short; "full"
#: matches the paper's sweep.  The top rate (520) deliberately exceeds the
#: workload generator's own capacity (10 clients x ~50 tps), the regime in
#: which the paper's Figs. 3/6/7 show every phase's latency exploding.
RATE_GRIDS = {
    "quick": [100.0, 250.0, 520.0],
    "full": [50.0, 100.0, 150.0, 200.0, 250.0, 300.0,
             350.0, 400.0, 450.0, 520.0],
}

DURATIONS = {"quick": 12.0, "full": 30.0}


@functools.lru_cache(maxsize=4096)
def _cached_point(orderer_kind: str, policy: str, rate: float,
                  duration: float, seed: int) -> PhaseMetrics:
    """One sweep point's metrics (the network itself is not kept)."""
    scenario = Scenario(make_topology(orderer_kind, policy, DEFAULT_PEERS),
                        make_workload(rate, duration), seed=seed)
    return run(scenario).metrics


def _sweep(policies: list[str], mode: str, seed: int
           ) -> list[tuple[str, str, float, PhaseMetrics]]:
    """All (orderer, policy, rate, metrics) points for Figs. 2-7
    (memoized)."""
    rates = RATE_GRIDS[mode]
    duration = DURATIONS[mode]
    points = []
    for orderer_kind in ORDERER_KINDS:
        for policy in policies:
            for rate in rates:
                points.append((orderer_kind, policy, rate,
                               _cached_point(orderer_kind, policy, rate,
                                             duration, seed)))
    return points


def run_fig2_fig3(mode: str = "quick",
                  seed: int = 1) -> tuple[ExperimentResult, ExperimentResult]:
    """Figs. 2 and 3: overall throughput and latency vs arrival rate.

    Paper findings reproduced: (1) all three ordering services peak around
    300 tps under OR and around 200 tps under AND; (2) latency spikes once
    the arrival rate passes the peak, earlier for AND.
    """
    points = _sweep([OR_POLICY, AND_POLICY], mode, seed)
    throughput_rows = []
    latency_rows = []
    for orderer_kind, policy, rate, metrics in points:
        label = "OR" if policy == OR_POLICY else "AND"
        throughput_rows.append([orderer_kind, label, rate,
                                metrics.overall_throughput])
        latency_rows.append([orderer_kind, label, rate,
                             metrics.overall_latency])
    fig2 = ExperimentResult(
        experiment_id="fig2",
        title="Overall transaction throughput (paper: OR peaks ~300 tps, "
              "AND ~200 tps, no orderer difference)",
        columns=["orderer", "policy", "arrival_rate", "throughput_tps"],
        rows=throughput_rows)
    fig3 = ExperimentResult(
        experiment_id="fig3",
        title="Overall transaction latency (paper: flat below peak, rapid "
              "growth past it; AND saturates earlier)",
        columns=["orderer", "policy", "arrival_rate", "latency_s"],
        rows=latency_rows)
    return fig2, fig3


def run_fig4_fig5(mode: str = "quick",
                  seed: int = 1) -> tuple[ExperimentResult, ExperimentResult]:
    """Figs. 4 and 5: per-phase throughput under OR and AND.

    Paper findings reproduced: each phase grows linearly with the arrival
    rate up to its own peak; the validate phase peaks first (the system
    bottleneck), at ~200 tps under AND5.
    """
    or_points = _sweep([OR_POLICY], mode, seed)
    and_points = _sweep([AND_POLICY], mode, seed)

    def rows_for(points):
        return [[orderer_kind, rate,
                 metrics.execute_throughput,
                 metrics.order_throughput,
                 metrics.validate_throughput]
                for orderer_kind, _policy, rate, metrics in points]

    columns = ["orderer", "arrival_rate", "execute_tps", "order_tps",
               "validate_tps"]
    fig4 = ExperimentResult(
        experiment_id="fig4",
        title="Per-phase throughput, endorsement policy OR (paper: "
              "bottleneck in validate; execute scales well)",
        columns=columns, rows=rows_for(or_points))
    fig5 = ExperimentResult(
        experiment_id="fig5",
        title="Per-phase throughput, endorsement policy AND5 (paper: "
              "validate limited to ~200 tps)",
        columns=columns, rows=rows_for(and_points))
    return fig4, fig5


def run_fig6_fig7(mode: str = "quick",
                  seed: int = 1) -> tuple[ExperimentResult, ExperimentResult]:
    """Figs. 6 and 7: per-phase latency under OR and AND.

    Paper findings reproduced: phase latencies are stable below the peak
    and grow sharply once the arrival rate passes it (queueing effect).
    """
    or_points = _sweep([OR_POLICY], mode, seed)
    and_points = _sweep([AND_POLICY], mode, seed)

    def rows_for(points):
        return [[orderer_kind, rate,
                 metrics.execute_latency,
                 metrics.order_validate_latency]
                for orderer_kind, _policy, rate, metrics in points]

    columns = ["orderer", "arrival_rate", "execute_latency_s",
               "order_validate_latency_s"]
    fig6 = ExperimentResult(
        experiment_id="fig6",
        title="Per-phase latency, endorsement policy OR",
        columns=columns, rows=rows_for(or_points))
    fig7 = ExperimentResult(
        experiment_id="fig7",
        title="Per-phase latency, endorsement policy AND5",
        columns=columns, rows=rows_for(and_points))
    return fig6, fig7


# ----------------------------------------------------------------------
# Analytic overlays: the stochastic phase model's predicted curves
# ----------------------------------------------------------------------

#: Which figure ids carry an analytic overlay, and what it predicts.
_OVERLAY_KINDS = {
    "fig2": "throughput",
    "fig3": "latency",
    "fig6": "order_validate",
    "fig7": "order_validate",
}


def analytic_overlay(result: ExperimentResult, samples: int = 40,
                     ) -> dict[str, dict[str, list[tuple[float, float]]]]:
    """Phase-model prediction curves for a figure's panels.

    Returns ``{orderer: {series name: [(rate, y), ...]}}`` over a dense
    rate grid spanning the figure's measured range, ready to hand to
    :func:`repro.experiments.plots.plot_result` as ``overlays``.  Latency
    curves stop at the predicted saturation knee (the model reports
    infinite latency past it); the throughput curve flattens at the
    predicted system capacity instead.  Closed-form throughout — the
    overlay adds no simulation runs.  Empty for figures without an
    analytic counterpart.
    """
    kind = _OVERLAY_KINDS.get(result.experiment_id)
    if kind is None:
        return {}
    columns = result.columns
    rate_index = columns.index("arrival_rate")
    orderer_index = columns.index("orderer")
    rates = [float(row[rate_index]) for row in result.rows]
    orderers = list(dict.fromkeys(row[orderer_index]
                                  for row in result.rows))
    if not rates or not orderers:
        return {}
    low, high = min(rates), max(rates)
    if high <= low:
        high = low + 1.0
    grid = [low + (high - low) * step / (samples - 1)
            for step in range(samples)]
    if result.experiment_id in ("fig2", "fig3"):
        policies = [("OR model", OR_POLICY), ("AND model", AND_POLICY)]
    elif result.experiment_id == "fig6":
        policies = [("model", OR_POLICY)]
    else:
        policies = [("model", AND_POLICY)]

    overlays: dict[str, dict[str, list[tuple[float, float]]]] = {}
    for orderer_kind in orderers:
        panel: dict[str, list[tuple[float, float]]] = {}
        for name, policy in policies:
            panel[name] = _overlay_curve(orderer_kind, policy, grid, kind)
        overlays[orderer_kind] = panel
    return overlays


def _overlay_curve(orderer_kind: str, policy: str,
                   grid: typing.Sequence[float],
                   kind: str) -> list[tuple[float, float]]:
    from repro.analysis.phase_model import PhaseModel

    topology = make_topology(orderer_kind, policy, DEFAULT_PEERS)
    # Capacity is the saturation scale with traffic shares fixed, so any
    # probe rate yields the same number; compute it once per curve.
    capacity = PhaseModel(topology,
                          make_workload(grid[0] or 1.0)).predict().capacity
    points = []
    for rate in grid:
        if rate <= 0:
            continue
        if kind == "throughput":
            points.append((rate, min(rate, capacity)))
            continue
        prediction = PhaseModel(topology, make_workload(rate)).predict(
            with_capacity=False)
        if kind == "latency":
            value = prediction.latency.mean
        else:
            value = prediction.order.mean + prediction.validate.mean
        # The model predicts unbounded latency past saturation; ending
        # the curve at the knee is the honest rendering of that.
        if math.isfinite(value):
            points.append((rate, value))
    return points


#: Fig. 8 OSN counts; the paper scales up to 12.
OSN_GRIDS = {
    "quick": [1, 4, 12],
    "full": [1, 2, 4, 6, 8, 10, 12],
}


def run_fig8(mode: str = "quick", seed: int = 1,
             rate: float = 250.0) -> ExperimentResult:
    """Fig. 8: throughput/latency vs number of OSNs, Kafka and Raft.

    Paper finding reproduced: no significant change when scaling OSNs to 12
    or the ZooKeeper/broker cluster from 3 to 7 — ordering is not the
    bottleneck.
    """
    duration = DURATIONS[mode]
    rows = []
    for cluster in (3, 7):
        for orderer_kind in ("kafka", "raft"):
            for num_osns in OSN_GRIDS[mode]:
                topology = make_topology(
                    orderer_kind, OR_POLICY, DEFAULT_PEERS,
                    num_osns=num_osns, num_brokers=cluster,
                    num_zookeepers=cluster)
                metrics = run(Scenario(topology,
                                       make_workload(rate, duration),
                                       seed=seed)).metrics
                rows.append([orderer_kind, cluster, num_osns,
                             metrics.overall_throughput,
                             metrics.overall_latency])
    return ExperimentResult(
        experiment_id="fig8",
        title=f"Throughput/latency vs #OSNs at {rate:.0f} tps arrival "
              "(paper: flat in OSN count and in ZK/broker cluster size)",
        columns=["orderer", "zk_and_brokers", "num_osns", "throughput_tps",
                 "latency_s"],
        rows=rows)
