"""Regeneration of every table and figure in the paper's evaluation (§IV).

Each experiment function returns an :class:`~repro.experiments.report.ExperimentResult`
carrying the regenerated rows/series next to the paper's reported values, so
the comparison the paper invites ("who wins, by what factor, where do the
knees fall") is printed directly.  Every simulated point is a
:class:`~repro.fabric.run.Scenario` built from :func:`make_topology` and
:func:`make_workload` and handed to :func:`repro.fabric.run.run`.

| id   | paper artifact                                         |
|------|--------------------------------------------------------|
| tab1 | Table I  experimental configuration                    |
| fig2 | Fig. 2   overall throughput vs arrival rate            |
| fig3 | Fig. 3   overall latency vs arrival rate               |
| fig4 | Fig. 4   per-phase throughput under OR                 |
| fig5 | Fig. 5   per-phase throughput under AND                |
| fig6 | Fig. 6   per-phase latency under OR                    |
| fig7 | Fig. 7   per-phase latency under AND                   |
| tab2 | Table II throughput vs number of endorsing peers       |
| tab3 | Table III latency vs number of endorsing peers         |
| fig8 | Fig. 8   throughput/latency vs number of OSNs          |
"""

from repro.experiments.figures import (
    run_fig2_fig3,
    run_fig4_fig5,
    run_fig6_fig7,
    run_fig8,
)
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import make_topology, make_workload, search_peak
from repro.experiments.tables import run_table1, run_table2_table3

__all__ = [
    "ExperimentResult",
    "make_topology",
    "make_workload",
    "run_fig2_fig3",
    "run_fig4_fig5",
    "run_fig6_fig7",
    "run_fig8",
    "run_table1",
    "run_table2_table3",
    "search_peak",
]
