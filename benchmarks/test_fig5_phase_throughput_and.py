"""Fig. 5: per-phase throughput under the AND5 endorsement policy.

Paper findings checked:
1. the validate phase is limited to ~200 tps under AND5;
2. throughput scalability under AND is worse than OR (the execute phase is
   bounded by the target peers endorsing every transaction);
3. linear growth below the peak.
"""

from benchmarks.conftest import run_once
from repro.experiments.figures import run_fig4_fig5


def test_fig5_phase_throughput_and(benchmark, show, mode):
    _fig4, fig5 = run_once(benchmark, run_fig4_fig5, mode=mode)
    show(fig5)

    by_orderer = {}
    for orderer, rate, execute, order, validate in fig5.rows:
        by_orderer.setdefault(orderer, []).append(
            (rate, execute, order, validate))

    for orderer, points in by_orderer.items():
        points.sort()
        validate_peak = max(p[3] for p in points)
        # Finding 1: the validate phase peaks around 200 tps.
        assert 180 <= validate_peak <= 240, (orderer, validate_peak)
        # Finding 3: linear below the peak.
        for rate, execute, order, validate in points:
            if rate <= 150:
                assert validate >= 0.85 * rate, orderer


def test_and_peak_below_or_peak(benchmark, mode):
    # Finding 2, checked across both figures in one cheap comparison.
    from repro.experiments.runner import make_topology, make_workload
    from repro.fabric.run import Scenario, run

    duration = 10.0 if mode == "quick" else 25.0

    def validate_throughput(policy):
        scenario = Scenario(make_topology("solo", policy, 10),
                            make_workload(350, duration), seed=1)
        return run(scenario).metrics.validate_throughput

    or_validate = validate_throughput("OR10")
    and_validate = validate_throughput("AND5")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert and_validate < or_validate
