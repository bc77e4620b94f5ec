"""Tests for the multiprocess scenario farm.

The farm's contract is that ``--jobs N`` is invisible in the results:
same values, same order, loud failures.  The determinism half is proved
at two levels — ``run_farm`` itself on cheap synthetic tasks across real
process pools, and the full ``repro crossval`` report byte-identical
between ``--jobs 4`` and the inline path (crossval carries no wall-clock
fields, so *byte* equality is meaningful there; perfbench is compared on
its golden records).
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.farm import FarmError, run_farm

# ----------------------------------------------------------------------
# run_farm unit level (workers must be module-level for pickling)
# ----------------------------------------------------------------------


def _square(task: int) -> int:
    return task * task


def _fail_on_three(task: int) -> int:
    if task == 3:
        raise ValueError(f"task {task} exploded")
    return task


def _die_on_three(task: int) -> int:
    if task == 3:
        import os

        os._exit(17)  # simulate a hard child death (no traceback possible)
    return task


def test_inline_and_pooled_results_identical() -> None:
    tasks = list(range(12))
    inline = run_farm(_square, tasks, jobs=1)
    pooled = run_farm(_square, tasks, jobs=4)
    assert inline == pooled == [t * t for t in tasks]


def test_results_come_back_in_task_order_not_completion_order() -> None:
    # Descending workloads finish out of submission order in a pool; the
    # farm must still return submission order.
    tasks = [40, 1, 30, 2, 20, 3]
    assert run_farm(_square, tasks, jobs=3) == [t * t for t in tasks]


def test_failed_task_raises_farm_error_naming_the_task() -> None:
    with pytest.raises(FarmError) as excinfo:
        run_farm(_fail_on_three, [1, 2, 3, 4], jobs=2,
                 labels=["a", "b", "crashing-scenario", "d"])
    assert excinfo.value.label == "crashing-scenario"
    assert "ValueError" in excinfo.value.detail
    assert "exploded" in excinfo.value.detail


def test_failed_task_raises_farm_error_inline_too() -> None:
    with pytest.raises(FarmError) as excinfo:
        run_farm(_fail_on_three, [1, 3], jobs=1, labels=["ok", "bad"])
    assert excinfo.value.label == "bad"
    assert "exploded" in excinfo.value.detail


def test_child_process_death_is_reported_not_swallowed() -> None:
    # A child that dies without returning (os._exit) breaks the pool; the
    # farm must still surface a FarmError instead of hanging or returning
    # a partial result list.
    with pytest.raises(FarmError):
        run_farm(_die_on_three, [1, 2, 3, 4], jobs=2)


def test_default_labels_are_task_reprs() -> None:
    with pytest.raises(FarmError) as excinfo:
        run_farm(_fail_on_three, [3], jobs=1)
    assert excinfo.value.label == "3"


def test_label_count_mismatch_rejected() -> None:
    with pytest.raises(ValueError, match="labels"):
        run_farm(_square, [1, 2], jobs=1, labels=["only-one"])


# ----------------------------------------------------------------------
# Experiment level: the real matrices across --jobs widths
# ----------------------------------------------------------------------


def test_crossval_report_byte_identical_across_jobs() -> None:
    from repro.experiments.crossval import run_crossval
    from repro.experiments.perfbench import SMOKE_SCENARIOS

    names = list(SMOKE_SCENARIOS)[:3]
    inline = run_crossval(names, scale="smoke", jobs=1)
    farmed = run_crossval(names, scale="smoke", jobs=4)
    inline_json = json.dumps(inline.as_dict(), indent=2, sort_keys=True)
    farmed_json = json.dumps(farmed.as_dict(), indent=2, sort_keys=True)
    assert inline_json == farmed_json


def test_perfbench_deterministic_fields_identical_across_jobs() -> None:
    from repro.experiments.perfbench import run_perfbench

    names = ["solo-and-leveldb", "raft-and-leveldb"]
    inline = run_perfbench(names, scale="smoke", jobs=1)
    farmed = run_perfbench(names, scale="smoke", jobs=2)

    def deterministic(report):
        return [(r.scenario, r.scale, r.seed, r.record)
                for r in report.results]

    assert deterministic(inline) == deterministic(farmed)


def test_scale_sweep_metrics_identical_across_jobs() -> None:
    from repro.experiments.scale import run_scale_sweep

    inline = run_scale_sweep(mode="smoke", jobs=1, observe=False)
    farmed = run_scale_sweep(mode="smoke", jobs=2, observe=False)

    def deterministic(sweep):
        return [{k: v for k, v in point.as_dict().items() if k != "wall_s"}
                for point in sweep.points]

    assert deterministic(inline) == deterministic(farmed)


def test_perfbench_worker_failure_names_the_scenario() -> None:
    # A worker task naming an unknown scenario raises inside the worker;
    # the farm's error must name the task, not swallow it.
    from repro.experiments import perfbench

    with pytest.raises(FarmError) as excinfo:
        run_farm(perfbench._scenario_worker,
                 [("definitely-not-a-scenario", 1, "smoke")],
                 jobs=1, labels=["definitely-not-a-scenario"])
    assert excinfo.value.label == "definitely-not-a-scenario"
    assert "KeyError" in excinfo.value.detail


def test_cli_perfbench_exits_nonzero_and_names_crashed_scenario(
        monkeypatch, capsys):
    # A scenario whose worker crashes mid-run (not a validation error:
    # the name is known) must fail the CLI loudly, naming the scenario.
    # Fork-start children inherit the monkeypatched module state, so the
    # bomb detonates inside a real pool worker.
    from repro.experiments import perfbench
    from repro.experiments.cli import main

    real_run_scenario = perfbench.run_scenario

    def bomb(name, seed=perfbench.GOLDEN_SEED, scale="full"):
        if name == "raft-and-leveldb":
            raise RuntimeError("simulated scenario crash")
        return real_run_scenario(name, seed=seed, scale=scale)

    monkeypatch.setattr(perfbench, "run_scenario", bomb)
    code = main(["perfbench", "--smoke", "--jobs", "2",
                 "--scenario", "solo-and-leveldb",
                 "--scenario", "raft-and-leveldb"])
    captured = capsys.readouterr()
    assert code == 1
    assert "raft-and-leveldb" in captured.err
    assert "simulated scenario crash" in captured.err
