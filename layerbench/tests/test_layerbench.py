"""Tests of the benchmark itself, on short simulated horizons.

Run from the repository root::

    python3 -m pytest layerbench/tests -q
"""

from __future__ import annotations

import copy
import json
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

import outputs
import run
import speed
import tracing
import workloads

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SHORT = 2.0
SEED = 2


def _bench(workload: str, trace: int, seed: int = SEED) -> dict:
    done = subprocess.run(
        [sys.executable, "layerbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--sim-duration", str(SHORT)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    full = json.loads((run.OUT / f"{workload}-seed{seed}-trace{trace}.json")
                      .read_text(encoding="utf-8"))
    return {"last": last, "full": full, "stdout": done.stdout}


@pytest.fixture(scope="module")
def traced_runs():
    return {name: _bench(name, trace=1) for name in workloads.DURATIONS}


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(
        workloads.DURATIONS)


@pytest.mark.parametrize("workload", sorted(workloads.DURATIONS))
def test_short_run_prints_every_end_to_end_metric(workload):
    result = _bench(workload, trace=0)
    last = result["last"]
    assert last["correct"] and last["failed"] == 0
    assert last["attempted"] >= run.MIN_REPS
    for metric in SPEC["end_to_end"]:
        value = last["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert value["value"] > 0
    assert len(last["metrics"]) == len(SPEC["end_to_end"])
    manifest = result["full"]["manifest"]
    for key in ("cpu_model", "nproc", "python", "implementation", "gc",
                "git_revision", "seed"):
        assert manifest[key] not in (None, "")


def test_traced_run_prints_every_layer_metric(traced_runs):
    for result in traced_runs.values():
        last = result["last"]
        assert last["correct"], result["full"]["failures"]
        assert [m["name"] for m in SPEC["per_layer"]] == list(
            last["metrics"])
        for metric in SPEC["per_layer"]:
            assert (last["metrics"][metric["name"]]["unit"]
                    == metric["unit"])


def test_traced_run_is_schedule_neutral(traced_runs):
    # The run fails itself when the digested traced and untraced runs
    # disagree; here the proof is checked to have happened.
    for result in traced_runs.values():
        metrics = result["last"]["metrics"]
        assert len(result["full"]["detail"]["digest"]) == 64
        classes = sum(metrics[f"sim.events.{kind}"]["value"]
                      for kind in tracing.EVENT_CLASSES)
        assert classes == metrics["sim.events"]["value"]


def test_layer_table_separates_the_workloads(traced_runs):
    def value(workload, name):
        return traced_runs[workload]["last"]["metrics"][name]["value"]

    and5, conflict, population = ("and5-validate-bound",
                                  "conflict-kafka-couchdb",
                                  "population-scale")
    for name in ("msp.verify_per_tx", "chaincode.escc_calls"):
        assert value(and5, name) > max(value(conflict, name),
                                       value(population, name))
    assert value(conflict, "statedb.reads") > 0
    assert value(and5, "statedb.reads") == 0
    assert value(population, "statedb.reads") == 0
    assert value(conflict, "peer.valid_ratio") < 1.0
    assert value(population, "ledger.commit_block_calls") > 4 * max(
        value(and5, "ledger.commit_block_calls"),
        value(conflict, "ledger.commit_block_calls"))


def test_exact_counts_repeat_across_same_seed_runs(traced_runs):
    workload = "conflict-kafka-couchdb"
    again = _bench(workload, trace=1)["last"]["metrics"]
    first = traced_runs[workload]["last"]["metrics"]
    exact = [m["name"] for m in SPEC["per_layer"]
             if m["unit"] in ("count", "events/tx", "count/tx", "tx/block")
             or m["name"] in ("peer.valid_ratio", "statedb.cache_hit_ratio")]
    exact.remove("gc.collections")  # the collector's timing is the host's
    assert {name: first[name] for name in exact} == {
        name: again[name] for name in exact}


def _args(**overrides):
    parser_defaults = {"workload": "and5-validate-bound", "seed": SEED,
                       "seconds": 1.0, "trace": 0, "sim_duration": SHORT,
                       "record_expected": False}
    parser_defaults.update(overrides)
    return type("Args", (), parser_defaults)()


def test_a_corrupted_expected_value_fails_the_run():
    clean = run.Runner(_args())
    clean.rep("plain")
    assert clean.failed == 0
    corrupted = run.Runner(_args())
    corrupted.expected = copy.deepcopy(clean.first_outputs)
    corrupted.expected["phase"]["overall_latency_p99"] *= 1.0 + 1e-12
    corrupted.rep("plain")
    assert corrupted.failed == 1
    assert any("overall_latency_p99" in failure
               for failure in corrupted.failures)


def test_expected_outputs_cover_every_workload():
    expected = outputs.load_expected()
    assert sorted(expected) == sorted(workloads.DURATIONS)
    for entry in expected.values():
        assert entry["seed"] == workloads.DEFAULT_SEED
        counts = entry["outputs"]["counts"]
        assert counts["submitted"] == (counts["valid"] + counts["invalid"]
                                       + counts["rejected"]
                                       + counts["in_flight"])
    and5 = expected["and5-validate-bound"]["outputs"]["phase"]
    assert abs(and5["overall_throughput"] / outputs.PAPER_AND5_TPS - 1) < 0.05


def test_written_spans_give_the_online_self_times(tmp_path):
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        network = workloads.build("and5-validate-bound", SEED, 1.0)
        tracer.reset()
        network.run_workload()
    tracer.dump(tmp_path / "spans.bin")
    spans = tracing.load_spans(tmp_path / "spans.bin")
    assert len(spans["starts"]) == len(tracer.starts) > 0
    recomputed = tracing.self_times(spans)
    for name, (_, self_s) in tracer.totals().items():
        assert recomputed.get(name, 0.0) == pytest.approx(self_s, abs=1e-9)
    assert all(parent < index for index, parent
               in enumerate(spans["parents"]))


def test_instrument_restores_every_wrapped_call():
    before = [vars(owner)[attr] if isinstance(owner, type)
              else getattr(owner, attr)
              for _, owner, attr in tracing._targets()]
    with tracing.instrument(tracing.Tracer()):
        pass
    after = [vars(owner)[attr] if isinstance(owner, type)
             else getattr(owner, attr)
             for _, owner, attr in tracing._targets()]
    assert before == after


def test_generator_wrapper_forwards_sends_throws_and_returns():
    tracer = tracing.Tracer()
    sid = tracer.name_id("toy")

    def body(start):
        got = yield start
        try:
            yield got + 1
        except KeyError as error:
            return f"caught {error.args[0]}"

    wrapped = tracing._wrap_generator(tracer, sid, body)
    gen = wrapped(10)
    assert gen.__name__ == "body"
    assert gen.send(None) == 10
    assert gen.send(5) == 6
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("k"))
    assert stop.value.value == "caught k"
    assert tracer.calls[sid] == 1
    assert len(tracer.starts) == 3


def test_speed_probe_samples_only_while_active():
    probe = speed.SpeedProbe()
    with probe:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    samples = probe.samples
    assert samples >= 10
    assert probe.scale() == pytest.approx(
        speed.NOMINAL_S / (probe.seconds / samples))
    time.sleep(0.05)
    assert probe.samples == samples
    with pytest.raises(RuntimeError):
        speed.SpeedProbe().scale()


def test_benchmark_alone_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "layerbench", tmp_path / "layerbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "layerbench/run.py", "--workload",
         "and5-validate-bound", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
