"""The repository benchmark: end-to-end and per-layer metrics of one workload.

Usage (from the repository root)::

    python3 layerbench/run.py --workload and5-validate-bound --seed 1 \\
        --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics: untraced repetitions of the
workload, one fresh interpreter at a time, repeated until ``--seconds`` is
spent, each reported as a median over repetitions, with timings scaled to
the reference host speed (``speed.py``).  ``--trace 1`` gives the
per-layer metrics: it first proves the traced run schedule-neutral (a
digested untraced run and a digested traced run must agree on every
simulated output, the trace digest and the event count), then alternates
untraced and traced repetitions until ``--seconds`` is spent.

Every repetition's simulated outputs are checked: against each other
(same seed, same outputs), against ``expected.json`` on the default seed
at full size, and against the ledger and conservation invariants of
``outputs.run_checks``.  A repetition failing any check is a failed
operation.  The last line printed is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
with the host manifest, goes to ``layerbench/out/``.  ``--workload all``
runs every workload with ``--trace 0`` and then ``--trace 1``, one after
another, and prints every metric but no JSON line.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

import outputs
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Fewest repetitions a run makes, whatever ``--seconds`` says.
MIN_REPS = 3
#: A repetition that takes longer than this has hung.
REP_TIMEOUT_S = 150.0


def _spread(values) -> float:
    """Interquartile range over the median (0 for fewer than 2 values)."""
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision() -> str:
    """HEAD of the checkout's own ``.git``, or ``unknown`` outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(args) -> dict:
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_revision": _git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sim_duration": (args.sim_duration if args.sim_duration is not None
                         else workloads.DURATIONS[args.workload]),
        "started_at": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
    }


class Runner:
    """Starts repetitions one at a time and checks what they report."""

    def __init__(self, args) -> None:
        self.args = args
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.first_outputs: dict | None = None
        #: The GC mode the repetitions ran under, for the manifest.
        self.gc_mode: dict | None = None
        self.expected = None
        self.started = time.perf_counter()
        if (args.seed == workloads.DEFAULT_SEED
                and args.sim_duration is None and not args.record_expected):
            self.expected = outputs.load_expected()[args.workload]["outputs"]

    def rep(self, mode: str, spans_out: pathlib.Path | None = None) -> dict:
        """One repetition; a checked one when it ran the workload."""
        command = [sys.executable, str(HERE / "rep.py"),
                   "--workload", self.args.workload,
                   "--seed", str(self.args.seed), "--mode", mode]
        if self.args.sim_duration is not None:
            command += ["--sim-duration", str(self.args.sim_duration)]
        if spans_out is not None:
            command += ["--spans-out", str(spans_out)]
        try:
            done = subprocess.run(command, capture_output=True, text=True,
                                  timeout=REP_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired:
            return self._fail(mode, f"{mode} repetition timed out")
        if done.returncode != 0:
            return self._fail(mode, f"{mode} repetition exited "
                              f"{done.returncode}: {done.stderr[-2000:]}")
        result = json.loads(done.stdout.splitlines()[-1])
        if mode == "setup":
            return result
        self.attempted += 1
        problems = list(result["failures"])
        if self.first_outputs is None:
            self.first_outputs = result["outputs"]
            self.gc_mode = result["gc"]
            if self.expected is not None:
                problems += ["expected.json: " + diff for diff in
                             outputs.compare(self.expected, self.first_outputs)]
        else:
            problems += ["differs from the first repetition: " + diff
                         for diff in outputs.compare(self.first_outputs,
                                                     result["outputs"])]
        if "event_classes" in result:
            classes = sum(result["event_classes"].values())
            if classes != result["events"]:
                problems.append(f"event classes sum to {classes}, "
                                f"not {result['events']} events")
        if problems:
            self.failed += 1
            self.failures += [f"{mode}: {problem}" for problem in problems]
        return result

    def _fail(self, mode: str, reason: str) -> dict:
        if mode != "setup":
            self.attempted += 1
            self.failed += 1
        self.failures.append(reason)
        return {}

    def repeat(self, groups: list[list[str]], spans_out=None) -> list[dict]:
        """Run each group of modes in turn until ``--seconds`` is spent.

        Groups repeat at least ``MIN_REPS`` times (once when tracing) and
        stop early only when another would overrun the time since the run
        started.
        """
        runs: list[dict] = []
        minimum = 1 if self.args.trace else MIN_REPS
        count = 0
        while True:
            started = time.perf_counter()
            for mode in groups[count % len(groups)]:
                runs.append(self.rep(mode, spans_out if mode == "traced"
                                     else None))
            count += 1
            now = time.perf_counter()
            if (count >= minimum and now - self.started
                    + (now - started) > self.args.seconds):
                return runs


def end_to_end(runner: Runner) -> tuple[dict, dict]:
    """Untraced repetitions, with two setup probes after each.

    Timings are the repetitions' host seconds scaled to the reference
    host speed (``speed.py``); the raw host seconds go to the detail.
    """
    runs = runner.repeat([["plain", "setup", "setup"]])
    plain = [run for run in runs if run.get("mode") == "plain"]
    if not plain:
        return {}, {}
    counts = runner.first_outputs["counts"]
    committed = counts["valid"] + counts["invalid"]
    samples = {
        "wall_s": [run["scaled"]["wall_s"] for run in plain],
        "cpu_s": [run["scaled"]["cpu_s"] for run in plain],
        "sim_tx_per_host_s": [committed / run["scaled"]["wall_s"]
                              for run in plain],
        "setup_s": [run["scaled"]["setup_s"] for run in runs if run],
        "peak_rss_mb": [run["peak_rss_mb"] for run in plain],
    }
    raw = {"wall_s": [run["wall_s"] for run in plain],
           "setup_s": [run["setup_s"] for run in runs if run],
           "probe_mean_s": [run["probe"]["mean_s"] for run in plain]}
    metrics = {name: statistics.median(values)
               for name, values in samples.items()}
    detail = {"samples": samples, "raw_host": raw,
              "spread": {name: _spread(values)
                         for name, values in samples.items()},
              "events": plain[0]["events"]}
    return metrics, detail


#: Spans reported as a ``<name>_calls`` and ``<name>_s`` (self seconds) pair.
PAIRED_SPANS = (
    "sim.network.send", "client.invoke", "peer.endorse", "peer.vscc",
    "peer.mvcc", "peer.gossip", "chaincode.invoke", "chaincode.escc",
    "msp.verify", "crypto.sign", "crypto.verify", "ledger.commit_block",
    "statedb.get", "statedb.commit_batch",
)


def per_layer(runner: Runner) -> tuple[dict, dict]:
    """The schedule-neutrality proof, then timed plain/traced pairs."""
    proof = [runner.rep("digest"), runner.rep("digest-traced")]
    detail: dict = {}
    if all(proof):
        untraced, traced = proof
        detail["digest"] = untraced["digest"]
        if traced["digest"] != untraced["digest"]:
            runner.failed += 1
            runner.failures.append(
                f"traced digest {traced['digest']} != untraced "
                f"{untraced['digest']}")
        if traced["events"] != untraced["events"]:
            runner.failed += 1
            runner.failures.append("traced run popped a different number "
                                   "of events")
    OUT.mkdir(exist_ok=True)
    spans_out = OUT / (f"spans-{runner.args.workload}-seed"
                       f"{runner.args.seed}.bin")
    runs = runner.repeat([["plain", "traced"], ["traced", "plain"]],
                         spans_out=spans_out)
    plain = [run for run in runs if run.get("mode") == "plain"]
    traced = [run for run in runs if run.get("mode") == "traced"]
    if not plain or not traced or runner.first_outputs is None:
        return {}, detail
    first = traced[0]

    def exact_counts(run):
        # GC collections are left out: they follow the host's allocator.
        return run["event_classes"], {
            name: span["calls"] for name, span in run["spans"].items()
            if name != "gc"}

    for run in traced[1:] + proof[1:]:
        if run and exact_counts(run) != exact_counts(first):
            runner.failed += 1
            runner.failures.append("traced repetitions disagree on a count")

    def self_s(name):
        return statistics.median(
            [run["spans"][name]["self_s"] for run in traced])

    def calls(name):
        return first["spans"][name]["calls"]

    counts = runner.first_outputs["counts"]
    committed = counts["valid"] + counts["invalid"]
    statedb = first["statedb"]
    lookups = statedb["cache_hits"] + statedb["cache_misses"]
    traced_wall = statistics.median([run["wall_s"] for run in traced])
    # Untraced repetitions carry the speed probe; its time is left out.
    plain_wall = statistics.median(
        [run["wall_s"] - run["probe"]["run_s"] for run in plain])
    metrics = {
        "sim.events": first["events"],
        "sim.events_per_tx": first["events"] / committed,
        "sim.events_per_s": first["events"] / plain_wall,
        # Traced wall minus every span's self time (GC included): the
        # kernel plus process-body code that no traced call covers.
        "sim.self_s": statistics.median([
            run["wall_s"] - sum(span["self_s"]
                                for span in run["spans"].values())
            for run in traced]),
        "peer.valid_ratio": counts["valid"] / committed,
        "msp.verify_per_tx": calls("msp.verify") / counts["submitted"],
        "orderer.blocks": runner.first_outputs["blocks"],
        "orderer.tx_per_block": (runner.first_outputs["ordered_tx"]
                                 / runner.first_outputs["blocks"]),
        "orderer.cutter_s": self_s("orderer.cutter"),
        "statedb.reads": statedb["reads"],
        "statedb.writes": statedb["writes"],
        "statedb.cache_hit_ratio": (statedb["cache_hits"] / lookups
                                    if lookups else 0.0),
        "metrics.record_s": self_s("metrics.record"),
        "metrics.aggregate_s": self_s("metrics.aggregate"),
        "gc.pause_s": self_s("gc"),
        "gc.collections": statistics.median(
            [run["spans"]["gc"]["calls"] for run in traced]),
        "gc.share": statistics.median(
            [run["spans"]["gc"]["self_s"] / run["wall_s"]
             for run in traced]),
        "trace.overhead_frac": traced_wall / plain_wall - 1.0,
    }
    for kind, count in first["event_classes"].items():
        metrics[f"sim.events.{kind}"] = count
    for span in PAIRED_SPANS:
        metrics[f"{span}_calls"] = calls(span)
        metrics[f"{span}_s"] = self_s(span)
    detail.update({"span_count": first["span_count"],
                   "spans_file": str(spans_out.relative_to(ROOT)),
                   "plain_wall_s": [run["wall_s"] for run in plain],
                   "traced_wall_s": [run["wall_s"] for run in traced]})
    return metrics, detail


def report_lines(workload: str, result: dict) -> list[str]:
    """Human-readable report: manifest, metrics, simulated outputs."""
    lines = [f"manifest: {json.dumps(result['manifest'], sort_keys=True)}"]
    spread = result["detail"].get("spread", {})
    for name, metric in result["metrics"].items():
        extra = (f"  (IQR/median {spread[name]:.3f}, "
                 f"n={len(result['detail']['samples'][name])})"
                 if name in spread else "")
        lines.append(f"{name:<32} {metric['value']:>14.6g} "
                     f"{metric['unit']}{extra}")
    simulated = result.get("outputs")
    if simulated:
        phase = simulated["phase"]
        lines.append(
            f"sim_tps {phase['overall_throughput']:.2f}  latency p50/p95/p99 "
            f"{phase['overall_latency_p50']:.4f}/"
            f"{phase['overall_latency_p95']:.4f}/"
            f"{phase['overall_latency_p99']:.4f} s  blocks "
            f"{simulated['blocks']}")
        lines.append("phases (tps / s): " + "  ".join(
            f"{p} {phase[p + '_throughput']:.1f} / "
            f"{phase[p + '_latency']:.4f}"
            for p in ("execute", "order", "validate")))
        lines.append("outcomes: " + json.dumps(simulated["counts"]))
        if workload == "and5-validate-bound":
            error = (phase["overall_throughput"] / outputs.PAPER_AND5_TPS
                     - 1.0)
            lines.append(f"sim_tps vs paper Table II AND5 "
                         f"{outputs.PAPER_AND5_TPS:.0f} tps: "
                         f"{error:+.2%}")
    if "digest" in result["detail"]:
        lines.append(f"trace digest (information only): "
                     f"{result['detail']['digest']}")
    lines += [f"FAILED CHECK: {failure}" for failure in result["failures"]]
    return lines


def run_workload(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    runner = Runner(args)
    # Compiles bytecode caches before anything is timed.
    runner.rep("setup")
    measure = per_layer if args.trace else end_to_end
    values, detail = measure(runner)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not runner.failed:
        runner.failed += 1
        runner.failures.append(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    correct = runner.failed == 0 and runner.attempted > 0
    result = {"manifest": dict(manifest(args), gc=runner.gc_mode),
              "correct": correct,
              "attempted": runner.attempted, "failed": runner.failed,
              "metrics": metrics, "outputs": runner.first_outputs,
              "detail": detail, "failures": runner.failures}
    if args.record_expected and correct:
        expected = outputs.load_expected()
        expected[args.workload] = {
            "seed": args.seed, "outputs": runner.first_outputs,
            "information_only": {"events": values.get("sim.events"),
                                 "digest": detail.get("digest")}}
        outputs.EXPECTED_FILE.write_text(
            json.dumps(expected, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.DURATIONS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sim-duration", type=float, default=None,
                        help="simulated load seconds (short-horizon "
                        "smoke runs; skips the expected-output check)")
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite this workload's entry of "
                        "expected.json (needs --trace 1 at full size)")
    args = parser.parse_args(argv)
    if args.record_expected and (not args.trace
                                 or args.sim_duration is not None):
        parser.error("--record-expected needs --trace 1 at full size")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    one = args.workload != "all"
    names = [args.workload] if one else sorted(workloads.DURATIONS)
    correct = True
    for name in names:
        for trace in ([args.trace] if one else [0, 1]):
            args.workload, args.trace = name, trace
            result = run_workload(args)
            print(f"== {name} (trace {trace}) ==")
            print("\n".join(report_lines(name, result)), flush=True)
            correct = correct and result["correct"]
    if one:
        print(json.dumps({key: result[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
