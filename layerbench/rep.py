"""One benchmark repetition in a fresh interpreter; prints one JSON line.

``run.py`` starts this script once per repetition, one at a time, so every
repetition pays (and measures) importing ``repro`` and building the
network, and reports the peak resident memory of its own process.

Modes:

- ``setup``: import and construct only;
- ``plain``: the untraced run the end-to-end metrics come from;
- ``traced``: spans around every layer's public calls, event classes
  counted through ``Simulation.set_trace`` and GC pauses timed;
- ``digest`` / ``digest-traced``: ``plain`` / ``traced`` with a
  :class:`~repro.sim.sanitizer.TraceDigest` also watching the schedule
  (slower, so never timed).

``setup`` and ``plain`` also report their timings scaled to the
reference host speed by a :class:`~speed.SpeedProbe` that samples the
host while they run; the other modes run without it.

Usage::

    python3 layerbench/rep.py --workload NAME --seed N --mode MODE
        [--sim-duration S] [--spans-out PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import pathlib
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MODES = ("setup", "plain", "traced", "digest", "digest-traced")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument("--sim-duration", type=float, default=None)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import workloads

    traced = args.mode in ("traced", "digest-traced")
    with contextlib.ExitStack() as stack:
        tracer = counter = digest = probe = None
        if args.mode in ("setup", "plain"):
            import speed
            probe = stack.enter_context(speed.SpeedProbe())
        if traced:
            # Wrappers go in before the build, so no object keeps an
            # unwrapped bound method; build-time spans are dropped below.
            import tracing
            tracer = stack.enter_context(tracing.instrument(tracing.Tracer()))
            counter = tracing.EventClassCounter()
            stack.enter_context(counter.watch_stores())
        started = time.perf_counter()
        network = workloads.build(args.workload, args.seed,
                                  args.sim_duration)
        setup_s = time.perf_counter() - started
        setup_probe_s = probe.lap() if probe else 0.0
        import repro
        if not pathlib.Path(repro.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"imported repro from {repro.__file__}, "
                             f"not from {SRC}")
        result: dict = {"mode": args.mode, "setup_s": setup_s}
        if args.mode == "setup":
            result["scaled"] = {
                "setup_s": (setup_s - setup_probe_s) * probe.scale()}
            print(json.dumps(result))
            return 0
        if args.mode.startswith("digest"):
            from repro.sim.sanitizer import TraceDigest
            digest = TraceDigest(network.sim, keep_records=False)
        hook = digest
        if traced:
            counter.forward = digest
            hook = counter
            tracer.reset()
        if hook is not None:
            network.sim.set_trace(hook)
        started_cpu = time.process_time()
        started = time.perf_counter()
        phase_metrics = network.run_workload()
        wall_s = time.perf_counter() - started
        cpu_s = time.process_time() - started_cpu
        network.sim.set_trace(None)
        if probe is not None:
            run_probe_s = probe.lap()
            scale = probe.scale()
            result["scaled"] = {
                "setup_s": (setup_s - setup_probe_s) * scale,
                "wall_s": (wall_s - run_probe_s) * scale,
                "cpu_s": (cpu_s - run_probe_s) * scale,
            }
            result["probe"] = {"samples": probe.samples,
                               "mean_s": probe.seconds / probe.samples,
                               "run_s": run_probe_s}

    import outputs
    simulated = outputs.simulated_outputs(network, phase_metrics)
    result.update({
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "events": network.sim.events_processed,
        "outputs": simulated,
        "failures": outputs.run_checks(network, simulated),
        "statedb": network.statedb_counters(),
        "gc": {"enabled": gc.isenabled(), "threshold": gc.get_threshold()},
    })
    if digest is not None:
        result["digest"] = digest.hexdigest
    if traced:
        result["event_classes"] = counter.counts
        result["spans"] = {name: {"calls": calls, "self_s": self_s}
                           for name, (calls, self_s)
                           in tracer.totals().items()}
        result["span_count"] = len(tracer.starts)
        if args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
