"""Command-line entry point: regenerate any (or all) paper artifacts.

Usage::

    fabric-repro tab1
    fabric-repro fig2 --full
    fabric-repro all --seed 7
    repro lint
    repro check-determinism            # solo + kafka + raft double runs
    repro check-determinism --orderer raft --rate 30 --duration 2
    repro faults --smoke               # single run of every fault scenario
    repro faults --scenario raft-leader-kill   # double run + criteria
    repro statedb                      # state-DB backend ablation (Thakkar)
    repro check-determinism --orderer solo --statedb couchdb
    repro perfbench                    # golden records, all scenarios
    repro perfbench --smoke --check-golden  # CI gate: exact digest + events
    repro trace --summary-out trace_summary.json  # critical-path + queueing
    repro obs-diff --baseline base.json --candidate trace_summary.json
    repro crossval --smoke --out crossval.json  # analytic model vs sim gate
    repro capacity --target-tps 300 --max-p95 2.0 --policy AND5 --json

Each command is its own subparser and accepts only the flags it reads;
``repro COMMAND --help`` lists them.  (``repro`` and ``fabric-repro`` are
the same entry point.)
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import typing

from repro.experiments import perfbench
from repro.experiments.determinism import CHECK_DURATION, CHECK_RATE
from repro.experiments.faults import SCENARIOS as FAULT_SCENARIOS
from repro.experiments.figures import (
    run_fig2_fig3,
    run_fig4_fig5,
    run_fig6_fig7,
    run_fig8,
)
from repro.experiments.tables import run_table1, run_table2_table3

EXPERIMENT_IDS = ["tab1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                  "tab2", "tab3", "fig8"]

ORDERERS = ["solo", "kafka", "raft"]


def _run_trace(args) -> int:
    """The ``trace`` subcommand: one observed run, bottleneck report,
    critical-path attribution, and the queueing observatory."""
    from repro.experiments.report import bottleneck_result
    from repro.experiments.runner import (
        DEFAULT_PEERS,
        make_topology,
        make_workload,
    )
    from repro.fabric.run import Scenario, run
    from repro.obs.critical_path import render_summary
    from repro.obs.queueing import render_queueing_report

    point = run(Scenario(
        make_topology(args.orderer, args.policy, DEFAULT_PEERS),
        make_workload(args.rate, args.duration), seed=args.seed,
        observe=True))
    network = point.network
    title = (f"Bottleneck attribution ({args.orderer}, {args.policy}, "
             f"{args.rate:g} tx/s)")
    result = bottleneck_result(network.bottleneck_report(), title=title,
                               top=args.top)
    print(result.render())
    print()
    summary = network.critical_path_report()
    print(render_summary(summary))
    print()
    queueing = network.queueing_report()
    print(render_queueing_report(queueing, top=args.top))
    print()
    print(f"throughput: {point.metrics.overall_throughput:.1f} tx/s "
          f"committed (offered {args.rate:g} tx/s)")
    if args.trace_out:
        network.obs.write_chrome_trace(args.trace_out)
        print(f"chrome trace written to {args.trace_out} "
              f"(open in https://ui.perfetto.dev)")
    if args.summary_out:
        scenario = f"{args.orderer}-{args.policy}-{args.rate:g}tps"
        data = network.trace_summary(scenario=scenario,
                                     phase_metrics=point.metrics)
        with open(args.summary_out, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
        print(f"trace summary written to {args.summary_out}")
    if not queueing.little_ok:
        names = ", ".join(s.name for s in queueing.violations)
        print(f"trace: Little's-law check FAILED for {names}")
        return 1
    return 0


def _run_obs_diff(args) -> int:
    """The ``obs-diff`` subcommand: diff two trace summaries."""
    from repro.obs.regression import diff_files, render_diff

    result = diff_files(args.baseline, args.candidate,
                        tolerance=args.tolerance)
    if args.json:
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
    else:
        print(render_diff(result, verbose=args.verbose))
    return 0 if result.ok else 1


def _run_lint(args) -> int:
    """The ``lint`` subcommand: simlint over the simulator source tree.

    Without ``--path``, sweeps the installed package with the strict
    profile plus ``tests/`` and ``benchmarks/`` with the relaxed one.
    Exit status: 0 when clean — or, with ``--baseline``, when no *new*
    error-severity findings appeared beyond the accepted baseline.
    """
    from repro.analysis_tools.simlint import output as lint_output
    from repro.analysis_tools.simlint.engine import LintResult
    from repro.analysis_tools.simlint.profiles import linter_for, rules_for

    if args.paths:
        runs = [(args.profile, list(args.paths))]
    else:
        runs = [("strict", [_default_lint_root()])]
        repo_root = pathlib.Path(_default_lint_root()).parent.parent
        for extra in ("tests", "benchmarks"):
            tree = repo_root / extra
            if tree.is_dir():
                runs.append(("relaxed", [str(tree)]))

    diagnostics = []
    files_checked = 0
    suppressed = 0
    for profile, paths in runs:
        linter = linter_for(profile, project=args.project)
        partial = linter.lint_paths(paths, project=args.project)
        diagnostics.extend(partial.diagnostics)
        files_checked += partial.files_checked
        suppressed += partial.suppressed
    diagnostics.sort(key=lambda d: (d.path, d.line, d.column, d.rule))
    result = LintResult(diagnostics=diagnostics,
                        files_checked=files_checked,
                        suppressed=suppressed)

    if args.write_baseline:
        data = lint_output.write_baseline(result, args.write_baseline)
        print(f"simlint: baseline with {len(data['fingerprints'])} "
              f"fingerprint(s) written to {args.write_baseline}")
        return 0

    baseline = (lint_output.load_baseline(args.baseline)
                if args.baseline else None)
    fresh = (lint_output.new_errors(result, baseline)
             if baseline is not None else None)

    if args.format == "text":
        report = result.render()
        if fresh is not None:
            report += (f"\nsimlint: {len(fresh)} new error(s) vs baseline "
                       f"{args.baseline}")
    else:
        if args.format == "sarif":
            payload = lint_output.to_sarif(
                result, rules_for("strict", project=True))
        else:
            payload = lint_output.to_json(result)
            if fresh is not None:
                payload["new_errors"] = [
                    lint_output.diagnostic_dict(d) for d in fresh]
        report = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        pathlib.Path(args.out).write_text(report + "\n", encoding="utf-8")
        print(f"simlint: report written to {args.out}")
    else:
        print(report)

    if fresh is not None:
        return 0 if not fresh else 1
    return 0 if result.ok else 1


def _default_lint_root() -> str:
    """The installed ``repro`` package directory (works from any cwd)."""
    return str(pathlib.Path(__file__).resolve().parent.parent)


def _run_check_determinism(args) -> int:
    """The ``check-determinism`` subcommand: same-seed double runs."""
    from repro.common.config import StateDBConfig
    from repro.experiments.determinism import check_point_determinism

    kinds = ORDERERS if args.orderer is None else [args.orderer]
    statedb = None
    workload_kind = "unique"
    if args.statedb == "couchdb":
        # Exercise every statedb feature at once: the CouchDB cost model,
        # the read cache, bulk batching, and periodic snapshots, on the
        # read-write workload that keeps the read path hot.
        statedb = StateDBConfig(kind="couchdb", cache=True, bulk=True,
                                snapshot_interval=3)
        workload_kind = "conflict"
    elif args.statedb == "leveldb":
        statedb = StateDBConfig(kind="leveldb")
    failures = 0
    for kind in kinds:
        check = check_point_determinism(
            kind, rate=args.rate, duration=args.duration, seed=args.seed,
            keep_records=not args.digest_only, statedb=statedb,
            workload_kind=workload_kind)
        print(check.render())
        print()
        if not check.ok:
            failures += 1
    if failures:
        print(f"check-determinism: {failures}/{len(kinds)} "
              f"configuration(s) NON-DETERMINISTIC")
        return 1
    print(f"check-determinism: all {len(kinds)} configuration(s) "
          f"reproducible (byte-identical schedules and metrics)")
    return 0


def _run_faults(args) -> int:
    """The ``faults`` subcommand: fault scenarios + recovery criteria.

    Default (and ``--scenario``): same-seed double run per scenario, so a
    failure is either a broken recovery criterion or non-determinism.
    ``--smoke`` runs each scenario once (faster; CI gate).
    """
    from repro.experiments.faults import (
        SCENARIOS,
        check_scenario_determinism,
        run_fault_scenario,
    )

    names = [args.scenario] if args.scenario else sorted(SCENARIOS)
    failures = 0
    for name in names:
        if args.smoke:
            result = run_fault_scenario(name, seed=args.seed)
            print(result.render())
            print()
            if not result.ok:
                failures += 1
            continue
        check = check_scenario_determinism(
            name, seed=args.seed, keep_records=not args.digest_only)
        print(check.result.render())
        print(check.render())
        print()
        if not (check.ok and check.result.ok):
            failures += 1
    if failures:
        print(f"faults: {failures}/{len(names)} scenario(s) FAILED")
        return 1
    print(f"faults: all {len(names)} scenario(s) passed")
    return 0


def _run_statedb(args) -> int:
    """The ``statedb`` subcommand: backend ablation + attribution check.

    Exits non-zero when the Thakkar ordering (LevelDB > CouchDB+cache+bulk
    > plain CouchDB) or the CouchDB bottleneck attribution does not hold.
    """
    from repro.experiments.statedb import run_statedb_ablation

    mode = "full" if args.full else "quick"
    ablation = run_statedb_ablation(mode=mode, seed=args.seed)
    print(ablation.result.render())
    return 0 if ablation.ok else 1


def _run_scale(args) -> int:
    """The ``scale`` subcommand: peers x channels x population sweeps.

    With explicit ``--peers``/``--channels``/``--users``, runs a single
    point (and prints its per-cohort breakdown); otherwise runs the full
    or ``--smoke`` sweep grid.  Exits non-zero when a point commits
    nothing, builds more clients than cohorts, or loses a cohort's
    metrics — the O(cohorts) contract the subsystem guarantees.
    """
    from repro.experiments.farm import FarmError
    from repro.experiments.scale import (
        ScaleSweep,
        run_scale_point,
        run_scale_sweep,
    )

    single = (args.peers is not None or args.channels is not None
              or args.users is not None)
    if single:
        point = run_scale_point(
            peers=args.peers if args.peers is not None else 100,
            channels=args.channels if args.channels is not None else 4,
            users=args.users if args.users is not None else 1_000_000,
            rate=args.rate,
            duration=args.duration,
            cohorts_per_channel=args.cohorts,
            seed=args.seed)
        sweep = ScaleSweep(points=[point], mode="point", seed=args.seed)
        print(sweep.render())
        print()
        print(f"{'cohort':<10} {'channel':<8} {'tps':>7}  {'lat_s':>6}")
        for name in sorted(point.per_cohort):
            metrics = point.per_cohort[name]
            channel = point.cohort_channels.get(name, "")
            print(f"{name:<10} {channel:<8} "
                  f"{metrics.overall_throughput:>7.1f}  "
                  f"{metrics.overall_latency:>6.3f}")
    else:
        try:
            sweep = run_scale_sweep(
                mode="smoke" if args.smoke else "full", seed=args.seed,
                jobs=args.jobs)
        except FarmError as error:
            print(f"scale: point {error.label!r} failed in a worker:\n"
                  f"{error.detail}", file=sys.stderr)
            return 1
        print(sweep.render())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(sweep.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"scale sweep written to {args.out}")
    return 0 if sweep.ok else 1


def _run_perfbench(args) -> int:
    """The ``perfbench`` subcommand: the golden scenario matrix."""
    from repro.experiments.farm import FarmError
    from repro.experiments.perfbench import SMOKE_SCENARIOS, run_perfbench

    names = args.scenarios
    scale = "smoke" if args.smoke else "full"
    if names is None and args.smoke:
        names = SMOKE_SCENARIOS
    try:
        report = run_perfbench(
            names, seed=args.seed, scale=scale,
            check_golden=args.check_golden, update_golden=args.update_golden,
            jobs=args.jobs)
    except FarmError as error:
        print(f"perfbench: scenario {error.label!r} failed in a worker:\n"
              f"{error.detail}", file=sys.stderr)
        return 1
    print(report.render())
    if not report.ok:
        print("perfbench: golden check FAILED (the simulated run changed; "
              "if deliberate, regenerate with --update-golden)")
        return 1
    return 0


def _run_crossval(args) -> int:
    """The ``crossval`` subcommand: analytic phase model vs the simulator.

    Exits non-zero when any gated metric (throughput, latency p50/p95)
    lands beyond its declared tolerance; per-phase means are reported but
    never gated.  ``--out`` writes the report JSON (the CI artifact).
    """
    from repro.experiments.crossval import run_crossval
    from repro.experiments.farm import FarmError
    from repro.experiments.perfbench import SMOKE_SCENARIOS

    names = args.scenarios
    scale = "smoke" if args.smoke else "full"
    if names is None and args.smoke:
        names = SMOKE_SCENARIOS
    try:
        report = run_crossval(names, seed=args.seed, scale=scale,
                              jobs=args.jobs)
    except FarmError as error:
        print(f"crossval: scenario {error.label!r} failed in a worker:\n"
              f"{error.detail}", file=sys.stderr)
        return 1
    print(report.render())
    if args.out:
        report.write_json(args.out)
        print(f"crossval report written to {args.out}")
    return 0 if report.ok else 1


def _run_capacity(args) -> int:
    """The ``capacity`` subcommand: invert the phase model into a plan.

    Closed-form grid search — no simulation runs; a full plan answers in
    milliseconds.  Exits non-zero when no configuration in the grid
    sustains the target (so scripts can branch on feasibility).
    """
    from repro.analysis.planner import plan_capacity

    plan = plan_capacity(
        target_tps=args.target_tps,
        max_p95=args.max_p95,
        policy=args.policy,
        orderer_kind=args.orderer,
        statedb_kind=args.statedb,
        workload_kind=args.workload)
    if args.json:
        print(json.dumps(plan.as_dict(), indent=2, sort_keys=True))
    else:
        print(plan.render())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(plan.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"capacity plan written to {args.out}")
    return 0 if plan.feasible else 1


def _results_for(experiment_id: str, mode: str, seed: int):
    if experiment_id == "tab1":
        return [run_table1()]
    if experiment_id in ("fig2", "fig3"):
        fig2, fig3 = run_fig2_fig3(mode=mode, seed=seed)
        return [fig2 if experiment_id == "fig2" else fig3]
    if experiment_id in ("fig4", "fig5"):
        fig4, fig5 = run_fig4_fig5(mode=mode, seed=seed)
        return [fig4 if experiment_id == "fig4" else fig5]
    if experiment_id in ("fig6", "fig7"):
        fig6, fig7 = run_fig6_fig7(mode=mode, seed=seed)
        return [fig6 if experiment_id == "fig6" else fig7]
    if experiment_id in ("tab2", "tab3"):
        tab2, tab3 = run_table2_table3(mode=mode, seed=seed)
        return [tab2 if experiment_id == "tab2" else tab3]
    if experiment_id == "fig8":
        return [run_fig8(mode=mode, seed=seed)]
    raise ValueError(f"unknown experiment {experiment_id!r}")


def _run_artifacts(args) -> int:
    """The artifact commands: one table/figure id, or ``all`` of them."""
    mode = "full" if args.full else "quick"
    if args.experiment == "all":
        # Run paired experiments once each.
        results = [run_table1()]
        results.extend(run_fig2_fig3(mode=mode, seed=args.seed))
        results.extend(run_fig4_fig5(mode=mode, seed=args.seed))
        results.extend(run_fig6_fig7(mode=mode, seed=args.seed))
        results.extend(run_table2_table3(mode=mode, seed=args.seed))
        results.append(run_fig8(mode=mode, seed=args.seed))
    else:
        results = _results_for(args.experiment, mode, args.seed)
    for result in results:
        print(result.render())
        print()
        if args.plot:
            from repro.experiments.plots import plot_if_supported

            chart = plot_if_supported(result)
            if chart is not None:
                print(chart)
                print()
    return 0


def _output_path(value: str) -> str:
    """argparse ``type`` of a file a command writes: fail before running
    when its directory does not exist."""
    directory = pathlib.Path(value).parent
    if not directory.is_dir():
        raise argparse.ArgumentTypeError(
            f"directory {str(directory)!r} does not exist")
    return value


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fabric-repro",
        description="Regenerate the tables and figures of Wang & Chu, "
                    "'Performance Characterization and Bottleneck Analysis "
                    "of Hyperledger Fabric' (ICDCS 2020).")
    commands = parser.add_subparsers(dest="experiment", required=True,
                                     metavar="experiment")

    # Parents hold only the flags several commands read with one meaning.
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=1,
                      help="simulation seed (default 1)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=_output_path, default=None,
                     metavar="PATH", help="write the command's report to PATH")
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="worker processes for the matrix (default 1: run "
                           "inline; results and report order are identical "
                           "at any width)")
    artifact = argparse.ArgumentParser(add_help=False, parents=[seed])
    artifact.add_argument("--full", action="store_true",
                          help="run the paper-scale sweep (slower)")
    artifact.add_argument("--plot", action="store_true",
                          help="render figure-shaped ASCII charts as well")

    def command(name, func, summary, parents=()):
        sub = commands.add_parser(name, help=summary, parents=list(parents))
        sub.set_defaults(func=func)
        return sub

    for name in EXPERIMENT_IDS:
        command(name, _run_artifacts, f"regenerate {name}", [artifact])
    command("all", _run_artifacts, "regenerate every table and figure",
            [artifact])

    trace = command("trace", _run_trace,
                    "an observed run with bottleneck attribution, "
                    "critical-path extraction, and the queueing observatory",
                    [seed])
    trace.add_argument("--orderer", default="solo", choices=ORDERERS,
                       help="ordering service kind (default solo)")
    trace.add_argument("--policy", default="AND5",
                       help="endorsement policy (default AND5)")
    trace.add_argument("--rate", type=float, default=250.0,
                       help="offered load in tx/s (default 250, past the "
                            "AND5 validate capacity)")
    trace.add_argument("--duration", type=float, default=15.0,
                       help="workload duration in simulated seconds")
    trace.add_argument("--top", type=int, default=12,
                       help="resources to list in the report")
    trace.add_argument("--trace-out", type=_output_path, default=None,
                       metavar="PATH",
                       help="write a Chrome trace_event JSON file (view in "
                            "Perfetto / chrome://tracing)")
    trace.add_argument("--summary-out", type=_output_path, default=None,
                       metavar="PATH",
                       help="write the critical-path + queueing summary "
                            "JSON (obs-diff comparable)")

    lint = command("lint", _run_lint, "the simlint determinism analyzer",
                   [out])
    lint.add_argument("--path", dest="paths", action="append", default=None,
                      metavar="DIR",
                      help="file or directory to lint (repeatable; default: "
                           "the installed repro package plus tests/ and "
                           "benchmarks/ with the relaxed profile)")
    lint.add_argument("--project", action="store_true",
                      help="also run the cross-file rules (SL012/SL014/"
                           "SL015) over the project symbol table and call "
                           "graph")
    lint.add_argument("--profile", default="strict",
                      choices=["strict", "relaxed"],
                      help="rule profile for explicitly given --path "
                           "targets (default strict; the default sweep "
                           "picks per-tree profiles itself)")
    lint.add_argument("--format", default="text",
                      choices=["text", "json", "sarif"],
                      help="report format (default text; sarif is SARIF "
                           "2.1.0 for code-scanning upload)")
    lint.add_argument("--baseline", default=None, metavar="PATH",
                      help="accepted-findings file: fail only on new "
                           "error-severity findings")
    lint.add_argument("--write-baseline", type=_output_path, default=None,
                      metavar="PATH",
                      help="accept the current findings: write their "
                           "fingerprints to PATH and exit 0")

    check = command("check-determinism", _run_check_determinism,
                    "same-seed double-run schedule diffing", [seed])
    check.add_argument("--orderer", default=None, choices=ORDERERS,
                       help="ordering service kind (default: all three)")
    check.add_argument("--rate", type=float, default=CHECK_RATE,
                       help=f"offered load for the double runs (default "
                            f"{CHECK_RATE:g} tx/s)")
    check.add_argument("--duration", type=float, default=CHECK_DURATION,
                       help=f"workload duration for the double runs "
                            f"(default {CHECK_DURATION:g} simulated seconds)")
    check.add_argument("--digest-only", action="store_true",
                       help="skip per-event record keeping (lower memory; "
                            "no first-divergence report)")
    check.add_argument("--statedb", default=None,
                       choices=["leveldb", "couchdb"],
                       help="state-database backend for the double runs "
                            "(couchdb enables cache, bulk batching, and "
                            "snapshots on the read-write workload)")

    faults = command("faults", _run_faults,
                     "the fault-injection recovery scenarios", [seed])
    faults.add_argument("--scenario", default=None,
                        choices=sorted(FAULT_SCENARIOS),
                        help="run one scenario (default: all)")
    faults.add_argument("--smoke", action="store_true",
                        help="single run per scenario instead of the "
                             "same-seed determinism double run")
    faults.add_argument("--digest-only", action="store_true",
                        help="skip per-event record keeping in the double "
                             "run (lower memory; no first-divergence report)")

    statedb = command("statedb", _run_statedb,
                      "the state-database backend ablation", [seed])
    statedb.add_argument("--full", action="store_true",
                         help="run the paper-scale ablation (slower)")

    perf = command("perfbench", _run_perfbench,
                   "the golden scenario matrix: digest, event budget and "
                   "simulated throughput of each run", [seed, jobs])
    crossval = command("crossval", _run_crossval,
                       "the analytic-model-vs-simulator accuracy gate",
                       [seed, out, jobs])
    for sub in (perf, crossval):
        sub.add_argument("--scenario", dest="scenarios", action="append",
                         default=None, metavar="NAME",
                         choices=sorted(perfbench.SCENARIOS),
                         help="run one perfbench scenario (repeatable; "
                              "default: all, or the smoke subset with "
                              "--smoke)")
        sub.add_argument("--smoke", action="store_true",
                         help="the scaled-down CI subset")
    perf.add_argument("--check-golden", action="store_true",
                      help="fail if any run's digest, event count or "
                           "sim_tps differs from the committed golden")
    perf.add_argument("--update-golden", action="store_true",
                      help="deliberately regenerate the committed golden "
                           "records from this run")

    scale = command("scale", _run_scale,
                    "peers x channels x population sweeps with aggregated "
                    "client cohorts", [seed, out, jobs])
    scale.add_argument("--smoke", action="store_true",
                       help="the scaled-down CI sweep grid")
    point = scale.add_argument_group(
        "single point", "giving any of these runs one point (defaults 100 "
        "peers, 4 channels, 1,000,000 users) instead of the sweep grid")
    point.add_argument("--peers", type=int, default=None,
                       help="total peers (committing-only beyond the "
                            "10-peer endorsing core)")
    point.add_argument("--channels", type=int, default=None,
                       help="number of channels (ch1..chN; every peer "
                            "joins all of them)")
    point.add_argument("--users", type=int, default=None,
                       help="aggregated population size; load is "
                            "superposed-Poisson, so kernel cost is "
                            "O(cohorts) regardless of this value")
    scale.add_argument("--cohorts", type=int, default=2,
                       help="cohorts per channel (default 2); each cohort "
                            "is one kernel process and one client node")
    scale.add_argument("--rate", type=float, default=150.0,
                       help="aggregate offered load in tx/s across all "
                            "channels (default 150)")
    scale.add_argument("--duration", type=float, default=8.0,
                       help="workload duration in simulated seconds "
                            "(default 8)")

    capacity = command("capacity", _run_capacity,
                       "the closed-form capacity planner", [out])
    capacity.add_argument("--target-tps", type=float, required=True,
                          help="throughput the deployment must sustain "
                               "(tx/s)")
    capacity.add_argument("--max-p95", type=float, default=None,
                          help="end-to-end p95 latency bound in seconds "
                               "(default: unbounded)")
    capacity.add_argument("--policy", default="AND5",
                          help="endorsement policy (default AND5)")
    capacity.add_argument("--orderer", default="solo", choices=ORDERERS,
                          help="ordering service kind (default solo)")
    capacity.add_argument("--statedb", default="leveldb",
                          choices=["leveldb", "couchdb"],
                          help="state-database backend (default leveldb)")
    capacity.add_argument("--workload", default="unique",
                          choices=["unique", "conflict"],
                          help="transaction shape to plan for "
                               "(default unique)")
    capacity.add_argument("--json", action="store_true",
                          help="print the plan as JSON instead of the text "
                               "summary")

    diff = command("obs-diff", _run_obs_diff,
                   "diff two trace summaries on simulated throughput and "
                   "latency")
    diff.add_argument("--baseline", required=True, metavar="PATH",
                      help="baseline trace summary (the accepted reference)")
    diff.add_argument("--candidate", required=True, metavar="PATH",
                      help="candidate trace summary to gate")
    diff.add_argument("--tolerance", type=float, default=0.05,
                      help="relative tolerance (default 0.05)")
    diff.add_argument("--json", action="store_true",
                      help="emit the full diff as JSON")
    diff.add_argument("--verbose", action="store_true",
                      help="list every compared metric, not just "
                           "regressions")
    return parser


def main(argv: typing.Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
