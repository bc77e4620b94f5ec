"""Diff two trace summaries: the gate behind ``repro obs-diff``.

Compares a *candidate* ``repro trace --summary-out`` file against a
*baseline* on the simulated outcome, throughput (``throughput_tps``) and
mean end-to-end latency (``avg_latency_s``), and classifies each metric's
relative change against a tolerance; ``repro obs-diff`` exits non-zero on
any regression.  Both metrics are simulated, so a diff means the modelled
system changed, not the host.  Host timing belongs to ``layerbench/``, and
the exact per-run event budget to the golden records of
:mod:`repro.experiments.perfbench`.
"""

from __future__ import annotations

import dataclasses
import json
import typing


@dataclasses.dataclass(frozen=True)
class MetricSpec:
    """How one metric is compared."""

    key: str
    higher_is_better: bool


#: Metrics compared, in report order.
METRICS: tuple[MetricSpec, ...] = (
    MetricSpec("throughput_tps", higher_is_better=True),
    MetricSpec("avg_latency_s", higher_is_better=False),
)


@dataclasses.dataclass
class MetricDelta:
    """One metric compared across baseline and candidate."""

    metric: str
    baseline: float
    candidate: float
    change: float          # relative; positive = metric went up
    regression: bool

    def describe(self) -> str:
        arrow = "worse" if self.regression else "ok"
        return (f"{self.metric} {self.baseline:g} -> {self.candidate:g} "
                f"({self.change:+.2%}) {arrow}")


@dataclasses.dataclass
class DiffResult:
    """The comparison of one scenario's summaries."""

    scenario: str
    deltas: list[MetricDelta]

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.regression]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def as_dict(self) -> dict[str, typing.Any]:
        return {
            "ok": self.ok,
            "scenario": self.scenario,
            "regressions": [dataclasses.asdict(d) for d in self.regressions],
            "deltas": [dataclasses.asdict(d) for d in self.deltas],
        }


def load_summary(path: str) -> dict[str, typing.Any]:
    """Load a ``repro trace --summary-out`` file."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or not any(spec.key in data
                                             for spec in METRICS):
        raise ValueError(
            f"{path}: not a trace summary (expected a JSON object with "
            f"{' or '.join(spec.key for spec in METRICS)})")
    return data


def compare_summaries(baseline: typing.Mapping[str, typing.Any],
                      candidate: typing.Mapping[str, typing.Any],
                      tolerance: float = 0.05) -> DiffResult:
    """Diff candidate against baseline.

    A metric regresses when it moves in its bad direction by more than
    the tolerance (relative).  Summaries of different scenarios are not
    comparable and raise :class:`ValueError`.
    """
    scenario = str(baseline.get("scenario", "trace"))
    other = str(candidate.get("scenario", "trace"))
    if other != scenario:
        raise ValueError(f"baseline is scenario {scenario!r} but candidate "
                         f"is {other!r}: not comparable")
    deltas: list[MetricDelta] = []
    for spec in METRICS:
        if spec.key not in baseline or spec.key not in candidate:
            continue
        base_value = float(baseline[spec.key])
        cand_value = float(candidate[spec.key])
        change = ((cand_value - base_value) / abs(base_value)
                  if base_value else
                  (0.0 if cand_value == base_value else float("inf")))
        bad_change = -change if spec.higher_is_better else change
        deltas.append(MetricDelta(
            metric=spec.key, baseline=base_value, candidate=cand_value,
            change=change, regression=bad_change > tolerance))
    return DiffResult(scenario=scenario, deltas=deltas)


def diff_files(baseline_path: str, candidate_path: str,
               tolerance: float = 0.05) -> DiffResult:
    """Convenience wrapper: load both summaries and compare."""
    return compare_summaries(load_summary(baseline_path),
                             load_summary(candidate_path),
                             tolerance=tolerance)


def render_diff(result: DiffResult, verbose: bool = False) -> str:
    """Human-readable gate output: regressions first, then notes."""
    lines: list[str] = []
    if result.regressions:
        lines.append(f"PERF REGRESSIONS in {result.scenario} "
                     f"({len(result.regressions)}):")
        lines.extend(f"  {d.describe()}" for d in result.regressions)
    if verbose or not result.deltas:
        lines.append(f"Compared {len(result.deltas)} metric(s) of "
                     f"{result.scenario}")
        lines.extend(f"  {d.describe()}" for d in result.deltas
                     if not d.regression)
    if result.ok:
        lines.append("obs-diff: no regressions against baseline")
    else:
        lines.append("obs-diff: FAILED")
    return "\n".join(lines)
