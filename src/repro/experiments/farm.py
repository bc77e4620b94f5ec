"""Multiprocess scenario farm: independent scenarios across host cores.

The perfbench / crossval / scale matrices are embarrassingly parallel:
every scenario builds its own network from an explicit seed and shares no
state with its neighbours.  This module fans a list of such tasks out over
a pool of worker processes while keeping the *result contract* identical
to the sequential path:

- **Deterministic merge order.**  Results are returned in task-submission
  order, no matter which child finishes first — so reports and golden
  checks are byte-stable across ``--jobs`` values (the ``wall_s`` of
  scale points aside, which measures the host, not the schedule).
- **Seeded children.**  A task carries everything the worker needs (name,
  seed, scale); children inherit no ambient randomness, so a scenario
  computes the same digests and metrics in any process.
- **Loud failures.**  A child that raises — or dies outright — surfaces as
  :class:`FarmError` naming the failed scenario, carrying the child's
  traceback text; drivers exit non-zero instead of silently dropping the
  scenario from the report.

``jobs <= 1`` never touches ``multiprocessing``: the tasks run inline in
this process, which is both the no-dependency fallback and the reference
behaviour the parallel path is tested against.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import traceback
import typing

__all__ = ["FarmError", "run_farm"]

T = typing.TypeVar("T")
R = typing.TypeVar("R")


class FarmError(RuntimeError):
    """A farmed scenario failed; ``label`` names which one."""

    def __init__(self, label: str, detail: str) -> None:
        super().__init__(f"farm task {label!r} failed:\n{detail}")
        self.label = label
        self.detail = detail


def _guarded(worker: typing.Callable[[T], R], label: str, task: T
             ) -> tuple[str, typing.Any]:
    """Run one task in a child, capturing the traceback as data.

    Exceptions don't always pickle faithfully across process boundaries;
    the traceback string always does, and FarmError only needs text.
    ``KeyboardInterrupt``/``SystemExit`` deliberately propagate: they
    kill the worker, which the pool reports as a broken process.
    """
    try:
        return ("ok", worker(task))
    # Not swallowed: the traceback crosses the process boundary as data
    # and re-surfaces in the parent as FarmError.
    except Exception:  # simlint: disable=SL005
        return ("error", f"{label}\n{traceback.format_exc()}")


def run_farm(worker: typing.Callable[[T], R],
             tasks: typing.Sequence[T],
             jobs: int = 1,
             labels: typing.Sequence[str] | None = None) -> list[R]:
    """Apply ``worker`` to every task, ``jobs`` processes wide.

    ``worker`` and each task must be picklable (module-level function,
    plain-data task) when ``jobs > 1``.  ``labels`` names tasks in error
    reports; defaults to ``str(task)``.  Results come back in task order.

    Raises :class:`FarmError` for the first (in task order) failed task.
    Inline runs stop at the failure; pool runs let already-submitted
    scenarios finish before raising, so one bad scenario does not waste
    the rest of the matrix's work.
    """
    if labels is None:
        labels = [str(task) for task in tasks]
    if len(labels) != len(tasks):
        raise ValueError(
            f"{len(labels)} labels for {len(tasks)} tasks")
    if jobs <= 1 or len(tasks) <= 1:
        # Inline reference path: same calls, same order, no pool.
        results = []
        for label, task in zip(labels, tasks):
            try:
                results.append(worker(task))
            except Exception:
                raise FarmError(label, traceback.format_exc()) from None
        return results
    # Fork start method: children inherit the loaded interpreter (no
    # re-import storm per scenario).  Falls back to the platform default
    # where fork is unavailable.
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        context = multiprocessing.get_context()
    outcomes: list[tuple[str, typing.Any] | None] = [None] * len(tasks)
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(jobs, len(tasks)), mp_context=context) as pool:
        futures = [pool.submit(_guarded, worker, label, task)
                   for label, task in zip(labels, tasks)]
        for index, future in enumerate(futures):
            try:
                outcomes[index] = future.result()
            except concurrent.futures.process.BrokenProcessPool:
                # The child died without returning (segfault, kill, OOM).
                outcomes[index] = (
                    "error",
                    f"{labels[index]}\nworker process died before "
                    f"returning a result")
    results = []
    for outcome in outcomes:
        assert outcome is not None
        status, payload = outcome
        if status == "error":
            label, _, detail = payload.partition("\n")
            raise FarmError(label, detail)
        results.append(payload)
    return results
