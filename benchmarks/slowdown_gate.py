"""Gross-slowdown gate: every layerbench workload once, against a ceiling.

Runs ``layerbench/run.py --workload W --sim-duration 4 --seconds 0
--trace 0`` for each workload of :data:`CEILINGS_S` and fails when a run
is not ``correct`` or its median ``wall_s`` (host seconds scaled to the
reference host speed by layerbench) is above the committed ceiling.  A
ceiling is twice the median recorded for it, so only a gross (2x)
slowdown fails here; the exact cost of a run, its event count, is gated
by the golden records in ``tests/fabric/golden/digests.json``.

Usage, from the repository root (about 40 s)::

    python3 benchmarks/slowdown_gate.py
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Ceiling on the scaled ``wall_s`` of a 4-simulated-second run, in
#: seconds: twice the median of three gate runs on a shared 2-core x86-64
#: container with CPython 3.11.7 (1.53, 1.47 and 3.78 s).
CEILINGS_S = {
    "and5-validate-bound": 3.06,
    "conflict-kafka-couchdb": 2.94,
    "population-scale": 7.56,
}


def measure(workload: str) -> dict:
    """The JSON line layerbench prints last for one smoke-size run."""
    completed = subprocess.run(
        [sys.executable, str(ROOT / "layerbench" / "run.py"),
         "--workload", workload, "--sim-duration", "4", "--seconds", "0",
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = completed.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "error": completed.stderr.strip()[-2000:]}


def main() -> int:
    failed = False
    for workload, ceiling in CEILINGS_S.items():
        result = measure(workload)
        wall = result.get("metrics", {}).get("wall_s", {}).get("value")
        ok = result.get("correct") is True and wall is not None \
            and wall <= ceiling
        shown = "missing" if wall is None else f"{wall:.2f} s"
        print(f"{workload}: wall_s {shown} (ceiling {ceiling:.2f} s), "
              f"correct {result.get('correct')}: "
              f"{'ok' if ok else 'FAILED'}")
        if "error" in result:
            print(result["error"])
        failed = failed or not ok
    print("slowdown gate: FAILED" if failed else "slowdown gate: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
