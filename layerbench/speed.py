"""Host-speed probe: scales a timing to a fixed reference speed.

The 2-core host this benchmark was defined on is shared, and its speed
shifts by up to half within minutes: the same repetition took 4.5 s in
one minute and 7 s a few minutes later, and every repetition of the
slow minutes was slow. No median over a 40 s run removes that.
:class:`SpeedProbe` measures the host's speed on the repetition's own
core, during the very seconds it is timed: ``SIGALRM`` fires
``PROBE_HZ`` times a second, and each time the handler times a fixed
piece of pure-Python work (:func:`probe_work`).  The handler touches
nothing of the simulation, so the simulated run is unchanged, and its own
time is subtracted from the timing it interrupts.

A timing ``t`` during which the probe work took ``p`` seconds on average
becomes ``t * NOMINAL_S / p``: the seconds it would have taken on a host
where the probe work takes ``NOMINAL_S``. The probe work never changes
with the program, so a faster program still reads faster.
"""

from __future__ import annotations

import signal
import time

#: Probe samples per second of host time (each costs about 0.1 ms).
PROBE_HZ = 200

#: Seconds :func:`probe_work` takes on the reference host.
NOMINAL_S = 100e-6


#: Read-only lookup table of the probe work, built once at import.
_TABLE = {"k%d" % index: index for index in range(256)}


def probe_work() -> int:
    """A fixed slice of string formatting, dict lookups and int arithmetic.

    It allocates only strings and ints, which the garbage collector does
    not track, so a collection never starts inside the probe. A probe
    that allocated tracked objects would now and then absorb a full
    collection of the simulation's heap, count it as host slowness and
    subtract it from the run.
    """
    table = _TABLE
    total = 0
    for index in range(200):
        key = "k%d" % (index & 255)
        total += table[key] + len(key)
    return total


class SpeedProbe:
    """Times :func:`probe_work` ``PROBE_HZ`` times a second while active.

    ``lap()`` returns the seconds the probe took since the previous lap,
    so each timed phase can subtract the probe's share of it.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.samples = 0
        self._lap_start = 0.0

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        probe_work()
        self.seconds += time.perf_counter() - started
        self.samples += 1

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, 1.0 / PROBE_HZ, 1.0 / PROBE_HZ)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def lap(self) -> float:
        seconds = self.seconds - self._lap_start
        self._lap_start = self.seconds
        return seconds

    def scale(self) -> float:
        """``NOMINAL_S`` over the mean probe time so far."""
        if not self.samples:
            raise RuntimeError("no probe sample: the timed span was too "
                               "short to scale")
        return NOMINAL_S * self.samples / self.seconds
