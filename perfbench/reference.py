"""Times stretches of work at reference speed.

The benchmark shares a few cores of a host whose speed drifts by up to a
factor of two within seconds, for the same code and the same CPU time.
So while a stretch of work runs, a timer interrupts it every
`INTERVAL_S` seconds and times a fixed probe: a short loop of the
interpreted dict and integer operations that smoothlab's own loops are
made of.  The probe slows down with the host.  A stretch's time at
reference speed is its own time, without the probes, times `PROBE_S`
over the mean probe time during the stretch: the time it would take
where the probe takes `PROBE_S` seconds.

The probe is frozen and pure Python: it imports neither smoothlab nor
numpy, so a change to the program cannot move it and the set-up probe
can time the import of numpy too.
"""

import contextlib
import signal
import time

# the probe's time on the baseline machine when its host is quiet
PROBE_S = 0.0011
INTERVAL_S = 0.05
# probes taken right after a stretch too short to hold this many
MIN_PROBES = 3


def probe() -> None:
    counts: dict[int, int] = {}
    total = 0
    for i in range(10_000):
        counts[i & 255] = counts.get(i & 255, 0) + i
        total += i % 7


def probe_seconds() -> float:
    t0 = time.perf_counter()
    probe()
    return time.perf_counter() - t0


class Stretch:
    raw = 0.0  # seconds, without the probes
    scaled = 0.0  # seconds at reference speed
    probes = 0


class Reference:
    """Samples the host's speed while a stretch of work runs.

    Takes over SIGALRM, so it must be made in the main thread; stretches
    do not nest.
    """

    def __init__(self):
        self._probes: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        self._probes.append(probe_seconds())

    @contextlib.contextmanager
    def timed(self):
        stretch = Stretch()
        self._probes = []
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            yield stretch
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - t0
            during = list(self._probes)
        probes = during + [probe_seconds()
                           for _ in range(MIN_PROBES - len(during))]
        stretch.raw = elapsed - sum(during)
        stretch.scaled = stretch.raw * PROBE_S * len(probes) / sum(probes)
        stretch.probes = len(probes)
