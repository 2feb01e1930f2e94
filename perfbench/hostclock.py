"""A clock in reference-host seconds.

The benchmark runs on shared machines whose speed drifts with what
their neighbours do: the same pure-Python loop takes anywhere from 1×
to 2× its quiet time, switching within a second, and the process's CPU
time drifts with it, so neither wall nor CPU time repeats from one run
to the next.  This module measures the host's current speed with a
fixed loop (:func:`probe`) and scales every timing to a host on which
that loop takes :data:`REFERENCE_S`:

    scaled seconds = raw seconds × (REFERENCE_S / probe()) ** ELASTICITY

The program gains less from a fast spell than the tight probe loop
does: over calls of ``repro ingest`` and ``repro monitor`` on a 2-vCPU
VM, the remaining run-to-run spread was smallest for an elasticity of
0.7–0.9 (ingest: 0.18 unscaled, 0.03 at 0.8, 0.08 at 1.0).

:class:`HostClock` re-probes every :data:`TICK_S` seconds from a
``SIGALRM`` handler, in the measured process itself and between two of
its bytecodes, so a call that crosses a slow spell is scaled piece by
piece.  The time the handler takes is removed from every reading.  It
measures this process only: work in other processes, such as a worker
pool, runs at a speed it cannot see.

The clock also stands still while the hypervisor runs other guests on
this machine's CPUs: the steal time ``/proc/stat`` reports is read at
every probe and taken out of the interval that ended there.  On this
kind of host it is a few percent of the time on average, but a single
burst can take a quarter of a 3 s call.

The loop does integer, dict and bytes work like the program's own, and
allocates no garbage-collected objects, so it never moves the
program's collections.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from collections import deque

#: Seconds one :func:`_loop` takes on the reference host (a quiet
#: 2-vCPU Xeon VM, CPython 3.11).
REFERENCE_S = 0.00075
#: How much the program's time moves with the probe's (see above).
ELASTICITY = 0.8
#: Seconds between two probes of a ticking clock.
TICK_S = 0.025
#: A ticking clock runs at the rate of the median of its last this many
#: probes, so one probe that an interrupt slowed does not count.
WINDOW = 3
#: Probes whose median counts where a call or set-up is probed only at
#: its ends.
SETTLED = 5

_TICKS_PER_S = os.sysconf("SC_CLK_TCK")

_TABLE = {(i * 2654435761) % 1_000_003: i for i in range(16384)}
_KEYS = tuple(_TABLE)[:1024]
_BLOB = bytes(range(256)) * 64


def _loop() -> int:
    table, blob, total = _TABLE, _BLOB, 0
    for key in _KEYS:
        offset = key & 0x3FFC
        total += table[key] ^ int.from_bytes(blob[offset:offset + 4], "little")
    return total


def probe() -> float:
    """Seconds one :func:`_loop` takes on this host now."""
    started = time.perf_counter()
    _loop()
    return time.perf_counter() - started


def settled_probe() -> float:
    """The median of :data:`SETTLED` probes."""
    return statistics.median(probe() for _ in range(SETTLED))


def rate(seconds: float) -> float:
    """Reference seconds per raw second when a probe took ``seconds``."""
    return (REFERENCE_S / seconds) ** ELASTICITY


def stolen() -> float:
    """Seconds of steal time on all CPUs since boot (0 if unknown)."""
    try:
        with open("/proc/stat", "rb") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / _TICKS_PER_S
    except (OSError, IndexError, ValueError):
        return 0.0


class HostClock:
    """Seconds at reference-host speed, with the probes left out.

    ``start()`` probes and, when ``ticking``, arms the timer; ``now()``
    reads the scaled clock; ``stop()`` disarms it.  From one probe to
    the next a ticking clock runs at the rate of its last
    :data:`WINDOW` probes.  A clock that does not tick has one
    interval, from ``start()`` to ``stop()``, scaled by the mean rate
    of its two ends.  ``paused`` is the raw time spent probing, and
    ``stolen`` the steal time, which no reading includes.  Steal is
    summed over all CPUs; the other CPUs idle while the measured
    process runs, so it is all this process's.  ``ticks`` counts the
    probes.
    """

    def __init__(self, ticking: bool = True):
        self.ticking = ticking
        self.paused = 0.0
        self.stolen = 0.0
        self.ticks = 0
        self._recent = deque(maxlen=WINDOW)
        self._scaled = 0.0
        self._work_at = time.perf_counter()
        self._rate = 1.0
        self._steal_at = stolen()
        self._last = 0.0

    def _work(self) -> float:
        return time.perf_counter() - self.paused - self.stolen

    def _probe(self, measure=probe) -> float:
        """Close the interval, probe, open the next; returns the closed
        interval's unscaled seconds."""
        started = time.perf_counter()
        steal = stolen()
        # Never more than the interval: /proc/stat counts in 10 ms steps.
        elapsed = started - self.paused - self.stolen - self._work_at
        self.stolen += min(max(0.0, steal - self._steal_at), max(0.0, elapsed))
        self._steal_at = steal
        work = started - self.paused - self.stolen
        span = work - self._work_at
        if self._scaled + span * self._rate < self._last:
            # Give back the steal a reading in this interval already
            # counted, so the clock never runs backwards.
            give_back = (self._last - self._scaled) / self._rate - span
            self.stolen -= give_back
            work += give_back
            span += give_back
        self._scaled += span * self._rate
        self._work_at = work
        self._recent.append(measure())
        self._rate = rate(statistics.median(self._recent))
        self.ticks += 1
        self.paused += time.perf_counter() - started
        return span

    def _tick(self, signum, frame) -> None:
        self._probe()

    def start(self) -> None:
        self._probe(settled_probe)
        if self.ticking:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        if self.ticking:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            return
        first_rate = self._rate
        self._recent.clear()
        span = self._probe(settled_probe)
        self._scaled += span * (self._rate - first_rate) / 2

    def now(self) -> float:
        # A tick landing between two of these reads changes ticks: read
        # again, so the reading never mixes two intervals.
        while True:
            ticks = self.ticks
            value = self._scaled + (self._work() - self._work_at) * self._rate
            if ticks == self.ticks:
                self._last = value
                return value

    def raw(self) -> float:
        """Wall-clock seconds, only the probes left out."""
        return time.perf_counter() - self.paused
