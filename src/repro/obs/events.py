"""The live event stream: schema-versioned NDJSON progress records.

Metrics answer "how much", traces answer "where did the time go" — the
event bus answers "what is happening *right now*".  Long runs (a
multi-hour fleet, a continuous-monitoring study) emit one JSON object
per line to a file or to stderr, so an operator can ``tail -f`` a
household run the way the paper's crowdsourced deployment demands:

.. code-block:: bash

    repro fleet --events-out events.ndjson     # file
    repro study --events-out -                 # stream to stderr

Every record carries ``{"v": SCHEMA_VERSION, "seq": N, "event": NAME,
"wall": unix-seconds, "pid": ...}`` plus event-specific fields; see
``docs/observability.md`` for the full schema.  Events emitted today:

* ``run_start`` / ``run_end`` — one pair per study or fleet run;
  ``run_end`` always carries ``outcome`` (``ok`` / ``failed`` /
  ``interrupted``)
* ``stage_start`` / ``stage_end`` — per :data:`StudyPipeline.STAGES` entry
* ``shard_queued`` / ``shard_running`` / ``shard_cached`` /
  ``shard_done`` / ``shard_failed`` — the fleet shard lifecycle
* ``shard_retry`` / ``shard_quarantined`` / ``watchdog_timeout`` /
  ``run_interrupted`` — the fleet supervision lifecycle (retries,
  poison quarantine, hung-worker reaping, graceful shutdown)
* ``fault_injected`` — one per chaos action (kind-labelled)
* ``analysis_failed`` — one per isolated analysis crash
* ``heartbeat`` — periodic liveness with RSS/CPU from ``/proc/self``

In-process consumers (the ``repro fleet`` progress line) subscribe with
:meth:`EventBus.subscribe`; the NDJSON sink and subscribers see the
same records.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, TextIO

#: Bump when a record's required fields change shape.
SCHEMA_VERSION = 1


def _heartbeat_interval(text: str) -> float:
    """``REPRO_HEARTBEAT_SECONDS`` as seconds: 1.0 for anything ``float``
    rejects or that is negative or not finite, so a bad value cannot
    stop a subcommand at import."""
    try:
        value = float(text)
    except ValueError:
        return 1.0
    return value if math.isfinite(value) and value >= 0 else 1.0


#: Minimum wall seconds between two heartbeat records (anti-spam: the
#: simulator hook fires every few thousand events, which can be far
#: more often than once a second on a fast run).
HEARTBEAT_MIN_INTERVAL = _heartbeat_interval(os.environ.get("REPRO_HEARTBEAT_SECONDS", "1.0"))


def process_stats() -> Dict[str, float]:
    """Best-effort RSS (current + peak) and CPU of the current process.

    Reads ``/proc/self/status`` (``VmRSS`` current, ``VmHWM`` peak) and
    ``/proc/self/stat`` (utime+stime) on Linux; falls back to
    ``resource.getrusage`` elsewhere.  ``ru_maxrss`` is a *peak*, so the
    fallback reports it as ``rss_peak_bytes`` — never as the current
    ``rss_bytes``, which stays 0.0 when unknowable.  Always returns all
    three keys.
    """
    rss_bytes = 0.0
    rss_peak_bytes = 0.0
    cpu_seconds = 0.0
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    rss_bytes = float(line.split()[1]) * 1024.0
                elif line.startswith("VmHWM:"):
                    rss_peak_bytes = float(line.split()[1]) * 1024.0
        with open("/proc/self/stat", "r", encoding="ascii") as handle:
            # Field 2 is ``(comm)`` and may contain spaces; split after
            # the closing paren.  utime/stime are fields 14/15 (1-based).
            fields = handle.read().rpartition(")")[2].split()
            ticks = float(fields[11]) + float(fields[12])
            cpu_seconds = ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        try:
            import resource

            usage = resource.getrusage(resource.RUSAGE_SELF)
            # ru_maxrss is kilobytes on Linux, bytes on macOS.
            scale = 1.0 if sys.platform == "darwin" else 1024.0
            rss_peak_bytes = float(usage.ru_maxrss) * scale
            cpu_seconds = usage.ru_utime + usage.ru_stime
        except Exception:  # pragma: no cover - platform without resource
            pass
    return {"rss_bytes": rss_bytes, "rss_peak_bytes": rss_peak_bytes,
            "cpu_seconds": cpu_seconds}


class EventBus:
    """Emits schema-versioned progress records to a sink + subscribers.

    Thread-safe: whichever thread emits, ``seq`` is totally ordered
    and each NDJSON line is written atomically under the bus lock.
    """

    enabled = True

    def __init__(self, sink: Optional[TextIO] = None, *,
                 owns_sink: bool = False,
                 clock: Callable[[], float] = time.time):
        self._sink = sink
        self._owns_sink = owns_sink
        self._clock = clock
        self._subscribers: List[Callable[[Dict[str, object]], None]] = []
        self._seq = 0
        self._lock = threading.Lock()
        self._last_heartbeat = 0.0
        self.closed = False
        #: Filesystem path behind the sink, when there is one — set by
        #: :func:`open_event_stream` so the fleet can hand the same
        #: NDJSON file to worker processes (append mode).
        self.path: Optional[str] = None

    def subscribe(self, callback: Callable[[Dict[str, object]], None]) -> None:
        """Register an in-process consumer; called with each record."""
        self._subscribers.append(callback)

    def emit(self, event: str, **fields: object) -> Dict[str, object]:
        """Emit one record; returns it (useful in tests)."""
        with self._lock:
            self._seq += 1
            record: Dict[str, object] = {
                "v": SCHEMA_VERSION,
                "seq": self._seq,
                "event": event,
                "wall": round(self._clock(), 6),
                "pid": os.getpid(),
            }
            record.update(fields)
            if self._sink is not None and not self.closed:
                try:
                    self._sink.write(json.dumps(record, sort_keys=True,
                                                default=str) + "\n")
                    self._sink.flush()
                except (OSError, ValueError):
                    # A closed/full sink must never take the run down.
                    self._sink = None
        for callback in self._subscribers:
            callback(record)
        return record

    def heartbeat(self, **fields: object) -> Optional[Dict[str, object]]:
        """A throttled liveness record with process RSS/CPU attached.

        Returns ``None`` when suppressed by the minimum interval.  The
        throttle check-and-update runs under the bus lock so concurrent
        emitters cannot both pass the interval gate.
        """
        now = self._clock()
        with self._lock:
            if now - self._last_heartbeat < HEARTBEAT_MIN_INTERVAL:
                return None
            self._last_heartbeat = now
        stats = process_stats()
        stats.update(fields)
        return self.emit("heartbeat", **stats)

    def close(self) -> None:
        """Flush and (when owned) close the sink; further emits drop."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            if self._sink is not None:
                try:
                    self._sink.flush()
                    if self._owns_sink:
                        self._sink.close()
                except (OSError, ValueError):
                    pass
                self._sink = None


class NullEventBus:
    """API-compatible bus that records nothing (observability off)."""

    enabled = False
    closed = True

    def subscribe(self, callback) -> None:
        return None

    def emit(self, event: str, **fields: object) -> None:
        return None

    def heartbeat(self, **fields: object) -> None:
        return None

    def close(self) -> None:
        return None


#: The do-nothing bus installed on :data:`repro.obs.NULL_OBS`.
NULL_EVENT_BUS = NullEventBus()


def open_event_stream(path: Optional[str], append: bool = False) -> EventBus:
    """An :class:`EventBus` writing NDJSON to ``path``.

    ``"-"`` streams to stderr (shared with logs — records are
    line-atomic, so the interleaving stays parseable); any other path
    is opened for writing and owned (closed) by the bus.  ``None``
    yields a sink-less bus: records still reach subscribers.

    ``append=True`` opens the file in append mode — how fleet *worker*
    processes join the parent's stream: each flushed line is one small
    ``O_APPEND`` write, so lines from different pids interleave whole.
    ``seq`` is per-bus (restarts in each worker); order records across
    processes by ``wall`` + ``pid``, not ``seq``.
    """
    if path is None:
        return EventBus()
    if path == "-":
        return EventBus(sink=sys.stderr, owns_sink=False)
    if not append:
        # Truncate, then reopen with O_APPEND: the parent's own writes
        # must also be append-positioned, or a worker's appended lines
        # would sit past the parent's file offset and be overwritten by
        # the parent's next record.
        open(path, "w", encoding="utf-8").close()
    bus = EventBus(sink=open(path, "a", encoding="utf-8"), owns_sink=True)
    bus.path = path
    return bus
