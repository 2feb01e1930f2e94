"""The shard ledger: every terminal-state transition of a fleet run.

A shard ends a run in one terminal state: ``cached`` (served from the
cache), ``completed`` (computed and checkpointed), ``failed`` or
``quarantined`` (its attempts ran out; the
:class:`~repro.fleet.supervisor.ShardSupervisor` policy decides which),
or ``interrupted`` (the run stopped first).  :class:`ShardLedger` is
the only code that moves a shard into one.  Each transition records the
:class:`ShardState`, stores a computed payload in the cache, appends a
manifest line, and emits the shard's ``fleet.shard`` span, metrics,
events and heartbeat.  The ledger starts no process, so the dispatch
loops of :mod:`repro.fleet.runner` only dispatch, watch and reap, and
the ledger is tested with hand-made tasks.

The manifest is an append-only NDJSON journal,
``<cache-dir>/manifest.ndjson``.  Its first line, the header
``{spec, code_version, workers}``, is written atomically (temp file +
``os.replace``) when a run starts.  Each terminal state then appends one
compact line holding the shard's ``index``, ``start``, ``stop``,
``state``, ``key``, ``seconds``, ``attempts`` and ``error``, through a
line-buffered append without ``fsync``.  ``--resume`` reads only the
header (:func:`read_header`), so a torn last line is never read.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.faults.injector import faults_injected_counter
from repro.fleet.cache import ShardCache
from repro.fleet.spec import FleetSpec, ShardRange, shard_key
from repro.fleet.supervisor import ShardSupervisor, ShardTask, TimeoutVerdict
from repro.obs import Observability

MANIFEST_NAME = "manifest.ndjson"

#: The progress counter each terminal state adds to.
_PROGRESS = {"completed": "done", "cached": "cached", "failed": "failed",
             "quarantined": "quarantined", "interrupted": "failed"}


@dataclass
class ShardFailure:
    """One shard whose worker raised and was isolated (keep-going mode)."""

    shard: int
    start: int
    stop: int
    error: str
    traceback: str = ""


@dataclass
class QuarantinedShard:
    """One poison shard that exhausted its retry budget."""

    shard: int
    start: int
    stop: int
    attempts: int
    error: str


@dataclass
class ShardState:
    """Where one shard's result came from, and how long it took."""

    index: int
    start: int
    stop: int
    state: str  # "cached" | "completed" | "failed" | "quarantined" | "interrupted"
    key: Optional[str] = None
    seconds: float = 0.0
    #: Worker attempts consumed (0 for cached shards, 1 for a clean compute).
    attempts: int = 0
    #: Last error, for failed/quarantined shards.
    error: str = ""


def _compact(payload: dict) -> str:
    # ``dumps`` without ``indent`` runs the C encoder.
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def read_header(path: Path) -> Optional[dict]:
    """The journal header at ``path``; ``None`` when absent or not an object."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            header = json.loads(handle.readline())
    except (OSError, ValueError):  # ValueError: undecodable bytes or bad JSON
        return None
    return header if isinstance(header, dict) else None


class ManifestJournal:
    """The manifest of one run: an atomic header, then appended shard lines."""

    def __init__(self, path: Path, header: dict) -> None:
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-manifest-",
                                   suffix=".ndjson")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(_compact(header) + "\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._handle = open(path, "a", encoding="utf-8", buffering=1)

    def append(self, state: ShardState) -> None:
        # ``vars``, not ``asdict``: the fields are flat, and the copy
        # ``asdict`` makes would cost twice the encoding.
        self._handle.write(_compact(vars(state)) + "\n")

    def close(self) -> None:
        self._handle.close()


class ShardLedger:
    """The terminal states, results, failures and quarantine of one run."""

    def __init__(self, spec: FleetSpec, shards: List[ShardRange],
                 supervisor: ShardSupervisor, obs: Observability,
                 cache: Optional[ShardCache] = None,
                 journal: Optional[ManifestJournal] = None,
                 run_span=None) -> None:
        self.shards = shards
        self.supervisor = supervisor
        self.obs = obs
        self.events = obs.events
        self.logger = obs.logger("fleet")
        self.cache = cache
        self.journal = journal
        self.run_span = run_span
        self.keys = {shard.index: shard_key(spec, shard) if cache is not None else None
                     for shard in shards}
        self.states: Dict[int, ShardState] = {}
        self.results: Dict[int, dict] = {}
        self.failures: List[ShardFailure] = []
        self.quarantined: List[QuarantinedShard] = []
        self._tally = dict.fromkeys(("done", "cached", "failed", "quarantined"), 0)

    def progress(self) -> Dict[str, int]:
        return dict(self._tally, total=len(self.shards))

    def _settle(self, shard, state: str, **fields) -> ShardState:
        """Make ``state`` the shard's terminal state: manifest line, span, metrics.

        A shard settles once: the dispatch loops requeue a task or settle
        it, never both, and ``interrupted`` skips settled shards.
        """
        self._tally[_PROGRESS[state]] += 1
        settled = self.states[shard.index] = ShardState(
            index=shard.index, start=shard.start, stop=shard.stop, state=state,
            key=self.keys.get(shard.index), **fields)
        if self.journal is not None:
            self.journal.append(settled)
        obs = self.obs
        if obs.enabled:
            with obs.tracer.span("fleet.shard", _parent=self.run_span,
                                 shard=shard.index, state=state,
                                 households=shard.stop - shard.start,
                                 shard_seconds=settled.seconds):
                pass
            obs.metrics.counter(
                "fleet_shards_total", "fleet shards by terminal state",
            ).inc(state=state)
            if state == "completed":
                obs.metrics.histogram(
                    "fleet_shard_seconds", "worker-measured seconds per computed shard",
                ).observe(settled.seconds)
        return settled

    # -- transitions ---------------------------------------------------------------

    def cached(self, shard: ShardRange, payload: dict) -> None:
        self.results[shard.index] = payload
        self._settle(shard, "cached", seconds=float(payload.get("seconds", 0.0)))
        self.events.emit("shard_cached", shard=shard.index, start=shard.start,
                         stop=shard.stop, **self.progress())

    def completed(self, task: ShardTask, payload: dict) -> None:
        self.results[task.index] = payload
        if self.cache is not None:
            self.cache.store(self.keys[task.index], payload)
        settled = self._settle(task, "completed",
                               seconds=float(payload.get("seconds", 0.0)),
                               attempts=task.attempts + 1)
        self.events.emit("shard_done", shard=task.index, start=task.start,
                         stop=task.stop, seconds=settled.seconds, **self.progress())
        self.events.heartbeat(kind="fleet", **self.progress())

    def attempt_failed(self, task: ShardTask, error: str, traceback: str = "") -> bool:
        """Route one failed attempt; True when the task will retry.

        With the budget exhausted, the shard is quarantined when retries
        are enabled and failed when they are not.
        """
        obs, events, supervisor = self.obs, self.events, self.supervisor
        if supervisor.on_attempt_failed(task, error, traceback) == "retry":
            if obs.enabled:
                obs.metrics.counter(
                    "fleet_shard_retries_total",
                    "shard attempts rescheduled after a failure",
                ).inc()
                self.logger.warning("shard_retry", shard=task.index,
                                    attempt=task.attempts, error=error)
            events.emit("shard_retry", shard=task.index, start=task.start,
                        stop=task.stop, attempt=task.attempts,
                        retries_left=supervisor.retries - task.attempts,
                        backoff_seconds=round(supervisor.backoff_for(task.attempts), 6),
                        error=error, **self.progress())
            return True
        if supervisor.retries > 0:
            self.quarantined.append(QuarantinedShard(
                shard=task.index, start=task.start, stop=task.stop,
                attempts=task.attempts, error=task.last_error))
            self._settle(task, "quarantined", attempts=task.attempts,
                         error=task.last_error)
            if obs.enabled:
                obs.metrics.counter(
                    "fleet_shards_quarantined_total",
                    "poison shards that exhausted their retry budget",
                ).inc()
                self.logger.error("shard_quarantined", shard=task.index,
                                  attempts=task.attempts, error=task.last_error)
            events.emit("shard_quarantined", shard=task.index, start=task.start,
                        stop=task.stop, attempts=task.attempts,
                        error=task.last_error, **self.progress())
        else:
            self.failures.append(ShardFailure(
                shard=task.index, start=task.start, stop=task.stop,
                error=task.last_error, traceback=task.last_traceback))
            self._settle(task, "failed", attempts=task.attempts,
                         error=task.last_error)
            if obs.enabled:
                self.logger.error("shard_failed", shard=task.index,
                                  error=task.last_error)
            events.emit("shard_failed", shard=task.index, start=task.start,
                        stop=task.stop, error=task.last_error, **self.progress())
        events.heartbeat(kind="fleet", **self.progress())
        return False

    def interrupted(self) -> None:
        """Settle every shard without a terminal state as ``interrupted``."""
        for shard in self.shards:
            if shard.index not in self.states:
                self._settle(shard, "interrupted")

    # -- dispatch telemetry --------------------------------------------------------

    def queued(self, shard: ShardRange) -> None:
        self.events.emit("shard_queued", shard=shard.index, start=shard.start,
                         stop=shard.stop)

    def running(self, task: ShardTask) -> None:
        """One attempt of ``task`` was handed to a worker."""
        if task.fault is not None and self.obs.enabled:
            faults_injected_counter(self.obs).inc(kind=f"shard_{task.fault['kind']}")
        self.events.emit("shard_running", shard=task.index, start=task.start,
                         stop=task.stop, attempt=task.next_attempt)

    def timed_out(self, task: ShardTask, verdict: TimeoutVerdict) -> None:
        """The watchdog found ``task``'s claimed worker silent past its deadline."""
        self.supervisor.note_timeout(task)
        silent = round(verdict.silent_seconds, 3)
        if self.obs.enabled:
            self.obs.metrics.counter(
                "fleet_watchdog_timeouts_total",
                "hung workers reaped by the shard watchdog",
            ).inc()
            self.logger.error("watchdog_timeout", shard=task.index,
                              pid=verdict.pid, silent_seconds=silent)
        self.events.emit("watchdog_timeout", shard=task.index, start=task.start,
                         stop=task.stop, pid=verdict.pid, silent_seconds=silent,
                         deadline=task.deadline)
