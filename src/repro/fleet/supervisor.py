"""Run supervision: deadlines, retries, quarantine, graceful shutdown.

The fleet's crowdsourced ancestor (IoT Inspector) only scaled because
its collection pipeline assumed every participant could hang, crash,
or disappear mid-upload.  This module is the equivalent layer for the
fleet runner: a heartbeat-driven watchdog that gives every shard a
wall-clock deadline and a retry budget, and a signal guard that turns
SIGINT/SIGTERM into an orderly checkpoint-and-exit instead of a
traceback.

Three cooperating pieces, the last shared with the CLI:

* :class:`WorkerClaim` — the heartbeat channel.  Each dispatched shard
  gets a *claim file* in a per-run spool directory; the worker process
  writes its pid into it on startup and touches it at every phase
  heartbeat.  The parent never talks to the worker directly: liveness
  is the claim file's mtime, and the pid inside is how a hung worker
  gets reaped.  (The same heartbeats also stream into the ``--events-out``
  NDJSON file as ``kind="worker"`` records — the claim file is the
  supervisor-readable projection of that stream.)
* :class:`ShardSupervisor` — per-shard bookkeeping: attempts consumed,
  exponential retry backoff gates, deadline derivation, and the
  watchdog scan that declares a silent worker hung.
* :func:`repro.interrupt.interrupt_guard` — SIGINT/SIGTERM become a
  :class:`~repro.interrupt.RunInterrupted`, which the runner catches to
  journal in-flight shards as ``interrupted`` before the CLI exits
  ``128 + signum`` (130 for SIGINT, 143 for SIGTERM).

Nothing here runs on the zero-fault, zero-retry path beyond a cheap
deadline computation — the supervised run's merged report stays
byte-identical to an unsupervised one.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

#: Seconds of budget per household when deriving a shard's deadline.
DEADLINE_SECONDS_PER_HOUSEHOLD = 0.5

#: Floor for a derived deadline — small shards still get a generous
#: window (process start + import cost dominates tiny shards).
MIN_SHARD_DEADLINE = 60.0

#: First retry waits this long; attempt ``n`` waits ``backoff * 2**(n-1)``.
DEFAULT_RETRY_BACKOFF = 0.5

#: How often the pool loop wakes to run the watchdog scan.
WATCHDOG_POLL_SECONDS = 0.05


def default_shard_deadline(households: int) -> float:
    """Deadline for a shard of ``households``, scaled with its size so a
    re-partition does not silently tighten the watchdog."""
    return max(MIN_SHARD_DEADLINE,
               DEADLINE_SECONDS_PER_HOUSEHOLD * max(1, households))


class WorkerClaim:
    """The worker side of the heartbeat channel: one file per attempt.

    ``acquire(path)`` writes ``{"pid": ..., "wall": ...}`` atomically;
    every later :meth:`touch` bumps the file's mtime.  The parent reads
    the pid with :func:`read_claim_pid` and liveness with
    :func:`claim_age`.  All methods tolerate a missing path (inline
    runs pass ``None``) and never raise — a full disk must not take a
    worker down.
    """

    def __init__(self, path: Optional[str]):
        self.path = path

    @classmethod
    def acquire(cls, path: Optional[str]) -> "WorkerClaim":
        claim = cls(path)
        if path is not None:
            try:
                tmp = f"{path}.tmp-{os.getpid()}"
                with open(tmp, "w", encoding="utf-8") as handle:
                    json.dump({"pid": os.getpid(), "wall": time.time()}, handle)
                os.replace(tmp, path)
            except OSError:
                claim.path = None
        return claim

    def touch(self) -> None:
        if self.path is None:
            return
        try:
            os.utime(self.path, None)
        except OSError:
            self.path = None


def read_claim_pid(path: Optional[str]) -> Optional[int]:
    """The pid a worker wrote into its claim file, or ``None``."""
    if path is None:
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            pid = json.load(handle).get("pid")
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, AttributeError):
        return None
    return pid if isinstance(pid, int) else None


def claim_age(path: Optional[str], now: Optional[float] = None) -> Optional[float]:
    """Wall seconds since the worker last touched its claim, or ``None``."""
    if path is None:
        return None
    try:
        mtime = os.stat(path).st_mtime
    except OSError:
        return None
    return max(0.0, (now if now is not None else time.time()) - mtime)


@dataclass
class ShardTask:
    """One shard's supervision state across its attempts."""

    index: int
    start: int
    stop: int
    fault: Optional[Dict[str, object]]
    deadline: float
    claim_path: Optional[str] = None
    #: Failed attempts consumed so far (a dispatch in flight is not counted).
    attempts: int = 0
    #: Monotonic gate: the next attempt may not dispatch before this.
    not_before: float = 0.0
    #: Monotonic dispatch time of the in-flight attempt.
    dispatched_at: float = 0.0
    #: Last failure, kept for the quarantine record.
    last_error: str = ""
    last_traceback: str = ""

    @property
    def next_attempt(self) -> int:
        """1-based number of the attempt that would run next."""
        return self.attempts + 1


@dataclass
class TimeoutVerdict:
    """One watchdog finding: a task silent past its deadline."""

    task: ShardTask
    silent_seconds: float
    pid: Optional[int]


@dataclass
class ShardSupervisor:
    """Deadline/retry policy shared by the inline and pool dispatchers.

    Pure bookkeeping — no threads, no signals.  The dispatch loops ask
    three questions: what deadline does this shard get
    (:meth:`task_for`), what happens after a failed attempt
    (:meth:`on_attempt_failed` → ``"retry"`` or ``"exhausted"``), and
    which in-flight workers are hung (:meth:`overdue`).
    """

    retries: int = 0
    backoff: float = DEFAULT_RETRY_BACKOFF
    #: Uniform deadline override (``--shard-deadline``); ``None`` derives
    #: per shard from its household count.
    deadline: Optional[float] = None
    clock: object = time.monotonic
    retries_used: int = 0
    watchdog_timeouts: int = 0

    def task_for(self, shard, fault: Optional[Dict[str, object]] = None,
                 claim_path: Optional[str] = None) -> ShardTask:
        return ShardTask(
            index=shard.index, start=shard.start, stop=shard.stop,
            fault=fault, claim_path=claim_path,
            deadline=(self.deadline if self.deadline is not None
                      else default_shard_deadline(shard.stop - shard.start)),
        )

    def record_dispatch(self, task: ShardTask) -> None:
        task.dispatched_at = self.clock()
        if task.claim_path is not None:
            # A fresh attempt must not inherit the previous attempt's
            # heartbeat trail (or its pid).
            try:
                os.unlink(task.claim_path)
            except OSError:
                pass

    def backoff_for(self, failed_attempt: int) -> float:
        """Exponential: attempt 1 waits ``backoff``, attempt 2 ``2×``, ..."""
        if self.backoff <= 0:
            return 0.0
        return self.backoff * (2 ** max(0, failed_attempt - 1))

    def on_attempt_failed(self, task: ShardTask, error: str,
                          traceback: str = "") -> str:
        """Consume one attempt; gate the retry.  ``"retry" | "exhausted"``."""
        task.attempts += 1
        task.last_error = error
        task.last_traceback = traceback
        if task.attempts <= self.retries:
            self.retries_used += 1
            task.not_before = self.clock() + self.backoff_for(task.attempts)
            return "retry"
        return "exhausted"

    def overdue(self, inflight: List[ShardTask]) -> List[TimeoutVerdict]:
        """Watchdog scan: in-flight tasks silent past their deadline.

        Silence is measured from the worker's last sign of life — the
        claim file's mtime when the worker has claimed, the dispatch
        time before that — so a slow-but-heartbeating worker is never
        declared hung, only a silent one.
        """
        verdicts: List[TimeoutVerdict] = []
        now = self.clock()
        wall_now = time.time()
        for task in inflight:
            age = claim_age(task.claim_path, wall_now)
            silent = age if age is not None else now - task.dispatched_at
            if silent > task.deadline:
                verdicts.append(TimeoutVerdict(
                    task=task, silent_seconds=silent,
                    pid=read_claim_pid(task.claim_path)))
        return verdicts

    def note_timeout(self, task: ShardTask) -> None:
        self.watchdog_timeouts += 1
        # A reaped worker leaves no useful traceback; record the verdict.
        task.last_error = (
            f"WatchdogTimeout: worker silent past the {task.deadline:.1f}s "
            f"shard deadline")


def reap(pid: Optional[int]) -> bool:
    """SIGKILL a worker pid; True when a signal was actually sent."""
    if pid is None or pid <= 0 or pid == os.getpid():
        return False
    try:
        os.kill(pid, signal.SIGKILL)
    except (OSError, ProcessLookupError):
        return False
    return True
