"""The fleet orchestrator: plan, serve from the cache, dispatch, merge.

``FleetRunner`` plans the shard partition from a
:class:`~repro.fleet.spec.FleetSpec`, serves completed shards from the
content-addressed cache, dispatches the rest, and merges the partials
into the population :class:`~repro.core.fingerprint.FingerprintReport`.
Every move of a shard into a terminal state goes through the
:class:`~repro.fleet.ledger.ShardLedger`, so the two dispatch loops
only dispatch, watch and reap:

* the inline loop (``workers=1``, or one pending shard) calls
  :func:`run_shard` in this process — no pool, no pickling;
* the pool loop (:class:`_PoolDispatch`) runs shards in a
  ``ProcessPoolExecutor`` when ``workers > 1``, and for any hang fault,
  since a hung worker can only be supervised from outside its process.
  It runs the watchdog (see :mod:`repro.fleet.supervisor`): a worker
  silent past its shard's deadline is reaped and the shard retried.
  A ``BrokenProcessPool`` (an OOM-killed worker) charges the victim an
  attempt, requeues innocent in-flight siblings for free, and rebuilds
  the pool.

Failed attempts retry with exponential backoff up to ``retries`` times
(default 0: byte-identical to the unsupervised path); a shard that
exhausts its budget is quarantined, so a keep-going run still
completes.  Failure contract (mirrors the analysis runner,
:func:`~repro.core.analyses.run_analyses`): every shard runs to
completion regardless of sibling failures; keep-going isolates failures
into :class:`ShardFailure` entries and merges the completed shards,
fail-fast re-raises the first as :class:`FleetError` after the
in-flight siblings finished, so their results still reached the cache.
SIGINT/SIGTERM stop dispatch, reap the workers, journal every
unfinished shard as ``"interrupted"``, flush the telemetry, and
re-raise :class:`~repro.interrupt.RunInterrupted` so the CLI
exits ``128 + signum``; a later ``--resume`` merges byte-identically.

Observability: a ``fleet.run`` span, a ``fleet.shard`` span per shard,
a ``fleet.merge`` span, ``fleet_shards_total{state}``,
``fleet_cache_{hits,misses,writes}_total``, ``fleet_shard_seconds``,
and — only when supervision acts — ``fleet_shard_retries_total``,
``fleet_shards_quarantined_total`` and ``fleet_watchdog_timeouts_total``.
"""

from __future__ import annotations

import functools
import os
import shutil
import tempfile
import time
import traceback as _traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.fingerprint import FingerprintReport
from repro.faults.plan import FaultPlan
from repro.fleet.cache import ShardCache
from repro.fleet.ledger import (
    MANIFEST_NAME,
    ManifestJournal,
    QuarantinedShard,
    ShardFailure,
    ShardLedger,
    ShardState,
    read_header,
)
from repro.fleet.merge import merge_shard_results
from repro.fleet.shard import arm_worker_timer, is_shard_payload, run_shard
from repro.fleet.spec import FleetSpec, ShardRange, code_version
from repro.fleet.supervisor import (
    DEFAULT_RETRY_BACKOFF,
    WATCHDOG_POLL_SECONDS,
    ShardSupervisor,
    ShardTask,
    read_claim_pid,
    reap,
)
from repro.inspector.generate import derive_rng
from repro.obs import Observability, ObsSnapshot, ObsSnapshotError, get_obs
from repro.obs.profile import arm_timer


class FleetError(RuntimeError):
    """A fleet run that cannot proceed (fail-fast shard failure)."""


class FleetConfigError(FleetError):
    """A fleet run that was mis-configured (bad resume state, no cache dir).

    Separate from :class:`FleetError` so the CLI can map configuration
    mistakes to exit 2 and genuine shard failures to exit 1.
    """


@dataclass
class FleetResult:
    """Everything one fleet run produced."""

    spec: FleetSpec
    workers: int
    #: The merged Table 2 report; ``None`` only when *every* shard failed.
    report: Optional[FingerprintReport]
    shard_states: List[ShardState] = field(default_factory=list)
    failures: List[ShardFailure] = field(default_factory=list)
    quarantined: List[QuarantinedShard] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    cache_writes: int = 0
    retries_total: int = 0
    watchdog_timeouts: int = 0
    wall_seconds: float = 0.0
    resumed: bool = False

    @property
    def complete(self) -> bool:
        return not self.failures and not self.quarantined

    @property
    def shards_total(self) -> int:
        return len(self.shard_states)

    def summary(self) -> Dict[str, object]:
        states: Dict[str, int] = {}
        for shard in self.shard_states:
            states[shard.state] = states.get(shard.state, 0) + 1
        return {
            "shards": self.shards_total,
            "states": states,
            "workers": self.workers,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_writes": self.cache_writes,
            "retries": self.retries_total,
            "quarantined": len(self.quarantined),
            "watchdog_timeouts": self.watchdog_timeouts,
            "complete": self.complete,
            "wall_seconds": self.wall_seconds,
            "resumed": self.resumed,
        }


def _planned_worker_faults(spec: FleetSpec, plan: Optional[FaultPlan],
                           shards: List[ShardRange]) -> Dict[int, Dict[str, object]]:
    """Which worker fault (if any) each shard gets, deterministically.

    Explicit indices come straight from the plan; each ``*_rate`` draws
    from a PRNG derived from ``(seed, salt, seed_salt)`` so the same
    (seed, plan) pair schedules the same faults every run.  ``fail_rate``
    keeps its original ``"fleet-faults"`` stream so pre-supervision
    chaos schedules reproduce unchanged; hang/slow draw from their own
    streams.  When a shard is named by several kinds, fail beats hang
    beats slow.
    """
    if plan is None or plan.shards is None or plan.shards.is_noop:
        return {}
    sf = plan.shards
    count = len(shards)

    def rate_hits(salt: str, rate: float) -> set:
        hits = set()
        if rate > 0.0:
            rng = derive_rng(spec.seed, salt, plan.seed_salt)
            for shard in shards:
                if rng.random() < rate:
                    hits.add(shard.index)
        return hits

    fail = {i for i in sf.fail if i < count} | rate_hits("fleet-faults", sf.fail_rate)
    hang = {i for i in sf.hang if i < count} | rate_hits("fleet-faults-hang", sf.hang_rate)
    slow = {i for i in sf.slow if i < count} | rate_hits("fleet-faults-slow", sf.slow_rate)
    planned: Dict[int, Dict[str, object]] = {}
    for index in slow:
        planned[index] = {"kind": "slow", "factor": sf.slow_factor}
    for index in hang:
        planned[index] = {"kind": "hang", "seconds": sf.hang_seconds}
    for index in fail:
        planned[index] = {"kind": "fail"}
    return planned


def _describe(exc: BaseException) -> Tuple[str, str]:
    """A failed attempt's error line and full traceback."""
    return (f"{type(exc).__name__}: {exc}",
            "".join(_traceback.format_exception(type(exc), exc, exc.__traceback__)))


def _teardown_pool(pool: Optional[ProcessPoolExecutor]) -> None:
    """Force a pool down without joining its children.

    A plain ``shutdown(wait=True)`` joins worker processes — with a
    hung or zombie worker that join never returns — so the supervised
    teardown cancels what it can, then SIGKILLs the pool's pids.
    """
    if pool is None:
        return
    pids = list(getattr(pool, "_processes", None) or ())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # noqa: BLE001 - teardown must not raise
        pass
    for pid in pids:
        reap(pid)


class _PoolDispatch:
    """The pool loop: dispatch as backoff gates open, reap, watch, rebuild."""

    def __init__(self, runner: "FleetRunner", ledger: ShardLedger,
                 tasks: List[ShardTask]) -> None:
        self.runner = runner
        self.ledger = ledger
        self.supervisor = ledger.supervisor
        self.queue = deque(tasks)
        self.width = min(runner.workers, len(tasks))
        self.max_rebuilds = len(tasks) * (self.supervisor.retries + 2) + 4
        self.rebuilds = 0
        self.pool: Optional[ProcessPoolExecutor] = None
        self.inflight: Dict[Future, ShardTask] = {}
        #: Futures whose shard was already charged (watchdog verdicts).
        self.abandoned: set = set()
        #: The watchdog reaped a worker, so the next pool break is ours.
        self.expected_break = False
        #: A worker hung before claiming; the pool cannot be joined.
        self.zombies = False
        self.claim_dir = tempfile.mkdtemp(prefix="repro-fleet-claims-")
        for task in tasks:
            task.claim_path = os.path.join(self.claim_dir, f"shard-{task.index}.claim")

    def run(self) -> None:
        try:
            self._loop()
            if self.zombies:
                _teardown_pool(self.pool)
            elif self.pool is not None:
                self.pool.shutdown(wait=True)
        except BaseException:
            # Interrupted or failed: kill claimed workers, never join them.
            for task in self.inflight.values():
                reap(read_claim_pid(task.claim_path))
            _teardown_pool(self.pool)
            raise
        finally:
            shutil.rmtree(self.claim_dir, ignore_errors=True)

    def _new_pool(self) -> ProcessPoolExecutor:
        hz = self.runner.profile_hz
        return ProcessPoolExecutor(max_workers=self.width, initargs=(hz,),
                                   initializer=arm_worker_timer if hz > 0.0 else None)

    def _loop(self) -> None:
        self.pool = self._new_pool()
        while self.queue or self.inflight:
            now = self.supervisor.clock()
            for task in [t for t in self.queue if t.not_before <= now]:
                self.queue.remove(task)
                if not self._submit(task):
                    break
            if not self.inflight:
                pause = min(t.not_before for t in self.queue) - self.supervisor.clock()
                if pause > 0:
                    time.sleep(min(pause, 0.25))
                continue
            done, _ = wait(set(self.inflight), timeout=WATCHDOG_POLL_SECONDS,
                           return_when=FIRST_COMPLETED)
            broken = self._collect(done)
            self._watchdog()
            if broken or getattr(self.pool, "_broken", False):
                self._rebuild(broken)

    def _submit(self, task: ShardTask) -> bool:
        self.supervisor.record_dispatch(task)
        try:
            future = self.pool.submit(run_shard, self.runner._spec_dict, task.start,
                                      task.stop, **self.runner._shard_kwargs(task))
        except BrokenProcessPool:
            # Breakage not yet drained; retry next cycle.
            self.queue.appendleft(task)
            return False
        self.inflight[future] = task
        self.ledger.running(task)
        return True

    def _failed(self, task: ShardTask, error: str, traceback: str = "") -> None:
        if self.ledger.attempt_failed(task, error, traceback):
            self.queue.append(task)

    def _collect(self, done) -> List[ShardTask]:
        """Settle finished futures; returns the tasks a broken pool lost."""
        broken: List[ShardTask] = []
        for future in done:
            task = self.inflight.pop(future)
            if future in self.abandoned:
                self.abandoned.discard(future)
                future.exception()  # observed; already handled
                continue
            try:
                payload = future.result()
            except BrokenProcessPool:
                broken.append(task)
            except Exception as exc:  # noqa: BLE001 - isolated
                self._failed(task, *_describe(exc))
            else:
                self.ledger.completed(task, payload)
        return broken

    def _watchdog(self) -> None:
        """Charge and reap every in-flight worker silent past its deadline."""
        live = {f: t for f, t in self.inflight.items() if f not in self.abandoned}
        for verdict in self.supervisor.overdue(list(live.values())):
            task = verdict.task
            future = next(f for f, t in live.items() if t is task)
            if verdict.pid is None:
                # No claim yet: either still queued inside the pool
                # (cancellable — requeue for free) or a worker hung before
                # claiming (rare; give it one extra deadline, then abandon it).
                if future.cancel():
                    self.inflight.pop(future)
                    task.not_before = 0.0
                    self.queue.append(task)
                elif verdict.silent_seconds > 2 * task.deadline:
                    self.supervisor.note_timeout(task)
                    self.abandoned.add(future)
                    self.zombies = True
                    self._failed(task, task.last_error)
                continue
            self.ledger.timed_out(task, verdict)
            self.abandoned.add(future)
            if reap(verdict.pid):
                self.expected_break = True
            self._failed(task, task.last_error)

    def _rebuild(self, broken: List[ShardTask]) -> None:
        """Drain a broken pool (it finishes nothing), requeue, start a new one."""
        for future, task in self.inflight.items():
            if future in self.abandoned:
                continue
            payload = None
            if future.done() and not future.cancelled():
                try:
                    payload = future.result()
                except BaseException:  # noqa: BLE001
                    payload = None
            if payload is not None:
                self.ledger.completed(task, payload)
            else:
                broken.append(task)
        self.inflight.clear()
        self.abandoned.clear()
        if self.expected_break:
            # The watchdog reaped a worker; its shard was already charged.
            # Innocent in-flight siblings reschedule without consuming an attempt.
            self.expected_break = False
            for task in broken:
                task.not_before = 0.0
                self.queue.append(task)
        else:
            for task in broken:
                self._failed(task, "BrokenProcessPool: a worker process died unexpectedly")
        self.rebuilds += 1
        if self.rebuilds > self.max_rebuilds:
            raise FleetError(f"fleet pool broke {self.rebuilds} times; giving up")
        _teardown_pool(self.pool)
        self.pool = None
        if self.queue:
            if self.ledger.obs.enabled:
                self.ledger.logger.warning("pool_rebuilt", rebuilds=self.rebuilds,
                                           requeued=len(broken))
            self.pool = self._new_pool()


class FleetRunner:
    """Orchestrates one sharded fingerprinting run.

    Parameters mirror the ``repro fleet`` CLI flags; ``workers=None``
    means the CPU count, ``retries`` defaults to 0 (the CLI passes its
    own default of 2), ``shard_deadline=None`` derives each shard's
    deadline from its household count, and ``obs=None`` picks up the
    ambient observability context.
    """

    def __init__(
        self,
        spec: Optional[FleetSpec] = None,
        workers: Optional[int] = None,
        cache_dir: Optional[os.PathLike] = None,
        resume: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        keep_going: bool = True,
        obs: Optional[Observability] = None,
        profile_hz: float = 0.0,
        retries: int = 0,
        retry_backoff: float = DEFAULT_RETRY_BACKOFF,
        shard_deadline: Optional[float] = None,
    ) -> None:
        self.spec = spec if spec is not None else FleetSpec()
        self.workers = max(1, workers if workers is not None else (os.cpu_count() or 1))
        self.cache = ShardCache(cache_dir) if cache_dir is not None else None
        self.resume = resume
        self.fault_plan = fault_plan
        self.keep_going = keep_going
        self.obs = obs if obs is not None else get_obs()
        #: Sampling rate handed to every computed shard's worker-side
        #: profiler; ``0.0`` (the default) keeps workers unprofiled and
        #: their payloads byte-identical to earlier builds.
        self.profile_hz = float(profile_hz)
        self.retries = retries
        if self.retries < 0:
            raise FleetConfigError(f"retries must be >= 0, got {self.retries}")
        self.retry_backoff = float(retry_backoff)
        if self.retry_backoff < 0:
            raise FleetConfigError(
                f"retry backoff must be >= 0, got {self.retry_backoff}")
        self.shard_deadline = shard_deadline
        if shard_deadline is not None and shard_deadline <= 0:
            raise FleetConfigError(
                f"shard deadline must be > 0 seconds, got {shard_deadline}")
        if resume and self.cache is None:
            raise FleetConfigError("--resume requires a cache directory")
        self._spec_dict = self.spec.to_dict()

    @property
    def manifest_path(self) -> Optional[Path]:
        return self.cache.root / MANIFEST_NAME if self.cache is not None else None

    def _check_resume(self) -> bool:
        """Validate the previous run's journal header; True when resuming."""
        if not self.resume:
            return False
        header = read_header(self.manifest_path)
        if header is None:
            raise FleetConfigError(
                f"--resume: no readable manifest in {self.cache.root}; "
                "run once with --cache-dir first")
        if header.get("spec") != self._spec_dict:
            raise FleetConfigError(
                "--resume: cache manifest was written for a different fleet "
                f"spec ({header.get('spec')} != {self._spec_dict})")
        if header.get("code_version") != code_version():
            raise FleetConfigError(
                "--resume: generator/analysis code changed since the previous "
                "run; cached shards are stale (drop --resume to regenerate)")
        return True

    def _shard_kwargs(self, task: ShardTask) -> Dict[str, object]:
        """:func:`run_shard`'s keyword arguments for one attempt of ``task``."""
        # Workers join the parent's NDJSON stream (append mode) when it
        # is file-backed; ``-``/in-memory buses have no path to share.
        return dict(inject_fault=task.fault, profile_hz=self.profile_hz,
                    events_path=getattr(self.obs.events, "path", None),
                    shard_index=task.index, claim_path=task.claim_path)

    # -- the run -------------------------------------------------------------------

    def run(self) -> FleetResult:
        """Run the fleet; guarantees a terminal ``run_end`` event.

        Every exit path of a started run emits exactly one ``run_end``
        with an ``outcome`` of ``"ok"``, ``"failed"``, or
        ``"interrupted"`` (configuration errors raised before dispatch
        emit nothing — no run ever started).
        """
        self._run_end_emitted = False
        disarm = arm_timer(self.profile_hz) if self.profile_hz > 0.0 else None
        try:
            return self._run()
        except KeyboardInterrupt:
            raise  # run_end(outcome="interrupted") already flushed
        except FleetConfigError:
            raise
        except BaseException:
            if not self._run_end_emitted:
                self.obs.events.emit("run_end", kind="fleet",
                                     complete=False, outcome="failed")
            raise
        finally:
            if disarm is not None:
                disarm()

    def _run(self) -> FleetResult:
        """Plan → cache scan → dispatch → merge."""
        obs = self.obs
        started = time.perf_counter()
        resumed = self._check_resume()
        shards = self.spec.shards()
        supervisor = ShardSupervisor(retries=self.retries, backoff=self.retry_backoff,
                                     deadline=self.shard_deadline)
        obs.events.emit("run_start", kind="fleet", seed=self.spec.seed,
                        households=self.spec.households, shards=len(shards),
                        workers=self.workers, resumed=resumed)
        with ExitStack() as stack:
            run_span = None
            if obs.enabled:
                run_span = stack.enter_context(obs.tracer.span(
                    "fleet.run", seed=self.spec.seed, households=self.spec.households,
                    shards=len(shards), workers=self.workers))
                obs.metrics.gauge(
                    "fleet_workers", "process-pool width of the fleet run",
                ).set(self.workers)
            journal = None
            if self.cache is not None:
                journal = ManifestJournal(self.manifest_path, {
                    "spec": self._spec_dict, "code_version": code_version(),
                    "workers": self.workers})
                stack.callback(journal.close)
            ledger = ShardLedger(self.spec, shards, supervisor, obs, self.cache,
                                 journal, run_span)
            try:
                self._dispatch(ledger, self._scan_cache(ledger))
            except KeyboardInterrupt as interrupt:
                self._interrupted(ledger, getattr(interrupt, "signum", 2))
                raise
            self._record_cache_metrics()
            # Fold worker telemetry into this context in shard order,
            # so the merged registry is independent of completion order.
            self._absorb_snapshots(ledger)
            return self._finish(ledger, self._merge(ledger), started, resumed)

    def _scan_cache(self, ledger: ShardLedger) -> List[ShardTask]:
        """Serve every shard the cache already has; returns tasks for the rest."""
        faults = _planned_worker_faults(self.spec, self.fault_plan, ledger.shards)
        tasks: List[ShardTask] = []
        for shard in ledger.shards:
            payload = None
            if self.cache is not None:
                payload = self.cache.load(ledger.keys[shard.index], functools.partial(
                    is_shard_payload, start=shard.start, stop=shard.stop))
            if payload is not None:
                ledger.cached(shard, payload)
            else:
                ledger.queued(shard)
                tasks.append(ledger.supervisor.task_for(shard, faults.get(shard.index)))
        if self.obs.enabled and self.cache is not None:
            ledger.logger.info("cache_scan", hits=self.cache.hits,
                               misses=self.cache.misses)
        return tasks

    def _dispatch(self, ledger: ShardLedger, tasks: List[ShardTask]) -> None:
        """Compute ``tasks`` in the pool loop, or else in the inline loop below."""
        # A hung worker can only be supervised from outside its
        # process, so hang faults force the pool even at workers=1.
        needs_pool = any(t.fault is not None and t.fault.get("kind") == "hang"
                         for t in tasks)
        if tasks and (needs_pool or (self.workers > 1 and len(tasks) > 1)):
            _PoolDispatch(self, ledger, tasks).run()
            return
        queue = deque(tasks)
        supervisor = ledger.supervisor
        while queue:
            task = queue.popleft()
            delay = task.not_before - supervisor.clock()
            if delay > 0:
                time.sleep(delay)
            supervisor.record_dispatch(task)
            ledger.running(task)
            try:
                payload = run_shard(self._spec_dict, task.start, task.stop,
                                    **self._shard_kwargs(task))
            except Exception as exc:  # noqa: BLE001 - isolated
                if ledger.attempt_failed(task, *_describe(exc)):
                    queue.append(task)
            else:
                ledger.completed(task, payload)

    def _merge(self, ledger: ShardLedger) -> Optional[FingerprintReport]:
        """Merge the results in household order; ``None`` when there are none."""
        if not ledger.results:
            return None
        merged = [ledger.results[index] for index in sorted(ledger.results)]
        if not self.obs.enabled:
            return merge_shard_results(self.spec, merged)
        with self.obs.tracer.span("fleet.merge", _parent=ledger.run_span,
                                  shards=len(merged)):
            return merge_shard_results(self.spec, merged)

    def _finish(self, ledger: ShardLedger, report: Optional[FingerprintReport],
                started: float, resumed: bool) -> FleetResult:
        obs, events = self.obs, self.obs.events
        failures, quarantined = ledger.failures, ledger.quarantined
        if (failures or quarantined) and not self.keep_going:
            events.emit("run_end", kind="fleet", shards=len(ledger.shards),
                        failed=len(failures), quarantined=len(quarantined),
                        complete=False, outcome="failed")
            self._run_end_emitted = True
            if failures:
                first = failures[0]
                raise FleetError(
                    f"shard {first.shard} (households [{first.start}, "
                    f"{first.stop})) failed: {first.error}")
            poison = quarantined[0]
            raise FleetError(
                f"shard {poison.shard} (households [{poison.start}, "
                f"{poison.stop})) quarantined after {poison.attempts} "
                f"attempts: {poison.error}")
        cache = self.cache
        result = FleetResult(
            spec=self.spec,
            workers=self.workers,
            report=report,
            shard_states=[ledger.states[index] for index in sorted(ledger.states)],
            failures=failures,
            quarantined=quarantined,
            cache_hits=cache.hits if cache is not None else 0,
            cache_misses=cache.misses if cache is not None else 0,
            cache_writes=cache.writes if cache is not None else 0,
            retries_total=ledger.supervisor.retries_used,
            watchdog_timeouts=ledger.supervisor.watchdog_timeouts,
            wall_seconds=time.perf_counter() - started,
            resumed=resumed,
        )
        if ledger.run_span is not None:
            ledger.run_span.set_attr("failed_shards", len(failures))
            ledger.run_span.set_attr("cache_hits", result.cache_hits)
            if quarantined:
                ledger.run_span.set_attr("quarantined_shards", len(quarantined))
        if obs.enabled:
            ledger.logger.info("run_complete", shards=result.shards_total,
                               failed=len(failures), cache_hits=result.cache_hits,
                               wall_seconds=result.wall_seconds)
        events.emit("run_end", kind="fleet", shards=result.shards_total,
                    failed=len(failures), cache_hits=result.cache_hits,
                    quarantined=len(quarantined),
                    wall_seconds=round(result.wall_seconds, 6),
                    complete=result.complete, outcome="ok")
        self._run_end_emitted = True
        return result

    def _interrupted(self, ledger: ShardLedger, signum: int) -> None:
        """Graceful shutdown after the dispatch loop reaped its workers.

        Journals every unfinished shard as ``"interrupted"``, flushes
        the cache metrics and the absorbed worker telemetry, and emits
        ``run_interrupted`` plus the terminal ``run_end`` with
        ``outcome="interrupted"`` — so ``--metrics-out``/``--events-out``
        artifacts from an interrupted run are complete, and ``--resume``
        picks up from the last checkpoint byte-identically.
        """
        ledger.interrupted()
        self._record_cache_metrics()
        self._absorb_snapshots(ledger)
        if self.obs.enabled:
            ledger.logger.warning(
                "run_interrupted", signum=signum,
                done=sum(1 for s in ledger.states.values()
                         if s.state in ("cached", "completed")),
                shards=len(ledger.shards))
        events = self.obs.events
        events.emit("run_interrupted", kind="fleet", signum=signum, **ledger.progress())
        events.emit("run_end", kind="fleet", shards=len(ledger.shards),
                    failed=len(ledger.failures), quarantined=len(ledger.quarantined),
                    complete=False, outcome="interrupted")
        self._run_end_emitted = True

    # -- observability helpers -----------------------------------------------------

    def _absorb_snapshots(self, ledger: ShardLedger) -> None:
        """Merge every shard's ``ObsSnapshot`` into the parent context.

        Applied in **shard-index order** (not completion order) so the
        merged registry is byte-identical at any worker count; shards
        served from the cache replay their stored snapshot with the
        ``from_cache="true"`` label on every sample and a
        ``from_cache`` attr on their absorbed spans.
        """
        obs = self.obs
        if not obs.enabled:
            return
        for index in sorted(ledger.results):
            raw = ledger.results[index].get("obs")
            if raw is None:
                continue  # pre-snapshot cache entry or foreign payload
            try:
                snapshot = ObsSnapshot.from_dict(raw)
            except ObsSnapshotError as error:
                ledger.logger.warning("snapshot_rejected", shard=index, error=str(error))
                continue
            cached = ledger.states[index].state == "cached"
            snapshot.apply(
                obs,
                extra_labels={"from_cache": "true"} if cached else None,
                span_parent=ledger.run_span,
                span_attrs={"shard": index, "from_cache": str(cached).lower()},
            )

    def _record_cache_metrics(self) -> None:
        obs = self.obs
        if not obs.enabled or self.cache is None:
            return
        obs.metrics.counter(
            "fleet_cache_hits_total", "shard results served from the cache",
        ).inc(self.cache.hits)
        obs.metrics.counter(
            "fleet_cache_misses_total", "shard results absent from the cache",
        ).inc(self.cache.misses)
        obs.metrics.counter(
            "fleet_cache_writes_total", "shard results checkpointed to the cache",
        ).inc(self.cache.writes)


def run_fleet(
    spec: Optional[FleetSpec] = None,
    workers: Optional[int] = None,
    cache_dir: Optional[os.PathLike] = None,
    resume: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    keep_going: bool = True,
    obs: Optional[Observability] = None,
    profile_hz: float = 0.0,
    retries: int = 0,
    retry_backoff: float = DEFAULT_RETRY_BACKOFF,
    shard_deadline: Optional[float] = None,
) -> FleetResult:
    """One-call fleet run; see :class:`FleetRunner` for the knobs."""
    return FleetRunner(
        spec=spec, workers=workers, cache_dir=cache_dir, resume=resume,
        fault_plan=fault_plan, keep_going=keep_going, obs=obs,
        profile_hz=profile_hz, retries=retries, retry_backoff=retry_backoff,
        shard_deadline=shard_deadline,
    ).run()
