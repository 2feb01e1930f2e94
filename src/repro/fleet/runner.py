"""The fleet orchestrator: dispatch shards, cache, merge, observe, supervise.

``FleetRunner`` plans the shard partition from a
:class:`~repro.fleet.spec.FleetSpec`, serves completed shards from the
content-addressed cache, dispatches the rest to a
``ProcessPoolExecutor`` (``workers=1`` runs inline — no pool, no
process overhead), checkpoints each completion, and merges the partials
into the population :class:`~repro.core.fingerprint.FingerprintReport`.

Supervision (see :mod:`repro.fleet.supervisor`): every dispatched shard
carries a wall-clock deadline enforced by a watchdog in the dispatch
loop — a worker silent past its deadline (no claim-file heartbeat) is
declared hung, its process reaped, and the shard rescheduled.  Failed
attempts retry with exponential backoff up to ``retries`` times
(default 0: byte-identical to the unsupervised path); a shard that
exhausts its budget moves to the **poison quarantine**
(:attr:`FleetResult.quarantined`, manifest state ``"quarantined"``) so
a keep-going run still completes.  SIGINT/SIGTERM stop dispatch, flush
the cache/manifest/telemetry, mark in-flight shards ``"interrupted"``
in the manifest, and re-raise
:class:`~repro.fleet.supervisor.RunInterrupted` so the CLI can exit
``128 + signum``; a subsequent ``--resume`` merges byte-identically to
an uninterrupted run.

Failure contract (mirrors the analysis fan-out of
:class:`~repro.core.pipeline.StudyPipeline`): every shard runs to
completion regardless of sibling failures; in keep-going mode failures
are isolated into :class:`ShardFailure` entries and the merge covers
the completed shards (a partial report), in fail-fast mode the first
failure is re-raised as :class:`FleetError` — after the in-flight
siblings finished, so their results still reached the cache.  A
``BrokenProcessPool`` (an OOM-killed or crashed worker process) no
longer aborts the run: the victim's shard consumes an attempt, innocent
in-flight siblings are rescheduled for free, and the pool is rebuilt.

Observability: one ``fleet.run`` span, one ``fleet.shard`` span per
shard (state + worker-measured seconds in attrs),
``fleet_shards_total{state=cached|completed|failed|quarantined|interrupted}``,
``fleet_cache_{hits,misses,writes}_total``, the ``fleet_shard_seconds``
histogram, and — only when supervision acts —
``fleet_shard_retries_total``, ``fleet_shards_quarantined_total``,
``fleet_watchdog_timeouts_total``.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import tempfile
import time
import traceback as _traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.fingerprint import FingerprintReport
from repro.faults.injector import faults_injected_counter
from repro.faults.plan import FaultPlan
from repro.fleet.cache import ShardCache
from repro.fleet.merge import merge_shard_results
from repro.fleet.shard import is_shard_payload, run_shard
from repro.fleet.spec import FleetSpec, ShardRange, code_version, default_workers, shard_key
from repro.fleet.supervisor import (
    DEFAULT_RETRY_BACKOFF,
    WATCHDOG_POLL_SECONDS,
    RunInterrupted,
    ShardSupervisor,
    ShardTask,
    default_shard_retries,
    read_claim_pid,
    reap,
)
from repro.inspector.generate import derive_rng
from repro.obs import Observability, ObsSnapshot, ObsSnapshotError, get_obs

MANIFEST_NAME = "manifest.json"


class FleetError(RuntimeError):
    """A fleet run that cannot proceed (fail-fast shard failure)."""


class FleetConfigError(FleetError):
    """A fleet run that was mis-configured (bad resume state, no cache dir).

    Separate from :class:`FleetError` so the CLI can map configuration
    mistakes to exit 2 and genuine shard failures to exit 1.
    """


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


class FleetRunner:
    """Orchestrates one sharded fingerprinting run.

    Parameters mirror the ``repro fleet`` CLI flags; ``workers=None``
    resolves via ``REPRO_FLEET_WORKERS`` (default: CPU count),
    ``retries=None`` via ``REPRO_FLEET_RETRIES`` (default: 0 — the CLI
    passes its own default of 2), ``shard_deadline=None`` derives each
    shard's deadline from its household count (env override:
    ``REPRO_FLEET_DEADLINE``), and ``obs=None`` picks up the ambient
    observability context.
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
        retries: Optional[int] = None,
        retry_backoff: float = DEFAULT_RETRY_BACKOFF,
        shard_deadline: Optional[float] = None,
    ) -> None:
        self.spec = spec if spec is not None else FleetSpec()
        self.workers = max(1, workers if workers is not None else default_workers())
        self.cache = ShardCache(cache_dir) if cache_dir is not None else None
        self.resume = resume
        self.fault_plan = fault_plan
        self.keep_going = keep_going
        self.obs = obs if obs is not None else get_obs()
        #: Sampling rate handed to every computed shard's worker-side
        #: profiler; ``0.0`` (the default) keeps workers unprofiled and
        #: their payloads byte-identical to earlier builds.
        self.profile_hz = float(profile_hz)
        self.retries = retries if retries is not None else default_shard_retries()
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

    # -- checkpoint manifest -------------------------------------------------------

    @property
    def manifest_path(self) -> Optional[Path]:
        return self.cache.root / MANIFEST_NAME if self.cache is not None else None

    def _load_manifest(self) -> Optional[dict]:
        path = self.manifest_path
        if path is None or not path.exists():
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        return manifest if isinstance(manifest, dict) else None

    def _check_resume(self) -> bool:
        """Validate the previous run's manifest; returns True when resuming."""
        if not self.resume:
            return False
        manifest = self._load_manifest()
        if manifest is None:
            raise FleetConfigError(
                f"--resume: no readable manifest in {self.cache.root}; "
                "run once with --cache-dir first")
        if manifest.get("spec") != self.spec.to_dict():
            raise FleetConfigError(
                "--resume: cache manifest was written for a different fleet "
                f"spec ({manifest.get('spec')} != {self.spec.to_dict()})")
        if manifest.get("code_version") != code_version():
            raise FleetConfigError(
                "--resume: generator/analysis code changed since the previous "
                "run; cached shards are stale (drop --resume to regenerate)")
        return True

    def _write_manifest(self, states: Dict[int, ShardState]) -> None:
        path = self.manifest_path
        if path is None:
            return
        payload = {
            "spec": self.spec.to_dict(),
            "code_version": code_version(),
            "workers": self.workers,
            "shards": {
                str(index): {
                    "start": state.start,
                    "stop": state.stop,
                    "state": state.state,
                    "key": state.key,
                    "seconds": state.seconds,
                    "attempts": state.attempts,
                    "error": state.error,
                }
                for index, state in sorted(states.items())
            },
        }
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-manifest-",
                                   suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # Compact, through the C encoder: the manifest is rewritten
                # after every shard, so its encoding cost grows with the run.
                handle.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- observability helpers -----------------------------------------------------

    def _record_shard(self, parent_span, state: ShardState) -> None:
        obs = self.obs
        if not obs.enabled:
            return
        with obs.tracer.span("fleet.shard", _parent=parent_span,
                             shard=state.index, state=state.state,
                             households=state.stop - state.start,
                             shard_seconds=state.seconds):
            pass
        obs.metrics.counter(
            "fleet_shards_total", "fleet shards by terminal state",
        ).inc(state=state.state)
        if state.state == "completed":
            obs.metrics.histogram(
                "fleet_shard_seconds", "worker-measured seconds per computed shard",
            ).observe(state.seconds)

    def _absorb_snapshots(self, run_span,
                          results: Dict[int, dict],
                          states: Dict[int, ShardState]) -> None:
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
        for index in sorted(results):
            raw = results[index].get("obs")
            if raw is None:
                continue  # pre-snapshot cache entry or foreign payload
            try:
                snapshot = ObsSnapshot.from_dict(raw)
            except ObsSnapshotError as error:
                obs.logger("fleet").warning(
                    "snapshot_rejected", shard=index, error=str(error))
                continue
            cached = states[index].state == "cached"
            snapshot.apply(
                obs,
                extra_labels={"from_cache": "true"} if cached else None,
                span_parent=run_span,
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

    # -- the run -------------------------------------------------------------------

    def run(self) -> FleetResult:
        """Run the fleet; guarantees a terminal ``run_end`` event.

        Every exit path of a started run emits exactly one ``run_end``
        with an ``outcome`` of ``"ok"``, ``"failed"``, or
        ``"interrupted"`` (configuration errors raised before dispatch
        emit nothing — no run ever started).
        """
        self._run_end_emitted = False
        try:
            return self._run()
        except (RunInterrupted, KeyboardInterrupt):
            raise  # run_end(outcome="interrupted") already flushed
        except FleetConfigError:
            raise
        except BaseException:
            if not self._run_end_emitted:
                self.obs.events.emit("run_end", kind="fleet",
                                     complete=False, outcome="failed")
            raise

    def _run(self) -> FleetResult:  # noqa: C901 - the dispatch engine
        obs = self.obs
        started = time.perf_counter()
        resumed = self._check_resume()
        shards = self.spec.shards()
        faults = _planned_worker_faults(self.spec, self.fault_plan, shards)
        spec_dict = self.spec.to_dict()
        # Workers join the parent's NDJSON stream (append mode) when it
        # is file-backed; ``-``/in-memory buses have no path to share.
        events_path = getattr(obs.events, "path", None)

        states: Dict[int, ShardState] = {}
        results: Dict[int, dict] = {}
        failures: List[ShardFailure] = []
        quarantined: List[QuarantinedShard] = []
        supervisor = ShardSupervisor(retries=self.retries,
                                     backoff=self.retry_backoff,
                                     deadline=self.shard_deadline)
        logger = obs.logger("fleet")
        events = obs.events
        events.emit("run_start", kind="fleet", seed=self.spec.seed,
                    households=self.spec.households, shards=len(shards),
                    workers=self.workers, resumed=resumed)

        def progress() -> Dict[str, int]:
            tally = {"done": 0, "cached": 0, "failed": 0, "quarantined": 0}
            for state in states.values():
                if state.state == "completed":
                    tally["done"] += 1
                elif state.state == "cached":
                    tally["cached"] += 1
                elif state.state == "quarantined":
                    tally["quarantined"] += 1
                else:
                    tally["failed"] += 1
            tally["total"] = len(shards)
            return tally

        with ExitStack() as stack:
            run_span = None
            if obs.enabled:
                run_span = stack.enter_context(obs.tracer.span(
                    "fleet.run", seed=self.spec.seed,
                    households=self.spec.households,
                    shards=len(shards), workers=self.workers))
            if obs.enabled:
                obs.metrics.gauge(
                    "fleet_workers", "process-pool width of the fleet run",
                ).set(self.workers)

            # Phase 1: serve every shard the cache already has.
            pending: List[ShardRange] = []
            keys: Dict[int, str] = {}
            for shard in shards:
                key = shard_key(self.spec, shard) if self.cache is not None else None
                keys[shard.index] = key
                payload = None
                if self.cache is not None:
                    payload = self.cache.load(key, functools.partial(
                        is_shard_payload, start=shard.start, stop=shard.stop))
                if payload is not None:
                    results[shard.index] = payload
                    states[shard.index] = ShardState(
                        index=shard.index, start=shard.start, stop=shard.stop,
                        state="cached", key=key,
                        seconds=float(payload.get("seconds", 0.0)))
                    self._record_shard(run_span, states[shard.index])
                    events.emit("shard_cached", shard=shard.index,
                                start=shard.start, stop=shard.stop, **progress())
                else:
                    pending.append(shard)
                    events.emit("shard_queued", shard=shard.index,
                                start=shard.start, stop=shard.stop)
            if obs.enabled and self.cache is not None:
                logger.info("cache_scan", hits=self.cache.hits,
                            misses=self.cache.misses)

            # Phase 2: compute the rest under supervision.
            def record_success(task: ShardTask, payload: dict) -> None:
                results[task.index] = payload
                if self.cache is not None:
                    self.cache.store(keys[task.index], payload)
                states[task.index] = ShardState(
                    index=task.index, start=task.start, stop=task.stop,
                    state="completed", key=keys[task.index],
                    seconds=float(payload.get("seconds", 0.0)),
                    attempts=task.attempts + 1)
                events.emit("shard_done", shard=task.index,
                            start=task.start, stop=task.stop,
                            seconds=states[task.index].seconds, **progress())
                self._record_shard(run_span, states[task.index])
                self._write_manifest(states)
                events.heartbeat(kind="fleet", **progress())

            def attempt_failed(task: ShardTask, error: str,
                               tb: str = "") -> bool:
                """Route one failed attempt; True when the task will retry."""
                verdict = supervisor.on_attempt_failed(task, error, tb)
                if verdict == "retry":
                    backoff = supervisor.backoff_for(task.attempts)
                    if obs.enabled:
                        obs.metrics.counter(
                            "fleet_shard_retries_total",
                            "shard attempts rescheduled after a failure",
                        ).inc()
                        logger.warning("shard_retry", shard=task.index,
                                       attempt=task.attempts, error=error)
                    events.emit("shard_retry", shard=task.index,
                                start=task.start, stop=task.stop,
                                attempt=task.attempts,
                                retries_left=supervisor.retries - task.attempts,
                                backoff_seconds=round(backoff, 6),
                                error=error, **progress())
                    return True
                if supervisor.retries > 0:
                    # Budget exhausted with retries enabled: poison quarantine.
                    quarantined.append(QuarantinedShard(
                        shard=task.index, start=task.start, stop=task.stop,
                        attempts=task.attempts, error=task.last_error))
                    states[task.index] = ShardState(
                        index=task.index, start=task.start, stop=task.stop,
                        state="quarantined", key=keys[task.index],
                        attempts=task.attempts, error=task.last_error)
                    if obs.enabled:
                        obs.metrics.counter(
                            "fleet_shards_quarantined_total",
                            "poison shards that exhausted their retry budget",
                        ).inc()
                        logger.error("shard_quarantined", shard=task.index,
                                     attempts=task.attempts, error=task.last_error)
                    events.emit("shard_quarantined", shard=task.index,
                                start=task.start, stop=task.stop,
                                attempts=task.attempts, error=task.last_error,
                                **progress())
                else:
                    failures.append(ShardFailure(
                        shard=task.index, start=task.start, stop=task.stop,
                        error=task.last_error, traceback=task.last_traceback))
                    states[task.index] = ShardState(
                        index=task.index, start=task.start, stop=task.stop,
                        state="failed", key=keys[task.index],
                        attempts=task.attempts, error=task.last_error)
                    if obs.enabled:
                        logger.error("shard_failed", shard=task.index,
                                     error=task.last_error)
                    events.emit("shard_failed", shard=task.index,
                                start=task.start, stop=task.stop,
                                error=task.last_error, **progress())
                self._record_shard(run_span, states[task.index])
                self._write_manifest(states)
                events.heartbeat(kind="fleet", **progress())
                return False

            def count_injected(task: ShardTask) -> None:
                if task.fault is not None and obs.enabled:
                    faults_injected_counter(obs).inc(
                        kind=f"shard_{task.fault['kind']}")

            tasks = [supervisor.task_for(shard, faults.get(shard.index))
                     for shard in pending]
            # A hung worker can only be supervised from outside its
            # process, so hang faults force the pool even at workers=1.
            needs_pool = any(t.fault is not None and t.fault.get("kind") == "hang"
                             for t in tasks)
            use_pool = bool(tasks) and (needs_pool
                                        or (self.workers > 1 and len(tasks) > 1))

            claim_dir: Optional[str] = None
            pool_box: Dict[str, object] = {"pool": None}
            inflight: Dict[object, ShardTask] = {}
            try:
                if not use_pool:
                    queue = deque(tasks)
                    while queue:
                        task = queue.popleft()
                        delay = task.not_before - supervisor.clock()
                        if delay > 0:
                            time.sleep(delay)
                        supervisor.record_dispatch(task)
                        count_injected(task)
                        events.emit("shard_running", shard=task.index,
                                    start=task.start, stop=task.stop,
                                    attempt=task.next_attempt)
                        try:
                            payload = run_shard(
                                spec_dict, task.start, task.stop,
                                inject_fault=task.fault,
                                profile_hz=self.profile_hz,
                                events_path=events_path,
                                shard_index=task.index)
                        except Exception as exc:  # noqa: BLE001 - isolated
                            if attempt_failed(
                                    task, f"{type(exc).__name__}: {exc}",
                                    "".join(_traceback.format_exception(
                                        type(exc), exc, exc.__traceback__))):
                                queue.append(task)
                        else:
                            record_success(task, payload)
                elif tasks:
                    claim_dir = tempfile.mkdtemp(prefix="repro-fleet-claims-")
                    for task in tasks:
                        task.claim_path = os.path.join(
                            claim_dir, f"shard-{task.index}.claim")
                    width = min(self.workers, len(tasks))
                    pool_box["pool"] = ProcessPoolExecutor(max_workers=width)
                    queue = deque(tasks)
                    abandoned: set = set()
                    expected_break = False
                    zombies = False
                    rebuilds = 0
                    max_rebuilds = len(tasks) * (supervisor.retries + 2) + 4

                    def submit(task: ShardTask) -> bool:
                        supervisor.record_dispatch(task)
                        count_injected(task)
                        try:
                            future = pool_box["pool"].submit(
                                run_shard, spec_dict, task.start, task.stop,
                                inject_fault=task.fault,
                                profile_hz=self.profile_hz,
                                events_path=events_path,
                                shard_index=task.index,
                                claim_path=task.claim_path)
                        except BrokenProcessPool:
                            # Breakage not yet drained; retry next cycle.
                            queue.appendleft(task)
                            return False
                        inflight[future] = task
                        events.emit("shard_running", shard=task.index,
                                    start=task.start, stop=task.stop,
                                    attempt=task.next_attempt)
                        return True

                    while queue or inflight:
                        now = supervisor.clock()
                        for task in [t for t in queue if t.not_before <= now]:
                            queue.remove(task)
                            if not submit(task):
                                break
                        if inflight:
                            done, _ = wait(set(inflight),
                                           timeout=WATCHDOG_POLL_SECONDS,
                                           return_when=FIRST_COMPLETED)
                        else:
                            soonest = min(t.not_before for t in queue)
                            pause = soonest - supervisor.clock()
                            if pause > 0:
                                time.sleep(min(pause, 0.25))
                            continue

                        pool_broke = False
                        broken_tasks: List[ShardTask] = []
                        for future in done:
                            task = inflight.pop(future)
                            if future in abandoned:
                                abandoned.discard(future)
                                future.exception()  # observed; already handled
                                continue
                            try:
                                payload = future.result()
                            except BrokenProcessPool:
                                pool_broke = True
                                broken_tasks.append(task)
                            except Exception as exc:  # noqa: BLE001
                                if attempt_failed(
                                        task, f"{type(exc).__name__}: {exc}",
                                        "".join(_traceback.format_exception(
                                            type(exc), exc, exc.__traceback__))):
                                    queue.append(task)
                            else:
                                record_success(task, payload)

                        # Watchdog scan over what is still in flight.
                        live = {f: t for f, t in inflight.items()
                                if f not in abandoned}
                        for verdict in supervisor.overdue(list(live.values())):
                            task = verdict.task
                            future = next(f for f, t in live.items() if t is task)
                            if verdict.pid is None:
                                # No claim yet: either still queued inside the
                                # pool (cancellable — requeue for free) or a
                                # worker hung before claiming (rare; give it
                                # one extra deadline, then abandon it).
                                if future.cancel():
                                    inflight.pop(future)
                                    task.not_before = 0.0
                                    queue.append(task)
                                elif verdict.silent_seconds > 2 * task.deadline:
                                    supervisor.note_timeout(task)
                                    abandoned.add(future)
                                    zombies = True
                                    if attempt_failed(task, task.last_error):
                                        queue.append(task)
                                continue
                            supervisor.note_timeout(task)
                            if obs.enabled:
                                obs.metrics.counter(
                                    "fleet_watchdog_timeouts_total",
                                    "hung workers reaped by the shard watchdog",
                                ).inc()
                                logger.error(
                                    "watchdog_timeout", shard=task.index,
                                    pid=verdict.pid,
                                    silent_seconds=round(verdict.silent_seconds, 3))
                            events.emit(
                                "watchdog_timeout", shard=task.index,
                                start=task.start, stop=task.stop,
                                pid=verdict.pid,
                                silent_seconds=round(verdict.silent_seconds, 3),
                                deadline=task.deadline)
                            abandoned.add(future)
                            if reap(verdict.pid):
                                expected_break = True
                            if attempt_failed(task, task.last_error):
                                queue.append(task)

                        broken = getattr(pool_box["pool"], "_broken", False)
                        if pool_broke or broken:
                            # Drain everything: a broken pool finishes nothing.
                            for future, task in list(inflight.items()):
                                if future in abandoned:
                                    abandoned.discard(future)
                                    continue
                                payload = None
                                if future.done() and not future.cancelled():
                                    try:
                                        payload = future.result()
                                    except BaseException:  # noqa: BLE001
                                        payload = None
                                if payload is not None:
                                    record_success(task, payload)
                                else:
                                    broken_tasks.append(task)
                            inflight.clear()
                            abandoned.clear()
                            if expected_break:
                                # The watchdog reaped a worker; its shard was
                                # already charged. Innocent in-flight siblings
                                # reschedule without consuming an attempt.
                                expected_break = False
                                for task in broken_tasks:
                                    task.not_before = 0.0
                                    queue.append(task)
                            else:
                                for task in broken_tasks:
                                    if attempt_failed(
                                            task,
                                            "BrokenProcessPool: a worker "
                                            "process died unexpectedly"):
                                        queue.append(task)
                            rebuilds += 1
                            if rebuilds > max_rebuilds:
                                raise FleetError(
                                    f"fleet pool broke {rebuilds} times; "
                                    "giving up")
                            _teardown_pool(pool_box["pool"])
                            pool_box["pool"] = None
                            if queue:
                                if obs.enabled:
                                    logger.warning("pool_rebuilt",
                                                   rebuilds=rebuilds,
                                                   requeued=len(broken_tasks))
                                pool_box["pool"] = ProcessPoolExecutor(
                                    max_workers=width)

                    if zombies:
                        _teardown_pool(pool_box["pool"])
                    elif pool_box["pool"] is not None:
                        pool_box["pool"].shutdown(wait=True)
                    pool_box["pool"] = None
            except (RunInterrupted, KeyboardInterrupt) as interrupt:
                self._flush_interrupted(
                    interrupt, pool_box, inflight, shards, keys, states,
                    results, failures, quarantined, supervisor, run_span,
                    progress)
                raise
            finally:
                if claim_dir is not None:
                    shutil.rmtree(claim_dir, ignore_errors=True)

            self._record_cache_metrics()
            # Fold worker telemetry into this context in shard order,
            # so the merged registry is independent of completion order.
            self._absorb_snapshots(run_span, results, states)

            # Phase 3: merge in household order.
            report: Optional[FingerprintReport] = None
            if results:
                merged = [results[index] for index in sorted(results)]
                if obs.enabled:
                    with obs.tracer.span("fleet.merge", _parent=run_span,
                                         shards=len(merged)):
                        report = merge_shard_results(self.spec, merged)
                else:
                    report = merge_shard_results(self.spec, merged)

            if (failures or quarantined) and not self.keep_going:
                events.emit("run_end", kind="fleet", shards=len(shards),
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

            result = FleetResult(
                spec=self.spec,
                workers=self.workers,
                report=report,
                shard_states=[states[index] for index in sorted(states)],
                failures=failures,
                quarantined=quarantined,
                cache_hits=self.cache.hits if self.cache is not None else 0,
                cache_misses=self.cache.misses if self.cache is not None else 0,
                cache_writes=self.cache.writes if self.cache is not None else 0,
                retries_total=supervisor.retries_used,
                watchdog_timeouts=supervisor.watchdog_timeouts,
                wall_seconds=time.perf_counter() - started,
                resumed=resumed,
            )
            if run_span is not None:
                run_span.set_attr("failed_shards", len(failures))
                run_span.set_attr("cache_hits", result.cache_hits)
                if quarantined:
                    run_span.set_attr("quarantined_shards", len(quarantined))
            if obs.enabled:
                logger.info("run_complete", shards=result.shards_total,
                            failed=len(failures), cache_hits=result.cache_hits,
                            wall_seconds=result.wall_seconds)
            events.emit("run_end", kind="fleet", shards=result.shards_total,
                        failed=len(failures), cache_hits=result.cache_hits,
                        quarantined=len(quarantined),
                        wall_seconds=round(result.wall_seconds, 6),
                        complete=result.complete, outcome="ok")
            self._run_end_emitted = True
            return result

    def _flush_interrupted(self, interrupt, pool_box, inflight, shards, keys,
                           states, results, failures, quarantined, supervisor,
                           run_span, progress) -> None:
        """Graceful-shutdown path: checkpoint everything, then unwind.

        Reaps claimed workers (their pool would otherwise be joined at
        interpreter exit), marks every shard without a terminal state
        ``"interrupted"`` in the manifest, flushes cache metrics and the
        absorbed worker telemetry, and emits ``run_interrupted`` plus
        the terminal ``run_end`` with ``outcome="interrupted"`` — so
        ``--metrics-out``/``--events-out`` artifacts from an interrupted
        run are complete, and ``--resume`` picks up from the last
        checkpoint byte-identically.
        """
        obs = self.obs
        events = obs.events
        signum = getattr(interrupt, "signum", 2)
        for task in inflight.values():
            reap(read_claim_pid(task.claim_path))
        _teardown_pool(pool_box.get("pool"))
        pool_box["pool"] = None
        for shard in shards:
            if shard.index not in states:
                states[shard.index] = ShardState(
                    index=shard.index, start=shard.start, stop=shard.stop,
                    state="interrupted", key=keys.get(shard.index))
                self._record_shard(run_span, states[shard.index])
        self._write_manifest(states)
        self._record_cache_metrics()
        self._absorb_snapshots(run_span, results, states)
        if obs.enabled:
            obs.logger("fleet").warning(
                "run_interrupted", signum=signum,
                done=sum(1 for s in states.values()
                         if s.state in ("cached", "completed")),
                shards=len(shards))
        events.emit("run_interrupted", kind="fleet", signum=signum, **progress())
        events.emit("run_end", kind="fleet", shards=len(shards),
                    failed=len(failures), quarantined=len(quarantined),
                    complete=False, outcome="interrupted")
        self._run_end_emitted = True


def run_fleet(
    spec: Optional[FleetSpec] = None,
    workers: Optional[int] = None,
    cache_dir: Optional[os.PathLike] = None,
    resume: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    keep_going: bool = True,
    obs: Optional[Observability] = None,
    profile_hz: float = 0.0,
    retries: Optional[int] = None,
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
