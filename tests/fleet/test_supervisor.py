"""Run supervision: deadlines, retries, quarantine, graceful shutdown.

Unit coverage for :mod:`repro.fleet.supervisor` (policy objects, the
claim-file heartbeat channel) and :mod:`repro.interrupt` (signal
conversion), plus the integration contracts from the runner: transient
failures retry to a byte-identical report, poison shards quarantine,
hung workers are reaped within their deadline, a SIGTERM'd CLI run
exits 143 with a flushed journal, and a ``--resume`` after any
interruption merges byte-identically.
"""

from __future__ import annotations

import glob
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import repro
from repro.faults import FaultPlan
from repro.fleet import FleetError, FleetSpec, default_shard_deadline, run_fleet
from repro.fleet.runner import MANIFEST_NAME, FleetConfigError, FleetRunner
from repro.fleet.spec import ShardRange
from repro.fleet.supervisor import (
    MIN_SHARD_DEADLINE,
    ShardSupervisor,
    WorkerClaim,
    claim_age,
    read_claim_pid,
    reap,
)
from repro.interrupt import RunInterrupted, interrupt_guard
from repro.obs import MetricsRegistry, Tracer, use_obs
from repro.obs.context import Observability
from repro.obs.events import EventBus
from repro.obs.logging import NullLogManager


def _journal_states(path: Path) -> dict:
    """Shard index -> state, from a manifest journal's shard lines."""
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return {entry["index"]: entry["state"] for entry in map(json.loads, lines)}


def _obs_with_bus() -> Observability:
    return Observability(metrics=MetricsRegistry(), tracer=Tracer(),
                         logs=NullLogManager(), enabled=True,
                         events=EventBus())


class TestDeadlinePolicy:
    def test_derived_deadline_scales_with_households(self):
        assert default_shard_deadline(1000) == 500.0
        assert default_shard_deadline(10) == MIN_SHARD_DEADLINE

    def test_runner_rejects_bad_supervision_config(self, small_spec):
        with pytest.raises(FleetConfigError):
            FleetRunner(small_spec, retries=-1)
        with pytest.raises(FleetConfigError):
            FleetRunner(small_spec, retry_backoff=-0.5)
        with pytest.raises(FleetConfigError):
            FleetRunner(small_spec, shard_deadline=0.0)


class TestRetryPolicy:
    def test_backoff_doubles_per_failed_attempt(self):
        sup = ShardSupervisor(retries=3, backoff=0.5)
        assert [sup.backoff_for(n) for n in (1, 2, 3)] == [0.5, 1.0, 2.0]
        assert ShardSupervisor(backoff=0.0).backoff_for(5) == 0.0

    def test_attempts_consume_budget_then_exhaust(self):
        sup = ShardSupervisor(retries=2, backoff=0.5, clock=lambda: 100.0)
        task = sup.task_for(ShardRange(index=0, start=0, stop=32))
        assert sup.on_attempt_failed(task, "boom") == "retry"
        assert task.not_before == 100.5
        assert sup.on_attempt_failed(task, "boom") == "retry"
        assert task.not_before == 101.0  # second wait doubles
        assert sup.on_attempt_failed(task, "boom") == "exhausted"
        assert task.attempts == 3
        assert sup.retries_used == 2
        assert task.last_error == "boom"

    def test_zero_retries_exhaust_immediately(self):
        sup = ShardSupervisor(retries=0)
        task = sup.task_for(ShardRange(index=0, start=0, stop=32))
        assert sup.on_attempt_failed(task, "boom") == "exhausted"
        assert sup.retries_used == 0


class TestWorkerClaim:
    def test_acquire_writes_pid_and_fresh_mtime(self, tmp_path):
        path = str(tmp_path / "shard-0.claim")
        WorkerClaim.acquire(path)
        assert read_claim_pid(path) == os.getpid()
        assert claim_age(path) < 5.0

    def test_touch_bumps_mtime(self, tmp_path):
        path = str(tmp_path / "shard-0.claim")
        claim = WorkerClaim.acquire(path)
        stale = time.time() - 100.0
        os.utime(path, (stale, stale))
        assert claim_age(path) > 90.0
        claim.touch()
        assert claim_age(path) < 5.0

    def test_missing_or_garbage_claims_read_as_none(self, tmp_path):
        gone = str(tmp_path / "never-written.claim")
        assert read_claim_pid(gone) is None
        assert claim_age(gone) is None
        garbage = tmp_path / "garbage.claim"
        garbage.write_text("not json", encoding="utf-8")
        assert read_claim_pid(str(garbage)) is None

    def test_pathless_claim_is_inert(self):
        claim = WorkerClaim.acquire(None)
        claim.touch()  # must not raise
        assert read_claim_pid(None) is None
        assert claim_age(None) is None


class TestWatchdogScan:
    def test_silence_measured_from_dispatch_without_claim(self, tmp_path):
        clock = {"t": 0.0}
        sup = ShardSupervisor(deadline=10.0, clock=lambda: clock["t"])
        task = sup.task_for(ShardRange(index=0, start=0, stop=32),
                            claim_path=str(tmp_path / "x.claim"))
        sup.record_dispatch(task)
        clock["t"] = 5.0
        assert sup.overdue([task]) == []
        clock["t"] = 11.0
        verdicts = sup.overdue([task])
        assert len(verdicts) == 1
        assert verdicts[0].pid is None  # no worker ever claimed

    def test_heartbeating_worker_is_never_declared_hung(self, tmp_path):
        clock = {"t": 0.0}
        sup = ShardSupervisor(deadline=10.0, clock=lambda: clock["t"])
        task = sup.task_for(ShardRange(index=0, start=0, stop=32),
                            claim_path=str(tmp_path / "x.claim"))
        sup.record_dispatch(task)
        WorkerClaim.acquire(task.claim_path)  # fresh wall-clock mtime
        clock["t"] = 1000.0  # far past any deadline on the monotonic axis
        assert sup.overdue([task]) == []

    def test_stale_claim_is_overdue_with_pid(self, tmp_path):
        sup = ShardSupervisor(deadline=10.0)
        task = sup.task_for(ShardRange(index=0, start=0, stop=32),
                            claim_path=str(tmp_path / "x.claim"))
        sup.record_dispatch(task)
        WorkerClaim.acquire(task.claim_path)
        stale = time.time() - 60.0
        os.utime(task.claim_path, (stale, stale))
        verdicts = sup.overdue([task])
        assert len(verdicts) == 1
        assert verdicts[0].pid == os.getpid()
        assert verdicts[0].silent_seconds > 10.0

    def test_note_timeout_records_the_verdict(self):
        sup = ShardSupervisor(deadline=5.0)
        task = sup.task_for(ShardRange(index=0, start=0, stop=32))
        sup.note_timeout(task)
        assert sup.watchdog_timeouts == 1
        assert "WatchdogTimeout" in task.last_error
        assert "5.0s" in task.last_error


class TestInterruptConversion:
    def test_exit_codes_follow_128_plus_signum(self):
        assert RunInterrupted(signal.SIGINT).exit_code == 130
        assert RunInterrupted(signal.SIGTERM).exit_code == 143
        assert isinstance(RunInterrupted(), KeyboardInterrupt)

    def test_guard_turns_sigterm_into_run_interrupted(self):
        with pytest.raises(RunInterrupted) as excinfo:
            with interrupt_guard():
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(5.0)  # interrupted long before this elapses
        assert excinfo.value.signum == signal.SIGTERM
        assert excinfo.value.exit_code == 143

    def test_guard_restores_previous_handlers(self):
        before = signal.getsignal(signal.SIGTERM)
        with interrupt_guard():
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before

    def test_guard_is_a_no_op_off_the_main_thread(self):
        import threading

        before = signal.getsignal(signal.SIGTERM)
        entered = []

        def guarded():
            with interrupt_guard():
                entered.append(signal.getsignal(signal.SIGTERM))

        thread = threading.Thread(target=guarded)
        thread.start()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert entered == [before]
        assert signal.getsignal(signal.SIGTERM) is before

    def test_reap_refuses_bad_targets(self):
        assert reap(None) is False
        assert reap(0) is False
        assert reap(os.getpid()) is False

    def test_reap_kills_a_live_child(self):
        child = subprocess.Popen([sys.executable, "-c",
                                  "import time; time.sleep(60)"])
        try:
            assert reap(child.pid) is True
            assert child.wait(timeout=10) == -signal.SIGKILL
        finally:
            if child.poll() is None:  # pragma: no cover - reap failed
                child.kill()


class TestRetryIntegration:
    def test_transient_failure_retries_to_identical_bytes(
            self, small_spec, small_serial_report, monkeypatch):
        """A shard that crashes once and then succeeds must not change
        the merged report by a byte."""
        import repro.fleet.runner as runner_mod

        real = runner_mod.run_shard
        crashed = {"done": False}

        def flaky(spec_dict, start, stop, **kwargs):
            if start == 32 and not crashed["done"]:
                crashed["done"] = True
                raise RuntimeError("transient worker crash")
            return real(spec_dict, start, stop, **kwargs)

        monkeypatch.setattr(runner_mod, "run_shard", flaky)
        result = run_fleet(small_spec, workers=1, retries=2,
                           retry_backoff=0.01)
        assert crashed["done"]
        assert result.complete
        assert result.retries_total == 1
        attempts = {s.index: s.attempts for s in result.shard_states}
        assert attempts == {0: 1, 1: 2, 2: 1}
        assert result.report.to_json() == small_serial_report.to_json()

    def test_poison_shard_quarantined_after_budget(self, small_spec):
        plan = FaultPlan.from_dict({"shards": {"fail": [1]}})
        result = run_fleet(small_spec, workers=1, fault_plan=plan,
                           retries=2, retry_backoff=0.01)
        assert not result.complete
        assert result.failures == []
        assert [q.shard for q in result.quarantined] == [1]
        poison = result.quarantined[0]
        assert poison.attempts == 3
        assert "ShardFaultInjected" in poison.error
        states = {s.index: s.state for s in result.shard_states}
        assert states == {0: "completed", 1: "quarantined", 2: "completed"}
        # The merge covers the surviving shards only.
        assert result.report.dataset_households == small_spec.households - 32

    def test_fail_fast_raises_on_quarantine(self, small_spec):
        plan = FaultPlan.from_dict({"shards": {"fail": [1]}})
        with pytest.raises(FleetError, match="quarantined after 3 attempts"):
            run_fleet(small_spec, workers=1, fault_plan=plan, retries=2,
                      retry_backoff=0.01, keep_going=False)

    def test_supervision_flags_leave_clean_run_bytes_alone(
            self, small_spec, small_serial_report):
        result = run_fleet(small_spec, workers=2, retries=2,
                           retry_backoff=0.01, shard_deadline=120.0)
        assert result.complete
        assert result.retries_total == 0
        assert result.watchdog_timeouts == 0
        assert result.report.to_json() == small_serial_report.to_json()


class TestWorkerFaults:
    def test_hung_worker_reaped_retried_and_quarantined(self, small_spec):
        """The full supervision story on one poison shard: the watchdog
        reaps the hung worker within its deadline, the retry hangs
        again, the budget exhausts, the siblings (rescheduled when the
        reap broke the pool) still complete."""
        plan = FaultPlan.from_dict(
            {"shards": {"hang": [1], "hang_seconds": 60.0}})
        started = time.monotonic()
        result = run_fleet(small_spec, workers=2, fault_plan=plan,
                           retries=1, retry_backoff=0.01, shard_deadline=3.0)
        wall = time.monotonic() - started
        assert result.watchdog_timeouts == 2  # first attempt + its retry
        assert [q.shard for q in result.quarantined] == [1]
        assert result.quarantined[0].attempts == 2
        assert "WatchdogTimeout" in result.quarantined[0].error
        states = {s.index: s.state for s in result.shard_states}
        assert states[0] == "completed" and states[2] == "completed"
        # Bounded: attempts x deadline plus pool spawn/rebuild slack,
        # nowhere near the 60s the fault wanted to sleep.
        assert wall < 45.0

    def test_slow_worker_heartbeats_past_its_deadline(
            self, small_spec, small_serial_report):
        """A dragging-but-alive worker must never be reaped: the claim
        heartbeats keep it off the watchdog's list even when its total
        runtime exceeds the deadline budget."""
        plan = FaultPlan.from_dict(
            {"shards": {"slow": [0], "slow_factor": 2.0}})
        result = run_fleet(small_spec, workers=2, fault_plan=plan,
                           shard_deadline=20.0)
        assert result.complete
        assert result.watchdog_timeouts == 0
        assert result.report.to_json() == small_serial_report.to_json()


class TestBrokenPoolRecovery:
    def test_unexpected_worker_death_is_absorbed(self, small_spec,
                                                 small_serial_report):
        """SIGKILLing a worker mid-shard (the OOM-killer scenario) breaks
        the pool; the runner must charge an attempt, rebuild, and finish
        with byte-identical output."""
        state = {"killed": False}

        def killer(record):
            if state["killed"] or record["event"] != "shard_running":
                return
            pattern = os.path.join(tempfile.gettempdir(),
                                   "repro-fleet-claims-*",
                                   f"shard-{record['shard']}.claim")
            deadline = time.time() + 10.0
            while time.time() < deadline:
                for path in glob.glob(pattern):
                    pid = read_claim_pid(path)
                    if pid:
                        try:
                            os.kill(pid, signal.SIGKILL)
                        except OSError:  # pragma: no cover - already gone
                            return
                        state["killed"] = True
                        return
                time.sleep(0.02)

        obs = _obs_with_bus()
        obs.events.subscribe(killer)
        result = run_fleet(small_spec, workers=2, retries=2,
                           retry_backoff=0.01, obs=obs)
        assert state["killed"]
        assert result.complete
        assert result.report.to_json() == small_serial_report.to_json()


class TestGracefulShutdown:
    def test_interrupt_during_retry_never_marks_shard_done(
            self, tmp_path, small_spec, small_serial_report):
        """Kill the run between attempt 1 and attempt 2 of a retrying
        shard: the journal must record it as interrupted — never done —
        and a plain ``--resume`` reproduces the clean report exactly."""
        plan = FaultPlan.from_dict({"shards": {"fail": [1]}})
        records = []

        def bomb(record):
            records.append(record)
            if record["event"] == "shard_retry":
                raise RunInterrupted(signal.SIGTERM)

        obs = _obs_with_bus()
        obs.events.subscribe(bomb)
        with pytest.raises(RunInterrupted) as excinfo:
            run_fleet(small_spec, workers=1, cache_dir=tmp_path,
                      fault_plan=plan, retries=2, retry_backoff=0.01,
                      obs=obs)
        assert excinfo.value.exit_code == 143

        states = _journal_states(tmp_path / MANIFEST_NAME)
        assert states[1] == "interrupted"
        assert states[0] == "completed"
        names = [record["event"] for record in records]
        assert names[-2:] == ["run_interrupted", "run_end"]
        assert records[-1]["outcome"] == "interrupted"
        assert records[-2]["signum"] == signal.SIGTERM

        second = run_fleet(small_spec, workers=1, cache_dir=tmp_path,
                           resume=True)
        assert second.resumed and second.complete
        assert second.cache_hits == 1  # only shard 0 was checkpointed
        assert second.report.to_json() == small_serial_report.to_json()

    def test_sigterm_cli_run_exits_143_and_resumes_byte_identically(
            self, tmp_path):
        """The acceptance path end to end: SIGTERM a live ``repro
        fleet`` process, observe exit 143 + a flushed journal + the
        terminal NDJSON records, then resume to the clean bytes."""
        spec = FleetSpec(seed=5, households=288, target_devices=900,
                         shard_size=16)
        cache = tmp_path / "cache"
        events_path = tmp_path / "events.ndjson"
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "sys.exit(main(['fleet', '--seed', '5', '--households', '288',\n"
            "               '--target-devices', '900', '--shard-size', '16',\n"
            "               '--workers', '1', '--no-progress',\n"
            "               '--cache-dir', sys.argv[1],\n"
            "               '--events-out', sys.argv[2]]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        child = subprocess.Popen(
            [sys.executable, "-c", script, str(cache), str(events_path)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            # Wait for the first checkpointed shard, then pull the plug.
            deadline = time.time() + 60.0
            while time.time() < deadline:
                if child.poll() is not None:
                    break
                if list(cache.glob("shard-*.json")):
                    break
                time.sleep(0.02)
            assert child.poll() is None, "run finished before SIGTERM landed"
            child.send_signal(signal.SIGTERM)
            stderr = child.communicate(timeout=60)[1].decode()
        finally:
            if child.poll() is None:  # pragma: no cover - shutdown hung
                child.kill()
        assert child.returncode == 143
        assert "interrupted (exit 143)" in stderr

        states = set(_journal_states(cache / MANIFEST_NAME).values())
        assert "interrupted" in states  # dispatch stopped mid-run
        records = [json.loads(line) for line in
                   events_path.read_text().splitlines()]
        names = [record["event"] for record in records]
        assert "run_interrupted" in names
        assert names[-1] == "run_end"
        assert records[-1]["outcome"] == "interrupted"

        resumed = run_fleet(spec, workers=1, cache_dir=cache, resume=True)
        assert resumed.resumed and resumed.complete
        assert resumed.cache_hits >= 1  # the pre-SIGTERM checkpoints held
        clean = run_fleet(spec, workers=1)
        assert resumed.report.to_json() == clean.report.to_json()
