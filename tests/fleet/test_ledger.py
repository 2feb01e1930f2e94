"""The shard ledger and the manifest journal.

The ledger is driven with hand-made tasks (no worker, no process): each
transition must leave its state, result, cache entry, journal line and
events.  The journal tests run real fleets: a run served entirely from
the cache still writes its own header, and a torn last line does not
stop ``--resume``.
"""

from __future__ import annotations

import json

import pytest

from repro.fleet import FleetConfigError, FleetSpec, ShardCache, run_fleet
from repro.fleet.ledger import (
    MANIFEST_NAME,
    ManifestJournal,
    ShardLedger,
    read_header,
)
from repro.fleet.supervisor import ShardSupervisor, TimeoutVerdict
from repro.obs import MetricsRegistry, Tracer
from repro.obs.context import Observability
from repro.obs.events import EventBus
from repro.obs.logging import NullLogManager

HEADER = {"spec": {"seed": 1}, "code_version": "v", "workers": 1}
PAYLOAD = {"start": 0, "stop": 32, "seconds": 0.25}


def _journal(path):
    header, *lines = map(json.loads, path.read_text(encoding="utf-8").splitlines())
    return header, lines


@pytest.fixture
def obs():
    return Observability(metrics=MetricsRegistry(), tracer=Tracer(),
                         logs=NullLogManager(), enabled=True, events=EventBus())


@pytest.fixture
def events(obs):
    records = []
    obs.events.subscribe(records.append)
    return records


def _ledger(tmp_path, obs, small_spec, retries=0):
    cache = ShardCache(tmp_path)
    journal = ManifestJournal(tmp_path / MANIFEST_NAME, HEADER)
    supervisor = ShardSupervisor(retries=retries, backoff=0.0)
    return ShardLedger(small_spec, small_spec.shards(), supervisor, obs,
                       cache, journal), journal


class TestShardLedger:
    def test_cached_and_completed(self, tmp_path, obs, events, small_spec):
        ledger, journal = _ledger(tmp_path, obs, small_spec)
        first, second = small_spec.shards()[:2]
        ledger.cached(first, PAYLOAD)
        task = ledger.supervisor.task_for(second)
        ledger.completed(task, {**PAYLOAD, "start": 32, "stop": 64})
        journal.close()

        assert ledger.results[0] is PAYLOAD
        assert ledger.states[0].state == "cached"
        assert ledger.states[0].attempts == 0
        assert ledger.states[1].state == "completed"
        assert ledger.states[1].attempts == 1
        assert ledger.states[1].seconds == 0.25
        assert ledger.cache.load(ledger.keys[1]) == {**PAYLOAD, "start": 32, "stop": 64}
        assert ledger.cache.writes == 1
        assert ledger.progress() == {"done": 1, "cached": 1, "failed": 0,
                                     "quarantined": 0, "total": 3}
        names = [record["event"] for record in events]
        assert names[:2] == ["shard_cached", "shard_done"]
        assert events[1]["done"] == 1 and events[1]["cached"] == 1

        header, lines = _journal(tmp_path / MANIFEST_NAME)
        assert header == HEADER
        assert [(line["index"], line["state"]) for line in lines] == [
            (0, "cached"), (1, "completed")]
        assert sorted(lines[1]) == ["attempts", "error", "index", "key",
                                    "seconds", "start", "state", "stop"]
        assert lines[1]["key"] == ledger.keys[1]

    def test_retry_then_quarantine(self, tmp_path, obs, events, small_spec):
        ledger, journal = _ledger(tmp_path, obs, small_spec, retries=1)
        task = ledger.supervisor.task_for(small_spec.shards()[1])
        assert ledger.attempt_failed(task, "RuntimeError: boom") is True
        assert 1 not in ledger.states
        assert ledger.attempt_failed(task, "RuntimeError: again") is False
        journal.close()

        assert ledger.failures == []
        assert [(q.shard, q.attempts, q.error) for q in ledger.quarantined] == [
            (1, 2, "RuntimeError: again")]
        assert ledger.states[1].state == "quarantined"
        assert ledger.cache.writes == 0
        names = [record["event"] for record in events]
        assert names[:2] == ["shard_retry", "shard_quarantined"]
        assert events[0]["retries_left"] == 0
        _, lines = _journal(tmp_path / MANIFEST_NAME)
        assert [(line["index"], line["state"], line["attempts"]) for line in lines] == [
            (1, "quarantined", 2)]

    def test_failure_without_retries(self, tmp_path, obs, events, small_spec):
        ledger, journal = _ledger(tmp_path, obs, small_spec)
        task = ledger.supervisor.task_for(small_spec.shards()[2])
        assert ledger.attempt_failed(task, "RuntimeError: boom", "tb") is False
        journal.close()

        assert [(f.shard, f.error, f.traceback) for f in ledger.failures] == [
            (2, "RuntimeError: boom", "tb")]
        assert ledger.quarantined == []
        assert ledger.states[2].error == "RuntimeError: boom"
        assert events[0]["event"] == "shard_failed"
        assert ledger.progress()["failed"] == 1

    def test_interrupted_settles_only_unfinished_shards(self, tmp_path, obs,
                                                        small_spec):
        ledger, journal = _ledger(tmp_path, obs, small_spec)
        ledger.cached(small_spec.shards()[0], PAYLOAD)
        ledger.interrupted()
        journal.close()

        assert {i: s.state for i, s in ledger.states.items()} == {
            0: "cached", 1: "interrupted", 2: "interrupted"}
        _, lines = _journal(tmp_path / MANIFEST_NAME)
        assert [line["state"] for line in lines] == [
            "cached", "interrupted", "interrupted"]
        spans = obs.tracer.find("fleet.shard")
        assert [span.attrs["state"] for span in spans] == [
            "cached", "interrupted", "interrupted"]

    def test_watchdog_timeout_is_recorded(self, obs, events, small_spec):
        ledger = ShardLedger(small_spec, small_spec.shards(),
                             ShardSupervisor(deadline=5.0), obs)
        task = ledger.supervisor.task_for(small_spec.shards()[0])
        ledger.timed_out(task, TimeoutVerdict(task=task, silent_seconds=6.5, pid=42))
        assert ledger.supervisor.watchdog_timeouts == 1
        assert "WatchdogTimeout" in task.last_error
        assert events[0]["event"] == "watchdog_timeout"
        assert events[0]["pid"] == 42 and events[0]["silent_seconds"] == 6.5

    def test_no_cache_means_no_keys(self, obs, small_spec):
        ledger = ShardLedger(small_spec, small_spec.shards(), ShardSupervisor(), obs)
        ledger.cached(small_spec.shards()[0], PAYLOAD)
        assert ledger.keys == {0: None, 1: None, 2: None}
        assert ledger.states[0].key is None


class TestManifestJournal:
    def test_header_replaces_the_previous_journal(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        path.write_text('{"old": true}\n{"index": 0}\n', encoding="utf-8")
        ManifestJournal(path, HEADER).close()
        assert path.read_text(encoding="utf-8") == (
            '{"code_version":"v","spec":{"seed":1},"workers":1}\n')
        assert read_header(path) == HEADER
        assert [p.name for p in tmp_path.iterdir()] == [MANIFEST_NAME]

    @pytest.mark.parametrize("raw", ["", "[]\n", "not json\n", "\xff\n"])
    def test_unreadable_headers(self, tmp_path, raw):
        path = tmp_path / MANIFEST_NAME
        path.write_text(raw, encoding="latin-1")
        assert read_header(path) is None
        assert read_header(tmp_path / "missing.ndjson") is None

    def test_run_served_from_the_cache_writes_its_own_header(self, tmp_path):
        """Run B reuses run A's one shard under another shard size; its
        own header must replace A's, or resuming B is refused."""
        run_a = FleetSpec(seed=5, households=40, target_devices=120, shard_size=64)
        run_b = FleetSpec(seed=5, households=40, target_devices=120, shard_size=128)
        run_fleet(run_a, workers=1, cache_dir=tmp_path)
        cold = run_fleet(run_b, workers=1, cache_dir=tmp_path)
        assert cold.cache_hits == 1

        resumed = run_fleet(run_b, workers=1, cache_dir=tmp_path, resume=True)
        assert resumed.resumed and resumed.complete
        assert resumed.report.to_json() == cold.report.to_json()
        header, lines = _journal(tmp_path / MANIFEST_NAME)
        assert header["spec"] == run_b.to_dict()
        assert [line["state"] for line in lines] == ["cached"]

    def test_torn_last_line_still_resumes(self, tmp_path, small_spec,
                                          small_serial_report):
        run_fleet(small_spec, workers=1, cache_dir=tmp_path)
        path = tmp_path / MANIFEST_NAME
        raw = path.read_text(encoding="utf-8")
        last = raw.rstrip("\n").rsplit("\n", 1)[1]
        path.write_text(raw[:len(raw) - 1 - len(last) // 2], encoding="utf-8")
        with pytest.raises(ValueError):
            json.loads(path.read_text(encoding="utf-8").splitlines()[-1])

        resumed = run_fleet(small_spec, workers=1, cache_dir=tmp_path, resume=True)
        assert resumed.complete and resumed.cache_hits == 3
        assert resumed.report.to_json() == small_serial_report.to_json()

    def test_old_json_manifest_is_ignored(self, tmp_path, small_spec):
        run_fleet(small_spec, workers=1, cache_dir=tmp_path)
        (tmp_path / MANIFEST_NAME).rename(tmp_path / "manifest.json")
        with pytest.raises(FleetConfigError, match="no readable manifest"):
            run_fleet(small_spec, workers=1, cache_dir=tmp_path, resume=True)
