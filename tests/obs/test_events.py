"""Tests for the NDJSON event bus (``repro.obs.events``)."""

import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.obs import EventBus, NullEventBus, open_event_stream, process_stats
from repro.obs.events import SCHEMA_VERSION


def _records(sink: io.StringIO):
    return [json.loads(line) for line in sink.getvalue().splitlines()]


class TestEventBus:
    def test_emit_writes_schema_versioned_ndjson(self):
        sink = io.StringIO()
        bus = EventBus(sink, clock=lambda: 1234.5)
        bus.emit("run_start", kind="study", seed=7)
        bus.emit("stage_start", stage="build")
        records = _records(sink)
        assert [r["event"] for r in records] == ["run_start", "stage_start"]
        first = records[0]
        assert first["v"] == SCHEMA_VERSION
        assert first["wall"] == 1234.5
        assert first["seed"] == 7 and first["kind"] == "study"
        assert isinstance(first["pid"], int)

    def test_seq_is_monotonic_from_one(self):
        sink = io.StringIO()
        bus = EventBus(sink)
        for _ in range(5):
            bus.emit("tick")
        assert [r["seq"] for r in _records(sink)] == [1, 2, 3, 4, 5]

    def test_subscribers_see_every_record(self):
        seen = []
        bus = EventBus(None)
        bus.subscribe(seen.append)
        bus.emit("shard_done", shard=2)
        assert len(seen) == 1
        assert seen[0]["event"] == "shard_done" and seen[0]["shard"] == 2

    def test_heartbeat_is_throttled(self):
        now = [50.0]
        sink = io.StringIO()
        bus = EventBus(sink, clock=lambda: now[0])
        bus.heartbeat(kind="fleet")       # past the (epoch) interval: fires
        bus.heartbeat(kind="fleet")       # same instant: suppressed
        now[0] = 100.0
        bus.heartbeat(kind="fleet")       # past the interval: fires
        records = _records(sink)
        assert [r["event"] for r in records] == ["heartbeat", "heartbeat"]

    def test_heartbeat_carries_process_stats(self):
        sink = io.StringIO()
        EventBus(sink).heartbeat(kind="study")
        record = _records(sink)[0]
        # Current and peak RSS are distinct fields on every platform
        # path (the getrusage fallback only knows the peak).
        assert "rss_bytes" in record
        assert "rss_peak_bytes" in record
        assert "cpu_seconds" in record

    def test_sink_error_disables_sink_not_bus(self):
        class Broken(io.StringIO):
            def write(self, *_):
                raise OSError("disk full")

        seen = []
        bus = EventBus(Broken())
        bus.subscribe(seen.append)
        bus.emit("a")
        bus.emit("b")  # must not raise again
        assert [r["event"] for r in seen] == ["a", "b"]

    def test_close_is_idempotent(self):
        sink = io.StringIO()
        bus = EventBus(sink, owns_sink=False)
        bus.emit("x")
        bus.close()
        bus.close()
        assert not sink.closed  # not owned, so left open


class TestEventBusConcurrency:
    """The bus under concurrent emitters: ``seq`` stays gapless and
    every line whole, whichever thread emits."""

    THREADS = 8
    PER_THREAD = 50

    def _hammer(self, work):
        threads = [threading.Thread(target=work, args=(index,))
                   for index in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_seq_is_strictly_monotonic_across_threads(self):
        sink = io.StringIO()
        bus = EventBus(sink)

        def work(index):
            for tick in range(self.PER_THREAD):
                bus.emit("tick", worker=index, tick=tick)

        self._hammer(work)
        seqs = [r["seq"] for r in _records(sink)]
        assert len(seqs) == self.THREADS * self.PER_THREAD
        # Not merely unique: every value 1..N was assigned exactly once.
        assert sorted(seqs) == list(range(1, len(seqs) + 1))

    def test_every_line_is_one_well_formed_record(self):
        sink = io.StringIO()
        bus = EventBus(sink)

        def work(index):
            for tick in range(self.PER_THREAD):
                bus.emit("tick", worker=index, payload="x" * 50)

        self._hammer(work)
        lines = sink.getvalue().splitlines()
        assert len(lines) == self.THREADS * self.PER_THREAD
        for line in lines:
            record = json.loads(line)  # raises on an interleaved write
            assert record["event"] == "tick"
            assert record["v"] == SCHEMA_VERSION
            assert record["payload"] == "x" * 50

    def test_concurrent_heartbeats_fire_exactly_once_per_interval(self):
        now = [50.0]
        sink = io.StringIO()
        bus = EventBus(sink, clock=lambda: now[0])

        def work(index):
            bus.heartbeat(kind="worker", worker=index)

        self._hammer(work)           # same instant: exactly one passes
        now[0] = 100.0
        self._hammer(work)           # next interval: exactly one more
        beats = [r for r in _records(sink) if r["event"] == "heartbeat"]
        assert len(beats) == 2

    def test_subscribers_receive_every_concurrent_record(self):
        seen = []
        lock = threading.Lock()
        bus = EventBus(None)

        def collect(record):
            with lock:
                seen.append(record)

        bus.subscribe(collect)

        def work(index):
            for _ in range(self.PER_THREAD):
                bus.emit("tick", worker=index)

        self._hammer(work)
        assert len(seen) == self.THREADS * self.PER_THREAD


class TestNullEventBus:
    def test_disabled_and_silent(self):
        bus = NullEventBus()
        assert not bus.enabled
        bus.emit("anything", x=1)
        bus.heartbeat()
        bus.close()


class TestOpenEventStream:
    def test_none_gives_sinkless_live_bus(self):
        bus = open_event_stream(None)
        assert bus.enabled
        bus.emit("x")  # no sink: subscriber-only, must not raise

    def test_dash_streams_to_stderr(self, capsys):
        bus = open_event_stream("-")
        bus.emit("run_start", kind="fleet")
        bus.close()
        record = json.loads(capsys.readouterr().err.strip())
        assert record["event"] == "run_start"

    def test_path_owns_the_file(self, tmp_path):
        target = tmp_path / "events.ndjson"
        bus = open_event_stream(str(target))
        bus.emit("run_start")
        bus.emit("run_end")
        bus.close()
        lines = target.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["event"] == "run_end"

    def test_file_bus_exposes_its_path(self, tmp_path):
        target = tmp_path / "events.ndjson"
        bus = open_event_stream(str(target))
        assert bus.path == str(target)
        bus.close()
        assert open_event_stream(None).path is None
        dash = open_event_stream("-")
        assert dash.path is None  # stderr has no shareable path

    def test_fresh_open_truncates_but_append_joins(self, tmp_path):
        target = tmp_path / "events.ndjson"
        first = open_event_stream(str(target))
        first.emit("old_run")
        first.close()
        parent = open_event_stream(str(target))       # truncates
        parent.emit("run_start")
        worker = open_event_stream(str(target), append=True)
        worker.emit("heartbeat", kind="worker", shard=0)
        worker.close()
        parent.emit("run_end")                        # must not clobber
        parent.close()
        events = [json.loads(line)["event"]
                  for line in target.read_text().splitlines()]
        assert "old_run" not in events
        assert sorted(events) == ["heartbeat", "run_end", "run_start"]


class TestProcessStats:
    def test_returns_numeric_fields(self):
        stats = process_stats()
        assert stats  # Linux container: /proc/self must be readable
        for value in stats.values():
            assert isinstance(value, (int, float))

    def test_reports_current_and_peak_rss_separately(self):
        stats = process_stats()
        assert set(stats) == {"rss_bytes", "rss_peak_bytes", "cpu_seconds"}
        # On the Linux path both are live; the peak can never be below
        # the current reading when both are known.
        if stats["rss_bytes"] and stats["rss_peak_bytes"]:
            assert stats["rss_peak_bytes"] >= stats["rss_bytes"]

    def test_fallback_path_never_calls_peak_current(self, monkeypatch):
        import builtins

        real_open = builtins.open

        def no_proc(path, *args, **kwargs):
            if isinstance(path, str) and path.startswith("/proc/self/"):
                raise OSError("no /proc on this platform")
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", no_proc)
        stats = process_stats()
        # getrusage's ru_maxrss is a *peak*: it must land in
        # rss_peak_bytes and current rss must stay unknown (0.0).
        assert stats["rss_bytes"] == 0.0
        assert stats["rss_peak_bytes"] > 0.0
        assert stats["cpu_seconds"] > 0.0


class TestHeartbeatEnv:
    """``REPRO_HEARTBEAT_SECONDS`` is read at import, so a bad value must
    fall back to 1.0 rather than stop every subcommand."""

    @staticmethod
    def _run(value, *argv):
        env = dict(os.environ, REPRO_HEARTBEAT_SECONDS=value,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                              text=True, timeout=120)

    def test_malformed_value_does_not_stop_a_subcommand(self):
        done = self._run("abc", "-m", "repro.cli", "catalog")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip()

    def test_interval_falls_back_for_bad_values(self):
        script = "from repro.obs.events import HEARTBEAT_MIN_INTERVAL as h; print(h)"
        for value, expected in (("abc", "1.0"), ("", "1.0"), ("-2", "1.0"),
                                ("nan", "1.0"), ("inf", "1.0"), ("0", "0.0"),
                                ("2.5", "2.5")):
            done = self._run(value, "-c", script)
            assert done.returncode == 0, done.stderr
            assert done.stdout.strip() == expected, value
