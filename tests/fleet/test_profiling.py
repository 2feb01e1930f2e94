"""Fleet profiling: deterministic worker-profile merge + equivalence.

The two contracts the tentpole pins:

* **off = byte-identical** — ``profile_hz=0`` (the default) leaves the
  shard payload, the merged report, and every span exactly as an
  unprofiled build produced them: no ``"profile"`` key, no resource
  attrs, no behavioural difference.
* **on = deterministic merge** — each computed shard's sampled
  :class:`~repro.obs.profile.Profile` is stored in the cache payload
  verbatim and folded into the parent profiler in shard-index order, so
  a warm (cache-replay) run reproduces the cold run's merged profile
  byte-for-byte, at any worker count.
"""

from __future__ import annotations

import json

from repro.fleet import FleetSpec, run_fleet, run_shard
from repro.obs import MetricsRegistry, Tracer, use_obs
from repro.obs.context import Observability
from repro.obs.logging import NullLogManager
from repro.obs.profile import (
    RESOURCE_ATTRS,
    UNATTRIBUTED,
    Profile,
    SamplingProfiler,
    span_resource_table,
)

#: Fast enough that even a sub-second shard collects samples, and under
#: the 250 Hz a HZ=250 kernel's tick allows, so counts mean what they say.
TEST_HZ = 199.0


def _profiled_obs() -> Observability:
    obs = Observability(metrics=MetricsRegistry(), tracer=Tracer(),
                        logs=NullLogManager(), enabled=True,
                        profiler=SamplingProfiler(hz=TEST_HZ))
    # The fleet parent's profiler is a merge target only — never
    # started — so its profile is exactly the fold of the workers'.
    return obs


def _walk(node, out):
    out.append(node)
    for child in node.get("children", []):
        _walk(child, out)
    return out


class TestProfilingOff:
    def test_payload_has_no_profile_key_or_resource_attrs(self, small_spec):
        shard = small_spec.shards()[0]
        payload = run_shard(small_spec.to_dict(), shard.start, shard.stop)
        assert "profile" not in payload["obs"]
        for span in _walk({"children": payload["obs"]["spans"]}, [])[1:]:
            for attr in RESOURCE_ATTRS:
                assert attr not in span["attrs"]

    def test_report_identical_with_and_without_worker_profiling(
            self, small_spec, small_serial_report):
        plain = run_fleet(small_spec, workers=1)
        with use_obs(_profiled_obs()):
            profiled = run_fleet(small_spec, workers=1, profile_hz=TEST_HZ)
        assert plain.report.to_json() == small_serial_report.to_json()
        assert profiled.report.to_json() == small_serial_report.to_json()


class TestProfilingOn:
    def test_profiled_payload_carries_profile_and_resource_attrs(
            self, small_spec):
        # The whole population in one call: about 20 ms of CPU time, so
        # the timer this call arms for itself fires a few times.
        payload = run_shard(small_spec.to_dict(), 0, small_spec.households,
                            profile_hz=TEST_HZ)
        snapshot = payload["obs"]
        assert "profile" in snapshot
        profile = Profile.from_dict(snapshot["profile"])
        assert profile.hz == TEST_HZ
        assert profile.total_samples > 0
        spans = _walk({"children": snapshot["spans"]}, [])[1:]
        named = {span["name"]: span for span in spans}
        assert "cpu_seconds" in named["fleet.worker"]["attrs"]
        assert "gc_collections" in named["worker.generate"]["attrs"]
        # Payload still crosses the process boundary as plain data.
        assert json.loads(json.dumps(payload))["obs"]["profile"] \
            == snapshot["profile"]

    def test_cold_merge_equals_warm_cache_replay(self, small_spec, tmp_path):
        cold_obs = _profiled_obs()
        with use_obs(cold_obs):
            cold = run_fleet(small_spec, workers=2,
                             cache_dir=str(tmp_path), profile_hz=TEST_HZ)
        assert cold.complete and cold.cache_writes == 3

        warm_obs = _profiled_obs()
        with use_obs(warm_obs):
            warm = run_fleet(small_spec, workers=2,
                             cache_dir=str(tmp_path), profile_hz=TEST_HZ)
        assert warm.cache_hits == 3

        cold_profile = cold_obs.profiler.profile.to_dict()
        warm_profile = warm_obs.profiler.profile.to_dict()
        assert cold_profile == warm_profile
        assert Profile.from_dict(warm_profile).total_samples > 0
        # The export layers are equally deterministic.
        assert (cold_obs.profiler.profile.to_collapsed()
                == warm_obs.profiler.profile.to_collapsed())
        assert (cold_obs.profiler.profile.to_speedscope()
                == warm_obs.profiler.profile.to_speedscope())

    def test_merged_profile_attributes_to_worker_spans(self):
        # Ten times the small spec, about 45 samples: the kernel delays
        # the first expiry after arming by a tick, so the run loses about
        # one sample, which only a count this size keeps inside 10%.
        spec = FleetSpec(seed=5, households=960, target_devices=3000,
                         shard_size=320)
        obs = _profiled_obs()
        with use_obs(obs):
            result = run_fleet(spec, workers=1, profile_hz=TEST_HZ)
        assert result.complete
        counts = obs.profiler.profile.span_sample_counts()
        # Only a shard's first and last bytecodes run outside its spans.
        assert counts.get(UNATTRIBUTED, 0) <= len(spec.shards())
        # The timer runs for the whole fleet, so the worker spans draw
        # TEST_HZ samples per CPU second they measured.
        worker = sum(counts.get(name, 0) for name in
                     ("fleet.worker", "worker.generate", "worker.analyze"))
        expected = TEST_HZ * span_resource_table(obs.tracer)["fleet.worker"]["cpu_seconds"]
        assert abs(worker - expected) <= max(0.1 * expected, 2), (worker, expected)

    def test_unprofiled_parent_ignores_replayed_profiles(self, small_spec,
                                                         tmp_path):
        with use_obs(_profiled_obs()):
            run_fleet(small_spec, workers=1,
                      cache_dir=str(tmp_path), profile_hz=TEST_HZ)
        plain_obs = Observability(metrics=MetricsRegistry(), tracer=Tracer(),
                                  logs=NullLogManager(), enabled=True)
        with use_obs(plain_obs):
            warm = run_fleet(small_spec, workers=1, cache_dir=str(tmp_path))
        # Cached payloads carry profiles, but an unprofiled parent has
        # no enabled profiler to fold them into — and must not crash.
        assert warm.cache_hits == 3
        assert plain_obs.profiler.snapshot() is None


class TestWorkerHeartbeats:
    def test_run_shard_appends_worker_heartbeats(self, small_spec, tmp_path):
        target = tmp_path / "events.ndjson"
        target.write_text("")  # parent pre-created the stream
        shard = small_spec.shards()[1]
        run_shard(small_spec.to_dict(), shard.start, shard.stop,
                  events_path=str(target), shard_index=1)
        records = [json.loads(line)
                   for line in target.read_text().splitlines()]
        beats = [r for r in records if r["event"] == "heartbeat"]
        assert beats, "worker emitted no heartbeat"
        first = beats[0]
        assert first["kind"] == "worker"
        assert first["shard"] == 1
        assert first["start"] == shard.start
        assert isinstance(first["pid"], int)
        assert first["rss_peak_bytes"] >= 0.0

    def test_fleet_run_interleaves_worker_heartbeats(self, small_spec,
                                                     tmp_path):
        from repro.obs import open_event_stream

        target = tmp_path / "events.ndjson"
        obs = Observability(metrics=MetricsRegistry(), tracer=Tracer(),
                            logs=NullLogManager(), enabled=True,
                            events=open_event_stream(str(target)))
        with use_obs(obs):
            result = run_fleet(small_spec, workers=2)
        obs.events.close()
        assert result.complete
        records = [json.loads(line)
                   for line in target.read_text().splitlines()]
        kinds = {r.get("kind") for r in records if r["event"] == "heartbeat"}
        assert "worker" in kinds
        # Parent lifecycle records survived the workers' appends.
        events = [r["event"] for r in records]
        assert "run_start" in events and "run_end" in events
        assert events.count("shard_done") == 3
