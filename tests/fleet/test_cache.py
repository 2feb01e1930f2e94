"""Content-addressed shard cache: cold writes, warm hits, corruption."""

import json

import pytest

from repro.fleet import FleetSpec, ShardCache, run_fleet
from repro.fleet.runner import MANIFEST_NAME, FleetRunner


class TestColdWarm:
    def test_cold_run_writes_every_shard(self, tmp_path, small_spec):
        result = run_fleet(small_spec, workers=1, cache_dir=tmp_path)
        shard_count = len(small_spec.shards())
        assert result.cache_misses == shard_count
        assert result.cache_writes == shard_count
        assert result.cache_hits == 0
        assert len(list(tmp_path.glob("shard-*.json"))) == shard_count

    def test_warm_run_serves_without_computing(self, tmp_path, small_spec,
                                               small_serial_report, monkeypatch):
        run_fleet(small_spec, workers=1, cache_dir=tmp_path)

        def boom(*args, **kwargs):
            raise AssertionError("warm run must not recompute any shard")

        monkeypatch.setattr("repro.fleet.runner.run_shard", boom)
        warm = run_fleet(small_spec, workers=1, cache_dir=tmp_path)
        assert warm.cache_hits == len(small_spec.shards())
        assert warm.cache_misses == 0
        assert warm.cache_writes == 0
        assert all(s.state == "cached" for s in warm.shard_states)
        assert warm.report.to_json() == small_serial_report.to_json()

    def test_different_seed_misses(self, tmp_path, small_spec):
        run_fleet(small_spec, workers=1, cache_dir=tmp_path)
        other = FleetSpec(**{**small_spec.to_dict(), "seed": 6})
        result = run_fleet(other, workers=1, cache_dir=tmp_path)
        assert result.cache_hits == 0

    def test_repartition_reuses_overlapping_ranges(self, tmp_path, small_spec):
        """shard_size is not part of the key, so identical [start, stop)
        ranges hit even when the partition around them changed."""
        run_fleet(small_spec, workers=1, cache_dir=tmp_path)  # 32-sized shards
        half = FleetSpec(**{**small_spec.to_dict(), "shard_size": 16})
        result = run_fleet(half, workers=1, cache_dir=tmp_path)
        # Ranges differ (16 vs 32 households) so nothing hits...
        assert result.cache_hits == 0
        # ...but re-running the original partition still hits everything.
        again = run_fleet(small_spec, workers=1, cache_dir=tmp_path)
        assert again.cache_hits == len(small_spec.shards())


class TestRobustness:
    def test_corrupt_entry_is_recomputed(self, tmp_path, small_spec,
                                         small_serial_report):
        run_fleet(small_spec, workers=1, cache_dir=tmp_path)
        victim = sorted(tmp_path.glob("shard-*.json"))[0]
        victim.write_text("{not json", encoding="utf-8")
        result = run_fleet(small_spec, workers=1, cache_dir=tmp_path)
        assert result.cache_hits == len(small_spec.shards()) - 1
        assert result.cache_misses == 1
        assert result.cache_writes == 1
        assert result.report.to_json() == small_serial_report.to_json()

    @pytest.mark.parametrize("damage", ["empty", "no_analysis", "other_range"])
    def test_wrong_shape_entry_is_recomputed(self, tmp_path, small_spec,
                                             small_serial_report, damage):
        """Valid JSON that is not this shard's payload is corrupt: a miss,
        recomputed and overwritten, never merged."""
        first = run_fleet(small_spec, workers=1, cache_dir=tmp_path)
        cache = ShardCache(tmp_path)
        victim = cache.path_for(first.shard_states[0].key)
        if damage == "empty":
            payload = {}
        elif damage == "no_analysis":
            payload = json.loads(victim.read_text(encoding="utf-8"))
            del payload["analysis"]
        else:  # shard 1's payload, copied under shard 0's key
            payload = json.loads(cache.path_for(first.shard_states[1].key)
                                 .read_text(encoding="utf-8"))
        victim.write_text(json.dumps(payload), encoding="utf-8")

        runner = FleetRunner(small_spec, workers=1, cache_dir=tmp_path)
        result = runner.run()
        shard_count = len(small_spec.shards())
        assert runner.cache.corrupt == 1
        assert result.cache_hits == shard_count - 1
        assert result.cache_misses == 1
        assert result.cache_writes == 1
        assert [s.state for s in result.shard_states] == (
            ["completed"] + ["cached"] * (shard_count - 1))
        assert result.report.to_json() == small_serial_report.to_json()
        stored = json.loads(victim.read_text(encoding="utf-8"))
        assert (stored["start"], stored["stop"]) == (0, 32)
        assert run_fleet(small_spec, workers=1, cache_dir=tmp_path).cache_hits == shard_count

    def test_cache_creates_directory(self, tmp_path, small_spec):
        nested = tmp_path / "a" / "b"
        result = run_fleet(small_spec, workers=1, cache_dir=nested)
        assert result.cache_writes == len(small_spec.shards())

    def test_stats_shape(self, tmp_path):
        cache = ShardCache(tmp_path)
        assert cache.load("0" * 32) is None
        cache.store("0" * 32, {"x": 1})
        assert cache.load("0" * 32) == {"x": 1}
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["writes"] == 1

    def test_rejected_payload_is_a_corrupt_miss(self, tmp_path):
        cache = ShardCache(tmp_path)
        cache.store("0" * 32, {"x": 1})
        assert cache.load("0" * 32, valid=lambda payload: "y" in payload) is None
        assert cache.load("0" * 32, valid=lambda payload: "x" in payload) == {"x": 1}
        assert cache.stats() == {"hits": 1, "misses": 1, "writes": 1, "corrupt": 1}


class TestManifest:
    def test_manifest_records_every_shard(self, tmp_path, small_spec):
        run_fleet(small_spec, workers=1, cache_dir=tmp_path)
        lines = (tmp_path / MANIFEST_NAME).read_text().splitlines()
        header, *shards = map(json.loads, lines)
        assert header["spec"] == small_spec.to_dict()
        assert len(shards) == len(small_spec.shards())
        assert all(entry["state"] in ("cached", "completed")
                   for entry in shards)

    def test_manifest_is_compact_json(self, tmp_path, small_spec):
        run_fleet(small_spec, workers=1, cache_dir=tmp_path)
        raw = (tmp_path / MANIFEST_NAME).read_text(encoding="utf-8")
        assert raw.endswith("\n")
        for line in raw.splitlines():
            assert line == json.dumps(json.loads(line), sort_keys=True,
                                      separators=(",", ":"))

    def test_no_cache_dir_means_no_manifest_or_stats(self, small_spec):
        result = run_fleet(small_spec, workers=1)
        assert result.cache_hits == 0
        assert result.cache_misses == 0
        assert result.cache_writes == 0
