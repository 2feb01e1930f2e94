"""The fleet's core guarantee: byte-identical to the serial path."""

import pytest

from repro.core.fingerprint import fingerprint_households
from repro.fleet import FleetSpec, merge_shard_results, run_fleet, run_shard
from repro.fleet.shard import population_context
from repro.inspector.generate import build_context, generate_dataset


class TestSerialEquivalence:
    def test_workers_1_matches_serial(self, small_spec, small_serial_report):
        result = run_fleet(small_spec, workers=1)
        assert result.complete
        assert result.report.to_json() == small_serial_report.to_json()

    def test_workers_2_matches_serial(self, small_spec, small_serial_report):
        result = run_fleet(small_spec, workers=2)
        assert result.complete
        assert result.report.to_json() == small_serial_report.to_json()

    def test_shard_size_does_not_change_bytes(self, small_spec, small_serial_report):
        """1 shard and 7 ragged shards merge to the same report."""
        for shard_size in (96, 15):
            spec = FleetSpec(**{**small_spec.to_dict(), "shard_size": shard_size})
            result = run_fleet(spec, workers=1)
            assert result.report.to_json() == small_serial_report.to_json()

    def test_oui_ablation_matches_serial(self, small_spec):
        spec = FleetSpec(**{**small_spec.to_dict(), "validate_oui": False})
        serial = fingerprint_households(
            dataset=generate_dataset(
                seed=spec.seed,
                households=spec.households,
                target_devices=spec.target_devices,
                vendor_count=spec.vendor_count,
                product_count=spec.product_count,
            ),
            validate_oui=False,
        )
        result = run_fleet(spec, workers=1)
        assert result.report.to_json() == serial.to_json()


class TestMerge:
    def test_merge_is_order_insensitive(self, small_spec, small_serial_report):
        spec_dict = small_spec.to_dict()
        partials = [
            run_shard(spec_dict, shard.start, shard.stop)
            for shard in small_spec.shards()
        ]
        report = merge_shard_results(small_spec, list(reversed(partials)))
        assert report.to_json() == small_serial_report.to_json()

    def test_shard_payload_is_json_safe(self, small_spec):
        """Worker results must survive the process boundary as plain data."""
        import json

        shard = small_spec.shards()[0]
        payload = run_shard(small_spec.to_dict(), shard.start, shard.stop)
        assert json.loads(json.dumps(payload)) == json.loads(json.dumps(payload))
        assert payload["start"] == shard.start
        assert payload["stop"] == shard.stop
        assert payload["device_count"] > 0


CONTEXT_FIELDS = ("seed", "households", "target_devices", "vendor_count",
                  "product_count")


class TestPopulationContext:
    def test_fleet_run_builds_the_context_once(self, small_spec, monkeypatch):
        calls = []

        def counting(**kwargs):
            calls.append(kwargs)
            return build_context(**kwargs)

        monkeypatch.setattr("repro.fleet.shard.build_context", counting)
        population_context.cache_clear()
        try:
            result = run_fleet(small_spec, workers=1)
        finally:
            population_context.cache_clear()
        assert result.complete and result.shards_total == 3
        assert len(calls) == 1

    @pytest.mark.parametrize("field", CONTEXT_FIELDS)
    def test_specs_differing_in_one_field_get_different_contexts(
            self, small_spec, field):
        base = {name: getattr(small_spec, name) for name in CONTEXT_FIELDS}
        changed = {**base, field: base[field] - 1}
        first = population_context(**base)
        second = population_context(**changed)
        assert second != first
        assert second == build_context(**changed)
        assert population_context(**base) == build_context(**base)
