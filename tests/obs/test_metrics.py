"""Unit tests for the metrics registry, families, and exporters."""

import json
import math

import pytest

from repro.obs import MetricsRegistry, NullMetricsRegistry, parse_prometheus_text
from repro.obs import metrics
from repro.obs.metrics import Counter, Gauge, Histogram


class TestCounter:
    def test_inc_and_value(self):
        counter = MetricsRegistry().counter("requests_total")
        counter.inc()
        counter.inc(4)
        assert counter.value() == 5

    def test_labels_are_independent(self):
        counter = MetricsRegistry().counter("packets_total")
        counter.inc(protocol="mdns")
        counter.inc(2, protocol="ssdp")
        assert counter.value(protocol="mdns") == 1
        assert counter.value(protocol="ssdp") == 2
        assert counter.value(protocol="dns") == 0
        assert counter.total() == 3

    def test_label_order_does_not_matter(self):
        counter = MetricsRegistry().counter("c")
        counter.inc(a="1", b="2")
        assert counter.value(b="2", a="1") == 1

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_same_name_returns_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value() == 13

    def test_labelled(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(3, queue="a")
        assert gauge.value(queue="a") == 3
        assert gauge.value() == 0


class TestHistogramBucketEdges:
    def test_value_on_edge_lands_in_that_bucket(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
        hist.observe(1.0)  # le semantics: exactly-on-edge counts
        hist.observe(2.0)
        hist.observe(2.0000001)
        assert hist.cumulative_buckets() == [
            (1.0, 1), (2.0, 2), (4.0, 3), (math.inf, 3)]

    def test_overflow_goes_to_inf_only(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0,))
        hist.observe(100.0)
        assert hist.cumulative_buckets() == [(1.0, 0), (math.inf, 1)]
        assert hist.count() == 1
        assert hist.sum() == 100.0

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h2", buckets=(1.0, 1.0))

    def test_labelled_series_are_independent(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0,))
        hist.observe(0.5, stage="build")
        hist.observe(0.7, stage="scan")
        assert hist.count(stage="build") == 1
        assert hist.count(stage="scan") == 1
        assert hist.count() == 0


class TestScoping:
    def test_scoped_prefixes_names(self):
        registry = MetricsRegistry()
        child = registry.scoped("sim")
        child.counter("events_total").inc()
        assert registry.get("sim_events_total").value() == 1

    def test_nested_scopes(self):
        registry = MetricsRegistry()
        grandchild = registry.scoped("a").scoped("b")
        grandchild.gauge("depth").set(2)
        assert registry.get("a_b_depth").value() == 2

    def test_scoped_shares_storage(self):
        registry = MetricsRegistry()
        registry.scoped("x").counter("c")
        assert "x_c" in [metric.name for metric in registry]


class TestExport:
    def _populated(self):
        registry = MetricsRegistry()
        counter = registry.counter("packets_total", "frames seen")
        counter.inc(7, protocol="mdns")
        counter.inc(3, protocol="arp")
        registry.gauge("depth").set(4)
        hist = registry.histogram("lat", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        return registry

    def test_json_is_valid_and_complete(self):
        registry = self._populated()
        data = json.loads(registry.to_json())
        assert data["packets_total"]["type"] == "counter"
        samples = {tuple(sorted(s["labels"].items())): s["value"]
                   for s in data["packets_total"]["samples"]}
        assert samples[(("protocol", "mdns"),)] == 7
        assert data["lat"]["series"][0]["count"] == 2

    def test_from_dict_round_trip(self):
        registry = self._populated()
        rebuilt = MetricsRegistry.from_dict(registry.to_dict())
        assert rebuilt.to_dict() == registry.to_dict()
        assert rebuilt.to_prometheus_text() == registry.to_prometheus_text()

    def test_prometheus_text_round_trip(self):
        registry = self._populated()
        parsed = parse_prometheus_text(registry.to_prometheus_text())
        assert parsed["packets_total"][(("protocol", "mdns"),)] == 7.0
        assert parsed["packets_total"][(("protocol", "arp"),)] == 3.0
        assert parsed["depth"][()] == 4.0
        assert parsed["lat_count"][()] == 2.0
        assert parsed["lat_bucket"][(("le", "0.1"),)] == 1.0
        assert parsed["lat_bucket"][(("le", "+Inf"),)] == 2.0

    def test_export_is_deterministic(self):
        assert self._populated().to_json() == self._populated().to_json()


class TestLabelEscaping:
    """Prometheus exposition escaping for hostile label values.

    The exposition format requires ``\\`` → ``\\\\``, ``"`` → ``\\"``
    and newline → ``\\n`` inside label values; device names and mDNS
    service strings from real captures contain all three.
    """

    HOSTILE = {
        "quote": 'say "cheese"',
        "backslash": "C:\\Users\\iot\\device",
        "newline": "line one\nline two",
        "mixed": 'a\\b"c\nd"e\\',
        "trailing_backslash": "ends with \\",
    }

    def test_hostile_values_round_trip(self):
        registry = MetricsRegistry()
        counter = registry.counter("names_total")
        for key, value in self.HOSTILE.items():
            counter.inc(2, name=value, case=key)
        text = registry.to_prometheus_text()
        parsed = parse_prometheus_text(text)
        for key, value in self.HOSTILE.items():
            labels = tuple(sorted({"name": value, "case": key}.items()))
            assert parsed["names_total"][labels] == 2.0, key

    def test_exposition_lines_stay_single_line(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(name="evil\nc 999")
        sample_lines = [line for line in
                        registry.to_prometheus_text().splitlines()
                        if line.startswith("c{")]
        # An unescaped newline would smuggle a fake sample line in.
        assert len(sample_lines) == 1
        assert '\\n' in sample_lines[0]

    def test_escaped_quote_does_not_end_the_value(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(7, a='x",b="y')
        parsed = parse_prometheus_text(registry.to_prometheus_text())
        assert parsed["c"][(("a", 'x",b="y'),)] == 7.0


def freeze_labels_before(labels):
    """``_freeze_labels`` as it was before one label skipped the sort."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


LABEL_SETS = [{}, {"kind": "tcp"}, {"protocol": 7}, {"a": ""}, {"name": 'evil"\n\\'},
              {"b": "2", "a": "1"}, {"z": "1", "y": 2, "x": None}]


class TestFreezeLabels:
    @pytest.mark.parametrize("labels", LABEL_SETS)
    def test_keys_match_the_sorting_version(self, labels):
        assert metrics._freeze_labels(labels) == freeze_labels_before(labels)

    def test_lookups_and_exports_match(self, monkeypatch):
        def populate():
            registry = MetricsRegistry()
            counter = registry.counter("c_total")
            gauge = registry.gauge("g")
            hist = registry.histogram("h", buckets=(0.1, 1.0))
            for index, labels in enumerate(LABEL_SETS):
                counter.inc(index + 1, **labels)
                gauge.set(index, **labels)
                hist.observe(index / 4, **labels)
            lookups = [(counter.value(**labels), gauge.value(**labels), hist.count(**labels),
                        hist.sum(**labels), hist.cumulative_buckets(**labels))
                       for labels in LABEL_SETS + [{"kind": "udp"}]]
            return registry.to_json(), registry.to_prometheus_text(), lookups

        ours = populate()
        monkeypatch.setattr(metrics, "_freeze_labels", freeze_labels_before)
        assert populate() == ours


class TestNullRegistry:
    def test_writes_are_swallowed(self):
        registry = NullMetricsRegistry()
        registry.counter("c").inc(100)
        registry.gauge("g").set(5)
        registry.histogram("h").observe(1.0)
        assert registry.to_dict() == {}

    def test_scoped_returns_self(self):
        registry = NullMetricsRegistry()
        assert registry.scoped("sub") is registry

    def test_shared_singletons_hold_no_state(self):
        a = NullMetricsRegistry()
        a.counter("c").inc(5)
        assert NullMetricsRegistry().counter("c").value() == 0
