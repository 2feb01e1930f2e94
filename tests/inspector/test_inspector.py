"""Tests for the crowdsourced dataset: schema, generation, entropy, labels."""

import hashlib
import hmac
import statistics

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.inspector.entropy import (
    analyze_dataset,
    device_identifiers,
    extract_macs,
    extract_names,
    extract_uuids,
)
from repro.inspector.generate import ExposureClass, generate_dataset
from repro.inspector.labels import DeviceLabeler, _fuzzy_equal
from repro.inspector.schema import hashed_device_id


class TestSchema:
    def test_device_id_is_hmac(self):
        salt_a, salt_b = b"a" * 16, b"b" * 16
        mac = "d8:31:34:01:02:03"
        id_a = hashed_device_id(mac, salt_a)
        assert id_a == hashed_device_id(mac, salt_a)  # deterministic per salt
        assert id_a != hashed_device_id(mac, salt_b)  # salted per user
        assert len(id_a) == 64  # SHA-256 hex

    def test_device_id_not_reversible_trivially(self):
        assert "d8:31:34" not in hashed_device_id("d8:31:34:01:02:03", b"s" * 16)

    @settings(max_examples=300, deadline=None)
    @given(mac=st.text(), salt=st.binary(max_size=130))
    @example(mac="D8:31:34:0A:0B:0C", salt=b"")
    @example(mac="d8:31:34:0a:0B:0c", salt=bytes(range(64)))  # one SHA-256 block
    @example(mac="İ-Σ-ß-ǅ", salt=b"\xff" * 65)  # longer than a block: the key is hashed
    @example(mac="", salt=b"s" * 16)
    def test_device_id_matches_hmac_new(self, mac, salt):
        expected = hmac.new(salt, mac.lower().encode("utf-8"), hashlib.sha256).hexdigest()
        assert hashed_device_id(mac, salt) == expected


class TestExtraction:
    def test_names(self):
        assert extract_names("Roku 3 - Jordan's Room") == {"Jordan"}
        assert extract_names("no names here") == set()
        assert extract_names("Alex's TV and Sam's Speaker") == {"Alex", "Sam"}

    def test_uuids(self):
        text = "USN: uuid:12345678-1234-5678-9abc-def012345678::rootdevice"
        assert extract_uuids(text) == {"12345678-1234-5678-9abc-def012345678"}
        assert extract_uuids("uuid:not-a-uuid") == set()

    def test_macs_with_separators(self):
        assert extract_macs("serial d8:31:34:0a:0b:0c here", "d8:31:34") == {"d8:31:34:0a:0b:0c"}
        assert extract_macs("serial D8-31-34-0A-0B-0C", "d8:31:34") == {"d8:31:34:0a:0b:0c"}

    def test_bare_macs(self):
        assert extract_macs("token d831340a0b0c end", "d8:31:34") == {"d8:31:34:0a:0b:0c"}

    def test_oui_validation_filters_false_positives(self):
        # A hex-looking token with the wrong OUI is rejected...
        assert extract_macs("deadbeefcafe", "d8:31:34") == set()
        # ...unless validation is off (the ablation).
        assert extract_macs("deadbeefcafe", "d8:31:34", validate_oui=False)

    def test_device_identifiers_integration(self, inspector_dataset):
        devices = inspector_dataset.all_devices()
        exposing = [d for d in devices if device_identifiers(d)["uuid"]]
        assert exposing  # some products expose UUIDs


class TestGenerator:
    def test_marginals(self, inspector_dataset):
        ds = inspector_dataset
        assert ds.household_count == 400
        assert 1000 <= ds.device_count <= 1700
        counts = [h.device_count for h in ds.households]
        assert 2 <= statistics.median(counts) <= 4

    def test_deterministic(self):
        a = generate_dataset(seed=5, households=50, target_devices=160)
        b = generate_dataset(seed=5, households=50, target_devices=160)
        assert [d.device_id for d in a.all_devices()] == [d.device_id for d in b.all_devices()]

    def test_payloads_are_real_wire_format(self, inspector_dataset):
        from repro.protocols.dns import DnsMessage
        from repro.protocols.ssdp import SsdpMessage

        device = inspector_dataset.all_devices()[0]
        for payload in device.mdns_responses:
            assert DnsMessage.decode(payload).is_response
        for payload in device.ssdp_responses:
            SsdpMessage.decode(payload)

    def test_roku_anchor_households(self):
        ds = generate_dataset(seed=23, households=100, target_devices=330)
        rokus = [d for h in ds.households for d in h.devices if d.truth_vendor == "Roku"]
        assert rokus
        # The all-three product exposes name+uuid+mac in its payloads.
        exposing_all = [
            d for d in rokus
            if all(device_identifiers(d)[k] for k in ("name", "uuid", "mac"))
        ]
        assert exposing_all

    def test_flows_are_private(self, inspector_dataset):
        from repro.net.filters import is_private_conversation

        for household in inspector_dataset.households[:50]:
            for flow in household.flows:
                assert is_private_conversation(flow.src_ip, flow.dst_ip)

    def test_exposure_class_types(self):
        assert ExposureClass.ALL.types == {"name", "uuid", "mac"}
        assert ExposureClass.NONE.types == frozenset()


class TestEntropyAnalysis:
    @pytest.fixture(scope="class")
    def analysis(self):
        return analyze_dataset(generate_dataset(seed=23, households=600, target_devices=2000))

    def test_row_structure(self, analysis):
        rows = analysis.table_rows()
        assert rows[0][1] == "N/A"  # the none row first
        type_counts = [row[0] for row in rows]
        assert type_counts == sorted(type_counts)

    def test_uuid_row_dominates(self, analysis):
        uuid_row = analysis.rows.get(frozenset({"uuid"}))
        assert uuid_row is not None
        mac_row = analysis.rows.get(frozenset({"mac"}))
        assert uuid_row.household_count > (mac_row.household_count if mac_row else 0)

    def test_uniqueness_below_one(self, analysis):
        # Firmware-constant UUIDs/MACs create collisions: uniqueness in
        # (80%, 100%) like Table 2's 94.2%/94.4%.
        uuid_row = analysis.rows[frozenset({"uuid"})]
        assert 0.80 <= uuid_row.unique_household_fraction() <= 1.0

    def test_combination_entropy_is_sum(self, analysis):
        combo = frozenset({"uuid", "mac"})
        if combo in analysis.rows:
            assert abs(
                analysis.entropy_of_combination(combo)
                - (analysis.entropy_of("uuid") + analysis.entropy_of("mac"))
            ) < 1e-9

    def test_entropy_grows_with_distinct_values(self, analysis):
        assert analysis.entropy_of("uuid") > analysis.entropy_of("name")

    def test_oui_ablation_increases_mac_matches(self):
        ds = generate_dataset(seed=23, households=300, target_devices=1000)
        validated = analyze_dataset(ds, validate_oui=True)
        unvalidated = analyze_dataset(ds, validate_oui=False)
        def macs(analysis):
            return len(analysis.distinct_values.get("mac", ()))
        assert macs(unvalidated) >= macs(validated)


class TestLabeler:
    def test_fuzzy_matching(self):
        assert _fuzzy_equal("Roku", "R0ku")
        assert _fuzzy_equal("Philips", "Philipss")
        assert not _fuzzy_equal("Roku", "Sony")
        assert not _fuzzy_equal("", "Roku")

    def test_labeler_accuracy(self, inspector_dataset):
        labeler = DeviceLabeler.from_dataset(inspector_dataset)
        metrics = labeler.evaluate(inspector_dataset)
        # Appendix E labeled 24,998/25,033; vendor accuracy should be high.
        assert metrics["vendor_labeled"] > 0.95
        assert metrics["vendor_accuracy"] > 0.8
        assert metrics["category_accuracy"] > 0.9

    def test_user_label_beats_oui(self, inspector_dataset):
        labeler = DeviceLabeler.from_dataset(inspector_dataset)
        device = next(d for d in inspector_dataset.all_devices() if d.user_label_vendor)
        result = labeler.label_device(device)
        assert result.source.startswith("user-label")
        assert result.confidence >= 0.9

    def test_hostname_fallback(self, inspector_dataset):
        labeler = DeviceLabeler.from_dataset(inspector_dataset)
        device = next(d for d in inspector_dataset.all_devices() if not d.user_label_vendor)
        result = labeler.label_device(device)
        assert result.vendor is not None
