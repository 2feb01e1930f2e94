"""CaptureIndex: bucket correctness and list-vs-index analysis equality.

The decode-once index is only useful if every bucket matches a
brute-force scan of the same capture and every analysis entry point
produces *identical* artifacts whether handed the raw packet list or
the prebuilt index.
"""

from __future__ import annotations

import pytest

from repro.classify.crossval import cross_validate
from repro.classify.rules import CorrectedClassifier
from repro.core.device_graph import build_device_graph
from repro.core.exposure import analyze_exposure
from repro.core.periodicity import analyze_periodicity
from repro.core.protocol_census import census_from_capture
from repro.core.responses import category_of_profile, correlate_responses
from repro.core.threat_report import build_threat_report
from repro.net.columnar import PacketTable
from repro.net.decode import DecodeErrorLog, quick_protocol
from repro.net.flows import assemble_flows
from repro.net.index import CaptureIndex
from repro.report.artifacts import canonical_json, periodicity_artifact
from tests.conftest import device_maps


@pytest.fixture
def indexed_capture(mini_capture):
    testbed, packets = mini_capture
    return testbed, packets, CaptureIndex(packets)


class TestBuckets:
    def test_rows_preserve_capture_order(self, indexed_capture):
        _, packets, index = indexed_capture
        assert len(index.rows) == len(packets)
        assert [row.packet for row in index.rows] == packets

    def test_row_columns_match_packet_properties(self, indexed_capture):
        _, packets, index = indexed_capture
        for row in index.rows[:200]:
            packet = row.packet
            assert row.src == str(packet.frame.src)
            assert row.dst == str(packet.frame.dst)
            assert row.timestamp == packet.timestamp
            assert row.transport == packet.transport
            assert row.src_ip == packet.src_ip
            assert row.dst_ip == packet.dst_ip
            assert row.src_port == packet.src_port
            assert row.dst_port == packet.dst_port
            assert row.is_unicast == packet.is_unicast
            assert row.is_broadcast == packet.is_broadcast
            assert row.protocol == quick_protocol(packet)

    def test_by_src_mac_matches_brute_force(self, indexed_capture):
        _, packets, index = indexed_capture
        for mac, rows in index.by_src_mac.items():
            expected = [p for p in packets if str(p.frame.src) == mac]
            assert [row.packet for row in rows] == expected
        # Every packet lands in exactly one source bucket.
        assert sum(len(rows) for rows in index.by_src_mac.values()) == len(packets)

    def test_by_protocol_matches_brute_force(self, indexed_capture):
        _, packets, index = indexed_capture
        for tag, rows in index.by_protocol.items():
            expected = [p for p in packets if quick_protocol(p) == tag]
            assert [row.packet for row in rows] == expected
        assert sum(index.protocol_counts().values()) == len(packets)

    def test_filtered_views_match_brute_force(self, indexed_capture):
        _, packets, index = indexed_capture
        assert [r.packet for r in index.arp] == [p for p in packets if p.arp is not None]
        assert [r.packet for r in index.udp] == [p for p in packets if p.udp is not None]
        assert [r.packet for r in index.tcp_payload] == [
            p for p in packets
            if p.udp is None and p.tcp is not None and p.tcp.payload
        ]
        assert [r.packet for r in index.transport_unicast] == [
            p for p in packets if p.transport is not None and p.is_unicast
        ]
        assert [r.packet for r in index.transport_multicast] == [
            p for p in packets if p.transport is not None and not p.is_unicast
        ]

    def test_ensure_passes_through_and_wraps(self, indexed_capture):
        _, packets, index = indexed_capture
        assert CaptureIndex.ensure(index) is index
        rebuilt = CaptureIndex.ensure(packets)
        assert rebuilt is not index
        assert len(rebuilt) == len(index) == len(packets)


class TestLabels:
    def test_labels_memoized_and_match_fresh_classifier(self, indexed_capture):
        _, _, index = indexed_capture
        fresh = CorrectedClassifier()
        for row in index.rows[:300]:
            first = index.label_at(row.rid)
            assert index.label_at(row.rid) is first  # memo hit
            assert first == fresh.classify_packet(row.packet)

    def test_custom_classifier_bypasses_memo(self, indexed_capture):
        _, _, index = indexed_capture

        class Sentinel:
            def classify_packet(self, packet):
                return "SENTINEL"

        row = index.rows[0]
        baseline = index.label_at(row.rid)
        assert index.label_at(row.rid, Sentinel()) == "SENTINEL"
        # The memoized default label is untouched.
        assert index.label_at(row.rid) == baseline

    def test_ensure_labels_fills_every_row(self, indexed_capture):
        _, _, index = indexed_capture
        index.ensure_labels()
        fresh = CorrectedClassifier()
        for row in index.rows:
            assert index.label_at(row.rid) == fresh.classify_packet(row.packet)

    def test_flows_lazy_and_equivalent(self, indexed_capture):
        _, packets, index = indexed_capture
        assert index._flows is None
        table = index.flows
        assert index.flows is table  # assembled once
        expected = assemble_flows(packets)
        assert len(table) == len(expected)
        assert [flow.key for flow in table] == [flow.key for flow in expected]


class TestSharedTableGrowth:
    """An index reads only its own rows after the capture's table grows."""

    def test_analyses_ignore_rows_past_the_index(self, mini_testbed):
        capture = mini_testbed.lan.capture
        mini_testbed.run(60.0)
        index = capture.index()
        mini_testbed.run(30.0)
        assert len(capture.table()) > len(index)  # the shared table grew
        table = PacketTable()
        table.extend_records(list(capture.records)[:len(index)], DecodeErrorLog())
        fresh = CaptureIndex(table)
        macs = {mac: mac for mac in fresh.by_src_mac}
        assert canonical_json(periodicity_artifact(analyze_periodicity(index, macs))) \
            == canonical_json(periodicity_artifact(analyze_periodicity(fresh, macs)))
        assert cross_validate(index) == cross_validate(fresh)


class TestAnalysisEquality:
    """Every entry point: raw list in == prebuilt index in, byte for byte."""

    def test_census(self, indexed_capture):
        testbed, packets, index = indexed_capture
        macs, _, _ = device_maps(testbed)
        assert census_from_capture(packets, macs).passive == \
            census_from_capture(index, macs).passive

    def test_device_graph(self, indexed_capture):
        testbed, packets, index = indexed_capture
        macs, vendors, _ = device_maps(testbed)
        from_list = build_device_graph(packets, macs, vendors)
        from_index = build_device_graph(index, macs, vendors)
        assert sorted(from_list.graph.edges(data=True)) == \
            sorted(from_index.graph.edges(data=True))
        assert from_list.summary() == from_index.summary()

    def test_exposure(self, indexed_capture):
        testbed, packets, index = indexed_capture
        macs, _, _ = device_maps(testbed)
        from_list = analyze_exposure(packets, macs)
        from_index = analyze_exposure(index, macs)
        assert from_list.cells == from_index.cells
        assert from_list.examples == from_index.examples  # ordering too

    @pytest.mark.parametrize("include_multicast", [False, True])
    def test_responses(self, indexed_capture, include_multicast):
        testbed, packets, index = indexed_capture
        macs, _, categories = device_maps(testbed)
        from_list = correlate_responses(
            packets, macs, categories,
            include_multicast_responses=include_multicast)
        from_index = correlate_responses(
            index, macs, categories,
            include_multicast_responses=include_multicast)
        assert from_list.by_category() == from_index.by_category()
        for name, stats in from_list.per_device.items():
            other = from_index.per_device[name]
            assert stats.discovery_protocols == other.discovery_protocols
            assert stats.protocols_with_response == other.protocols_with_response
            assert stats.responders == other.responders

    def test_periodicity(self, indexed_capture):
        testbed, packets, index = indexed_capture
        macs, _, _ = device_maps(testbed)
        from_list = analyze_periodicity(packets, macs)
        from_index = analyze_periodicity(index, macs)
        # Detection list order is group-creation order: must be identical.
        assert [
            (d.device, d.destination, d.protocol, d.event_count, d.is_periodic, d.period)
            for d in from_list.detections
        ] == [
            (d.device, d.destination, d.protocol, d.event_count, d.is_periodic, d.period)
            for d in from_index.detections
        ]

    def test_crossval(self, indexed_capture):
        _, packets, index = indexed_capture
        from_list = cross_validate(packets)
        from_index = cross_validate(index)
        assert from_list.confusion == from_index.confusion
        assert from_list.total_units == from_index.total_units
        assert (from_list.agree, from_list.disagree, from_list.neither) == \
            (from_index.agree, from_index.disagree, from_index.neither)

    def test_threat_report(self, indexed_capture):
        testbed, packets, index = indexed_capture
        macs, _, _ = device_maps(testbed)
        from_list = build_threat_report(packets, macs)
        from_index = build_threat_report(index, macs)
        assert from_list.plaintext_http_devices == from_index.plaintext_http_devices
        assert from_list.http_clients_only == from_index.http_clients_only
        assert from_list.http_servers == from_index.http_servers
        assert dict(from_list.user_agents) == dict(from_index.user_agents)
        assert set(from_list.tls_devices) == set(from_index.tls_devices)
        for device, posture in from_list.tls_devices.items():
            other = from_index.tls_devices[device]
            assert posture.versions == other.versions
            assert posture.mutual_auth == other.mutual_auth
            assert len(posture.certificates) == len(other.certificates)
