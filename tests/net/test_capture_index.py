"""CaptureIndex: bucket correctness and columnar-vs-eager analysis equality.

The decode-once index is only useful if every bucket matches a
brute-force scan of the same capture, and if every analysis entry point
produces *identical* artifacts over the columnar table that
``ApCapture.index()`` and ``ingest_pcap`` build and over the eager
reference (``PacketTable.from_packets`` of a per-record decode), on the
lab capture, the fault-plan capture and a heavily damaged one.
"""

from __future__ import annotations

import pytest

from repro.classify.crossval import cross_validate
from repro.classify.rules import CorrectedClassifier
from repro.core.device_graph import build_device_graph
from repro.core.exposure import analyze_exposure
from repro.core.periodicity import analyze_periodicity
from repro.core.protocol_census import census_from_capture
from repro.core.responses import correlate_responses
from repro.core.threat_report import build_threat_report
from repro.devices.behaviors import build_testbed
from repro.net.columnar import F_BROADCAST, F_UNICAST, PacketTable
from repro.net.decode import DecodeErrorLog, decode_records, quick_protocol
from repro.net.flows import assemble_flows
from repro.net.index import CaptureIndex
from repro.report.artifacts import (
    canonical_json,
    census_artifact,
    device_graph_artifact,
    exposure_artifact,
    periodicity_artifact,
)
from tests.conftest import device_maps


@pytest.fixture
def indexed_capture(mini_capture):
    testbed, packets = mini_capture
    return testbed, packets, testbed.lan.capture.index()


class TestBuckets:
    def test_rows_preserve_capture_order(self, indexed_capture):
        _, packets, index = indexed_capture
        assert len(index) == len(packets)
        assert [index.table.packet(rid) for rid in range(len(index))] == packets

    def test_row_columns_match_packet_properties(self, indexed_capture):
        _, packets, index = indexed_capture
        table = index.table
        for rid, packet in enumerate(packets[:200]):
            assert table.mac_strings[table.src_mac[rid]] == str(packet.frame.src)
            assert table.mac_strings[table.dst_mac[rid]] == str(packet.frame.dst)
            assert table.timestamps[rid] == packet.timestamp
            assert (None, "udp", "tcp")[table.transport[rid]] == packet.transport
            sip, dip = table.src_ip[rid], table.dst_ip[rid]
            assert (table.ip_strings[sip] if sip >= 0 else None) == packet.src_ip
            assert (table.ip_strings[dip] if dip >= 0 else None) == packet.dst_ip
            sport, dport = table.src_port[rid], table.dst_port[rid]
            assert (sport if sport >= 0 else None) == packet.src_port
            assert (dport if dport >= 0 else None) == packet.dst_port
            assert bool(table.flags[rid] & F_UNICAST) == packet.is_unicast
            assert bool(table.flags[rid] & F_BROADCAST) == packet.is_broadcast
            assert table.protocol_tags[table.protocol[rid]] == quick_protocol(packet)

    def test_by_src_mac_matches_brute_force(self, indexed_capture):
        _, packets, index = indexed_capture
        for mac, rids in index.by_src_mac.items():
            expected = [p for p in packets if str(p.frame.src) == mac]
            assert [packets[rid] for rid in rids] == expected
        # Every packet lands in exactly one source bucket.
        assert sum(len(rids) for rids in index.by_src_mac.values()) == len(packets)

    def test_by_protocol_matches_brute_force(self, indexed_capture):
        _, packets, index = indexed_capture
        for tag, rids in index.by_protocol.items():
            expected = [p for p in packets if quick_protocol(p) == tag]
            assert [packets[rid] for rid in rids] == expected
        assert sum(index.protocol_counts().values()) == len(packets)

    def test_filtered_views_match_brute_force(self, indexed_capture):
        _, packets, index = indexed_capture

        def rows(rids):
            return [packets[rid] for rid in rids]

        assert rows(index.arp) == [p for p in packets if p.arp is not None]
        assert rows(index.udp) == [p for p in packets if p.udp is not None]
        assert rows(index.tcp_payload) == [
            p for p in packets
            if p.udp is None and p.tcp is not None and p.tcp.payload
        ]
        assert rows(index.transport_unicast) == [
            p for p in packets if p.transport is not None and p.is_unicast
        ]
        assert rows(index.transport_multicast) == [
            p for p in packets if p.transport is not None and not p.is_unicast
        ]


class TestLabels:
    def test_labels_memoized_and_match_fresh_classifier(self, indexed_capture):
        _, packets, index = indexed_capture
        fresh = CorrectedClassifier()
        for rid in range(300):
            first = index.label_at(rid)
            assert index.label_at(rid) is first  # memo hit
            assert first == fresh.classify_packet(packets[rid])

    def test_custom_classifier_bypasses_memo(self, indexed_capture):
        _, _, index = indexed_capture

        class Sentinel:
            def classify_packet(self, packet):
                return "SENTINEL"

        baseline = index.label_at(0)
        assert index.label_at(0, Sentinel()) == "SENTINEL"
        # The memoized default label is untouched.
        assert index.label_at(0) == baseline

    def test_ensure_labels_fills_every_row(self, indexed_capture):
        _, packets, index = indexed_capture
        index.ensure_labels()
        fresh = CorrectedClassifier()
        for rid, packet in enumerate(packets):
            assert index.label_at(rid) == fresh.classify_packet(packet)

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


@pytest.fixture(scope="module")
def lab_maps():
    """The seed-7 lab's (macs, vendors, categories); every corpus is seed 7."""
    return device_maps(build_testbed(seed=7))


@pytest.fixture(scope="module", params=["lab", "chaos", "damage"])
def both_indexes(request):
    """(columnar, eager) indexes over one corpus's records."""
    records = request.getfixturevalue(f"{request.param}_records")
    columnar = CaptureIndex(PacketTable.from_records(records, DecodeErrorLog()))
    eager = CaptureIndex(PacketTable.from_packets(
        decode_records(records, DecodeErrorLog())))
    return columnar, eager


@pytest.fixture(params=["mapped", "identity"])
def maps(request, both_indexes, lab_maps):
    """(macs, vendors, categories) in the mapped or identity device mode."""
    if request.param == "mapped":
        return lab_maps
    columnar, _ = both_indexes
    return {mac: mac for mac in columnar.by_src_mac}, {}, {}


class TestAnalysisEquality:
    """Every entry point: columnar index == eager reference index, byte
    for byte, over the lab, fault-plan and damaged captures."""

    def test_census(self, both_indexes, maps):
        columnar, eager = both_indexes
        macs, _, _ = maps
        assert canonical_json(census_artifact(census_from_capture(columnar, macs))) \
            == canonical_json(census_artifact(census_from_capture(eager, macs)))

    def test_device_graph(self, both_indexes, maps):
        columnar, eager = both_indexes
        macs, vendors, _ = maps
        assert canonical_json(device_graph_artifact(
            build_device_graph(columnar, macs, vendors))) \
            == canonical_json(device_graph_artifact(
                build_device_graph(eager, macs, vendors)))

    def test_exposure(self, both_indexes, maps):
        columnar, eager = both_indexes
        macs, _, _ = maps
        from_columns = analyze_exposure(columnar, macs)
        from_packets = analyze_exposure(eager, macs)
        assert canonical_json(exposure_artifact(from_columns)) \
            == canonical_json(exposure_artifact(from_packets))
        assert from_columns.examples == from_packets.examples  # ordering too

    @pytest.mark.parametrize("include_multicast", [False, True])
    def test_responses(self, both_indexes, maps, include_multicast):
        columnar, eager = both_indexes
        macs, _, categories = maps
        from_columns, from_packets = (
            correlate_responses(index, macs, categories,
                                include_multicast_responses=include_multicast)
            for index in (columnar, eager))
        assert from_columns.by_category() == from_packets.by_category()
        assert list(from_columns.per_device.items()) == \
            list(from_packets.per_device.items())

    def test_periodicity(self, both_indexes, maps):
        columnar, eager = both_indexes
        macs, _, _ = maps
        # Detection list order is group-creation order: must be identical.
        assert canonical_json(periodicity_artifact(analyze_periodicity(columnar, macs))) \
            == canonical_json(periodicity_artifact(analyze_periodicity(eager, macs)))

    def test_crossval(self, both_indexes):
        columnar, eager = both_indexes
        assert cross_validate(columnar) == cross_validate(eager)

    def test_threat_report(self, both_indexes, maps):
        columnar, eager = both_indexes
        macs, _, _ = maps
        from_columns = build_threat_report(columnar, macs)
        from_packets = build_threat_report(eager, macs)
        assert from_columns == from_packets
        assert list(from_columns.tls_devices) == list(from_packets.tls_devices)
        assert list(from_columns.user_agents) == list(from_packets.user_agents)
