"""CaptureIndex: bucket correctness and columnar-vs-eager analysis equality.

The decode-once index is only useful if every bucket matches a
brute-force scan of the same capture, and if every analysis entry point
produces *identical* artifacts over the columnar table that
``ApCapture.index()`` and ``ingest_pcap`` build and over the eager
reference (``PacketTable.from_packets`` of a per-record decode), on the
lab capture, the fault-plan capture and a heavily damaged one.  The two
fast paths get their own differential tests: the label column filled
while the index is built against ``classify_packet``, Fig. 3's
column-keyed ARP units against a grouping of decoded packets, and the
exposure pass that mines each distinct payload once against per-row
mining.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classify.crossval import cross_validate
from repro.classify.labels import Label
from repro.classify.ndpi_like import NdpiLikeClassifier
from repro.classify.rules import CorrectedClassifier
from repro.classify.tshark_like import TsharkLikeClassifier
from repro.core.arp_analysis import analyze_arp
from repro.core.device_graph import build_device_graph
from repro.core.discovery_census import dhcp_census, mdns_service_census
from repro.core.exposure import (
    ExposureMatrix,
    _mine_dhcp,
    _mine_mdns,
    _mine_ssdp,
    _mine_tplink,
    _mine_tuyalp,
    analyze_exposure,
)
from repro.core.periodicity import analyze_periodicity
from repro.core.protocol_census import census_from_capture
from repro.core.responses import correlate_responses
from repro.core.threat_report import build_threat_report
from repro.devices.behaviors import build_testbed
from repro.net.columnar import F_ARP, F_BROADCAST, F_UNICAST, PacketTable
from repro.net.decode import DecodeErrorLog, decode_frame, decode_records, quick_protocol
from repro.net.flows import assemble_flows
from repro.net.index import _UNSET, CaptureIndex
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


@pytest.fixture(scope="module")
def lab_ips():
    """The seed-7 lab's MAC -> IP map."""
    return {str(node.mac): node.ip for node in build_testbed(seed=7).devices}


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

    @pytest.mark.parametrize("with_ips", [False, True], ids=["inferred-ips", "device-ips"])
    def test_arp(self, both_indexes, maps, lab_ips, with_ips):
        columnar, eager = both_indexes
        macs, _, _ = maps
        ips = {name: lab_ips[mac] for mac, name in macs.items() if mac in lab_ips} \
            if with_ips else None
        from_columns = analyze_arp(columnar, macs, ips)
        assert from_columns.scanners
        assert from_columns == analyze_arp(eager, macs, ips)

    def test_dhcp_census(self, both_indexes, maps):
        columnar, eager = both_indexes
        macs, _, _ = maps
        from_columns = dhcp_census(columnar, macs)
        assert from_columns.requesting_devices
        assert from_columns == dhcp_census(eager, macs)

    def test_mdns_service_census(self, both_indexes, maps):
        columnar, eager = both_indexes
        macs, _, _ = maps
        from_columns = mdns_service_census(columnar, macs)
        assert from_columns.by_family
        assert from_columns == mdns_service_census(eager, macs)


@pytest.fixture(scope="module", params=["lab", "chaos", "damage"])
def corpus_records(request):
    """One corpus's raw records: the lab, fault-plan and damaged captures."""
    return request.getfixturevalue(f"{request.param}_records")


class TestLabelColumn:
    """The labels filled in while the index is built equal the eager
    index's ``classify_packet`` labels, row for row."""

    def test_column_equals_classify_packet(self, corpus_records):
        table = PacketTable.from_records(corpus_records, DecodeErrorLog())
        # A fast-path UDP/TCP row whose packet exists before the build:
        # the build leaves it to label_at.
        early = next(rid for rid in range(len(table))
                     if table.transport[rid] and table._packets[rid] is None)
        table.packet(early)
        cached = [packet is not None for packet in table._packets]
        index = CaptureIndex(table)
        column = list(index._labels)
        eager = CaptureIndex(PacketTable.from_packets(
            decode_records(corpus_records, DecodeErrorLog())))
        assert column[early] is _UNSET
        filled = 0
        for rid in range(len(index)):
            expected = eager.label_at(rid)
            if column[rid] is _UNSET:
                # Only rows the fast parser left alone, or whose packet
                # was cached, wait for label_at.
                assert cached[rid] or not (
                    table.transport[rid] or table.flags[rid] & F_ARP)
            else:
                assert not cached[rid]
                assert column[rid] == expected, rid
                filled += 1
            assert index.label_at(rid) == expected, rid
        assert filled > len(index) // 2


class TestCrossvalGrouping:
    """Fig. 3 keys the non-flow ARP rows by the table's columns; its
    units and confusion equal a grouping of the decoded packets."""

    def test_units_equal_packet_grouping(self, corpus_records):
        packets = decode_records(corpus_records, DecodeErrorLog())
        tshark, ndpi = TsharkLikeClassifier(), NdpiLikeClassifier()
        flows = assemble_flows(packets)
        pairs = [(tshark.classify_flow(flow), ndpi.classify_flow(flow))
                 for flow in flows]
        groups = {}
        for packet in flows.non_flow_packets:
            kind = ("arp" if packet.arp else "eapol" if packet.eapol else
                    "icmp" if packet.icmp else "icmpv6" if packet.icmpv6 else
                    "igmp" if packet.igmp else "l3")
            groups.setdefault((str(packet.frame.src), kind), packet)
        for packet in groups.values():
            pairs.append(tuple(None if label is Label.UNKNOWN_L3 else label
                               for label in (tshark.classify_packet(packet),
                                             ndpi.classify_packet(packet))))
        expected = Counter(tuple("UNDETECTED" if label is None else str(label)
                                 for label in pair) for pair in pairs)
        index = CaptureIndex(PacketTable.from_records(corpus_records,
                                                      DecodeErrorLog()))
        result = cross_validate(index)
        assert result.total_units == len(pairs)
        assert result.confusion == dict(expected)


#: The classifier's own ports, plus ephemeral ones.
_CLASSIFIER_PORTS = [53, 67, 68, 546, 547, 1900, 5353, 5683, 9999,
                     *range(10000, 10011), 55444, 56700]
_EPHEMERAL_PORTS = [0, 1024, 40000, 50000, 65535]


def _payload_seeds():
    """One payload per branch of the nDPI-like payload rules."""
    from repro.protocols.coap import CoapMessage
    from repro.protocols.dhcp import DhcpMessage
    from repro.protocols.dhcpv6 import Dhcpv6Message
    from repro.protocols.mdns import ServiceAdvertisement, mdns_query
    from repro.protocols.rtp import RtpPacket
    from repro.protocols.ssdp import SsdpMessage
    from repro.protocols.stun import StunMessage
    from repro.protocols.tls import TlsRecord, TlsVersion
    from repro.protocols.tplink_shp import TplinkShpMessage
    from repro.protocols.tuyalp import TuyaLpMessage

    mac = "02:00:00:00:00:01"
    notify = SsdpMessage.notify("http://x/", "upnp:rootdevice",
                                "uuid:1::r", "srv").encode()
    padding = (97 - len(notify) % 97) % 97
    ciscovpn = notify[:-2] + b" " * padding + b"\r\n"
    assert len(ciscovpn) % 97 == 0
    sysinfo = TplinkShpMessage.get_sysinfo_query()
    return [
        ServiceAdvertisement("_hue._tcp.local", "Hue", "hue.local", 443,
                             "192.168.10.2").to_response().encode(),
        mdns_query(["_matter._tcp.local"]).encode(),
        ciscovpn,
        TuyaLpMessage.discovery("gw", "pk", "10.0.0.1").encode(),
        sysinfo.encode(),
        sysinfo.encode(transport="tcp"),
        DhcpMessage.discover(mac, 7, hostname="plug").encode(),
        Dhcpv6Message.solicit(mac, 7).encode(),
        CoapMessage.get("/oic/res").encode(),
        StunMessage(transaction_id=b"x" * 12).encode(),
        RtpPacket(97, 1, 1, 1, b"x" * 32).encode(),
        TlsRecord.client_hello(TlsVersion.TLS_1_2).encode(),
        b"GET /description.xml HTTP/1.1\r\n\r\n",
        b"",
    ]


def _frame(transport, sport, dport, payload):
    from repro.net.ether import EthernetFrame, EtherType
    from repro.net.ipv4 import IpProtocol, Ipv4Packet
    from repro.net.tcp import TcpFlags, TcpSegment
    from repro.net.udp import UdpDatagram

    if transport == "udp":
        segment, protocol = UdpDatagram(sport, dport, payload).encode(), IpProtocol.UDP
    else:
        segment = TcpSegment(sport, dport, flags=TcpFlags.ACK | TcpFlags.PSH,
                             payload=payload).encode()
        protocol = IpProtocol.TCP
    packet = Ipv4Packet("192.168.10.1", "192.168.10.2", protocol, segment)
    return EthernetFrame("02:00:00:00:00:02", "02:00:00:00:00:01",
                         EtherType.IPV4, packet.encode()).encode()


_SEEDS = _payload_seeds()


@settings(max_examples=300, deadline=None)
@given(
    ports=st.lists(st.sampled_from(_CLASSIFIER_PORTS + _EPHEMERAL_PORTS),
                   min_size=1, max_size=3, unique=True),
    seed=st.sampled_from(_SEEDS),
    flips=st.lists(st.tuples(st.integers(0, 4095), st.integers(1, 255)),
                   max_size=3),
    cut=st.none() | st.integers(0, 4095),
)
def test_column_label_equals_classify_packet(ports, seed, flips, cut):
    """UDP/TCP frames: every column label is its packet's label.

    One example is one payload under every transport and every
    (sport, dport) pair of a few ports, so the rows agree on all memo
    key fields but one, and a memo keyed on too little shows.
    """
    payload = bytearray(seed)
    for offset, mask in flips:
        if payload:
            payload[offset % len(payload)] ^= mask
    if cut is not None and payload:
        del payload[cut % len(payload):]
    headers = [(transport, sport, dport) for transport in ("udp", "tcp")
               for sport in ports for dport in ports]
    frames = [_frame(transport, sport, dport, bytes(payload))
              for transport, sport, dport in headers]
    index = CaptureIndex(PacketTable.from_records(
        [(float(i), frame) for i, frame in enumerate(frames)]))
    classifier = CorrectedClassifier()
    for rid, frame in enumerate(frames):
        column = index._labels[rid]
        assert column is not _UNSET  # a clean frame takes the fast path
        assert column == classifier.classify_packet(decode_frame(frame)), headers[rid]


def _exposure_per_row(index, device_macs):
    """The reference exposure pass: every row mined on its own."""
    matrix = ExposureMatrix()
    table = index.table
    for rid in index.arp:
        device = device_macs.get(table.mac_strings[table.src_mac[rid]])
        if device is not None:
            matrix.expose("ARP", "MAC", device, table.arp_sender_mac(rid))
    for rid in index.udp:
        device = device_macs.get(table.mac_strings[table.src_mac[rid]])
        if device is None:
            continue
        ports = (table.src_port[rid], table.dst_port[rid])
        if 67 in ports or 68 in ports:
            miner = _mine_dhcp
        elif 5353 in ports:
            miner = _mine_mdns
        elif 1900 in ports:
            miner = _mine_ssdp
        elif 6666 in ports or 6667 in ports:
            miner = _mine_tuyalp
        elif 9999 in ports:
            miner = _mine_tplink
        else:
            continue
        for protocol, identifier_type, example in miner(table.app_payload(rid)):
            matrix.expose(protocol, identifier_type, device, example)
    return matrix


class TestExposureMemo:
    """Mining each distinct payload once changes no cell and no example."""

    def test_memo_equals_per_row_mining(self, both_indexes, maps):
        columnar, _ = both_indexes
        macs, _, _ = maps
        memoized = analyze_exposure(columnar, macs)
        reference = _exposure_per_row(columnar, macs)
        assert {protocol: dict(kinds) for protocol, kinds in memoized.cells.items()} \
            == {protocol: dict(kinds) for protocol, kinds in reference.cells.items()}
        assert list(memoized.examples.items()) == list(reference.examples.items())
        assert reference.examples  # the corpus exposes something
