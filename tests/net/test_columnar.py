"""The columnar packet store: column equivalence and lazy materialization.

The struct-of-arrays :class:`PacketTable` is only correct if its columns
agree with eager ``decode_frame`` over every frame shape — including
the malformed corpus the quarantine path exists for — and if rows stay
un-materialized until something actually asks for the packet object.
"""

from __future__ import annotations

import pytest

from repro.net.columnar import (
    F_ARP,
    F_BROADCAST,
    F_MALFORMED,
    F_TCP_PAYLOAD,
    F_UDP,
    F_UNICAST,
    TRANSPORT_NONE,
    TRANSPORT_TCP,
    TRANSPORT_UDP,
    LazyPackets,
    PacketTable,
)
from repro.net.decode import DecodeErrorLog, decode_frame, quick_protocol
from repro.net.ether import EthernetFrame, EtherType
from repro.net.ipv4 import Ipv4Packet
from repro.net.tcp import TcpSegment
from repro.net.udp import UdpDatagram

_SRC = "02:aa:00:00:00:01"
_DST = "02:aa:00:00:00:02"


def _udp_frame(sport=40000, dport=5353, payload=b"hello",
               src_ip="192.168.10.10", dst_ip="192.168.10.20") -> bytes:
    datagram = UdpDatagram(sport, dport, payload)
    ip = Ipv4Packet(src_ip, dst_ip, 17, datagram.encode())
    return EthernetFrame(_SRC, _DST, EtherType.IPV4, ip.encode()).encode()


def _tcp_frame(payload=b"GET / HTTP/1.1\r\n\r\n") -> bytes:
    segment = TcpSegment(src_port=51000, dst_port=80, payload=payload)
    ip = Ipv4Packet("192.168.10.10", "192.168.10.20", 6, segment.encode())
    return EthernetFrame(_SRC, _DST, EtherType.IPV4, ip.encode()).encode()


def _arp_frame() -> bytes:
    from repro.net.arp import ArpOp, ArpPacket

    arp = ArpPacket(op=ArpOp.REQUEST, sender_mac=_SRC,
                    sender_ip="192.168.10.10",
                    target_mac="00:00:00:00:00:00",
                    target_ip="192.168.10.20")
    return EthernetFrame(_SRC, "ff:ff:ff:ff:ff:ff",
                         EtherType.ARP, arp.encode()).encode()


def _mixed_records():
    """Clean, broadcast, fallback, and malformed frames in one capture."""
    well_formed = [
        _udp_frame(),
        _udp_frame(dport=1900, dst_ip="239.255.255.250", payload=b"M-SEARCH"),
        _udp_frame(sport=68, dport=67, dst_ip="255.255.255.255",
                   payload=b"\x01" * 64),
        _tcp_frame(),
        _tcp_frame(payload=b""),
        _arp_frame(),
    ]
    icmp = EthernetFrame(_SRC, _DST, EtherType.IPV4, Ipv4Packet(
        "192.168.10.10", "192.168.10.20", 1, b"\x08\x00\x00\x00").encode(),
    ).encode()
    malformed = [
        b"\x00" * 10,                 # runt: too short for Ethernet
        _udp_frame()[:20],            # truncated mid-IPv4-header
        _udp_frame()[:36],            # truncated mid-UDP-header
        _tcp_frame()[:40],            # truncated mid-TCP-header
        _arp_frame()[:30],            # truncated ARP body
    ]
    frames = well_formed + [icmp] + malformed
    return [(float(i), frame) for i, frame in enumerate(frames)]


class TestColumnEquivalence:
    def test_columns_match_eager_decode(self):
        records = _mixed_records()
        table = PacketTable.from_records(records, DecodeErrorLog())
        assert len(table) == len(records)
        for rid, (timestamp, data) in enumerate(records):
            expected = decode_frame(data, timestamp)
            assert table.timestamps[rid] == timestamp
            assert table.mac_strings[table.src_mac[rid]] == str(expected.frame.src)
            assert table.mac_strings[table.dst_mac[rid]] == str(expected.frame.dst)
            assert table.protocol_tags[table.protocol[rid]] == quick_protocol(expected)
            code = table.transport[rid]
            assert code == {None: TRANSPORT_NONE, "udp": TRANSPORT_UDP,
                            "tcp": TRANSPORT_TCP}[expected.transport]
            for column, value in ((table.src_ip, expected.src_ip),
                                  (table.dst_ip, expected.dst_ip)):
                if value is None:
                    assert column[rid] < 0
                else:
                    assert table.ip_strings[column[rid]] == value
            assert table.src_port[rid] == (expected.src_port
                                           if expected.src_port is not None else -1)
            assert table.dst_port[rid] == (expected.dst_port
                                           if expected.dst_port is not None else -1)

    def test_flags_match_packet_predicates(self):
        records = _mixed_records()
        table = PacketTable.from_records(records, DecodeErrorLog())
        for rid, (timestamp, data) in enumerate(records):
            expected = decode_frame(data, timestamp)
            flags = table.flags[rid]
            assert bool(flags & F_UNICAST) == expected.is_unicast
            assert bool(flags & F_BROADCAST) == expected.is_broadcast
            assert bool(flags & F_ARP) == (expected.arp is not None)
            assert bool(flags & F_UDP) == (expected.udp is not None)
            assert bool(flags & F_TCP_PAYLOAD) == (
                expected.udp is None and expected.tcp is not None
                and bool(expected.tcp.payload))
            assert bool(flags & F_MALFORMED) == expected.is_malformed

    def test_quarantine_counts_match_eager_decode(self):
        records = _mixed_records()
        eager_errors = DecodeErrorLog()
        for timestamp, data in records:
            decode_frame(data, timestamp, errors=eager_errors)
        columnar_errors = DecodeErrorLog()
        PacketTable.from_records(records, columnar_errors)
        assert columnar_errors.counts == eager_errors.counts
        assert sum(columnar_errors.counts.values()) > 0  # corpus has damage

    def test_app_payload_and_frame_bytes(self):
        records = _mixed_records()
        table = PacketTable.from_records(records, DecodeErrorLog())
        for rid, (timestamp, data) in enumerate(records):
            assert table.frame_bytes(rid) == data
            assert table.app_payload(rid) == decode_frame(data, timestamp).app_payload


class TestLazyMaterialization:
    def test_rows_stay_lazy_until_touched(self):
        records = [(0.0, _udp_frame()), (1.0, _tcp_frame()), (2.0, _arp_frame())]
        table = PacketTable.from_records(records, DecodeErrorLog())
        assert table._packets == [None, None, None]
        packet = table.packet(1)
        assert table._packets[0] is None and table._packets[2] is None
        assert table.packet(1) is packet  # memoized

    def test_malformed_rows_are_cached_eagerly(self):
        """The fallback path already built the packet; keep it."""
        table = PacketTable.from_records([(0.0, b"\x00" * 10)], DecodeErrorLog())
        assert table._packets[0] is not None
        assert table.packet(0).is_malformed

    def test_from_packets_returns_original_objects(self):
        packets = [decode_frame(_udp_frame(), 0.0), decode_frame(_tcp_frame(), 1.0)]
        table = PacketTable.from_packets(packets)
        assert table.packet(0) is packets[0]
        assert table.packet(1) is packets[1]
        assert table.packets() == packets

    def test_materialized_equals_eager_decode(self):
        records = _mixed_records()
        table = PacketTable.from_records(records, DecodeErrorLog())
        eager = [decode_frame(data, ts) for ts, data in records]
        assert table.packets() == eager


class TestLazyPackets:
    def test_sequence_protocol_and_equality(self):
        records = [(float(i), _udp_frame(sport=40000 + i)) for i in range(4)]
        table = PacketTable.from_records(records, DecodeErrorLog())
        view = LazyPackets(table, [0, 2])
        assert len(view) == 2
        assert view == [table.packet(0), table.packet(2)]
        assert view == LazyPackets(table, [0, 2])
        assert view != LazyPackets(table, [0, 1])
        with pytest.raises(TypeError):
            hash(view)

    def test_interning_is_shared_across_rows(self):
        records = [(float(i), _udp_frame()) for i in range(50)]
        table = PacketTable.from_records(records, DecodeErrorLog())
        assert len(table.mac_strings) == 2
        assert len(table.ip_strings) == 2
        assert len(set(table.src_mac)) == 1
