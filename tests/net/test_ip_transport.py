"""Unit tests for IPv4/IPv6/UDP/TCP/ICMP codecs and checksums."""

import pytest

from repro.net.icmp import IcmpMessage, IcmpType, Icmpv6Message, Icmpv6Type
from repro.net.ipv4 import (
    IpProtocol,
    Ipv4Packet,
    internet_checksum,
    pseudo_header_checksum,
)
from repro.net.ipv6 import Ipv6Packet, link_local_from_mac
from repro.net.tcp import TcpFlags, TcpSegment
from repro.net.udp import UdpDatagram


class TestChecksum:
    def test_rfc1071_example(self):
        # Canonical example from RFC 1071 §3.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0x220D

    def test_odd_length_padding(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    def test_verifies_to_zero(self):
        packet = Ipv4Packet("192.168.10.1", "192.168.10.2", IpProtocol.UDP, b"x")
        header = packet.encode()[:20]
        assert internet_checksum(header) == 0


class TestIpv4:
    def test_roundtrip(self):
        packet = Ipv4Packet("192.168.10.5", "192.168.10.60", IpProtocol.TCP, b"payload", ttl=32)
        decoded = Ipv4Packet.decode(packet.encode())
        assert decoded.src == "192.168.10.5"
        assert decoded.dst == "192.168.10.60"
        assert decoded.protocol == IpProtocol.TCP
        assert decoded.payload == b"payload"
        assert decoded.ttl == 32

    def test_checksum_verification(self):
        raw = bytearray(Ipv4Packet("10.0.0.1", "10.0.0.2", 17, b"x").encode())
        Ipv4Packet.decode(bytes(raw), verify_checksum=True)
        raw[8] ^= 0xFF  # corrupt the TTL
        with pytest.raises(ValueError):
            Ipv4Packet.decode(bytes(raw), verify_checksum=True)

    def test_multicast_and_local_flags(self):
        assert Ipv4Packet("192.168.10.5", "224.0.0.251", 17).is_multicast

    def test_rejects_ipv6_bytes(self):
        v6 = Ipv6Packet("fe80::1", "fe80::2", 17, b"")
        with pytest.raises(ValueError):
            Ipv4Packet.decode(v6.encode())

    def test_truncated(self):
        with pytest.raises(ValueError):
            Ipv4Packet.decode(b"\x45\x00")

    def test_protocol_name(self):
        assert IpProtocol.name_of(6) == "TCP"
        assert IpProtocol.name_of(99) == "IPPROTO_99"


class TestIpv6:
    def test_roundtrip(self):
        packet = Ipv6Packet("fe80::1", "ff02::fb", IpProtocol.UDP, b"abc", hop_limit=255)
        decoded = Ipv6Packet.decode(packet.encode())
        assert decoded.src == "fe80::1"
        assert decoded.dst == "ff02::fb"
        assert decoded.payload == b"abc"
        assert decoded.hop_limit == 255

    def test_multicast_flag(self):
        assert Ipv6Packet("fe80::1", "ff02::fb", 17).is_multicast
        assert not Ipv6Packet("fe80::1", "fe80::2", 17).is_multicast

    def test_rejects_ipv4_bytes(self):
        v4 = Ipv4Packet("10.0.0.1", "10.0.0.2", 17, b"")
        with pytest.raises(ValueError):
            Ipv6Packet.decode(v4.encode())

    def test_link_local_from_mac_embeds_mac(self):
        # SLAAC EUI-64: the MAC is recoverable from the address (§5.1's
        # identifier leak).
        address = link_local_from_mac("00:17:88:68:5f:61")
        assert address.startswith("fe80::")
        assert "ff:fe" in address or "fffe" in address.replace(":", "")

    def test_link_local_flips_universal_bit(self):
        address = link_local_from_mac("00:17:88:68:5f:61")
        assert "217" in address  # 0x00 ^ 0x02 = 0x02 -> "217:88ff:..."


class TestUdp:
    def test_roundtrip_no_checksum(self):
        datagram = UdpDatagram(5353, 5353, b"query")
        decoded = UdpDatagram.decode(datagram.encode())
        assert decoded.src_port == 5353 and decoded.payload == b"query"

    def test_checksum_with_pseudo_header(self):
        datagram = UdpDatagram(1900, 50000, b"NOTIFY")
        wire = datagram.encode("192.168.10.5", "192.168.10.60")
        # verify: checksum over pseudo-header + segment (with checksum
        # field included) must be 0
        assert pseudo_header_checksum("192.168.10.5", "192.168.10.60", 17, wire) == 0

    def test_length_field_truncates_payload(self):
        datagram = UdpDatagram(1, 2, b"abcdef")
        wire = bytearray(datagram.encode())
        wire[4:6] = (8 + 3).to_bytes(2, "big")  # claim only 3 payload bytes
        assert UdpDatagram.decode(bytes(wire)).payload == b"abc"

    def test_invalid_port(self):
        with pytest.raises(ValueError):
            UdpDatagram(70000, 1, b"")

    def test_bad_length_field(self):
        with pytest.raises(ValueError):
            UdpDatagram.decode(b"\x00\x01\x00\x02\x00\x03\x00\x00")


class TestTcp:
    def test_roundtrip(self):
        segment = TcpSegment(49152, 80, seq=100, ack=200,
                             flags=TcpFlags.ACK | TcpFlags.PSH, payload=b"GET /")
        decoded = TcpSegment.decode(segment.encode())
        assert decoded.src_port == 49152
        assert decoded.seq == 100 and decoded.ack == 200
        assert decoded.flags & TcpFlags.PSH
        assert decoded.payload == b"GET /"

    def test_flag_predicates(self):
        assert TcpSegment(1, 2, flags=TcpFlags.SYN).is_syn
        assert TcpSegment(1, 2, flags=TcpFlags.SYN | TcpFlags.ACK).is_synack
        assert not TcpSegment(1, 2, flags=TcpFlags.SYN | TcpFlags.ACK).is_syn
        assert TcpSegment(1, 2, flags=TcpFlags.RST).is_rst

    def test_checksummed_encode(self):
        segment = TcpSegment(49152, 80, flags=TcpFlags.SYN)
        wire = segment.encode("192.168.10.5", "192.168.10.60")
        assert pseudo_header_checksum("192.168.10.5", "192.168.10.60", 6, wire) == 0

    def test_sequence_wraparound(self):
        segment = TcpSegment(1, 2, seq=2**32 + 5)
        assert TcpSegment.decode(segment.encode()).seq == 5

    def test_truncated(self):
        with pytest.raises(ValueError):
            TcpSegment.decode(b"\x00" * 10)


class TestIcmp:
    def test_echo_roundtrip(self):
        message = IcmpMessage.echo_request(ident=7, seq=3, data=b"ping")
        decoded = IcmpMessage.decode(message.encode())
        assert decoded.icmp_type == IcmpType.ECHO_REQUEST
        assert decoded.body.endswith(b"ping")

    def test_echo_reply(self):
        decoded = IcmpMessage.decode(IcmpMessage.echo_reply().encode())
        assert decoded.icmp_type == IcmpType.ECHO_REPLY

    def test_truncated(self):
        with pytest.raises(ValueError):
            IcmpMessage.decode(b"\x08")


class TestIcmpv6:
    def test_neighbor_solicitation_carries_mac(self):
        import ipaddress

        target = ipaddress.IPv6Address("fe80::1").packed
        message = Icmpv6Message.neighbor_solicitation(target, "00:17:88:68:5f:61")
        decoded = Icmpv6Message.decode(message.encode())
        assert decoded.icmp_type == Icmpv6Type.NEIGHBOR_SOLICITATION
        assert str(decoded.embedded_mac()) == "00:17:88:68:5f:61"

    def test_neighbor_advertisement_carries_mac(self):
        import ipaddress

        target = ipaddress.IPv6Address("fe80::2").packed
        message = Icmpv6Message.neighbor_advertisement(target, "9c:8e:cd:0a:33:1b")
        decoded = Icmpv6Message.decode(message.encode())
        assert str(decoded.embedded_mac()) == "9c:8e:cd:0a:33:1b"

    def test_embedded_mac_absent_for_other_types(self):
        message = Icmpv6Message(Icmpv6Type.ECHO_REQUEST, 0, b"\x00" * 8)
        assert message.embedded_mac() is None
