"""Differential tests of the frame codecs against their reference forms.

``repro.net.ipv4`` parses each address value once and remembers the
result.  The reference decoder below is the frame path without that
memo: it unpacks the IPv4, ARP and IGMP headers itself and turns every
address into text with ``ipaddress.IPv4Address`` directly.  Over three
corpora (the seed-7 lab capture, a capture recorded under
``examples/fault_plans/chaos.json`` and the mutation-fuzz corpus of
``tests/faults/test_mutation_fuzz.py``) ``decode_frame`` must agree with
it on every IPv4, ARP and IGMP frame.  Hostile inputs must fail exactly
as ``ipaddress`` fails, on every call: a failure is never remembered.

The cheaper per-frame codecs are checked against the code they
replaced, kept here as references: the RFC 1071 checksum as a loop over
16-bit words (on the same corpora and on edge inputs), the TCP flag
tests as ``TcpFlags`` ``&`` expressions (on all 256 flag bytes), and
EtherType classification as an enum construction that may raise (on
all 65,536 values).  Decoded MAC addresses in the corpora must carry
the raw header bytes.
"""

import ipaddress
import random
import struct

import pytest

from repro.net import ipv4
from repro.net.arp import ArpOp, ArpPacket
from repro.net.decode import decode_frame
from repro.net.ether import EthernetFrame, EtherType
from repro.net.igmp import IgmpMessage, IgmpType
from repro.net.ipv4 import (
    IPV4_CACHE_SIZE,
    IpProtocol,
    Ipv4Packet,
    internet_checksum,
    ipv4_is_multicast,
    ipv4_packed,
    ipv4_text,
    pseudo_header_checksum,
)
from repro.net.mac import MacAddress, ipv4_multicast_mac
from repro.net.tcp import TcpFlags, TcpSegment
from repro.net.udp import UdpDatagram
from repro.simnet.lan import Lan
from repro.simnet.node import Node
from repro.simnet.simulator import Simulator
from tests.faults.test_mutation_fuzz import CORPUS, _mutations

MAC_A = "02:00:00:00:00:02"
MAC_B = "02:00:00:00:00:03"

_IPV4 = struct.Struct("!BBHHHBBH4s4s")
_ARP = struct.Struct("!HHBBH6s4s6s4s")
_IGMP = struct.Struct("!BBH4s")


# -- the reference: every address through ipaddress, nothing remembered --------

def _text(packed):
    return str(ipaddress.IPv4Address(packed))


def reference_ipv4(data):
    """``(src, dst, protocol, payload, ttl, id, dscp)``, or None if invalid."""
    if len(data) < _IPV4.size:
        return None
    ver_ihl, tos, total, ident, _frag, ttl, proto, _ck, src, dst = _IPV4.unpack_from(data)
    header_len = (ver_ihl & 0x0F) * 4
    if ver_ihl >> 4 != 4 or header_len < 20 or len(data) < header_len:
        return None
    payload = data[header_len:total] if total else data[header_len:]
    return (_text(src), _text(dst), proto, payload, ttl, ident, tos >> 2)


def reference_arp(data):
    """``(op, sender_mac, sender_ip, target_mac, target_ip)``, or None."""
    if len(data) < _ARP.size:
        return None
    htype, ptype, hlen, plen, op, smac, sip, tmac, tip = _ARP.unpack_from(data)
    if (htype, ptype, hlen, plen) != (1, 0x0800, 6, 4) or op not in (1, 2):
        return None
    return (op, smac, _text(sip), tmac, _text(tip))


def reference_igmp(data):
    """``(type, group, max_resp_time)``, or None when truncated."""
    if len(data) < _IGMP.size:
        return None
    igmp_type, max_resp, _ck, group = _IGMP.unpack_from(data)
    return (igmp_type, _text(group), max_resp)


def reference_layers(data):
    """The IPv4, ARP and IGMP layers of one frame, as the reference sees them."""
    frame = EthernetFrame.decode(data)
    if frame.kind is EtherType.ARP:
        return None, reference_arp(frame.payload), None
    ip = reference_ipv4(frame.payload)
    igmp = None
    if ip is not None and ip[2] == IpProtocol.IGMP:
        igmp = reference_igmp(ip[3])
    return ip, None, igmp


def decoded_layers(data):
    """The same fields read off ``decode_frame``."""
    packet = decode_frame(data)
    ip, arp, igmp = packet.ipv4, packet.arp, packet.igmp
    return (
        None if ip is None else (ip.src, ip.dst, ip.protocol, ip.payload,
                                 ip.ttl, ip.identification, ip.dscp),
        None if arp is None else (int(arp.op), arp.sender_mac.packed, arp.sender_ip,
                                  arp.target_mac.packed, arp.target_ip),
        None if igmp is None else (igmp.igmp_type, igmp.group, igmp.max_resp_time),
    )


# -- the corpora ---------------------------------------------------------------------

def _ipv4_frame(protocol, payload):
    packet = Ipv4Packet("192.168.10.2", "192.168.10.3", protocol, payload)
    return EthernetFrame(MAC_A, MAC_B, EtherType.IPV4, packet.encode()).encode()


def fuzz_frames():
    """The mutation-fuzz corpus as frames.

    ``TestFrameContract``'s damaged IPv4/UDP frames (same seed, same
    order), plus ``TestParserContract``'s damaged ARP and IGMP messages,
    each carried in an intact frame.
    """
    rng = random.Random("fuzz:frames")
    for _decoder, payload in CORPUS:
        frame = _ipv4_frame(IpProtocol.UDP, UdpDatagram(40000, 5353, payload).encode())
        yield from _mutations(rng, frame, rounds=40)
    for decoder, valid in CORPUS:
        owner = decoder.__self__
        if owner not in (ArpPacket, IgmpMessage):
            continue
        rng = random.Random(f"fuzz:{owner.__name__}")
        for mutated in _mutations(rng, valid):
            if owner is ArpPacket:
                yield EthernetFrame(MAC_A, MAC_B, EtherType.ARP, mutated).encode()
            else:
                yield _ipv4_frame(IpProtocol.IGMP, mutated)


def _address_frames(records):
    """Frames whose Ethernet header is intact and says IPv4 or ARP."""
    frames = []
    for data in records:
        try:
            kind = EthernetFrame.decode(data).kind
        except ValueError:
            continue
        if kind in (EtherType.IPV4, EtherType.ARP):
            frames.append(data)
    return frames


@pytest.fixture(scope="module")
def raw_corpora(lab_records, chaos_records):
    """Every frame of the three corpora, damaged Ethernet headers included."""
    return {
        "lab": [data for _ts, data in lab_records],
        "chaos": [data for _ts, data in chaos_records],
        "fuzz": list(fuzz_frames()),
    }


@pytest.fixture(scope="module")
def corpora(raw_corpora):
    return {name: _address_frames(frames) for name, frames in raw_corpora.items()}


class TestDecodeMatchesReference:
    @pytest.mark.parametrize("corpus", ["lab", "chaos", "fuzz"])
    def test_every_address_frame_decodes_like_ipaddress(self, corpora, corpus):
        frames = corpora[corpus]
        seen = {"ipv4": 0, "arp": 0, "igmp": 0}
        for data in frames:
            expected = reference_layers(data)
            assert decoded_layers(data) == expected, data.hex()
            for name, layer in zip(("ipv4", "arp", "igmp"), expected):
                seen[name] += layer is not None
        # Every corpus exercises every codec.
        assert all(seen.values()), seen

    def test_corpora_hold_damaged_and_foreign_addresses(self, corpora):
        """Damage reaches the address fields: the memo sees values that
        no lab host owns, and frames whose IPv4 header does not parse."""
        addresses = set()
        rejected = 0
        for corpus in ("chaos", "fuzz"):
            for data in corpora[corpus]:
                ip, arp, _igmp = reference_layers(data)
                if ip is not None:
                    addresses.update(ip[:2])
                elif arp is None:
                    rejected += 1
        assert any(not address.startswith(("192.168.10.", "224.", "239.", "255."))
                   for address in addresses)
        assert rejected > 0


# -- checksum, TCP flags, EtherType and MACs against the code they replaced -------

def reference_checksum(data):
    """RFC 1071 as a loop over 16-bit words."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", data):
        total += word
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def reference_flag_tests(flags):
    """``(is_syn, is_synack, is_rst)`` computed with ``TcpFlags`` ``&``."""
    return (
        bool(flags & TcpFlags.SYN) and not (flags & TcpFlags.ACK),
        bool(flags & TcpFlags.SYN) and bool(flags & TcpFlags.ACK),
        bool(flags & TcpFlags.RST),
    )


def reference_kind(ethertype):
    """EtherType classification by enum construction."""
    if ethertype < 0x0600:
        return EtherType.LLC
    try:
        return EtherType(ethertype)
    except ValueError:
        return EtherType.LLC


_TCP = struct.Struct("!HHIIBBHHH")


def ipv4_transport(data):
    """``(ip header, src, dst, protocol, segment)`` of an IPv4 frame, or None."""
    frame = EthernetFrame.decode(data)
    ip = reference_ipv4(frame.payload) if frame.kind is EtherType.IPV4 else None
    if ip is None:
        return None
    header = frame.payload[:(frame.payload[0] & 0x0F) * 4]
    return header, ip[0], ip[1], ip[2], ip[3]


CHECKSUM_EDGES = [
    b"", b"\x00", b"\x01", b"\xff", b"\x01\x02\x03",
    b"\x00" * 8, b"\x00" * 20, b"\x00" * 21, b"\xff" * 20, b"\xff" * 21,
    # Word sums that are nonzero multiples of 0xFFFF, even and odd length.
    b"\x00\x01\xff\xfe", b"\xff\xff", b"\xff\xfe\x00\x01\xff\xff", b"\xfe\xff\x01",
]


class TestChecksumMatchesWordLoop:
    @pytest.mark.parametrize("data", CHECKSUM_EDGES, ids=lambda data: data.hex() or "empty")
    def test_edge_inputs(self, data):
        assert internet_checksum(data) == reference_checksum(data)

    def test_random_inputs(self):
        rng = random.Random("checksum")
        for _ in range(3000):
            length = rng.randrange(0, 80)
            alphabet = rng.choice([(0, 255), (0, 1), (254, 255)])
            data = bytes(rng.randint(*alphabet) for _ in range(length))
            assert internet_checksum(data) == reference_checksum(data), data.hex()

    @pytest.mark.parametrize("corpus", ["lab", "chaos", "fuzz"])
    def test_every_ipv4_header_and_pseudo_header(self, corpora, corpus):
        checked = 0
        for data in corpora[corpus]:
            layers = ipv4_transport(data)
            if layers is None:
                continue
            header, src, dst, protocol, segment = layers
            assert internet_checksum(header) == reference_checksum(header), data.hex()
            if corpus == "lab":
                assert internet_checksum(header) == 0  # the sender's checksum verifies
            pseudo = (ipaddress.IPv4Address(src).packed + ipaddress.IPv4Address(dst).packed
                      + struct.pack("!BBH", 0, protocol, len(segment)))
            expected = reference_checksum(pseudo + segment)
            assert internet_checksum(pseudo + segment) == expected, data.hex()
            assert pseudo_header_checksum(src, dst, protocol, segment) == expected
            checked += 1
        assert checked


class TestTcpFlagsMatchEnumExpressions:
    def test_every_flag_byte(self):
        for byte in range(256):
            segment = TcpSegment.decode(_TCP.pack(1, 2, 0, 0, 5 << 4, byte, 0, 0, 0))
            assert segment.flags is TcpFlags(byte)
            assert (segment.is_syn, segment.is_synack, segment.is_rst) == \
                reference_flag_tests(TcpFlags(byte)), byte

    def test_constructor_keeps_a_flags_value_and_converts_an_int(self):
        flags = TcpFlags.SYN | TcpFlags.ACK
        assert TcpSegment(1, 2, flags=flags).flags is flags
        converted = TcpSegment(1, 2, flags=0x14).flags
        assert type(converted) is TcpFlags and converted == TcpFlags.RST | TcpFlags.ACK


class TestFramesMatchRawBytes:
    def test_every_ethertype_classifies_as_before(self):
        for value in range(0x10000):
            assert EtherType.classify(value) is reference_kind(value), hex(value)

    @pytest.mark.parametrize("corpus", ["lab", "chaos", "fuzz"])
    def test_macs_and_kind_carry_the_header_bytes(self, raw_corpora, corpus):
        for data in raw_corpora[corpus]:
            packet = decode_frame(data)
            if len(data) < 14:
                assert packet.decode_error == "ethernet"
                continue
            frame = packet.frame
            assert frame.dst.packed == data[0:6] and frame.src.packed == data[6:12]
            assert frame.kind is reference_kind(int.from_bytes(data[12:14], "big"))
            for mac in (frame.dst, frame.src):
                twin = MacAddress(str(mac))
                assert mac == twin and hash(mac) == hash(twin)


# -- constructors and codec functions on hostile input ---------------------------

HOSTILE = ["1.2.3", "01.2.3.4", " 1.2.3.4", None, 3.0, bytearray(4), []]


def _send_udp(value):
    node = Lan(Simulator()).attach(Node("n", MAC_A, "192.168.10.2"))
    node.send_udp(value, 9, b"")

CALLS = {
    "ipv4_text": ipv4_text,
    "ipv4_packed": ipv4_packed,
    "ipv4_is_multicast": ipv4_is_multicast,
    "Ipv4Packet.src": lambda value: Ipv4Packet(value, "192.168.10.2", IpProtocol.UDP),
    "Ipv4Packet.dst": lambda value: Ipv4Packet("192.168.10.2", value, IpProtocol.UDP),
    "ArpPacket.sender_ip": lambda value: ArpPacket(
        ArpOp.REQUEST, MAC_A, value, "00:00:00:00:00:00", "192.168.10.3"),
    "ArpPacket.target_ip": lambda value: ArpPacket(
        ArpOp.REQUEST, MAC_A, "192.168.10.2", "00:00:00:00:00:00", value),
    "IgmpMessage.encode": lambda value: IgmpMessage(
        IgmpType.V2_MEMBERSHIP_REPORT, value).encode(),
    "pseudo_header_checksum": lambda value: pseudo_header_checksum(
        value, "192.168.10.3", IpProtocol.UDP, b""),
    "ipv4_multicast_mac": ipv4_multicast_mac,
    "Node.send_udp": _send_udp,
}


def _ipaddress_error(value):
    try:
        ipaddress.IPv4Address(value)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    raise AssertionError(f"{value!r} is a valid IPv4 address")


class TestHostileInput:
    @pytest.mark.parametrize("value", HOSTILE, ids=repr)
    @pytest.mark.parametrize("call", list(CALLS.values()), ids=list(CALLS))
    def test_raises_like_ipaddress_on_every_call(self, call, value):
        expected = _ipaddress_error(value)
        for _ in range(2):
            with pytest.raises(Exception) as info:
                call(value)
            assert type(info.value) is expected

    def test_a_cached_int_does_not_answer_for_an_equal_float(self):
        # True and 1.0 are equal and hash alike, but only the bool (an
        # int) is an address.
        assert ipv4_text(True) == "0.0.0.1"
        with pytest.raises(ipaddress.AddressValueError):
            ipv4_text(1.0)

    def test_unhashable_valid_value_is_parsed_uncached(self):
        class Unhashable:
            __hash__ = None

            def __str__(self):
                return "192.168.10.9"

        assert ipv4_text(Unhashable()) == "192.168.10.9"
        assert ipv4_packed(Unhashable()) == bytes([192, 168, 10, 9])


class TestValidInput:
    @pytest.mark.parametrize("value", [
        "192.168.10.5", b"\xc0\xa8\x0a\x05", 3232238085,
        ipaddress.IPv4Address("192.168.10.5"), "224.0.0.251", b"\xef\xff\xff\xfa",
        "255.255.255.255", "0.0.0.0", True,
    ], ids=repr)
    def test_matches_ipaddress(self, value):
        address = ipaddress.IPv4Address(value)
        for _ in range(2):
            assert ipv4_text(value) == str(address)
            assert ipv4_packed(value) == address.packed
            assert ipv4_is_multicast(value) is address.is_multicast

    def test_multicast_mac_matches_rfc1112_mapping(self):
        for group in ("224.0.0.251", "239.255.255.250", "224.128.0.1", "238.1.2.3"):
            low23 = int(ipaddress.IPv4Address(group)) & 0x7FFFFF
            expected = bytes([0x01, 0x00, 0x5E]) + low23.to_bytes(3, "big")
            assert ipv4_multicast_mac(group).packed == expected
        with pytest.raises(ValueError):
            ipv4_multicast_mac("192.168.10.5")

    def test_memo_is_bounded(self):
        for value in range(IPV4_CACHE_SIZE + 64):
            ipv4_text(value)
        info = ipv4._parse.cache_info()
        assert info.maxsize == IPV4_CACHE_SIZE
        assert info.currsize <= IPV4_CACHE_SIZE
