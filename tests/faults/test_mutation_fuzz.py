"""Deterministic mutation-fuzz over every guarded parser.

The corpus starts from one *valid* encoded message per protocol and
damages it with the fault framework's own byte mutators
(:mod:`repro.faults.mutators`), seeded — the same corpus every run.
The contract under test is the one ``repro.net.guard.guarded_decode``
enforces: a decoder either returns a message or raises ``ValueError``;
no ``struct.error`` / ``IndexError`` / ``KeyError`` /
``UnicodeDecodeError`` ever leaks to callers.  ``decode_frame`` goes
further: it never raises at all.
"""

import random

import pytest

from repro.faults.mutators import (
    corrupt_bits,
    mutate_discovery_payload,
    truncate_bytes,
)
from repro.net.arp import ArpOp, ArpPacket
from repro.net.decode import DecodeErrorLog, decode_frame
from repro.net.eapol import EapolFrame
from repro.net.ether import EthernetFrame, EtherType
from repro.net.icmp import IcmpMessage, Icmpv6Message
from repro.net.igmp import IgmpMessage, IgmpType
from repro.net.ipv4 import Ipv4Packet
from repro.net.llc import LlcFrame
from repro.net.tcp import TcpFlags, TcpSegment
from repro.net.udp import UdpDatagram
from repro.protocols.coap import CoapCode, CoapMessage
from repro.protocols.dhcp import DhcpMessage
from repro.protocols.dhcpv6 import Dhcpv6Message, Dhcpv6MessageType
from repro.protocols.dns import DnsMessage, DnsQuestion
from repro.protocols.http import HttpRequest, HttpResponse
from repro.protocols.mdns import ServiceAdvertisement
from repro.protocols.netbios import NetbiosNsQuery
from repro.protocols.rtp import RtpPacket
from repro.protocols.rtsp import RtspRequest, RtspResponse
from repro.protocols.ssdp import SsdpMessage
from repro.protocols.stun import StunMessage
from repro.protocols.tls import (
    CertificateInfo,
    ContentType,
    HandshakeType,
    TlsHandshake,
    TlsRecord,
    TlsVersion,
)
from repro.protocols.tplink_shp import TplinkShpMessage
from repro.protocols.tuyalp import TuyaLpMessage

#: (decoder, one valid encoding) — the fuzz seeds.  Every entry's
#: decoder was wrapped with ``guarded_decode``.
CORPUS = [
    (ArpPacket.decode,
     ArpPacket(ArpOp.REQUEST, "02:00:00:00:00:01", "192.168.10.2",
               "00:00:00:00:00:00", "192.168.10.3").encode()),
    (EapolFrame.decode, EapolFrame(body=b"\x01" * 24).encode()),
    (IcmpMessage.decode, IcmpMessage.echo_request(7, 1).encode()),
    (Icmpv6Message.decode, Icmpv6Message(128, body=b"\x00" * 8).encode()),
    (IgmpMessage.decode,
     IgmpMessage(IgmpType.V2_MEMBERSHIP_REPORT, "224.0.0.251").encode()),
    (LlcFrame.decode, LlcFrame(0x42, 0x42, 3, b"\x00\x00").encode()),
    (TcpSegment.decode,
     TcpSegment(40000, 80, seq=7, flags=TcpFlags.SYN).encode()),
    (UdpDatagram.decode, UdpDatagram(5353, 5353, b"payload").encode()),
    (CoapMessage.decode,
     CoapMessage(CoapCode.GET, message_id=9, uri_path=["a", "b"]).encode()),
    (DhcpMessage.decode,
     DhcpMessage.discover("02:00:00:00:00:01", 7, hostname="plug").encode()),
    (Dhcpv6Message.decode,
     Dhcpv6Message(Dhcpv6MessageType.SOLICIT, 0x123456,
                   {1: b"\x00\x03\x00\x01" + b"\x02" * 6}).encode()),
    (DnsMessage.decode,
     DnsMessage(transaction_id=4,
                questions=[DnsQuestion("device.local", 1)]).encode()),
    (HttpRequest.decode,
     HttpRequest("GET", "/status", headers={"Host": "hub.local"}).encode()),
    (HttpResponse.decode,
     HttpResponse(200, "OK", headers={"Server": "hub"}, body=b"ok").encode()),
    (DnsMessage.decode,
     ServiceAdvertisement("_hue._tcp.local", "Hue", "hue.local", 443,
                          "192.168.10.2").to_response().encode()),
    (NetbiosNsQuery.decode, NetbiosNsQuery("CHROMECAST").encode()),
    (RtpPacket.decode, RtpPacket(96, 1, 160, 0xDEAD, b"\x00" * 20).encode()),
    (RtspRequest.decode,
     RtspRequest("DESCRIBE", "rtsp://cam.local/stream").encode()),
    (RtspResponse.decode, RtspResponse(200, "OK").encode()),
    (SsdpMessage.decode, SsdpMessage.msearch().encode()),
    (StunMessage.decode, StunMessage(1, b"\x07" * 12).encode()),
    (TlsRecord.decode,
     TlsRecord(ContentType.APPLICATION_DATA, TlsVersion.TLS_1_2,
               b"\x17" * 32).encode()),
    (TlsHandshake.decode,
     TlsHandshake(HandshakeType.CERTIFICATE, certificates=[
         CertificateInfo("192.168.10.5", "192.168.10.5", 0.0, 90 * 86400.0,
                         key_bits=96, self_signed=True)]).encode()),
    (TplinkShpMessage.decode, TplinkShpMessage.get_sysinfo_query().encode()),
    (TuyaLpMessage.decode,
     TuyaLpMessage.discovery("gwid", "prodkey", "192.168.10.9").encode()),
]

CORPUS_IDS = [
    f"{entry[0].__self__.__name__}-{index}" for index, entry in enumerate(CORPUS)
]


def _mutations(rng, data, rounds=120):
    """The deterministic damage set: truncations, bit flips, payload mutation."""
    for cut in range(len(data)):
        yield data[:cut]
    for _ in range(rounds):
        yield corrupt_bits(rng, data, max_bits=rng.randint(1, 12))
        yield truncate_bytes(rng, corrupt_bits(rng, data, max_bits=4), min_keep=0)
        yield mutate_discovery_payload(rng, data)


class TestParserContract:
    @pytest.mark.parametrize("decoder,valid", CORPUS, ids=CORPUS_IDS)
    def test_decoder_round_trips_valid_input(self, decoder, valid):
        assert decoder(valid) is not None

    @pytest.mark.parametrize("decoder,valid", CORPUS, ids=CORPUS_IDS)
    def test_mutated_input_raises_only_valueerror(self, decoder, valid):
        rng = random.Random(f"fuzz:{decoder.__self__.__name__}")
        for mutated in _mutations(rng, valid):
            try:
                decoder(mutated)
            except ValueError:
                pass  # the entire allowed failure surface


class TestFrameContract:
    def _frames(self):
        for decoder, payload in CORPUS:
            datagram = UdpDatagram(40000, 5353, payload)
            packet = Ipv4Packet("192.168.10.2", "192.168.10.3", 17,
                                datagram.encode())
            yield EthernetFrame("02:00:00:00:00:02", "02:00:00:00:00:03",
                                EtherType.IPV4, packet.encode()).encode()

    def test_decode_frame_never_raises_on_mutations(self):
        rng = random.Random("fuzz:frames")
        errors = DecodeErrorLog()
        decoded = 0
        for frame in self._frames():
            for mutated in _mutations(rng, frame, rounds=40):
                packet = decode_frame(mutated, timestamp=1.0, errors=errors)
                assert packet is not None
                decoded += 1
        assert decoded > 3000
        # Deep damage must actually hit the quarantine path.
        assert errors.total > 0
        assert "ethernet" in errors.counts
