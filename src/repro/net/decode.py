"""Layered packet decoding: raw frame bytes -> structured view.

This is the single entry point used by the flow assembler, the traffic
classifiers, the exposure analysis and the honeypots to interpret
captured bytes, mirroring how the paper post-processes tcpdump output.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Optional

from repro.net.arp import ArpPacket
from repro.net.eapol import EapolFrame
from repro.net.ether import EthernetFrame, EtherType
from repro.net.icmp import IcmpMessage, Icmpv6Message
from repro.net.igmp import IgmpMessage
from repro.net.ipv4 import IpProtocol, Ipv4Packet
from repro.net.ipv6 import Ipv6Packet
from repro.net.tcp import TcpSegment
from repro.net.udp import UdpDatagram


class DecodeErrorLog:
    """A counted quarantine for frames that failed to decode cleanly.

    Decoding is *total*: a malformed frame never raises mid-analysis.
    Instead the failure is recorded here — counted per reason, with a
    bounded sample of the offending bytes kept for postmortems — and
    the (partially) decoded packet flows on with ``decode_error`` set.
    """

    #: How many offending frames to retain verbatim for inspection.
    SAMPLE_LIMIT = 32

    def __init__(self):
        self.counts: Dict[str, int] = {}
        self.samples = deque(maxlen=self.SAMPLE_LIMIT)

    def record(self, timestamp: float, data: bytes, reason: str, detail: str = "") -> None:
        self.counts[reason] = self.counts.get(reason, 0) + 1
        self.samples.append((timestamp, bytes(data), reason, detail))

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def snapshot(self) -> Dict[str, int]:
        return dict(self.counts)

    def clear(self) -> None:
        self.counts.clear()
        self.samples.clear()

    def __len__(self) -> int:
        return self.total

    def __repr__(self) -> str:
        return f"DecodeErrorLog({self.snapshot()!r})"


@dataclass
class DecodedPacket:
    """A fully decoded frame with every recognized layer attached.

    Layers that are absent (or failed to parse) are ``None``.  The
    original bytes are always retained in ``frame.payload`` so payload
    analyses never lose information to decoding.  ``decode_error`` names
    the layer that failed to parse (``None`` for a clean decode); the
    packet itself is always usable.
    """

    timestamp: float
    frame: EthernetFrame
    arp: Optional[ArpPacket] = None
    eapol: Optional[EapolFrame] = None
    ipv4: Optional[Ipv4Packet] = None
    ipv6: Optional[Ipv6Packet] = None
    udp: Optional[UdpDatagram] = None
    tcp: Optional[TcpSegment] = None
    icmp: Optional[IcmpMessage] = None
    icmpv6: Optional[Icmpv6Message] = None
    igmp: Optional[IgmpMessage] = None
    decode_error: Optional[str] = None

    @property
    def is_malformed(self) -> bool:
        return self.decode_error is not None

    @property
    def src_ip(self) -> Optional[str]:
        if self.ipv4 is not None:
            return self.ipv4.src
        if self.ipv6 is not None:
            return self.ipv6.src
        return None

    @property
    def dst_ip(self) -> Optional[str]:
        if self.ipv4 is not None:
            return self.ipv4.dst
        if self.ipv6 is not None:
            return self.ipv6.dst
        return None

    @property
    def src_port(self) -> Optional[int]:
        transport = self.udp if self.udp is not None else self.tcp
        return transport.src_port if transport is not None else None

    @property
    def dst_port(self) -> Optional[int]:
        transport = self.udp if self.udp is not None else self.tcp
        return transport.dst_port if transport is not None else None

    @property
    def transport(self) -> Optional[str]:
        if self.udp is not None:
            return "udp"
        if self.tcp is not None:
            return "tcp"
        return None

    @property
    def app_payload(self) -> bytes:
        """The application-layer payload, or b"" when there is none."""
        if self.udp is not None:
            return self.udp.payload
        if self.tcp is not None:
            return self.tcp.payload
        return b""

    @property
    def ip_protocol(self) -> Optional[int]:
        if self.ipv4 is not None:
            return self.ipv4.protocol
        if self.ipv6 is not None:
            return self.ipv6.next_header
        return None

    @property
    def is_multicast(self) -> bool:
        return self.frame.is_multicast and not self.frame.is_broadcast

    @property
    def is_broadcast(self) -> bool:
        if self.frame.is_broadcast:
            return True
        return self.ipv4 is not None and self.ipv4.dst == "255.255.255.255"

    @property
    def is_unicast(self) -> bool:
        return not self.frame.is_multicast


#: Placeholder endpoints for frames too damaged to carry real addresses.
_NULL_MAC = "00:00:00:00:00:00"


def decode_frame(
    data: bytes,
    timestamp: float = 0.0,
    errors: Optional[DecodeErrorLog] = None,
) -> DecodedPacket:
    """Decode raw Ethernet bytes into a :class:`DecodedPacket`.

    Decoding is *total* and forgiving: a malformed inner layer leaves
    that layer ``None`` rather than failing the whole packet (matching
    how dissectors behave on partially captured traffic), and a frame
    too short even for an Ethernet header yields a stub packet with
    ``decode_error`` set instead of raising.  When an ``errors``
    quarantine log is passed, every decode failure is counted there.
    """
    try:
        frame = EthernetFrame.decode(data)
    except ValueError as exc:
        packet = DecodedPacket(
            timestamp=timestamp,
            frame=EthernetFrame(_NULL_MAC, _NULL_MAC, 0, data),
            decode_error="ethernet",
        )
        if errors is not None:
            errors.record(timestamp, data, "ethernet", str(exc))
        return packet
    packet = DecodedPacket(timestamp=timestamp, frame=frame)
    kind = frame.kind
    try:
        if kind is EtherType.ARP:
            packet.arp = ArpPacket.decode(frame.payload)
        elif kind is EtherType.EAPOL:
            packet.eapol = EapolFrame.decode(frame.payload)
        elif kind is EtherType.IPV4:
            packet.ipv4 = Ipv4Packet.decode(frame.payload)
            _decode_ipv4_transport(packet, errors)
        elif kind is EtherType.IPV6:
            packet.ipv6 = Ipv6Packet.decode(frame.payload)
            _decode_ipv6_transport(packet, errors)
    except ValueError as exc:
        packet.decode_error = kind.name.lower()
        if errors is not None:
            errors.record(timestamp, data, kind.name.lower(), str(exc))
    return packet


def decode_records(records, errors: Optional[DecodeErrorLog] = None) -> "list[DecodedPacket]":
    """Decode an ordered batch of ``(timestamp, frame_bytes)`` records.

    The eager per-packet reference decode: one ``DecodedPacket`` per
    record, in record order, with malformed frames quarantined into
    ``errors``.
    """
    return [decode_frame(data, timestamp, errors) for timestamp, data in records]


def _transport_error(
    packet: DecodedPacket, errors: Optional[DecodeErrorLog], layer: str, exc: ValueError
) -> None:
    packet.decode_error = layer
    if errors is not None:
        errors.record(packet.timestamp, packet.frame.payload, layer, str(exc))


def _decode_ipv4_transport(packet: DecodedPacket, errors: Optional[DecodeErrorLog] = None) -> None:
    ip = packet.ipv4
    try:
        if ip.protocol == IpProtocol.UDP:
            packet.udp = UdpDatagram.decode(ip.payload)
        elif ip.protocol == IpProtocol.TCP:
            packet.tcp = TcpSegment.decode(ip.payload)
        elif ip.protocol == IpProtocol.ICMP:
            packet.icmp = IcmpMessage.decode(ip.payload)
        elif ip.protocol == IpProtocol.IGMP:
            packet.igmp = IgmpMessage.decode(ip.payload)
    except ValueError as exc:
        _transport_error(packet, errors, f"ipv4-proto-{ip.protocol}", exc)


def _decode_ipv6_transport(packet: DecodedPacket, errors: Optional[DecodeErrorLog] = None) -> None:
    ip = packet.ipv6
    try:
        if ip.next_header == IpProtocol.UDP:
            packet.udp = UdpDatagram.decode(ip.payload)
        elif ip.next_header == IpProtocol.TCP:
            packet.tcp = TcpSegment.decode(ip.payload)
        elif ip.next_header == IpProtocol.IPV6_ICMP:
            packet.icmpv6 = Icmpv6Message.decode(ip.payload)
    except ValueError as exc:
        _transport_error(packet, errors, f"ipv6-proto-{ip.next_header}", exc)


#: Cheap port → protocol labels for telemetry (not classification —
#: the classify package owns real labels; this is a constant-time tag
#: applied to every frame on the hot delivery path).
_UDP_PORT_LABELS = {
    53: "dns", 67: "dhcp", 68: "dhcp", 123: "ntp", 137: "netbios",
    546: "dhcpv6", 547: "dhcpv6", 1900: "ssdp", 5353: "mdns",
    5540: "matter", 5683: "coap", 6666: "tuyalp", 6667: "tuyalp",
    9999: "tplink-shp",
}
_TCP_PORT_LABELS = {
    80: "http", 8080: "http", 554: "rtsp", 443: "tls", 8443: "tls",
    8883: "tls", 9999: "tplink-shp", 23: "telnet",
}


def quick_protocol(packet: DecodedPacket) -> str:
    """A constant-time protocol tag for per-protocol telemetry counters."""
    if packet.arp is not None:
        return "arp"
    if packet.eapol is not None:
        return "eapol"
    if packet.icmp is not None:
        return "icmp"
    if packet.icmpv6 is not None:
        return "icmpv6"
    if packet.igmp is not None:
        return "igmp"
    if packet.udp is not None:
        label = _UDP_PORT_LABELS.get(packet.udp.dst_port)
        if label is None:
            label = _UDP_PORT_LABELS.get(packet.udp.src_port, "udp-other")
        return label
    if packet.tcp is not None:
        label = _TCP_PORT_LABELS.get(packet.tcp.dst_port)
        if label is None:
            label = _TCP_PORT_LABELS.get(packet.tcp.src_port, "tcp-other")
        return label
    if packet.ipv4 is not None or packet.ipv6 is not None:
        return "ip-other"
    return "l2-other"
