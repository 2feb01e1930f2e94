"""The nDPI-like classifier: signature/behaviour-based deep inspection.

nDPI "utilizes signature- and behavioral-based detection, and heuristic
techniques" (§3.5).  This engine inspects payload bytes — so it
correctly labels SSDP on any port, TPLINK-SHP by decrypting the XOR
autokey, TuyaLP by its frame magic — but also reproduces the
misclassifications Appendix C.2 documents:

* a small fraction of SSDP flows labeled CISCOVPN;
* Nintendo's EAPOL layer-2 traffic labeled AMAZONAWS;
* RTP-without-STUN-cookie on ports 10000-10010 labeled STUN.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.classify.labels import Label
from repro.net.decode import DecodedPacket
from repro.net.ether import EtherType
from repro.net.flows import Flow
from repro.protocols.coap import CoapMessage
from repro.protocols.dns import DnsMessage
from repro.protocols.netbios import NetbiosNsQuery
from repro.protocols.rtp import looks_like_rtp
from repro.protocols.stun import looks_like_stun
from repro.protocols.tplink_shp import TplinkShpMessage
from repro.protocols.tuyalp import TuyaLpMessage

#: OUI of the Nintendo Switch whose EAPOL frames nDPI mislabels.
_NINTENDO_OUI = "98:b6:e9"

_HTTP_METHODS = (b"GET ", b"POST", b"PUT ", b"HEAD", b"DELETE", b"OPTIONS", b"SUBSCRIBE", b"NOTIFY /")


class NdpiLikeClassifier:
    """Signature-based DPI over packets and flows."""

    name = "nDPI"

    def classify_packet(self, packet: DecodedPacket) -> Optional[Label]:
        kind = packet.frame.kind
        if kind is EtherType.ARP:
            return Label.ARP
        if kind is EtherType.EAPOL:
            # Appendix C.2: Nintendo Switch layer-2 traffic mislabeled.
            if packet.frame.src.oui == _NINTENDO_OUI:
                return Label.AMAZON_AWS
            return Label.EAPOL
        if kind is EtherType.LLC:
            return Label.XID_LLC
        if packet.icmp is not None:
            return Label.ICMP
        if packet.icmpv6 is not None:
            return Label.ICMPV6
        if packet.igmp is not None:
            return Label.IGMP
        if packet.udp is None and packet.tcp is None:
            return Label.UNKNOWN_L3 if (packet.ipv4 or packet.ipv6) else None
        return self.classify_transport(packet.transport, packet.src_port,
                                       packet.dst_port, packet.app_payload)

    def classify_transport(self, transport: str, sport: int, dport: int,
                           payload: bytes) -> Optional[Label]:
        """Label a UDP/TCP packet from its transport, ports and payload.

        These four fields are all the payload rules read, so a capture
        index labels its rows from the table's columns through this
        entry point, and :meth:`classify_packet` routes every UDP/TCP
        packet here.
        """
        if not payload:
            return None
        udp = transport == "udp"
        # Text signatures first.
        head = payload[:16]
        if head.startswith(b"M-SEARCH") or head.startswith(b"NOTIFY * "):
            return self._ssdp_or_ciscovpn(payload)
        if head.startswith(b"HTTP/1.1 200 OK"):
            # SSDP responses carry an ST header; plain HTTP does not.
            upper = payload[:512].upper()
            if b"\r\nST:" in upper or b"\r\nNT:" in upper or b"\r\nUSN:" in upper:
                return self._ssdp_or_ciscovpn(payload)
            return Label.HTTP
        if any(head.startswith(method) for method in _HTTP_METHODS):
            return Label.HTTP
        if head.startswith(b"RTSP/1.0") or b" RTSP/1.0" in payload[:64]:
            return Label.RTSP
        # Binary signatures.
        if payload[0:1] and payload[0] in (20, 21, 22, 23) and len(payload) >= 5:
            version = payload[1:3]
            if version[:1] == b"\x03" and version[1] <= 4:
                return Label.TLS
        if looks_like_stun(payload):
            return Label.STUN
        if udp and self._is_dhcp(sport, dport, payload):
            return Label.DHCP
        if udp and self._is_dhcpv6(sport, dport, payload):
            return Label.DHCPV6
        dns_label = self._try_dns(sport, dport, payload) if udp else None
        if dns_label is not None:
            return dns_label
        if self._try_decode(TuyaLpMessage.decode, payload):
            return Label.TUYALP
        if self._try_decode(TplinkShpMessage.decode, payload):
            return Label.TPLINK_SHP
        if transport == "tcp" and self._is_tplink_tcp(payload):
            return Label.TPLINK_SHP
        if udp and self._try_coap(sport, dport, payload):
            return Label.COAP
        if self._try_decode(NetbiosNsQuery.decode, payload):
            return Label.NETBIOS
        if udp and looks_like_rtp(payload):
            # Appendix C.2: the 10000-10010 range was (mis)labeled STUN.
            if 10000 <= dport <= 10010 or 10000 <= sport <= 10010:
                return Label.STUN
            return Label.RTP
        return None

    @staticmethod
    def _ssdp_or_ciscovpn(payload: bytes) -> Label:
        # Appendix C.2: "nDPI incorrectly identified a small fraction of
        # SSDP flows as CiscoVPN".  The real bug involves a signature
        # collision on packet sizes; we reproduce it deterministically
        # for NOTIFY payloads of one specific length bucket (~1-2%).
        if payload.startswith(b"NOTIFY") and len(payload) % 97 == 0:
            return Label.CISCOVPN
        return Label.SSDP

    @staticmethod
    def _is_dhcp(sport: int, dport: int, payload: bytes) -> bool:
        if dport not in (67, 68) and sport not in (67, 68):
            return False
        return len(payload) > 240 and payload[236:240] == b"\x63\x82\x53\x63"

    @staticmethod
    def _is_dhcpv6(sport: int, dport: int, payload: bytes) -> bool:
        if dport not in (546, 547) and sport not in (546, 547):
            return False
        from repro.protocols.dhcpv6 import Dhcpv6Message

        try:
            Dhcpv6Message.decode(payload)
        except (ValueError, struct.error):
            return False
        return True

    @staticmethod
    def _try_dns(sport: int, dport: int, payload: bytes) -> Optional[Label]:
        if len(payload) < 12:
            return None
        ports = (sport, dport)
        if not any(port in (53, 5353) for port in ports):
            return None
        try:
            message = DnsMessage.decode(payload)
        except ValueError:
            return None
        if 5353 in ports:
            # Matter runs its discovery inside mDNS; nDPI reports it as
            # its own protocol when the service names match (§4.1).
            names = [question.name for question in message.questions]
            names += [record.name for record in message.all_records]
            if any("_matter" in name for name in names):
                return Label.MATTER
            return Label.MDNS
        return Label.DNS

    @staticmethod
    def _try_coap(sport: int, dport: int, payload: bytes) -> bool:
        if not any(port in (5683, 5684) for port in (sport, dport)):
            return False
        try:
            CoapMessage.decode(payload)
        except (ValueError, IndexError):
            return False
        return True

    @staticmethod
    def _is_tplink_tcp(payload: bytes) -> bool:
        if len(payload) < 8:
            return False
        try:
            TplinkShpMessage.decode(payload, transport="tcp")
        except ValueError:
            return False
        return True

    @staticmethod
    def _try_decode(decoder, payload: bytes) -> bool:
        try:
            decoder(payload)
        except (ValueError, IndexError, struct.error):
            return False
        return True

    def classify_flow(self, flow: Flow) -> Optional[Label]:
        """Label a flow from its first packets with payload (DPI style)."""
        for packet in flow.packets[:8]:  # nDPI inspects the first packets only
            label = self.classify_packet(packet)
            if label is not None:
                return label
        return None
