"""The tshark-like classifier: dissection driven by specs and port numbers.

tshark "relies on packet header and payload information to identify
application-layer protocols using predefined specifications" (§3.5) —
in practice the dissector chosen is usually determined by the
destination/source port, which is exactly why it mislabels traffic on
non-standard ports.  Appendix C.2 documents the resulting failure
modes, which this implementation reproduces:

* SSDP unicast *responses* (port 1900 -> ephemeral) fall outside the
  port table and come back unlabeled (the "generic transport-layer
  traffic" bucket) or, for encrypted TP-Link-port traffic, as
  TPLINK_SHP.
* Google's UDP 10000-10010 RTP is labeled STUN (port-range heuristic).
* RTP on non-standard ports is missed entirely.
"""

from __future__ import annotations

from typing import Optional

from repro.classify.labels import Label
from repro.net.decode import DecodedPacket
from repro.net.ether import EtherType
from repro.net.flows import Flow


#: port -> label, for both UDP and TCP unless overridden below.
PORT_TABLE = {
    53: Label.DNS,
    67: Label.DHCP,
    68: Label.DHCP,
    123: Label.NTP,
    137: Label.NETBIOS,
    138: Label.NETBIOS,
    319: Label.PTP,
    320: Label.PTP,
    546: Label.DHCPV6,
    547: Label.DHCPV6,
    1900: Label.SSDP,
    3478: Label.STUN,
    5349: Label.STUN,
    5353: Label.MDNS,
    5683: Label.COAP,
    5684: Label.COAP,
    5540: Label.MATTER,
    9999: Label.TPLINK_SHP,
}

TCP_PORT_TABLE = {
    23: Label.TELNET,
    80: Label.HTTP,
    443: Label.HTTPS,
    554: Label.RTSP,
    1080: Label.SOCKS5,
    8008: Label.HTTP,
    8009: Label.TLS,
    8060: Label.HTTP,
    8001: Label.HTTP,
    8080: Label.HTTP,
    8443: Label.HTTPS,
    7000: Label.TLS,
    4070: Label.HTTPS,
    55442: Label.HTTP,
    55443: Label.HTTP,
}

#: TCP's dissector table, merged once: the shared entries with TCP's
#: own on top.  UDP dissects by ``PORT_TABLE`` alone.
_TCP_DISSECTORS = {**PORT_TABLE, **TCP_PORT_TABLE}

#: tshark's classicstun heuristic fires on these UDP ports (App. C.2:
#: Google's 10000-10010 traffic "was initially classified as STUN").
STUN_HEURISTIC_PORTS = set(range(10000, 10011))


class TsharkLikeClassifier:
    """Spec/port-driven dissection of packets and flows."""

    name = "tshark"

    def classify_packet(self, packet: DecodedPacket) -> Optional[Label]:
        """Label a single packet; None when no dissector claims it."""
        kind = packet.frame.kind
        if kind is EtherType.ARP:
            return Label.ARP
        if kind is EtherType.EAPOL:
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
        return self._classify_ports(packet)

    def _classify_ports(self, packet: DecodedPacket) -> Optional[Label]:
        # Dissector selection keys on the *destination* port; this is
        # what makes tshark miss unicast discovery *responses* (which
        # run well-known -> ephemeral) — the dominant disagreement class
        # of Appendix C.2.
        table = _TCP_DISSECTORS if packet.tcp is not None else PORT_TABLE
        port = packet.dst_port
        if port in table:
            label = table[port]
            # The TCP TLS dissector confirms with the record header
            # when payload is present.
            if label in (Label.HTTPS, Label.TLS) and packet.app_payload:
                if packet.app_payload[0] not in (20, 21, 22, 23):
                    return Label.UNKNOWN
            return label
        # The TP-Link dissector registers on UDP/TCP 9999 and claims the
        # reverse direction too — so encrypted responses from port 9999
        # come back labeled TPLINK_SHP even on ephemeral destinations.
        if packet.src_port == 9999:
            return Label.TPLINK_SHP
        if packet.udp is not None:
            if port in STUN_HEURISTIC_PORTS and len(packet.app_payload) >= 12:
                return Label.STUN
            if packet.src_port in STUN_HEURISTIC_PORTS and len(packet.app_payload) >= 12:
                return Label.STUN
        # HTTP heuristic dissector: requests and responses on any TCP
        # port (Wireshark's "HTTP over random ports" heuristic).
        if packet.tcp is not None:
            head = packet.app_payload[:8]
            if head[:4] in (b"GET ", b"POST", b"HEAD", b"PUT ") or head.startswith(b"HTTP/1."):
                return Label.HTTP
        # Anything else with payload is dissected only as generic
        # transport-layer traffic ("Data" in Wireshark terms).
        if packet.app_payload:
            return Label.UNKNOWN
        return None

    def classify_flow(self, flow: Flow) -> Optional[Label]:
        """Label a flow by its first classifiable packet."""
        for packet in flow.packets:
            label = self.classify_packet(packet)
            if label is not None:
                return label
        return None
