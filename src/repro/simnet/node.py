"""Network nodes: the simulated stacks devices and phones run on.

A :class:`Node` owns a MAC/IP identity, a service table, multicast
memberships, and handler registries.  Its default packet handling
reproduces the stack behaviours the paper's scans depend on: ARP
replies (broadcast vs unicast policies differ per §5.1), SYN/ACK vs RST
for open/closed TCP ports, ICMP port-unreachable for closed UDP ports,
and ICMP echo replies.
"""

from __future__ import annotations

import ipaddress
from typing import Callable, Dict, List, Optional

from repro.net.arp import ArpOp, ArpPacket
from repro.net.decode import DecodedPacket
from repro.net.eapol import EapolFrame
from repro.net.ether import EthernetFrame, EtherType
from repro.net.icmp import IcmpMessage, Icmpv6Message, IcmpType, Icmpv6Type
from repro.net.igmp import IgmpMessage
from repro.net.ipv4 import IpProtocol, Ipv4Packet, LazyBytes, ipv4_is_multicast
from repro.net.ipv6 import Ipv6Packet, link_local_from_mac
from repro.net.mac import (
    BROADCAST_MAC,
    MacAddress,
    ipv4_multicast_mac,
    ipv6_multicast_mac,
)
from repro.net.tcp import TcpFlags, TcpSegment
from repro.net.udp import UdpDatagram
from repro.simnet.services import ServiceTable

#: Header fields as plain ``int``: ``decode_frame`` reads them that way,
#: and a frame whose layers reach receivers as built (see
#: :meth:`Node.send_frame`) must carry what a decode would, in type as
#: well as value.
_ARP, _IPV4 = int(EtherType.ARP), int(EtherType.IPV4)
_ICMP, _TCP, _UDP = int(IpProtocol.ICMP), int(IpProtocol.TCP), int(IpProtocol.UDP)
_DEST_UNREACHABLE = int(IcmpType.DEST_UNREACHABLE)
#: Scan-reply flags, built once: ``|`` on ``TcpFlags`` runs the enum
#: constructor.
_SYN_ACK = TcpFlags.SYN | TcpFlags.ACK
_RST_ACK = TcpFlags.RST | TcpFlags.ACK

#: signature: handler(node, packet) -> None
UdpHandler = Callable[["Node", DecodedPacket], None]
TcpHandler = Callable[["Node", DecodedPacket], None]


class Node:
    """A device/phone/honeypot attached to the simulated LAN."""

    def __init__(
        self,
        name: str,
        mac,
        ip: str,
        hostname: str = "",
        vendor: str = "",
        services: Optional[ServiceTable] = None,
    ):
        self.name = name
        self.mac = MacAddress(mac)
        self.ip = str(ipaddress.IPv4Address(ip))
        self.ipv6_link_local = link_local_from_mac(self.mac)
        self.hostname = hostname or name
        self.vendor = vendor
        self.ipv6_enabled = True
        self.services = services or ServiceTable()
        self.lan = None  # set by Lan.attach
        self.multicast_groups: set = set()
        #: §5.1: only 58% of devices answer Echo's *broadcast* ARP scans,
        #: while all of them answer unicast ARP.
        self.responds_to_broadcast_arp = True
        #: §3.1: only 54 devices responded to TCP SYN scans at all.
        self.responds_to_tcp_scan = True
        #: Behaviour for UDP to a closed port: "icmp" or "drop".
        self.udp_closed_behavior = "icmp"
        self.responds_to_ping = True
        self._udp_handlers: Dict[int, List[UdpHandler]] = {}
        self._tcp_handlers: Dict[int, List[TcpHandler]] = {}
        self._raw_hooks: List[Callable[["Node", DecodedPacket], None]] = []
        self._next_ephemeral = 49152

    # -- wiring ---------------------------------------------------------------

    @property
    def simulator(self):
        return self.lan.simulator if self.lan else None

    @property
    def now(self) -> float:
        return self.simulator.now if self.simulator else 0.0

    def on_udp(self, port: int, handler: UdpHandler) -> None:
        """Register a handler for UDP datagrams arriving on ``port``."""
        self._udp_handlers.setdefault(port, []).append(handler)

    def on_tcp(self, port: int, handler: TcpHandler) -> None:
        """Register a handler for TCP payload segments arriving on ``port``."""
        self._tcp_handlers.setdefault(port, []).append(handler)

    def add_raw_hook(self, hook: Callable[["Node", DecodedPacket], None]) -> None:
        """Observe every frame delivered to this node (promiscuous hook)."""
        self._raw_hooks.append(hook)

    def ephemeral_port(self) -> int:
        if self._next_ephemeral > 65535:
            self._next_ephemeral = 49152
        port = self._next_ephemeral
        self._next_ephemeral += 1
        return port

    # -- transmit helpers -------------------------------------------------------

    def _require_lan(self):
        if self.lan is None:
            raise RuntimeError(f"node {self.name!r} is not attached to a LAN")
        return self.lan

    def send_frame(self, dst_mac, ethertype: int, payload, **layers) -> None:
        """Put one frame on the LAN.

        ``layers`` are the :class:`DecodedPacket` fields (``ipv4=``,
        ``udp=``, ...) that the frame is made of, and ``payload`` is then
        usually ``LazyBytes`` of the top one.  Receivers get a packet made
        of them instead of a decode of the bytes, so each must equal what
        ``decode_frame`` rebuilds, field for field and in type: plain
        ``int`` header fields, and transport layers whose
        ``round_trips()`` holds.  The frame goes to the LAN unencoded,
        which builds its bytes only if something reads them.  Without
        ``layers``, ``payload`` is bytes, and the frame is encoded here
        and decoded on delivery.
        """
        frame = EthernetFrame(dst_mac, self.mac, ethertype, payload)
        lan = self._require_lan()
        if layers:
            layers["frame"] = frame
            lan.transmit(self, frame, layers)
        else:
            lan.transmit(self, frame.encode())

    def send_udp(
        self,
        dst_ip: str,
        dst_port: int,
        payload: bytes,
        src_port: Optional[int] = None,
        dst_mac=None,
    ) -> int:
        """Send a UDP datagram; returns the source port used."""
        lan = self._require_lan()
        src_port = src_port if src_port is not None else self.ephemeral_port()
        datagram = UdpDatagram(src_port, dst_port, payload)
        packet = Ipv4Packet(self.ip, dst_ip, _UDP, LazyBytes(datagram, self.ip, dst_ip))
        if dst_mac is None:
            if ipv4_is_multicast(dst_ip):
                dst_mac = ipv4_multicast_mac(dst_ip)
            elif dst_ip == "255.255.255.255" or dst_ip == lan.broadcast_address:
                dst_mac = BROADCAST_MAC
            else:
                dst_mac = lan.mac_of(dst_ip) or BROADCAST_MAC
        if datagram.round_trips():
            self.send_frame(dst_mac, _IPV4, LazyBytes(packet), ipv4=packet, udp=datagram)
        else:
            self.send_frame(dst_mac, _IPV4, packet.encode())
        return src_port

    def send_udp6(self, dst_ip6: str, dst_port: int, payload: bytes, src_port: Optional[int] = None) -> int:
        lan = self._require_lan()
        src_port = src_port if src_port is not None else self.ephemeral_port()
        datagram = UdpDatagram(src_port, dst_port, payload)
        packet = Ipv6Packet(self.ipv6_link_local, dst_ip6, IpProtocol.UDP, datagram.encode())
        address = ipaddress.IPv6Address(dst_ip6)
        if address.is_multicast:
            dst_mac = ipv6_multicast_mac(dst_ip6)
        else:
            dst_mac = lan.mac_of_v6(dst_ip6) or BROADCAST_MAC
        self.send_frame(dst_mac, EtherType.IPV6, packet.encode())
        return src_port

    def send_tcp_segment(self, dst_ip: str, segment: TcpSegment, dst_mac=None) -> None:
        lan = self._require_lan()
        packet = Ipv4Packet(self.ip, dst_ip, _TCP, LazyBytes(segment, self.ip, dst_ip))
        if dst_mac is None:
            dst_mac = lan.mac_of(dst_ip) or BROADCAST_MAC
        if segment.round_trips():
            self.send_frame(dst_mac, _IPV4, LazyBytes(packet), ipv4=packet, tcp=segment)
        else:
            self.send_frame(dst_mac, _IPV4, packet.encode())

    def send_arp_request(self, target_ip: str, unicast_to=None) -> None:
        """ARP who-has: broadcast by default, targeted when ``unicast_to``."""
        arp = ArpPacket(ArpOp.REQUEST, self.mac, self.ip, "00:00:00:00:00:00", target_ip)
        dst = MacAddress(unicast_to) if unicast_to is not None else BROADCAST_MAC
        self.send_frame(dst, _ARP, LazyBytes(arp), arp=arp)

    def send_arp_reply(self, requester_mac, requester_ip: str) -> None:
        arp = ArpPacket(ArpOp.REPLY, self.mac, self.ip, requester_mac, requester_ip)
        self.send_frame(requester_mac, _ARP, LazyBytes(arp), arp=arp)

    def send_icmp_echo(self, dst_ip: str, ident: int = 1, seq: int = 1) -> None:
        message = IcmpMessage.echo_request(ident, seq)
        packet = Ipv4Packet(self.ip, dst_ip, _ICMP, LazyBytes(message))
        dst_mac = self._require_lan().mac_of(dst_ip) or BROADCAST_MAC
        self.send_frame(dst_mac, _IPV4, LazyBytes(packet), ipv4=packet, icmp=message)

    def send_eapol_handshake(self) -> None:
        """Emit the WPA2 4-way handshake toward the AP."""
        lan = self._require_lan()
        for message_number in (2, 4):  # supplicant's half of the handshake
            self.send_frame(lan.ap_mac, EtherType.EAPOL, EapolFrame.key_frame(message_number).encode())

    def join_group(self, group: str) -> None:
        """Join an IPv4 multicast group (emits an IGMP membership report)."""
        if group in self.multicast_groups:
            return
        self.multicast_groups.add(group)
        report = IgmpMessage.join(group)
        packet = Ipv4Packet(self.ip, group, IpProtocol.IGMP, report.encode(), ttl=1)
        self.send_frame(ipv4_multicast_mac(group), EtherType.IPV4, packet.encode())

    def send_neighbor_solicitation(self, target_ip6: str) -> None:
        message = Icmpv6Message.neighbor_solicitation(
            ipaddress.IPv6Address(target_ip6).packed, self.mac
        )
        group = "ff02::1"
        packet = Ipv6Packet(self.ipv6_link_local, group, IpProtocol.IPV6_ICMP, message.encode(), hop_limit=255)
        self.send_frame(ipv6_multicast_mac(group), EtherType.IPV6, packet.encode())

    # -- receive path -----------------------------------------------------------

    def receive(self, packet: DecodedPacket) -> None:
        """Entry point called by the LAN for every frame addressed here."""
        for hook in self._raw_hooks:
            hook(self, packet)
        if packet.arp is not None:
            self._handle_arp(packet)
        elif packet.udp is not None:
            self._handle_udp(packet)
        elif packet.tcp is not None:
            self._handle_tcp(packet)
        elif packet.icmp is not None:
            self._handle_icmp(packet)
        elif packet.icmpv6 is not None:
            self._handle_icmpv6(packet)

    def _handle_arp(self, packet: DecodedPacket) -> None:
        arp = packet.arp
        if arp.op is not ArpOp.REQUEST or arp.target_ip != self.ip:
            return
        if packet.frame.is_broadcast and not self.responds_to_broadcast_arp:
            return
        self.send_arp_reply(arp.sender_mac, arp.sender_ip)

    def _handle_udp(self, packet: DecodedPacket) -> None:
        port = packet.udp.dst_port
        handlers = self._udp_handlers.get(port)
        if handlers:
            for handler in list(handlers):
                handler(self, packet)
            return
        if self.services.is_open("udp", port):
            return  # open but no active responder registered
        if port >= 49152:
            # Ephemeral range: a client socket this node opened for a
            # discovery query is still listening for (and consuming)
            # unicast replies, so no port-unreachable is generated.
            return
        if (
            self.udp_closed_behavior == "icmp"
            and packet.is_unicast
            and packet.src_ip is not None
            and packet.ipv4 is not None
        ):
            unreachable = IcmpMessage(_DEST_UNREACHABLE, 3, bytes(4))
            reply = Ipv4Packet(self.ip, packet.src_ip, _ICMP, LazyBytes(unreachable))
            self.send_frame(packet.frame.src, _IPV4, LazyBytes(reply), ipv4=reply, icmp=unreachable)

    def _handle_tcp(self, packet: DecodedPacket) -> None:
        segment = packet.tcp
        if segment.is_syn:
            if self.services.is_open("tcp", segment.dst_port):
                reply = TcpSegment(
                    segment.dst_port,
                    segment.src_port,
                    seq=1000,
                    ack=segment.seq + 1,
                    flags=_SYN_ACK,
                )
                self.send_tcp_segment(packet.src_ip, reply, dst_mac=packet.frame.src)
            elif self.responds_to_tcp_scan:
                reply = TcpSegment(
                    segment.dst_port,
                    segment.src_port,
                    seq=0,
                    ack=segment.seq + 1,
                    flags=_RST_ACK,
                )
                self.send_tcp_segment(packet.src_ip, reply, dst_mac=packet.frame.src)
            return
        if segment.payload:
            for handler in list(self._tcp_handlers.get(segment.dst_port, [])):
                handler(self, packet)

    def _handle_icmp(self, packet: DecodedPacket) -> None:
        if packet.icmp.icmp_type == IcmpType.ECHO_REQUEST and self.responds_to_ping:
            message = IcmpMessage.echo_reply()
            reply = Ipv4Packet(self.ip, packet.src_ip, _ICMP, LazyBytes(message))
            self.send_frame(packet.frame.src, _IPV4, LazyBytes(reply), ipv4=reply, icmp=message)

    def _handle_icmpv6(self, packet: DecodedPacket) -> None:
        if not self.ipv6_enabled:
            return
        message = packet.icmpv6
        if message.icmp_type != Icmpv6Type.NEIGHBOR_SOLICITATION:
            return
        target = message.body[4:20]
        if len(target) == 16 and str(ipaddress.IPv6Address(target)) == self.ipv6_link_local:
            advert = Icmpv6Message.neighbor_advertisement(target, self.mac)
            reply = Ipv6Packet(
                self.ipv6_link_local,
                packet.ipv6.src,
                IpProtocol.IPV6_ICMP,
                advert.encode(),
                hop_limit=255,
            )
            self.send_frame(packet.frame.src, EtherType.IPV6, reply.encode())

    def __repr__(self) -> str:
        return f"Node({self.name!r}, mac={self.mac}, ip={self.ip})"
