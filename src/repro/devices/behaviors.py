"""Behaviour engine: turn :class:`DeviceProfile` objects into live nodes.

``DeviceNode`` schedules and answers the traffic a profile declares —
boot-time DHCP/EAPOL/IGMP, periodic mDNS/SSDP/ARP/TuyaLP/TPLINK-SHP
discovery, RTP streaming, and unknown-protocol broadcasts — while
``build_testbed`` assembles the whole MonIoTr lab: 93 devices wired into
vendor clusters exchanging TLS/HTTP/unknown-UDP traffic as §4.1 and
Figure 4 describe.
"""

from __future__ import annotations

import random
import uuid as uuid_module
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.net.decode import DecodedPacket
from repro.net.oui import DEFAULT_OUI_REGISTRY, OuiRegistry
from repro.protocols.dhcp import DhcpMessage, DhcpMessageType, DHCP_CLIENT_PORT, DHCP_SERVER_PORT
from repro.protocols.http import HttpRequest, HttpResponse
from repro.protocols.mdns import (
    MDNS_GROUP_V4,
    MDNS_PORT,
    ServiceAdvertisement,
    encode_advertisements,
    hue_instance_name,
    mdns_query,
    parse_mdns,
)
from repro.protocols.rtp import RtpPacket
from repro.protocols.ssdp import SSDP_GROUP_V4, SSDP_PORT, SsdpMessage, device_description_xml
from repro.protocols.tls import CertificateInfo, TlsRecord, TlsVersion
from repro.protocols.tplink_shp import TPLINK_SHP_PORT, TplinkShpMessage
from repro.protocols.tuyalp import TUYA_PORT_ENCRYPTED, TUYA_PORT_PLAIN, TuyaLpMessage
from repro.protocols.coap import CoapMessage, COAP_PORT
from repro.protocols.dhcpv6 import (
    ALL_DHCP_RELAY_AGENTS,
    DHCPV6_CLIENT_PORT,
    DHCPV6_SERVER_PORT,
    Dhcpv6Message,
)
from repro.net.llc import xid_broadcast_frame
from repro.devices.profiles import DeviceProfile, HostnameScheme
from repro.simnet.lan import Lan
from repro.simnet.node import Node
from repro.simnet.services import ServiceTable
from repro.simnet.simulator import Simulator


class DeviceNode(Node):
    """A simulated IoT device driven by its :class:`DeviceProfile`."""

    def __init__(self, profile: DeviceProfile, mac, rng: random.Random):
        super().__init__(
            name=profile.name,
            mac=mac,
            ip="0.0.0.0",
            hostname="",
            vendor=profile.vendor,
            services=ServiceTable(profile.open_services),
        )
        self.profile = profile
        self.rng = rng
        self.responds_to_broadcast_arp = profile.responds_to_broadcast_arp
        self.responds_to_tcp_scan = profile.responds_to_tcp_scan
        self.responds_to_ping = profile.responds_to_ip_proto_scan
        self.udp_closed_behavior = "icmp" if profile.responds_to_udp_scan else "drop"
        # Stable per-device identifiers (the fingerprintable surface).
        self.uuid = str(uuid_module.UUID(int=rng.getrandbits(128)))
        self.tplink_device_id = "".join(rng.choice("0123456789ABCDEF") for _ in range(40))
        self.tplink_hw_id = "".join(rng.choice("0123456789ABCDEF") for _ in range(32))
        self.tplink_oem_id = "".join(rng.choice("0123456789ABCDEF") for _ in range(32))
        self.tuya_gw_id = "".join(rng.choice("0123456789abcdef") for _ in range(20))
        self.tuya_product_key = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz23456789") for _ in range(16))
        self.latitude = 42.337681 + rng.uniform(-0.01, 0.01)
        self.longitude = -71.087036 + rng.uniform(-0.01, 0.01)
        # Discovery clients bind one socket and reuse it across periodic
        # queries (minissdpd-style), so responses land on a stable port.
        self.ssdp_client_port = 50000 + rng.randrange(1000)
        self.tplink_client_port = 51000 + rng.randrange(1000)
        self.ipv6_enabled = profile.supports_ipv6
        self._register_responders()

    # -- identity helpers ---------------------------------------------------------

    def dhcp_hostname(self) -> str:
        scheme = self.profile.dhcp.hostname_scheme
        if scheme is None:
            return ""
        if scheme is HostnameScheme.MODEL:
            return self.profile.model.replace(" ", "-")
        if scheme is HostnameScheme.NAME_AND_MAC:
            return f"{self.profile.model.replace(' ', '-')}-{self.mac.compact()}"
        if scheme is HostnameScheme.VENDOR_AND_PARTIAL_MAC:
            return f"{self.profile.vendor.lower()}-{self.mac.nic_suffix.replace(':', '')}"
        if scheme is HostnameScheme.USER_DISPLAY_NAME:
            return self.profile.display_name.replace(" ", "-")
        if scheme is HostnameScheme.RANDOMIZED:
            return "host-" + "".join(self.rng.choice("0123456789abcdef") for _ in range(8))
        return self.profile.model

    def mdns_instance(self, scheme: str) -> str:
        if scheme == "mac_suffix":
            if self.profile.vendor == "Philips":
                return hue_instance_name(self.mac)
            suffix = self.mac.nic_suffix.replace(":", "").upper()
            return f"{self.profile.model} - {suffix}"
        if scheme == "full_mac":
            return f"{self.profile.model}-{self.mac.compact()}"
        if scheme == "display_name":
            return self.profile.display_name
        if scheme == "spotify_zeroconf":
            return f"{self.profile.model}-{self.mac.compact()}-{self.uuid}"
        return self.profile.model

    def mdns_advertisements(self) -> List[ServiceAdvertisement]:
        if not self.profile.mdns:
            return []
        advertisements = []
        for service_type, scheme, port, txt in self.profile.mdns.advertise:
            txt = dict(txt)
            if self.profile.vendor == "Philips" and "bridgeid" in txt:
                # Hue bridge id embeds the MAC with fffe in the middle.
                octets = self.mac.compact()
                txt["bridgeid"] = (octets[:6] + "fffe" + octets[6:]).upper()
            txt.setdefault("id", self.uuid)
            advertisements.append(
                ServiceAdvertisement(
                    service_type=service_type,
                    instance_name=self.mdns_instance(scheme),
                    hostname=f"{self.dhcp_hostname() or self.profile.model.replace(' ', '-')}.local",
                    port=port,
                    address=self.ip,
                    txt=txt,
                    address_v6=self.ipv6_link_local if self.profile.supports_ipv6 else None,
                )
            )
        return advertisements

    def ssdp_usn(self, target: str) -> str:
        return f"uuid:{self.uuid}::{target}"

    def ssdp_location(self) -> str:
        if self.profile.ssdp and self.profile.ssdp.bad_location_prefix:
            # Fire TV misconfiguration: /16 address unsupported on the LAN.
            return "http://192.168.0.1:49152/desc.xml"
        return f"http://{self.ip}:49152/desc.xml"

    # -- responders ---------------------------------------------------------------

    def _register_responders(self) -> None:
        profile = self.profile
        if profile.mdns:
            self.on_udp(MDNS_PORT, _mdns_responder)
        if profile.ssdp and profile.ssdp.respond:
            self.on_udp(SSDP_PORT, _ssdp_responder)
        if profile.tplink_role == "server":
            self.on_udp(TPLINK_SHP_PORT, _tplink_udp_responder)
            self.on_tcp(TPLINK_SHP_PORT, _tplink_tcp_responder)
        for service in profile.open_services:
            if service.transport == "tcp" and service.protocol == "http":
                self.on_tcp(service.port, _http_responder)
        # Ports this device *receives* cluster chatter on: sink them so the
        # stack does not answer its own peers with port-unreachables.
        for port in profile.stun_like_udp_ports:
            self.on_udp(port, _udp_sink)
        if profile.rtp_port:
            self.on_udp(profile.rtp_port, _udp_sink)

    # -- boot + periodic behaviour ---------------------------------------------------

    def boot(self, jitter: float = 0.0) -> None:
        """Schedule boot-time and periodic traffic on the simulator."""
        sim = self.simulator
        profile = self.profile
        start = jitter

        sim.schedule(start, self._boot_burst)
        mdns = profile.mdns
        if mdns:
            if mdns.send_queries and mdns.query_services and mdns.query_interval > 0:
                sim.schedule_periodic(
                    mdns.query_interval, self._send_mdns_queries, first_delay=start + 1.0
                )
            if mdns.advertise:
                sim.schedule_periodic(900.0, self._announce_mdns, first_delay=start + 2.0)
        ssdp = profile.ssdp
        if ssdp:
            if ssdp.msearch_targets and ssdp.msearch_interval > 0:
                sim.schedule_periodic(
                    ssdp.msearch_interval, self._send_ssdp_msearch, first_delay=start + 3.0
                )
            if ssdp.notify:
                sim.schedule_periodic(
                    ssdp.notify_interval, self._send_ssdp_notify, first_delay=start + 4.0
                )
        if profile.arp_scan.broadcast_sweep_interval > 0:
            sim.schedule_periodic(
                profile.arp_scan.broadcast_sweep_interval,
                self._arp_broadcast_sweep,
                first_delay=start + 120.0,
            )
        if profile.arp_scan.unicast_probe_fraction > 0:
            sim.schedule_periodic(3600.0, self._arp_unicast_probes, first_delay=start + 200.0)
        if profile.arp_scan.probe_public_ips:
            # §5.1: six devices ARP for public IPs (misconfiguration probe).
            sim.schedule_periodic(
                1800.0, lambda: self.send_arp_request("8.8.8.8"), first_delay=start + 40.0
            )
        if profile.tplink_role == "client":
            sim.schedule_periodic(600.0, self._send_tplink_discovery, first_delay=start + 15.0)
        if profile.tuya_broadcast:
            sim.schedule_periodic(5.0, self._send_tuya_broadcast, first_delay=start + 5.0)
        if profile.unknown_broadcast_port:
            sim.schedule_periodic(
                profile.unknown_broadcast_interval,
                self._send_unknown_broadcast,
                first_delay=start + 60.0,
            )
        for port in profile.stun_like_udp_ports:
            sim.schedule_periodic(
                300.0,
                lambda p=port: self._send_stun_like(p),
                first_delay=start + 30.0 + (port % 11),
            )
        if profile.coap_role == "iotivity-client":
            sim.schedule_periodic(300.0, self._send_coap_iotivity, first_delay=start + 45.0)
        elif profile.coap_role == "opaque":
            sim.schedule_periodic(300.0, self._send_coap_opaque, first_delay=start + 45.0)
        if profile.supports_ipv6:
            sim.schedule_periodic(120.0, self._send_icmpv6_ns, first_delay=start + 9.0)
        if profile.matter and profile.supports_ipv6:
            sim.schedule_periodic(600.0, self._announce_matter, first_delay=start + 20.0)

    #: Categories whose legacy stacks emit 802.2 XID probes on boot.
    _XID_CATEGORIES = ("Media/TV", "Game Console", "Home Appliance")

    def _boot_burst(self) -> None:
        profile = self.profile
        if profile.uses_eapol:
            self.send_eapol_handshake()
        self._dhcp_handshake()
        if profile.category in self._XID_CATEGORIES:
            self.lan.transmit(self, xid_broadcast_frame(self.mac))
        if profile.supports_ipv6:
            solicit = Dhcpv6Message.solicit(
                self.mac, self.rng.getrandbits(24), fqdn=self.dhcp_hostname()
            )
            self.send_udp6(
                ALL_DHCP_RELAY_AGENTS, DHCPV6_SERVER_PORT, solicit.encode(),
                src_port=DHCPV6_CLIENT_PORT,
            )
        # Gratuitous ARP announcing the address.
        self.send_arp_request(self.ip)
        if profile.mdns:
            self.join_group(MDNS_GROUP_V4)
        if profile.ssdp:
            self.join_group(SSDP_GROUP_V4)
        if profile.uses_icmp and self.lan:
            self.send_icmp_echo(self.lan.gateway_ip)

    def _dhcp_handshake(self) -> None:
        hostname = self.dhcp_hostname() or None
        vendor_class = self.profile.dhcp.vendor_class or None
        message = DhcpMessage.request(
            self.mac,
            self.rng.getrandbits(32),
            requested_ip=self.ip,
            server_ip=self.lan.gateway_ip,
            hostname=hostname,
            vendor_class=vendor_class,
            parameter_request=self.profile.dhcp.parameter_request,
        )
        self.send_udp(
            "255.255.255.255", DHCP_SERVER_PORT, message.encode(), src_port=DHCP_CLIENT_PORT
        )

    def _send_mdns_queries(self) -> None:
        # Devices that accept unicast responses set the QU bit (RFC 6762
        # §5.4) — the Apple pattern in the testbed.
        query = mdns_query(
            self.profile.mdns.query_services,
            unicast_response=self.profile.mdns.respond_unicast,
        )
        self.send_udp(MDNS_GROUP_V4, MDNS_PORT, query.encode(), src_port=MDNS_PORT)

    def _announce_mdns(self) -> None:
        for advertisement in self.mdns_advertisements():
            self.send_udp(
                MDNS_GROUP_V4, MDNS_PORT, encode_advertisements([advertisement]), src_port=MDNS_PORT
            )

    def _send_ssdp_msearch(self) -> None:
        ssdp = self.profile.ssdp
        for target in ssdp.msearch_targets:
            agent = None
            if ssdp.firmware_rotation:
                agent = self.rng.choice(ssdp.firmware_rotation)
            message = SsdpMessage.msearch(target, user_agent=agent)
            self.send_udp(SSDP_GROUP_V4, SSDP_PORT, message.encode(), src_port=self.ssdp_client_port)

    def _send_ssdp_notify(self) -> None:
        ssdp = self.profile.ssdp
        message = SsdpMessage.notify(
            location=self.ssdp_location(),
            notification_type="upnp:rootdevice",
            usn=self.ssdp_usn("upnp:rootdevice"),
            server=ssdp.server_header or f"{self.profile.vendor} {ssdp.upnp_version}",
        )
        self.send_udp(SSDP_GROUP_V4, SSDP_PORT, message.encode(), src_port=SSDP_PORT)

    def _arp_broadcast_sweep(self) -> None:
        """Echo behaviour: ARP-scan the entire /24 (§5.1)."""
        import ipaddress

        for host in ipaddress.ip_network(self.lan.subnet).hosts():
            target = str(host)
            if target != self.ip:
                self.send_arp_request(target)

    def _arp_unicast_probes(self) -> None:
        others = [node for node in self.lan.nodes if node is not self]
        count = int(len(others) * self.profile.arp_scan.unicast_probe_fraction)
        for node in self.rng.sample(others, min(count, len(others))):
            self.send_arp_request(node.ip, unicast_to=node.mac)
        if self.profile.arp_scan.probe_public_ips:
            self.send_arp_request("8.8.8.8")

    def _send_tplink_discovery(self) -> None:
        query = TplinkShpMessage.get_sysinfo_query()
        self.send_udp("255.255.255.255", TPLINK_SHP_PORT, query.encode(), src_port=self.tplink_client_port)

    def _send_tuya_broadcast(self) -> None:
        message = TuyaLpMessage.discovery(
            gw_id=self.tuya_gw_id,
            product_key=self.tuya_product_key,
            ip=self.ip,
            version="3.3" if self.profile.tuya_encrypted else "3.1",
            encrypted=self.profile.tuya_encrypted,
        )
        port = TUYA_PORT_ENCRYPTED if self.profile.tuya_encrypted else TUYA_PORT_PLAIN
        self.send_udp("255.255.255.255", port, message.encode(), src_port=port)

    def _send_unknown_broadcast(self) -> None:
        payload = bytes([0x24, 0x00]) + self.rng.randbytes(34)
        self.send_udp(
            "255.255.255.255", self.profile.unknown_broadcast_port, payload, src_port=self.ephemeral_port()
        )

    def _send_stun_like(self, port: int) -> None:
        """Google's UDP 10000-10010 traffic (really RTP-ish, Appendix C.2)."""
        peers = [
            node
            for node in self.lan.nodes
            if isinstance(node, DeviceNode) and node.vendor == self.vendor and node is not self
        ]
        if not peers:
            return
        peer = self.rng.choice(peers)
        packet = RtpPacket(
            payload_type=97,
            sequence=self.rng.randrange(65536),
            timestamp=int(self.now * 90000) & 0xFFFFFFFF,
            ssrc=self.rng.getrandbits(32),
            payload=self.rng.randbytes(48),
        )
        self.send_udp(peer.ip, port, packet.encode(), src_port=port)

    def _send_coap_iotivity(self) -> None:
        message = CoapMessage.get("/oic/res", message_id=self.rng.randrange(65536))
        self.send_udp("224.0.1.187", COAP_PORT, message.encode(), src_port=self.ephemeral_port())

    def _send_coap_opaque(self) -> None:
        message = CoapMessage(
            code=2,  # POST
            message_id=self.rng.randrange(65536),
            uri_path=["x"],
            payload=self.rng.randbytes(24),
        )
        self.send_udp("224.0.1.187", COAP_PORT, message.encode(), src_port=self.ephemeral_port())

    def _announce_matter(self) -> None:
        """Matter operational advertisement over IPv6 mDNS (§4.1).

        The paper identifies "the newly-released IPv6-based Matter
        traffic from Amazon Echo smart speakers"; the operational
        instance name is the fabric/node identifier pair.
        """
        fabric_id = self.uuid.replace("-", "")[:16].upper()
        node_id = self.mac.compact().upper().rjust(16, "0")
        advert = ServiceAdvertisement(
            service_type="_matter._tcp.local",
            instance_name=f"{fabric_id}-{node_id}",
            hostname=f"{self.mac.compact().upper()}.local",
            port=5540,
            address=self.ip,
            txt={"SII": "5000", "SAI": "300", "T": "1"},
            address_v6=self.ipv6_link_local,
        )
        self.send_udp6("ff02::fb", MDNS_PORT, encode_advertisements([advert]), src_port=MDNS_PORT)

    def _send_icmpv6_ns(self) -> None:
        others = [
            node for node in self.lan.nodes
            if node is not self and getattr(node, "ipv6_enabled", True)
        ]
        if others:
            target = self.rng.choice(others)
            self.send_neighbor_solicitation(target.ipv6_link_local)


# -- stateless responder callbacks (registered per node) -------------------------


def _mdns_responder(node: DeviceNode, packet: DecodedPacket) -> None:
    payload = packet.udp.payload
    # Only queries are answered.  Every responder receives each mDNS
    # multicast, most of them responses, so drop what cannot be a query
    # before parsing it: a payload shorter than the 12-byte DNS header,
    # or one whose QR bit (top bit of the flags word) marks a response.
    if len(payload) < 12 or payload[2] & 0x80:
        return
    message = parse_mdns(payload)
    if message is None or not message.questions:
        return
    config = node.profile.mdns
    advertisements = node.mdns_advertisements()
    wanted = {question.name for question in message.questions}
    matching = [
        advert
        for advert in advertisements
        if advert.service_type in wanted or "_services._dns-sd._udp.local" in wanted
    ]
    if not matching:
        return
    unicast_wanted = any(question.unicast_response for question in message.questions)
    if unicast_wanted and config.respond_unicast:
        node.send_udp(packet.src_ip, packet.udp.src_port, encode_advertisements(matching),
                      src_port=MDNS_PORT)
    elif config.respond_multicast:
        node.send_udp(MDNS_GROUP_V4, MDNS_PORT, encode_advertisements(matching), src_port=MDNS_PORT)


def _ssdp_responder(node: DeviceNode, packet: DecodedPacket) -> None:
    try:
        message = SsdpMessage.decode(packet.udp.payload)
    except ValueError:
        return
    from repro.protocols.ssdp import SsdpMethod, ST_ALL, ST_ROOT_DEVICE

    if message.method is not SsdpMethod.MSEARCH:
        return
    target = message.search_target or ST_ALL
    known = {ST_ALL, ST_ROOT_DEVICE, "urn:schemas-upnp-org:device:MediaRenderer:1",
             "urn:dial-multiscreen-org:service:dial:1"}
    if target not in known:
        return
    ssdp = node.profile.ssdp
    reply = SsdpMessage.response(
        location=node.ssdp_location(),
        search_target=target if target != ST_ALL else ST_ROOT_DEVICE,
        usn=node.ssdp_usn(ST_ROOT_DEVICE),
        server=ssdp.server_header or f"{node.profile.vendor} {ssdp.upnp_version}",
    )
    node.send_udp(packet.src_ip, packet.udp.src_port, reply.encode(), src_port=SSDP_PORT)


def _tplink_udp_responder(node: DeviceNode, packet: DecodedPacket) -> None:
    try:
        message = TplinkShpMessage.decode(packet.udp.payload)
    except ValueError:
        return
    if not message.is_sysinfo_query:
        return
    reply = TplinkShpMessage.sysinfo_response(
        alias=f"TP-Link {node.profile.model.split()[-1]}",
        device_id=node.tplink_device_id,
        hw_id=node.tplink_hw_id,
        oem_id=node.tplink_oem_id,
        model=node.profile.model,
        dev_name="Wi-Fi Smart Plug With Energy Monitoring"
        if "Plug" in node.profile.model
        else "Smart Wi-Fi LED Bulb",
        latitude=round(node.latitude, 6),
        longitude=round(node.longitude, 6),
        mac=str(node.mac).upper(),
    )
    node.send_udp(packet.src_ip, packet.udp.src_port, reply.encode(), src_port=TPLINK_SHP_PORT)


def _tplink_tcp_responder(node: DeviceNode, packet: DecodedPacket) -> None:
    # Unauthenticated control channel: any valid command is accepted (§5.1).
    try:
        TplinkShpMessage.decode(packet.tcp.payload, transport="tcp")
    except ValueError:
        return
    # State change acknowledged implicitly; the reply travels in the same
    # scripted tcp_exchange that delivered the command.


def _http_responder(node: DeviceNode, packet: DecodedPacket) -> None:
    # HTTP servers answer inside scripted tcp_exchange conversations; this
    # hook exists so honeypot-style probes get a banner even outside them.
    return


def _udp_sink(node: DeviceNode, packet: DecodedPacket) -> None:
    """Accept a datagram silently (an open port with a passive consumer)."""
    return


# -- full-testbed assembly -------------------------------------------------------


class GatewayNode(Node):
    """The home router: DHCP server, DNS forwarder, default gateway."""

    def __init__(self, lan_subnet: str = "192.168.10.0/24"):
        super().__init__(
            name="gateway",
            mac="02:00:00:00:00:01",
            ip="192.168.10.1",
            hostname="router",
            vendor="Netgear",
            services=ServiceTable(
                [
                    # Router-side services visible to LAN scans.
                    # (dns, http admin, upnp igd)
                ]
            ),
        )
        self.dhcp_leases: Dict[str, str] = {}
        self.on_udp(DHCP_SERVER_PORT, self._dhcp_server)

    def _dhcp_server(self, node: Node, packet: DecodedPacket) -> None:
        try:
            message = DhcpMessage.decode(packet.udp.payload)
        except ValueError:
            return
        if message.op != 1 or message.message_type is None:
            return
        client = self.lan.node_by_ip(packet.src_ip) if packet.src_ip != "0.0.0.0" else None
        client_ip = client.ip if client else (
            message.options.get(50) and packet.src_ip or packet.src_ip
        )
        requested = message.options.get(50)
        if requested:
            import ipaddress

            client_ip = str(ipaddress.IPv4Address(requested))
        if not client_ip or client_ip == "0.0.0.0":
            return
        self.dhcp_leases[str(message.client_mac)] = client_ip
        reply = DhcpMessage.reply(
            message,
            DhcpMessageType.ACK,
            your_ip=client_ip,
            server_ip=self.ip,
            router=self.ip,
            dns_server=self.ip,
        )
        self.send_udp(client_ip, DHCP_CLIENT_PORT, reply.encode(), src_port=DHCP_SERVER_PORT,
                      dst_mac=message.client_mac)


@dataclass
class Testbed:
    """The assembled MonIoTr lab: simulator + LAN + 93 device nodes."""

    simulator: Simulator
    lan: Lan
    gateway: GatewayNode
    devices: List[DeviceNode]
    rng: random.Random

    def device(self, name: str) -> Optional[DeviceNode]:
        for node in self.devices:
            if node.name == name:
                return node
        return None

    def devices_of_vendor(self, vendor: str) -> List[DeviceNode]:
        return [node for node in self.devices if node.vendor == vendor]

    def run(self, duration: float, on_event=None, on_event_every: int = 1000) -> int:
        """Advance the lab ``duration`` simulated seconds.

        ``on_event``/``on_event_every`` pass straight through to
        :meth:`Simulator.run` — the liveness hook long campaigns use to
        emit heartbeats (see ``repro.obs.events``).
        """
        return self.simulator.run(until=self.simulator.now + duration,
                                  on_event=on_event,
                                  on_event_every=on_event_every)


def build_testbed(
    seed: int = 7,
    profiles: Optional[List[DeviceProfile]] = None,
    registry: OuiRegistry = DEFAULT_OUI_REGISTRY,
    subnet: str = "192.168.10.0/24",
    wire_clusters: bool = True,
) -> Testbed:
    """Assemble the simulated MonIoTr lab and schedule all behaviour."""
    from repro.devices.catalog import build_catalog

    rng = random.Random(seed)
    simulator = Simulator()
    lan = Lan(simulator, subnet=subnet)
    gateway = GatewayNode(subnet)
    lan.attach(gateway, ip=lan.gateway_ip)

    selected = profiles if profiles is not None else build_catalog()
    devices: List[DeviceNode] = []
    used_macs = set()
    for profile in selected:
        while True:
            mac = registry.allocate_mac(profile.vendor, rng)
            if mac not in used_macs:
                used_macs.add(mac)
                break
        node = DeviceNode(profile, mac, random.Random(rng.getrandbits(64)))
        lan.attach(node)
        devices.append(node)
    testbed = Testbed(simulator, lan, gateway, devices, rng)
    for index, node in enumerate(devices):
        node.boot(jitter=0.25 * index + rng.uniform(0, 0.2))
    if wire_clusters:
        _wire_clusters(testbed)
    return testbed


def _wire_clusters(testbed: Testbed) -> None:
    """Schedule the intra/inter-vendor unicast conversations of Fig. 1/4."""
    sim = testbed.simulator
    rng = testbed.rng

    def tls_session(client: DeviceNode, server: DeviceNode, port: int, interval: float, first: float):
        def exchange():
            profile = server.profile
            version = TlsVersion.TLS_1_3 if (profile.tls and profile.tls.version == "1.3") else TlsVersion.TLS_1_2
            tls = profile.tls
            cn = server.ip if (tls and tls.cn_scheme == "local_ip") else (
                "0.0.0.0" if (tls and tls.cn_scheme == "zero_ip") else f"{server.hostname}.local"
            )
            cert = CertificateInfo(
                subject_cn=cn,
                issuer_cn=cn if (tls and tls.self_signed) else f"{profile.vendor} Device CA",
                not_before=0.0,
                not_after=(tls.cert_validity_days if tls else 365.0) * 86400.0,
                key_bits=tls.key_bits if tls else 2048,
                self_signed=bool(tls and tls.self_signed),
            )
            client_records = [TlsRecord.client_hello(version).encode()]
            server_records = [
                TlsRecord.server_hello(version).encode()
                + (b"" if version is TlsVersion.TLS_1_3 else TlsRecord.certificate([cert], version).encode()),
                TlsRecord.application_data(rng.randrange(64, 512), version).encode(),
            ]
            if tls and tls.mutual_auth and version is not TlsVersion.TLS_1_3:
                client_cert = CertificateInfo(
                    subject_cn=client.ip, issuer_cn=client.ip, not_before=0.0,
                    not_after=90 * 86400.0, self_signed=True,
                )
                client_records.append(TlsRecord.certificate([client_cert], version).encode())
            client_records.append(TlsRecord.application_data(rng.randrange(64, 256), version).encode())
            testbed.lan.tcp_exchange(client, server, port, client_records, server_records)

        sim.schedule_periodic(interval, exchange, first_delay=first)

    def udp_chatter(a: DeviceNode, b: DeviceNode, port: int, interval: float, first: float):
        a.on_udp(port, _udp_sink)
        b.on_udp(port, _udp_sink)

        def exchange():
            payload = bytes([0xA7, 0x01]) + rng.randbytes(30)
            a.send_udp(b.ip, port, payload, src_port=port)
            b.send_udp(a.ip, port, bytes([0xA7, 0x02]) + rng.randbytes(22), src_port=port)

        sim.schedule_periodic(interval, exchange, first_delay=first)

    def http_get(client: DeviceNode, server: DeviceNode, port: int, path: str, interval: float, first: float,
                 server_software: str = "", server_version: str = ""):
        def exchange():
            headers = {"Host": f"{server.ip}:{port}"}
            if client.profile.http_user_agent:
                headers["User-Agent"] = client.profile.http_user_agent
            request = HttpRequest("GET", path, headers)
            response = HttpResponse(
                200, "OK",
                {"Server": server_software or f"{server.vendor}-httpd/{server_version or '1.0'}"},
                b'{"status":"ok"}',
            )
            testbed.lan.tcp_exchange(client, server, port, [request.encode()], [response.encode()])

        sim.schedule_periodic(interval, exchange, first_delay=first)

    devices = testbed.devices

    # Amazon cluster: an Echo coordinator fans out to every other Amazon
    # device (Fig. 4b/4e "clear coordinator"), TLS 1.2 + unknown UDP.
    amazon = [node for node in devices if node.vendor == "Amazon"]
    if len(amazon) > 1:
        coordinator = amazon[0]
        for offset, member in enumerate(amazon[1:], start=1):
            tls_session(coordinator, member, 4070, interval=1800.0, first=30.0 + offset * 2.0)
            # Proprietary/unidentified UDP (Fig. 4e) — deliberately not a
            # protocol any classifier knows.
            udp_chatter(coordinator, member, 49317, interval=600.0, first=45.0 + offset * 1.5)

    # Google cluster: hub-centric TLS 1.2 on 8009 + UDP 10001 chatter.
    google = [node for node in devices if node.vendor == "Google"]
    hubs = [node for node in google if "Hub" in node.profile.model] or google[:1]
    if google and hubs:
        for offset, member in enumerate(google, start=1):
            if member in hubs:
                continue
            tls_session(hubs[0], member, 8009, interval=1200.0, first=40.0 + offset * 2.0)
            udp_chatter(hubs[0], member, 10001, interval=500.0, first=55.0 + offset * 1.5)
        if len(hubs) > 1:
            tls_session(hubs[0], hubs[1], 8009, interval=1200.0, first=38.0)

    # Apple cluster: mesh TLS 1.3.
    apple = [node for node in devices if node.vendor == "Apple"]
    for index, client in enumerate(apple):
        for server in apple[index + 1 :]:
            tls_session(client, server, 7000, interval=1500.0, first=60.0 + index * 3.0)

    # Interoperability edges (§4.1): speakers control TP-Link over TCP 9999,
    # talk to the Hue hub over HTTP(S), and cast to TVs.
    tplinks = [node for node in devices if node.vendor == "TP-Link"]
    hue = next((node for node in devices if node.profile.model == "Philips Hue Bridge"), None)
    controllers = [node for node in amazon[:1] + hubs[:1] if node is not None]
    for controller in controllers:
        for plug in tplinks:
            def control(plug=plug, controller=controller):
                command = TplinkShpMessage.set_relay_state(True).encode("tcp")
                reply = TplinkShpMessage({"system": {"set_relay_state": {"err_code": 0}}}).encode("tcp")
                testbed.lan.tcp_exchange(controller, plug, TPLINK_SHP_PORT, [command], [reply])

            sim.schedule_periodic(900.0, control, first_delay=70.0 + rng.uniform(0, 5))
        if hue is not None:
            http_get(controller, hue, 80, "/api/config", interval=600.0, first=80.0,
                     server_software="hue-api", server_version="1.50")

    # Casting: Google hub issues HTTP to the TVs' control endpoints.
    tvs = [node for node in devices if node.profile.category == "Media/TV"]
    caster = hubs[0] if hubs else None
    if caster:
        for offset, tv in enumerate(tvs):
            port = next((service.port for service in tv.profile.open_services
                         if service.transport == "tcp" and service.protocol == "http"), None)
            if port and tv.vendor != "Google":
                http_get(caster, tv, port, "/dial/apps", interval=1200.0, first=90.0 + offset * 4.0)

    # SmartThings hub polls Meross/Sengled HTTP endpoints (platform edges).
    smartthings = next((node for node in devices if node.vendor == "SmartThings"), None)
    if smartthings:
        for offset, peer_name in enumerate(["meross-1", "sengled-hub-1"]):
            peer = testbed.device(peer_name)
            if peer is None:
                continue
            port = next((service.port for service in peer.profile.open_services
                         if service.transport == "tcp" and service.protocol == "http"), None)
            if port:
                http_get(smartthings, peer, port, "/config", interval=1500.0, first=100.0 + offset * 5.0)

    # SSDP searchers fetch device descriptions from the LOCATION URL
    # over plaintext HTTP (the §5.2 HTTP-client census: most HTTP
    # devices "appear only as clients").
    from repro.protocols.ssdp import device_description_xml

    responders = [node for node in devices if node.profile.ssdp and node.profile.ssdp.respond]
    searchers = [
        node for node in devices
        if node.profile.ssdp and node.profile.ssdp.msearch_targets and node not in responders
    ]
    for offset, searcher in enumerate(searchers):
        if not responders:
            break
        target = responders[offset % len(responders)]

        def fetch(searcher=searcher, target=target):
            request = HttpRequest("GET", "/desc.xml", {"Host": f"{target.ip}:49152"})
            body = device_description_xml(
                friendly_name=target.profile.display_name,
                manufacturer=target.vendor,
                model_name=target.profile.model,
                udn=target.uuid,
                serial_number=str(target.mac),
            ).encode("utf-8")
            response = HttpResponse(
                200, "OK",
                {"Server": target.profile.ssdp.server_header or "UPnP/1.0",
                 "Content-Type": "text/xml"},
                body,
            )
            testbed.lan.tcp_exchange(searcher, target, 49152, [request.encode()],
                                     [response.encode()])

        target.services.add(
            __import__("repro.simnet.services", fromlist=["ServiceInfo"]).ServiceInfo(
                49152, "tcp", "http", "HTTP/1.1 200 OK", "upnp-description", "1.0"
            )
        )
        sim.schedule_periodic(700.0 + (offset % 7) * 20.0, fetch,
                              first_delay=130.0 + offset * 2.0)

    # Echo multi-room RTP (UDP 55444) between two Echoes.
    if len(amazon) >= 3:
        def multiroom():
            sender, receiver = amazon[1], amazon[2]
            packet = RtpPacket(
                payload_type=97,
                sequence=rng.randrange(65536),
                timestamp=int(sim.now * 48000) & 0xFFFFFFFF,
                ssrc=0x45C40,
                payload=rng.randbytes(160),
            )
            sender.send_udp(receiver.ip, 55444, packet.encode(), src_port=55444)

        sim.schedule_periodic(20.0, multiroom, first_delay=110.0)
