"""mDNS honeypot: advertises marked services and logs queriers."""

from __future__ import annotations

from typing import List, Optional

from repro.honeypot.base import Honeypot, HoneypotLog
from repro.net.decode import DecodedPacket
from repro.protocols.mdns import (
    MDNS_GROUP_V4,
    MDNS_PORT,
    ServiceAdvertisement,
    encode_advertisements,
    parse_mdns,
)


class MdnsHoneypot(Honeypot):
    """Emulates Bonjour services (cast, AirPlay) with marked instances."""

    protocol = "mdns"

    #: Service types the honeypot pretends to run.
    SERVED_TYPES = [
        "_googlecast._tcp.local",
        "_airplay._tcp.local",
        "_spotify-connect._tcp.local",
        "_services._dns-sd._udp.local",
    ]

    def __init__(self, name: str = "honeypot-mdns", mac="02:00:00:00:00:a2",
                 log: Optional[HoneypotLog] = None):
        super().__init__(name=name, mac=mac, log=log)
        self.on_udp(MDNS_PORT, type(self)._on_mdns)

    def attach_to(self, lan) -> "MdnsHoneypot":
        lan.attach(self)
        self.join_group(MDNS_GROUP_V4)
        return self

    def advertisements(self, marker: str) -> List[ServiceAdvertisement]:
        return [
            ServiceAdvertisement(
                service_type=service_type,
                instance_name=f"Honey-{marker}",
                hostname=f"honey-{marker}.local",
                port=8009,
                address=self.ip,
                txt={"id": marker, "md": "HoneyCast"},
            )
            for service_type in self.SERVED_TYPES
            if service_type != "_services._dns-sd._udp.local"
        ]

    def _on_mdns(self, packet: DecodedPacket) -> None:
        message = parse_mdns(packet.udp.payload)
        if message is None:
            self.record_contact(packet, "undecodable mDNS payload", malformed=True)
            return
        if message.is_response:
            names = [record.name for record in message.all_records[:3]]
            self.record_contact(packet, f"response advertising {names}")
            return
        asked = [question.name for question in message.questions]
        wanted = [name for name in asked if name in self.SERVED_TYPES]
        if not wanted:
            self.record_contact(packet, f"query for {asked}")
            return
        marker = self.next_marker()
        response = encode_advertisements([
            advertisement for advertisement in self.advertisements(marker)
            if advertisement.service_type in wanted or "_services._dns-sd._udp.local" in wanted
        ])
        unicast = any(question.unicast_response for question in message.questions)
        if unicast:
            self.send_udp(packet.src_ip, packet.udp.src_port, response, src_port=MDNS_PORT)
        else:
            self.send_udp(MDNS_GROUP_V4, MDNS_PORT, response, src_port=MDNS_PORT)
        self.record_contact(packet, f"query for {wanted}", marker=marker)
