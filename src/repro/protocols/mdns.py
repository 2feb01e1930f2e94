"""mDNS (RFC 6762) helpers on top of the DNS codec.

mDNS is the workhorse of §5.1: 44% of testbed devices use it; hostnames
are "often constructed by appending unique identifiers such as MAC
addresses, device IDs, serial numbers", which is exactly what the §6.3
entropy analysis mines.  This module builds queries, responses, and full
service advertisements (PTR + SRV + TXT + A), including the
paper-documented naming schemes (Philips Hue embedding its MAC, Spotify
Connect ZeroConf URLs embedding MAC + device ID + session UUIDs).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.net.mac import MacAddress
from repro.protocols.dns import DnsMessage, DnsQuestion, DnsRecord, DnsType

MDNS_PORT = 5353
MDNS_GROUP_V4 = "224.0.0.251"
MDNS_GROUP_V6 = "ff02::fb"

#: Service types observed in the testbed (§5.1): casting, printing,
#: platform services, streaming, IoT standards, networking protocols.
WELL_KNOWN_SERVICES = {
    "googlecast": "_googlecast._tcp.local",
    "viziocast": "_viziocast._tcp.local",
    "airplay": "_airplay._tcp.local",
    "raop": "_raop._tcp.local",
    "homekit": "_hap._tcp.local",
    "spotify-connect": "_spotify-connect._tcp.local",
    "ipp": "_ipp._tcp.local",
    "alexa": "_amzn-alexa._tcp.local",
    "matter": "_matter._tcp.local",
    "matter-commissionable": "_matterc._udp.local",
    "thread": "_meshcop._udp.local",
    "sleep-proxy": "_sleep-proxy._udp.local",
    "hue": "_hue._tcp.local",
    "companion-link": "_companion-link._tcp.local",
    "workstation": "_workstation._tcp.local",
}


#: How many distinct payloads :func:`parse_mdns` remembers, least
#: recently used first out.  A seed-7 passive run of 300 s carries 309.
MDNS_PARSE_CACHE_SIZE = 512


@functools.lru_cache(maxsize=MDNS_PARSE_CACHE_SIZE)
def parse_mdns(payload: bytes) -> Optional[DnsMessage]:
    """The message an mDNS payload decodes to, or ``None`` when it does
    not decode.

    Every mDNS responder on the LAN, the honeypot's included, reads each
    multicast payload; they all read it through this one memo, keyed by
    the payload's bytes.  The message is shared by every caller that
    asks for the same bytes: read it, never change it.
    :meth:`DnsMessage.decode` itself remembers nothing, so the captures'
    readers (ingest, the monitor, the fleet) decode afresh each call.
    """
    try:
        return DnsMessage.decode(payload)
    except ValueError:
        return None


def mdns_query(
    service_types: List[str],
    unicast_response: bool = False,
    transaction_id: int = 0,
) -> DnsMessage:
    """Build an mDNS PTR query for one or more service types."""
    message = DnsMessage(transaction_id=transaction_id)
    for service in service_types:
        message.questions.append(
            DnsQuestion(service, DnsType.PTR, unicast_response=unicast_response)
        )
    return message


@dataclass
class ServiceAdvertisement:
    """A complete mDNS service instance advertisement.

    ``instance_name`` is the (potentially identifier-bearing) instance
    label, e.g. ``Philips Hue - 685F61``; ``hostname`` is the A-record
    owner, e.g. ``Philips-hue.local``.
    """

    service_type: str
    instance_name: str
    hostname: str
    port: int
    address: str
    txt: Dict[str, str] = field(default_factory=dict)
    address_v6: Optional[str] = None

    @property
    def full_instance(self) -> str:
        return f"{self.instance_name}.{self.service_type}"

    def to_response(self, transaction_id: int = 0) -> DnsMessage:
        """Render as an authoritative mDNS response message."""
        instance = self.full_instance
        additionals = [DnsRecord.a(self.hostname, self.address)]
        if self.address_v6:
            additionals.append(DnsRecord.aaaa(self.hostname, self.address_v6))
        return DnsMessage(
            transaction_id=transaction_id, is_response=True, authoritative=True,
            answers=[DnsRecord.ptr(self.service_type, instance),
                     DnsRecord.srv(instance, self.hostname, self.port),
                     DnsRecord.txt(instance, self.txt)],
            additionals=additionals,
        )

    @classmethod
    def from_response(cls, message: DnsMessage) -> List["ServiceAdvertisement"]:
        """Parse advertisements back out of a response message."""
        advertisements: List[ServiceAdvertisement] = []
        srv_by_name = {}
        txt_by_name = {}
        addr_by_host = {}
        addr6_by_host = {}
        for record in message.all_records:
            if record.rtype == DnsType.SRV:
                srv_by_name[record.name] = record.srv_target()
            elif record.rtype == DnsType.TXT:
                txt_by_name[record.name] = record.txt_entries()
            elif record.rtype == DnsType.A:
                addr_by_host[record.name] = record.address()
            elif record.rtype == DnsType.AAAA:
                addr6_by_host[record.name] = record.address()
        for record in message.all_records:
            if record.rtype != DnsType.PTR:
                continue
            instance = record.ptr_target()
            srv = srv_by_name.get(instance)
            if instance is None or srv is None:
                continue
            hostname, port = srv
            service_type = record.name
            label = instance[: -(len(service_type) + 1)] if instance.endswith(service_type) else instance
            advertisements.append(
                cls(
                    service_type=service_type,
                    instance_name=label,
                    hostname=hostname,
                    port=port,
                    address=addr_by_host.get(hostname, "0.0.0.0"),
                    txt=txt_by_name.get(instance, {}),
                    address_v6=addr6_by_host.get(hostname),
                )
            )
        return advertisements


def mdns_response(advertisements: List[ServiceAdvertisement]) -> DnsMessage:
    """Merge several advertisements into one response message."""
    message = DnsMessage(is_response=True, authoritative=True)
    for advertisement in advertisements:
        part = advertisement.to_response()
        message.answers.extend(part.answers)
        message.additionals.extend(part.additionals)
    return message


# -- paper-documented hostname construction schemes ---------------------------


def hue_instance_name(mac) -> str:
    """Philips Hue reveals its MAC in mDNS names: ``Philips Hue - 685F61``."""
    return f"Philips Hue - {MacAddress(mac).nic_suffix.replace(':', '').upper()}"


def spotify_connect_path(mac, device_id: str, session_uuid: str) -> str:
    """Spotify Connect ZeroConf .local URL embedding MAC + IDs (§5.1)."""
    compact = MacAddress(mac).compact()
    return f"/zc/{compact}/{device_id}/{session_uuid}"


def reverse_v6_name(mac) -> str:
    """The ip6.arpa reverse name derived from a MAC via EUI-64.

    Table 5 shows Philips Hue advertising
    ``1.6.F.5.8.6.E.F.F.F.8.8.7.1.2.0...ip6.arpa`` — the MAC nibbles
    reversed inside the SLAAC address.
    """
    from repro.net.ipv6 import link_local_from_mac
    import ipaddress

    address = ipaddress.IPv6Address(link_local_from_mac(mac))
    nibbles = address.exploded.replace(":", "")
    return ".".join(reversed(nibbles.upper())) + ".ip6.arpa"
